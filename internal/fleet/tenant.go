package fleet

import (
	"sort"
	"strings"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

// TenantConfig turns on per-tenant ingest quotas at the router. A tenant
// is the budget-owning principal behind a set of clients: the client-id
// prefix before the first "/" ("tenant-a/host-3" belongs to "tenant-a").
// Each tenant gets a token bucket of Rate tokens per second with a
// Burst-deep reservoir; a submission that finds the bucket empty is
// NACKed retryably, so a saturating tenant degrades to backoff-paced
// throughput without ever occupying the shard links that other tenants'
// traffic needs.
type TenantConfig struct {
	// Rate is the sustained messages-per-second budget per tenant
	// (required, > 0).
	Rate float64
	// Burst is the bucket depth — how many messages a tenant may submit
	// back-to-back after an idle period (default:
	// analyzerd.DefaultBurst(Rate)).
	Burst int
}

// TenantOf resolves a client id to its tenant name. A client id without
// a "/" (or starting with one) is its own tenant.
func TenantOf(client string) string {
	if i := strings.Index(client, "/"); i > 0 {
		return client[:i]
	}
	return client
}

// tenantBucket is one tenant's token bucket plus its drain-time
// accounting. Guarded by the router's qmu.
type tenantBucket struct {
	analyzerd.TokenBucket
	admitted int64 // submissions that passed the quota gate
	limited  int64 // submissions NACKed over-quota
}

// admitTenant applies the per-tenant quota to one named submission,
// returning the tenant name and whether the message may proceed. With
// quotas disabled every submission is admitted under its tenant name
// (accounting still groups by tenant). First sight of a tenant registers
// its gauges.
func (r *Router) admitTenant(client string) (tenant string, ok bool) {
	tc := r.cfg.Tenants
	if tc == nil {
		return "", true
	}
	tenant = TenantOf(client)
	now := r.now()
	r.qmu.Lock()
	b := r.tenants[tenant]
	if b == nil {
		b = &tenantBucket{TokenBucket: analyzerd.FullBucket(tc.Burst)}
		r.tenants[tenant] = b
		r.publishTenant(tenant, b)
	}
	ok = b.Take(now, tc.Rate, tc.Burst)
	if ok {
		b.admitted++
	} else {
		b.limited++
	}
	r.qmu.Unlock()
	return tenant, ok
}

// publishTenant registers the per-tenant gauges (caller holds qmu; the
// closures re-lock on read).
func (r *Router) publishTenant(tenant string, b *tenantBucket) {
	reg := r.cfg.Metrics
	if reg == nil {
		return
	}
	san := sanitizeMetric(tenant)
	reg.GaugeFunc("vedr_router_tenant_"+san+"_admitted", "submissions admitted for tenant "+tenant,
		func() int64 {
			r.qmu.Lock()
			defer r.qmu.Unlock()
			return b.admitted
		})
	reg.GaugeFunc("vedr_router_tenant_"+san+"_limited", "submissions NACKed over-quota for tenant "+tenant,
		func() int64 {
			r.qmu.Lock()
			defer r.qmu.Unlock()
			return b.limited
		})
}

// sanitizeMetric maps a tenant name onto the metric-name alphabet.
func sanitizeMetric(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// TenantAccounts snapshots the per-tenant drain accounting: every tenant
// the router has seen, with its distinct client count, the payloads those
// clients had acknowledged, and how many submissions the quota gate
// limited. Sorted by tenant name; the prefix convention groups the
// accounting with or without a TenantConfig.
func (r *Router) TenantAccounts() []wire.TenantAccount {
	byTenant := map[string]*wire.TenantAccount{}
	get := func(name string) *wire.TenantAccount {
		ta := byTenant[name]
		if ta == nil {
			ta = &wire.TenantAccount{Tenant: name}
			byTenant[name] = ta
		}
		return ta
	}
	r.tmu.Lock()
	for client, ct := range r.tallies {
		ta := get(TenantOf(client))
		ta.Clients++
		ta.Records += int64(ct.tally.Records)
		ta.Reports += int64(ct.tally.Reports)
		ta.CFs += int64(ct.tally.CFs)
	}
	r.tmu.Unlock()
	r.qmu.Lock()
	for tenant, b := range r.tenants {
		get(tenant).Limited += b.limited
	}
	r.qmu.Unlock()
	names := make([]string, 0, len(byTenant))
	for name := range byTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]wire.TenantAccount, 0, len(names))
	for _, name := range names {
		out = append(out, *byTenant[name])
	}
	return out
}
