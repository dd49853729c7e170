package fleet

import (
	"fmt"
	"testing"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/wire"
)

func TestTenantOf(t *testing.T) {
	for _, tc := range []struct {
		client, want string
	}{
		{"team-a/host-3", "team-a"},
		{"team-a/h/with/slashes", "team-a"},
		{"solo", "solo"},   // no separator: its own tenant
		{"/anon", "/anon"}, // leading separator: no usable prefix
		{"", ""},
	} {
		if got := TenantOf(tc.client); got != tc.want {
			t.Errorf("TenantOf(%q) = %q, want %q", tc.client, got, tc.want)
		}
	}
}

// TestTenantQuotaIsolation is the quota regression contract: a 32-client
// tenant hammering the router cannot exceed its budget — it degrades to
// retry-paced throughput with zero loss — while a quiet tenant sharing
// the fleet is never limited.
func TestTenantQuotaIsolation(t *testing.T) {
	m := wire.ShardMap{Shards: 2}
	srvs := make([]*analyzerd.Server, 2)
	addrs := make([]string, 2)
	for i := range srvs {
		srvs[i] = startTestShard(t, m, i, "")
		addrs[i] = srvs[i].Addr()
	}
	router, err := StartRouter("127.0.0.1:0", RouterConfig{
		Map: m, Addrs: addrs,
		Tenants: &TenantConfig{Rate: 50, Burst: 4},
	})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer func() {
		router.Close()
		for _, s := range srvs {
			_ = s.Close()
		}
	}()

	send := func(id string, i int) {
		rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
			ID: id, MaxAttempts: 40,
			BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewReliableClient(%s): %v", id, err)
		}
		if err := rc.SendCF(hostFlow(i)); err != nil {
			t.Fatalf("%s send: %v", id, err)
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("%s close: %v", id, err)
		}
	}

	// The hog's 32 clients submit back-to-back — far beyond a
	// 4-deep/50-per-second bucket, so the quota gate must push back —
	// with the quiet tenant interleaved throughout.
	for i := 0; i < 32; i++ {
		send(fmt.Sprintf("hog/c%02d", i), i)
		if i%8 == 0 {
			send(fmt.Sprintf("quiet/q%02d", i/8), 100+i)
		}
	}

	accounts := router.TenantAccounts()
	byName := map[string]wire.TenantAccount{}
	for _, a := range accounts {
		byName[a.Tenant] = a
	}
	hog, quiet := byName["hog"], byName["quiet"]
	if hog.Clients != 32 || hog.CFs != 32 {
		t.Errorf("hog account = %+v, want 32 clients / 32 flows through", hog)
	}
	if hog.Limited == 0 {
		t.Errorf("hog was never limited: %+v (quota gate not engaging)", hog)
	}
	if quiet.Clients != 4 || quiet.CFs != 4 {
		t.Errorf("quiet account = %+v, want all 4 submissions through", quiet)
	}
	if quiet.Limited != 0 {
		t.Errorf("quiet tenant was limited %d times by the hog's saturation", quiet.Limited)
	}
	if st := router.Stats(); st.TenantLimited != hog.Limited {
		t.Errorf("router TenantLimited = %d, accounts say %d", st.TenantLimited, hog.Limited)
	}
	if st := router.Stats(); st.Rejected != 0 || st.ShardDown != 0 {
		t.Errorf("quota NACKs leaked into other failure counters: %+v", st)
	}
}

// TestTenantAccountsWithoutQuotas: accounting still groups by the
// default prefix convention when no TenantConfig is set, and nothing is
// ever limited.
func TestTenantAccountsWithoutQuotas(t *testing.T) {
	m := wire.ShardMap{Shards: 1}
	srv := startTestShard(t, m, 0, "")
	router, err := StartRouter("127.0.0.1:0", RouterConfig{Map: m, Addrs: []string{srv.Addr()}})
	if err != nil {
		t.Fatalf("StartRouter: %v", err)
	}
	defer func() {
		router.Close()
		_ = srv.Close()
	}()

	for i, id := range []string{"team-a/h0", "team-a/h1", "team-b/h0", "solo"} {
		rc, err := analyzerd.NewReliableClient(router.Addr(), analyzerd.ClientConfig{
			ID: id, MaxAttempts: 10,
			BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.SendCF(hostFlow(i)); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	accounts := router.TenantAccounts()
	if len(accounts) != 3 {
		t.Fatalf("accounts = %+v, want team-a, team-b, solo", accounts)
	}
	if accounts[0].Tenant != "solo" || accounts[1].Tenant != "team-a" || accounts[2].Tenant != "team-b" {
		t.Fatalf("accounts not sorted by tenant: %+v", accounts)
	}
	if accounts[1].Clients != 2 || accounts[1].CFs != 2 {
		t.Errorf("team-a = %+v, want 2 clients / 2 flows", accounts[1])
	}
	for _, a := range accounts {
		if a.Limited != 0 {
			t.Errorf("tenant %s limited with quotas disabled: %+v", a.Tenant, a)
		}
	}
}
