package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind classifies a registered metric.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing int64. Safe for concurrent use;
// all methods are no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored — counters only
// go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. Safe for concurrent use; no-op on nil.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Max raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates int64 observations into fixed cumulative buckets.
// Safe for concurrent use; no-op on nil.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64 // ascending upper bounds; +Inf bucket is implicit
	counts []int64 // len(bounds)+1, last is the overflow bucket
	sum    int64
	count  int64
}

// Observe folds one observation in.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// Le is the inclusive upper bound.
	Le int64
	// Count is the cumulative count of observations <= Le.
	Count int64
}

// Sample is one metric's point-in-time state.
type Sample struct {
	Name string
	Help string
	Kind Kind
	// Value holds the counter or gauge value.
	Value int64
	// Buckets, Sum, and Count hold histogram state (cumulative buckets,
	// excluding the implicit +Inf bucket whose count is Count).
	Buckets []Bucket
	Sum     int64
	Count   int64
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of a histogram
// sample by linear interpolation inside the cumulative bucket holding
// that rank — the histogram_quantile estimator. Observations are assumed
// non-negative (the first bucket interpolates from 0). Ranks that land in
// the implicit +Inf bucket clamp to the highest finite bound, so the
// estimate never invents a value beyond what the buckets can resolve. An
// empty or non-histogram sample yields 0.
func (s Sample) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	last := s.Buckets[len(s.Buckets)-1]
	if rank > float64(last.Count) {
		return float64(last.Le)
	}
	i := sort.Search(len(s.Buckets), func(i int) bool {
		return float64(s.Buckets[i].Count) >= rank
	})
	upper := float64(s.Buckets[i].Le)
	lower, prev := 0.0, int64(0)
	if i > 0 {
		lower = float64(s.Buckets[i-1].Le)
		prev = s.Buckets[i-1].Count
	}
	in := s.Buckets[i].Count - prev
	if in == 0 {
		return upper
	}
	return lower + (upper-lower)*(rank-float64(prev))/float64(in)
}

type metricEntry struct {
	name string
	help string
	kind Kind
	ctr  *Counter
	gge  *Gauge
	fn   func() int64
	hist *Histogram
}

// Registry holds named metrics. Registration is get-or-create and safe
// for concurrent use; every method no-ops on a nil receiver so an
// instrumented call site never branches on whether metrics are enabled.
type Registry struct {
	mu sync.Mutex
	by map[string]*metricEntry
	// conflicts counts kind-mismatched re-registrations. It lives outside
	// the by map (lookup already holds mu, and a conflict must never fail)
	// and is synthesized into snapshots as ConflictMetric once non-zero,
	// so misregistrations are observable instead of silently detached.
	conflicts Counter
}

// ConflictMetric names the self-metric counting kind-mismatched
// re-registrations (see Registry.lookup).
const ConflictMetric = "obs_registration_conflicts"

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: map[string]*metricEntry{}}
}

// lookup returns the entry for name, creating it with create when absent.
// A name registered under a different kind yields a fresh detached entry
// (recorded nowhere) rather than a panic — the nopanic invariant; the
// mismatch is a programming error, surfaced by the ConflictMetric counter
// on top of the missing metric.
func (r *Registry) lookup(name string, kind Kind, create func() *metricEntry) *metricEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.by[name]; ok {
		if e.kind == kind {
			return e
		}
		r.conflicts.Inc()
		return create()
	}
	e := create()
	r.by[name] = e
	return e
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, KindCounter, func() *metricEntry {
		return &metricEntry{name: name, help: help, kind: KindCounter, ctr: &Counter{}}
	})
	return e.ctr
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, KindGauge, func() *metricEntry {
		return &metricEntry{name: name, help: help, kind: KindGauge, gge: &Gauge{}}
	})
	return e.gge
}

// GaugeFunc registers a gauge computed at snapshot time. Re-registering
// the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	e := r.lookup(name, KindGauge, func() *metricEntry {
		return &metricEntry{name: name, help: help, kind: KindGauge, fn: fn}
	})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram with the given ascending upper
// bounds, registering it on first use (later calls ignore bounds).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, KindHistogram, func() *metricEntry {
		b := append([]int64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		return &metricEntry{name: name, help: help, kind: KindHistogram,
			hist: &Histogram{bounds: b, counts: make([]int64, len(b)+1)}}
	})
	return e.hist
}

// Snapshot returns every metric's current state, sorted by name.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.by))
	for _, e := range r.by {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Help: e.help, Kind: e.kind}
		switch {
		case e.ctr != nil:
			s.Value = e.ctr.Value()
		case e.fn != nil:
			s.Value = e.fn()
		case e.gge != nil:
			s.Value = e.gge.Value()
		case e.hist != nil:
			e.hist.mu.Lock()
			cum := int64(0)
			for i, b := range e.hist.bounds {
				cum += e.hist.counts[i]
				s.Buckets = append(s.Buckets, Bucket{Le: b, Count: cum})
			}
			s.Sum = e.hist.sum
			s.Count = e.hist.count
			e.hist.mu.Unlock()
		}
		out = append(out, s)
	}
	if c := r.conflicts.Value(); c > 0 {
		// Synthesized only once a conflict happened, so clean registries
		// render exactly as before; inserted in name order to keep the
		// sorted-snapshot contract.
		s := Sample{Name: ConflictMetric, Help: "kind-mismatched metric re-registrations",
			Kind: KindCounter, Value: c}
		i := sort.Search(len(out), func(i int) bool { return out[i].Name >= s.Name })
		out = append(out, Sample{})
		copy(out[i+1:], out[i:])
		out[i] = s
	}
	return out
}

// Flatten renders the snapshot as a flat name→value map: counters and
// gauges directly, histograms as <name>_sum, <name>_count, and one
// cumulative `<name>_bucket{le="B"}` key per bound plus the implicit
// `{le="+Inf"}` — the same series WritePrometheus renders, so bundles and
// expvar carry full distributions, not just the mean. The map is what
// result bundles embed (encoding/json sorts the keys).
func (r *Registry) Flatten() map[string]int64 {
	if r == nil {
		return nil
	}
	out := map[string]int64{}
	for _, s := range r.Snapshot() {
		if s.Kind == KindHistogram {
			for _, b := range s.Buckets {
				out[fmt.Sprintf("%s_bucket{le=%q}", s.Name, strconv.FormatInt(b.Le, 10))] = b.Count
			}
			out[s.Name+`_bucket{le="+Inf"}`] = s.Count
			out[s.Name+"_sum"] = s.Sum
			out[s.Name+"_count"] = s.Count
			continue
		}
		out[s.Name] = s.Value
	}
	return out
}
