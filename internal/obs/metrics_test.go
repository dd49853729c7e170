package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c", "ignored"); again != c {
		t.Error("re-registering a counter did not return the same instance")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Max(3) // lower: no-op
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}

	r.GaugeFunc("gf", "computed", func() int64 { return 42 })
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "a histogram", []int64{100, 10, 1000}) // unsorted on purpose
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d samples, want 1", len(snap))
	}
	s := snap[0]
	want := []Bucket{{Le: 10, Count: 2}, {Le: 100, Count: 4}, {Le: 1000, Count: 4}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 5 || s.Sum != 5126 {
		t.Errorf("count/sum = %d/%d, want 5/5126", s.Count, s.Sum)
	}
}

func TestSnapshotSortedAndFlatten(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zz", "").Set(1)
	r.Counter("aa", "").Add(2)
	r.Histogram("mm", "", []int64{10}).Observe(3)

	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, []string{"aa", "mm", "zz"}) {
		t.Errorf("snapshot order = %v, want sorted by name", names)
	}

	flat := r.Flatten()
	want := map[string]int64{
		"aa": 2, "zz": 1, "mm_sum": 3, "mm_count": 1,
		`mm_bucket{le="10"}`: 1, `mm_bucket{le="+Inf"}`: 1,
	}
	if !reflect.DeepEqual(flat, want) {
		t.Errorf("Flatten = %v, want %v", flat, want)
	}
}

// TestKindClashDetaches pins the nopanic behaviour: registering an
// existing name under a different kind yields a working but unrecorded
// metric instead of panicking — and the clash itself is counted by the
// obs_registration_conflicts self-metric so it is observable.
func TestKindClashDetaches(t *testing.T) {
	r := NewRegistry()
	if got := r.Flatten(); len(got) != 0 {
		t.Errorf("clean registry Flatten = %v, want empty (no conflict metric yet)", got)
	}
	r.Counter("m", "").Add(3)
	g := r.Gauge("m", "clashing kind")
	g.Set(99) // must not crash, must not clobber the counter
	flat := r.Flatten()
	if flat["m"] != 3 {
		t.Errorf("counter value after clash = %d, want 3", flat["m"])
	}
	if flat[ConflictMetric] != 1 {
		t.Errorf("%s = %d, want 1", ConflictMetric, flat[ConflictMetric])
	}
	if len(flat) != 2 {
		t.Errorf("Flatten = %v, want the counter plus the conflict self-metric", flat)
	}
	// A second clash — same name, yet another kind — keeps counting.
	r.Histogram("m", "", []int64{1}).Observe(1)
	if got := r.Flatten()[ConflictMetric]; got != 2 {
		t.Errorf("%s after second clash = %d, want 2", ConflictMetric, got)
	}
	// The synthesized sample keeps the snapshot sorted by name.
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Errorf("snapshot out of order: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("c", "").Inc()
	r.Gauge("g", "").Set(1)
	r.GaugeFunc("gf", "", func() int64 { return 1 })
	r.Histogram("h", "", []int64{1}).Observe(1)
	if r.Snapshot() != nil || r.Flatten() != nil {
		t.Error("nil registry snapshot/flatten not nil")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c", "").Inc()
				r.Gauge("g", "").Max(int64(j))
				r.Histogram("h", "", []int64{500}).Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	flat := r.Flatten()
	if flat["c"] != 8000 {
		t.Errorf("counter = %d, want 8000", flat["c"])
	}
	if flat["g"] != 999 {
		t.Errorf("gauge max = %d, want 999", flat["g"])
	}
	if flat["h_count"] != 8000 {
		t.Errorf("histogram count = %d, want 8000", flat["h_count"])
	}
}

// TestQuantileKnownDistributions checks the bucket-interpolation
// estimator against distributions whose quantiles are known exactly.
func TestQuantileKnownDistributions(t *testing.T) {
	// Uniform 1..1000 into buckets every 100: every quantile is known and
	// interpolation inside a bucket is exact up to the discretization.
	r := NewRegistry()
	var bounds []int64
	for b := int64(100); b <= 1000; b += 100 {
		bounds = append(bounds, b)
	}
	h := r.Histogram("u", "", bounds)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := r.Snapshot()[0]
	for _, tc := range []struct{ q, want, tol float64 }{
		{0, 0, 1},        // rank 0 interpolates to the bucket floor
		{0.5, 500, 1},    // exact: ranks align with bucket edges
		{0.95, 950, 1},   // interpolated mid-bucket
		{0.99, 990, 1},   // interpolated mid-bucket
		{1, 1000, 0.001}, // top edge
	} {
		got := s.Quantile(tc.q)
		if got < tc.want-tc.tol || got > tc.want+tc.tol {
			t.Errorf("uniform q%.2f = %v, want %v ±%v", tc.q, got, tc.want, tc.tol)
		}
	}

	// Point mass: everything in one bucket — all quantiles land inside it.
	r2 := NewRegistry()
	h2 := r2.Histogram("p", "", []int64{10, 20, 30})
	for i := 0; i < 100; i++ {
		h2.Observe(15)
	}
	s2 := r2.Snapshot()[0]
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := s2.Quantile(q); got <= 10 || got > 20 {
			t.Errorf("point-mass q%.2f = %v, want in (10, 20]", q, got)
		}
	}

	// Overflow clamp: observations beyond the last bound estimate as the
	// last bound, never an invented larger value.
	r3 := NewRegistry()
	h3 := r3.Histogram("o", "", []int64{10})
	h3.Observe(5)
	h3.Observe(1_000_000)
	s3 := r3.Snapshot()[0]
	if got := s3.Quantile(0.99); got != 10 {
		t.Errorf("overflow q0.99 = %v, want clamp to 10", got)
	}

	// Empty histogram: defined zero, not NaN or panic.
	r4 := NewRegistry()
	r4.Histogram("e", "", []int64{10})
	if got := r4.Snapshot()[0].Quantile(0.5); got != 0 {
		t.Errorf("empty q0.5 = %v, want 0", got)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines and checks the invariants that concurrent folding must
// preserve: total count, exact sum, and monotone cumulative buckets.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c", "", []int64{8, 64, 512, 4096})
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per+i) % 5000)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()[0]
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	var wantSum int64
	for v := int64(0); v < workers*per; v++ {
		wantSum += v % 5000
	}
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
	prev := int64(0)
	for _, b := range s.Buckets {
		if b.Count < prev {
			t.Errorf("cumulative bucket le=%d count %d < previous %d", b.Le, b.Count, prev)
		}
		prev = b.Count
	}
	if prev > s.Count {
		t.Errorf("last finite bucket %d exceeds total count %d", prev, s.Count)
	}
}
