package obs

import (
	"slices"
	"testing"
)

// fakeClock is a deterministic injected nanosecond source.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestTimerObserves(t *testing.T) {
	r := NewRegistry()
	clk := &fakeClock{}
	tm := NewTimer(r.Histogram("stage_ns", "", WallBuckets()), clk.now)
	start := tm.Begin()
	clk.t += 1000
	tm.End(start)
	clk.t += 5
	start = tm.Begin()
	clk.t += 200
	tm.End(start)

	s := r.Snapshot()[0]
	if s.Count != 2 || s.Sum != 1200 {
		t.Errorf("count/sum = %d/%d, want 2/1200", s.Count, s.Sum)
	}
	if got := s.Quantile(1); got > 1024 || got <= 512 {
		t.Errorf("q1 = %v, want within the 1000ns bucket (512, 1024]", got)
	}
}

func TestTimerNilSafe(t *testing.T) {
	var tm *Timer
	tm.End(tm.Begin()) // must not panic, must not read any clock

	if NewTimer(nil, (&fakeClock{}).now) != nil {
		t.Error("NewTimer with nil histogram should be nil")
	}
	if NewTimer(NewRegistry().Histogram("h", "", []int64{1}), nil) != nil {
		t.Error("NewTimer with nil clock should be nil")
	}
}

func TestStagesNilAndRegistration(t *testing.T) {
	if NewStages(nil, (&fakeClock{}).now) != nil {
		t.Error("NewStages with nil registry should be nil")
	}
	if NewStages(NewRegistry(), nil) != nil {
		t.Error("NewStages with nil clock should be nil")
	}
	var st *Stages
	// Every timer on a nil bundle is nil and therefore a no-op; this is
	// the shape the kernel packages rely on for the uninstrumented path.
	for _, tm := range []*Timer{
		st.timer(StageEventPush), st.timer(StageDiagnose),
	} {
		tm.End(tm.Begin())
	}

	r := NewRegistry()
	clk := &fakeClock{}
	st = NewStages(r, clk.now)
	for _, name := range StageNames() {
		tm := st.timer(name)
		if tm == nil {
			t.Fatalf("stage %q has no timer", name)
		}
		start := tm.Begin()
		clk.t += 100
		tm.End(start)
	}
	snap := r.Snapshot()
	if len(snap) != len(StageNames()) {
		t.Fatalf("registered %d stage histograms, want %d", len(snap), len(StageNames()))
	}
	for _, s := range snap {
		if s.Count != 1 {
			t.Errorf("%s count = %d, want 1", s.Name, s.Count)
		}
	}
	// Conflict-free: re-building stages over the same registry reuses the
	// histograms instead of clashing.
	NewStages(r, clk.now)
	if got := r.Flatten()[ConflictMetric]; got != 0 {
		t.Errorf("re-registering stages raised %d conflicts, want 0", got)
	}
}

func TestStageSummary(t *testing.T) {
	if rows := StageSummary(nil); rows != nil {
		t.Errorf("nil registry summarised to %v", rows)
	}
	r := NewRegistry()
	clk := &fakeClock{}
	st := NewStages(r, clk.now)
	// Registered out of display order, and telemetry_collect never fires.
	for _, obsv := range []struct {
		tm *Timer
		ns int64
	}{{st.Diagnose, 3_000_000}, {st.EventPop, 100}, {st.EventPop, 100}, {st.EventPush, 1000}} {
		start := obsv.tm.Begin()
		clk.t += obsv.ns
		obsv.tm.End(start)
	}
	// A histogram that is not a stage's stays out of the table.
	r.Histogram("perf_case_ns", "", WallBuckets()).Observe(5)

	rows := StageSummary(r)
	var got []string
	for _, row := range rows {
		got = append(got, row.Stage)
	}
	if want := []string{StageEventPush, StageEventPop, StageDiagnose}; !slices.Equal(got, want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	pop, diag := rows[1], rows[2]
	if pop.Count != 2 || pop.TotalMs != 200.0/1e6 {
		t.Errorf("event_pop count/total = %d/%v ms, want 2/0.0002", pop.Count, pop.TotalMs)
	}
	if pop.P50Us <= 0.064 || pop.P99Us > 0.128 {
		t.Errorf("event_pop p50/p99 = %v/%v us, want within the 100 ns bucket (0.064, 0.128]", pop.P50Us, pop.P99Us)
	}
	if diag.Count != 1 || diag.TotalMs != 3 {
		t.Errorf("diagnose count/total = %d/%v ms, want 1/3", diag.Count, diag.TotalMs)
	}
}
