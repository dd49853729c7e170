package obs

// Wall-time stage timing of the hot path (`vedrsim -stages`). Unlike
// everything else in this package, stage timers record *host* wall-clock
// durations — they exist to answer "where do the nanoseconds go", which
// sim time cannot. The obswallclock rule still holds: obs itself never
// reads a clock. The nanosecond source is injected as a plain func by the
// caller (vedrsim builds one on the sanctioned simtime.Stopwatch
// gateway), so the recording path here stays clock-free and the
// uninstrumented path — a nil Timer or nil Stages — costs a nil check
// and changes no behaviour.
//
// Stage histograms therefore live in a *dedicated* registry owned by the
// timed run, never in the deterministic obs.Scope registry whose
// Flatten lands in result bundles: wall times are not reproducible and
// must never leak into byte-identity-checked artifacts (DESIGN.md §16).

// Canonical hot-path stage names. Each becomes a histogram
// "vedr_stage_<name>_ns" in the stage registry.
const (
	StageEventPush        = "event_push"
	StageEventPop         = "event_pop"
	StageFabricForward    = "fabric_forward"
	StageTelemetryCollect = "telemetry_collect"
	StageWaitgraphBuild   = "waitgraph_build"
	StageProvenanceRate   = "provenance_rate"
	StageDiagnose         = "diagnose"
)

// StageNames lists every canonical stage in display order.
func StageNames() []string {
	return []string{
		StageEventPush, StageEventPop, StageFabricForward,
		StageTelemetryCollect, StageWaitgraphBuild, StageProvenanceRate,
		StageDiagnose,
	}
}

// WallBuckets returns the histogram bounds shared by every stage timer:
// exponential powers of two from 64 ns to ~4 s, wide enough for a single
// heap operation and a whole-case diagnosis alike while keeping quantile
// interpolation error within a factor of two.
func WallBuckets() []int64 {
	bounds := make([]int64, 0, 27)
	for b := int64(64); b <= 4<<30; b <<= 1 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Timer observes wall-clock durations of one named stage into a
// histogram. All methods no-op on a nil receiver, so instrumented code
// calls Begin/End unconditionally and the disabled path never touches a
// clock.
type Timer struct {
	h   *Histogram
	now func() int64
}

// NewTimer builds a timer over h using the injected monotonic nanosecond
// source. A nil histogram or clock yields a nil (no-op) timer.
func NewTimer(h *Histogram, now func() int64) *Timer {
	if h == nil || now == nil {
		return nil
	}
	return &Timer{h: h, now: now}
}

// Begin returns the current clock reading (0 on a nil timer).
func (t *Timer) Begin() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// End folds the duration since start into the histogram.
func (t *Timer) End(start int64) {
	if t == nil {
		return
	}
	t.h.Observe(t.now() - start)
}

// Stages bundles one timer per canonical hot-path stage. A nil *Stages
// disables all of them; consumers cache the individual timers (which are
// nil-safe) so the hot path never dereferences the bundle.
type Stages struct {
	EventPush        *Timer
	EventPop         *Timer
	FabricForward    *Timer
	TelemetryCollect *Timer
	WaitgraphBuild   *Timer
	ProvenanceRate   *Timer
	Diagnose         *Timer
}

// WaitgraphTimer, ProvenanceTimer, and DiagnoseTimer are nil-safe field
// accessors for consumers that hold a possibly-nil bundle (a nil struct
// pointer's fields cannot be read directly).
func (s *Stages) WaitgraphTimer() *Timer {
	if s == nil {
		return nil
	}
	return s.WaitgraphBuild
}

// ProvenanceTimer returns the provenance build + rating timer; nil-safe.
func (s *Stages) ProvenanceTimer() *Timer {
	if s == nil {
		return nil
	}
	return s.ProvenanceRate
}

// DiagnoseTimer returns the whole-diagnosis timer; nil-safe.
func (s *Stages) DiagnoseTimer() *Timer {
	if s == nil {
		return nil
	}
	return s.Diagnose
}

// timer maps a canonical stage name to its timer; nil bundle or unknown
// name yields a nil (no-op) timer.
func (s *Stages) timer(stage string) *Timer {
	if s == nil {
		return nil
	}
	switch stage {
	case StageEventPush:
		return s.EventPush
	case StageEventPop:
		return s.EventPop
	case StageFabricForward:
		return s.FabricForward
	case StageTelemetryCollect:
		return s.TelemetryCollect
	case StageWaitgraphBuild:
		return s.WaitgraphBuild
	case StageProvenanceRate:
		return s.ProvenanceRate
	case StageDiagnose:
		return s.Diagnose
	default:
		return nil
	}
}

// NewStages registers the canonical stage histograms in r and returns
// their timers, all reading the injected nanosecond source. A nil
// registry or clock returns nil — the uninstrumented default.
func NewStages(r *Registry, now func() int64) *Stages {
	if r == nil || now == nil {
		return nil
	}
	t := func(stage, help string) *Timer {
		return NewTimer(r.Histogram("vedr_stage_"+stage+"_ns", help, WallBuckets()), now)
	}
	return &Stages{
		EventPush:        t(StageEventPush, "wall time of one event-queue push (ns)"),
		EventPop:         t(StageEventPop, "wall time of one event-queue pop (ns)"),
		FabricForward:    t(StageFabricForward, "wall time of one switch forwarding decision (ns)"),
		TelemetryCollect: t(StageTelemetryCollect, "wall time of one telemetry poll (ns)"),
		WaitgraphBuild:   t(StageWaitgraphBuild, "wall time of one waiting-graph build + critical path (ns)"),
		ProvenanceRate:   t(StageProvenanceRate, "wall time of provenance build + contributor rating (ns)"),
		Diagnose:         t(StageDiagnose, "wall time of one full diagnosis (ns)"),
	}
}

// StageRow summarizes one stage histogram: where the nanoseconds went.
type StageRow struct {
	Stage   string
	Count   int64
	TotalMs float64
	P50Us   float64
	P95Us   float64
	P99Us   float64
}

// StageSummary renders the stage histograms NewStages registered in r as
// report rows, in StageNames order; a stage that observed nothing has no
// row.
func StageSummary(r *Registry) []StageRow {
	byName := map[string]Sample{}
	for _, s := range r.Snapshot() {
		byName[s.Name] = s
	}
	var out []StageRow
	for _, stage := range StageNames() {
		s := byName["vedr_stage_"+stage+"_ns"]
		if s.Count == 0 {
			continue
		}
		out = append(out, StageRow{
			Stage:   stage,
			Count:   s.Count,
			TotalMs: float64(s.Sum) / 1e6,
			P50Us:   s.Quantile(0.50) / 1e3,
			P95Us:   s.Quantile(0.95) / 1e3,
			P99Us:   s.Quantile(0.99) / 1e3,
		})
	}
	return out
}
