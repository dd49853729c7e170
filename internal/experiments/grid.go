package experiments

import (
	"errors"
	"fmt"
	"time"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/stats"
	"vedrfolnir/internal/sweep"
)

// ExtKinds are the §II-B anomalies implemented beyond the paper's evaluated
// four (forwarding loops and load imbalance).
var ExtKinds = []scenario.AnomalyKind{scenario.Loop, scenario.LoadImbalance}

// ChaosLossRates is the robustness grid's control-packet loss axis:
// healthy, 0.1%, 1%, and 5% uniform loss over the diagnosis traffic
// (notification packets, poll round trips, per-port telemetry responses).
var ChaosLossRates = []float64{0, 0.001, 0.01, 0.05}

// Group is one row of a figure: Seeds cases (seeds 0..Seeds-1) of one
// anomaly kind under one system at one parameter point.
type Group struct {
	Kind   scenario.AnomalyKind
	System scenario.SystemKind
	Params sweep.Params
	// Label names the row where Params alone does not (the Fig 13
	// ablations).
	Label string
	Seeds int
}

// Grid is one journal-able case sweep of the evaluation: its groups in
// print order, expanded seed by seed into jobs. The job list is the merge
// order and the journal's identity, so it must stay stable for journals
// to resume and rows to stay byte-identical.
type Grid struct {
	// Name names the journal (base.<Name>.jsonl) and the trace file.
	Name   string
	Groups []Group
	// Base overrides the default run options for every job without
	// entering the job keys (Fig 9's "optimal parameters").
	Base sweep.Params
	// ScoreCompleteOnly excludes cases that hit the simulation deadline
	// from the metrics and confidence, counting them in Row.Incomplete.
	// Other grids score such a case like any other.
	ScoreCompleteOnly bool

	cfg scenario.Config
}

// Row is one group's aggregate. Failed cases (captured per job by the
// sweep engine) are excluded from every aggregate.
type Row struct {
	Group
	Failed     int
	Incomplete int

	Metrics scenario.Metrics
	// Confidence is the mean diagnosis confidence of the scored cases.
	Confidence float64
	// Integer means over the non-failed cases.
	TelemetryBytes int64 // Fig 10a: processing overhead
	BandwidthBytes int64 // Fig 10b: polling + notifications + reports
	// Slowdowns summarizes the per-step slowdowns pooled over the
	// non-failed cases.
	Slowdowns stats.Summary
}

// Precision of the row.
func (r Row) Precision() float64 { return r.Metrics.Precision() }

// Recall of the row.
func (r Row) Recall() float64 { return r.Metrics.Recall() }

// fig12Factors and fig12Detects are the paper's Fig 12 parameter grid: RTT
// threshold ∈ {120%, 180%, 240%} and detections per step ∈ {1, 3, 5}.
var (
	fig12Factors = []float64{1.2, 1.8, 2.4}
	fig12Detects = []int{1, 3, 5}
)

// fig13aThresholds is the fixed-threshold grid the Fig 13a ablation
// compares against the step-grained mechanism: 1–8× a 30 µs paper-scale
// base, scaled to the workload.
func fig13aThresholds(cfg scenario.Config) []simtime.Duration {
	base := simtime.Duration(float64(30*time.Microsecond) * cfg.Scale * 90)
	return []simtime.Duration{base, 2 * base, 4 * base, 8 * base}
}

// Grids is the figure table: every case grid of the evaluation at the
// given workload configuration and per-kind case census, in print order.
// fig9 feeds Figs 9 and 10; fig13a/fig13b the two Fig 13 ablations on the
// contention scenario; ext the §II-B anomalies beyond the paper's four;
// slowdowns the per-step slowdown distributions; chaos the robustness
// grid over control-packet loss.
func Grids(cfg scenario.Config, counts map[scenario.AnomalyKind]int) []Grid {
	ved := []scenario.SystemKind{scenario.Vedrfolnir}
	var fig12, chaos []sweep.Params
	for _, f := range fig12Factors {
		for _, d := range fig12Detects {
			fig12 = append(fig12, sweep.Params{RTTFactor: f, MaxDetectPerStep: d})
		}
	}
	for _, rate := range ChaosLossRates {
		chaos = append(chaos, sweep.Params{ChaosLoss: rate})
	}

	// The Fig 13 ablations and the extension scenarios run the contention
	// scenario's case count.
	n := counts[scenario.Contention]
	contention := func(label string, p sweep.Params) Group {
		return Group{Kind: scenario.Contention, System: scenario.Vedrfolnir, Params: p, Label: label, Seeds: n}
	}
	var fig13a, fig13b, ext []Group
	fig13a = append(fig13a, contention("step-grained (ours)", sweep.Params{MaxDetectPerStep: 3}))
	for _, th := range fig13aThresholds(cfg) {
		fig13a = append(fig13a, contention(th.String(), sweep.Params{FixedRTTThreshold: th, MaxDetectPerStep: 3}))
	}
	for _, d := range []int{1, 3, 5} {
		fig13b = append(fig13b, contention(fmt.Sprintf("max-%d-per-step", d), sweep.Params{MaxDetectPerStep: d}))
	}
	fig13b = append(fig13b, contention("unrestricted", sweep.Params{Unrestricted: true}))
	for _, kind := range ExtKinds {
		ext = append(ext, Group{Kind: kind, System: scenario.Vedrfolnir, Seeds: n})
	}

	grids := []Grid{
		{Name: "fig9", Groups: cross(counts, Systems, nil), Base: sweep.Params{MaxDetectPerStep: 5}},
		{Name: "fig12", Groups: cross(counts, ved, fig12)},
		{Name: "fig13a", Groups: fig13a},
		{Name: "fig13b", Groups: fig13b},
		{Name: "ext", Groups: ext},
		{Name: "slowdowns", Groups: cross(counts, ved, nil)},
		{Name: "chaos", Groups: cross(counts, ved, chaos), ScoreCompleteOnly: true},
	}
	for i := range grids {
		grids[i].cfg = cfg
	}
	return grids
}

// cross builds the groups of a kind-major grid: every evaluated kind the
// census has cases for × system × parameter point (nil: the default point
// only).
func cross(counts map[scenario.AnomalyKind]int, systems []scenario.SystemKind, params []sweep.Params) []Group {
	if params == nil {
		params = []sweep.Params{{}}
	}
	var out []Group
	for _, kind := range Kinds {
		if counts[kind] == 0 {
			continue
		}
		for _, sys := range systems {
			for _, p := range params {
				out = append(out, Group{Kind: kind, System: sys, Params: p, Seeds: counts[kind]})
			}
		}
	}
	return out
}

// Lookup returns the grid named name.
func Lookup(grids []Grid, name string) (Grid, bool) {
	for _, g := range grids {
		if g.Name == name {
			return g, true
		}
	}
	return Grid{}, false
}

// RunOptions are the run options every job of the grid starts from, before
// its own Params apply.
func (g Grid) RunOptions() scenario.RunOptions {
	opts := scenario.DefaultRunOptions(g.cfg)
	g.Base.Apply(&opts)
	return opts
}

// Jobs expands the grid into its sweep jobs: group by group, seed by seed.
func (g Grid) Jobs() []sweep.Job {
	var jobs []sweep.Job
	for _, grp := range g.Groups {
		for seed := 0; seed < grp.Seeds; seed++ {
			jobs = append(jobs, sweep.Job{Kind: grp.Kind, Seed: int64(seed), System: grp.System, Params: grp.Params})
		}
	}
	return jobs
}

// ErrInterrupted reports a sweep stopped before every case ran: figure
// rows need every case, so an interrupted grid has none.
var ErrInterrupted = errors.New("sweep interrupted")

// Run sweeps the grid's jobs under the scheduling in sw (workers,
// journal, progress, interrupt) and folds the results into rows.
func (g Grid) Run(sw sweep.Options) ([]Row, error) {
	sum, err := sweep.Run(g.Jobs(), sweep.Cases(g.cfg, g.RunOptions()), sw)
	if err != nil {
		return nil, err
	}
	if sum.Interrupted {
		return nil, fmt.Errorf("experiments: %s: %w with %d cases pending", g.Name, ErrInterrupted, len(sum.Pending))
	}
	return g.Rows(sum), nil
}

// Rows folds a finished sweep of g.Jobs() — results in job order — into
// one row per group.
func (g Grid) Rows(sum *sweep.Summary) []Row {
	results := sum.Results
	rows := make([]Row, 0, len(g.Groups))
	for _, grp := range g.Groups {
		row := Row{Group: grp}
		var telem, bw int64
		var conf float64
		var scored int
		var samples []simtime.Duration
		for _, r := range results[:grp.Seeds] {
			if r.Err != "" {
				row.Failed++
				continue
			}
			telem += r.TelemetryBytes
			bw += r.BandwidthBytes
			samples = append(samples, r.Samples...)
			if g.ScoreCompleteOnly && !r.Completed {
				row.Incomplete++
				continue
			}
			row.Metrics.Add(r.Outcome)
			conf += r.Confidence
			scored++
		}
		results = results[grp.Seeds:]
		if ok := int64(grp.Seeds - row.Failed); ok > 0 {
			row.TelemetryBytes = telem / ok
			row.BandwidthBytes = bw / ok
		}
		if scored > 0 {
			row.Confidence = conf / float64(scored)
		}
		row.Slowdowns = stats.Summarize(samples)
		rows = append(rows, row)
	}
	return rows
}
