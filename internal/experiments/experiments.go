// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): the precision/recall comparison (Fig 9), processing and
// bandwidth overhead (Fig 10), host monitor overhead (Fig 11), the RTT
// threshold × detection count sweep (Fig 12), the step-aware ablations
// (Fig 13), and the Fig 14 case study.
//
// Every case grid (Figs 9/10/12/13, the extension scenarios, the slowdown
// distributions, the chaos robustness grid) is one entry of the figure
// table (Grids): groups of seeds over kind × system × parameters. One
// function expands a grid into internal/sweep jobs — fanned out over a
// worker pool, journaled for checkpoint/resume, merged in job order — and
// one folds the merged results into a row per group, so figure rows are
// byte-identical at any worker count. cmd/vedrbench prints the rows.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/hostmon"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/viz"
)

// Kinds are the four evaluated anomaly scenarios in paper order.
var Kinds = []scenario.AnomalyKind{
	scenario.Contention, scenario.Incast, scenario.PFCStorm, scenario.PFCBackpressure,
}

// Systems are the compared diagnosis systems in paper order.
var Systems = []scenario.SystemKind{
	scenario.Vedrfolnir, scenario.HawkeyeMaxR, scenario.HawkeyeMinR, scenario.FullPolling,
}

// PaperCaseCounts is the §IV-A case census: 60/60/40/60.
func PaperCaseCounts() map[scenario.AnomalyKind]int {
	return map[scenario.AnomalyKind]int{
		scenario.Contention:      60,
		scenario.Incast:          60,
		scenario.PFCStorm:        40,
		scenario.PFCBackpressure: 60,
	}
}

// SmallCaseCounts is a fast census for tests and -short benches.
func SmallCaseCounts() map[scenario.AnomalyKind]int {
	return map[scenario.AnomalyKind]int{
		scenario.Contention:      6,
		scenario.Incast:          6,
		scenario.PFCStorm:        4,
		scenario.PFCBackpressure: 6,
	}
}

// Fig11Row is one bar group of Fig 11.
type Fig11Row struct {
	Label      string
	CPU        time.Duration
	AllocBytes uint64
	SimTime    simtime.Duration
}

// Fig11 measures the host monitor's in-process overhead: three monitored
// runs against an unmonitored baseline, as the paper's testbed experiment
// does with NCCL. It measures real CPU time, so it stays sequential — the
// one harness the sweep engine must not parallelize.
func Fig11(runs int) ([]Fig11Row, error) {
	if runs <= 0 {
		runs = 3
	}
	cfg := hostmon.DefaultConfig()
	var rows []Fig11Row
	for i := 0; i < runs; i++ {
		c := cfg
		c.WithMonitor = true
		c.Seed = int64(i + 1)
		m, err := hostmon.MeasureAllGather(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig11Row{
			Label:      fmt.Sprintf("with-monitor-%d", i+1),
			CPU:        m.CPU,
			AllocBytes: m.AllocBytes,
			SimTime:    m.SimTime,
		})
	}
	c := cfg
	c.WithMonitor = false
	m, err := hostmon.MeasureAllGather(c)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig11Row{
		Label:      "without-monitor",
		CPU:        m.CPU,
		AllocBytes: m.AllocBytes,
		SimTime:    m.SimTime,
	})
	return rows, nil
}

// CaseStudy is the Fig 14 reproduction: the Fig 2a-style contention with
// one small (BF1 ≈ 90 MB) and one large (BF2 ≈ 450 MB) background flow.
type CaseStudy struct {
	Diag        *diagnose.Diagnosis
	WaitDOT     string
	ProvDOT     string
	BF1, BF2    fabric.FlowKey
	BF1Score    float64
	BF2Score    float64
	CriticalStr string
}

// Fig14Obs runs the case study with an observability scope threaded
// through the whole pipeline — the contention timeline, monitor
// detections, PFC events, and analyzer phases all land in the scope's
// trace, making this the reference workload for trace golden tests.
func Fig14Obs(cfg scenario.Config, scope *obs.Scope) (*CaseStudy, error) {
	cs := scenario.Case{Kind: scenario.Contention, Seed: 14}
	// BF1 (small) collides with the flow into rank 3; BF2 (5× larger)
	// collides with the cross-pod flow into rank 4 — the chain that
	// bounds the collective — mirroring the Fig 2a placement where the
	// large background flow dominates the rating.
	bf1 := fabric.FlowKey{Src: 8, Dst: 3, SrcPort: 9000, DstPort: 9001, Proto: 17}
	bf2 := fabric.FlowKey{Src: 12, Dst: 4, SrcPort: 9010, DstPort: 9011, Proto: 17}
	cs.Flows = []scenario.InjectedFlow{
		{Key: bf1, Bytes: cfg.ScaledBytes(90e6), StartAt: 0},
		{Key: bf2, Bytes: cfg.ScaledBytes(450e6), StartAt: 0},
	}
	opts := scenario.DefaultRunOptions(cfg)
	opts.Obs = scope
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, opts)
	if err != nil {
		return nil, err
	}
	study := &CaseStudy{
		Diag:    res.Diag,
		BF1:     bf1,
		BF2:     bf2,
		WaitDOT: "",
		ProvDOT: "",
	}
	res.Diag.WaitGraph.Prune()
	study.WaitDOT = viz.WaitGraphDOT(res.Diag.WaitGraph)
	study.ProvDOT = viz.ProvenanceDOT(res.Diag.Graph)
	for _, r := range res.Diag.Ratings {
		switch r.Flow {
		case bf1:
			study.BF1Score = r.Score
		case bf2:
			study.BF2Score = r.Score
		}
	}
	var parts []string
	for _, ref := range res.Diag.CriticalPath {
		parts = append(parts, fmt.Sprintf("F%dS%d", ref.Host, ref.Step))
	}
	study.CriticalStr = strings.Join(parts, " -> ")
	return study, nil
}
