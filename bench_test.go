// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md §4 for the experiment index). Custom metrics carry the
// figures' quantities: precision/recall as ratios, telemetry volume in
// bytes/case. Run with:
//
//	go test -bench=. -benchmem
//
// The benches use the reduced 1/360 workload scale so a full pass stays in
// CI budgets; cmd/vedrbench regenerates the figures at 1/90 or full census.
package vedrfolnir_test

import (
	"sort"
	"testing"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/experiments"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/hostmon"
	"vedrfolnir/internal/provenance"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/waitgraph"
)

// benchConfig is the reduced-scale experiment configuration: 1/360 scale
// with the cell size and PFC/ECN thresholds pinned, not derived from the
// scale, so the simulated byte stream — and with it every bench's
// ns/op and allocs/op — means the same on every machine and commit.
// benchmark/config.go pins the same values independently (its module does
// not import this one's tests); TestSweepAllocsPerCase in internal/sweep
// holds its ceiling against them too.
func benchConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = cfg.ScaledBytes(360e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	return cfg
}

// benchCase and benchRun adapt the error-returning scenario API for
// benchmarks whose fixtures are known-valid.
func benchCase(tb testing.TB, kind scenario.AnomalyKind, seed int64, cfg scenario.Config) scenario.Case {
	tb.Helper()
	cs, err := scenario.GenerateCase(kind, seed, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cs
}

func benchRun(tb testing.TB, cs scenario.Case, sys scenario.SystemKind, cfg scenario.Config, opts scenario.RunOptions) scenario.Result {
	tb.Helper()
	res, err := scenario.Run(cs, sys, cfg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// benchSystem runs the Fig 9/10 cell for one system: every scenario kind,
// one seed per iteration, reporting precision and telemetry volume.
func benchSystem(b *testing.B, sys scenario.SystemKind) {
	cfg := benchConfig()
	opts := scenario.DefaultRunOptions(cfg)
	opts.Monitor.MaxDetectPerStep = 5 // Fig 9 "optimal parameters"
	var m scenario.Metrics
	var telem int64
	cases := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kind := range experiments.Kinds {
			cs := benchCase(b, kind, int64(i%8), cfg)
			res := benchRun(b, cs, sys, cfg, opts)
			m.Add(res.Outcome)
			telem += res.Overhead.TelemetryBytes
			cases++
		}
	}
	b.ReportMetric(m.Precision(), "precision")
	b.ReportMetric(m.Recall(), "recall")
	b.ReportMetric(float64(telem)/float64(cases), "telemetryB/case")
}

// Fig 9 + Fig 10: one bench per compared system.

func BenchmarkFig9Vedrfolnir(b *testing.B)  { benchSystem(b, scenario.Vedrfolnir) }
func BenchmarkFig9HawkeyeMaxR(b *testing.B) { benchSystem(b, scenario.HawkeyeMaxR) }
func BenchmarkFig9HawkeyeMinR(b *testing.B) { benchSystem(b, scenario.HawkeyeMinR) }
func BenchmarkFig9FullPolling(b *testing.B) { benchSystem(b, scenario.FullPolling) }

// Fig 10 overhead focus: the same runs but reported per anomaly kind for
// Vedrfolnir (the paper's ~10 KB headline).
func BenchmarkFig10OverheadVedrfolnir(b *testing.B) {
	cfg := benchConfig()
	opts := scenario.DefaultRunOptions(cfg)
	var telem, bw int64
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := benchCase(b, scenario.Contention, int64(i%8), cfg)
		res := benchRun(b, cs, scenario.Vedrfolnir, cfg, opts)
		telem += res.Overhead.TelemetryBytes
		bw += res.Overhead.Bandwidth()
		n++
	}
	b.ReportMetric(float64(telem)/float64(n), "telemetryB/case")
	b.ReportMetric(float64(bw)/float64(n), "bandwidthB/case")
}

// Fig 11: host monitor CPU/memory overhead (testbed substitute). The
// -benchmem allocation figures are the memory panel; ns/op is the CPU panel.
func BenchmarkFig11WithMonitor(b *testing.B) {
	cfg := hostmon.DefaultConfig()
	cfg.Bytes = 8 << 20
	cfg.WithMonitor = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := hostmon.MeasureAllGather(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11WithoutMonitor(b *testing.B) {
	cfg := hostmon.DefaultConfig()
	cfg.Bytes = 8 << 20
	cfg.WithMonitor = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := hostmon.MeasureAllGather(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig 12: the RTT-threshold × detection-count sweep on the most sensitive
// scenario (PFC backpressure).
func BenchmarkFig12ParamSweep(b *testing.B) {
	cfg := benchConfig()
	var m scenario.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, factor := range []float64{1.2, 1.8, 2.4} {
			for _, count := range []int{1, 3, 5} {
				opts := scenario.DefaultRunOptions(cfg)
				opts.Monitor.RTTFactor = factor
				opts.Monitor.MaxDetectPerStep = count
				cs := benchCase(b, scenario.PFCBackpressure, int64(i%8), cfg)
				res := benchRun(b, cs, scenario.Vedrfolnir, cfg, opts)
				m.Add(res.Outcome)
			}
		}
	}
	b.ReportMetric(m.Precision(), "precision")
}

// Fig 13a: fixed vs step-grained RTT threshold ablation.
func BenchmarkFig13aFixedThreshold(b *testing.B) {
	cfg := benchConfig()
	opts := scenario.DefaultRunOptions(cfg)
	opts.Monitor.FixedRTTThreshold = 40 * time.Microsecond
	opts.Monitor.MaxDetectPerStep = 3
	var telem int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := benchCase(b, scenario.Contention, int64(i%8), cfg)
		res := benchRun(b, cs, scenario.Vedrfolnir, cfg, opts)
		telem += res.Overhead.TelemetryBytes
	}
	b.ReportMetric(float64(telem)/float64(b.N), "telemetryB/case")
}

// Fig 13b: unrestricted (Hawkeye-like) triggering ablation.
func BenchmarkFig13bUnrestricted(b *testing.B) {
	cfg := benchConfig()
	opts := scenario.DefaultRunOptions(cfg)
	opts.Monitor.Unrestricted = true
	var telem int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := benchCase(b, scenario.Contention, int64(i%8), cfg)
		res := benchRun(b, cs, scenario.Vedrfolnir, cfg, opts)
		telem += res.Overhead.TelemetryBytes
	}
	b.ReportMetric(float64(telem)/float64(b.N), "telemetryB/case")
}

// Fig 14: the full case study (run + both graph renders).
func BenchmarkFig14CaseStudy(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study, err := experiments.Fig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if study.BF2Score <= study.BF1Score {
			b.Fatalf("case study shape broken: BF2 %.0f <= BF1 %.0f",
				study.BF2Score, study.BF1Score)
		}
	}
}

// --- Core-library micro-benchmarks (ablation/performance support) ---

// BenchmarkFabricForwarding measures raw simulator throughput: events/sec
// moving one 4 MB flow across the fat-tree.
func BenchmarkFabricForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := hostmon.MeasureAllGather(hostmon.Config{
			Nodes: 4, Bytes: 4 << 20, CellSize: 16 << 10, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.Events), "events/op")
	}
}

// BenchmarkWaitGraphBuild measures waiting-graph construction + critical
// path at diagnose-large's XL shape: a 128-rank Ring AllGather, 127 steps a
// rank, 16 256 records in completion order. Each step starts when the later
// of its previous step and its data dependency is done, and BoundByWait is
// set the way the runner sets it: when the data arrived last.
func BenchmarkWaitGraphBuild(b *testing.B) {
	ranks := make([]topo.NodeID, 128)
	for i := range ranks {
		ranks[i] = topo.NodeID(i)
	}
	schedules, err := collective.Decompose(collective.Spec{
		Op: collective.AllGather, Alg: collective.Ring, Ranks: ranks, Bytes: 128 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	end := make(map[topo.NodeID][]simtime.Time, len(schedules))
	var recs []collective.StepRecord
	for s := range schedules[0].Steps {
		for i, sch := range schedules {
			st := sch.Steps[s]
			rec := collective.StepRecord{Host: sch.Host, Step: s, WaitSrc: st.WaitSrc, WaitStep: st.WaitStep}
			if s > 0 {
				rec.Start = end[sch.Host][s-1]
			}
			if st.WaitSrc != topo.None {
				if recv := end[st.WaitSrc][st.WaitStep]; recv >= rec.Start {
					rec.Start, rec.BoundByWait = recv, true
				}
			}
			rec.End = rec.Start.Add(simtime.Duration(900 + (i*7+s*13)%200))
			end[sch.Host] = append(end[sch.Host], rec.End)
			recs = append(recs, rec)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End < recs[j].End })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := waitgraph.Build(recs)
		if path, _ := g.CriticalPath(); len(path) == 0 {
			b.Fatal("no path")
		}
	}
}

// BenchmarkProvenanceRating measures Eq. 1/2 evaluation over a deep PFC
// chain.
func BenchmarkProvenanceRating(b *testing.B) {
	cf := fabric.FlowKey{Src: 0, Dst: 1, SrcPort: 5000, DstPort: 5000, Proto: 17}
	bf := fabric.FlowKey{Src: 8, Dst: 9, SrcPort: 9000, DstPort: 9001, Proto: 17}
	var reports []*telemetry.Report
	const depth = 32
	for i := 0; i < depth; i++ {
		p := topo.PortID{Node: topo.NodeID(100 + i), Port: 1}
		next := topo.PortID{Node: topo.NodeID(101 + i), Port: 1}
		rep := &telemetry.Report{
			Flows: []telemetry.FlowRecord{
				{Switch: p.Node, Port: p.Port, Flow: cf, Pkts: 10, Bytes: 10000,
					Wait: map[fabric.FlowKey]int64{bf: 5}},
				{Switch: p.Node, Port: p.Port, Flow: bf, Pkts: 10, Bytes: 10000},
			},
			Ports: []telemetry.PortRecord{
				{Switch: p.Node, Port: p.Port, AvgQueuedBytes: 10000,
					MeterIn: map[topo.PortID]int64{next: 10000},
					PFCEvents: []fabric.PFCEvent{
						{Pause: true, Upstream: p, Downstream: next.Node, CauseEgress: next.Port},
					}},
			},
		}
		reports = append(reports, rep)
	}
	cfs := map[fabric.FlowKey]bool{cf: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := provenance.Build(reports, cfs)
		if r := g.RateFlowCF(bf, cf); r < 0 {
			b.Fatal("negative rating")
		}
	}
}

// benchAnalyzeCensus times diagnose.Analyze on one contention case's
// records and reports (per-step provenance on, as the daemon runs it) with
// the collective-flow census padded to n flows that no record or report
// mentions. The analyzer's cost should follow the evidence, not the
// census: B/op and allocs/op stay flat from 1k to 16k, and ns/op grows
// only by the one pass over the census that collects the collective
// sources when there are PFC edges to explain (~20 ns a flow).
func benchAnalyzeCensus(b *testing.B, n int) {
	cfg := benchConfig()
	res := benchRun(b, benchCase(b, scenario.Contention, 0, cfg), scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
	cfs := make(map[fabric.FlowKey]bool, n)
	for f := range res.CFs {
		cfs[f] = true
	}
	for i := 0; len(cfs) < n; i++ {
		cfs[fabric.FlowKey{Src: topo.NodeID(1000 + i%128), Dst: topo.NodeID(2000 + i/128),
			SrcPort: uint16(i), DstPort: uint16(i >> 16), Proto: 17}] = true
	}
	in := diagnose.Input{Records: res.Records, Reports: res.Reports, CFs: cfs,
		StepOf: diagnose.StepOfRecords(res.Records)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := diagnose.Analyze(in); len(d.Findings) == 0 {
			b.Fatal("diagnosis lost its findings")
		}
	}
}

func BenchmarkAnalyzeCensus1k(b *testing.B)  { benchAnalyzeCensus(b, 1<<10) }
func BenchmarkAnalyzeCensus4k(b *testing.B)  { benchAnalyzeCensus(b, 1<<12) }
func BenchmarkAnalyzeCensus16k(b *testing.B) { benchAnalyzeCensus(b, 1<<14) }

// --- Ablation benches for DESIGN.md's called-out design choices ---

// benchCC measures collective completion time under a congestion controller
// in the contention scenario (CC ablation: DCQCN vs Swift vs none).
func benchCC(b *testing.B, cc rdma.CCKind) {
	cfg := benchConfig()
	cfg.CC = cc
	opts := scenario.DefaultRunOptions(cfg)
	var total time.Duration
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := benchCase(b, scenario.Contention, int64(i%8), cfg)
		res := benchRun(b, cs, scenario.Vedrfolnir, cfg, opts)
		total += time.Duration(res.CollectiveTime)
		n++
	}
	b.ReportMetric(float64(total.Microseconds())/float64(n), "collective_us")
}

func BenchmarkAblationCCDCQCN(b *testing.B) { benchCC(b, rdma.CCDCQCN) }
func BenchmarkAblationCCSwift(b *testing.B) { benchCC(b, rdma.CCSwift) }
func BenchmarkAblationCCNone(b *testing.B)  { benchCC(b, rdma.CCNone) }

// BenchmarkAblationAdaptiveOff measures the adaptive opportunity transfer's
// contribution: same contention cases with the notification mechanism off.
func BenchmarkAblationAdaptiveOff(b *testing.B) {
	cfg := benchConfig()
	opts := scenario.DefaultRunOptions(cfg)
	opts.Monitor.Adaptive = false
	var m scenario.Metrics
	var telem int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := benchCase(b, scenario.Contention, int64(i%8), cfg)
		res := benchRun(b, cs, scenario.Vedrfolnir, cfg, opts)
		m.Add(res.Outcome)
		telem += res.Overhead.TelemetryBytes
	}
	b.ReportMetric(m.Precision(), "precision")
	b.ReportMetric(float64(telem)/float64(b.N), "telemetryB/case")
}

// BenchmarkExtensionScenarios covers the two §II-B extension anomalies.
func BenchmarkExtensionScenarios(b *testing.B) {
	cfg := benchConfig()
	opts := scenario.DefaultRunOptions(cfg)
	var m scenario.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kind := range []scenario.AnomalyKind{scenario.Loop, scenario.LoadImbalance} {
			res := benchRun(b, benchCase(b, kind, int64(i%5), cfg), scenario.Vedrfolnir, cfg, opts)
			m.Add(res.Outcome)
		}
	}
	b.ReportMetric(m.Precision(), "precision")
	b.ReportMetric(m.Recall(), "recall")
}
