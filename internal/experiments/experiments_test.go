package experiments

import (
	"strings"
	"testing"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/monitor"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/sweep"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/waitgraph"
)

// fastConfig is the reduced-scale configuration for unit tests (mirrors
// scenario's test config: 1 MB steps, proportional fabric thresholds).
func fastConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = int64(1e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	return cfg
}

func tinyCounts() map[scenario.AnomalyKind]int {
	return map[scenario.AnomalyKind]int{
		scenario.Contention:      3,
		scenario.Incast:          3,
		scenario.PFCStorm:        2,
		scenario.PFCBackpressure: 3,
	}
}

// grid returns the named entry of the figure table at cfg and counts.
func grid(t *testing.T, cfg scenario.Config, counts map[scenario.AnomalyKind]int, name string) Grid {
	t.Helper()
	g, ok := Lookup(Grids(cfg, counts), name)
	if !ok {
		t.Fatalf("no grid %q in the figure table", name)
	}
	return g
}

// runGrid sweeps the named grid and returns its rows.
func runGrid(t *testing.T, cfg scenario.Config, counts map[scenario.AnomalyKind]int, name string, sw sweep.Options) []Row {
	t.Helper()
	rows, err := grid(t, cfg, counts, name).Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	cfg := fastConfig()
	cells := runGrid(t, cfg, tinyCounts(), "fig9", sweep.Options{})
	if len(cells) != 4*4 {
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	byKey := map[[2]int]Row{}
	for _, c := range cells {
		byKey[[2]int{int(c.Kind), int(c.System)}] = c
		if c.Metrics.TP+c.Metrics.FP+c.Metrics.FN != c.Seeds {
			t.Fatalf("%v/%v: outcome accounting broken: %+v", c.Kind, c.System, c.Metrics)
		}
	}
	// Headline shapes: Vedrfolnir's telemetry overhead is below
	// Hawkeye-MinR's and full polling's in every scenario.
	for _, kind := range Kinds {
		ved := byKey[[2]int{int(kind), int(scenario.Vedrfolnir)}]
		minr := byKey[[2]int{int(kind), int(scenario.HawkeyeMinR)}]
		full := byKey[[2]int{int(kind), int(scenario.FullPolling)}]
		if ved.TelemetryBytes > minr.TelemetryBytes {
			t.Errorf("%v: vedrfolnir %dB > hawkeye-minr %dB", kind, ved.TelemetryBytes, minr.TelemetryBytes)
		}
		if ved.TelemetryBytes >= full.TelemetryBytes {
			t.Errorf("%v: vedrfolnir %dB >= full polling %dB", kind, ved.TelemetryBytes, full.TelemetryBytes)
		}
	}
}

func TestFig11(t *testing.T) {
	rows, err := Fig11(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 2 monitored + 1 baseline", len(rows))
	}
	if rows[len(rows)-1].Label != "without-monitor" {
		t.Fatalf("last row must be the unmonitored baseline")
	}
	for _, r := range rows {
		if r.SimTime <= 0 {
			t.Fatalf("%s: collective did not complete", r.Label)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	cfg := fastConfig()
	counts := map[scenario.AnomalyKind]int{scenario.Contention: 2, scenario.PFCBackpressure: 2}
	rows := runGrid(t, cfg, counts, "fig12", sweep.Options{})
	if len(rows) != 2*9 {
		t.Fatalf("rows = %d, want 18 (2 kinds × 3 factors × 3 counts)", len(rows))
	}
	for _, r := range rows {
		if r.Metrics.TP+r.Metrics.FP+r.Metrics.FN != 2 {
			t.Fatalf("row %+v lost cases", r)
		}
	}
}

func TestFig13b(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	cfg := fastConfig()
	rows := runGrid(t, cfg, map[scenario.AnomalyKind]int{scenario.Contention: 2}, "fig13b", sweep.Options{})
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (three bounded + unrestricted)", len(rows))
	}
	unrestricted := rows[len(rows)-1]
	if unrestricted.Label != "unrestricted" {
		t.Fatalf("last row = %q", unrestricted.Label)
	}
	// The ablation's point: unrestricted triggering collects more.
	if unrestricted.TelemetryBytes <= rows[0].TelemetryBytes {
		t.Errorf("unrestricted %dB <= max-1 %dB", unrestricted.TelemetryBytes, rows[0].TelemetryBytes)
	}
}

func TestFig14CaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("case study is slow")
	}
	cfg := fastConfig()
	study, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(study.WaitDOT, "digraph waiting") {
		t.Fatalf("missing waiting graph DOT")
	}
	if !strings.Contains(study.ProvDOT, "digraph provenance") {
		t.Fatalf("missing provenance DOT")
	}
	if study.CriticalStr == "" {
		t.Fatalf("no critical path")
	}
	// The paper's headline: the big background flow scores far above the
	// small one.
	if study.BF2Score <= study.BF1Score {
		t.Errorf("BF2 score %.0f <= BF1 score %.0f; expected the 5x larger flow to dominate",
			study.BF2Score, study.BF1Score)
	}
}

func TestTrainingSimLocalizesAnomaly(t *testing.T) {
	if testing.Short() {
		t.Skip("training stream is slow")
	}
	cfg := fastConfig()
	const iterations, disturbAt = 5, 2
	results, err := TrainingSim(cfg, iterations, disturbAt, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != iterations {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		hasContention := r.Diag.HasType(diagnose.FlowContention) || r.Diag.HasType(diagnose.Incast)
		if r.Index == disturbAt && !hasContention {
			t.Fatalf("iteration %d: injected anomaly not diagnosed", r.Index)
		}
		if r.Index != disturbAt && len(r.Diag.Culprits()) > 0 {
			t.Fatalf("iteration %d: phantom culprits %v", r.Index, r.Diag.Culprits())
		}
		if r.Duration <= 0 {
			t.Fatalf("iteration %d: no duration", r.Index)
		}
	}
	// The disturbed iteration must be slower than its neighbours.
	if results[disturbAt].Duration <= results[disturbAt-1].Duration {
		t.Fatalf("disturbed iteration not slower: %v vs %v",
			results[disturbAt].Duration, results[disturbAt-1].Duration)
	}
}

func TestLargeScaleK8(t *testing.T) {
	// §V applicability: a K=8 fat-tree (80 switches, 128 hosts) running a
	// 16-rank collective, monitored end to end. Complexity of the waiting
	// graph is O(N·S) and of the provenance graph O(switches×reports);
	// this guards the implementation against accidental blow-ups.
	if testing.Short() {
		t.Skip("large-scale run")
	}
	ft, err := topo.NewFatTree(topo.FatTreeConfig{
		K:         8,
		Bandwidth: 100 * simtime.Gbps,
		Delay:     2 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Switches()) != 80 || len(ft.Hosts()) != 128 {
		t.Fatalf("K=8 shape: %d switches, %d hosts", len(ft.Switches()), len(ft.Hosts()))
	}
	k := sim.New(88)
	k.SetEventLimit(200_000_000)
	fcfg := fabric.DefaultConfig()
	fcfg.PFCPauseThreshold = 64 << 10
	fcfg.PFCResumeThreshold = 32 << 10
	fcfg.ECNThreshold = 32 << 10
	net := fabric.NewNetwork(k, ft.Topology, fcfg)
	rcfg := rdma.DefaultConfig()
	rcfg.CellSize = 16 << 10
	hosts := map[topo.NodeID]*rdma.Host{}
	ranks := ft.Hosts()[:16]
	extras := ft.Hosts()[16:]
	for _, id := range ft.Hosts() {
		h, err := rdma.NewHost(k, net, id, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[id] = h
	}
	schs, err := collective.Decompose(collective.Spec{
		Op: collective.AllGather, Alg: collective.Ring, Ranks: ranks, Bytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := collective.NewRunner(k, hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	mcfg := monitor.DefaultConfig()
	mcfg.CellSize = 16 << 10
	sys := monitor.NewSystem(k, net, run, hosts, mcfg)

	// Disturb two ranks from bystanders.
	hosts[extras[0]].Send(fabric.FlowKey{Src: extras[0], Dst: ranks[3], SrcPort: 9000, DstPort: 9001, Proto: 17}, 8<<20)
	hosts[extras[1]].Send(fabric.FlowKey{Src: extras[1], Dst: ranks[9], SrcPort: 9010, DstPort: 9011, Proto: 17}, 8<<20)

	run.OnComplete = func(at simtime.Time) { k.Stop() }
	run.Start()
	k.Run(simtime.Time(5 * time.Second))
	if done, _ := run.Done(); !done {
		t.Fatal("16-rank collective on K=8 did not complete")
	}
	cfs := map[fabric.FlowKey]bool{}
	for _, sch := range schs {
		for s := range sch.Steps {
			cfs[sch.FlowKey(s)] = true
		}
	}
	diag := diagnose.Analyze(diagnose.Input{
		Records: run.Records(),
		Reports: sys.Reports(),
		CFs:     cfs,
		StepOf: func(f fabric.FlowKey) (waitgraph.StepRef, bool) {
			host, step, ok := run.StepOf(f)
			return waitgraph.StepRef{Host: host, Step: step}, ok
		},
	})
	if len(diag.CriticalPath) != 15 {
		t.Fatalf("critical path = %d steps, want 15 (N-1 for 16 ranks)", len(diag.CriticalPath))
	}
	if len(diag.Findings) == 0 {
		t.Fatalf("no findings despite two injected flows")
	}
}
