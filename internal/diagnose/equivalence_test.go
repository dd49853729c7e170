package diagnose_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

// randomInput generates a small ring collective (hosts × steps records with
// data dependencies on the left neighbour) and a set of telemetry reports
// spread at random over the steps' flows and over flows no step claims,
// carrying contention, meters and PFC edges over a small port pool.
func randomInput(rng *rand.Rand) diagnose.Input {
	hosts, steps := 2+rng.Intn(4), 2+rng.Intn(4)
	us := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Duration(time.Microsecond) }
	cfOf := func(h, s int) fabric.FlowKey {
		return fabric.FlowKey{Src: topo.NodeID(h), Dst: topo.NodeID((h + 1) % hosts),
			SrcPort: uint16(5000 + s), DstPort: uint16(5000 + s), Proto: 17}
	}
	end := make([][]simtime.Time, hosts)
	for h := range end {
		end[h] = make([]simtime.Time, steps)
	}
	var records []collective.StepRecord
	cfs := map[fabric.FlowKey]bool{}
	var cfList []fabric.FlowKey
	for s := 0; s < steps; s++ {
		for h := 0; h < hosts; h++ {
			rec := collective.StepRecord{Host: topo.NodeID(h), Step: s, Flow: cfOf(h, s), WaitSrc: topo.None}
			if s > 0 {
				left := (h + hosts - 1) % hosts
				rec.WaitSrc, rec.WaitStep = topo.NodeID(left), s-1
				rec.Start = end[h][s-1]
				if end[left][s-1] >= rec.Start {
					rec.Start, rec.BoundByWait = end[left][s-1], true
				}
			}
			rec.End = rec.Start.Add(us(10 + rng.Intn(90)))
			end[h][s] = rec.End
			records = append(records, rec)
			cfs[rec.Flow] = true
			cfList = append(cfList, rec.Flow)
		}
	}

	ports := make([]topo.PortID, 6)
	for i := range ports {
		ports[i] = topo.PortID{Node: topo.NodeID(20 + i/2), Port: i % 3}
	}
	ports[0] = topo.PortID{Node: 0, Port: 0} // a collective source's own uplink
	bgs := make([]fabric.FlowKey, 5)
	for i := range bgs {
		bgs[i] = fabric.FlowKey{Src: topo.NodeID(10 + i%3), Dst: 9, SrcPort: uint16(9000 + i), DstPort: 9001, Proto: 17}
	}
	anyFlow := func() fabric.FlowKey {
		if rng.Intn(2) == 0 {
			return bgs[rng.Intn(len(bgs))]
		}
		return cfList[rng.Intn(len(cfList))]
	}
	var reports []*telemetry.Report
	for i, n := 0, rng.Intn(16); i < n; i++ {
		rep := &telemetry.Report{TriggeredBy: cfList[rng.Intn(len(cfList))], PortsMissed: rng.Intn(2)}
		if rng.Intn(4) == 0 {
			rep.TriggeredBy = bgs[rng.Intn(len(bgs))] // no step claims it
		}
		for j, m := 0, 1+rng.Intn(5); j < m; j++ {
			p := ports[rng.Intn(len(ports))]
			fr := telemetry.FlowRecord{Switch: p.Node, Port: p.Port, Flow: anyFlow(),
				Pkts: int64(rng.Intn(100)), Bytes: int64(rng.Intn(100000))}
			for k, w := 0, rng.Intn(3); k < w; k++ {
				if fr.Wait == nil {
					fr.Wait = map[fabric.FlowKey]int64{}
				}
				fr.Wait[anyFlow()] += int64(rng.Intn(300))
			}
			rep.Flows = append(rep.Flows, fr)
		}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			p := ports[rng.Intn(len(ports))]
			pr := telemetry.PortRecord{Switch: p.Node, Port: p.Port,
				QueuedBytes: int64(rng.Intn(50000)), AvgQueuedBytes: int64(rng.Intn(50000)), Paused: rng.Intn(4) == 0}
			for k, w := 0, rng.Intn(3); k < w; k++ {
				if pr.MeterIn == nil {
					pr.MeterIn = map[topo.PortID]int64{}
				}
				pr.MeterIn[ports[rng.Intn(len(ports))]] += int64(rng.Intn(10000))
			}
			for k, w := 0, rng.Intn(3); k < w; k++ {
				cause := ports[rng.Intn(len(ports))]
				pr.PFCEvents = append(pr.PFCEvents, fabric.PFCEvent{
					Pause: rng.Intn(4) != 0, Upstream: ports[rng.Intn(len(ports))],
					Downstream: cause.Node, CauseEgress: cause.Port, Injected: rng.Intn(5) == 0,
				})
			}
			rep.Ports = append(rep.Ports, pr)
		}
		if rng.Intn(8) == 0 {
			rep.TTLDrops = map[topo.NodeID]int64{topo.NodeID(20 + rng.Intn(3)): 1 + int64(rng.Intn(9))}
		}
		reports = append(reports, rep)
	}

	in := diagnose.Input{Records: records, Reports: reports, CFs: cfs,
		StepOf: diagnose.StepOfRecords(records), PollsLost: rng.Intn(2)}
	switch rng.Intn(4) {
	case 0:
		in.StepOf = nil // per-step provenance off
	case 1:
		in.MinCulpritScore = float64(rng.Intn(2000))
	}
	return in
}

// assertSameDiagnosis holds Analyze to the reference formula on one input.
func assertSameDiagnosis(t *testing.T, name string, in diagnose.Input) *diagnose.Diagnosis {
	t.Helper()
	got, want := diagnose.Analyze(in), diagnose.AnalyzeReference(in)
	if !reflect.DeepEqual(got.CriticalPath, want.CriticalPath) {
		t.Errorf("%s: critical path %v, reference %v", name, got.CriticalPath, want.CriticalPath)
	}
	if !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Errorf("%s: findings differ\n got %+v\nwant %+v", name, got.Findings, want.Findings)
	}
	if !reflect.DeepEqual(got.Ratings, want.Ratings) {
		t.Errorf("%s: ratings differ\n got %+v\nwant %+v", name, got.Ratings, want.Ratings)
	}
	if !reflect.DeepEqual(got.PerCF, want.PerCF) {
		t.Errorf("%s: per-CF scores differ\n got %+v\nwant %+v", name, got.PerCF, want.PerCF)
	}
	if g, w := got.Summary(), want.Summary(); g != w {
		t.Errorf("%s: summary differs\n got %s\nwant %s", name, g, w)
	}
	// The flows a PFC finding affects are read off the flows seen at its
	// port; a scan of the whole census in flow order must agree.
	census := make([]fabric.FlowKey, 0, len(in.CFs))
	for f := range in.CFs {
		census = append(census, f)
	}
	sort.Slice(census, func(i, j int) bool {
		a, b := census[i], census[j]
		switch {
		case a.Src != b.Src:
			return a.Src < b.Src
		case a.Dst != b.Dst:
			return a.Dst < b.Dst
		case a.SrcPort != b.SrcPort:
			return a.SrcPort < b.SrcPort
		case a.DstPort != b.DstPort:
			return a.DstPort < b.DstPort
		}
		return a.Proto < b.Proto
	})
	for _, f := range got.Findings {
		if f.Type != diagnose.PFCBackpressure && f.Type != diagnose.PFCStorm {
			continue
		}
		var affected []fabric.FlowKey
		for _, cf := range census {
			if got.Graph.HasFlowPortEdge(cf, f.Port) {
				affected = append(affected, cf)
			}
		}
		if !reflect.DeepEqual(f.Affected, affected) {
			t.Errorf("%s: %s at %v affects %v, census scan says %v", name, f.Type, f.Port, f.Affected, affected)
		}
	}
	// Graphs carry their derived views eagerly, so DeepEqual is a content
	// comparison: the one-pass aggregate equals the group-by-group one.
	if !reflect.DeepEqual(got.Graph, want.Graph) {
		t.Errorf("%s: aggregate graph differs from the regrouped build", name)
	}
	return got
}

// TestAnalyzeMatchesReferenceOnRandomPartitions: the aggregate built in one
// pass plus per-step graphs built only for the rated steps gives the same
// diagnosis as building every report group up front.
func TestAnalyzeMatchesReferenceOnRandomPartitions(t *testing.T) {
	var rated, found int
	for seed := int64(0); seed < 300; seed++ {
		d := assertSameDiagnosis(t, fmt.Sprintf("seed %d", seed), randomInput(rand.New(rand.NewSource(seed))))
		if len(d.Ratings) > 0 {
			rated++
		}
		if len(d.Findings) > 0 {
			found++
		}
	}
	if rated < 100 || found < 100 {
		t.Fatalf("generator too tame: %d/300 inputs rated, %d/300 with findings", rated, found)
	}
}

// conformanceInput runs one §IV-A case and returns the analyzer input the
// daemon would see for it.
func conformanceInput(t *testing.T, kind scenario.AnomalyKind, seed int64) diagnose.Input {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cs, err := scenario.GenerateCase(kind, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, scenario.DefaultRunOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return diagnose.Input{Records: res.Records, Reports: res.Reports, CFs: res.CFs,
		StepOf: diagnose.StepOfRecords(res.Records)}
}

func TestAnalyzeMatchesReferenceOnConformanceCases(t *testing.T) {
	for _, kind := range []scenario.AnomalyKind{
		scenario.Contention, scenario.Incast, scenario.PFCStorm, scenario.PFCBackpressure,
	} {
		for seed := int64(0); seed < 3; seed++ {
			in := conformanceInput(t, kind, seed)
			d := assertSameDiagnosis(t, kind.String(), in)
			if len(d.Findings) == 0 {
				t.Errorf("%s seed %d: no findings, the comparison is vacuous", kind, seed)
			}
		}
	}
}

// withCensus returns in with its collective-flow set padded to n flows.
// The padding flows appear in no record and no report.
func withCensus(in diagnose.Input, n int) diagnose.Input {
	cfs := make(map[fabric.FlowKey]bool, n)
	for f := range in.CFs {
		cfs[f] = true
	}
	for i := 0; len(cfs) < n; i++ {
		cfs[fabric.FlowKey{Src: topo.NodeID(1000 + i%64), Dst: topo.NodeID(2000 + i/64),
			SrcPort: uint16(i), DstPort: uint16(i >> 16), Proto: 17}] = true
	}
	in.CFs = cfs
	return in
}

// TestAnalyzeCostIndependentOfCensus: at a fixed report set, a 4× larger
// collective-flow census must not make Analyze allocate in proportion — a
// census copy per provenance graph would. Allocation counts alone would
// miss that (a map copy's count grows with the logarithm of its size), so
// the allocated bytes are held to the same bound.
func TestAnalyzeCostIndependentOfCensus(t *testing.T) {
	base := conformanceInput(t, scenario.Contention, 0)
	if len(base.Reports) < 2 {
		t.Fatalf("contention case kept %d reports, want several step groups", len(base.Reports))
	}
	cost := func(in diagnose.Input) (allocs, bytes float64) {
		const runs = 5
		allocs = testing.AllocsPerRun(runs, func() { diagnose.Analyze(in) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			diagnose.Analyze(in)
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	a1, b1 := cost(withCensus(base, 1024))
	a4, b4 := cost(withCensus(base, 4096))
	t.Logf("per Analyze: %.0f allocs / %.0f B at 1024 CFs, %.0f allocs / %.0f B at 4096 CFs", a1, b1, a4, b4)
	if a4 >= 1.5*a1 || b4 >= 1.5*b1 {
		t.Fatalf("4x the census grew Analyze from %.0f allocs / %.0f B to %.0f allocs / %.0f B (>= 1.5x): its cost depends on |CF| again",
			a1, b1, a4, b4)
	}
}

// TestAnalyzeDoesNotWriteCFs: every graph of an analysis shares in.CFs, so
// Analyze must only read it. Concurrent analyses over one map make a write
// a data race (and a runtime "concurrent map writes" fault), and the map
// must come back unchanged.
func TestAnalyzeDoesNotWriteCFs(t *testing.T) {
	in := conformanceInput(t, scenario.PFCBackpressure, 0)
	before := make(map[fabric.FlowKey]bool, len(in.CFs))
	for f, v := range in.CFs {
		before[f] = v
	}
	want := diagnose.Analyze(in).Summary()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := diagnose.Analyze(in).Summary(); got != want {
				t.Errorf("concurrent analysis over a shared CF set differs:\n got %s\nwant %s", got, want)
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(in.CFs, before) {
		t.Fatalf("Analyze modified in.CFs: %d flows before, %d after", len(before), len(in.CFs))
	}
}
