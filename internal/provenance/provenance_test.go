package provenance

import (
	"math"
	"testing"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

var (
	cfKey = fabric.FlowKey{Src: 0, Dst: 1, SrcPort: 5000, DstPort: 5000, Proto: 17}
	bfKey = fabric.FlowKey{Src: 2, Dst: 3, SrcPort: 9000, DstPort: 9001, Proto: 17}
	p1    = topo.PortID{Node: 10, Port: 2}
	p2    = topo.PortID{Node: 11, Port: 3}
	up1   = topo.PortID{Node: 12, Port: 0}
)

// contentionReport: cf and bf contend at p1; cf queued behind 100 bf
// packets and vice versa behind 40; queue averaged 10000 bytes; cf moved
// 60000 bytes, bf 40000.
func contentionReport() *telemetry.Report {
	return &telemetry.Report{
		Flows: []telemetry.FlowRecord{
			{Switch: p1.Node, Port: p1.Port, Flow: cfKey, Pkts: 60, Bytes: 60000,
				Wait: map[fabric.FlowKey]int64{bfKey: 100}},
			{Switch: p1.Node, Port: p1.Port, Flow: bfKey, Pkts: 40, Bytes: 40000,
				Wait: map[fabric.FlowKey]int64{cfKey: 40}},
		},
		Ports: []telemetry.PortRecord{
			{Switch: p1.Node, Port: p1.Port, AvgQueuedBytes: 10000},
		},
	}
}

func buildContention() *Graph {
	return Build([]*telemetry.Report{contentionReport()}, map[fabric.FlowKey]bool{cfKey: true})
}

// approx compares a computed float weight against its expected value with a
// relative tolerance: the weights are sums whose rounding depends on
// accumulation order, so tests must not rely on exact equality.
func approx(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	eps := 1e-9 * math.Abs(want)
	if eps < 1e-9 {
		eps = 1e-9
	}
	return d <= eps
}

func TestEdgeWeights(t *testing.T) {
	g := buildContention()
	if w := g.WFlowPort(cfKey, p1); w != 100 {
		t.Fatalf("w(cf,p1) = %d, want 100", w)
	}
	if !g.HasFlowPortEdge(cfKey, p1) || !g.HasFlowPortEdge(bfKey, p1) {
		t.Fatalf("missing e(f,p) edges")
	}
	// w(p1, cf) = 60000/100000 × 10000 = 6000.
	if w := g.WPortFlow(p1, cfKey); !approx(w, 6000) {
		t.Fatalf("w(p1,cf) = %v, want 6000", w)
	}
	if w := g.WPortFlow(p1, bfKey); !approx(w, 4000) {
		t.Fatalf("w(p1,bf) = %v, want 4000", w)
	}
}

func TestRateFlowPortNoPFC(t *testing.T) {
	g := buildContention()
	if r := g.RateFlowPort(bfKey, p1); !approx(r, 4000) {
		t.Fatalf("R(bf,p1) = %v, want w(p1,bf)=4000", r)
	}
}

func TestRateFlowCFDirectContention(t *testing.T) {
	g := buildContention()
	// Eq 2 at p1: e(bf,p1) ∈ E so the direct pair wait w(cf,bf)=100
	// replaces w(p1,bf)=4000 inside R: 4000 + (100 - 4000) = 100.
	if r := g.RateFlowCF(bfKey, cfKey); !approx(r, 100) {
		t.Fatalf("R(bf,cf) = %v, want 100", r)
	}
}

// pfcReport models: cf waits at upstream egress up1 (p_i), which was paused
// by downstream switch 11 whose congested egress is p2 (p_j); bf fills p2.
// Traffic into p2: 5000 bytes from up1, 5000 from elsewhere → w(up1,p2)=0.5.
func pfcReport() *telemetry.Report {
	other := topo.PortID{Node: 13, Port: 1}
	return &telemetry.Report{
		Flows: []telemetry.FlowRecord{
			{Switch: up1.Node, Port: up1.Port, Flow: cfKey, Pkts: 10, Bytes: 10000,
				Wait: map[fabric.FlowKey]int64{bfKey: 5}},
			{Switch: p2.Node, Port: p2.Port, Flow: bfKey, Pkts: 8, Bytes: 8000},
		},
		Ports: []telemetry.PortRecord{
			{Switch: up1.Node, Port: up1.Port, AvgQueuedBytes: 3000, Paused: true},
			{Switch: p2.Node, Port: p2.Port, AvgQueuedBytes: 8000,
				MeterIn: map[topo.PortID]int64{up1: 5000, other: 5000},
				PFCEvents: []fabric.PFCEvent{
					{Pause: true, Upstream: up1, Downstream: p2.Node, CauseEgress: p2.Port},
				}},
		},
	}
}

func TestPFCEdgeAndEq1Recursion(t *testing.T) {
	g := Build([]*telemetry.Report{pfcReport()}, map[fabric.FlowKey]bool{cfKey: true})
	out := g.PFCOut(up1)
	if len(out) != 1 || out[0] != p2 {
		t.Fatalf("PFCOut(up1) = %v, want [p2]", out)
	}
	if w := g.WPortPort(up1, p2); !approx(w, 0.5) {
		t.Fatalf("w(up1,p2) = %v, want 0.5", w)
	}
	// R(bf, p2) = w(p2,bf) = 8000 (bf is all of p2's traffic).
	if r := g.RateFlowPort(bfKey, p2); !approx(r, 8000) {
		t.Fatalf("R(bf,p2) = %v, want 8000", r)
	}
	// R(bf, up1) = w(up1,bf)=0 + R(bf,p2)×w(up1,p2) = 4000.
	if r := g.RateFlowPort(bfKey, up1); !approx(r, 4000) {
		t.Fatalf("R(bf,up1) = %v, want 4000", r)
	}
	// Eq 2: cf waits only at up1, where bf has no e(bf,up1) edge →
	// R(bf,cf) = R(bf,up1) = 4000.
	if r := g.RateFlowCF(bfKey, cfKey); !approx(r, 4000) {
		t.Fatalf("R(bf,cf) = %v, want 4000", r)
	}
}

func TestCycleTermination(t *testing.T) {
	// Deadlock-like cycle p1 → p2 → p1.
	rep := &telemetry.Report{
		Flows: []telemetry.FlowRecord{
			{Switch: p1.Node, Port: p1.Port, Flow: bfKey, Pkts: 1, Bytes: 1000},
		},
		Ports: []telemetry.PortRecord{
			{Switch: p1.Node, Port: p1.Port, AvgQueuedBytes: 1000,
				MeterIn:   map[topo.PortID]int64{p2: 1000},
				PFCEvents: []fabric.PFCEvent{{Pause: true, Upstream: p2, Downstream: p1.Node, CauseEgress: p1.Port}}},
			{Switch: p2.Node, Port: p2.Port, AvgQueuedBytes: 1000,
				MeterIn:   map[topo.PortID]int64{p1: 1000},
				PFCEvents: []fabric.PFCEvent{{Pause: true, Upstream: p1, Downstream: p2.Node, CauseEgress: p2.Port}}},
		},
	}
	g := Build([]*telemetry.Report{rep}, nil)
	r := g.RateFlowPort(bfKey, p1)
	if math.IsNaN(r) || math.IsInf(r, 0) {
		t.Fatalf("cycle produced %v", r)
	}
}

func TestContenders(t *testing.T) {
	g := buildContention()
	got := g.Contenders()
	if len(got) != 1 || got[0] != bfKey {
		t.Fatalf("contenders = %v, want [bf]", got)
	}
}

func TestContendersAcrossPFC(t *testing.T) {
	// bf only appears at the downstream cause port p2, reachable from
	// cf's port up1 via the PFC edge.
	g := Build([]*telemetry.Report{pfcReport()}, map[fabric.FlowKey]bool{cfKey: true})
	got := g.Contenders()
	if len(got) != 1 || got[0] != bfKey {
		t.Fatalf("contenders across PFC = %v, want [bf]", got)
	}
}

func TestAggregationAcrossReports(t *testing.T) {
	g := Build([]*telemetry.Report{contentionReport(), contentionReport()},
		map[fabric.FlowKey]bool{cfKey: true})
	if w := g.WFlowPort(cfKey, p1); w != 200 {
		t.Fatalf("aggregated w(cf,p1) = %d, want 200", w)
	}
	// Ratios are scale-invariant: w(p1,cf) unchanged.
	if w := g.WPortFlow(p1, cfKey); !approx(w, 6000) {
		t.Fatalf("aggregated w(p1,cf) = %v, want 6000", w)
	}

	// Queue depths take the max across reports and pause flags OR.
	shallow := &telemetry.Report{Ports: []telemetry.PortRecord{
		{Switch: p1.Node, Port: p1.Port, AvgQueuedBytes: 100},
	}}
	deep := &telemetry.Report{Ports: []telemetry.PortRecord{
		{Switch: p1.Node, Port: p1.Port, AvgQueuedBytes: 900, Paused: true},
	}}
	for _, order := range [][]*telemetry.Report{{shallow, deep}, {deep, shallow}} {
		g := Build(order, nil)
		if g.qdepth[p1] != 900 {
			t.Errorf("qdepth = %d, want max 900", g.qdepth[p1])
		}
		if !g.Paused(p1) {
			t.Error("graph lost the Paused flag")
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Build(nil, nil)
	if len(g.Ports()) != 0 || len(g.Contenders()) != 0 {
		t.Fatalf("empty graph not empty")
	}
	if r := g.RateFlowPort(bfKey, p1); !approx(r, 0) {
		t.Fatalf("rating on empty graph = %v", r)
	}
}

func TestInjectedCauseFlag(t *testing.T) {
	rep := pfcReport()
	for i := range rep.Ports {
		for j := range rep.Ports[i].PFCEvents {
			rep.Ports[i].PFCEvents[j].Injected = true
		}
	}
	g := Build([]*telemetry.Report{rep}, nil)
	if !g.InjectedCause(p2) {
		t.Fatalf("injected cause not flagged")
	}
}

func TestDeterministicOrdering(t *testing.T) {
	cfs := map[fabric.FlowKey]bool{cfKey: true}
	a := Build([]*telemetry.Report{pfcReport(), contentionReport()}, cfs).Ports()
	b := Build([]*telemetry.Report{contentionReport(), pfcReport()}, cfs).Ports()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic port count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic port order")
		}
	}
}
