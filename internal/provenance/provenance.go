// Package provenance builds the network provenance graph of §III-D1 from
// collected telemetry and evaluates flow contributions per §III-D3. The
// vertex set is F ∪ P (flows and ports, with CF ⊆ F the collective flows);
// the three directed edge types carry the paper's weights:
//
//   - e(f, p): flow f waits at port p; weight w(f, p) = Σ_{j≠f} w(f, f_j),
//     where w(f_i, f_j) counts packets of f_j that f_i's packets queued
//     behind.
//   - e(p, f): flow f contributes to p's congestion; weight
//     w(p, f) = bytes(f)/bytes(p) × qdepth(p) (byte-denominated form of the
//     paper's packet-count formula; the ratio is identical).
//   - e(p_i, p_j): PFC causality — the congested downstream egress p_j
//     halted the upstream egress p_i; weight w(p_i, p_j) is p_i's share of
//     the traffic entering p_j: meter(p_i, p_j)/Σ_k meter(p_k, p_j).
package provenance

import (
	"math"
	"sort"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

// Graph is the built provenance graph for one diagnosis window (typically
// one collective step, §III-D1: "For each step of the collective
// communication, it constructs provenance graphs"). A Graph is immutable
// once Build returns: every accessor is a read, so one graph may be read
// from several goroutines, and slices an accessor returns are the graph's
// own and must not be modified.
type Graph struct {
	// flowsAtPort: per port, per flow, the aggregated telemetry.
	flowPkts  map[topo.PortID]map[fabric.FlowKey]int64
	flowBytes map[topo.PortID]map[fabric.FlowKey]int64
	pairWait  map[topo.PortID]map[fabric.FlowKey]map[fabric.FlowKey]int64
	qdepth    map[topo.PortID]int64
	meterIn   map[topo.PortID]map[topo.PortID]int64
	paused    map[topo.PortID]bool
	injected  map[topo.PortID]bool // p_j ports whose pause edges were storm-injected

	// cf is the caller's collective-flow set, shared by every graph of an
	// analysis and never written here.
	cf map[fabric.FlowKey]bool

	// Views derived from the maps above, computed once by Build.
	ports      []topo.PortID                    // every port vertex, sorted
	portBytes  map[topo.PortID]int64            // Σ_f bytes(f) at p
	meterTotal map[topo.PortID]int64            // Σ_k meter(p_k, p)
	pfcUp      []topo.PortID                    // halted upstreams p_i, sorted
	pfcOut     map[topo.PortID][]topo.PortID    // e(p_i, p_j): causes of p_i, sorted
	waitsAt    map[fabric.FlowKey][]topo.PortID // P_f: ports with e(f, p), sorted
}

// Build aggregates telemetry reports into a provenance graph. cfs marks the
// collective-communication flows (the CF subset of F); the graph keeps a
// reference to it rather than a copy, so the caller must not modify the map
// while the graph is in use.
func Build(reports []*telemetry.Report, cfs map[fabric.FlowKey]bool) *Graph {
	g := &Graph{
		flowPkts:  map[topo.PortID]map[fabric.FlowKey]int64{},
		flowBytes: map[topo.PortID]map[fabric.FlowKey]int64{},
		pairWait:  map[topo.PortID]map[fabric.FlowKey]map[fabric.FlowKey]int64{},
		qdepth:    map[topo.PortID]int64{},
		meterIn:   map[topo.PortID]map[topo.PortID]int64{},
		paused:    map[topo.PortID]bool{},
		injected:  map[topo.PortID]bool{},
		cf:        cfs,
	}
	pfc := map[topo.PortID]map[topo.PortID]bool{}
	for _, rep := range reports {
		for _, fr := range rep.Flows {
			p := topo.PortID{Node: fr.Switch, Port: fr.Port}
			add2(g.flowPkts, p, fr.Flow, fr.Pkts)
			add2(g.flowBytes, p, fr.Flow, fr.Bytes)
			if len(fr.Wait) > 0 {
				pw := g.pairWait[p]
				if pw == nil {
					pw = map[fabric.FlowKey]map[fabric.FlowKey]int64{}
					g.pairWait[p] = pw
				}
				row := pw[fr.Flow]
				if row == nil {
					row = map[fabric.FlowKey]int64{}
					pw[fr.Flow] = row
				}
				for other, w := range fr.Wait {
					row[other] += w
				}
			}
		}
		for _, pr := range rep.Ports {
			p := topo.PortID{Node: pr.Switch, Port: pr.Port}
			depth := pr.AvgQueuedBytes
			if pr.QueuedBytes > depth {
				depth = pr.QueuedBytes
			}
			if depth > g.qdepth[p] {
				g.qdepth[p] = depth
			}
			if pr.Paused {
				g.paused[p] = true
			}
			for up, b := range pr.MeterIn {
				add2(g.meterIn, p, up, b)
			}
			for _, ev := range pr.PFCEvents {
				if !ev.Pause {
					continue
				}
				pj := topo.PortID{Node: ev.Downstream, Port: ev.CauseEgress}
				out := pfc[ev.Upstream]
				if out == nil {
					out = map[topo.PortID]bool{}
					pfc[ev.Upstream] = out
				}
				out[pj] = true
				if ev.Injected {
					g.injected[pj] = true
				}
			}
		}
	}
	g.derive(pfc)
	return g
}

// derive computes the graph's read-only views from its aggregated maps and
// the PFC edge set Build collected.
func (g *Graph) derive(pfc map[topo.PortID]map[topo.PortID]bool) {
	seen := make(map[topo.PortID]bool, len(g.flowPkts)+len(g.qdepth))
	for p := range g.flowPkts {
		seen[p] = true
	}
	for p := range g.meterIn {
		seen[p] = true
	}
	for p := range g.qdepth {
		seen[p] = true
	}
	g.ports = sortedPorts(seen)

	g.portBytes = innerSums(g.flowBytes)
	g.meterTotal = innerSums(g.meterIn)

	g.pfcOut = make(map[topo.PortID][]topo.PortID, len(pfc))
	for pi, out := range pfc {
		g.pfcOut[pi] = sortedPorts(out)
	}
	g.pfcUp = sortedPorts(pfc)

	// Visiting ports in sorted order leaves every P_f sorted.
	g.waitsAt = map[fabric.FlowKey][]topo.PortID{}
	for _, p := range g.ports {
		for f := range g.flowPkts[p] {
			if g.HasFlowPortEdge(f, p) {
				//lint:ignore mapiterorder each flow's list gains p once per port; the sorted outer loop orders it, not this map
				g.waitsAt[f] = append(g.waitsAt[f], p)
			}
		}
	}
}

// sortedPorts returns a port-keyed map's keys in (node, port) order.
func sortedPorts[V any](set map[topo.PortID]V) []topo.PortID {
	out := make([]topo.PortID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// innerSums returns, per outer key, the sum over the inner map.
func innerSums[K1, K2 comparable](m map[K1]map[K2]int64) map[K1]int64 {
	out := make(map[K1]int64, len(m))
	for k, inner := range m {
		var total int64
		for _, v := range inner {
			total += v
		}
		out[k] = total
	}
	return out
}

func add2[K1, K2 comparable](m map[K1]map[K2]int64, k1 K1, k2 K2, v int64) {
	inner := m[k1]
	if inner == nil {
		inner = map[K2]int64{}
		m[k1] = inner
	}
	inner[k2] += v
}

// IsCF reports whether f is a collective-communication flow: a key of the
// set Build was given.
func (g *Graph) IsCF(f fabric.FlowKey) bool {
	_, ok := g.cf[f]
	return ok
}

// Ports returns every port vertex, deterministically ordered.
func (g *Graph) Ports() []topo.PortID { return g.ports }

// FlowsAt returns the flows observed at a port, deterministically ordered.
func (g *Graph) FlowsAt(p topo.PortID) []fabric.FlowKey {
	fs := g.flowPkts[p]
	out := make([]fabric.FlowKey, 0, len(fs))
	for f := range fs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return flowLess(out[i], out[j]) })
	return out
}

// HasFlowPortEdge reports e(f, p) ∈ E: flow f waited at port p — either it
// queued behind other flows there (contention), or the port was PFC-paused
// while f's packets transited it (a halted flow waits on its port even with
// nothing in front of it, e.g. under a PFC storm).
func (g *Graph) HasFlowPortEdge(f fabric.FlowKey, p topo.PortID) bool {
	if g.WFlowPort(f, p) > 0 {
		return true
	}
	return g.paused[p] && g.flowPkts[p][f] > 0
}

// WFlowPort returns w(f, p) = Σ_{j≠f} w(f, f_j) at p.
func (g *Graph) WFlowPort(f fabric.FlowKey, p topo.PortID) int64 {
	var sum int64
	for other, w := range g.pairWait[p][f] {
		if other != f {
			sum += w
		}
	}
	return sum
}

// PairWait returns w(f_i, f_j) at port p.
func (g *Graph) PairWait(p topo.PortID, fi, fj fabric.FlowKey) int64 {
	return g.pairWait[p][fi][fj]
}

// WPortFlow returns w(p, f) = bytes(f)/bytes(p) × qdepth(p): f's
// contribution to p's congestion.
func (g *Graph) WPortFlow(p topo.PortID, f fabric.FlowKey) float64 {
	total := g.portBytes[p]
	if total == 0 {
		return 0
	}
	return float64(g.flowBytes[p][f]) / float64(total) * float64(g.qdepth[p])
}

// PFCUpstreams returns every port that appears as the halted upstream p_i
// of a pause edge, deterministically ordered. Host uplinks can appear here
// (a storm pausing a NIC) even though they carry no switch telemetry.
func (g *Graph) PFCUpstreams() []topo.PortID { return g.pfcUp }

// PFCOut returns the downstream cause ports p_j with e(p, p_j) ∈ E,
// deterministically ordered.
func (g *Graph) PFCOut(p topo.PortID) []topo.PortID { return g.pfcOut[p] }

// WPortPort returns w(p_i, p_j): p_i's share of traffic entering p_j.
func (g *Graph) WPortPort(pi, pj topo.PortID) float64 {
	total := g.meterTotal[pj]
	if total == 0 {
		return 0
	}
	return float64(g.meterIn[pj][pi]) / float64(total)
}

// InjectedCause reports whether p_j's pause edges were storm-injected
// (hardware-bug signature rather than organic congestion).
func (g *Graph) InjectedCause(pj topo.PortID) bool { return g.injected[pj] }

// Paused reports whether p was PFC-paused at any collection.
func (g *Graph) Paused(p topo.PortID) bool { return g.paused[p] }

// PortsWaitedBy returns P_f: the ports flow f waits at (its e(f, p)
// neighbours), deterministically ordered.
func (g *Graph) PortsWaitedBy(f fabric.FlowKey) []topo.PortID { return g.waitsAt[f] }

// RateFlowPort computes Eq. 1: R(f_i, p_j) = w(p_j, f_i) +
// Σ_{p_k: e(p_j,p_k)} R(f_i, p_k) × w(p_j, p_k), the impact of f_i on port
// p_j accumulated backwards along PFC causality. Cycles (PFC deadlock) are
// cut by the visited set.
func (g *Graph) RateFlowPort(fi fabric.FlowKey, pj topo.PortID) float64 {
	return g.rateFlowPort(fi, pj, map[topo.PortID]bool{})
}

func (g *Graph) rateFlowPort(fi fabric.FlowKey, pj topo.PortID, visiting map[topo.PortID]bool) float64 {
	if visiting[pj] {
		return 0
	}
	visiting[pj] = true
	defer delete(visiting, pj)
	r := g.WPortFlow(pj, fi)
	for _, pk := range g.PFCOut(pj) {
		r += g.rateFlowPort(fi, pk, visiting) * g.WPortPort(pj, pk)
	}
	return r
}

// RateFlowCF computes Eq. 2: the contribution of f_i to collective flow cf,
// summed over cf's waiting ports P_cf. Where f_i and cf contend directly at
// p_k, the direct pairwise wait w(cf, f_i) at that port replaces the
// port-level share w(p_k, f_i).
func (g *Graph) RateFlowCF(fi, cf fabric.FlowKey) float64 {
	var r float64
	for _, pk := range g.PortsWaitedBy(cf) {
		base := g.RateFlowPort(fi, pk)
		if g.HasFlowPortEdge(fi, pk) {
			direct := float64(g.PairWait(pk, cf, fi))
			base += direct - g.WPortFlow(pk, fi)
		}
		r += base
	}
	if math.IsNaN(r) {
		return 0
	}
	return r
}

// Contenders returns the non-CF flows in the connected subgraph reachable
// from the collective flows (§III-D3: "starting from all collective
// communication flows, we obtain the largest connected subgraph, then all
// flows f ∉ CF belong to the evaluation object"). Connectivity treats
// edges as undirected.
func (g *Graph) Contenders() []fabric.FlowKey {
	reach := map[topo.PortID]bool{}
	var stack []topo.PortID
	for _, p := range g.Ports() {
		if g.hasCFAt(p) {
			reach[p] = true
			stack = append(stack, p)
		}
	}
	// Expand across PFC edges in both directions.
	rev := map[topo.PortID][]topo.PortID{}
	for _, pi := range g.PFCUpstreams() {
		for _, pj := range g.PFCOut(pi) {
			rev[pj] = append(rev[pj], pi)
		}
	}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var nbrs []topo.PortID
		nbrs = append(nbrs, g.PFCOut(p)...)
		nbrs = append(nbrs, rev[p]...)
		for _, q := range nbrs {
			if !reach[q] {
				reach[q] = true
				stack = append(stack, q)
			}
		}
	}
	seen := map[fabric.FlowKey]bool{}
	var out []fabric.FlowKey
	for p := range reach {
		for f := range g.flowPkts[p] {
			if !g.IsCF(f) && !seen[f] && f.Proto != 0 {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return flowLess(out[i], out[j]) })
	return out
}

// hasCFAt reports whether any collective flow was observed at p.
func (g *Graph) hasCFAt(p topo.PortID) bool {
	for f := range g.flowPkts[p] {
		if g.IsCF(f) {
			return true
		}
	}
	return false
}

func flowLess(a, b fabric.FlowKey) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}
