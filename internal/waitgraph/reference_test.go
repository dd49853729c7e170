package waitgraph

import (
	"sort"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// refGraph is the waiting graph's original map-based form, kept as the
// reference the differential tests hold Graph to: four maps keyed by step
// and vertex, filled record by record in completion order, every query a
// scan or sort over them.
type refGraph struct {
	records map[StepRef]collective.StepRecord
	out     map[Vertex][]Edge
	in      map[Vertex]int
	verts   map[Vertex]bool
}

// buildReference is the original Build.
func buildReference(records []collective.StepRecord) *refGraph {
	recs := make([]collective.StepRecord, len(records))
	copy(recs, records)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End < recs[j].End })

	g := &refGraph{
		records: make(map[StepRef]collective.StepRecord, len(recs)),
		out:     make(map[Vertex][]Edge),
		in:      make(map[Vertex]int),
		verts:   make(map[Vertex]bool),
	}
	for _, rec := range recs {
		g.records[StepRef{rec.Host, rec.Step}] = rec
	}
	for _, rec := range recs {
		s := Vertex{rec.Host, rec.Step, Start}
		e := Vertex{rec.Host, rec.Step, End}
		g.addEdge(Edge{From: e, To: s, Kind: EdgeExec, Weight: rec.End.Sub(rec.Start), Binding: true})
		if rec.Step > 0 {
			prev := Vertex{rec.Host, rec.Step - 1, End}
			if g.verts[prev] || g.known(rec.Host, rec.Step-1) {
				g.addEdge(Edge{From: s, To: prev, Kind: EdgePrev, Binding: !rec.BoundByWait})
			}
		}
		if rec.WaitSrc != topo.None {
			dep := Vertex{rec.WaitSrc, rec.WaitStep, End}
			if g.known(rec.WaitSrc, rec.WaitStep) {
				g.addEdge(Edge{From: s, To: dep, Kind: EdgeData, Binding: rec.BoundByWait})
			}
		}
	}
	return g
}

func (g *refGraph) known(host topo.NodeID, step int) bool {
	_, ok := g.records[StepRef{host, step}]
	return ok
}

func (g *refGraph) addEdge(e Edge) {
	g.verts[e.From] = true
	g.verts[e.To] = true
	g.out[e.From] = append(g.out[e.From], e)
	g.in[e.To]++
}

func (g *refGraph) Vertices() []Vertex {
	out := make([]Vertex, 0, len(g.verts))
	for v := range g.verts {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return vertexLess(out[i], out[j]) })
	return out
}

func (g *refGraph) Edges() []Edge {
	var out []Edge
	for _, v := range g.Vertices() {
		out = append(out, g.out[v]...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return vertexLess(out[i].From, out[j].From)
		}
		if out[i].To != out[j].To {
			return vertexLess(out[i].To, out[j].To)
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func (g *refGraph) Record(ref StepRef) (collective.StepRecord, bool) {
	rec, ok := g.records[ref]
	return rec, ok
}

func (g *refGraph) Source() (Vertex, bool) {
	var best collective.StepRecord
	found := false
	for _, rec := range g.records {
		if !found || rec.End > best.End ||
			(rec.End == best.End && (rec.Host < best.Host || (rec.Host == best.Host && rec.Step < best.Step))) {
			best, found = rec, true
		}
	}
	if !found {
		return Vertex{}, false
	}
	return Vertex{best.Host, best.Step, End}, true
}

func (g *refGraph) Prune() int {
	src, ok := g.Source()
	if !ok {
		return 0
	}
	removed := 0
	for {
		var dead []Vertex
		for v := range g.verts {
			if v == src {
				continue
			}
			if g.in[v] == 0 {
				dead = append(dead, v)
			}
		}
		sort.Slice(dead, func(i, j int) bool { return vertexLess(dead[i], dead[j]) })
		if len(dead) == 0 {
			return removed
		}
		for _, v := range dead {
			for _, e := range g.out[v] {
				g.in[e.To]--
			}
			delete(g.out, v)
			delete(g.verts, v)
			delete(g.in, v)
			removed++
		}
	}
}

func (g *refGraph) CriticalPath() ([]StepRef, simtime.Duration) {
	src, ok := g.Source()
	if !ok {
		return nil, 0
	}
	var path []StepRef
	cur := StepRef{src.Host, src.Step}
	seen := map[StepRef]bool{}
	budget := uint64(len(g.records))
	for {
		if seen[cur] {
			break
		}
		seen[cur] = true
		path = append(path, cur)
		rec, recorded := g.records[cur]
		if cur.Step == 0 {
			break
		}
		if rec.BoundByWait {
			next := StepRef{rec.WaitSrc, rec.WaitStep}
			if _, ok := g.records[next]; !ok {
				break
			}
			cur = next
			continue
		}
		next := StepRef{cur.Host, cur.Step - 1}
		if _, ok := g.records[next]; recorded && !ok {
			// The record-less run down from next: scan for the flow's
			// highest recorded step below it.
			below, floor := false, 0
			for ref := range g.records {
				if ref.Host == next.Host && ref.Step < next.Step && (!below || ref.Step > floor) {
					below, floor = true, ref.Step
				}
			}
			n, ends := recordlessRun(next.Step, below, floor)
			if !ends || n > budget {
				break
			}
			budget -= n
		}
		cur = next
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	first := g.records[path[0]]
	last := g.records[path[len(path)-1]]
	return path, last.End.Sub(first.Start)
}

func (g *refGraph) TotalTime() simtime.Duration {
	var minStart, maxEnd simtime.Time
	first := true
	for _, rec := range g.records {
		if first || rec.Start < minStart {
			minStart = rec.Start
		}
		if first || rec.End > maxEnd {
			maxEnd = rec.End
		}
		first = false
	}
	return maxEnd.Sub(minStart)
}

func (g *refGraph) StepCount() int { return len(g.records) }

func (g *refGraph) SlowestSteps(n int) []StepRef {
	refs := make([]StepRef, 0, len(g.records))
	for ref := range g.records {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		di := g.records[refs[i]].End.Sub(g.records[refs[i]].Start)
		dj := g.records[refs[j]].End.Sub(g.records[refs[j]].Start)
		if di != dj {
			return di > dj
		}
		if refs[i].Host != refs[j].Host {
			return refs[i].Host < refs[j].Host
		}
		return refs[i].Step < refs[j].Step
	})
	if n > len(refs) {
		n = len(refs)
	}
	return refs[:n]
}
