// Package waitgraph builds the waiting graph of §III-B: a directed graph
// whose vertices are the start and end of every step of every flow in a
// collective, and whose edges express waiting relations — a step's start
// waits on the end of the same flow's previous step (the "orange" edges),
// on the end of the step it has a data dependency on (the "blue" edges),
// and a step's end waits on its own start through an execution edge (the
// "dark" edges) weighted with the step's execution time. The critical path
// through this graph is the collective's performance bottleneck (§III-D1).
package waitgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// VertexKind distinguishes the start and end events of a step.
type VertexKind uint8

// Vertex kinds.
const (
	Start VertexKind = iota
	End
)

// Vertex is the start or end of step Step of the flow originating at Host —
// the paper's F_i S_j notation.
type Vertex struct {
	Host topo.NodeID
	Step int
	Kind VertexKind
}

func (v Vertex) String() string {
	k := "start"
	if v.Kind == End {
		k = "end"
	}
	return fmt.Sprintf("F%dS%d.%s", v.Host, v.Step, k)
}

// EdgeKind labels the three waiting-relation types of §III-B.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgeExec connects a step's end to its start; its weight is the
	// step's execution time (the dark edges).
	EdgeExec EdgeKind = iota
	// EdgePrev connects a step's start to the previous step's end of the
	// same flow; weight 0 (the orange edges).
	EdgePrev
	// EdgeData connects a step's start to the end of the step it has a
	// data dependency on; weight 0 (the blue edges).
	EdgeData
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeExec:
		return "exec"
	case EdgePrev:
		return "prev"
	case EdgeData:
		return "data"
	default:
		return fmt.Sprintf("edge(%d)", uint8(k))
	}
}

// Edge is a directed waiting relation from the waiter to the waited-for.
type Edge struct {
	From, To Vertex
	Kind     EdgeKind
	Weight   simtime.Duration
	// Binding marks the gate that actually delayed the waiter (§III-C1:
	// waiting "occurs selectively" — only the later of the two gates
	// binds).
	Binding bool
}

// StepRef identifies one step on the critical path.
type StepRef struct {
	Host topo.NodeID
	Step int
}

// Graph is a built waiting graph, indexed by dense step ids: the distinct
// (host, step) pairs in (host, step) order, id i standing for refs[i].
// Vertex v = 2·id + kind, so dense vertex order is (host, step, kind) order.
type Graph struct {
	// recs holds every record grouped by step id, each group in completion
	// order: step id's records are recs[first[id]:first[id+1]], and the
	// last of them is the one Record returns.
	recs  []collective.StepRecord
	refs  []StepRef
	first []int32
	// arcs holds every edge grouped by From vertex, each group in the order
	// the edges were added: v's out-edges are arcs[off[v]:off[v+1]].
	arcs []arc
	off  []int32
	in   []int32 // live in-degree per vertex
	dead []bool  // removed by Prune
}

// arc is an edge out of the vertex whose group holds it.
type arc struct {
	weight  simtime.Duration
	to      int32
	kind    EdgeKind
	binding bool
}

// Build constructs the waiting graph from step records, exactly as the
// analyzer does at runtime (§III-D1). Records may arrive in any order. When
// several records name one (host, step), the latest-finishing one (the
// later in input order on a tie) is the step's record, and every one of
// them adds its own edges.
func Build(records []collective.StepRecord) *Graph {
	// One sort by (host, step, end, input index) yields both the dense ids
	// and each step's records in completion order.
	keys := make([]sortKey, len(records))
	for i := range records {
		rec := &records[i]
		keys[i] = sortKey{host: rec.Host, i: int32(i), step: rec.Step, end: rec.End}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		switch {
		case a.host != b.host:
			return cmp.Compare(a.host, b.host)
		case a.step != b.step:
			return cmp.Compare(a.step, b.step)
		case a.end != b.end:
			return cmp.Compare(a.end, b.end)
		}
		return cmp.Compare(a.i, b.i)
	})
	g := &Graph{
		recs:  make([]collective.StepRecord, len(records)),
		refs:  make([]StepRef, 0, len(records)),
		first: make([]int32, 0, len(records)+1),
	}
	for k, key := range keys {
		rec := records[key.i]
		g.recs[k] = rec
		if ref := (StepRef{rec.Host, rec.Step}); len(g.refs) == 0 || ref != g.refs[len(g.refs)-1] {
			g.refs = append(g.refs, ref)
			g.first = append(g.first, int32(k))
		}
	}
	g.first = append(g.first, int32(len(records)))

	nv := 2 * len(g.refs)
	g.off = make([]int32, nv+1)
	g.in = make([]int32, nv)
	g.dead = make([]bool, nv)
	g.arcs = make([]arc, 0, 3*len(records))
	add := func(to int, kind EdgeKind, weight simtime.Duration, binding bool) {
		g.arcs = append(g.arcs, arc{weight: weight, to: int32(to), kind: kind, binding: binding})
		g.in[to]++
	}
	for id, ref := range g.refs {
		group := g.recs[g.first[id]:g.first[id+1]]
		// A step's start waits on its flow's previous step, which sorts
		// right before it when it has a record, and on its data dependency.
		g.off[2*id] = int32(len(g.arcs))
		for _, rec := range group {
			if rec.Step > 0 && id > 0 && g.refs[id-1] == (StepRef{ref.Host, ref.Step - 1}) {
				add(2*(id-1)+int(End), EdgePrev, 0, !rec.BoundByWait)
			}
			if rec.WaitSrc != topo.None {
				if dep, ok := g.id(StepRef{rec.WaitSrc, rec.WaitStep}); ok {
					add(2*dep+int(End), EdgeData, 0, rec.BoundByWait)
				}
			}
		}
		// A step's end waits on its start.
		g.off[2*id+1] = int32(len(g.arcs))
		for _, rec := range group {
			add(2*id+int(Start), EdgeExec, rec.End.Sub(rec.Start), true)
		}
	}
	g.off[nv] = int32(len(g.arcs))
	return g
}

// sortKey is a record's place in Build's sort.
type sortKey struct {
	host topo.NodeID
	i    int32
	step int
	end  simtime.Time
}

// id returns ref's dense step id.
func (g *Graph) id(ref StepRef) (int, bool) {
	lo, hi := 0, len(g.refs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r := g.refs[m]; r.Host < ref.Host || r.Host == ref.Host && r.Step < ref.Step {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(g.refs) && g.refs[lo] == ref
}

// recordless returns how many record-less steps a walk down ref's flow
// takes from ref before it meets a record, or step 0, which it takes with
// or without one: 0 when ref is recorded, and ends false when the walk
// would meet neither. The flow's highest recorded step below ref sorts
// right before ref's place among the ids.
func (g *Graph) recordless(ref StepRef) (n uint64, ends bool) {
	lo, ok := g.id(ref)
	if ok {
		return 0, true
	}
	floor, below := 0, lo > 0 && g.refs[lo-1].Host == ref.Host
	if below {
		floor = g.refs[lo-1].Step
	}
	return recordlessRun(ref.Step, below, floor)
}

// recordlessRun is recordless given whether the flow has a recorded step
// below step, and the highest such step, floor, if so.
func recordlessRun(step int, below bool, floor int) (n uint64, ends bool) {
	switch {
	case step >= 0:
		if !below || floor < 0 {
			floor = -1 // the run goes on through step 0
		}
		return uint64(step) - uint64(floor), true // unsigned: step+1 can overflow an int
	case below:
		return uint64(step - floor), true
	}
	return 0, false
}

// record returns step id's record: the last of its group.
func (g *Graph) record(id int) *collective.StepRecord { return &g.recs[g.first[id+1]-1] }

// vertex returns dense vertex v.
func (g *Graph) vertex(v int) Vertex {
	ref := g.refs[v/2]
	return Vertex{ref.Host, ref.Step, VertexKind(v % 2)}
}

func vertexLess(a, b Vertex) bool {
	if a.Host != b.Host {
		return a.Host < b.Host
	}
	if a.Step != b.Step {
		return a.Step < b.Step
	}
	return a.Kind < b.Kind
}

// Vertices returns all vertices in deterministic (host, step, kind) order.
func (g *Graph) Vertices() []Vertex {
	out := make([]Vertex, 0, len(g.dead))
	for v, dead := range g.dead {
		if !dead {
			out = append(out, g.vertex(v))
		}
	}
	return out
}

// Edges returns all edges in deterministic (from, to, kind) order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for v, dead := range g.dead {
		if dead {
			continue
		}
		from := g.vertex(v)
		for _, a := range g.arcs[g.off[v]:g.off[v+1]] {
			out = append(out, Edge{From: from, To: g.vertex(int(a.to)), Kind: a.kind, Weight: a.weight, Binding: a.binding})
		}
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

// Record returns the step record behind a vertex pair.
func (g *Graph) Record(ref StepRef) (collective.StepRecord, bool) {
	id, ok := g.id(ref)
	if !ok {
		return collective.StepRecord{}, false
	}
	return *g.record(id), true
}

// Source returns the graph's source: the end vertex of the globally
// latest-finishing step (the collective's completion), the first in
// (host, step) order on a tie.
func (g *Graph) Source() (Vertex, bool) {
	id, ok := g.source()
	if !ok {
		return Vertex{}, false
	}
	return g.vertex(2*id + int(End)), true
}

func (g *Graph) source() (int, bool) {
	best := -1
	for id := range g.refs {
		if best < 0 || g.record(id).End > g.record(best).End {
			best = id
		}
	}
	return best, best >= 0
}

// Prune recursively removes vertices with in-degree zero — vertices no one
// waits for — keeping the graph's source, as the analyzer does before
// presenting the graph (§III-D1, Fig 14a). It returns the number of
// vertices removed.
func (g *Graph) Prune() int {
	id, ok := g.source()
	if !ok {
		return 0
	}
	src := 2*id + int(End)
	// Removing a vertex only lowers other in-degrees, so removing them one
	// at a time from a worklist reaches the same fixed point as removing
	// every zero-in-degree vertex round by round.
	var work []int
	for v, dead := range g.dead {
		if !dead && v != src && g.in[v] == 0 {
			work = append(work, v)
		}
	}
	removed := 0
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		g.dead[v] = true
		removed++
		for _, a := range g.arcs[g.off[v]:g.off[v+1]] {
			if g.in[a.to]--; g.in[a.to] == 0 && int(a.to) != src {
				work = append(work, int(a.to))
			}
		}
	}
	return removed
}

// CriticalPath walks the binding gates backward from the collective's
// completion to a dependency-free step start, returning the steps on the
// path in execution order plus the total elapsed time they explain. These
// steps are the collective's performance bottleneck; the flows they belong
// to are the "critical flows" whose provenance the analyzer inspects.
//
// A step without a record reads as unbound, so the walk steps down its
// flow until it meets a record or step 0. Steps come from the wire as any
// int, so such a record-less run is taken only while the walk's record-less
// steps stay within the number of recorded ones; a run that would not end,
// or end past that, ends the walk where it would begin. The walk is thus
// bounded by the record count on every input.
func (g *Graph) CriticalPath() ([]StepRef, simtime.Duration) {
	src, ok := g.Source()
	if !ok {
		return nil, 0
	}
	var path []StepRef
	cur := StepRef{src.Host, src.Step}
	seen := map[StepRef]bool{}
	budget := uint64(len(g.refs))
	for {
		if seen[cur] {
			break // defensive: malformed records
		}
		seen[cur] = true
		path = append(path, cur)
		rec, recorded := g.Record(cur)
		if cur.Step == 0 {
			break
		}
		if rec.BoundByWait {
			next := StepRef{rec.WaitSrc, rec.WaitStep}
			if _, ok := g.id(next); !ok {
				break
			}
			cur = next
			continue
		}
		next := StepRef{cur.Host, cur.Step - 1}
		if recorded {
			n, ends := g.recordless(next)
			if !ends || n > budget {
				break
			}
			budget -= n
		}
		cur = next
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	first, _ := g.Record(path[0])
	last, _ := g.Record(path[len(path)-1])
	return path, last.End.Sub(first.Start)
}

// TotalTime returns the collective's span: latest end minus earliest start.
func (g *Graph) TotalTime() simtime.Duration {
	var minStart, maxEnd simtime.Time
	for id := range g.refs {
		rec := g.record(id)
		if id == 0 || rec.Start < minStart {
			minStart = rec.Start
		}
		if id == 0 || rec.End > maxEnd {
			maxEnd = rec.End
		}
	}
	return maxEnd.Sub(minStart)
}

// StepCount returns the number of step records in the graph.
func (g *Graph) StepCount() int { return len(g.refs) }

// SlowestSteps returns the n steps with the largest execution time, most
// severe first — a quick triage view the analyzer surfaces alongside the
// critical path.
func (g *Graph) SlowestSteps(n int) []StepRef {
	ids := make([]int, len(g.refs))
	for i := range ids {
		ids[i] = i
	}
	exec := func(id int) simtime.Duration { return g.record(id).End.Sub(g.record(id).Start) }
	// Ids are in (host, step) order already, so a stable sort on the
	// execution time alone breaks ties by (host, step).
	slices.SortStableFunc(ids, func(a, b int) int { return cmp.Compare(exec(b), exec(a)) })
	n = min(n, len(ids))
	refs := make([]StepRef, n)
	for i, id := range ids[:n] {
		refs[i] = g.refs[id]
	}
	return refs
}
