package waitgraph

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// mkrec builds a step record with µs timestamps.
func mkrec(host topo.NodeID, step int, startUS, endUS int64, waitSrc topo.NodeID, bound bool) collective.StepRecord {
	ws := step - 1
	if ws < 0 {
		ws = 0
	}
	return collective.StepRecord{
		Host:        host,
		Step:        step,
		Start:       simtime.Time(startUS * int64(time.Microsecond)),
		End:         simtime.Time(endUS * int64(time.Microsecond)),
		WaitSrc:     waitSrc,
		WaitStep:    ws,
		BoundByWait: bound,
	}
}

// ring4 builds a synthetic 4-host, 2-step ring where host 2's step 0 is slow
// (0→50µs instead of 0→10µs), making its right neighbour (host 3) wait.
func ring4() []collective.StepRecord {
	left := func(i topo.NodeID) topo.NodeID { return (i + 3) % 4 }
	var recs []collective.StepRecord
	// Step 0: all start at 0. Host 2 is slow.
	for i := topo.NodeID(0); i < 4; i++ {
		end := int64(10)
		if i == 2 {
			end = 50
		}
		recs = append(recs, mkrec(i, 0, 0, end, topo.None, false))
	}
	// Step 1: host 3 is bound by host 2's late data; others follow their
	// own step 0.
	for i := topo.NodeID(0); i < 4; i++ {
		start, end := int64(10), int64(20)
		bound := false
		if i == 3 {
			start, end, bound = 50, 60, true
		}
		recs = append(recs, mkrec(i, 1, start, end, left(i), bound))
	}
	return recs
}

func TestBuildShape(t *testing.T) {
	g := Build(ring4())
	if g.StepCount() != 8 {
		t.Fatalf("records = %d, want 8", g.StepCount())
	}
	// 8 steps → 16 vertices; 8 exec edges + 4 prev + 4 data = 16 edges.
	if got := len(g.Vertices()); got != 16 {
		t.Fatalf("vertices = %d, want 16", got)
	}
	execN, prevN, dataN := 0, 0, 0
	for _, e := range g.Edges() {
		switch e.Kind {
		case EdgeExec:
			execN++
			if e.From.Kind != End || e.To.Kind != Start {
				t.Fatalf("exec edge direction wrong: %v -> %v", e.From, e.To)
			}
		case EdgePrev:
			prevN++
		case EdgeData:
			dataN++
		}
	}
	if execN != 8 || prevN != 4 || dataN != 4 {
		t.Fatalf("edges exec/prev/data = %d/%d/%d, want 8/4/4", execN, prevN, dataN)
	}
}

func TestExecWeights(t *testing.T) {
	g := Build(ring4())
	for _, e := range g.Edges() {
		if e.Kind != EdgeExec {
			if e.Weight != 0 {
				t.Fatalf("non-exec edge has weight %v", e.Weight)
			}
			continue
		}
		rec, _ := g.Record(StepRef{e.From.Host, e.From.Step})
		if e.Weight != rec.End.Sub(rec.Start) {
			t.Fatalf("exec weight %v != duration %v", e.Weight, rec.End.Sub(rec.Start))
		}
	}
}

func TestSource(t *testing.T) {
	g := Build(ring4())
	src, ok := g.Source()
	if !ok {
		t.Fatal("no source")
	}
	if src.Host != 3 || src.Step != 1 || src.Kind != End {
		t.Fatalf("source = %v, want F3S1.end", src)
	}
}

func TestCriticalPath(t *testing.T) {
	g := Build(ring4())
	path, span := g.CriticalPath()
	// Host 3's step 1 was bound by host 2's slow step 0.
	want := []StepRef{{2, 0}, {3, 1}}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if span != 60*time.Microsecond {
		t.Fatalf("span = %v, want 60µs", span)
	}
}

func TestCriticalPathWithoutAnomaly(t *testing.T) {
	// Homogeneous ring: nothing bound by waits; the path is one flow's
	// own chain of steps.
	var recs []collective.StepRecord
	for i := topo.NodeID(0); i < 4; i++ {
		recs = append(recs, mkrec(i, 0, 0, 10, topo.None, false))
		recs = append(recs, mkrec(i, 1, 10, 20, (i+3)%4, false))
	}
	g := Build(recs)
	path, span := g.CriticalPath()
	if len(path) != 2 {
		t.Fatalf("path = %v", path)
	}
	if path[0].Host != path[1].Host {
		t.Fatalf("unbound path should stay on one flow: %v", path)
	}
	if span != 20*time.Microsecond {
		t.Fatalf("span = %v, want 20µs", span)
	}
}

func TestPrune(t *testing.T) {
	g := Build(ring4())
	before := len(g.Vertices())
	removed := g.Prune()
	if removed == 0 {
		t.Fatalf("expected pruning to remove unwaited vertices")
	}
	after := len(g.Vertices())
	if after+removed != before {
		t.Fatalf("vertex accounting: %d + %d != %d", after, removed, before)
	}
	// The source must survive.
	if src, ok := g.Source(); !ok {
		t.Fatal("source vanished")
	} else if !contains(g.Vertices(), src) {
		t.Fatalf("source %v pruned", src)
	}
	// Critical-path steps' vertices must survive: they are waited on.
	path, _ := g.CriticalPath()
	for _, ref := range path {
		if !contains(g.Vertices(), Vertex{ref.Host, ref.Step, End}) {
			t.Fatalf("critical vertex F%dS%d.end pruned", ref.Host, ref.Step)
		}
	}
	// Pruning twice removes nothing more... pruning is idempotent.
	if again := g.Prune(); again != 0 {
		t.Fatalf("second prune removed %d", again)
	}
}

func contains(vs []Vertex, v Vertex) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func TestTotalTime(t *testing.T) {
	g := Build(ring4())
	if got := g.TotalTime(); got != 60*time.Microsecond {
		t.Fatalf("TotalTime = %v, want 60µs", got)
	}
}

func TestSlowestSteps(t *testing.T) {
	g := Build(ring4())
	top := g.SlowestSteps(1)
	if len(top) != 1 || top[0] != (StepRef{2, 0}) {
		t.Fatalf("slowest = %v, want [{2 0}]", top)
	}
	all := g.SlowestSteps(100)
	if len(all) != 8 {
		t.Fatalf("SlowestSteps(100) = %d entries, want 8", len(all))
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Build(nil)
	if _, ok := g.Source(); ok {
		t.Fatal("empty graph has a source")
	}
	if path, span := g.CriticalPath(); path != nil || span != 0 {
		t.Fatalf("empty critical path = %v/%v", path, span)
	}
	if g.Prune() != 0 {
		t.Fatal("pruned something from empty graph")
	}
}

// ringRecords is a ranks-host Ring AllGather of ranks-1 steps in the order
// a runner reports it (completion order), each step gated by the later of
// its flow's previous step and its left neighbour's, BoundByWait set when
// the neighbour's data arrived last.
func ringRecords(ranks int) []collective.StepRecord {
	steps := ranks - 1
	end := make([][]simtime.Time, ranks)
	var recs []collective.StepRecord
	for h := range end {
		end[h] = make([]simtime.Time, steps)
	}
	for s := 0; s < steps; s++ {
		for h := 0; h < ranks; h++ {
			rec := collective.StepRecord{Host: topo.NodeID(h), Step: s, WaitSrc: topo.None}
			if s > 0 {
				left := (h + ranks - 1) % ranks
				rec.WaitSrc, rec.WaitStep = topo.NodeID(left), s-1
				rec.Start = end[h][s-1]
				if end[left][s-1] >= rec.Start {
					rec.Start, rec.BoundByWait = end[left][s-1], true
				}
			}
			rec.End = rec.Start.Add(simtime.Duration(900 + (h*7+s*13)%200))
			end[h][s] = rec.End
			recs = append(recs, rec)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End < recs[j].End })
	return recs
}

// TestBuildAllocsConstant: Build allocates a fixed number of slices
// whatever the record count. A count that grows with the records means
// per-vertex maps or slices have crept back.
func TestBuildAllocsConstant(t *testing.T) {
	small, large := ringRecords(32), ringRecords(128) // 992 and 16 256 records
	// The runtime allocates a little after a collection, which 3 MB Builds
	// would trigger; with the collector off every count is Build's own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a1 := testing.AllocsPerRun(5, func() { Build(small) })
	a16 := testing.AllocsPerRun(5, func() { Build(large) })
	t.Logf("allocs per Build: %.0f at %d records, %.0f at %d", a1, len(small), a16, len(large))
	if int(a1) != int(a16) { // whole numbers: AllocsPerRun divides integers
		t.Fatalf("allocs per Build grew from %.0f at %d records to %.0f at %d", a1, len(small), a16, len(large))
	}
}

// TestBuildHostileIDs: ids at the ends of their ranges build a graph like
// any other, and memory follows the record count, not the id values, so a
// bundle or daemon client cannot make the analyzer allocate by choosing ids.
func TestBuildHostileIDs(t *testing.T) {
	const n = 4096
	hosts := []topo.NodeID{math.MinInt32, math.MaxInt32, topo.None, -2}
	steps := []int{1 << 62, -(1 << 62), math.MaxInt, math.MinInt}
	recs := make([]collective.StepRecord, n)
	for i := range recs {
		recs[i] = collective.StepRecord{
			Host:     hosts[i%len(hosts)],
			Step:     steps[i/len(hosts)%len(steps)] + i/16*(i%2*2-1),
			Start:    simtime.Time(i),
			End:      simtime.Time(i + 10),
			WaitSrc:  hosts[(i+1)%len(hosts)],
			WaitStep: steps[(i+1)%len(steps)],
		}
	}
	g := Build(recs)
	if g.StepCount() == 0 || len(g.Vertices()) != 2*g.StepCount() {
		t.Fatalf("%d steps, %d vertices", g.StepCount(), len(g.Vertices()))
	}
	if _, ok := g.Source(); !ok {
		t.Fatal("no source")
	}
	g.Edges()
	g.SlowestSteps(n)
	g.Prune()

	bytesPerBuild := func(recs []collective.StepRecord) float64 {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Build(recs)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	hostile, benign := bytesPerBuild(recs), bytesPerBuild(ringRecords(65)[:n])
	t.Logf("bytes per Build of %d records: %.0f hostile, %.0f benign", n, hostile, benign)
	if hostile > 1.5*benign || hostile > 512*n {
		t.Fatalf("hostile ids cost %.0f B per Build of %d records, benign ones %.0f B", hostile, n, benign)
	}
}

// TestCriticalPathHostileSteps: a source record at step -1, or at 1<<40
// with nothing below it on its flow, used to send the walk down
// record-less steps without end (or for 10^12 steps), growing the path
// as it went — a hang any bundle or daemon client could cause. The walk
// now ends at the source, at once, with a handful of allocations.
func TestCriticalPathHostileSteps(t *testing.T) {
	for _, step := range []int{-1, 1 << 40} {
		recs := append(ring4(), mkrec(9, step, 0, 1000, topo.None, false)) // the latest End: the source
		g := Build(recs)
		done := make(chan []StepRef, 1)
		go func() {
			path, _ := g.CriticalPath()
			done <- path
		}()
		select {
		case path := <-done:
			if len(path) != 1 || path[0] != (StepRef{9, step}) {
				t.Errorf("step %d: path = %v, want the source alone", step, path)
			}
		//lint:ignore nosystime bounding a walk that used to hang, not simulated time
		case <-time.After(time.Second):
			t.Fatalf("step %d: CriticalPath still walking after a second", step)
		}
		if allocs := testing.AllocsPerRun(20, func() { g.CriticalPath() }); allocs > float64(len(recs)) {
			t.Errorf("step %d: %.0f allocs per walk over %d records", step, allocs, len(recs))
		}
	}
}

func TestUnorderedRecords(t *testing.T) {
	recs := ring4()
	// Shuffle deterministically: reverse.
	for i, j := 0, len(recs)-1; i < j; i, j = i+1, j-1 {
		recs[i], recs[j] = recs[j], recs[i]
	}
	g := Build(recs)
	path, _ := g.CriticalPath()
	if len(path) != 2 || path[0] != (StepRef{2, 0}) {
		t.Fatalf("order-sensitivity: path = %v", path)
	}
}
