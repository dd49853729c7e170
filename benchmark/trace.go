package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vedrfolnir/internal/obs"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation (a case, a diagnose iteration, a message) share Op; Parent is
// the ID of the span that caused this one, or -1.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Layer  string           `json:"layer"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass runs the same code without the cost.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name, Start: t.now()})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count attaches work counts measured at the span's boundary.
func (t *tracer) count(id int, counts map[string]int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Counts = counts
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time and counts spans per "layer.name".
func (t *tracer) selfByName() (selfNS map[string]int64, calls map[string]int64) {
	selfNS, calls = map[string]int64{}, map[string]int64{}
	if t == nil {
		return selfNS, calls
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		key := s.Layer + "." + s.Name
		selfNS[key] += self[i]
		calls[key]++
	}
	return selfNS, calls
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Hot-path stages reachable through scenario.RunOptions.Stages, plus the
// remainder of a case's run that none of them covers.
const (
	stPush = iota
	stPop
	stForward
	stCollect
	stWaitgraph
	stProvenance
	stDiagnose
	stUnattributed
	numStages
)

// stageClock turns the product's obs.Stages hook into exclusive per-stage
// self times without touching the product: every stage timer is given its
// own clock function, so each Begin/End read tells the clock which stage
// is opening or closing. The time since the previous read is charged to
// the innermost open stage (an event push issued from inside a forwarding
// decision counts as push, not forward), or to stUnattributed when none is
// open. Every nanosecond between start and stop is therefore charged
// exactly once and the stage self times sum to the run's duration.
//
// One clock serves one case on one goroutine.
type stageClock struct {
	base  time.Time
	last  int64
	stack []int
	open  [numStages]bool
	self  [numStages]int64
	calls [numStages]int64
}

// stageHists are the histograms obs.NewTimer insists on; their contents
// are not read.
type stageHists [stUnattributed]*obs.Histogram

func newStageHists() stageHists {
	reg := obs.NewRegistry()
	var hs stageHists
	for i := range hs {
		hs[i] = reg.Histogram(fmt.Sprintf("bench_stage_%d_ns", i), "stage wall time (ns)", obs.WallBuckets())
	}
	return hs
}

func (c *stageClock) tick() int64 {
	t := int64(time.Since(c.base))
	top := stUnattributed
	if n := len(c.stack); n > 0 {
		top = c.stack[n-1]
	}
	c.self[top] += t - c.last
	c.last = t
	return t
}

// start begins charging; stop charges the tail to whatever is open.
func (c *stageClock) start() {
	c.base = time.Now()
	c.last = 0
}

func (c *stageClock) stop() int64 { return c.tick() }

// read is the clock function handed to stage st's timer. Stage timers
// read it in strict Begin/End alternation and never nest in themselves.
func (c *stageClock) read(st int) func() int64 {
	return func() int64 {
		t := c.tick()
		if c.open[st] {
			c.open[st] = false
			if n := len(c.stack); n > 0 {
				c.stack = c.stack[:n-1]
			}
		} else {
			c.open[st] = true
			c.calls[st]++
			c.stack = append(c.stack, st)
		}
		return t
	}
}

// stages builds the obs.Stages bundle whose timers read this clock.
func (c *stageClock) stages(hs stageHists) *obs.Stages {
	return &obs.Stages{
		EventPush:        obs.NewTimer(hs[stPush], c.read(stPush)),
		EventPop:         obs.NewTimer(hs[stPop], c.read(stPop)),
		FabricForward:    obs.NewTimer(hs[stForward], c.read(stForward)),
		TelemetryCollect: obs.NewTimer(hs[stCollect], c.read(stCollect)),
		WaitgraphBuild:   obs.NewTimer(hs[stWaitgraph], c.read(stWaitgraph)),
		ProvenanceRate:   obs.NewTimer(hs[stProvenance], c.read(stProvenance)),
		Diagnose:         obs.NewTimer(hs[stDiagnose], c.read(stDiagnose)),
	}
}
