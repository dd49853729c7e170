// Package diagnose is Vedrfolnir's analyzer (§III-D): it combines the
// waiting graph (performance bottleneck, critical flows) with per-step
// network provenance graphs (root causes, contributors) and answers the
// paper's three diagnostic questions — where are the bottlenecks, what is
// the network root cause, and how much does each contending flow matter.
// Anomaly types are matched by signature (§III-D2) and are extensible; the
// built-in set covers the four evaluated scenarios plus the loop and PFC
// deadlock signatures discussed in §II-B/§V.
package diagnose

import (
	"fmt"
	"sort"
	"strings"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/provenance"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/waitgraph"
)

// AnomalyType classifies a finding.
type AnomalyType uint8

// Anomaly types, matching §II-B.
const (
	FlowContention AnomalyType = iota
	Incast
	PFCBackpressure
	PFCStorm
	ForwardingLoop
	PFCDeadlock
)

func (t AnomalyType) String() string {
	switch t {
	case FlowContention:
		return "flow-contention"
	case Incast:
		return "incast"
	case PFCBackpressure:
		return "pfc-backpressure"
	case PFCStorm:
		return "pfc-storm"
	case ForwardingLoop:
		return "forwarding-loop"
	case PFCDeadlock:
		return "pfc-deadlock"
	default:
		return fmt.Sprintf("anomaly(%d)", uint8(t))
	}
}

// Finding is one diagnosed anomaly.
type Finding struct {
	Type AnomalyType
	// Port is where the anomaly manifests (contention port, loop switch
	// port, or the first paused port on a PFC chain).
	Port topo.PortID
	// RootPort is the traced root-cause location for PFC anomalies — the
	// congested/injecting port at the end of the spreading path.
	RootPort topo.PortID
	// Chain is the traced PFC spreading path (upstream → root).
	Chain []topo.PortID
	// Culprits are the non-collective flows implicated, ranked by their
	// contribution to the affected collective flows.
	Culprits []fabric.FlowKey
	// Affected are the collective flows impacted.
	Affected []fabric.FlowKey
	// Injected marks a storm-signature root (pause without congestion).
	Injected bool
	// Confidence is the telemetry-coverage score behind this match: 1 when
	// every poll completed and every visited port answered, lower when the
	// signature was matched against partial telemetry.
	Confidence float64
}

// FlowRating is the Eq. 3 overall contribution of one flow.
type FlowRating struct {
	Flow  fabric.FlowKey
	Score float64
	// Confidence discounts the rating for missing telemetry and missing
	// step records (the Eq. 3 weights lean on both); 1 at full coverage.
	Confidence float64
}

// Coverage quantifies how much of the expected observation the analyzer
// actually received, the basis for all confidence annotations. A healthy
// run scores 1.0 everywhere.
type Coverage struct {
	// PortsPolled counts switch-port records received across all reports;
	// PortsMissed counts visited ports whose response was lost.
	PortsPolled, PortsMissed int
	// ReportsSeen counts telemetry reports received; PollsLost counts
	// detection polls whose round trip never completed.
	ReportsSeen, PollsLost int
	// RecordsSeen counts step records received; RecordsExpected is the
	// scheduled total (0 = unknown, treated as full coverage).
	RecordsSeen, RecordsExpected int
}

// PortScore is the fraction of visited switch ports that answered.
func (c Coverage) PortScore() float64 {
	total := c.PortsPolled + c.PortsMissed
	if total <= 0 {
		return 1
	}
	return float64(c.PortsPolled) / float64(total)
}

// PollScore is the fraction of triggered detections whose poll completed.
func (c Coverage) PollScore() float64 {
	total := c.ReportsSeen + c.PollsLost
	if total <= 0 {
		return 1
	}
	return float64(c.ReportsSeen) / float64(total)
}

// TelemetryScore combines port- and poll-level losses: the share of
// intended network observation that actually reached the analyzer.
func (c Coverage) TelemetryScore() float64 { return c.PortScore() * c.PollScore() }

// StepScore is the fraction of expected step records received (1 when the
// expectation is unknown).
func (c Coverage) StepScore() float64 {
	if c.RecordsExpected <= 0 || c.RecordsSeen >= c.RecordsExpected {
		return 1
	}
	return float64(c.RecordsSeen) / float64(c.RecordsExpected)
}

// Score is the overall diagnosis confidence.
func (c Coverage) Score() float64 { return c.TelemetryScore() * c.StepScore() }

// Diagnosis is the analyzer's structured result.
type Diagnosis struct {
	Findings []Finding
	// CriticalPath is the bottleneck step chain from the waiting graph.
	CriticalPath []waitgraph.StepRef
	// CriticalFlows are the 5-tuples of the steps on the critical path.
	CriticalFlows []fabric.FlowKey
	// Ratings are Eq. 3 scores for every contending flow, highest first.
	Ratings []FlowRating
	// PerCF holds Eq. 2 scores per (contender, collective flow) pair.
	PerCF map[fabric.FlowKey]map[fabric.FlowKey]float64
	// Graph is the aggregate provenance graph used for the findings.
	Graph *provenance.Graph
	// WaitGraph is the built waiting graph.
	WaitGraph *waitgraph.Graph
	// Coverage is the observation completeness behind this diagnosis;
	// Confidence is its overall Score (1 at full coverage).
	Coverage   Coverage
	Confidence float64
}

// Input bundles everything the analyzer consumes.
type Input struct {
	// Records are the host monitors' step reports.
	Records []collective.StepRecord
	// Reports are the retained telemetry reports.
	Reports []*telemetry.Report
	// CFs marks the collective flows (every step's 5-tuple). Every
	// provenance graph of the analysis shares this map: Analyze only reads
	// it, and the caller must not write it while the Diagnosis is in use.
	CFs map[fabric.FlowKey]bool
	// StepOf maps a collective flow to its (host, step); nil disables
	// per-step provenance graphs (everything lands in one graph). A caller
	// that has only the records derives it with StepOfRecords.
	StepOf func(fabric.FlowKey) (waitgraph.StepRef, bool)
	// Expected returns a step's expected execution time for the Eq. 3
	// weights. When nil, the minimum observed execution time of the same
	// step index across hosts is used (the unimpeded hosts' time).
	Expected func(waitgraph.StepRef) simtime.Duration
	// MinCulpritScore suppresses contenders whose Eq. 2 score against
	// every affected CF is at or below this value (filters ACK-scale
	// noise). Zero keeps everything with a positive score.
	MinCulpritScore float64
	// IncastFanIn is the minimum number of same-destination culprits at
	// one port to classify the contention as incast (default 3).
	IncastFanIn int
	// RecordsExpected is the scheduled step-record total (0 = unknown)
	// and PollsLost the number of detections whose poll round trip never
	// completed; both feed the confidence annotations.
	RecordsExpected int
	PollsLost       int
	// Obs, when set, receives per-phase trace instants (at sim time ObsAt,
	// the analysis point — typically the collective's completion time) and
	// pipeline metrics. The nil default records nothing.
	Obs   *obs.Scope
	ObsAt simtime.Time
	// Stages, when set, records wall-time stage histograms around the
	// pipeline phases (perf observability); nil records nothing and the
	// diagnosis is identical either way.
	Stages *obs.Stages
}

// StepOfRecords returns the Input.StepOf resolver a record set implies:
// each record's flow maps to its (host, step), a later record of the same
// flow replacing an earlier one.
func StepOfRecords(records []collective.StepRecord) func(fabric.FlowKey) (waitgraph.StepRef, bool) {
	index := make(map[fabric.FlowKey]waitgraph.StepRef, len(records))
	for _, rec := range records {
		index[rec.Flow] = waitgraph.StepRef{Host: rec.Host, Step: rec.Step}
	}
	return func(f fabric.FlowKey) (waitgraph.StepRef, bool) {
		ref, ok := index[f]
		return ref, ok
	}
}

// Analyze runs the full §III-D pipeline.
func Analyze(in Input) *Diagnosis {
	d := &Diagnosis{PerCF: map[fabric.FlowKey]map[fabric.FlowKey]float64{}}
	tr := in.Obs.T()
	tWait := in.Stages.WaitgraphTimer()
	tRate := in.Stages.ProvenanceTimer()
	tAll := in.Stages.DiagnoseTimer()
	tDiag0 := tAll.Begin()

	// 1. Waiting graph → bottleneck and critical flows, on a goroutine: it
	// reads only the records, and step 2 only the reports and CFs, so the
	// two run at once and join before step 3, which reads both (DESIGN §8).
	// A panic there is raised again here, where it always surfaced.
	waited := make(chan any, 1)
	go func() {
		defer func() { waited <- recover() }()
		tWait0 := tWait.Begin()
		d.WaitGraph = waitgraph.Build(in.Records)
		d.CriticalPath, _ = d.WaitGraph.CriticalPath()
		tWait.End(tWait0)
		for _, ref := range d.CriticalPath {
			if rec, ok := d.WaitGraph.Record(ref); ok {
				d.CriticalFlows = append(d.CriticalFlows, rec.Flow)
			}
		}
	}()

	// 2. Provenance graph → signature findings. The aggregate graph is one
	// build over every report; the per-step graphs of §III-D1 are built in
	// the rating phase, for the critical-path steps that read them.
	tRate0 := tRate.Begin()
	d.Graph = provenance.Build(in.Reports, in.CFs)
	d.Findings = findAnomalies(d.Graph, in)
	tJoin0 := tRate.Begin()
	if p := <-waited; p != nil {
		//lint:ignore nopanic re-raises the waiting graph's panic on the caller's goroutine, as before it had one
		panic(p)
	}
	tRate0 += tRate.Begin() - tJoin0 // the wait for step 1 is step 1's time
	tr.Instant(obs.PidAnalyzer, 0, "phase", "waitgraph", in.ObsAt,
		obs.I("records", int64(len(in.Records))),
		obs.I("critical_steps", int64(len(d.CriticalPath))))
	var provEdges, provPorts int64
	if in.Obs.Enabled() {
		provEdges = provenanceEdges(d.Graph)
		provPorts = int64(len(d.Graph.Ports()))
	}
	tr.Instant(obs.PidAnalyzer, 0, "phase", "provenance", in.ObsAt,
		obs.I("reports", int64(len(in.Reports))),
		obs.I("ports", provPorts),
		obs.I("edges", provEdges),
		obs.I("findings", int64(len(d.Findings))))

	// 3. Contributor rating (Eqs. 2 and 3).
	d.rate(in)
	tRate.End(tRate0)
	tr.Instant(obs.PidAnalyzer, 0, "phase", "rate", in.ObsAt,
		obs.I("ratings", int64(len(d.Ratings))))

	// 4. Confidence: score the observation coverage and annotate every
	// finding and rating with it, so a diagnosis built from partial
	// telemetry says so instead of presenting as fully informed.
	d.Coverage = Coverage{
		RecordsSeen:     len(in.Records),
		RecordsExpected: in.RecordsExpected,
		ReportsSeen:     len(in.Reports),
		PollsLost:       in.PollsLost,
	}
	for _, rep := range in.Reports {
		d.Coverage.PortsPolled += len(rep.Ports)
		d.Coverage.PortsMissed += rep.PortsMissed
	}
	d.Confidence = d.Coverage.Score()
	telem := d.Coverage.TelemetryScore()
	for i := range d.Findings {
		d.Findings[i].Confidence = telem
	}
	for i := range d.Ratings {
		d.Ratings[i].Confidence = d.Confidence
	}
	tr.Instant(obs.PidAnalyzer, 0, "phase", "confidence", in.ObsAt,
		obs.I("confidence_permille", int64(d.Confidence*1000)),
		obs.I("ports_polled", int64(d.Coverage.PortsPolled)),
		obs.I("polls_lost", int64(d.Coverage.PollsLost)))

	if m := in.Obs.M(); m != nil {
		m.Counter("vedr_diagnose_findings_total", "anomaly findings produced").Add(int64(len(d.Findings)))
		m.Counter("vedr_diagnose_ratings_total", "Eq. 3 flow ratings produced").Add(int64(len(d.Ratings)))
		m.Counter("vedr_provenance_edges_total", "flow-port and PFC edges in the aggregate provenance graph").Add(provEdges)
		m.Gauge("vedr_diagnose_confidence_permille", "overall diagnosis confidence ×1000").Set(int64(d.Confidence * 1000))
	}
	tAll.End(tDiag0)
	return d
}

// provenanceEdges counts the aggregate graph's e(f,p) and e(p_i,p_j)
// edges — the "how much structure did the analyzer see" metric.
func provenanceEdges(g *provenance.Graph) int64 {
	var edges int64
	for _, p := range g.Ports() {
		for _, f := range g.FlowsAt(p) {
			if g.HasFlowPortEdge(f, p) {
				edges++
			}
		}
	}
	for _, p := range g.PFCUpstreams() {
		edges += int64(len(g.PFCOut(p)))
	}
	return edges
}

// findAnomalies applies the signature set of §III-D2 to the provenance
// graph.
func findAnomalies(g *provenance.Graph, in Input) []Finding {
	var out []Finding
	fanIn := in.IncastFanIn
	if fanIn <= 0 {
		fanIn = 3
	}

	// Flow contention / incast: ∃p with e(f_i,p) ∧ e(cf,p), f_i ≠ cf.
	for _, p := range g.Ports() {
		var cfs, others []fabric.FlowKey
		for _, f := range g.FlowsAt(p) {
			if !g.HasFlowPortEdge(f, p) {
				continue
			}
			if g.IsCF(f) {
				cfs = append(cfs, f)
			} else {
				others = append(others, f)
			}
		}
		if len(cfs) == 0 || len(others) == 0 {
			continue
		}
		f := Finding{Type: FlowContention, Port: p, Culprits: others, Affected: cfs}
		// Incast refinement: several culprits converging on one target.
		if len(others) >= fanIn {
			dst := others[0].Dst
			same := true
			for _, o := range others[1:] {
				if o.Dst != dst {
					same = false
					break
				}
			}
			if same {
				f.Type = Incast
			}
		}
		out = append(out, f)
	}

	// PFC backpressure / storm: ∃p: e(cf,p) ∧ ∃p_j: e(p,p_j); follow the
	// spreading path to the root. A collective flow "waits at" p when it
	// queued there, or when p is its own source NIC held by a pause (a
	// storm on a host uplink leaves no switch telemetry at p). Collecting
	// those sources is the analysis's one pass over the census, made only
	// when there are pause edges to explain.
	upstreams := g.PFCUpstreams()
	cfSources := map[topo.NodeID]bool{}
	if len(upstreams) > 0 {
		for cf := range in.CFs {
			cfSources[cf.Src] = true
		}
	}
	seenRoot := map[topo.PortID]bool{}
	for _, p := range upstreams {
		// Every flow with e(f, p) was observed at p, so FlowsAt(p) holds
		// all the collective flows waiting there, already in flow order.
		var waiting []fabric.FlowKey
		for _, f := range g.FlowsAt(p) {
			if g.IsCF(f) && g.HasFlowPortEdge(f, p) {
				waiting = append(waiting, f)
			}
		}
		if (len(waiting) == 0 && !cfSources[p.Node]) || len(g.PFCOut(p)) == 0 {
			continue
		}
		chain, root := tracePFC(g, p)
		if seenRoot[root] {
			continue
		}
		seenRoot[root] = true
		f := Finding{
			Type:     PFCBackpressure,
			Port:     p,
			RootPort: root,
			Chain:    chain,
			Injected: g.InjectedCause(root),
			Affected: waiting,
		}
		if f.Injected {
			f.Type = PFCStorm
		}
		// Flows feeding the root port are the candidate culprits.
		for _, fl := range g.FlowsAt(root) {
			if !g.IsCF(fl) {
				f.Culprits = append(f.Culprits, fl)
			}
		}
		out = append(out, f)
	}

	// PFC deadlock: a cycle in the port-wait graph.
	if cyc := findPFCCycle(g); len(cyc) > 0 {
		out = append(out, Finding{Type: PFCDeadlock, Port: cyc[0], Chain: cyc})
	}

	// Forwarding loop: TTL drops at a switch.
	loops := map[topo.NodeID]int64{}
	for _, rep := range in.Reports {
		for sw, n := range rep.TTLDrops {
			loops[sw] += n
		}
	}
	var loopSwitches []topo.NodeID
	for sw := range loops {
		loopSwitches = append(loopSwitches, sw)
	}
	sort.Slice(loopSwitches, func(i, j int) bool { return loopSwitches[i] < loopSwitches[j] })
	for _, sw := range loopSwitches {
		out = append(out, Finding{Type: ForwardingLoop, Port: topo.PortID{Node: sw, Port: -1}})
	}
	return out
}

// tracePFC follows e(p, p_j) edges to the end of the spreading path,
// choosing the heaviest-weighted branch at forks. It returns the visited
// chain (excluding p) and the root.
func tracePFC(g *provenance.Graph, p topo.PortID) (chain []topo.PortID, root topo.PortID) {
	cur := p
	visited := map[topo.PortID]bool{cur: true}
	for {
		outs := g.PFCOut(cur)
		var next topo.PortID
		best := -1.0
		found := false
		for _, pj := range outs {
			if visited[pj] {
				continue
			}
			if w := g.WPortPort(cur, pj); w > best {
				best, next, found = w, pj, true
			}
		}
		if !found {
			return chain, cur
		}
		visited[next] = true
		chain = append(chain, next)
		cur = next
	}
}

// findPFCCycle returns one cycle of the e(p_i, p_j) relation, if any.
func findPFCCycle(g *provenance.Graph) []topo.PortID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[topo.PortID]int{}
	var stack []topo.PortID
	var cycle []topo.PortID
	var dfs func(p topo.PortID) bool
	dfs = func(p topo.PortID) bool {
		color[p] = gray
		stack = append(stack, p)
		for _, q := range g.PFCOut(p) {
			switch color[q] {
			case gray:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == q {
						break
					}
				}
				return true
			case white:
				if dfs(q) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[p] = black
		return false
	}
	for _, p := range g.Ports() {
		if color[p] == white && dfs(p) {
			return cycle
		}
	}
	return nil
}

// groupReports splits reports by the step whose flow triggered them (per
// StepOf); reports no step claims are in no group.
func groupReports(in Input) map[waitgraph.StepRef][]*telemetry.Report {
	byStep := map[waitgraph.StepRef][]*telemetry.Report{}
	if in.StepOf == nil {
		return byStep
	}
	for _, rep := range in.Reports {
		if ref, ok := in.StepOf(rep.TriggeredBy); ok {
			byStep[ref] = append(byStep[ref], rep)
		}
	}
	return byStep
}

// rate scores contributors: Eq. 2 per (contender, cf) on each critical
// step's own provenance graph, folded into the Eq. 3 overall score by
// weighting each step with its share of the total slowdown. Only
// critical-path steps with positive slowdown are rated, so only they get a
// per-step graph, built from the reports their flow triggered; a step
// without reports of its own falls back to the aggregate graph (it still
// witnesses the anomaly even when another host's monitor collected it).
func (d *Diagnosis) rate(in Input) {
	expected := in.Expected
	if expected == nil {
		expected = minExecExpectation(in.Records)
	}

	// Slowdown weights over the critical path.
	type stepCtx struct {
		cf         fabric.FlowKey
		slow       simtime.Duration
		graph      *provenance.Graph
		contenders []fabric.FlowKey
	}
	byStep := groupReports(in)
	var steps []stepCtx
	var totalSlow simtime.Duration
	// Every step without reports of its own rates against the aggregate
	// graph, so its contender set is computed once and shared.
	var shared []fabric.FlowKey
	sharedDone := false
	for _, ref := range d.CriticalPath {
		rec, ok := d.WaitGraph.Record(ref)
		if !ok {
			continue
		}
		slow := rec.End.Sub(rec.Start) - expected(ref)
		if slow <= 0 {
			continue
		}
		sc := stepCtx{cf: rec.Flow, slow: slow, graph: d.Graph}
		if group := byStep[ref]; len(group) > 0 {
			sc.graph = provenance.Build(group, in.CFs)
			sc.contenders = sc.graph.Contenders()
		} else if len(in.Reports) == 0 {
			continue
		} else {
			if !sharedDone {
				shared, sharedDone = d.Graph.Contenders(), true
			}
			sc.contenders = shared
		}
		steps = append(steps, sc)
		totalSlow += slow
	}
	if totalSlow == 0 {
		return
	}

	scores := map[fabric.FlowKey]float64{}
	for _, sc := range steps {
		w := float64(sc.slow) / float64(totalSlow)
		for _, fa := range sc.contenders {
			r := sc.graph.RateFlowCF(fa, sc.cf)
			if r <= in.MinCulpritScore {
				continue
			}
			scores[fa] += r * w
			inner := d.PerCF[fa]
			if inner == nil {
				inner = map[fabric.FlowKey]float64{}
				d.PerCF[fa] = inner
			}
			inner[sc.cf] += r
		}
	}
	for f, s := range scores {
		d.Ratings = append(d.Ratings, FlowRating{Flow: f, Score: s})
	}
	sort.Slice(d.Ratings, func(i, j int) bool {
		if d.Ratings[i].Score > d.Ratings[j].Score {
			return true
		}
		if d.Ratings[i].Score < d.Ratings[j].Score {
			return false
		}
		return d.Ratings[i].Flow.String() < d.Ratings[j].Flow.String()
	})
}

// minExecExpectation builds the default expected-time oracle: the minimum
// execution time observed for each step index across hosts.
func minExecExpectation(records []collective.StepRecord) func(waitgraph.StepRef) simtime.Duration {
	minByStep := map[int]simtime.Duration{}
	for _, rec := range records {
		d := rec.End.Sub(rec.Start)
		if cur, ok := minByStep[rec.Step]; !ok || d < cur {
			minByStep[rec.Step] = d
		}
	}
	return func(ref waitgraph.StepRef) simtime.Duration { return minByStep[ref.Step] }
}

// Culprits returns the union of culprit flows over all findings,
// deterministically ordered.
func (d *Diagnosis) Culprits() []fabric.FlowKey {
	seen := map[fabric.FlowKey]bool{}
	var out []fabric.FlowKey
	for _, f := range d.Findings {
		for _, c := range f.Culprits {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// RootPorts returns the traced PFC root-cause ports.
func (d *Diagnosis) RootPorts() []topo.PortID {
	var out []topo.PortID
	seen := map[topo.PortID]bool{}
	for _, f := range d.Findings {
		if f.Type != PFCBackpressure && f.Type != PFCStorm {
			continue
		}
		if !seen[f.RootPort] {
			seen[f.RootPort] = true
			out = append(out, f.RootPort)
		}
	}
	return out
}

// HasType reports whether any finding has the given type.
func (d *Diagnosis) HasType(t AnomalyType) bool {
	for _, f := range d.Findings {
		if f.Type == t {
			return true
		}
	}
	return false
}

// Summary renders the structured diagnostic result.
func (d *Diagnosis) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%d steps):", len(d.CriticalPath))
	for _, ref := range d.CriticalPath {
		fmt.Fprintf(&b, " F%dS%d", ref.Host, ref.Step)
	}
	b.WriteString("\n")
	for _, f := range d.Findings {
		fmt.Fprintf(&b, "%s at %v", f.Type, f.Port)
		if f.Type == PFCBackpressure || f.Type == PFCStorm {
			fmt.Fprintf(&b, " root=%v chain=%v", f.RootPort, f.Chain)
		}
		if len(f.Culprits) > 0 {
			fmt.Fprintf(&b, " culprits=%v", f.Culprits)
		}
		if f.Confidence < 1 {
			fmt.Fprintf(&b, " conf=%.2f", f.Confidence)
		}
		b.WriteString("\n")
	}
	for _, r := range d.Ratings {
		fmt.Fprintf(&b, "rating %v = %.0f", r.Flow, r.Score)
		if r.Confidence < 1 {
			fmt.Fprintf(&b, " conf=%.2f", r.Confidence)
		}
		b.WriteString("\n")
	}
	if d.Confidence < 1 {
		c := d.Coverage
		fmt.Fprintf(&b, "confidence %.2f (ports %d/%d, polls %d lost, steps %d/%d)\n",
			d.Confidence, c.PortsPolled, c.PortsPolled+c.PortsMissed,
			c.PollsLost, c.RecordsSeen, c.RecordsExpected)
	}
	return b.String()
}
