package diagnose

import (
	"sort"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/provenance"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/waitgraph"
)

// AnalyzeReference is the analyzer's original formula, kept as the
// reference the equivalence tests hold Analyze to: one provenance graph
// per report group up front (every group, on or off the critical path,
// plus one for the reports no step claims), the aggregate accumulated
// group by group in sorted step order, and the rating phase reading a map
// of the prebuilt step graphs. The aggregate here is one Build over the
// reports re-ordered group by group — provenance's partition-invariance
// test covers the remaining link, that merging the per-group graphs is
// content-equal to that build.
func AnalyzeReference(in Input) *Diagnosis {
	d := &Diagnosis{PerCF: map[fabric.FlowKey]map[fabric.FlowKey]float64{}}
	d.WaitGraph = waitgraph.Build(in.Records)
	d.CriticalPath, _ = d.WaitGraph.CriticalPath()
	for _, ref := range d.CriticalPath {
		if rec, ok := d.WaitGraph.Record(ref); ok {
			d.CriticalFlows = append(d.CriticalFlows, rec.Flow)
		}
	}

	byStep := map[waitgraph.StepRef][]*telemetry.Report{}
	var ungrouped []*telemetry.Report
	for _, rep := range in.Reports {
		if in.StepOf != nil {
			if ref, ok := in.StepOf(rep.TriggeredBy); ok {
				byStep[ref] = append(byStep[ref], rep)
				continue
			}
		}
		ungrouped = append(ungrouped, rep)
	}
	refs := make([]waitgraph.StepRef, 0, len(byStep))
	for ref := range byStep {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Host != refs[j].Host {
			return refs[i].Host < refs[j].Host
		}
		return refs[i].Step < refs[j].Step
	})
	stepGraphs := map[waitgraph.StepRef]*provenance.Graph{}
	var regrouped []*telemetry.Report
	for _, ref := range refs {
		stepGraphs[ref] = provenance.Build(byStep[ref], in.CFs)
		regrouped = append(regrouped, byStep[ref]...)
	}
	regrouped = append(regrouped, ungrouped...)
	d.Graph = provenance.Build(regrouped, in.CFs)
	d.Findings = findAnomalies(d.Graph, in)

	rateReference(d, in, stepGraphs)

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
	for i := range d.Findings {
		d.Findings[i].Confidence = d.Coverage.TelemetryScore()
	}
	for i := range d.Ratings {
		d.Ratings[i].Confidence = d.Confidence
	}
	return d
}

// rateReference is the original rating phase over prebuilt step graphs.
func rateReference(d *Diagnosis, in Input, stepGraphs map[waitgraph.StepRef]*provenance.Graph) {
	expected := in.Expected
	if expected == nil {
		expected = minExecExpectation(in.Records)
	}
	type stepCtx struct {
		cf    fabric.FlowKey
		slow  simtime.Duration
		graph *provenance.Graph
	}
	var steps []stepCtx
	var totalSlow simtime.Duration
	for _, ref := range d.CriticalPath {
		rec, ok := d.WaitGraph.Record(ref)
		if !ok {
			continue
		}
		slow := rec.End.Sub(rec.Start) - expected(ref)
		if slow <= 0 {
			continue
		}
		g := stepGraphs[ref]
		if g == nil {
			if len(in.Reports) == 0 {
				continue
			}
			g = d.Graph
		}
		steps = append(steps, stepCtx{cf: rec.Flow, slow: slow, graph: g})
		totalSlow += slow
	}
	if totalSlow == 0 {
		return
	}
	scores := map[fabric.FlowKey]float64{}
	for _, sc := range steps {
		w := float64(sc.slow) / float64(totalSlow)
		for _, fa := range sc.graph.Contenders() {
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
