package wire

import (
	"bytes"
	"encoding/json"
	"io"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/telemetry"
)

// Bundle is a complete diagnosis input set in exchange form: everything the
// analyzer needs to reproduce a diagnosis offline (cmd/vedranalyze) or on
// another machine.
type Bundle struct {
	Records []StepRecord `json:"records"`
	Reports []Report     `json:"reports"`
	CFs     []Flow       `json:"cfs"`
	// Metrics is an optional observability snapshot (internal/obs
	// Registry.Flatten) taken when the bundle was produced. omitempty
	// keeps bundles from uninstrumented runs byte-identical to before the
	// field existed.
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// NewBundle converts internal analyzer inputs into exchange form.
func NewBundle(records []collective.StepRecord, reports []*telemetry.Report, cfs map[fabric.FlowKey]bool) *Bundle {
	b := &Bundle{}
	for _, r := range records {
		b.Records = append(b.Records, FromStepRecord(r))
	}
	for _, r := range reports {
		b.Reports = append(b.Reports, FromReport(r))
	}
	for f := range cfs {
		b.CFs = append(b.CFs, FromFlow(f))
	}
	SortFlows(b.CFs)
	return b
}

// Write serializes the bundle as JSON.
func (b *Bundle) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(b)
}

// ReadBundle parses the first JSON value r yields as a bundle and ignores
// whatever follows it. The value is read whole before it is decoded, into a
// buffer sized up front when r says how much it holds.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok && sized.Len() > 0 {
		buf.Grow(sized.Len() + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF
	}
	_, readErr := buf.ReadFrom(r)
	b, err := decode(buf.Bytes(), bundleCodec, false)
	if err != nil && readErr != nil {
		return nil, readErr
	}
	return b, err
}

// Analyze reconstructs the internal inputs and runs the analyzer. The
// step index for per-step provenance grouping is rebuilt from the records.
func (b *Bundle) Analyze() *diagnose.Diagnosis {
	return b.AnalyzeObs(nil)
}

// AnalyzeObs is Analyze with an observability scope threaded into the
// analyzer: phase instants land on the trace and diagnosis counters on the
// registry. A nil scope behaves exactly like Analyze.
func (b *Bundle) AnalyzeObs(scope *obs.Scope) *diagnose.Diagnosis {
	return b.analyze(scope, 0, 0)
}

// AnalyzeDegraded is AnalyzeObs for a bundle known to be incomplete —
// e.g. a fleet merge with a shard missing. missedRecords and
// missedReports count messages that were acknowledged somewhere but are
// absent from the bundle; they feed the diagnosis Coverage/Confidence
// scores so the caller gets a scored partial diagnosis instead of an
// error. Both zero behaves exactly like AnalyzeObs.
func (b *Bundle) AnalyzeDegraded(scope *obs.Scope, missedRecords, missedReports int) *diagnose.Diagnosis {
	return b.analyze(scope, missedRecords, missedReports)
}

func (b *Bundle) analyze(scope *obs.Scope, missedRecords, missedReports int) *diagnose.Diagnosis {
	records := make([]collective.StepRecord, 0, len(b.Records))
	for _, r := range b.Records {
		records = append(records, r.Record())
	}
	reports := make([]*telemetry.Report, 0, len(b.Reports))
	for _, r := range b.Reports {
		reports = append(reports, r.Telemetry())
	}
	cfs := make(map[fabric.FlowKey]bool, len(b.CFs))
	for _, f := range b.CFs {
		cfs[f.Key()] = true
	}
	in := diagnose.Input{
		Records: records,
		Reports: reports,
		CFs:     cfs,
		StepOf:  diagnose.StepOfRecords(records),
		Obs:     scope,
	}
	if missedRecords > 0 {
		in.RecordsExpected = len(records) + missedRecords
	}
	in.PollsLost = missedReports
	return diagnose.Analyze(in)
}
