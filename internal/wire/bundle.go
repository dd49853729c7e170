package wire

import (
	"bytes"
	"io"
	"slices"

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

// spillAt is how full Write lets its buffer get before handing it to w.
const spillAt = 64 << 10

// Write writes the bundle on one line: json.Marshal's bytes, then a
// newline. It walks bundleCodec's keys in table order and encodes each
// record, report and CF with its codec table into one buffer, which goes
// to w whenever it passes spillAt: the writer holds a buffer, never the
// document. ReadBundle reads it, and the indented bundles of older builds.
func (b *Bundle) Write(w io.Writer) error {
	s := spill{w: w, buf: make([]byte, 0, 2*spillAt)}
	spillList(&s, 0, b.Records, stepRecordCodec)
	spillList(&s, 1, b.Reports, reportCodec)
	spillList(&s, 2, b.CFs, flowCodec)
	if len(b.Metrics) > 0 { // omitempty; json.Marshal sorts a map's keys
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		s.key(3)
		for i, k := range keys {
			s.buf = num(append(text(append(s.buf, "{,"[min(i, 1)]), k), ':'), b.Metrics[k])
		}
		s.buf = append(s.buf, '}')
	}
	s.buf = append(s.buf, "}\n"...)
	s.flush()
	return s.err
}

// spill is Write's buffer and where it goes; the first write error sticks.
type spill struct {
	w   io.Writer
	buf []byte
	err error
}

// flush hands the buffer to w, unless a write has failed, and empties it.
func (s *spill) flush() {
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// key appends bundleCodec's i-th key, the first one after the '{'.
func (s *spill) key(i int) {
	s.buf = append(append(append(s.buf, "{,"[min(i, 1)], '"'), bundleCodec[i].key...), '"', ':')
}

// spillList appends bundleCodec's i-th key and list as its value, nil as
// null (no bundle list is omitempty), spilling between elements.
func spillList[T any](s *spill, i int, list []T, elem codec[T]) {
	if s.key(i); list == nil {
		s.buf = append(s.buf, "null"...)
		return
	}
	s.buf = append(s.buf, '[')
	for j := range list {
		if j > 0 {
			s.buf = append(s.buf, ',')
		}
		if s.buf = elem.encode(s.buf, &list[j]); len(s.buf) >= spillAt {
			s.flush()
		}
	}
	s.buf = append(s.buf, ']')
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
	b, err := decodeBundle(buf.Bytes(), false)
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
	in := diagnose.Input{Obs: scope}
	converted := make(chan struct{}) // the records and their step index, on a goroutine
	go func() {
		defer close(converted)
		in.Records = make([]collective.StepRecord, 0, len(b.Records))
		for _, r := range b.Records {
			in.Records = append(in.Records, r.Record())
		}
		in.StepOf = diagnose.StepOfRecords(in.Records)
	}()
	in.Reports = make([]*telemetry.Report, 0, len(b.Reports))
	for _, r := range b.Reports {
		in.Reports = append(in.Reports, r.Telemetry())
	}
	in.CFs = make(map[fabric.FlowKey]bool, len(b.CFs))
	for _, f := range b.CFs {
		in.CFs[f.Key()] = true
	}
	<-converted
	return diagnose.Analyze(in)
}
