package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

func randFlow(rng *rand.Rand) fabric.FlowKey {
	return fabric.FlowKey{
		Src:     topo.NodeID(rng.Intn(100)),
		Dst:     topo.NodeID(rng.Intn(100)),
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		Proto:   uint8(rng.Intn(256)),
	}
}

// Property: flow keys survive the DTO round trip.
func TestFlowRoundTrip(t *testing.T) {
	f := func(src, dst int32, sp, dp uint16, proto uint8) bool {
		k := fabric.FlowKey{Src: topo.NodeID(src), Dst: topo.NodeID(dst), SrcPort: sp, DstPort: dp, Proto: proto}
		return FromFlow(k).Key() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepRecordRoundTrip(t *testing.T) {
	rec := collective.StepRecord{
		Host:        7,
		Step:        3,
		Flow:        fabric.FlowKey{Src: 7, Dst: 8, SrcPort: 5003, DstPort: 5003, Proto: 17},
		Bytes:       1 << 20,
		Start:       simtime.Time(5 * time.Microsecond),
		End:         simtime.Time(95 * time.Microsecond),
		WaitSrc:     6,
		BoundByWait: true,
	}
	got := FromStepRecord(rec).Record()
	if got != rec {
		t.Fatalf("round trip changed record:\n%+v\n%+v", got, rec)
	}
	// And through actual JSON.
	data, err := json.Marshal(FromStepRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	var dto StepRecord
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Record() != rec {
		t.Fatalf("JSON round trip changed record")
	}
}

// randomReport builds a telemetry report with every field populated.
func randomReport(rng *rand.Rand) *telemetry.Report {
	rep := &telemetry.Report{
		At:          simtime.Time(rng.Int63n(1e9)),
		TriggeredBy: randFlow(rng),
		HopsPolled:  rng.Intn(20),
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		fr := telemetry.FlowRecord{
			Switch: topo.NodeID(20 + rng.Intn(10)),
			Port:   rng.Intn(4),
			Flow:   randFlow(rng),
			Pkts:   rng.Int63n(1000),
			Bytes:  rng.Int63n(1e9),
		}
		if rng.Intn(2) == 0 {
			fr.Wait = map[fabric.FlowKey]int64{randFlow(rng): rng.Int63n(500)}
		}
		rep.Flows = append(rep.Flows, fr)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		pr := telemetry.PortRecord{
			Switch:         topo.NodeID(20 + rng.Intn(10)),
			Port:           rng.Intn(4),
			QueuedBytes:    rng.Int63n(1e6),
			QueuedPkts:     rng.Int63n(100),
			AvgQueuedBytes: rng.Int63n(1e6),
			Paused:         rng.Intn(2) == 0,
			PauseCount:     rng.Int63n(10),
			PausedFor:      simtime.Duration(rng.Int63n(1e6)),
		}
		if rng.Intn(2) == 0 {
			pr.MeterIn = map[topo.PortID]int64{
				{Node: topo.NodeID(rng.Intn(30)), Port: rng.Intn(4)}: rng.Int63n(1e6),
			}
		}
		if rng.Intn(2) == 0 {
			pr.PFCEvents = append(pr.PFCEvents, fabric.PFCEvent{
				At:          simtime.Time(rng.Int63n(1e9)),
				Pause:       rng.Intn(2) == 0,
				Upstream:    topo.PortID{Node: topo.NodeID(rng.Intn(30)), Port: rng.Intn(4)},
				Downstream:  topo.NodeID(rng.Intn(30)),
				IngressPort: rng.Intn(4),
				CauseEgress: rng.Intn(4),
				Injected:    rng.Intn(2) == 0,
			})
		}
		rep.Ports = append(rep.Ports, pr)
	}
	if rng.Intn(2) == 0 {
		rep.TTLDrops = map[topo.NodeID]int64{topo.NodeID(rng.Intn(30)): rng.Int63n(100)}
	}
	return rep
}

// Property: telemetry reports survive DTO + JSON round trips with all maps
// and nested records intact.
func TestReportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		rep := randomReport(rng)
		data, err := json.Marshal(FromReport(rep))
		if err != nil {
			t.Fatal(err)
		}
		var dto Report
		if err := json.Unmarshal(data, &dto); err != nil {
			t.Fatal(err)
		}
		back := dto.Telemetry()
		if !reflect.DeepEqual(normalize(rep), normalize(back)) {
			t.Fatalf("iteration %d: round trip changed report\nin:  %+v\nout: %+v", i, rep, back)
		}
	}
}

// normalize nils out empty maps that the round trip legitimately drops.
func normalize(r *telemetry.Report) *telemetry.Report {
	c := *r
	for i := range c.Flows {
		if len(c.Flows[i].Wait) == 0 {
			c.Flows[i].Wait = nil
		}
	}
	for i := range c.Ports {
		if len(c.Ports[i].MeterIn) == 0 {
			c.Ports[i].MeterIn = nil
		}
	}
	if len(c.TTLDrops) == 0 {
		c.TTLDrops = nil
	}
	return &c
}

func TestDeterministicDTOOrdering(t *testing.T) {
	// Maps have random iteration order; the DTO must not.
	rep := &telemetry.Report{
		Flows: []telemetry.FlowRecord{{
			Switch: 20, Port: 1, Flow: randFlow(rand.New(rand.NewSource(1))),
			Pkts: 5, Bytes: 5000,
			Wait: map[fabric.FlowKey]int64{
				{Src: 3, Dst: 4, SrcPort: 1, DstPort: 2, Proto: 17}: 1,
				{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: 17}: 2,
				{Src: 2, Dst: 3, SrcPort: 1, DstPort: 2, Proto: 17}: 3,
			},
		}},
	}
	a, _ := json.Marshal(FromReport(rep))
	for i := 0; i < 10; i++ {
		b, _ := json.Marshal(FromReport(rep))
		if string(a) != string(b) {
			t.Fatalf("nondeterministic DTO serialization")
		}
	}
}

func TestBundleRoundTripAndAnalyze(t *testing.T) {
	// Build a minimal contention bundle by hand and check the offline
	// analysis path produces the expected finding.
	cf := fabric.FlowKey{Src: 0, Dst: 1, SrcPort: 5000, DstPort: 5000, Proto: 17}
	bf := fabric.FlowKey{Src: 8, Dst: 9, SrcPort: 9000, DstPort: 9001, Proto: 17}
	records := []collective.StepRecord{
		{Host: 0, Step: 0, Flow: cf, Start: 0, End: simtime.Time(100 * time.Microsecond), WaitSrc: topo.None},
	}
	reports := []*telemetry.Report{{
		TriggeredBy: cf,
		Flows: []telemetry.FlowRecord{
			{Switch: 20, Port: 1, Flow: cf, Pkts: 10, Bytes: 10000,
				Wait: map[fabric.FlowKey]int64{bf: 7}},
			{Switch: 20, Port: 1, Flow: bf, Pkts: 10, Bytes: 10000,
				Wait: map[fabric.FlowKey]int64{cf: 3}},
		},
		Ports: []telemetry.PortRecord{{Switch: 20, Port: 1, AvgQueuedBytes: 9000}},
	}}
	cfs := map[fabric.FlowKey]bool{cf: true}

	b := NewBundle(records, reports, cfs)
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 1 || len(back.Reports) != 1 || len(back.CFs) != 1 {
		t.Fatalf("bundle shape lost: %+v", back)
	}
	diag := back.Analyze()
	found := false
	for _, f := range diag.Findings {
		if f.Type.String() == "flow-contention" {
			for _, c := range f.Culprits {
				if c == bf {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("offline analysis missed the contention: %+v", diag.Findings)
	}
}

// TestBundleWriteMemoryFlat: Write allocates about the same into a writer
// that discards it whatever the bundle's size: the XL fixture (16 256
// records, four times the L one's bytes) within 1.5x of the L one.
func TestBundleWriteMemoryFlat(t *testing.T) {
	allocated := func(nrec int) uint64 {
		b, err := DecodeBundle(fixedBundle(t, nrec, 256))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = b.Write(io.Discard)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	l, xl := allocated(4032), allocated(16256)
	if 2*xl > 3*l {
		t.Errorf("Write allocated %d bytes for the XL bundle, %d for the L one: more than 1.5x", xl, l)
	}
	t.Logf("Write allocated %d bytes for L, %d for XL", l, xl)
}

// failingWriter takes its first write and refuses every later one.
type failingWriter struct{ writes int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.writes++; f.writes > 1 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

// TestBundleWriteReportsWriteError: a bundle that reaches its writer in
// pieces stops at the first piece the writer refuses and returns that
// error.
func TestBundleWriteReportsWriteError(t *testing.T) {
	b, err := DecodeBundle(fixedBundle(t, 4032, 256))
	if err != nil {
		t.Fatal(err)
	}
	w := &failingWriter{}
	if err := b.Write(w); !errors.Is(err, io.ErrShortWrite) || w.writes != 2 {
		t.Errorf("Write = %v after %d writes, want %v after 2", err, w.writes, io.ErrShortWrite)
	}
}

// insertionSort is the sort helper the DTO lists used before they grew to
// a collective-flow census: the order (and, being stable, the placement of
// ties) sortSlice must keep reproducing.
func insertionSort[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestSortSliceMatchesInsertionSort: a shuffled 16k-flow census sorts to the
// sequence the insertion sort produced, and a list with equal keys keeps
// its ties in input order the way the insertion sort did.
func TestSortSliceMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	flows := make([]Flow, 0, 16256)
	for src := 0; src < 128; src++ {
		for step := 0; step < 127; step++ {
			flows = append(flows, Flow{Src: int32(src), Dst: int32((src + 1) % 128),
				SrcPort: uint16(5000 + step), DstPort: uint16(5000 + step), Proto: 17})
		}
	}
	rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	want := append([]Flow(nil), flows...)
	insertionSort(want, flowLess)
	SortFlows(flows)
	if !reflect.DeepEqual(flows, want) {
		t.Fatal("SortFlows orders a shuffled 16k-flow census differently from the insertion sort")
	}

	acks := make([]ClientAck, 2000)
	for i := range acks {
		acks[i] = ClientAck{Client: string(rune('a' + rng.Intn(8))), Seq: int64(i)}
	}
	wantAcks := append([]ClientAck(nil), acks...)
	insertionSort(wantAcks, func(a, b ClientAck) bool { return a.Client < b.Client })
	sortSlice(acks, func(a, b ClientAck) bool { return a.Client < b.Client })
	if !reflect.DeepEqual(acks, wantAcks) {
		t.Fatal("sortSlice places equal clients differently from the insertion sort")
	}
}
