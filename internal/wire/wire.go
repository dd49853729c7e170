// Package wire defines the JSON-safe exchange format between Vedrfolnir's
// host-side monitors and the central analyzer (the report path of Fig 3),
// and for exporting diagnoses to external tooling. The internal types use
// struct-keyed maps (efficient in memory, unrepresentable in JSON), so this
// package provides faithful DTO conversions in both directions.
package wire

import (
	"slices"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

// Flow is the JSON form of a 5-tuple.
type Flow struct {
	Src     int32  `json:"src"`
	Dst     int32  `json:"dst"`
	SrcPort uint16 `json:"sport"`
	DstPort uint16 `json:"dport"`
	Proto   uint8  `json:"proto"`
}

// FromFlow converts an internal flow key.
func FromFlow(k fabric.FlowKey) Flow {
	return Flow{Src: int32(k.Src), Dst: int32(k.Dst), SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}
}

// Key converts back to the internal flow key.
func (f Flow) Key() fabric.FlowKey {
	return fabric.FlowKey{Src: topo.NodeID(f.Src), Dst: topo.NodeID(f.Dst), SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: f.Proto}
}

// Port is the JSON form of a port identity.
type Port struct {
	Node int32 `json:"node"`
	Port int   `json:"port"`
}

// FromPort converts an internal port ID.
func FromPort(p topo.PortID) Port { return Port{Node: int32(p.Node), Port: p.Port} }

// ID converts back to the internal port ID.
func (p Port) ID() topo.PortID { return topo.PortID{Node: topo.NodeID(p.Node), Port: p.Port} }

// FlowCount is one entry of a flow-keyed counter map.
type FlowCount struct {
	Flow Flow  `json:"flow"`
	N    int64 `json:"n"`
}

// StepRecord is the JSON form of a monitor's per-step report (§III-C1).
type StepRecord struct {
	Host        int32 `json:"host"`
	Step        int   `json:"step"`
	Flow        Flow  `json:"flow"`
	Bytes       int64 `json:"bytes"`
	StartNS     int64 `json:"start_ns"`
	EndNS       int64 `json:"end_ns"`
	WaitSrc     int32 `json:"wait_src"`
	WaitStep    int   `json:"wait_step"`
	BoundByWait bool  `json:"bound_by_wait"`
}

// FromStepRecord converts an internal step record.
func FromStepRecord(r collective.StepRecord) StepRecord {
	return StepRecord{
		Host:        int32(r.Host),
		Step:        r.Step,
		Flow:        FromFlow(r.Flow),
		Bytes:       r.Bytes,
		StartNS:     int64(r.Start),
		EndNS:       int64(r.End),
		WaitSrc:     int32(r.WaitSrc),
		WaitStep:    r.WaitStep,
		BoundByWait: r.BoundByWait,
	}
}

// Record converts back to the internal step record.
func (r StepRecord) Record() collective.StepRecord {
	return collective.StepRecord{
		Host:        topo.NodeID(r.Host),
		Step:        r.Step,
		Flow:        r.Flow.Key(),
		Bytes:       r.Bytes,
		Start:       simtime.Time(r.StartNS),
		End:         simtime.Time(r.EndNS),
		WaitSrc:     topo.NodeID(r.WaitSrc),
		WaitStep:    r.WaitStep,
		BoundByWait: r.BoundByWait,
	}
}

// FlowRecord is the JSON form of per-flow switch telemetry.
type FlowRecord struct {
	Switch int32       `json:"switch"`
	Port   int         `json:"port"`
	Flow   Flow        `json:"flow"`
	Pkts   int64       `json:"pkts"`
	Bytes  int64       `json:"bytes"`
	Wait   []FlowCount `json:"wait,omitempty"`
}

// PFCEvent is the JSON form of a pause/resume edge.
type PFCEvent struct {
	AtNS        int64 `json:"at_ns"`
	Pause       bool  `json:"pause"`
	Upstream    Port  `json:"upstream"`
	Downstream  int32 `json:"downstream"`
	IngressPort int   `json:"ingress"`
	CauseEgress int   `json:"cause"`
	Injected    bool  `json:"injected"`
}

// MeterEntry is one inter-port traffic meter reading.
type MeterEntry struct {
	From  Port  `json:"from"`
	Bytes int64 `json:"bytes"`
}

// PortRecord is the JSON form of per-port switch telemetry.
type PortRecord struct {
	Switch         int32        `json:"switch"`
	Port           int          `json:"port"`
	QueuedBytes    int64        `json:"queued_bytes"`
	QueuedPkts     int64        `json:"queued_pkts"`
	AvgQueuedBytes int64        `json:"avg_queued_bytes"`
	Paused         bool         `json:"paused"`
	PauseCount     int64        `json:"pause_count"`
	PausedForNS    int64        `json:"paused_for_ns"`
	MeterIn        []MeterEntry `json:"meter_in,omitempty"`
	PFCEvents      []PFCEvent   `json:"pfc_events,omitempty"`
}

// DropEntry is one switch's TTL-drop count.
type DropEntry struct {
	Switch int32 `json:"switch"`
	N      int64 `json:"n"`
}

// Report is the JSON form of one telemetry report.
type Report struct {
	AtNS        int64        `json:"at_ns"`
	TriggeredBy Flow         `json:"triggered_by"`
	Flows       []FlowRecord `json:"flows,omitempty"`
	Ports       []PortRecord `json:"ports,omitempty"`
	TTLDrops    []DropEntry  `json:"ttl_drops,omitempty"`
	HopsPolled  int          `json:"hops_polled"`
	PortsMissed int          `json:"ports_missed,omitempty"`
}

// FromReport converts an internal telemetry report.
func FromReport(r *telemetry.Report) Report {
	out := Report{
		AtNS:        int64(r.At),
		TriggeredBy: FromFlow(r.TriggeredBy),
		HopsPolled:  r.HopsPolled,
		PortsMissed: r.PortsMissed,
	}
	for _, fr := range r.Flows {
		w := FlowRecord{
			Switch: int32(fr.Switch),
			Port:   fr.Port,
			Flow:   FromFlow(fr.Flow),
			Pkts:   fr.Pkts,
			Bytes:  fr.Bytes,
		}
		for fk, n := range fr.Wait {
			w.Wait = append(w.Wait, FlowCount{Flow: FromFlow(fk), N: n})
		}
		sortFlowCounts(w.Wait)
		out.Flows = append(out.Flows, w)
	}
	for _, pr := range r.Ports {
		p := PortRecord{
			Switch:         int32(pr.Switch),
			Port:           pr.Port,
			QueuedBytes:    pr.QueuedBytes,
			QueuedPkts:     pr.QueuedPkts,
			AvgQueuedBytes: pr.AvgQueuedBytes,
			Paused:         pr.Paused,
			PauseCount:     pr.PauseCount,
			PausedForNS:    int64(pr.PausedFor),
		}
		for up, b := range pr.MeterIn {
			p.MeterIn = append(p.MeterIn, MeterEntry{From: FromPort(up), Bytes: b})
		}
		sortMeters(p.MeterIn)
		for _, ev := range pr.PFCEvents {
			p.PFCEvents = append(p.PFCEvents, PFCEvent{
				AtNS:        int64(ev.At),
				Pause:       ev.Pause,
				Upstream:    FromPort(ev.Upstream),
				Downstream:  int32(ev.Downstream),
				IngressPort: ev.IngressPort,
				CauseEgress: ev.CauseEgress,
				Injected:    ev.Injected,
			})
		}
		out.Ports = append(out.Ports, p)
	}
	for sw, n := range r.TTLDrops {
		out.TTLDrops = append(out.TTLDrops, DropEntry{Switch: int32(sw), N: n})
	}
	sortDrops(out.TTLDrops)
	return out
}

// Telemetry converts back to the internal report.
func (r Report) Telemetry() *telemetry.Report {
	out := &telemetry.Report{
		At:          simtime.Time(r.AtNS),
		TriggeredBy: r.TriggeredBy.Key(),
		HopsPolled:  r.HopsPolled,
		PortsMissed: r.PortsMissed,
	}
	for _, fr := range r.Flows {
		w := telemetry.FlowRecord{
			Switch: topo.NodeID(fr.Switch),
			Port:   fr.Port,
			Flow:   fr.Flow.Key(),
			Pkts:   fr.Pkts,
			Bytes:  fr.Bytes,
		}
		if len(fr.Wait) > 0 {
			w.Wait = make(map[fabric.FlowKey]int64, len(fr.Wait))
			for _, fc := range fr.Wait {
				w.Wait[fc.Flow.Key()] = fc.N
			}
		}
		out.Flows = append(out.Flows, w)
	}
	for _, pr := range r.Ports {
		p := telemetry.PortRecord{
			Switch:         topo.NodeID(pr.Switch),
			Port:           pr.Port,
			QueuedBytes:    pr.QueuedBytes,
			QueuedPkts:     pr.QueuedPkts,
			AvgQueuedBytes: pr.AvgQueuedBytes,
			Paused:         pr.Paused,
			PauseCount:     pr.PauseCount,
			PausedFor:      simtime.Duration(pr.PausedForNS),
		}
		if len(pr.MeterIn) > 0 {
			p.MeterIn = make(map[topo.PortID]int64, len(pr.MeterIn))
			for _, me := range pr.MeterIn {
				p.MeterIn[me.From.ID()] = me.Bytes
			}
		}
		for _, ev := range pr.PFCEvents {
			p.PFCEvents = append(p.PFCEvents, fabric.PFCEvent{
				At:          simtime.Time(ev.AtNS),
				Pause:       ev.Pause,
				Upstream:    ev.Upstream.ID(),
				Downstream:  topo.NodeID(ev.Downstream),
				IngressPort: ev.IngressPort,
				CauseEgress: ev.CauseEgress,
				Injected:    ev.Injected,
			})
		}
		out.Ports = append(out.Ports, p)
	}
	if len(r.TTLDrops) > 0 {
		out.TTLDrops = make(map[topo.NodeID]int64, len(r.TTLDrops))
		for _, d := range r.TTLDrops {
			out.TTLDrops[topo.NodeID(d.Switch)] = d.N
		}
	}
	return out
}

// Finding is the JSON form of one diagnosed anomaly.
type Finding struct {
	Type     string `json:"type"`
	Port     Port   `json:"port"`
	RootPort Port   `json:"root_port,omitempty"`
	Chain    []Port `json:"chain,omitempty"`
	Culprits []Flow `json:"culprits,omitempty"`
	Affected []Flow `json:"affected,omitempty"`
	Injected bool   `json:"injected,omitempty"`
	// Confidence is the telemetry coverage behind this match, serialized
	// only when degraded (< 1) so healthy output is unchanged.
	Confidence float64 `json:"confidence,omitempty"`
}

// Rating is the JSON form of an Eq. 3 contributor score.
type Rating struct {
	Flow       Flow    `json:"flow"`
	Score      float64 `json:"score"`
	Confidence float64 `json:"confidence,omitempty"`
}

// Step names one critical-path step.
type Step struct {
	Host int32 `json:"host"`
	Step int   `json:"step"`
}

// Coverage is the JSON form of the observation-completeness accounting
// behind a degraded diagnosis.
type Coverage struct {
	PortsPolled     int `json:"ports_polled"`
	PortsMissed     int `json:"ports_missed"`
	ReportsSeen     int `json:"reports_seen"`
	PollsLost       int `json:"polls_lost"`
	RecordsSeen     int `json:"records_seen"`
	RecordsExpected int `json:"records_expected"`
}

// Diagnosis is the JSON form of the analyzer's structured result.
type Diagnosis struct {
	Findings     []Finding `json:"findings"`
	CriticalPath []Step    `json:"critical_path"`
	Ratings      []Rating  `json:"ratings"`
	// Confidence and Coverage appear only when the diagnosis was built
	// from partial observation (confidence < 1); a healthy diagnosis
	// serializes exactly as before they existed.
	Confidence float64   `json:"confidence,omitempty"`
	Coverage   *Coverage `json:"coverage,omitempty"`
}

// FromDiagnosis converts an internal diagnosis for export.
func FromDiagnosis(d *diagnose.Diagnosis) Diagnosis {
	var out Diagnosis
	for _, f := range d.Findings {
		nf := Finding{
			Type:     f.Type.String(),
			Port:     FromPort(f.Port),
			RootPort: FromPort(f.RootPort),
			Injected: f.Injected,
		}
		if f.Confidence < 1 {
			nf.Confidence = f.Confidence
		}
		for _, p := range f.Chain {
			nf.Chain = append(nf.Chain, FromPort(p))
		}
		for _, c := range f.Culprits {
			nf.Culprits = append(nf.Culprits, FromFlow(c))
		}
		for _, a := range f.Affected {
			nf.Affected = append(nf.Affected, FromFlow(a))
		}
		out.Findings = append(out.Findings, nf)
	}
	for _, ref := range d.CriticalPath {
		out.CriticalPath = append(out.CriticalPath, Step{Host: int32(ref.Host), Step: ref.Step})
	}
	for _, r := range d.Ratings {
		nr := Rating{Flow: FromFlow(r.Flow), Score: r.Score}
		if r.Confidence < 1 {
			nr.Confidence = r.Confidence
		}
		out.Ratings = append(out.Ratings, nr)
	}
	if d.Confidence < 1 {
		out.Confidence = d.Confidence
		c := d.Coverage
		out.Coverage = &Coverage{
			PortsPolled:     c.PortsPolled,
			PortsMissed:     c.PortsMissed,
			ReportsSeen:     c.ReportsSeen,
			PollsLost:       c.PollsLost,
			RecordsSeen:     c.RecordsSeen,
			RecordsExpected: c.RecordsExpected,
		}
	}
	return out
}

func sortFlowCounts(s []FlowCount) {
	sortSlice(s, func(a, b FlowCount) bool { return flowLess(a.Flow, b.Flow) })
}

func sortMeters(s []MeterEntry) {
	sortSlice(s, func(a, b MeterEntry) bool {
		if a.From.Node != b.From.Node {
			return a.From.Node < b.From.Node
		}
		return a.From.Port < b.From.Port
	})
}

func sortDrops(s []DropEntry) {
	sortSlice(s, func(a, b DropEntry) bool { return a.Switch < b.Switch })
}

func flowLess(a, b Flow) bool {
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

// sortSlice sorts a DTO list into its canonical order. The sort is stable,
// so elements less does not distinguish keep their input order.
func sortSlice[T any](s []T, less func(a, b T) bool) {
	slices.SortStableFunc(s, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}
