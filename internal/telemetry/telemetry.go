// Package telemetry implements the network-side data collection of §III-C3,
// following Hawkeye's methodology as the paper does: switches keep
// flow-level records (5-tuple, per-flow packet counts, queue depth) and
// port-level records (inter-port traffic meters, PFC pause counters and
// states). A polling query triggered by a host propagates along both the
// flow's path and the PFC spreading path, and the collected records are
// reported to the analyzer. Every byte collected is accounted, since
// telemetry volume is the paper's processing-overhead metric (Fig 10a) and
// polling traffic its bandwidth-overhead metric (Fig 10b).
package telemetry

import (
	"slices"
	"sort"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// Wire-size model for overhead accounting, in bytes. The exact constants
// only scale the overhead figures; the relative comparison between systems
// (Vedrfolnir / Hawkeye / full polling) is constant-free.
const (
	PollPacketSize   = 64 // one polling query crossing one hop
	FlowRecordSize   = 48 // 5-tuple + packet/byte counters
	WaitEntrySize    = 24 // one w(f_i, f_j) accumulator entry
	PortRecordSize   = 64 // depth, pause counters, state
	MeterEntrySize   = 12 // one inter-port traffic meter entry
	PFCEventSize     = 32 // one logged pause/resume edge
	ReportHeaderSize = 32 // per-report framing to the analyzer
)

// FlowRecord is the per-flow telemetry a switch exports for one egress port.
type FlowRecord struct {
	Switch topo.NodeID
	Port   int
	Flow   fabric.FlowKey
	Pkts   int64
	Bytes  int64
	// Wait is the paper's w(f_i, f_j): packets of flow f_j that packets of
	// this record's flow queued behind at this port during the window.
	Wait map[fabric.FlowKey]int64
}

// PortRecord is the per-port telemetry a switch exports.
type PortRecord struct {
	Switch topo.NodeID
	Port   int

	QueuedBytes int64 // instantaneous depth at collection
	QueuedPkts  int64
	// AvgQueuedBytes is the mean depth seen by packets enqueued during
	// the window — the "queue depth detected within a certain period"
	// of the e(p, f) weight definition (§III-D1).
	AvgQueuedBytes int64
	Paused         bool // egress currently PFC-paused
	PauseCount     int64
	PausedFor      simtime.Duration

	// MeterIn maps each upstream egress port feeding this port to the
	// bytes it contributed in the window — the meter(p_i, p_j) term.
	MeterIn map[topo.PortID]int64

	// PFCEvents are the pause/resume edges in the window in which this
	// port participated (as halted upstream or as congested cause).
	PFCEvents []fabric.PFCEvent
}

// Report is one poll's worth of telemetry delivered to the analyzer.
type Report struct {
	At          simtime.Time
	TriggeredBy fabric.FlowKey
	Flows       []FlowRecord
	Ports       []PortRecord
	// TTLDrops reports packets dropped for TTL exhaustion per visited
	// switch in the window — the forwarding-loop signature (§II-B).
	TTLDrops   map[topo.NodeID]int64
	HopsPolled int // polling packet hops, for bandwidth accounting
	// PortsMissed counts visited switch ports whose telemetry response was
	// lost (fault injection): the poll reached them but no records came
	// back. Zero in a healthy fabric. Feeds diagnosis confidence.
	PortsMissed int
}

// Size returns the report's modelled wire size in bytes.
func (r *Report) Size() int {
	sz := ReportHeaderSize
	for _, f := range r.Flows {
		sz += FlowRecordSize + len(f.Wait)*WaitEntrySize
	}
	for _, p := range r.Ports {
		sz += PortRecordSize + len(p.MeterIn)*MeterEntrySize + len(p.PFCEvents)*PFCEventSize
	}
	return sz
}

// Overhead aggregates the two cost metrics of §IV-B.
type Overhead struct {
	// TelemetryBytes is the volume of telemetry records collected for
	// diagnosis — the paper's processing overhead.
	TelemetryBytes int64
	// PollBytes is polling-query traffic (queries crossing switch hops).
	PollBytes int64
	// ReportBytes is switch-to-analyzer report traffic.
	ReportBytes int64
	// NotifyBytes is notification-packet traffic (Vedrfolnir only).
	NotifyBytes int64
	Polls       int64
}

// Bandwidth returns the paper's bandwidth-overhead metric: polling during
// detection + notification packets + switch telemetry reports.
func (o Overhead) Bandwidth() int64 { return o.PollBytes + o.NotifyBytes + o.ReportBytes }

// portState remembers the last-collected snapshot of one egress port's
// cumulative counters so each poll reports only the delta (the switch's
// periodic record buffer, drained on read). It has the counters' own shape:
// per-flow values by the port's flow slot (fabric.PortCounters), the meter
// by ingress port.
type portState struct {
	flowPkts  []int64
	flowBytes []int64
	wait      [][]int64
	meterIn   []int64
	qdepthSum int64
	enqueues  int64
	// order lists the port's flow slots by flowLess of their 5-tuples —
	// the order flow records are emitted in. Slots are only ever added,
	// so it is extended by insertion instead of re-sorted per poll.
	order []int32
}

// track extends the snapshot (at zero) to every slot and meter pc has.
func (st *portState) track(pc *fabric.PortCounters) {
	for slot := len(st.order); slot < len(pc.Flows); slot++ {
		st.flowPkts = append(st.flowPkts, 0)
		st.flowBytes = append(st.flowBytes, 0)
		st.wait = append(st.wait, nil)
		at := sort.Search(len(st.order), func(i int) bool {
			return flowLess(pc.Flows[slot], pc.Flows[st.order[i]])
		})
		st.order = slices.Insert(st.order, at, int32(slot))
	}
	if len(st.meterIn) < len(pc.MeterIn) {
		st.meterIn = make([]int64, len(pc.MeterIn))
	}
}

// drainWait returns the growth of flow slot's w(f_i, ·) row since the last
// drain as a FlowRecord.Wait map (nil when nothing grew) and advances the
// snapshot.
func (st *portState) drainWait(pc *fabric.PortCounters, slot int32) map[fabric.FlowKey]int64 {
	row, prev := pc.Wait[slot], st.wait[slot]
	if grow := len(row) - len(prev); grow > 0 {
		prev = append(prev, make([]int64, grow)...)
		st.wait[slot] = prev
	}
	var out map[fabric.FlowKey]int64
	for other, w := range row {
		if w > prev[other] {
			if out == nil {
				out = make(map[fabric.FlowKey]int64)
			}
			out[pc.Flows[other]] = w - prev[other]
			prev[other] = w
		}
	}
	return out
}

// Collector reads switch counters and assembles reports.
type Collector struct {
	Net *fabric.Network

	last      [][]portState // by node, then egress port; nil for hosts
	lastDrops map[topo.NodeID]int64
	pfcSeen   int // high-water mark into Net.PFCLog for windowing

	// PortFault, when set, is consulted once per visited switch port; true
	// loses that port's response for this poll (fault injection). The
	// port's counters are left un-drained, so a later successful poll
	// reports the accumulated delta — loss degrades freshness, not totals.
	PortFault func(topo.PortID) bool

	// Totals accumulates overhead across all polls through this collector.
	Totals Overhead

	// tCollect is the wall-time stage timer around each poll (perf
	// observability); nil (the default) no-ops.
	tCollect *obs.Timer
}

// SetStages installs wall-time stage timers on the collection path; a nil
// bundle disables them.
func (c *Collector) SetStages(st *obs.Stages) {
	if st == nil {
		c.tCollect = nil
		return
	}
	c.tCollect = st.TelemetryCollect
}

// NewCollector creates a collector over the network's switches.
func NewCollector(net *fabric.Network) *Collector {
	c := &Collector{
		Net:       net,
		last:      make([][]portState, len(net.Topo.Nodes)),
		lastDrops: make(map[topo.NodeID]int64),
	}
	c.baseline()
	return c
}

// baseline snapshots every switch's cumulative counters so polls report
// only activity after the collector's creation — a collector attached
// mid-run (e.g. per training iteration) must not re-report history.
func (c *Collector) baseline() {
	c.pfcSeen = len(c.Net.PFCLog)
	for _, sw := range c.Net.Topo.Switches() {
		c.lastDrops[sw] = c.Net.SwitchAt(sw).TTLDrops
		ports := make([]portState, len(c.Net.Topo.Node(sw).Ports))
		for pi := range ports {
			pc := c.Net.Egress(sw, pi).Counters()
			st := &ports[pi]
			st.track(&pc)
			copy(st.flowPkts, pc.FlowPkts)
			copy(st.flowBytes, pc.FlowBytes)
			for slot, row := range pc.Wait {
				st.wait[slot] = slices.Clone(row)
			}
			copy(st.meterIn, pc.MeterIn)
			st.qdepthSum, st.enqueues = pc.QDepthSum, pc.Enqueues
		}
		c.last[sw] = ports
	}
}

// Poll performs one detection's telemetry collection for the given flow
// (§III-C3): the query visits every switch on the flow's path, collects
// flow and port records at the egress each hop uses, and — whenever a
// visited port is or was recently PFC-paused — follows the PFC spreading
// path to the congested downstream ports, collecting there too. The report
// is returned and all overhead is accounted.
//
// Collection is modelled as an instantaneous snapshot at poll time; the
// propagation latency of queries does not affect what the counters held.
func (c *Collector) Poll(flow fabric.FlowKey, window simtime.Duration) *Report {
	t0 := c.tCollect.Begin()
	defer c.tCollect.End(t0)
	now := c.Net.K.Now()
	rep := &Report{At: now, TriggeredBy: flow}
	pfc := c.pfcWindow(now, window)

	visited := map[topo.PortID]bool{}
	var visit func(p topo.PortID, depth int)
	visit = func(p topo.PortID, depth int) {
		if visited[p] || depth > 32 {
			return
		}
		visited[p] = true
		// Host uplinks carry no switch telemetry but can still be the
		// halted end of a PFC edge (e.g. a storm pausing a NIC), so the
		// spreading-path check below runs for them too.
		if c.Net.Topo.Node(p.Node).Kind == topo.KindSwitch {
			c.collectPort(rep, p, pfc)
		}
		// Follow the PFC spreading path: if this egress was halted, the
		// cause lives at the downstream switch's congested egress.
		for _, ev := range pfc {
			if !ev.Pause || ev.Upstream != p {
				continue
			}
			cause := topo.PortID{Node: ev.Downstream, Port: ev.CauseEgress}
			rep.HopsPolled++
			visit(cause, depth+1)
		}
	}

	path := c.Net.Topo.Path(flow.Src, flow.Dst, flow.PathHash())
	for _, hop := range path {
		rep.HopsPolled++
		visit(hop, 0)
	}

	c.account(rep)
	return rep
}

// PollAllSwitches collects every egress port of every switch — the
// full-polling baseline's per-epoch collection.
func (c *Collector) PollAllSwitches(window simtime.Duration) *Report {
	t0 := c.tCollect.Begin()
	defer c.tCollect.End(t0)
	now := c.Net.K.Now()
	rep := &Report{At: now}
	pfc := c.pfcWindow(now, window)
	for _, sw := range c.Net.Topo.Switches() {
		for pi := range c.Net.Topo.Node(sw).Ports {
			rep.HopsPolled++
			c.collectPort(rep, topo.PortID{Node: sw, Port: pi}, pfc)
		}
	}
	c.account(rep)
	return rep
}

func (c *Collector) account(rep *Report) {
	c.Totals.Polls++
	c.Totals.TelemetryBytes += int64(rep.Size())
	c.Totals.PollBytes += int64(rep.HopsPolled * PollPacketSize)
	c.Totals.ReportBytes += int64(rep.Size())
}

// AddNotifyBytes records notification-packet traffic into the bandwidth
// overhead (called by the monitor layer).
func (c *Collector) AddNotifyBytes(n int64) { c.Totals.NotifyBytes += n }

// pfcWindow returns PFC events within the window ending now, excluding
// anything logged before the collector was created.
func (c *Collector) pfcWindow(now simtime.Time, window simtime.Duration) []fabric.PFCEvent {
	log := c.Net.PFCLog[c.pfcSeen:]
	if window <= 0 {
		return log
	}
	cutoff := now.Add(-window)
	// Binary search: log is append-ordered by time.
	i := sort.Search(len(log), func(i int) bool { return log[i].At >= cutoff })
	return log[i:]
}

// collectPort snapshots one egress port into the report, draining the
// window's counter deltas. pfc is the poll's PFC window (pfcWindow).
func (c *Collector) collectPort(rep *Report, p topo.PortID, pfc []fabric.PFCEvent) {
	sw := c.Net.SwitchAt(p.Node)
	if sw == nil {
		return
	}
	if c.PortFault != nil && c.PortFault(p) {
		rep.PortsMissed++
		return
	}
	ev := c.Net.Egress(p.Node, p.Port)
	pc := ev.Counters()

	if d := sw.TTLDrops - c.lastDrops[p.Node]; d > 0 {
		if rep.TTLDrops == nil {
			rep.TTLDrops = make(map[topo.NodeID]int64)
		}
		rep.TTLDrops[p.Node] += d
		c.lastDrops[p.Node] = sw.TTLDrops
	}

	st := &c.last[p.Node][p.Port]
	st.track(&pc)

	// Flow records: delta of per-flow counters since last collection.
	for _, slot := range st.order {
		dp := pc.FlowPkts[slot] - st.flowPkts[slot]
		if dp <= 0 {
			continue
		}
		rep.Flows = append(rep.Flows, FlowRecord{
			Switch: p.Node,
			Port:   p.Port,
			Flow:   pc.Flows[slot],
			Pkts:   dp,
			Bytes:  pc.FlowBytes[slot] - st.flowBytes[slot],
			Wait:   st.drainWait(&pc, slot),
		})
		st.flowPkts[slot] = pc.FlowPkts[slot]
		st.flowBytes[slot] = pc.FlowBytes[slot]
	}

	// Port record.
	pr := PortRecord{
		Switch:      p.Node,
		Port:        p.Port,
		QueuedBytes: ev.QueuedBytes(),
		QueuedPkts:  ev.QueuedPkts(),
		Paused:      ev.Paused(),
		PauseCount:  ev.PauseCount(),
		PausedFor:   ev.PausedFor(rep.At),
	}
	if dn := pc.Enqueues - st.enqueues; dn > 0 {
		pr.AvgQueuedBytes = (pc.QDepthSum - st.qdepthSum) / dn
	}
	st.qdepthSum, st.enqueues = pc.QDepthSum, pc.Enqueues
	for ingress, bytes := range pc.MeterIn {
		if d := bytes - st.meterIn[ingress]; d > 0 {
			up := c.Net.Topo.PeerOf(topo.PortID{Node: p.Node, Port: ingress})
			if pr.MeterIn == nil {
				pr.MeterIn = make(map[topo.PortID]int64)
			}
			pr.MeterIn[up] += d
			st.meterIn[ingress] = bytes
		}
	}
	for _, e := range pfc {
		if (e.Downstream == p.Node && e.CauseEgress == p.Port) || e.Upstream == p {
			pr.PFCEvents = append(pr.PFCEvents, e)
		}
	}
	rep.Ports = append(rep.Ports, pr)
}

func flowLess(a, b fabric.FlowKey) bool {
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
