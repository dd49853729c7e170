package fabric

import (
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// queued is a packet plus the ingress port that must be credited when it
// leaves the queue (PFC attribution; -1 when locally generated) and the
// flow slot whose queue occupancy it counts toward (-1 when it counts
// toward none: control packets, host NICs).
type queued struct {
	pkt     *Packet
	ingress int32
	slot    int32
}

// fifo is a head-indexed FIFO: pop advances an index instead of re-slicing,
// so a queue that cycles reuses its backing array instead of re-growing it.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// items returns the queued elements, oldest first; valid until the next push.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

func (f *fifo[T]) push(v T) {
	// When full and at least half the array is popped prefix, reclaim it
	// rather than let append copy the dead entries into a bigger array.
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// egressPort is one output queue of a node (switch or host NIC), plus the
// link it feeds.
type egressPort struct {
	node topo.NodeID
	port int
	peer topo.PortID // far end of the link

	bw    simtime.Rate
	delay simtime.Duration

	q  fifo[queued] // data packets
	cq fifo[queued] // control packets (ACK/CNP): strict priority

	// A port serialises one packet at a time: sending is that packet
	// while busy. Packets whose serialisation finished are on the wire
	// until the link delay elapses; the delay is constant per link, so
	// they land in the order they left.
	sending queued
	wire    fifo[*Packet]

	// txDone and land are the port's two event callbacks, bound once in
	// NewNetwork so scheduling a hop allocates no closure.
	txDone func()
	land   func()

	bytes  int64
	busy   bool
	paused bool

	// stats holds the telemetry counters of a switch egress; nil on host
	// NICs and on switch ports that have not carried a packet yet.
	stats *portStats

	pausedSince simtime.Time

	// Cumulative counters exposed to telemetry.
	PauseCount  int64
	PausedTotal simtime.Duration
}

// newEgressPort builds the egress state of port id of n's topology and
// binds its event callbacks.
func newEgressPort(n *Network, id topo.PortID) *egressPort {
	link := n.Topo.LinkAt(id)
	ep := &egressPort{
		node:  id.Node,
		port:  id.Port,
		peer:  n.Topo.PeerOf(id),
		bw:    link.Bandwidth,
		delay: link.Delay,
	}
	ep.txDone = func() { n.txDone(ep) }
	ep.land = func() { n.arrive(ep.peer.Node, ep.peer.Port, ep.wire.pop()) }
	return ep
}

// push enqueues item.
func (e *egressPort) push(item queued) {
	if item.pkt.Kind.Control() {
		e.cq.push(item)
	} else {
		e.q.push(item)
	}
	e.bytes += int64(item.pkt.Size)
}

func (e *egressPort) empty() bool { return e.q.len() == 0 && e.cq.len() == 0 }

// pop dequeues the next packet to serialize: control first.
func (e *egressPort) pop() queued {
	var item queued
	if e.cq.len() > 0 {
		item = e.cq.pop()
	} else {
		item = e.q.pop()
	}
	e.bytes -= int64(item.pkt.Size)
	if item.slot >= 0 {
		e.stats.leave(item.slot)
	}
	return item
}

// PortCounters are the cumulative per-egress telemetry counters a switch
// keeps (§III-C3: "flow-level telemetry (flows' 5-tuple, packet count per
// flow, queue depth, etc.) and port-level telemetry (traffic size between
// ports, number of packets paused by PFC per port, etc.)").
//
// Per-flow counters are indexed by a port-local slot: a flow's first packet
// through the port takes the next slot, in arrival order. The slices alias
// the port's live state — readers must neither modify them nor keep them
// across simulation events. Slot order is an accident of traffic; anything
// that reaches an output is re-ordered by FlowKey first (telemetry does).
type PortCounters struct {
	Flows     []FlowKey // slot → flow
	FlowPkts  []int64   // by slot
	FlowBytes []int64   // by slot
	// Wait accumulates the paper's w(f_i, f_j) as Wait[slot i][slot j]: for
	// every enqueued packet of f_i, the number of f_j packets already
	// queued ahead of it. Rows grow on demand, so row i may be shorter
	// than Flows; the missing entries are zero.
	Wait [][]int64
	// MeterIn is bytes entering this egress per ingress port — the
	// meter(p_i, p_j) term of the e(p_i, p_j) edge weight.
	MeterIn []int64

	Enqueues  int64
	QDepthSum int64 // sum of queue bytes observed at each enqueue
	ECNMarks  int64
}

// flowCount is one entry of a port's queue-occupancy set: n data packets
// of the flow in slot are queued.
type flowCount struct{ slot, n int32 }

// portStats is a switch egress's counters plus the two indexes that keep a
// packet's accounting free of hashing: the network-wide flow id → local
// slot table, and the occupancy set — a handful of entries, scanned.
type portStats struct {
	PortCounters
	slotOf    []int32     // FlowID → slot+1; 0 (or beyond the end) = no slot yet
	occupancy []flowCount // flows with data packets in the queue right now
}

// slot returns the slot of flow id (5-tuple key) at this port, assigning
// the next free one on the flow's first packet here.
func (st *portStats) slot(id FlowID, key FlowKey) int32 {
	if int(id) < len(st.slotOf) && st.slotOf[id] != 0 {
		return st.slotOf[id] - 1
	}
	if grow := int(id) + 1 - len(st.slotOf); grow > 0 {
		st.slotOf = append(st.slotOf, make([]int32, grow)...)
	}
	st.Flows = append(st.Flows, key)
	st.FlowPkts = append(st.FlowPkts, 0)
	st.FlowBytes = append(st.FlowBytes, 0)
	st.Wait = append(st.Wait, nil)
	st.slotOf[id] = int32(len(st.Flows))
	return int32(len(st.Flows)) - 1
}

// waitBehindQueue adds the queue's current occupancy to slot's wait row:
// the arriving packet waits behind every queued data packet of every other
// flow.
func (st *portStats) waitBehindQueue(slot int32) {
	row := st.Wait[slot]
	if grow := len(st.Flows) - len(row); grow > 0 {
		row = append(row, make([]int64, grow)...)
		st.Wait[slot] = row
	}
	for _, fc := range st.occupancy {
		if fc.slot != slot {
			row[fc.slot] += int64(fc.n)
		}
	}
}

// enter counts one more queued data packet for slot.
func (st *portStats) enter(slot int32) {
	for i := range st.occupancy {
		if st.occupancy[i].slot == slot {
			st.occupancy[i].n++
			return
		}
	}
	st.occupancy = append(st.occupancy, flowCount{slot: slot, n: 1})
}

// leave counts one data packet of slot out of the queue.
func (st *portStats) leave(slot int32) {
	q := st.occupancy
	for i := range q {
		if q[i].slot != slot {
			continue
		}
		if q[i].n--; q[i].n == 0 {
			q[i] = q[len(q)-1]
			st.occupancy = q[:len(q)-1]
		}
		return
	}
}

// Switch is the forwarding and accounting state of one switch.
type Switch struct {
	net *Network
	ID  topo.NodeID

	// ingressBytes attributes currently-buffered bytes to the ingress port
	// they arrived on; crossing the pause threshold pauses that upstream
	// link (ingress-based PFC).
	ingressBytes   []int64
	pausedUpstream []bool

	// stormPorts marks ingress ports whose upstream is being force-paused
	// by an injected PFC storm, so organic resume logic leaves them alone.
	stormPorts []bool

	// TTLDrops counts packets dropped here for TTL exhaustion.
	TTLDrops int64
}

func newSwitch(n *Network, id topo.NodeID, ports int) *Switch {
	return &Switch{
		net:            n,
		ID:             id,
		ingressBytes:   make([]int64, ports),
		pausedUpstream: make([]bool, ports),
		stormPorts:     make([]bool, ports),
	}
}

// forward routes pkt out of the switch. ingress is the arrival port, or -1
// for locally injected traffic.
func (s *Switch) forward(pkt *Packet, ingress int) {
	pkt.TTL--
	if pkt.TTL <= 0 {
		s.TTLDrops++
		s.net.Drops[s.ID]++
		return
	}
	out := s.net.Topo.NextHop(s.ID, pkt.To, s.net.pathHash[pkt.FlowID])
	if out < 0 {
		s.net.Drops[s.ID]++
		return
	}
	s.net.enqueue(s.ID, out, ingress, pkt)
}

// noteEnqueue updates telemetry counters and PFC attribution when pkt joins
// egress queue ep having arrived on ingress. It returns the flow slot whose
// queue occupancy pkt now counts toward, or -1 for a control packet.
func (s *Switch) noteEnqueue(ep *egressPort, ingress int, pkt *Packet) int32 {
	st := ep.stats
	if st == nil {
		st = &portStats{}
		st.MeterIn = make([]int64, len(s.ingressBytes))
		ep.stats = st
	}
	slot := st.slot(pkt.FlowID, pkt.Flow)
	st.Enqueues++
	st.QDepthSum += ep.bytes
	st.FlowPkts[slot]++
	st.FlowBytes[slot] += int64(pkt.Size)
	if ingress >= 0 {
		st.MeterIn[ingress] += int64(pkt.Size)
	}

	// Pairwise wait accumulation covers data packets only: control packets
	// (ACK/CNP) are served with strict priority, so they neither wait
	// behind data nor count as packets "in front".
	occupies := int32(-1)
	if !pkt.Kind.Control() {
		if len(st.occupancy) > 0 {
			st.waitBehindQueue(slot)
		}
		st.enter(slot)
		occupies = slot
	}

	// ECN mark data packets joining a deep queue.
	if pkt.Kind == KindData && ep.bytes >= s.net.Cfg.ECNThreshold {
		pkt.ECN = true
		st.ECNMarks++
	}

	// Ingress-based PFC: attribute and maybe pause upstream.
	if ingress >= 0 {
		s.ingressBytes[ingress] += int64(pkt.Size)
		if !s.pausedUpstream[ingress] && s.ingressBytes[ingress] >= s.net.Cfg.PFCPauseThreshold {
			s.pausedUpstream[ingress] = true
			s.net.sendPFC(s.ID, ingress, true, s.busiestEgressFor(ingress), false)
		}
	}
	return occupies
}

// noteDequeue credits PFC attribution when a packet leaves an egress queue.
func (s *Switch) noteDequeue(ep *egressPort, item queued) {
	if item.ingress < 0 {
		return
	}
	in := int(item.ingress)
	s.ingressBytes[in] -= int64(item.pkt.Size)
	if s.pausedUpstream[in] && !s.stormPorts[in] && s.ingressBytes[in] <= s.net.Cfg.PFCResumeThreshold {
		s.pausedUpstream[in] = false
		s.net.sendPFC(s.ID, in, false, ep.port, false)
	}
}

// busiestEgressFor returns the egress port holding the most bytes from the
// given ingress — the "cause" port p_j recorded on a pause event.
func (s *Switch) busiestEgressFor(ingress int) int {
	best, bestBytes := -1, int64(-1)
	for pi, ep := range s.net.egress[s.ID] {
		var b int64
		for _, it := range ep.q.items() {
			if int(it.ingress) == ingress {
				b += int64(it.pkt.Size)
			}
		}
		for _, it := range ep.cq.items() {
			if int(it.ingress) == ingress {
				b += int64(it.pkt.Size)
			}
		}
		if b > bestBytes {
			best, bestBytes = pi, b
		}
	}
	return best
}
