package fabric

import (
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// queued is a packet plus the ingress port that must be credited when it
// leaves the queue (PFC attribution).
type queued struct {
	pkt     *Packet
	ingress int
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

	bytes      int64
	pktsByFlow map[FlowKey]int
	busy       bool
	paused     bool

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
		node:       id.Node,
		port:       id.Port,
		peer:       n.Topo.PeerOf(id),
		bw:         link.Bandwidth,
		delay:      link.Delay,
		pktsByFlow: make(map[FlowKey]int),
	}
	ep.txDone = func() { n.txDone(ep) }
	ep.land = func() { n.arrive(ep.peer.Node, ep.peer.Port, ep.wire.pop()) }
	return ep
}

// control reports whether a packet rides the strict-priority control queue
// (ACKs and CNPs, as RoCE NICs and switches prioritize them in practice).
func control(k Kind) bool { return k == KindAck || k == KindCNP }

// push enqueues pkt. pktsByFlow tracks data packets only: control packets
// (ACK/CNP) are served with strict priority, so they neither wait behind
// data nor count as packets "in front" for the w(f_i, f_j) matrix.
func (e *egressPort) push(pkt *Packet, ingress int) {
	if control(pkt.Kind) {
		e.cq.push(queued{pkt: pkt, ingress: ingress})
	} else {
		e.q.push(queued{pkt: pkt, ingress: ingress})
		e.pktsByFlow[pkt.Flow]++
	}
	e.bytes += int64(pkt.Size)
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
	if !control(item.pkt.Kind) {
		if c := e.pktsByFlow[item.pkt.Flow]; c <= 1 {
			delete(e.pktsByFlow, item.pkt.Flow)
		} else {
			e.pktsByFlow[item.pkt.Flow] = c - 1
		}
	}
	return item
}

// PortStats are the cumulative per-egress telemetry counters a switch keeps
// (§III-C3: "flow-level telemetry (flows' 5-tuple, packet count per flow,
// queue depth, etc.) and port-level telemetry (traffic size between ports,
// number of packets paused by PFC per port, etc.)").
type PortStats struct {
	FlowPkts  map[FlowKey]int64
	FlowBytes map[FlowKey]int64
	// Wait accumulates the paper's w(f_i, f_j): for every enqueued packet
	// of f_i, the number of f_j packets already queued ahead of it.
	Wait map[FlowKey]map[FlowKey]int64
	// MeterIn is bytes entering this egress per ingress port — the
	// meter(p_i, p_j) term of the e(p_i, p_j) edge weight.
	MeterIn map[int]int64

	Enqueues  int64
	QDepthSum int64 // sum of queue bytes observed at each enqueue
	ECNMarks  int64
}

func newPortStats() *PortStats {
	return &PortStats{
		FlowPkts:  make(map[FlowKey]int64),
		FlowBytes: make(map[FlowKey]int64),
		Wait:      make(map[FlowKey]map[FlowKey]int64),
		MeterIn:   make(map[int]int64),
	}
}

// Switch is the forwarding and accounting state of one switch.
type Switch struct {
	net   *Network
	ID    topo.NodeID
	Stats []*PortStats // per egress port

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
	s := &Switch{
		net:            n,
		ID:             id,
		Stats:          make([]*PortStats, ports),
		ingressBytes:   make([]int64, ports),
		pausedUpstream: make([]bool, ports),
		stormPorts:     make([]bool, ports),
	}
	for i := range s.Stats {
		s.Stats[i] = newPortStats()
	}
	return s
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
	ports := s.net.Topo.NextHops(s.ID, pkt.To)
	if len(ports) == 0 {
		s.net.Drops[s.ID]++
		return
	}
	if pkt.pathHash == 0 {
		pkt.pathHash = pkt.Flow.PathHash()
	}
	out := ports[pkt.pathHash%uint64(len(ports))]
	s.net.enqueue(s.ID, out, ingress, pkt)
}

// noteEnqueue updates telemetry counters and PFC attribution when pkt joins
// egress queue ep having arrived on ingress.
func (s *Switch) noteEnqueue(ep *egressPort, ingress int, pkt *Packet) {
	st := s.Stats[ep.port]
	st.Enqueues++
	st.QDepthSum += ep.bytes
	st.FlowPkts[pkt.Flow]++
	st.FlowBytes[pkt.Flow] += int64(pkt.Size)
	if ingress >= 0 {
		st.MeterIn[ingress] += int64(pkt.Size)
	}

	// Pairwise wait accumulation: this data packet waits behind every
	// data packet currently in the queue, grouped by flow. Control
	// packets skip the matrix (they are served with priority).
	if !control(pkt.Kind) && len(ep.pktsByFlow) > 0 {
		row := st.Wait[pkt.Flow]
		if row == nil {
			row = make(map[FlowKey]int64)
			st.Wait[pkt.Flow] = row
		}
		for fk, cnt := range ep.pktsByFlow {
			if fk == pkt.Flow {
				continue
			}
			row[fk] += int64(cnt)
		}
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
}

// noteDequeue credits PFC attribution when a packet leaves an egress queue.
func (s *Switch) noteDequeue(ep *egressPort, item queued) {
	if item.ingress < 0 {
		return
	}
	s.ingressBytes[item.ingress] -= int64(item.pkt.Size)
	if s.pausedUpstream[item.ingress] && !s.stormPorts[item.ingress] &&
		s.ingressBytes[item.ingress] <= s.net.Cfg.PFCResumeThreshold {
		s.pausedUpstream[item.ingress] = false
		s.net.sendPFC(s.ID, item.ingress, false, ep.port, false)
	}
}

// busiestEgressFor returns the egress port holding the most bytes from the
// given ingress — the "cause" port p_j recorded on a pause event.
func (s *Switch) busiestEgressFor(ingress int) int {
	best, bestBytes := -1, int64(-1)
	for pi, ep := range s.net.egress[s.ID] {
		var b int64
		for _, it := range ep.q.items() {
			if it.ingress == ingress {
				b += int64(it.pkt.Size)
			}
		}
		for _, it := range ep.cq.items() {
			if it.ingress == ingress {
				b += int64(it.pkt.Size)
			}
		}
		if b > bestBytes {
			best, bestBytes = pi, b
		}
	}
	return best
}

// UpstreamPaused reports whether this switch currently holds the upstream
// of ingress port i paused.
func (s *Switch) UpstreamPaused(i int) bool { return s.pausedUpstream[i] }

// IngressBytes returns the bytes currently attributed to ingress port i.
func (s *Switch) IngressBytes(i int) int64 { return s.ingressBytes[i] }
