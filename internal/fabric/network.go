package fabric

import (
	"fmt"

	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// Config sets the data-plane behaviour shared by all switches.
type Config struct {
	// PFCPauseThreshold pauses an upstream link when the bytes attributed
	// to its ingress exceed this value (lossless operation).
	PFCPauseThreshold int64
	// PFCResumeThreshold resumes the upstream link when attributed bytes
	// fall to or below this value. Must be < PFCPauseThreshold.
	PFCResumeThreshold int64
	// ECNThreshold marks data packets CE when the egress queue they join
	// already holds at least this many bytes (DCQCN's Kmin≈Kmax simplification).
	ECNThreshold int64
	// TTL for forwarded packets; loops exhaust it.
	TTL int
}

// DefaultConfig mirrors shallow-buffered 100 Gbps RDMA switches, scaled to
// the simulator's 64 KiB default cell: pause at 4 cells of headroom, resume
// at half, mark ECN from 2 cells.
func DefaultConfig() Config {
	return Config{
		PFCPauseThreshold:  256 << 10,
		PFCResumeThreshold: 128 << 10,
		ECNThreshold:       128 << 10,
		TTL:                DefaultTTL,
	}
}

// Device consumes packets arriving at a node. Hosts (RDMA NICs) implement
// this; switches are internal to the fabric.
type Device interface {
	Receive(pkt *Packet, port int)
}

// Network binds a topology to running devices and simulates packet motion.
type Network struct {
	K    *sim.Kernel
	Topo *topo.Topology
	Cfg  Config

	devices  []Device
	switches []*Switch // indexed by NodeID; nil for hosts
	egress   [][]*egressPort

	// The flow intern table: the one place a 5-tuple is hashed. pathHash
	// holds each flow's FlowKey.PathHash — the ECMP selector at every hop —
	// by FlowID; entry 0 is the "not interned" placeholder.
	flowIDs  map[FlowKey]FlowID
	pathHash []uint64

	// PFCLog records every pause/resume edge for provenance tracing.
	PFCLog []PFCEvent

	// Drops counts TTL-exhausted packets per switch (loop signature).
	Drops map[topo.NodeID]int64

	// Observer, when set, receives every queue transition — the feed for
	// the replay logs (internal/replay).
	Observer QueueObserver

	// Tap, when set, decides the fate of every control packet routed
	// through DeliverControl (fault injection). Nil delivers exactly one
	// on-time copy, identical to the pre-tap behaviour.
	Tap ControlTap

	// tForward is the wall-time stage timer around switch forwarding
	// decisions; nil (the default) no-ops and the packet outcome is
	// identical either way.
	tForward *obs.Timer
}

// SetStages installs wall-time stage timers on the fabric hot path
// (perf observability); a nil bundle disables them.
func (n *Network) SetStages(st *obs.Stages) {
	if st == nil {
		n.tForward = nil
		return
	}
	n.tForward = st.FabricForward
}

// Intern returns k's FlowID, assigning the next one the first time k is
// seen. Senders intern a flow once and stamp the id on every packet.
func (n *Network) Intern(k FlowKey) FlowID {
	if id, ok := n.flowIDs[k]; ok {
		return id
	}
	id := FlowID(len(n.pathHash))
	n.pathHash = append(n.pathHash, k.PathHash())
	n.flowIDs[k] = id
	return id
}

// ControlTap decides a control packet's fate: each returned element is one
// delivered copy's extra latency on top of the path latency; an empty (or
// nil) slice drops the packet. internal/chaos implements this.
type ControlTap func(from, to topo.NodeID, pkt *Packet) []simtime.Duration

// QueueObserver consumes every packet joining (enqueue) or leaving an
// egress queue. ingress is the port the packet arrived on at node, -1 when
// it was generated there. pkt is the network's own and is rewritten as it
// travels: observers copy what they keep.
type QueueObserver interface {
	QueueEvent(node topo.NodeID, port, ingress int, enqueue bool, pkt *Packet, at simtime.Time)
}

// PFCEvent is one pause or resume crossing a link, as needed for the
// e(p_i, p_j) edges of the provenance graph: Upstream is the halted egress
// port p_i; CauseEgress is the congested downstream egress p_j.
type PFCEvent struct {
	At          simtime.Time
	Pause       bool
	Upstream    topo.PortID // egress port being paused/resumed
	Downstream  topo.NodeID // switch that sent the PFC frame
	IngressPort int         // ingress of Downstream that crossed threshold
	CauseEgress int         // most-loaded egress of Downstream at that time
	Injected    bool        // true when generated by a PFC storm injector
}

// NewNetwork wires a network over t. Attach host devices before running.
func NewNetwork(k *sim.Kernel, t *topo.Topology, cfg Config) *Network {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	n := &Network{
		K:        k,
		Topo:     t,
		Cfg:      cfg,
		devices:  make([]Device, len(t.Nodes)),
		switches: make([]*Switch, len(t.Nodes)),
		egress:   make([][]*egressPort, len(t.Nodes)),
		Drops:    make(map[topo.NodeID]int64),
		flowIDs:  make(map[FlowKey]FlowID),
		pathHash: make([]uint64, 1),
	}
	for _, node := range t.Nodes {
		ports := make([]*egressPort, len(node.Ports))
		for i := range ports {
			ports[i] = newEgressPort(n, topo.PortID{Node: node.ID, Port: i})
		}
		n.egress[node.ID] = ports
		if node.Kind == topo.KindSwitch {
			n.switches[node.ID] = newSwitch(n, node.ID, len(node.Ports))
		}
	}
	return n
}

// ECNMarksTotal sums the CE marks applied across every switch egress —
// the fabric-level congestion signal the observability layer snapshots
// after a run.
func (n *Network) ECNMarksTotal() int64 {
	var total int64
	for node, sw := range n.switches {
		if sw == nil {
			continue
		}
		for _, ep := range n.egress[node] {
			if ep.stats != nil {
				total += ep.stats.ECNMarks
			}
		}
	}
	return total
}

// Attach registers the device handling packets that arrive at a host node.
// Only host nodes accept devices; attaching to a switch is an error.
func (n *Network) Attach(node topo.NodeID, d Device) error {
	if n.Topo.Node(node).Kind != topo.KindHost {
		return fmt.Errorf("fabric: Attach to non-host node %d", node)
	}
	n.devices[node] = d
	return nil
}

// SwitchAt returns the switch state for a switch node (nil for hosts).
func (n *Network) SwitchAt(node topo.NodeID) *Switch { return n.switches[node] }

// Egress exposes a node's egress port state read-only (telemetry, tests).
func (n *Network) Egress(node topo.NodeID, port int) EgressView {
	return EgressView{p: n.egress[node][port]}
}

// Inject hands pkt to node's forwarding logic as if it had just been
// generated there: hosts enqueue on their single uplink, switches route it.
func (n *Network) Inject(node topo.NodeID, pkt *Packet) {
	if pkt.TTL == 0 {
		pkt.TTL = n.Cfg.TTL
	}
	if pkt.FlowID == 0 {
		pkt.FlowID = n.Intern(pkt.Flow)
	}
	if n.switches[node] != nil {
		t0 := n.tForward.Begin()
		n.switches[node].forward(pkt, -1)
		n.tForward.End(t0)
		return
	}
	n.enqueue(node, 0, -1, pkt)
}

// DeliverControl moves a highest-priority control packet from one host to
// another without touching the data queues, modelling the paper's
// "assigned the highest priority to avoid being affected by network
// congestion" notification packets. Latency is the path's propagation plus
// per-hop serialization of the small frame. It returns the hop count so the
// caller can account bandwidth overhead.
func (n *Network) DeliverControl(from, to topo.NodeID, pkt *Packet) int {
	path := n.Topo.Path(from, to, pkt.Flow.PathHash())
	var lat simtime.Duration
	for _, p := range path {
		l := n.Topo.LinkAt(p)
		lat += l.Delay + l.Bandwidth.Transmit(int64(pkt.Size))
	}
	dst := to
	extras := []simtime.Duration{0}
	if n.Tap != nil {
		extras = n.Tap(from, to, pkt)
	}
	for _, extra := range extras {
		n.K.After(lat+extra, func() {
			if d := n.devices[dst]; d != nil {
				d.Receive(pkt, -1)
			}
		})
	}
	return len(path)
}

// enqueue places pkt on the egress queue (node, port). ingress is the port
// the packet arrived on (-1 when locally generated) for PFC attribution.
func (n *Network) enqueue(node topo.NodeID, port, ingress int, pkt *Packet) {
	ep := n.egress[node][port]
	item := queued{pkt: pkt, ingress: int32(ingress), slot: -1}
	if sw := n.switches[node]; sw != nil {
		item.slot = sw.noteEnqueue(ep, ingress, pkt)
	}
	if n.Observer != nil {
		n.Observer.QueueEvent(node, port, ingress, true, pkt, n.K.Now())
	}
	ep.push(item)
	n.tryTransmit(ep)
}

// tryTransmit starts serializing the head-of-line packet if the port is
// idle and not paused.
func (n *Network) tryTransmit(ep *egressPort) {
	if ep.busy || ep.paused || ep.empty() {
		return
	}
	ep.busy = true
	item := ep.pop()
	ep.sending = item
	if n.Observer != nil {
		n.Observer.QueueEvent(ep.node, ep.port, int(item.ingress), false, item.pkt, n.K.Now())
	}
	// Data leaving its origin NIC gets its RTT timestamp here — per-cell
	// RTT measures the network, not the sender's own queue ahead of the
	// cell (hardware NICs timestamp at wire departure).
	if n.switches[ep.node] == nil && item.pkt.Kind == KindData {
		item.pkt.SentAt = int64(n.K.Now())
	}
	n.K.After(ep.bw.Transmit(int64(item.pkt.Size)), ep.txDone)
}

// txDone runs when ep finishes serializing a packet: the packet starts
// crossing the link and the port moves on to the next one.
func (n *Network) txDone(ep *egressPort) {
	ep.busy = false
	item := ep.sending
	ep.sending = queued{}
	if sw := n.switches[ep.node]; sw != nil {
		sw.noteDequeue(ep, item)
	}
	ep.wire.push(item.pkt)
	n.K.After(ep.delay, ep.land)
	n.tryTransmit(ep)
}

// arrive handles a packet landing at a node's ingress.
func (n *Network) arrive(node topo.NodeID, port int, pkt *Packet) {
	switch pkt.Kind {
	case KindPause, KindResume:
		n.setPaused(node, port, pkt.Kind == KindPause)
		return
	}
	if sw := n.switches[node]; sw != nil {
		t0 := n.tForward.Begin()
		sw.forward(pkt, port)
		n.tForward.End(t0)
		return
	}
	if d := n.devices[node]; d != nil {
		d.Receive(pkt, port)
	}
}

// setPaused pauses or resumes the egress (node, port) in response to a PFC
// frame received on that port's link.
func (n *Network) setPaused(node topo.NodeID, port int, paused bool) {
	ep := n.egress[node][port]
	if ep.paused == paused {
		return
	}
	now := n.K.Now()
	if paused {
		ep.pausedSince = now
	} else {
		ep.PausedTotal += now.Sub(ep.pausedSince)
	}
	ep.paused = paused
	if paused {
		ep.PauseCount++
	}
	if !paused {
		n.tryTransmit(ep)
	}
}

// sendPFC emits a pause/resume frame from (node, ingressPort) to the
// upstream device on that link, recording it in the PFC log.
func (n *Network) sendPFC(node topo.NodeID, ingressPort int, pause bool, causeEgress int, injected bool) {
	up := n.Topo.PeerOf(topo.PortID{Node: node, Port: ingressPort})
	link := n.Topo.LinkAt(topo.PortID{Node: node, Port: ingressPort})
	n.PFCLog = append(n.PFCLog, PFCEvent{
		At:          n.K.Now(),
		Pause:       pause,
		Upstream:    up,
		Downstream:  node,
		IngressPort: ingressPort,
		CauseEgress: causeEgress,
		Injected:    injected,
	})
	kind := KindResume
	if pause {
		kind = KindPause
	}
	delay := link.Delay + link.Bandwidth.Transmit(int64(PFCSize))
	n.K.After(delay, func() {
		n.arrive(up.Node, up.Port, &Packet{Kind: kind, Size: PFCSize})
	})
}

// EgressView is a read-only window on an egress port's state for telemetry
// and tests.
type EgressView struct{ p *egressPort }

// QueuedBytes returns the bytes currently queued.
func (v EgressView) QueuedBytes() int64 { return v.p.bytes }

// QueuedPkts returns the data packets currently queued (control packets
// ride their own strict-priority queue and are not counted).
func (v EgressView) QueuedPkts() int64 { return int64(v.p.q.len()) }

// Paused reports whether the port is currently PFC-paused.
func (v EgressView) Paused() bool { return v.p.paused }

// PauseCount returns how many pause edges this port has seen.
func (v EgressView) PauseCount() int64 { return v.p.PauseCount }

// Counters returns the port's cumulative telemetry counters: all zero for
// a host NIC or a switch port that has carried nothing.
func (v EgressView) Counters() PortCounters {
	if v.p.stats == nil {
		return PortCounters{}
	}
	return v.p.stats.PortCounters
}

// PausedFor returns the cumulative paused duration.
func (v EgressView) PausedFor(now simtime.Time) simtime.Duration {
	d := v.p.PausedTotal
	if v.p.paused {
		d += now.Sub(v.p.pausedSince)
	}
	return d
}
