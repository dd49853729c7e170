// Package rdma models the host side of RoCEv2: NIC message transmission in
// fixed-size cells, line-rate start (no slow start — the paper's second
// source of RDMA complexity, §II-A), per-cell ACKs that produce the RTT
// samples monitors consume, and a DCQCN-style reaction point driven by ECN
// marks relayed as CNPs.
package rdma

import (
	"fmt"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// CCKind selects the congestion-control algorithm at the reaction point.
type CCKind uint8

// Congestion-control algorithms (the paper names DCQCN and Swift as the
// deployed options, §I).
const (
	// CCDCQCN is the ECN/CNP-driven DCQCN-lite (default).
	CCDCQCN CCKind = iota
	// CCSwift is a Swift-like delay-based controller: per-ACK RTT against
	// a target derived from the observed base RTT, multiplicative
	// decrease proportional to the excess, additive increase otherwise.
	CCSwift
	// CCNone disables rate control entirely: pure line-rate blasting
	// (ablation).
	CCNone
)

func (c CCKind) String() string {
	switch c {
	case CCDCQCN:
		return "dcqcn"
	case CCSwift:
		return "swift"
	case CCNone:
		return "none"
	default:
		return "cc?"
	}
}

// Config sets NIC and congestion-control behaviour.
type Config struct {
	CellSize int // bytes per data packet ("cell"); see DESIGN.md
	Window   int // max unacked cells in flight (ACK clocking)

	// CC selects the congestion controller.
	CC CCKind
	// SwiftBeta scales the per-flow base RTT into Swift's target delay.
	SwiftBeta float64
	// SwiftMDFactor caps one multiplicative decrease (0.4 = up to -40%).
	SwiftMDFactor float64

	// DCQCN-lite parameters.
	CNPInterval  simtime.Duration // min spacing of CNPs per flow at the NP
	RateIncTimer simtime.Duration // reaction-point recovery period
	Gain         float64          // EWMA gain g for alpha
	MinRateFrac  float64          // floor as a fraction of line rate
	AddIncFrac   float64          // additive increase per timer, fraction of line rate
	DisableDCQCN bool             // if true, always send at line rate
	FastRecoverN int              // rounds of hyper recovery after a cut
}

// DefaultConfig returns the parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		CellSize:      64 << 10,
		Window:        64,
		CC:            CCDCQCN,
		SwiftBeta:     1.5,
		SwiftMDFactor: 0.4,
		CNPInterval:   50 * time.Microsecond,
		RateIncTimer:  55 * time.Microsecond,
		Gain:          1.0 / 16,
		MinRateFrac:   0.01,
		AddIncFrac:    0.02,
		FastRecoverN:  3,
	}
}

// RTTSample is one per-cell round-trip observation delivered to monitors.
type RTTSample struct {
	Flow fabric.FlowKey
	Seq  int64
	RTT  simtime.Duration
	At   simtime.Time
}

// Host is an RDMA endpoint attached to the fabric.
type Host struct {
	K   *sim.Kernel
	Net *fabric.Network
	ID  topo.NodeID
	Cfg Config

	lineRate simtime.Rate

	// In-progress messages, keyed by the network's interned flow id: the
	// packets carry it, so no per-cell path hashes the 5-tuple.
	sends map[fabric.FlowID]*sendState
	recvs map[fabric.FlowID]*recvState

	// OnRTTSample fires at the sender for every ACK received.
	OnRTTSample func(RTTSample)
	// OnRecvComplete fires at the receiver when a message fully arrives.
	OnRecvComplete func(flow fabric.FlowKey, bytes int64)
	// OnSendComplete fires at the sender when every cell is acked.
	OnSendComplete func(flow fabric.FlowKey, bytes int64)
	// OnNotify fires when a Vedrfolnir notification packet arrives.
	OnNotify func(pkt *fabric.Packet)

	// Counters.
	CellsSent, AcksSent, CNPsSent int64
}

type sendState struct {
	flow       fabric.FlowKey
	id         fabric.FlowID
	totalCells int64
	lastCell   int // size of final (possibly short) cell
	nextSeq    int64
	acked      int64
	bytes      int64

	// DCQCN reaction point.
	rate       simtime.Rate
	targetRate simtime.Rate
	alpha      float64
	recoverCnt int

	// Swift reaction point.
	minRTT  simtime.Duration
	lastCut simtime.Time

	nextSendAt simtime.Time
	timerSet   bool
	done       bool

	// pace is the pacing-timer callback, bound once in Send so a rate
	// stall in pump schedules it without allocating a closure.
	pace func()
}

type recvState struct {
	flow    fabric.FlowKey
	got     int64
	bytes   int64
	total   int64 // expected bytes (learned from sender's first cell payload)
	lastCNP simtime.Time
}

// NewHost creates a host NIC and attaches it to the network. It fails on an
// invalid configuration or when id is not a host node of the topology.
func NewHost(k *sim.Kernel, net *fabric.Network, id topo.NodeID, cfg Config) (*Host, error) {
	if cfg.CellSize <= 0 {
		return nil, fmt.Errorf("rdma: CellSize must be positive, got %d", cfg.CellSize)
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	link := net.Topo.LinkAt(topo.PortID{Node: id, Port: 0})
	h := &Host{
		K:        k,
		Net:      net,
		ID:       id,
		Cfg:      cfg,
		lineRate: link.Bandwidth,
		sends:    make(map[fabric.FlowID]*sendState),
		recvs:    make(map[fabric.FlowID]*recvState),
	}
	if err := net.Attach(id, h); err != nil {
		return nil, err
	}
	return h, nil
}

// Send begins transmitting a message of size bytes on the given flow. RDMA
// has no slow start: the flow begins at line rate. It fails if the flow does
// not originate here or is already in flight.
func (h *Host) Send(flow fabric.FlowKey, size int64) error {
	if flow.Src != h.ID {
		return fmt.Errorf("rdma: flow source %d is not host %d", flow.Src, h.ID)
	}
	id := h.Net.Intern(flow)
	if _, dup := h.sends[id]; dup {
		return fmt.Errorf("rdma: duplicate send on flow %v", flow)
	}
	cells := size / int64(h.Cfg.CellSize)
	last := int(size % int64(h.Cfg.CellSize))
	if last > 0 {
		cells++
	} else {
		last = h.Cfg.CellSize
	}
	if cells == 0 {
		cells, last = 1, 1
	}
	st := &sendState{
		flow:       flow,
		id:         id,
		totalCells: cells,
		lastCell:   last,
		bytes:      size,
		rate:       h.lineRate,
		targetRate: h.lineRate,
		nextSendAt: h.K.Now(),
	}
	st.pace = func() {
		st.timerSet = false
		h.pump(st)
	}
	h.sends[id] = st
	h.pump(st)
	return nil
}

// pump injects as many cells as the window and pacing rate allow, and arms
// a timer for the next pacing slot if the window is open but the rate gate
// is not.
func (h *Host) pump(st *sendState) {
	if st.done {
		return
	}
	now := h.K.Now()
	for st.nextSeq < st.totalCells && st.nextSeq-st.acked < int64(h.Cfg.Window) {
		if now < st.nextSendAt {
			if !st.timerSet {
				st.timerSet = true
				h.K.At(st.nextSendAt, st.pace)
			}
			return
		}
		size := h.Cfg.CellSize
		if st.nextSeq == st.totalCells-1 {
			size = st.lastCell
		}
		pkt := &fabric.Packet{
			Kind:   fabric.KindData,
			Flow:   st.flow,
			FlowID: st.id,
			To:     st.flow.Dst,
			Size:   size,
			Seq:    st.nextSeq,
			SentAt: int64(now),
		}
		// Stash total bytes on seq 0 so the receiver knows the message
		// length (stand-in for the RDMA work-request metadata).
		if st.nextSeq == 0 {
			pkt.Payload = st.bytes
		}
		h.Net.Inject(h.ID, pkt)
		h.CellsSent++
		st.nextSeq++
		st.nextSendAt = maxTime(st.nextSendAt, now).Add(st.rate.Transmit(int64(size)))
	}
}

func maxTime(a, b simtime.Time) simtime.Time {
	if a > b {
		return a
	}
	return b
}

// Receive implements fabric.Device.
func (h *Host) Receive(pkt *fabric.Packet, port int) {
	switch pkt.Kind {
	case fabric.KindData:
		h.onData(pkt)
	case fabric.KindAck:
		h.onAck(pkt)
	case fabric.KindCNP:
		h.onCNP(pkt)
	case fabric.KindNotify:
		if h.OnNotify != nil {
			h.OnNotify(pkt)
		}
	}
}

// onData consumes a delivered data cell. The receiver owns the packet from
// here (the fabric keeps no reference once it has landed, and observers
// copy values), so the cell is turned into its ACK in place.
func (h *Host) onData(pkt *fabric.Packet) {
	flow, id, ecn := pkt.Flow, pkt.FlowID, pkt.ECN
	rs := h.recvs[id]
	if rs == nil {
		rs = &recvState{flow: flow, lastCNP: -1 << 62}
		h.recvs[id] = rs
	}
	if pkt.Seq == 0 {
		if total, ok := pkt.Payload.(int64); ok {
			rs.total = total
		}
	}
	rs.got++
	rs.bytes += int64(pkt.Size)

	// Echo an ACK carrying the sender's timestamp (RTT source).
	*pkt = fabric.Packet{
		Kind:   fabric.KindAck,
		Flow:   flow,
		FlowID: id,
		To:     flow.Src,
		Size:   fabric.AckSize,
		Seq:    pkt.Seq,
		SentAt: pkt.SentAt,
	}
	h.Net.Inject(h.ID, pkt)
	h.AcksSent++

	// Congestion-experienced → CNP, rate limited per flow.
	if ecn {
		now := h.K.Now()
		if now.Sub(rs.lastCNP) >= h.Cfg.CNPInterval {
			rs.lastCNP = now
			cnp := &fabric.Packet{
				Kind:   fabric.KindCNP,
				Flow:   flow,
				FlowID: id,
				To:     flow.Src,
				Size:   fabric.CNPSize,
			}
			h.Net.Inject(h.ID, cnp)
			h.CNPsSent++
		}
	}

	if rs.total > 0 && rs.bytes >= rs.total {
		delete(h.recvs, id)
		if h.OnRecvComplete != nil {
			h.OnRecvComplete(flow, rs.bytes)
		}
	}
}

func (h *Host) onAck(pkt *fabric.Packet) {
	st := h.sends[pkt.FlowID]
	if st == nil {
		return
	}
	now := h.K.Now()
	rtt := now.Sub(simtime.Time(pkt.SentAt))
	if h.OnRTTSample != nil {
		h.OnRTTSample(RTTSample{
			Flow: pkt.Flow,
			Seq:  pkt.Seq,
			RTT:  rtt,
			At:   now,
		})
	}
	if h.Cfg.CC == CCSwift {
		h.swiftUpdate(st, rtt, now)
	}
	st.acked++
	if st.acked >= st.totalCells {
		st.done = true
		delete(h.sends, pkt.FlowID)
		if h.OnSendComplete != nil {
			h.OnSendComplete(pkt.Flow, st.bytes)
		}
		return
	}
	h.pump(st)
}

// swiftUpdate applies the Swift-like delay-based control law: one
// multiplicative decrease per RTT when the sampled delay exceeds the
// target, additive increase otherwise.
func (h *Host) swiftUpdate(st *sendState, rtt simtime.Duration, now simtime.Time) {
	if st.minRTT == 0 || rtt < st.minRTT {
		st.minRTT = rtt
	}
	target := simtime.Duration(float64(st.minRTT) * h.Cfg.SwiftBeta)
	if rtt > target {
		// At most one cut per RTT.
		if now.Sub(st.lastCut) < st.minRTT {
			return
		}
		st.lastCut = now
		excess := float64(rtt-target) / float64(rtt)
		cut := 1 - h.Cfg.SwiftMDFactor*excess
		st.rate = simtime.Rate(float64(st.rate) * cut)
		minRate := simtime.Rate(float64(h.lineRate) * h.Cfg.MinRateFrac)
		if st.rate < minRate {
			st.rate = minRate
		}
		return
	}
	st.rate += simtime.Rate(float64(h.lineRate) * h.Cfg.AddIncFrac)
	if st.rate > h.lineRate {
		st.rate = h.lineRate
	}
}

// onCNP applies the DCQCN rate cut and schedules recovery.
func (h *Host) onCNP(pkt *fabric.Packet) {
	if h.Cfg.DisableDCQCN || h.Cfg.CC != CCDCQCN {
		return
	}
	st := h.sends[pkt.FlowID]
	if st == nil {
		return
	}
	st.alpha = (1-h.Cfg.Gain)*st.alpha + h.Cfg.Gain
	st.targetRate = st.rate
	st.rate = simtime.Rate(float64(st.rate) * (1 - st.alpha/2))
	minRate := simtime.Rate(float64(h.lineRate) * h.Cfg.MinRateFrac)
	if st.rate < minRate {
		st.rate = minRate
	}
	st.recoverCnt = 0
	h.armRecovery(st)
}

func (h *Host) armRecovery(st *sendState) {
	h.K.After(h.Cfg.RateIncTimer, func() {
		if st.done {
			return
		}
		st.alpha *= 1 - h.Cfg.Gain
		if st.recoverCnt < h.Cfg.FastRecoverN {
			// Hyper recovery toward the pre-cut rate.
			st.rate = (st.rate + st.targetRate) / 2
			st.recoverCnt++
		} else {
			// Additive probing beyond it.
			st.targetRate += simtime.Rate(float64(h.lineRate) * h.Cfg.AddIncFrac)
			if st.targetRate > h.lineRate {
				st.targetRate = h.lineRate
			}
			st.rate = (st.rate + st.targetRate) / 2
		}
		if st.rate > h.lineRate {
			st.rate = h.lineRate
		}
		if st.rate < st.targetRate || st.rate < h.lineRate {
			h.armRecovery(st)
		}
	})
}
