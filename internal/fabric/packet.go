// Package fabric simulates the RoCEv2 data plane: store-and-forward switches
// with per-egress FIFO queues, ingress-attributed PFC pause/resume, ECN
// marking, ECMP forwarding, and the per-port counters (flow statistics,
// pairwise queue-wait weights, inter-port traffic meters, PFC event logs)
// that Vedrfolnir's telemetry collection reads (§III-C3).
package fabric

import (
	"fmt"

	"vedrfolnir/internal/topo"
)

// FlowKey is the 5-tuple identifying a flow. Src/Dst are node IDs standing
// in for IP addresses; ports and protocol disambiguate concurrent flows
// between the same pair of hosts.
type FlowKey struct {
	Src, Dst         topo.NodeID
	SrcPort, DstPort uint16
	Proto            uint8
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%d:%d>%d:%d/%d", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Reverse returns the key of the reverse direction (ACKs, CNPs).
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Hash returns a deterministic 64-bit hash of the 5-tuple (FNV-1a). Switches
// use it for ECMP selection, so all packets of a flow follow one path.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(uint32(k.Src)))
	mix(uint64(uint32(k.Dst)))
	mix(uint64(k.SrcPort)<<32 | uint64(k.DstPort)<<16 | uint64(k.Proto))
	return h
}

// PathHash is the value used for ECMP decisions for this flow. Forward
// traffic and its reverse (ACK) traffic hash identically so both directions
// share a symmetric path, as RoCE deployments typically configure.
func (k FlowKey) PathHash() uint64 {
	if k.Src > k.Dst || (k.Src == k.Dst && k.SrcPort > k.DstPort) {
		return k.Reverse().Hash()
	}
	return k.Hash()
}

// FlowID is a flow's dense handle within one Network: Intern assigns them
// from 1 in first-seen order, and 0 on a Packet means "not interned yet".
// The per-packet tables (ECMP hash, per-port counters, host send/receive
// state) are indexed by it, so a hop never hashes the 5-tuple. Ids never
// leave the run — every output names flows by FlowKey.
type FlowID int32

// Kind enumerates the packet types the fabric moves.
type Kind uint8

// Packet kinds.
const (
	KindData   Kind = iota // RDMA payload cell
	KindAck                // per-cell acknowledgement (RTT source)
	KindCNP                // congestion notification packet (DCQCN)
	KindPause              // PFC PAUSE frame (link-local)
	KindResume             // PFC RESUME frame (link-local)
	KindNotify             // Vedrfolnir notification packet (highest priority)
)

// Control reports whether packets of this kind ride the strict-priority
// control queue (ACKs and CNPs, as RoCE NICs and switches prioritize them
// in practice).
func (kd Kind) Control() bool { return kd == KindAck || kd == KindCNP }

func (kd Kind) String() string {
	switch kd {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindCNP:
		return "cnp"
	case KindPause:
		return "pause"
	case KindResume:
		return "resume"
	case KindNotify:
		return "notify"
	default:
		return fmt.Sprintf("kind(%d)", uint8(kd))
	}
}

// Control packet wire sizes in bytes.
const (
	AckSize    = 64
	CNPSize    = 64
	PFCSize    = 64
	NotifySize = 64
)

// Packet is one unit moving through the fabric. Data packets are "cells" —
// fixed-size quanta of an RDMA message (see DESIGN.md: cell size only
// quantizes timing, all thresholds are byte-denominated).
type Packet struct {
	Kind Kind
	Flow FlowKey // flow attribution for telemetry
	// FlowID is Flow's interned id. Senders that hold it set it (a packet
	// rewritten in place must carry it over); Inject fills in a zero.
	FlowID FlowID
	To     topo.NodeID // routing destination
	Size   int         // wire size in bytes
	Seq    int64       // cell index; echoed by ACKs
	TTL    int
	ECN    bool // congestion-experienced mark

	// SentAt is stamped by the sender for RTT measurement on the ACK echo.
	SentAt int64
	// Payload carries control information (e.g. notification contents).
	Payload any
}

// DefaultTTL bounds forwarding hops; loops exhaust it and drop.
const DefaultTTL = 64
