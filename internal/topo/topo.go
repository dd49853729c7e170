// Package topo models the physical network: nodes (hosts and switches),
// ports, links, and shortest-path ECMP routing over them. It also provides
// the fat-tree builder used by the paper's evaluation (§IV-A) and the
// topology-derived RTT/FCT estimates Vedrfolnir's monitor recomputes before
// each collective step (§III-C2).
package topo

import (
	"fmt"

	"vedrfolnir/internal/simtime"
)

// NodeID identifies a node (host or switch) in a Topology.
type NodeID int32

// None is the invalid NodeID.
const None NodeID = -1

// Kind distinguishes hosts from switches.
type Kind uint8

// Node kinds.
const (
	KindHost Kind = iota
	KindSwitch
)

func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PortID names one port of one node. Ports are dense small integers assigned
// in link-creation order.
type PortID struct {
	Node NodeID
	Port int
}

func (p PortID) String() string { return fmt.Sprintf("n%d.p%d", p.Node, p.Port) }

// Peer describes what is attached to a port.
type Peer struct {
	Link int    // index into Topology.Links
	Node NodeID // remote node
	Port int    // remote port index
}

// Node is a vertex of the topology.
type Node struct {
	ID    NodeID
	Kind  Kind
	Name  string
	Ports []Peer
}

// Link is a full-duplex cable between two ports.
type Link struct {
	A, B      PortID
	Bandwidth simtime.Rate
	Delay     simtime.Duration
}

// Topology is an immutable-after-build network graph plus routing state.
type Topology struct {
	Nodes []Node
	Links []Link

	hosts    []NodeID
	switches []NodeID

	// nextHops[node][host] = candidate egress ports on shortest paths,
	// dense in both NodeIDs; a row is nil until the node has a route.
	nextHops [][][]int
	// hostPort[host] = the single port a host uses (hosts are single-homed).
	dist map[NodeID]map[NodeID]int
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{dist: make(map[NodeID]map[NodeID]int)}
}

// AddNode appends a node and returns its ID.
func (t *Topology) AddNode(kind Kind, name string) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name})
	if kind == KindHost {
		t.hosts = append(t.hosts, id)
	} else {
		t.switches = append(t.switches, id)
	}
	return id
}

// AddLink connects a and b with a new full-duplex link, allocating the next
// free port index on each side, and returns the link index.
func (t *Topology) AddLink(a, b NodeID, bw simtime.Rate, delay simtime.Duration) int {
	if a == b {
		//lint:ignore nopanic topology-construction invariant hit only by builder code with constant shapes
		panic("topo: self link")
	}
	li := len(t.Links)
	pa := len(t.Nodes[a].Ports)
	pb := len(t.Nodes[b].Ports)
	t.Nodes[a].Ports = append(t.Nodes[a].Ports, Peer{Link: li, Node: b, Port: pb})
	t.Nodes[b].Ports = append(t.Nodes[b].Ports, Peer{Link: li, Node: a, Port: pa})
	t.Links = append(t.Links, Link{
		A:         PortID{Node: a, Port: pa},
		B:         PortID{Node: b, Port: pb},
		Bandwidth: bw,
		Delay:     delay,
	})
	return li
}

// Hosts returns the host IDs in creation order.
func (t *Topology) Hosts() []NodeID { return t.hosts }

// Switches returns the switch IDs in creation order.
func (t *Topology) Switches() []NodeID { return t.switches }

// Node returns the node record for id.
func (t *Topology) Node(id NodeID) *Node { return &t.Nodes[id] }

// LinkAt returns the link attached to the given port.
func (t *Topology) LinkAt(p PortID) *Link {
	return &t.Links[t.Nodes[p.Node].Ports[p.Port].Link]
}

// PeerOf returns the node and port on the far end of the given port.
func (t *Topology) PeerOf(p PortID) PortID {
	peer := t.Nodes[p.Node].Ports[p.Port]
	return PortID{Node: peer.Node, Port: peer.Port}
}

// ComputeRoutes builds shortest-path ECMP next-hop tables from every node to
// every host. Call once after the topology is fully built.
func (t *Topology) ComputeRoutes() {
	for _, h := range t.hosts {
		dist := t.bfsFrom(h)
		t.dist[h] = dist
		for _, n := range t.Nodes {
			if n.ID == h {
				continue
			}
			d, ok := dist[n.ID]
			if !ok {
				continue
			}
			var ports []int
			for pi, peer := range n.Ports {
				if pd, ok := dist[peer.Node]; ok && pd == d-1 {
					ports = append(ports, pi)
				}
			}
			t.setNextHops(n.ID, h, ports)
		}
	}
}

// bfsFrom returns hop distances from src to every reachable node.
func (t *Topology) bfsFrom(src NodeID) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, peer := range t.Nodes[cur].Ports {
			if _, seen := dist[peer.Node]; !seen {
				dist[peer.Node] = dist[cur] + 1
				queue = append(queue, peer.Node)
			}
		}
	}
	return dist
}

// NextHops returns the ECMP candidate egress ports at node `at` toward host
// dst. The returned slice is shared; callers must not mutate it.
func (t *Topology) NextHops(at, dst NodeID) []int {
	if uint(at) >= uint(len(t.nextHops)) {
		return nil
	}
	row := t.nextHops[at]
	if uint(dst) >= uint(len(row)) {
		return nil
	}
	return row[dst]
}

// OverrideNextHops replaces the next-hop set at node `at` toward dst.
// Used to inject routing anomalies (loops, load imbalance).
func (t *Topology) OverrideNextHops(at, dst NodeID, ports []int) {
	t.setNextHops(at, dst, ports)
}

// setNextHops stores one routing entry, growing the dense table to the
// current node count first.
func (t *Topology) setNextHops(at, dst NodeID, ports []int) {
	if len(t.nextHops) < len(t.Nodes) {
		t.nextHops = append(t.nextHops, make([][][]int, len(t.Nodes)-len(t.nextHops))...)
	}
	if len(t.nextHops[at]) < len(t.Nodes) {
		t.nextHops[at] = append(t.nextHops[at], make([][]int, len(t.Nodes)-len(t.nextHops[at]))...)
	}
	t.nextHops[at][dst] = ports
}

// HopCount returns the number of links on a shortest path from src to dst,
// or -1 if unreachable.
func (t *Topology) HopCount(src, dst NodeID) int {
	if d, ok := t.dist[dst]; ok {
		if n, ok := d[src]; ok {
			return n
		}
		return -1
	}
	// dst may be a switch; fall back to a BFS from src.
	if d, ok := t.bfsFrom(src)[dst]; ok {
		return d
	}
	return -1
}

// Path returns one concrete shortest path from src host to dst host as the
// sequence of egress PortIDs traversed, choosing among ECMP candidates with
// the supplied hash. It mirrors exactly the choice the fabric's switches
// make, so monitors can predict a flow's path from the topology alone.
func (t *Topology) Path(src, dst NodeID, hash uint64) []PortID {
	if src == dst {
		return nil
	}
	var path []PortID
	cur := src
	for cur != dst {
		ports := t.NextHops(cur, dst)
		if len(ports) == 0 {
			return nil
		}
		p := ports[hash%uint64(len(ports))]
		path = append(path, PortID{Node: cur, Port: p})
		cur = t.Nodes[cur].Ports[p].Node
		if len(path) > len(t.Nodes) {
			return nil // routing loop guard
		}
	}
	return path
}

// EstimateBaseRTT returns the topology-derived round-trip time for a
// probeSize-byte packet answered by an ackSize-byte reply over the ECMP path
// chosen by hash, with empty queues. This is the quantity Vedrfolnir's
// monitor recomputes before each step to set its RTT threshold (§III-C2).
func (t *Topology) EstimateBaseRTT(src, dst NodeID, probeSize, ackSize int, hash uint64) simtime.Duration {
	fwd := t.Path(src, dst, hash)
	rev := t.Path(dst, src, hash)
	var rtt simtime.Duration
	for _, p := range fwd {
		l := t.LinkAt(p)
		rtt += l.Delay + l.Bandwidth.Transmit(int64(probeSize))
	}
	for _, p := range rev {
		l := t.LinkAt(p)
		rtt += l.Delay + l.Bandwidth.Transmit(int64(ackSize))
	}
	return rtt
}

// EstimateFCT returns the ideal flow completion time for a message of size
// bytes from src to dst: base one-way latency plus serialization at the
// bottleneck link along the chosen path. Vedrfolnir derives its detection
// trigger spacing from this value (§III-C2, Fig 5).
func (t *Topology) EstimateFCT(src, dst NodeID, size int64, hash uint64) simtime.Duration {
	path := t.Path(src, dst, hash)
	if len(path) == 0 {
		return 0
	}
	var lat simtime.Duration
	bottleneck := simtime.Rate(0)
	for _, p := range path {
		l := t.LinkAt(p)
		lat += l.Delay
		if bottleneck == 0 || l.Bandwidth < bottleneck {
			bottleneck = l.Bandwidth
		}
	}
	return lat + bottleneck.Transmit(size)
}
