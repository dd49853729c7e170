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
	// dist[host][node] = hop count from node to host, dense in both
	// NodeIDs, -1 when unreachable; a row is nil for a switch (HopCount
	// runs a BFS toward those).
	dist [][]int
}

// New returns an empty topology.
func New() *Topology { return &Topology{} }

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
	t.dist = make([][]int, len(t.Nodes))
	queue := make([]NodeID, 0, len(t.Nodes))
	for _, h := range t.hosts {
		dist := t.bfsFrom(h, queue)
		t.dist[h] = dist
		for _, n := range t.Nodes {
			if n.ID == h {
				continue
			}
			d := dist[n.ID]
			if d < 0 {
				continue
			}
			var ports []int
			for pi, peer := range n.Ports {
				if dist[peer.Node] == d-1 {
					ports = append(ports, pi)
				}
			}
			t.setNextHops(n.ID, h, ports)
		}
	}
}

// bfsFrom returns hop distances from src to every node, indexed by NodeID,
// with -1 for an unreachable one. queue is scratch space (nil is fine); its
// contents are overwritten.
func (t *Topology) bfsFrom(src NodeID, queue []NodeID) []int {
	dist := make([]int, len(t.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		for _, peer := range t.Nodes[cur].Ports {
			if dist[peer.Node] < 0 {
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

// NextHop is the one ECMP choice: the egress port at node `at` toward
// host dst for a flow whose path hash is hash, or -1 when `at` has no
// route to dst. Path and the fabric's switches both call it, so a path
// predicted from the topology is the path packets take.
func (t *Topology) NextHop(at, dst NodeID, hash uint64) int {
	ports := t.NextHops(at, dst)
	if len(ports) == 0 {
		return -1
	}
	return ports[hash%uint64(len(ports))]
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
// or -1 if unreachable or either is not a node. Only tests call it: it is
// the breadth-first oracle the path tests hold NextHop's routes to.
func (t *Topology) HopCount(src, dst NodeID) int {
	if uint(src) >= uint(len(t.Nodes)) || uint(dst) >= uint(len(t.Nodes)) {
		return -1
	}
	if uint(dst) < uint(len(t.dist)) && t.dist[dst] != nil {
		if row := t.dist[dst]; uint(src) < uint(len(row)) {
			return row[src]
		}
		return -1 // src was added after ComputeRoutes: not in the table
	}
	// dst may be a switch; fall back to a BFS from src.
	return t.bfsFrom(src, nil)[dst]
}

// Path returns one concrete shortest path from src host to dst host as the
// sequence of egress PortIDs traversed, choosing among ECMP candidates with
// the supplied hash. Each hop is NextHop, the choice the fabric's switches
// make, so monitors can predict a flow's path from the topology alone.
func (t *Topology) Path(src, dst NodeID, hash uint64) []PortID {
	if src == dst {
		return nil
	}
	var path []PortID
	cur := src
	for cur != dst {
		p := t.NextHop(cur, dst, hash)
		if p < 0 {
			return nil
		}
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
