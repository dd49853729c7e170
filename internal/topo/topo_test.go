package topo

import (
	"testing"
	"testing/quick"
	"time"

	"vedrfolnir/internal/simtime"
)

// line builds host0 -- sw -- host1 with the given bandwidth/delay.
func line(t *testing.T) (*Topology, NodeID, NodeID, NodeID) {
	t.Helper()
	tp := New()
	h0 := tp.AddNode(KindHost, "h0")
	h1 := tp.AddNode(KindHost, "h1")
	sw := tp.AddNode(KindSwitch, "sw")
	tp.AddLink(h0, sw, 100*simtime.Gbps, time.Microsecond)
	tp.AddLink(h1, sw, 100*simtime.Gbps, time.Microsecond)
	tp.ComputeRoutes()
	return tp, h0, h1, sw
}

func TestLineRouting(t *testing.T) {
	tp, h0, h1, sw := line(t)
	hops := tp.NextHops(sw, h1)
	if len(hops) != 1 {
		t.Fatalf("nexthops at sw toward h1 = %v, want 1", hops)
	}
	path := tp.Path(h0, h1, 0)
	if len(path) != 2 {
		t.Fatalf("path len = %d, want 2 (host uplink + switch egress)", len(path))
	}
	if path[0].Node != h0 || path[1].Node != sw {
		t.Fatalf("path = %v", path)
	}
	if tp.HopCount(h0, h1) != 2 {
		t.Fatalf("HopCount = %d, want 2", tp.HopCount(h0, h1))
	}
}

// TestHopCountContract pins HopCount's answers off the host-to-host path:
// toward a switch (the BFS fallback), toward an unreachable host, and -1
// for ids that name no node, on either side.
func TestHopCountContract(t *testing.T) {
	tp, h0, h1, sw := line(t)
	lone := tp.AddNode(KindHost, "lone") // a host with no links
	tp.ComputeRoutes()
	cases := []struct {
		src, dst NodeID
		want     int
	}{
		{h0, h0, 0},
		{h1, h0, 2},
		{sw, h1, 1},
		{h0, sw, 1},
		{sw, sw, 0},
		{h0, lone, -1},
		{lone, h1, -1},
		{lone, sw, -1},
		{-1, h1, -1},
		{NodeID(len(tp.Nodes)), h1, -1},
		{h0, -1, -1},
		{h0, NodeID(len(tp.Nodes)), -1},
		{NodeID(len(tp.Nodes)), sw, -1},
	}
	for _, c := range cases {
		if got := tp.HopCount(c.src, c.dst); got != c.want {
			t.Errorf("HopCount(%d, %d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
	late := tp.AddNode(KindSwitch, "late") // after ComputeRoutes: shorter rows
	if got := tp.HopCount(late, h1); got != -1 {
		t.Errorf("HopCount(late, h1) = %d, want -1", got)
	}
}

func TestPeerOf(t *testing.T) {
	tp, h0, _, sw := line(t)
	got := tp.PeerOf(PortID{Node: h0, Port: 0})
	if got.Node != sw {
		t.Fatalf("PeerOf(h0.p0).Node = %v, want %v", got.Node, sw)
	}
	back := tp.PeerOf(got)
	if back.Node != h0 || back.Port != 0 {
		t.Fatalf("PeerOf not symmetric: %v", back)
	}
}

func TestEstimateBaseRTT(t *testing.T) {
	tp, h0, h1, _ := line(t)
	// 2 hops each way at 1µs delay; 1250B fwd = 100ns/hop, 50B ack = 4ns/hop.
	got := tp.EstimateBaseRTT(h0, h1, 1250, 50, 0)
	want := 4*time.Microsecond + 2*100*time.Nanosecond + 2*4*time.Nanosecond
	if got != want {
		t.Fatalf("RTT = %v, want %v", got, want)
	}
}

func TestEstimateFCT(t *testing.T) {
	tp, h0, h1, _ := line(t)
	// 1 MB at 100Gbps bottleneck = 80µs serialization + 2µs latency.
	got := tp.EstimateFCT(h0, h1, 1_000_000, 0)
	want := 2*time.Microsecond + 80*time.Microsecond
	if got != want {
		t.Fatalf("FCT = %v, want %v", got, want)
	}
}

func TestFatTreeShape(t *testing.T) {
	ft := PaperFatTree()
	if got := len(ft.Switches()); got != 20 {
		t.Fatalf("switches = %d, want 20", got)
	}
	if got := len(ft.Hosts()); got != 16 {
		t.Fatalf("hosts = %d, want 16", got)
	}
	if got := len(ft.Core); got != 4 {
		t.Fatalf("core = %d, want 4", got)
	}
	for pod := 0; pod < 4; pod++ {
		if len(ft.Agg[pod]) != 2 || len(ft.Edge[pod]) != 2 {
			t.Fatalf("pod %d: agg=%d edge=%d, want 2/2", pod, len(ft.Agg[pod]), len(ft.Edge[pod]))
		}
	}
	// Every switch must have exactly K=4 ports; hosts exactly 1.
	for _, s := range ft.Switches() {
		if got := len(ft.Node(s).Ports); got != 4 {
			t.Fatalf("switch %s has %d ports, want 4", ft.Node(s).Name, got)
		}
	}
	for _, h := range ft.Hosts() {
		if got := len(ft.Node(h).Ports); got != 1 {
			t.Fatalf("host %s has %d ports, want 1", ft.Node(h).Name, got)
		}
	}
}

func TestFatTreeECMP(t *testing.T) {
	ft := PaperFatTree()
	hosts := ft.Hosts()
	// Cross-pod pairs have 2 ECMP uplinks at edge and 2 at agg.
	src, dst := hosts[0], hosts[15]
	edge, _ := ft.EdgeOf(src)
	if got := len(ft.NextHops(edge, dst)); got != 2 {
		t.Fatalf("edge uplink ECMP width = %d, want 2", got)
	}
	// Same-edge pair: exactly one next hop (the host port).
	sameEdge := ft.HostsByEdge[0][0]
	if got := len(ft.NextHops(edge, sameEdge[1])); got != 1 {
		t.Fatalf("same-edge next hops = %d, want 1", got)
	}
}

func TestFatTreeHopCounts(t *testing.T) {
	ft := PaperFatTree()
	h := ft.HostsByEdge
	cases := []struct {
		a, b NodeID
		want int
	}{
		{h[0][0][0], h[0][0][1], 2}, // same edge
		{h[0][0][0], h[0][1][0], 4}, // same pod, different edge
		{h[0][0][0], h[1][0][0], 6}, // cross pod
	}
	for _, c := range cases {
		if got := ft.HopCount(c.a, c.b); got != c.want {
			t.Fatalf("HopCount(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: for any host pair and any hash, Path yields a valid walk ending
// at the destination whose length equals HopCount.
func TestPathValidity(t *testing.T) {
	ft := PaperFatTree()
	hosts := ft.Hosts()
	f := func(a, b uint8, hash uint64) bool {
		src := hosts[int(a)%len(hosts)]
		dst := hosts[int(b)%len(hosts)]
		if src == dst {
			return ft.Path(src, dst, hash) == nil
		}
		path := ft.Path(src, dst, hash)
		if len(path) != ft.HopCount(src, dst) {
			return false
		}
		cur := src
		for _, p := range path {
			if p.Node != cur {
				return false
			}
			cur = ft.PeerOf(p).Node
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ECMP hash diversity — across hashes 0..3 a cross-pod pair uses
// more than one core switch.
func TestECMPDiversity(t *testing.T) {
	ft := PaperFatTree()
	src, dst := ft.Hosts()[0], ft.Hosts()[15]
	cores := map[NodeID]bool{}
	for hash := uint64(0); hash < 4; hash++ {
		for _, p := range ft.Path(src, dst, hash) {
			for _, c := range ft.Core {
				if p.Node == c {
					cores[c] = true
				}
			}
		}
	}
	if len(cores) < 2 {
		t.Fatalf("ECMP uses %d cores across 4 hashes, want >= 2", len(cores))
	}
}

func TestOverrideNextHopsCreatesLoop(t *testing.T) {
	ft := PaperFatTree()
	src, dst := ft.Hosts()[0], ft.Hosts()[15]
	path := ft.Path(src, dst, 0)
	if len(path) != 6 {
		t.Fatalf("setup: path len %d", len(path))
	}
	// Point the 3rd hop back where it came from.
	third := path[2]
	backPort := ft.PeerOf(PortID{Node: path[1].Node, Port: path[1].Port}).Port
	// Find the port on third.Node that goes back to path[1].Node.
	var back int = -1
	for pi, peer := range ft.Node(third.Node).Ports {
		if peer.Node == path[1].Node {
			back = pi
		}
	}
	_ = backPort
	if back < 0 {
		t.Fatalf("no return port found")
	}
	ft.OverrideNextHops(third.Node, dst, []int{back})
	if got := ft.Path(src, dst, 0); got != nil {
		t.Fatalf("looped path should be nil, got %v", got)
	}
}

func TestSelfLinkPanics(t *testing.T) {
	tp := New()
	n := tp.AddNode(KindSwitch, "s")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on self link")
		}
	}()
	tp.AddLink(n, n, simtime.Gbps, 0)
}

func TestFatTreeConfigValidation(t *testing.T) {
	if _, err := NewFatTree(FatTreeConfig{K: 3, Bandwidth: simtime.Gbps, Delay: 0}); err == nil {
		t.Fatalf("expected error for odd K")
	}
	if _, err := NewFatTree(FatTreeConfig{K: 0, Bandwidth: simtime.Gbps, Delay: 0}); err == nil {
		t.Fatalf("expected error for zero K")
	}
}

func TestEstimateFCTBottleneck(t *testing.T) {
	// Heterogeneous path: the slowest link dominates serialization.
	tp := New()
	h0 := tp.AddNode(KindHost, "h0")
	h1 := tp.AddNode(KindHost, "h1")
	s0 := tp.AddNode(KindSwitch, "s0")
	s1 := tp.AddNode(KindSwitch, "s1")
	tp.AddLink(h0, s0, 100*simtime.Gbps, time.Microsecond)
	tp.AddLink(s0, s1, 10*simtime.Gbps, time.Microsecond) // bottleneck
	tp.AddLink(s1, h1, 100*simtime.Gbps, time.Microsecond)
	tp.ComputeRoutes()
	got := tp.EstimateFCT(h0, h1, 1_000_000, 0)
	want := 3*time.Microsecond + (10 * simtime.Gbps).Transmit(int64(1_000_000))
	if got != want {
		t.Fatalf("FCT = %v, want %v", got, want)
	}
}

func TestFatTreeK6(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{K: 6, Bandwidth: 100 * simtime.Gbps, Delay: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	// K=6: 9 cores + 6 pods × (3 agg + 3 edge) = 45 switches, 54 hosts.
	if got := len(ft.Switches()); got != 45 {
		t.Fatalf("switches = %d, want 45", got)
	}
	if got := len(ft.Hosts()); got != 54 {
		t.Fatalf("hosts = %d, want 54", got)
	}
	for _, s := range ft.Switches() {
		if got := len(ft.Node(s).Ports); got != 6 {
			t.Fatalf("switch %s ports = %d, want 6", ft.Node(s).Name, got)
		}
	}
	// Cross-pod connectivity intact.
	src, dst := ft.Hosts()[0], ft.Hosts()[53]
	if p := ft.Path(src, dst, 3); len(p) != 6 {
		t.Fatalf("cross-pod path = %d hops, want 6", len(p))
	}
}
