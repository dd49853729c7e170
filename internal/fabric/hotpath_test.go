package fabric

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// TestForwardAllocFree is the floor the pre-bound port callbacks and the
// dense per-port counters exist for: once queues, flow slots, wait rows and
// the event heap have grown, carrying data cells across the fabric
// allocates nothing — no closure, no event, no queue growth, no counter map
// — even through a port that has seen dozens of flows. Three senders in
// one pod send two cells each per round to one receiver, on a different
// flow every round: the receiver's edge port carries all 48 flows, and the
// second cells queue behind other flows' first cells there, so the wait
// matrix is written too.
func TestForwardAllocFree(t *testing.T) {
	ft := topo.PaperFatTree()
	k := sim.New(1)
	n := NewNetwork(k, ft.Topology, DefaultConfig())
	dst := ft.HostsByEdge[0][1][0]
	senders := []topo.NodeID{ft.HostsByEdge[0][0][0], ft.HostsByEdge[0][0][1], ft.HostsByEdge[0][1][1]}
	if hops := ft.HopCount(senders[0], dst); hops != 4 {
		t.Fatalf("test path has %d links, want 4 (host-edge-agg-edge-host)", hops)
	}
	delivered := 0
	if err := n.Attach(dst, deviceFunc(func(*Packet, int) { delivered++ })); err != nil {
		t.Fatal(err)
	}
	const flowsPerSender = 16
	cells := make([]Packet, 2*len(senders))
	round := 0
	send := func() {
		for i := range cells {
			src := senders[i%len(senders)]
			key := FlowKey{Src: src, Dst: dst, SrcPort: uint16(1000 + round%flowsPerSender), DstPort: 2000, Proto: 17}
			cells[i] = Packet{Kind: KindData, Flow: key, To: dst, Size: 4096}
			n.Inject(src, &cells[i])
		}
		round++
		k.Run(simtime.Never)
	}
	// Warm-up: the first pass over the flows interns them and gives them
	// their slots, the second grows every wait row the (now repeating)
	// traffic touches to the port's final flow count.
	for round < 2*flowsPerSender {
		send()
	}
	edge, toDst := ft.EdgeOf(dst)
	pc := n.Egress(edge, toDst).Counters()
	if want := flowsPerSender * len(senders); len(pc.Flows) != want {
		t.Fatalf("receiver's edge port has seen %d flows, want %d", len(pc.Flows), want)
	}
	var waits int64
	for _, row := range pc.Wait {
		for _, w := range row {
			waits += w
		}
	}
	if waits == 0 {
		t.Fatal("no cell ever queued behind another flow's: the wait matrix is not exercised")
	}
	allocs := testing.AllocsPerRun(100, send)
	if want := round * len(cells); delivered != want {
		t.Fatalf("delivered %d cells, want %d", delivered, want)
	}
	if allocs != 0 {
		t.Fatalf("forwarding %d cells allocates %v objects, want 0", len(cells), allocs)
	}
}

// TestPFCFrameOrderAgainstInFlightData pins the arrival order on a link
// that carries both data (landing through the port's wire FIFO) and PFC
// frames (their own delay, their own event): a frame lands strictly by its
// own time, and when it ties with a data packet it lands first, because
// its event was scheduled 64 ns of serialisation earlier. The expected
// times below are the ones the per-packet-closure fabric produced.
//
// Links are 8 Gbps (1 byte = 1 ns) with 1 µs delay. h2 sends three 1000 B
// cells to h0, which land at 4, 5 and 6 µs; h0 answers each with an ACK to
// h2, which its uplink can only send while not paused.
func TestPFCFrameOrderAgainstInFlightData(t *testing.T) {
	tp := topo.New()
	h0 := tp.AddNode(topo.KindHost, "h0")
	h2 := tp.AddNode(topo.KindHost, "h2")
	sw := tp.AddNode(topo.KindSwitch, "sw")
	tp.AddLink(h0, sw, 8*simtime.Gbps, time.Microsecond)
	tp.AddLink(h2, sw, 8*simtime.Gbps, time.Microsecond)
	tp.ComputeRoutes()
	k := sim.New(1)
	n := NewNetwork(k, tp, DefaultConfig())

	var got []string
	uplink := n.Egress(h0, 0)
	n.Attach(h0, deviceFunc(func(pkt *Packet, _ int) {
		got = append(got, fmt.Sprintf("h0 d%d @%d paused=%v pauses=%d",
			pkt.Seq, int64(k.Now()), uplink.Paused(), uplink.PauseCount()))
		n.Inject(h0, &Packet{Kind: KindAck, Flow: pkt.Flow, To: h2, Size: AckSize, Seq: pkt.Seq})
	}))
	n.Attach(h2, deviceFunc(func(pkt *Packet, _ int) {
		got = append(got, fmt.Sprintf("h2 a%d @%d", pkt.Seq, int64(k.Now())))
	}))

	for i := 0; i < 3; i++ {
		n.Inject(h2, &Packet{Kind: KindData, Flow: flow(h2, h0), To: h0, Size: 1000, Seq: int64(i)})
	}
	// PFC frames from the switch toward h0 take 1000 + 64 ns.
	pfc := func(sendAt int64, pause bool) {
		k.At(simtime.Time(sendAt), func() { n.sendPFC(sw, 0, pause, 1, false) })
	}
	pfc(2936, true)  // lands 4000: ties with d0, and wins
	pfc(4500, false) // lands 5564: between d1 and d2, releases a0 and a1
	pfc(4936, true)  // lands 6000: ties with d2, and wins, so a2 is held
	pfc(7000, false) // lands 8064: releases a2
	k.Run(simtime.Never)

	want := []string{
		"h0 d0 @4000 paused=true pauses=1",
		"h0 d1 @5000 paused=true pauses=1",
		"h0 d2 @6000 paused=true pauses=2",
		"h2 a0 @7692", // 5564 + 64 tx + 1000 + 64 tx + 1000
		"h2 a1 @7756",
		"h2 a2 @10192", // 8064 + 64 + 1000 + 64 + 1000
	}
	if !slices.Equal(got, want) {
		t.Fatalf("arrival order changed:\n got  %q\n want %q", got, want)
	}
}
