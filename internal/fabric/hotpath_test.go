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

// TestForwardAllocFree is the floor the pre-bound port callbacks exist for:
// once queues, maps and the event heap have grown, carrying a data cell
// host→edge→agg→edge→host allocates nothing — no closure, no event, no
// queue growth on any of the four links.
func TestForwardAllocFree(t *testing.T) {
	ft := topo.PaperFatTree()
	k := sim.New(1)
	n := NewNetwork(k, ft.Topology, DefaultConfig())
	src, dst := ft.HostsByEdge[0][0][0], ft.HostsByEdge[0][1][0]
	if hops := ft.HopCount(src, dst); hops != 4 {
		t.Fatalf("test path has %d links, want 4 (host-edge-agg-edge-host)", hops)
	}
	delivered := 0
	if err := n.Attach(dst, deviceFunc(func(*Packet, int) { delivered++ })); err != nil {
		t.Fatal(err)
	}
	cell := &Packet{}
	send := func() {
		*cell = Packet{Kind: KindData, Flow: flow(src, dst), To: dst, Size: 4096}
		n.Inject(src, cell)
		k.Run(simtime.Never)
	}
	send() // warm-up: per-port stats maps, queue arrays, the event heap
	allocs := testing.AllocsPerRun(100, send)
	if delivered != 102 {
		t.Fatalf("delivered %d cells, want 102", delivered)
	}
	if allocs != 0 {
		t.Fatalf("forwarding one cell over 4 links allocates %v objects, want 0", allocs)
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
