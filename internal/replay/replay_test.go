package replay

import (
	"slices"
	"testing"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

func mkFlow(a, b topo.NodeID, p uint16) fabric.FlowKey {
	return fabric.FlowKey{Src: a, Dst: b, SrcPort: p, DstPort: p + 1, Proto: 17}
}

func TestReplaySyntheticQueue(t *testing.T) {
	f1 := mkFlow(0, 9, 100)
	f2 := mkFlow(1, 9, 200)
	var l Log
	// f1 enqueues 2 packets, then f2 enqueues behind them, then f1 again
	// behind f2's one packet (and its own, which doesn't count).
	l.Record(Event{At: 10, Kind: Enqueue, Flow: f1, Size: 1000})
	l.Record(Event{At: 20, Kind: Enqueue, Flow: f1, Size: 1000})
	l.Record(Event{At: 30, Kind: Enqueue, Flow: f2, Size: 1000}) // waits behind 2×f1
	l.Record(Event{At: 40, Kind: Dequeue, Flow: f1, Size: 1000})
	l.Record(Event{At: 50, Kind: Enqueue, Flow: f1, Size: 1000}) // waits behind 1×f2
	res := Replay(&l, 0, simtime.Never)

	if got := res.W(f2, f1); got != 2 {
		t.Fatalf("w(f2,f1) = %d, want 2", got)
	}
	if got := res.W(f1, f2); got != 1 {
		t.Fatalf("w(f1,f2) = %d, want 1", got)
	}
	if res.MaxDepthBytes != 3000 {
		t.Fatalf("max depth = %d, want 3000", res.MaxDepthBytes)
	}
	if res.Incomplete {
		t.Fatalf("untruncated log marked incomplete")
	}
}

func TestReplayWindow(t *testing.T) {
	f1 := mkFlow(0, 9, 100)
	f2 := mkFlow(1, 9, 200)
	var l Log
	l.Record(Event{At: 10, Kind: Enqueue, Flow: f1, Size: 1000})
	l.Record(Event{At: 30, Kind: Enqueue, Flow: f2, Size: 1000})
	// Window starting after f2's enqueue: no waits counted, but the queue
	// state before the window still matters for later events.
	l.Record(Event{At: 50, Kind: Enqueue, Flow: f2, Size: 1000})
	res := Replay(&l, 40, simtime.Never)
	if got := res.W(f2, f1); got != 1 {
		t.Fatalf("windowed w(f2,f1) = %d, want 1 (only the in-window enqueue)", got)
	}
}

func TestRingTruncation(t *testing.T) {
	f := mkFlow(0, 9, 100)
	l := Log{Cap: 4}
	for i := 0; i < 10; i++ {
		l.Record(Event{At: simtime.Time(i), Kind: Enqueue, Flow: f, Size: 100})
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	if l.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", l.Dropped)
	}
	if !Replay(&l, 0, simtime.Never).Incomplete {
		t.Fatalf("truncated replay not marked incomplete")
	}
}

func TestUnmatchedDequeueIgnored(t *testing.T) {
	f := mkFlow(0, 9, 100)
	var l Log
	l.Record(Event{At: 1, Kind: Dequeue, Flow: f, Size: 1000}) // no matching enqueue
	l.Record(Event{At: 2, Kind: Enqueue, Flow: f, Size: 1000})
	res := Replay(&l, 0, simtime.Never)
	if res.MaxDepthBytes != 1000 {
		t.Fatalf("depth went negative or wrong: %d", res.MaxDepthBytes)
	}
}

// TestReplayMatchesOnlineAccumulators cross-validates the replay algorithm
// against the switch's online wait counters on real simulated traffic: the
// two implementations are independent, so agreement is strong evidence both
// compute the paper's w(f_i, f_j).
func TestReplayMatchesOnlineAccumulators(t *testing.T) {
	tp := topo.New()
	h0 := tp.AddNode(topo.KindHost, "h0")
	h1 := tp.AddNode(topo.KindHost, "h1")
	h2 := tp.AddNode(topo.KindHost, "h2")
	sw := tp.AddNode(topo.KindSwitch, "sw")
	for _, h := range []topo.NodeID{h0, h1, h2} {
		tp.AddLink(h, sw, 100*simtime.Gbps, time.Microsecond)
	}
	tp.ComputeRoutes()
	k := sim.New(77)
	fcfg := fabric.DefaultConfig()
	fcfg.PFCPauseThreshold = 1 << 40
	net := fabric.NewNetwork(k, tp, fcfg)
	rec := Attach(net, 0)

	rcfg := rdma.DefaultConfig()
	rcfg.CellSize = 4096
	a, err := rdma.NewHost(k, net, h0, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rdma.NewHost(k, net, h1, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rdma.NewHost(k, net, h2, rcfg)

	fa, fb := mkFlow(h0, h2, 100), mkFlow(h1, h2, 200)
	a.Send(fa, 512*1024)
	b.Send(fb, 512*1024)
	k.Run(simtime.Never)

	// Egress toward h2 is port 2 on the switch.
	port := topo.PortID{Node: sw, Port: 2}
	log := rec.Log(port)
	if log == nil || log.Len() == 0 {
		t.Fatalf("no replay log at the contended port")
	}
	res := Replay(log, 0, simtime.Never)

	online := net.Egress(sw, 2).Counters()
	for _, pair := range [][2]fabric.FlowKey{{fa, fb}, {fb, fa}} {
		want := online.Wait[slices.Index(online.Flows, pair[0])][slices.Index(online.Flows, pair[1])]
		got := res.W(pair[0], pair[1])
		if want == 0 {
			t.Fatalf("setup: no online wait for %v behind %v", pair[0], pair[1])
		}
		if got != want {
			t.Fatalf("replayed w(%v,%v) = %d, online = %d", pair[0], pair[1], got, want)
		}
	}
}

func TestRecorderPortsDeterministic(t *testing.T) {
	r := &Recorder{logs: map[topo.PortID]*Log{}}
	pkt := &fabric.Packet{Kind: fabric.KindData, Flow: mkFlow(0, 1, 10), Size: 100}
	r.QueueEvent(5, 2, -1, true, pkt, 1)
	r.QueueEvent(3, 0, -1, true, pkt, 2)
	r.QueueEvent(5, 0, -1, true, pkt, 3)
	ports := r.Ports()
	want := []topo.PortID{{Node: 3, Port: 0}, {Node: 5, Port: 0}, {Node: 5, Port: 2}}
	if len(ports) != len(want) {
		t.Fatalf("ports = %v", ports)
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Fatalf("ports = %v, want %v", ports, want)
		}
	}
}
