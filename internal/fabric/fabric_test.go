package fabric

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// sink records arrivals at a host.
type sink struct {
	got []*Packet
	at  []simtime.Time
	k   *sim.Kernel
}

func (s *sink) Receive(pkt *Packet, port int) {
	s.got = append(s.got, pkt)
	s.at = append(s.at, s.k.Now())
}

// starTopo builds n hosts around one switch, 100Gbps / 1µs links.
func starTopo(n int) *topo.Topology {
	tp := topo.New()
	var hosts []topo.NodeID
	for i := 0; i < n; i++ {
		hosts = append(hosts, tp.AddNode(topo.KindHost, "h"))
	}
	sw := tp.AddNode(topo.KindSwitch, "sw")
	for _, h := range hosts {
		tp.AddLink(h, sw, 100*simtime.Gbps, time.Microsecond)
	}
	tp.ComputeRoutes()
	return tp
}

func flow(src, dst topo.NodeID) FlowKey {
	return FlowKey{Src: src, Dst: dst, SrcPort: 1000, DstPort: 2000, Proto: 17}
}

func TestSingleHopDelivery(t *testing.T) {
	tp := starTopo(2)
	k := sim.New(1)
	n := NewNetwork(k, tp, DefaultConfig())
	h0, h1 := tp.Hosts()[0], tp.Hosts()[1]
	rx := &sink{k: k}
	n.Attach(h1, rx)

	n.Inject(h0, &Packet{Kind: KindData, Flow: flow(h0, h1), To: h1, Size: 1250, Seq: 7})
	k.Run(simtime.Never)

	if len(rx.got) != 1 {
		t.Fatalf("got %d packets, want 1", len(rx.got))
	}
	if rx.got[0].Seq != 7 {
		t.Fatalf("seq = %d, want 7", rx.got[0].Seq)
	}
	// 100ns tx + 1µs + 100ns tx + 1µs = 2.2µs.
	want := simtime.Time(2200 * time.Nanosecond)
	if rx.at[0] != want {
		t.Fatalf("arrival = %v, want %v", rx.at[0], want)
	}
}

func TestFIFOAndSerialization(t *testing.T) {
	tp := starTopo(2)
	k := sim.New(1)
	n := NewNetwork(k, tp, DefaultConfig())
	h0, h1 := tp.Hosts()[0], tp.Hosts()[1]
	rx := &sink{k: k}
	n.Attach(h1, rx)

	for i := 0; i < 3; i++ {
		n.Inject(h0, &Packet{Kind: KindData, Flow: flow(h0, h1), To: h1, Size: 1250, Seq: int64(i)})
	}
	k.Run(simtime.Never)
	if len(rx.got) != 3 {
		t.Fatalf("got %d packets, want 3", len(rx.got))
	}
	for i, p := range rx.got {
		if p.Seq != int64(i) {
			t.Fatalf("out of order: got seq %d at position %d", p.Seq, i)
		}
	}
	// Packets pipeline: arrivals spaced by one serialization (100ns).
	if d := rx.at[1].Sub(rx.at[0]); d != 100*time.Nanosecond {
		t.Fatalf("spacing = %v, want 100ns", d)
	}
}

func TestECNMarking(t *testing.T) {
	tp := starTopo(3)
	k := sim.New(1)
	cfg := DefaultConfig()
	cfg.ECNThreshold = 2000
	cfg.PFCPauseThreshold = 1 << 40 // effectively off
	n := NewNetwork(k, tp, cfg)
	h0, h1, h2 := tp.Hosts()[0], tp.Hosts()[1], tp.Hosts()[2]
	rx := &sink{k: k}
	n.Attach(h2, rx)

	// Two senders flood one egress; later packets must join a deep queue.
	for i := 0; i < 10; i++ {
		n.Inject(h0, &Packet{Kind: KindData, Flow: flow(h0, h2), To: h2, Size: 1250, Seq: int64(i)})
		n.Inject(h1, &Packet{Kind: KindData, Flow: flow(h1, h2), To: h2, Size: 1250, Seq: int64(i)})
	}
	k.Run(simtime.Never)

	if len(rx.got) != 20 {
		t.Fatalf("got %d packets, want 20", len(rx.got))
	}
	marked := 0
	for _, p := range rx.got {
		if p.ECN {
			marked++
		}
	}
	if marked == 0 {
		t.Fatalf("no ECN marks despite sustained congestion")
	}
	if ecn := n.ECNMarksTotal(); int(ecn) != marked {
		t.Fatalf("switch ECN counter %d != observed marks %d", ecn, marked)
	}
}

func TestPFCPauseAndResume(t *testing.T) {
	tp := starTopo(3)
	k := sim.New(1)
	cfg := Config{PFCPauseThreshold: 4000, PFCResumeThreshold: 1500, ECNThreshold: 1 << 40, TTL: 16}
	n := NewNetwork(k, tp, cfg)
	h0, h1, h2 := tp.Hosts()[0], tp.Hosts()[1], tp.Hosts()[2]
	rx := &sink{k: k}
	n.Attach(h2, rx)

	// Flood from both senders so the switch ingress attribution crosses
	// the pause threshold.
	for i := 0; i < 30; i++ {
		n.Inject(h0, &Packet{Kind: KindData, Flow: flow(h0, h2), To: h2, Size: 1250, Seq: int64(i)})
		n.Inject(h1, &Packet{Kind: KindData, Flow: flow(h1, h2), To: h2, Size: 1250, Seq: int64(i)})
	}
	k.Run(simtime.Never)

	if len(rx.got) != 60 {
		t.Fatalf("lossless fabric lost packets: got %d, want 60", len(rx.got))
	}
	var pauses, resumes int
	for _, ev := range n.PFCLog {
		if ev.Pause {
			pauses++
		} else {
			resumes++
		}
	}
	if pauses == 0 {
		t.Fatalf("expected PFC pauses under incast flood")
	}
	if pauses != resumes {
		t.Fatalf("pauses (%d) != resumes (%d); a port stayed paused", pauses, resumes)
	}
	// Host egress ports must have recorded paused time.
	if n.Egress(h0, 0).PauseCount() == 0 && n.Egress(h1, 0).PauseCount() == 0 {
		t.Fatalf("no upstream host egress was ever paused")
	}
	// Cause egress on pause events must be the port toward h2.
	sw := tp.Switches()[0]
	for _, ev := range n.PFCLog {
		if ev.Pause && ev.Downstream == sw {
			cause := tp.PeerOf(topo.PortID{Node: sw, Port: ev.CauseEgress})
			if cause.Node != h2 {
				t.Fatalf("pause cause egress points at node %d, want %d", cause.Node, h2)
			}
		}
	}
}

func TestPFCStormInjection(t *testing.T) {
	tp := starTopo(2)
	k := sim.New(1)
	n := NewNetwork(k, tp, DefaultConfig())
	h0, h1 := tp.Hosts()[0], tp.Hosts()[1]
	rx := &sink{k: k}
	n.Attach(h1, rx)
	sw := tp.Switches()[0]

	// Storm on the switch port facing h0: pauses h0's NIC from 10µs to 60µs.
	n.InjectPFCStorm(sw, 0, simtime.Time(10*time.Microsecond), 50*time.Microsecond)

	// h0 sends one packet at t=20µs: it must be held until the storm ends.
	k.At(simtime.Time(20*time.Microsecond), func() {
		n.Inject(h0, &Packet{Kind: KindData, Flow: flow(h0, h1), To: h1, Size: 1250})
	})
	k.Run(simtime.Never)

	if len(rx.got) != 1 {
		t.Fatalf("got %d packets, want 1", len(rx.got))
	}
	// Released at 60µs (+PFC frame latency), then 2.2µs path time.
	if rx.at[0] < simtime.Time(62*time.Microsecond) {
		t.Fatalf("packet arrived at %v, before storm ended", rx.at[0])
	}
	var injected int
	for _, ev := range n.PFCLog {
		if ev.Injected {
			injected++
		}
	}
	if injected != 2 {
		t.Fatalf("injected PFC events = %d, want 2 (pause+resume)", injected)
	}
	if got := n.Egress(h0, 0).PausedFor(k.Now()); got < 40*time.Microsecond {
		t.Fatalf("paused duration %v, want >= 40µs", got)
	}
}

func TestTTLLoopDrop(t *testing.T) {
	// Two switches pointing at each other for h1's traffic → loop.
	tp := topo.New()
	h0 := tp.AddNode(topo.KindHost, "h0")
	h1 := tp.AddNode(topo.KindHost, "h1")
	s0 := tp.AddNode(topo.KindSwitch, "s0")
	s1 := tp.AddNode(topo.KindSwitch, "s1")
	tp.AddLink(h0, s0, 100*simtime.Gbps, time.Microsecond)
	tp.AddLink(h1, s1, 100*simtime.Gbps, time.Microsecond)
	tp.AddLink(s0, s1, 100*simtime.Gbps, time.Microsecond)
	tp.ComputeRoutes()
	// s1 sends h1-traffic back to s0.
	back := -1
	for pi, peer := range tp.Node(s1).Ports {
		if peer.Node == s0 {
			back = pi
		}
	}
	tp.OverrideNextHops(s1, h1, []int{back})

	k := sim.New(1)
	cfg := DefaultConfig()
	cfg.TTL = 8
	n := NewNetwork(k, tp, cfg)
	rx := &sink{k: k}
	n.Attach(h1, rx)
	n.Inject(h0, &Packet{Kind: KindData, Flow: flow(h0, h1), To: h1, Size: 1250})
	k.SetEventLimit(100000)
	k.Run(simtime.Never)

	if len(rx.got) != 0 {
		t.Fatalf("looped packet was delivered")
	}
	total := n.Drops[s0] + n.Drops[s1]
	if total != 1 {
		t.Fatalf("drops = %d, want 1", total)
	}
}

func TestDeliverControl(t *testing.T) {
	tp := starTopo(2)
	k := sim.New(1)
	n := NewNetwork(k, tp, DefaultConfig())
	h0, h1 := tp.Hosts()[0], tp.Hosts()[1]
	rx := &sink{k: k}
	n.Attach(h1, rx)

	// Congest the path first: control packets must not be delayed by it.
	for i := 0; i < 100; i++ {
		n.Inject(h0, &Packet{Kind: KindData, Flow: flow(h0, h1), To: h1, Size: 1250})
	}
	hops := n.DeliverControl(h0, h1, &Packet{Kind: KindNotify, Flow: flow(h0, h1), To: h1, Size: NotifySize})
	k.Run(simtime.Never)

	if hops != 2 {
		t.Fatalf("hops = %d, want 2", hops)
	}
	var notifyAt simtime.Time = -1
	for i, p := range rx.got {
		if p.Kind == KindNotify {
			notifyAt = rx.at[i]
		}
	}
	if notifyAt < 0 {
		t.Fatalf("notification not delivered")
	}
	// 2 hops × (1µs + 64B@100G≈5.12ns) ≈ 2.01µs — far earlier than the
	// 100-packet data queue would allow.
	if notifyAt > simtime.Time(3*time.Microsecond) {
		t.Fatalf("notification delayed by congestion: %v", notifyAt)
	}
}

func TestWaitMatrixAccumulation(t *testing.T) {
	tp := starTopo(3)
	k := sim.New(1)
	cfg := DefaultConfig()
	cfg.PFCPauseThreshold = 1 << 40
	n := NewNetwork(k, tp, cfg)
	h0, h1, h2 := tp.Hosts()[0], tp.Hosts()[1], tp.Hosts()[2]
	n.Attach(h2, &sink{k: k})

	f0, f1 := flow(h0, h2), flow(h1, h2)
	// h0 sends two packets: the first is mid-transmission when the rest
	// arrive, the second still queued. h1's packets then wait behind it.
	n.Inject(h0, &Packet{Kind: KindData, Flow: f0, To: h2, Size: 1250})
	n.Inject(h0, &Packet{Kind: KindData, Flow: f0, To: h2, Size: 1250})
	n.Inject(h1, &Packet{Kind: KindData, Flow: f1, To: h2, Size: 1250})
	n.Inject(h1, &Packet{Kind: KindData, Flow: f1, To: h2, Size: 1250})
	k.Run(simtime.Never)

	// Egress toward h2 is port 2 (links added in host order).
	ps := n.Egress(tp.Switches()[0], 2).Counters()
	s0, s1 := slices.Index(ps.Flows, f0), slices.Index(ps.Flows, f1)
	if s0 < 0 || s1 < 0 {
		t.Fatalf("flows at the port = %v, want %v and %v", ps.Flows, f0, f1)
	}
	if ps.FlowPkts[s0] != 2 || ps.FlowPkts[s1] != 2 {
		t.Fatalf("flow counts: f0=%d f1=%d", ps.FlowPkts[s0], ps.FlowPkts[s1])
	}
	if len(ps.Wait[s1]) <= s0 || ps.Wait[s1][s0] == 0 {
		t.Fatalf("f1 never recorded waiting behind f0: %v", ps.Wait)
	}
	if ps.MeterIn[0] != 2500 || ps.MeterIn[1] != 2500 {
		t.Fatalf("MeterIn = %v", ps.MeterIn)
	}
}

// Property: the fabric is lossless — every data byte injected on a valid
// route is delivered — and per-flow FIFO order holds, for random traffic
// matrices over the paper fat-tree.
func TestConservationAndOrderProperty(t *testing.T) {
	ft := topo.PaperFatTree()
	f := func(seed int64) bool {
		k := sim.New(seed)
		cfg := DefaultConfig()
		n := NewNetwork(k, ft.Topology, cfg)
		rng := k.Rand()
		hosts := ft.Hosts()

		type sinkState struct {
			bytes   int64
			lastSeq map[FlowKey]int64
		}
		states := map[topo.NodeID]*sinkState{}
		ordered := true
		for _, h := range hosts {
			h := h
			st := &sinkState{lastSeq: map[FlowKey]int64{}}
			states[h] = st
			n.Attach(h, deviceFunc(func(pkt *Packet, port int) {
				st.bytes += int64(pkt.Size)
				if last, ok := st.lastSeq[pkt.Flow]; ok && pkt.Seq <= last {
					ordered = false
				}
				st.lastSeq[pkt.Flow] = pkt.Seq
			}))
		}

		var injected int64
		for i := 0; i < 8; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			fl := FlowKey{Src: src, Dst: dst, SrcPort: uint16(1000 + i), DstPort: uint16(2000 + i), Proto: 17}
			pkts := 1 + rng.Intn(30)
			base := simtime.Time(rng.Intn(50_000))
			for s := 0; s < pkts; s++ {
				size := 256 + rng.Intn(4096)
				injected += int64(size)
				seq := int64(s)
				// Sequences leave the source in order; the fabric must
				// preserve that order per flow.
				at := base.Add(simtime.Duration(s) * 500)
				k.At(at, func() {
					n.Inject(src, &Packet{Kind: KindData, Flow: fl, To: dst, Size: size, Seq: seq})
				})
			}
		}
		k.SetEventLimit(10_000_000)
		k.Run(simtime.Never)

		var delivered int64
		for _, st := range states {
			delivered += st.bytes
		}
		return delivered == injected && ordered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// deviceFunc adapts a function to the Device interface.
type deviceFunc func(pkt *Packet, port int)

func (d deviceFunc) Receive(pkt *Packet, port int) { d(pkt, port) }

// Property: PFC pause/resume events always alternate per port and the
// fabric quiesces unpaused after traffic drains (no stuck pauses without a
// storm).
func TestPFCQuiescenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		tp := starTopo(4)
		k := sim.New(seed)
		cfg := Config{PFCPauseThreshold: 4000, PFCResumeThreshold: 1500, ECNThreshold: 1 << 40, TTL: 16}
		n := NewNetwork(k, tp, cfg)
		hosts := tp.Hosts()
		for _, h := range hosts {
			n.Attach(h, &sink{k: k})
		}
		rng := k.Rand()
		// All hosts flood the last one.
		dst := hosts[3]
		for i, src := range hosts[:3] {
			fl := FlowKey{Src: src, Dst: dst, SrcPort: uint16(100 * (i + 1)), DstPort: 9, Proto: 17}
			for s := 0; s < 20+rng.Intn(40); s++ {
				src, fl := src, fl
				k.At(simtime.Time(rng.Intn(10_000)), func() {
					n.Inject(src, &Packet{Kind: KindData, Flow: fl, To: dst, Size: 1250})
				})
			}
		}
		k.SetEventLimit(10_000_000)
		k.Run(simtime.Never)

		// Alternation per (upstream) port.
		lastPause := map[topo.PortID]bool{}
		for _, ev := range n.PFCLog {
			if prev, seen := lastPause[ev.Upstream]; seen && prev == ev.Pause {
				return false
			}
			lastPause[ev.Upstream] = ev.Pause
		}
		// Quiescence: nothing left paused.
		for _, h := range tp.Hosts() {
			if n.Egress(h, 0).Paused() {
				return false
			}
		}
		for _, sw := range tp.Switches() {
			for pi := range tp.Node(sw).Ports {
				if n.Egress(sw, pi).Paused() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
