package telemetry

import (
	"testing"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

type rig struct {
	k     *sim.Kernel
	tp    *topo.Topology
	net   *fabric.Network
	hosts map[topo.NodeID]*rdma.Host
	col   *Collector
}

func newStarRig(t *testing.T, n int, fcfg fabric.Config) *rig {
	t.Helper()
	tp := topo.New()
	var ids []topo.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, tp.AddNode(topo.KindHost, "h"))
	}
	sw := tp.AddNode(topo.KindSwitch, "sw")
	for _, h := range ids {
		tp.AddLink(h, sw, 100*simtime.Gbps, time.Microsecond)
	}
	tp.ComputeRoutes()
	k := sim.New(11)
	net := fabric.NewNetwork(k, tp, fcfg)
	r := &rig{k: k, tp: tp, net: net, hosts: map[topo.NodeID]*rdma.Host{}}
	cfg := rdma.DefaultConfig()
	cfg.CellSize = 4096
	for _, id := range ids {
		h, err := rdma.NewHost(k, net, id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.hosts[id] = h
	}
	r.col = NewCollector(net)
	return r
}

func fk(src, dst topo.NodeID, port uint16) fabric.FlowKey {
	return fabric.FlowKey{Src: src, Dst: dst, SrcPort: port, DstPort: port, Proto: 17}
}

func TestPollCollectsFlowRecords(t *testing.T) {
	r := newStarRig(t, 3, fabric.DefaultConfig())
	h := r.tp.Hosts()
	f0, f1 := fk(h[0], h[2], 100), fk(h[1], h[2], 200)
	r.hosts[h[0]].Send(f0, 256*1024)
	r.hosts[h[1]].Send(f1, 256*1024)
	r.k.Run(simtime.Never)

	rep := r.col.Poll(f0, 0)
	if len(rep.Flows) == 0 {
		t.Fatalf("no flow records collected")
	}
	var sawF0, sawF1 bool
	for _, fr := range rep.Flows {
		if fr.Flow == f0 {
			sawF0 = true
			if fr.Pkts != 64 { // 256KiB / 4KiB cells
				t.Fatalf("f0 pkts = %d, want 64", fr.Pkts)
			}
			if fr.Bytes != 256*1024 {
				t.Fatalf("f0 bytes = %d", fr.Bytes)
			}
		}
		if fr.Flow == f1 {
			sawF1 = true
		}
	}
	if !sawF0 {
		t.Fatalf("polled flow missing from its own path's records")
	}
	// f1 shares the congested egress with f0 and must appear too.
	if !sawF1 {
		t.Fatalf("contending flow absent: co-flow analysis impossible")
	}
	if rep.Size() <= 0 {
		t.Fatalf("report size = %d", rep.Size())
	}
}

func TestWaitWeightsInReport(t *testing.T) {
	fcfg := fabric.DefaultConfig()
	fcfg.PFCPauseThreshold = 1 << 40
	r := newStarRig(t, 3, fcfg)
	h := r.tp.Hosts()
	f0, f1 := fk(h[0], h[2], 100), fk(h[1], h[2], 200)
	r.hosts[h[0]].Send(f0, 512*1024)
	r.hosts[h[1]].Send(f1, 512*1024)
	r.k.Run(simtime.Never)

	rep := r.col.Poll(f0, 0)
	foundWait := false
	for _, fr := range rep.Flows {
		if fr.Flow == f0 && fr.Wait[f1] > 0 {
			foundWait = true
		}
	}
	if !foundWait {
		t.Fatalf("w(f0,f1) missing despite sustained 2:1 contention")
	}
}

func TestDeltaSemantics(t *testing.T) {
	r := newStarRig(t, 2, fabric.DefaultConfig())
	h := r.tp.Hosts()
	f := fk(h[0], h[1], 100)
	r.hosts[h[0]].Send(f, 64*1024)
	r.k.Run(simtime.Never)

	first := r.col.Poll(f, 0)
	second := r.col.Poll(f, 0)
	var p1, p2 int64
	for _, fr := range first.Flows {
		p1 += fr.Pkts
	}
	for _, fr := range second.Flows {
		p2 += fr.Pkts
	}
	if p1 == 0 {
		t.Fatalf("first poll saw nothing")
	}
	if p2 != 0 {
		t.Fatalf("second poll re-reported %d packets; collection must drain", p2)
	}
}

func TestPFCSpreadingTrace(t *testing.T) {
	// Chain: h0 - s0 - s1 - h1, storm at s1's ingress from s0 pauses
	// s0's egress; polling h0→h1's flow must follow the pause to s1.
	tp := topo.New()
	h0 := tp.AddNode(topo.KindHost, "h0")
	h1 := tp.AddNode(topo.KindHost, "h1")
	s0 := tp.AddNode(topo.KindSwitch, "s0")
	s1 := tp.AddNode(topo.KindSwitch, "s1")
	tp.AddLink(h0, s0, 100*simtime.Gbps, time.Microsecond)
	tp.AddLink(s0, s1, 100*simtime.Gbps, time.Microsecond)
	tp.AddLink(s1, h1, 100*simtime.Gbps, time.Microsecond)
	tp.ComputeRoutes()
	k := sim.New(1)
	net := fabric.NewNetwork(k, tp, fabric.DefaultConfig())
	cfg := rdma.DefaultConfig()
	cfg.CellSize = 4096
	hh0, err := rdma.NewHost(k, net, h0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rdma.NewHost(k, net, h1, cfg)

	// s1 port 0 is its ingress from s0; storm there pauses s0's egress.
	var s1IngressFromS0 = -1
	for pi, peer := range tp.Node(s1).Ports {
		if peer.Node == s0 {
			s1IngressFromS0 = pi
		}
	}
	net.InjectPFCStorm(s1, s1IngressFromS0, simtime.Time(5*time.Microsecond), 100*time.Microsecond)

	f := fk(h0, h1, 100)
	hh0.Send(f, 128*1024)
	col := NewCollector(net)
	// Poll mid-storm.
	var rep *Report
	k.At(simtime.Time(50*time.Microsecond), func() { rep = col.Poll(f, time.Millisecond) })
	k.Run(simtime.Never)

	if rep == nil {
		t.Fatal("no report")
	}
	// The spreading trace must have visited s1's cause egress port.
	sawS1 := false
	for _, pr := range rep.Ports {
		if pr.Switch == s1 {
			sawS1 = true
		}
	}
	if !sawS1 {
		t.Fatalf("PFC spreading path not followed to s1; ports: %+v", rep.Ports)
	}
	// The report's PFC events must include the injected pause.
	sawInjected := false
	for _, pr := range rep.Ports {
		for _, ev := range pr.PFCEvents {
			if ev.Injected && ev.Pause {
				sawInjected = true
			}
		}
	}
	if !sawInjected {
		t.Fatalf("injected pause event missing from report")
	}
}

func TestOverheadAccounting(t *testing.T) {
	r := newStarRig(t, 2, fabric.DefaultConfig())
	h := r.tp.Hosts()
	f := fk(h[0], h[1], 100)
	r.hosts[h[0]].Send(f, 64*1024)
	r.k.Run(simtime.Never)

	rep := r.col.Poll(f, 0)
	tot := r.col.Totals
	if tot.Polls != 1 {
		t.Fatalf("polls = %d", tot.Polls)
	}
	if tot.TelemetryBytes != int64(rep.Size()) {
		t.Fatalf("telemetry bytes %d != report size %d", tot.TelemetryBytes, rep.Size())
	}
	if tot.PollBytes != int64(rep.HopsPolled*PollPacketSize) {
		t.Fatalf("poll bytes %d, hops %d", tot.PollBytes, rep.HopsPolled)
	}
	r.col.AddNotifyBytes(128)
	if got := r.col.Totals.Bandwidth(); got != tot.PollBytes+tot.ReportBytes+128 {
		t.Fatalf("bandwidth = %d", got)
	}
}

func TestPollAllSwitches(t *testing.T) {
	r := newStarRig(t, 4, fabric.DefaultConfig())
	h := r.tp.Hosts()
	r.hosts[h[0]].Send(fk(h[0], h[3], 100), 64*1024)
	r.k.Run(simtime.Never)

	rep := r.col.PollAllSwitches(0)
	// Star switch has 4 ports; all must be reported.
	if len(rep.Ports) != 4 {
		t.Fatalf("ports = %d, want 4", len(rep.Ports))
	}
	if rep.HopsPolled != 4 {
		t.Fatalf("hops = %d, want 4", rep.HopsPolled)
	}
}

func TestMeterInResolvesUpstreamPorts(t *testing.T) {
	r := newStarRig(t, 3, fabric.DefaultConfig())
	h := r.tp.Hosts()
	f0, f1 := fk(h[0], h[2], 100), fk(h[1], h[2], 200)
	r.hosts[h[0]].Send(f0, 64*1024)
	r.hosts[h[1]].Send(f1, 64*1024)
	r.k.Run(simtime.Never)

	rep := r.col.Poll(f0, 0)
	for _, pr := range rep.Ports {
		if pr.Switch != r.tp.Switches()[0] {
			continue
		}
		for up, bytes := range pr.MeterIn {
			if up.Node != h[0] && up.Node != h[1] {
				t.Fatalf("meter upstream %v is not a sender uplink", up)
			}
			if bytes <= 0 {
				t.Fatalf("meter bytes = %d", bytes)
			}
		}
		if len(pr.MeterIn) != 2 {
			t.Fatalf("MeterIn entries = %d, want 2 (both senders)", len(pr.MeterIn))
		}
	}
}

func TestCollectorBaselinesAtCreation(t *testing.T) {
	// A collector attached mid-run must not re-report history: traffic
	// sent before its creation is invisible to its first poll.
	r := newStarRig(t, 2, fabric.DefaultConfig())
	h := r.tp.Hosts()
	old := fk(h[0], h[1], 100)
	r.hosts[h[0]].Send(old, 128*1024)
	r.k.Run(simtime.Never)

	late := NewCollector(r.net)
	rep := late.PollAllSwitches(0)
	for _, fr := range rep.Flows {
		if fr.Flow == old {
			t.Fatalf("late collector re-reported pre-creation traffic: %+v", fr)
		}
	}

	// New traffic after creation is visible.
	fresh := fk(h[0], h[1], 300)
	r.hosts[h[0]].Send(fresh, 64*1024)
	r.k.Run(simtime.Never)
	rep2 := late.PollAllSwitches(0)
	saw := false
	for _, fr := range rep2.Flows {
		if fr.Flow == fresh {
			saw = true
		}
		if fr.Flow == old && fr.Pkts > 0 {
			t.Fatalf("old flow leaked into post-creation delta")
		}
	}
	if !saw {
		t.Fatalf("fresh traffic missing from late collector")
	}
}

func TestReportSizeMonotone(t *testing.T) {
	// Adding records strictly grows the modelled wire size.
	rep := &Report{}
	base := rep.Size()
	rep.Flows = append(rep.Flows, FlowRecord{})
	if rep.Size() <= base {
		t.Fatalf("flow record did not grow size")
	}
	withFlow := rep.Size()
	rep.Flows[0].Wait = map[fabric.FlowKey]int64{{}: 1}
	if rep.Size() <= withFlow {
		t.Fatalf("wait entry did not grow size")
	}
	withWait := rep.Size()
	rep.Ports = append(rep.Ports, PortRecord{})
	if rep.Size() <= withWait {
		t.Fatalf("port record did not grow size")
	}
}

type nopDevice struct{}

func (nopDevice) Receive(*fabric.Packet, int) {}

// TestPollAllocCeiling pins what one poll costs the allocator on a warmed
// collector: the report and what hangs off it (flow and port records, one
// Wait map per waiting flow, one MeterIn map), plus the poll's visited set
// — and nothing per flow slot, per counter or per PFC-window rescan. The
// traffic between polls reuses its cells and lands on a device that keeps
// nothing, so it allocates nothing itself (fabric.TestForwardAllocFree) and
// every allocation counted is the poll's.
func TestPollAllocCeiling(t *testing.T) {
	tp := topo.New()
	var hosts []topo.NodeID
	for i := 0; i < 3; i++ {
		hosts = append(hosts, tp.AddNode(topo.KindHost, "h"))
	}
	sw := tp.AddNode(topo.KindSwitch, "sw")
	for _, h := range hosts {
		tp.AddLink(h, sw, 100*simtime.Gbps, time.Microsecond)
	}
	tp.ComputeRoutes()
	k := sim.New(11)
	fcfg := fabric.DefaultConfig()
	fcfg.PFCPauseThreshold = 1 << 40
	net := fabric.NewNetwork(k, tp, fcfg)
	if err := net.Attach(hosts[2], nopDevice{}); err != nil {
		t.Fatal(err)
	}
	col := NewCollector(net)

	f0, f1 := fk(hosts[0], hosts[2], 100), fk(hosts[1], hosts[2], 200)
	cells := make([]fabric.Packet, 8)
	var rep *Report
	round := func() {
		for i := range cells {
			f := f0
			if i%2 == 1 {
				f = f1
			}
			cells[i] = fabric.Packet{Kind: fabric.KindData, Flow: f, To: f.Dst, Size: 4096}
			net.Inject(f.Src, &cells[i])
		}
		k.Run(simtime.Never)
		rep = col.Poll(f0, 0)
	}
	round() // warm-up: flow slots, snapshot rows, queue arrays, the event heap
	allocs := testing.AllocsPerRun(50, round)

	if len(rep.Flows) != 2 || len(rep.Ports) != 1 {
		t.Fatalf("poll reported %d flow and %d port records, want 2 and 1", len(rep.Flows), len(rep.Ports))
	}
	for _, fr := range rep.Flows {
		if fr.Pkts != 4 || len(fr.Wait) != 1 {
			t.Fatalf("flow record %+v: want 4 packets and one wait entry per poll", fr)
		}
	}
	if len(rep.Ports[0].MeterIn) != 2 {
		t.Fatalf("MeterIn = %v, want both ingress ports", rep.Ports[0].MeterIn)
	}
	const ceiling = 12 // measured
	if allocs > ceiling {
		t.Fatalf("one Poll allocates %v objects, ceiling %d", allocs, ceiling)
	}
}
