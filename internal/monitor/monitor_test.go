package monitor

import (
	"testing"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// rig: nRanks collective hosts + nExtra background hosts on one switch.
type rig struct {
	k      *sim.Kernel
	tp     *topo.Topology
	net    *fabric.Network
	hosts  map[topo.NodeID]*rdma.Host
	ranks  []topo.NodeID
	extras []topo.NodeID
}

func newRig(t *testing.T, nRanks, nExtra int) *rig {
	t.Helper()
	tp := topo.New()
	var ranks, extras []topo.NodeID
	for i := 0; i < nRanks; i++ {
		ranks = append(ranks, tp.AddNode(topo.KindHost, "r"))
	}
	for i := 0; i < nExtra; i++ {
		extras = append(extras, tp.AddNode(topo.KindHost, "x"))
	}
	sw := tp.AddNode(topo.KindSwitch, "sw")
	for _, h := range append(append([]topo.NodeID{}, ranks...), extras...) {
		tp.AddLink(h, sw, 100*simtime.Gbps, time.Microsecond)
	}
	tp.ComputeRoutes()
	k := sim.New(21)
	net := fabric.NewNetwork(k, tp, fabric.DefaultConfig())
	rcfg := rdma.DefaultConfig()
	rcfg.CellSize = 4096
	hosts := map[topo.NodeID]*rdma.Host{}
	for _, id := range append(append([]topo.NodeID{}, ranks...), extras...) {
		h, err := rdma.NewHost(k, net, id, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[id] = h
	}
	return &rig{k: k, tp: tp, net: net, hosts: hosts, ranks: ranks, extras: extras}
}

func (r *rig) collective(t *testing.T, bytes int64) *collective.Runner {
	t.Helper()
	schs, err := collective.Decompose(collective.Spec{
		Op: collective.AllGather, Alg: collective.Ring, Ranks: r.ranks, Bytes: bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := collective.NewRunner(r.k, r.hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	return run
}

func monCfg() Config {
	c := DefaultConfig()
	c.CellSize = 4096
	return c
}

func TestNoAnomalyNoTriggers(t *testing.T) {
	r := newRig(t, 4, 0)
	run := r.collective(t, 256*1024)
	sys := NewSystem(r.k, r.net, run, r.hosts, monCfg())
	run.Start()
	r.k.Run(simtime.Never)
	if done, _ := run.Done(); !done {
		t.Fatal("collective incomplete")
	}
	if got := sys.Triggers(); got != 0 {
		t.Fatalf("clean run triggered %d detections, want 0", got)
	}
	if len(sys.Reports()) != 0 {
		t.Fatalf("clean run produced reports")
	}
}

func TestContentionTriggersBoundedDetection(t *testing.T) {
	r := newRig(t, 4, 1)
	run := r.collective(t, 512*1024)
	cfg := monCfg()
	sys := NewSystem(r.k, r.net, run, r.hosts, cfg)
	// Background flow colliding with rank1→rank2 traffic at the switch.
	bg := fabric.FlowKey{Src: r.extras[0], Dst: r.ranks[2], SrcPort: 9000, DstPort: 9001, Proto: 17}
	r.hosts[r.extras[0]].Send(bg, 2<<20)
	run.Start()
	r.k.Run(simtime.Never)
	if done, _ := run.Done(); !done {
		t.Fatal("collective incomplete")
	}
	if sys.Triggers() == 0 {
		t.Fatalf("contention produced no detections")
	}
	// The paper's overhead bound: opportunities funnel toward the slowest
	// monitor (Fig 7) but the system-wide issue is bounded by
	// hosts × steps × MaxDetectPerStep.
	if total := sys.Triggers(); total > 4*3*cfg.MaxDetectPerStep {
		t.Fatalf("system triggered %d times, exceeding the issued budget %d",
			total, 4*3*cfg.MaxDetectPerStep)
	}
	if len(sys.Reports()) == 0 {
		t.Fatalf("no telemetry reports retained")
	}
}

func TestUnrestrictedTriggersMore(t *testing.T) {
	runCase := func(unrestricted bool) int {
		r := newRig(t, 4, 1)
		run := r.collective(t, 512*1024)
		cfg := monCfg()
		cfg.Unrestricted = unrestricted
		sys := NewSystem(r.k, r.net, run, r.hosts, cfg)
		bg := fabric.FlowKey{Src: r.extras[0], Dst: r.ranks[2], SrcPort: 9000, DstPort: 9001, Proto: 17}
		r.hosts[r.extras[0]].Send(bg, 4<<20)
		run.Start()
		r.k.Run(simtime.Never)
		return sys.Triggers()
	}
	restricted := runCase(false)
	unrestricted := runCase(true)
	if unrestricted <= restricted {
		t.Fatalf("unrestricted (%d) should trigger more than restricted (%d)",
			unrestricted, restricted)
	}
}

func TestPerStepThresholdRecomputation(t *testing.T) {
	// On a fat-tree, an HD collective's steps traverse paths of different
	// lengths, so the per-step threshold must change — the fix for
	// Hawkeye's fixed threshold (§III-C2).
	ft := topo.PaperFatTree()
	k := sim.New(9)
	net := fabric.NewNetwork(k, ft.Topology, fabric.DefaultConfig())
	rcfg := rdma.DefaultConfig()
	rcfg.CellSize = 4096
	hosts := map[topo.NodeID]*rdma.Host{}
	ranks := ft.Hosts()[:8]
	for _, id := range ranks {
		h, err := rdma.NewHost(k, net, id, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[id] = h
	}
	schs, err := collective.Decompose(collective.Spec{
		Op: collective.AllGather, Alg: collective.HalvingDoubling, Ranks: ranks, Bytes: 256 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := collective.NewRunner(k, hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	cfg := monCfg()
	sys := NewSystem(k, net, run, hosts, cfg)

	m := sys.Monitors[ranks[0]]
	var thresholds []simtime.Duration
	prev := run.OnStepStart
	run.OnStepStart = func(h topo.NodeID, s int, f fabric.FlowKey, at simtime.Time) {
		prev(h, s, f, at)
		if h == ranks[0] {
			thresholds = append(thresholds, m.threshold)
		}
	}
	run.Start()
	k.Run(simtime.Never)

	if len(thresholds) != 3 {
		t.Fatalf("thresholds = %v", thresholds)
	}
	// Step 0 partner shares the edge switch (2 hops); step 2 partner is
	// cross-pod (6 hops): thresholds must grow.
	if thresholds[2] <= thresholds[0] {
		t.Fatalf("threshold did not grow with path length: %v", thresholds)
	}
}

func TestFixedThresholdOverride(t *testing.T) {
	r := newRig(t, 4, 0)
	run := r.collective(t, 64*1024)
	cfg := monCfg()
	cfg.FixedRTTThreshold = 123 * time.Microsecond
	sys := NewSystem(r.k, r.net, run, r.hosts, cfg)
	run.Start()
	r.k.Run(simtime.Never)
	for _, m := range sys.Monitors {
		if m.threshold != 123*time.Microsecond {
			t.Fatalf("fixed threshold not applied: %v", m.threshold)
		}
	}
}

func TestAdaptiveTransfer(t *testing.T) {
	r := newRig(t, 4, 0)
	run := r.collective(t, 512*1024)
	cfg := monCfg()
	sys := NewSystem(r.k, r.net, run, r.hosts, cfg)
	// Slow rank2's uplink so every other monitor finishes its steps first
	// and transfers opportunities toward the waiter chain.
	sw := r.tp.Switches()[0]
	r.net.InjectPFCStorm(sw, 2, simtime.Time(10*time.Microsecond), 300*time.Microsecond)
	run.Start()
	r.k.Run(simtime.Never)
	if done, _ := run.Done(); !done {
		t.Fatal("collective incomplete")
	}
	var transferred, received int
	for _, m := range sys.Monitors {
		transferred += m.Transferred
		received += m.Received
	}
	if transferred == 0 {
		t.Fatalf("no opportunities transferred despite skewed completion")
	}
	if received == 0 {
		t.Fatalf("transferred but never received")
	}
	// Notification traffic must be in the bandwidth overhead.
	if sys.Col.Totals.NotifyBytes == 0 {
		t.Fatalf("notification bytes unaccounted")
	}
}

func TestAdaptiveOffNoTransfer(t *testing.T) {
	r := newRig(t, 4, 0)
	run := r.collective(t, 512*1024)
	cfg := monCfg()
	cfg.Adaptive = false
	sys := NewSystem(r.k, r.net, run, r.hosts, cfg)
	sw := r.tp.Switches()[0]
	r.net.InjectPFCStorm(sw, 2, simtime.Time(10*time.Microsecond), 300*time.Microsecond)
	run.Start()
	r.k.Run(simtime.Never)
	for _, m := range sys.Monitors {
		if m.Transferred != 0 || m.Received != 0 {
			t.Fatalf("transfer happened with Adaptive=false")
		}
	}
	if sys.Col.Totals.NotifyBytes != 0 {
		t.Fatalf("notify bytes with Adaptive=false")
	}
}

func TestWaitStateTableI(t *testing.T) {
	r := newRig(t, 4, 0)
	run := r.collective(t, 64*1024)
	sys := NewSystem(r.k, r.net, run, r.hosts, monCfg())
	m := sys.Monitors[r.ranks[0]]
	// Before starting: step 0 has no data dependency, so its receive gate
	// is vacuously satisfied — Send Steps < Recv Steps → non-waiting
	// (Table I: "execute the next send step as soon as current is
	// finished").
	if m.WaitState() != NonWaiting {
		t.Fatalf("initial state = %v, want non-waiting", m.WaitState())
	}
	run.Start()
	r.k.Run(simtime.Never)
	// After completion both counters are equal again → waiting (for data
	// that will never come; the collective is over).
	if m.WaitState() != Waiting {
		t.Fatalf("final state = %v", m.WaitState())
	}
}

func TestBudgetCap(t *testing.T) {
	r := newRig(t, 4, 0)
	run := r.collective(t, 64*1024)
	cfg := monCfg()
	sys := NewSystem(r.k, r.net, run, r.hosts, cfg)
	m := sys.Monitors[r.ranks[0]]
	// Simulate hoarding: inject large transfers.
	m.HandleNotify(&fabric.Packet{Kind: fabric.KindNotify, Payload: NotifyPayload{Count: 1000}})
	m.HandleStepStart(0, fabric.FlowKey{})
	if m.budget > 4*cfg.MaxDetectPerStep {
		t.Fatalf("budget %d exceeds hoard cap %d", m.budget, 4*cfg.MaxDetectPerStep)
	}
	_ = run
}

func TestStallWatchdog(t *testing.T) {
	// Storm the switch ingress facing rank 0 from t=0: rank 0's flow is
	// fully halted, produces no ACKs, and the RTT trigger never fires.
	// The §V stall watchdog must trigger instead.
	runCase := func(timeout simtime.Duration) (stall int, reports int) {
		r := newRig(t, 4, 0)
		run := r.collective(t, 256*1024)
		cfg := monCfg()
		cfg.StallTimeout = timeout
		sys := NewSystem(r.k, r.net, run, r.hosts, cfg)
		sw := r.tp.Switches()[0]
		r.net.InjectPFCStorm(sw, 0, 0, 400*time.Microsecond)
		run.Start()
		r.k.Run(simtime.Never)
		if done, _ := run.Done(); !done {
			t.Fatal("collective incomplete")
		}
		m := sys.Monitors[r.ranks[0]]
		return m.StallTriggers, len(m.Reports)
	}
	stall, reports := runCase(50 * time.Microsecond)
	if stall == 0 {
		t.Fatalf("watchdog never fired for a fully halted flow")
	}
	if reports == 0 {
		t.Fatalf("watchdog triggered but no telemetry collected")
	}
	// Without the watchdog the halted flow goes unobserved by rank 0.
	stallOff, _ := runCase(0)
	if stallOff != 0 {
		t.Fatalf("watchdog disabled but StallTriggers = %d", stallOff)
	}
}
