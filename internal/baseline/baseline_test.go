package baseline

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
	k := sim.New(31)
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

func (r *rig) schedules(t *testing.T, bytes int64) []*collective.Schedule {
	t.Helper()
	schs, err := collective.Decompose(collective.Spec{
		Op: collective.AllGather, Alg: collective.Ring, Ranks: r.ranks, Bytes: bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return schs
}

func hkCfg() HawkeyeConfig {
	c := DefaultHawkeyeConfig()
	c.CellSize = 4096
	return c
}

func TestThresholdModes(t *testing.T) {
	// Fat-tree so flow base RTTs actually differ across host pairs.
	ft := topo.PaperFatTree()
	k := sim.New(1)
	net := fabric.NewNetwork(k, ft.Topology, fabric.DefaultConfig())
	ranks := ft.Hosts()[:8]
	schs, err := collective.Decompose(collective.Spec{
		Op: collective.AllGather, Alg: collective.HalvingDoubling, Ranks: ranks, Bytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	maxr := NewHawkeye(k, net, schs, MaxR, hkCfg())
	minr := NewHawkeye(k, net, schs, MinR, hkCfg())
	if maxr.threshold <= minr.threshold {
		t.Fatalf("MaxR threshold %v must exceed MinR %v", maxr.threshold, minr.threshold)
	}
}

func runContention(t *testing.T, mode Mode, cfg HawkeyeConfig) *Hawkeye {
	t.Helper()
	r := newRig(t, 4, 1)
	schs := r.schedules(t, 512*1024)
	run, err := collective.NewRunner(r.k, r.hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	hk := NewHawkeye(r.k, r.net, schs, mode, cfg)
	hk.Wire(r.hosts)
	bg := fabric.FlowKey{Src: r.extras[0], Dst: r.ranks[2], SrcPort: 9000, DstPort: 9001, Proto: 17}
	r.hosts[r.extras[0]].Send(bg, 4<<20)
	run.Start()
	r.k.Run(simtime.Never)
	if done, _ := run.Done(); !done {
		t.Fatal("collective incomplete")
	}
	return hk
}

func TestHawkeyeTriggersUnderContention(t *testing.T) {
	hk := runContention(t, MinR, hkCfg())
	if hk.Triggers == 0 {
		t.Fatalf("Hawkeye-MinR never triggered under contention")
	}
	if len(hk.Reports)+hk.Discarded != hk.Triggers {
		t.Fatalf("report accounting: %d retained + %d discarded != %d triggers",
			len(hk.Reports), hk.Discarded, hk.Triggers)
	}
}

func TestRetentionDedupDiscards(t *testing.T) {
	cfg := hkCfg()
	cfg.RetainEvery = 50 * time.Microsecond
	hk := runContention(t, MinR, cfg)
	if hk.Discarded == 0 {
		t.Fatalf("50µs dedup never discarded despite repeated triggers (triggers=%d)", hk.Triggers)
	}
	if len(hk.Reports) == 0 {
		t.Fatalf("dedup retained nothing")
	}
}

func TestMinRTriggersMoreThanMaxR(t *testing.T) {
	// On a uniform star the base RTTs are equal, so build thresholds from
	// a fat-tree-like spread by hand: MinR < MaxR means MinR fires on
	// smaller excursions.
	minr := runContention(t, MinR, hkCfg())
	maxr := runContention(t, MaxR, hkCfg())
	if minr.Triggers < maxr.Triggers {
		t.Fatalf("MinR (%d) should trigger at least as often as MaxR (%d)",
			minr.Triggers, maxr.Triggers)
	}
	// MinR pays more overhead.
	if minr.Col.Totals.TelemetryBytes < maxr.Col.Totals.TelemetryBytes {
		t.Fatalf("MinR overhead %d < MaxR %d", minr.Col.Totals.TelemetryBytes,
			maxr.Col.Totals.TelemetryBytes)
	}
}

func TestFullPolling(t *testing.T) {
	r := newRig(t, 4, 0)
	schs := r.schedules(t, 256*1024)
	run, err := collective.NewRunner(r.k, r.hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	fp := NewFullPolling(r.k, r.net, 20*time.Microsecond)
	run.OnComplete = func(at simtime.Time) { fp.Stop() }
	fp.Start()
	run.Start()
	r.k.Run(simtime.Never)

	if len(fp.Reports) < 2 {
		t.Fatalf("full polling collected %d epochs", len(fp.Reports))
	}
	if fp.Col.Totals.TelemetryBytes == 0 {
		t.Fatalf("no overhead accounted")
	}
	// Stop must halt collection: drain and compare.
	n := len(fp.Reports)
	r.k.After(time.Millisecond, func() {})
	r.k.Run(simtime.Never)
	if len(fp.Reports) != n {
		t.Fatalf("full polling continued after Stop")
	}
}

func TestFullPollingDominatesOverhead(t *testing.T) {
	// Full polling's telemetry volume must exceed Hawkeye-MaxR's on the
	// same workload duration scale (it reads every port every epoch).
	r := newRig(t, 4, 0)
	schs := r.schedules(t, 256*1024)
	run, err := collective.NewRunner(r.k, r.hosts, schs)
	if err != nil {
		t.Fatal(err)
	}
	run.Bind()
	hk := NewHawkeye(r.k, r.net, schs, MaxR, hkCfg())
	hk.Wire(r.hosts)
	fp := NewFullPolling(r.k, r.net, 10*time.Microsecond)
	run.OnComplete = func(at simtime.Time) { fp.Stop() }
	fp.Start()
	run.Start()
	r.k.Run(simtime.Never)
	if fp.Col.Totals.TelemetryBytes <= hk.Col.Totals.TelemetryBytes {
		t.Fatalf("full polling %dB should exceed quiet Hawkeye %dB",
			fp.Col.Totals.TelemetryBytes, hk.Col.Totals.TelemetryBytes)
	}
}
