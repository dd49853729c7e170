package rdma

import (
	"testing"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/topo"
)

// rig is a star topology with n RDMA hosts around one switch.
type rig struct {
	k     *sim.Kernel
	tp    *topo.Topology
	net   *fabric.Network
	hosts []*Host
}

func newRig(t *testing.T, n int, rcfg Config, fcfg fabric.Config) *rig {
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
	k := sim.New(7)
	net := fabric.NewNetwork(k, tp, fcfg)
	r := &rig{k: k, tp: tp, net: net}
	for _, id := range ids {
		h, err := NewHost(k, net, id, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		r.hosts = append(r.hosts, h)
	}
	return r
}

func fk(src, dst topo.NodeID, port uint16) fabric.FlowKey {
	return fabric.FlowKey{Src: src, Dst: dst, SrcPort: port, DstPort: port + 1, Proto: 17}
}

func TestMessageDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 1024
	r := newRig(t, 2, cfg, fabric.DefaultConfig())
	h0, h1 := r.hosts[0], r.hosts[1]

	var recvBytes, sentBytes int64
	var recvAt simtime.Time
	h1.OnRecvComplete = func(f fabric.FlowKey, b int64) { recvBytes = b; recvAt = r.k.Now() }
	h0.OnSendComplete = func(f fabric.FlowKey, b int64) { sentBytes = b }

	const size = 10*1024 + 17 // non-multiple of cell size
	h0.Send(fk(h0.ID, h1.ID, 100), size)
	r.k.Run(simtime.Never)

	if recvBytes != size {
		t.Fatalf("received %d bytes, want %d", recvBytes, size)
	}
	if sentBytes != size {
		t.Fatalf("sender completion reported %d, want %d", sentBytes, size)
	}
	if recvAt == 0 {
		t.Fatalf("no completion time recorded")
	}
	if len(h0.sends) != 0 {
		t.Fatalf("send state leaked")
	}
}

func TestLineRateStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 64 << 10
	r := newRig(t, 2, cfg, fabric.DefaultConfig())
	h0, h1 := r.hosts[0], r.hosts[1]

	var done simtime.Time
	h1.OnRecvComplete = func(fabric.FlowKey, int64) { done = r.k.Now() }

	const size = 16 * (64 << 10) // 1 MiB
	h0.Send(fk(h0.ID, h1.ID, 100), size)
	r.k.Run(simtime.Never)

	// Ideal: serialization 1MiB at 100Gbps ≈ 83.9µs + ~2.2µs path. With
	// ACK-clocked window the flow must finish within ~25% of ideal —
	// proving there is no slow-start ramp.
	ideal := (100 * simtime.Gbps).Transmit(int64(size))
	if done == 0 {
		t.Fatalf("message never completed")
	}
	if limit := ideal * 5 / 4; simtime.Duration(done) > limit {
		t.Fatalf("completion %v exceeds no-slow-start bound %v", done, limit)
	}
}

func TestRTTSamples(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 1024
	r := newRig(t, 2, cfg, fabric.DefaultConfig())
	h0, h1 := r.hosts[0], r.hosts[1]

	var samples []RTTSample
	h0.OnRTTSample = func(s RTTSample) { samples = append(samples, s) }
	h0.Send(fk(h0.ID, h1.ID, 100), 4*1024)
	r.k.Run(simtime.Never)

	if len(samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(samples))
	}
	// Uncongested RTT: data 1024B tx twice + ack 64B twice + 4×1µs prop.
	base := 2*(100*simtime.Gbps).Transmit(int64(1024)) +
		2*(100*simtime.Gbps).Transmit(int64(fabric.AckSize)) + 4*time.Microsecond
	for _, s := range samples {
		if s.RTT < base || s.RTT > base*2 {
			t.Fatalf("sample RTT %v outside [%v, %v]", s.RTT, base, base*2)
		}
	}
	_ = h1
}

func TestDCQCNReactsToCongestion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 4096
	fcfg := fabric.DefaultConfig()
	fcfg.ECNThreshold = 8192
	fcfg.PFCPauseThreshold = 1 << 40
	r := newRig(t, 3, cfg, fcfg)
	h0, h1, h2 := r.hosts[0], r.hosts[1], r.hosts[2]

	f0, f1 := fk(h0.ID, h2.ID, 100), fk(h1.ID, h2.ID, 200)
	h0.Send(f0, 1<<20)
	h1.Send(f1, 1<<20)

	minRate := simtime.Rate(1 << 62)
	// Sample rates periodically while the flows run.
	var probe func()
	probe = func() {
		if rt := currentRate(h0, f0); len(h0.sends) > 0 && rt < minRate {
			minRate = rt
		}
		if r.k.Pending() > 0 {
			r.k.After(10*time.Microsecond, probe)
		}
	}
	r.k.After(10*time.Microsecond, probe)
	r.k.Run(simtime.Never)

	if h0.CNPsSent+h1.CNPsSent+h2.CNPsSent == 0 {
		t.Fatalf("no CNPs generated under 2:1 incast with ECN")
	}
	if minRate >= 100*simtime.Gbps {
		t.Fatalf("sender never reduced rate below line rate (min %v)", minRate)
	}
}

func TestConcurrentFlowsComplete(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 2048
	r := newRig(t, 4, cfg, fabric.DefaultConfig())

	done := map[fabric.FlowKey]bool{}
	for _, h := range r.hosts {
		h.OnRecvComplete = func(f fabric.FlowKey, b int64) { done[f] = true }
	}
	var flows []fabric.FlowKey
	for i, hs := range r.hosts {
		dst := r.hosts[(i+1)%len(r.hosts)]
		f := fk(hs.ID, dst.ID, uint16(100*i+100))
		flows = append(flows, f)
		hs.Send(f, 100*1024)
	}
	r.k.Run(simtime.Never)
	for _, f := range flows {
		if !done[f] {
			t.Fatalf("flow %v never completed", f)
		}
	}
}

func TestSendValidation(t *testing.T) {
	r := newRig(t, 2, DefaultConfig(), fabric.DefaultConfig())
	h0, h1 := r.hosts[0], r.hosts[1]
	if err := h0.Send(fk(h1.ID, h0.ID, 1), 100); err == nil {
		t.Errorf("expected error for wrong source")
	}
	f := fk(h0.ID, h1.ID, 2)
	if err := h0.Send(f, 100); err != nil {
		t.Fatal(err)
	}
	if err := h0.Send(f, 100); err == nil {
		t.Errorf("expected error for duplicate flow")
	}
}

func TestTinyMessage(t *testing.T) {
	r := newRig(t, 2, DefaultConfig(), fabric.DefaultConfig())
	h0, h1 := r.hosts[0], r.hosts[1]
	got := int64(-1)
	h1.OnRecvComplete = func(f fabric.FlowKey, b int64) { got = b }
	h0.Send(fk(h0.ID, h1.ID, 3), 1)
	r.k.Run(simtime.Never)
	if got != 1 {
		t.Fatalf("1-byte message: got %d", got)
	}
}

func TestPFCHaltsSenderUntilResume(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 1024
	r := newRig(t, 2, cfg, fabric.DefaultConfig())
	h0, h1 := r.hosts[0], r.hosts[1]
	sw := r.tp.Switches()[0]

	// Storm pauses h0's uplink between 5µs and 100µs.
	r.net.InjectPFCStorm(sw, 0, simtime.Time(5*time.Microsecond), 95*time.Microsecond)

	var done simtime.Time
	h1.OnRecvComplete = func(fabric.FlowKey, int64) { done = r.k.Now() }
	// Large enough that transmission is still in progress when the PAUSE
	// frame lands (the windowed burst cannot cover the whole message).
	h0.Send(fk(h0.ID, h1.ID, 9), 1<<20)
	r.k.Run(simtime.Never)

	if done < simtime.Time(100*time.Microsecond) {
		t.Fatalf("flow finished at %v despite 95µs PFC storm", done)
	}
}

func TestSwiftReactsToCongestion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 4096
	cfg.CC = CCSwift
	fcfg := fabric.DefaultConfig()
	fcfg.PFCPauseThreshold = 1 << 40
	r := newRig(t, 3, cfg, fcfg)
	h0, h1, h2 := r.hosts[0], r.hosts[1], r.hosts[2]

	f0, f1 := fk(h0.ID, h2.ID, 100), fk(h1.ID, h2.ID, 200)
	h0.Send(f0, 1<<20)
	h1.Send(f1, 1<<20)

	minRate := simtime.Rate(1 << 62)
	var probe func()
	probe = func() {
		if rt := currentRate(h0, f0); len(h0.sends) > 0 && rt < minRate {
			minRate = rt
		}
		if r.k.Pending() > 0 {
			r.k.After(10*time.Microsecond, probe)
		}
	}
	r.k.After(10*time.Microsecond, probe)
	r.k.Run(simtime.Never)

	if minRate >= 100*simtime.Gbps {
		t.Fatalf("swift never reduced rate under 2:1 incast (min %v)", minRate)
	}
	// Swift never generates CNPs — it is delay-driven.
	if h0.CNPsSent+h1.CNPsSent > 0 {
		t.Fatalf("swift senders emitted CNPs")
	}
}

func TestCCNoneStaysAtLineRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 4096
	cfg.CC = CCNone
	r := newRig(t, 3, cfg, fabric.DefaultConfig())
	h0, h1, h2 := r.hosts[0], r.hosts[1], r.hosts[2]
	f0, f1 := fk(h0.ID, h2.ID, 100), fk(h1.ID, h2.ID, 200)
	h0.Send(f0, 512*1024)
	h1.Send(f1, 512*1024)

	sawBelow := false
	var probe func()
	probe = func() {
		if len(h0.sends) > 0 && currentRate(h0, f0) < 100*simtime.Gbps {
			sawBelow = true
		}
		if r.k.Pending() > 0 {
			r.k.After(10*time.Microsecond, probe)
		}
	}
	r.k.After(10*time.Microsecond, probe)
	r.k.Run(simtime.Never)
	if sawBelow {
		t.Fatalf("CCNone sender reduced its rate")
	}
}

func TestSwiftCompletesCollectiveScaleMessage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSize = 16 << 10
	cfg.CC = CCSwift
	r := newRig(t, 2, cfg, fabric.DefaultConfig())
	h0, h1 := r.hosts[0], r.hosts[1]
	var done bool
	h1.OnRecvComplete = func(fabric.FlowKey, int64) { done = true }
	h0.Send(fk(h0.ID, h1.ID, 9), 4<<20)
	r.k.Run(simtime.Never)
	if !done {
		t.Fatalf("swift flow never completed")
	}
}

// currentRate reports the pacing rate of an active flow (line rate if the
// flow is unknown, which also covers completed flows).
func currentRate(h *Host, flow fabric.FlowKey) simtime.Rate {
	for _, st := range h.sends {
		if st.flow == flow {
			return st.rate
		}
	}
	return h.lineRate
}
