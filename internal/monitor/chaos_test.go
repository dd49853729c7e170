package monitor

import (
	"testing"
	"time"

	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/simtime"
)

// gateFunc adapts a func to PollGate for fault-injection tests.
type gateFunc func() bool

func (g gateFunc) PollLost() bool { return g() }

func TestPollGateBoundedRetries(t *testing.T) {
	// Every poll round trip is lost: each detection re-arms a bounded
	// number of times and then gives up. The collective must complete with
	// zero telemetry and the loss must be fully accounted.
	r := newRig(t, 4, 1)
	run := r.collective(t, 512*1024)
	sys := NewSystem(r.k, r.net, run, r.hosts, monCfg())
	for _, m := range sys.Monitors {
		m.Gate = gateFunc(func() bool { return true })
	}
	bg := fabric.FlowKey{Src: r.extras[0], Dst: r.ranks[2], SrcPort: 9000, DstPort: 9001, Proto: 17}
	r.hosts[r.extras[0]].Send(bg, 2<<20)
	run.Start()
	r.k.Run(simtime.Never)
	if done, _ := run.Done(); !done {
		t.Fatal("collective incomplete under total poll loss")
	}
	if sys.Triggers() == 0 {
		t.Fatal("contention produced no detections; gate untested")
	}
	if sys.PollsLost() == 0 {
		t.Fatal("gate installed but no polls counted lost")
	}
	if got := len(sys.Reports()); got != 0 {
		t.Fatalf("%d reports collected despite a closed gate", got)
	}
	// Bounded re-arm: each trigger costs at most 1 + maxPollRetries lost
	// polls (the initial attempt plus its retries).
	var retries int
	for _, m := range sys.Monitors {
		retries += m.PollRetries
	}
	if retries == 0 {
		t.Fatal("lost polls were never re-armed")
	}
	if max := sys.Triggers() * (1 + maxPollRetries); sys.PollsLost() > max {
		t.Fatalf("%d polls lost for %d triggers, exceeding the re-arm bound %d",
			sys.PollsLost(), sys.Triggers(), max)
	}
}

func TestPollGateRetrySucceeds(t *testing.T) {
	// A gate that eats only the first attempt: the re-arm must recover the
	// telemetry instead of dropping the detection.
	r := newRig(t, 4, 1)
	run := r.collective(t, 512*1024)
	sys := NewSystem(r.k, r.net, run, r.hosts, monCfg())
	calls := 0
	flaky := gateFunc(func() bool {
		calls++
		return calls == 1
	})
	for _, m := range sys.Monitors {
		m.Gate = flaky
	}
	bg := fabric.FlowKey{Src: r.extras[0], Dst: r.ranks[2], SrcPort: 9000, DstPort: 9001, Proto: 17}
	r.hosts[r.extras[0]].Send(bg, 2<<20)
	run.Start()
	r.k.Run(simtime.Never)
	if sys.PollsLost() != 1 {
		t.Fatalf("PollsLost = %d, want exactly the one eaten attempt", sys.PollsLost())
	}
	if len(sys.Reports()) == 0 {
		t.Fatal("retry never recovered any telemetry")
	}
}

func TestMonitorKillRestart(t *testing.T) {
	// Kill one monitor mid-collective and restart it shortly after: the
	// collective completes, the kill is counted, the monitor is alive at
	// the end, and events during the dead window are ignored (no panics,
	// no stale-state triggers).
	r := newRig(t, 4, 1)
	run := r.collective(t, 512*1024)
	sys := NewSystem(r.k, r.net, run, r.hosts, monCfg())
	victim := sys.Monitors[r.ranks[0]]
	killAt := simtime.Time(20 * time.Microsecond)
	r.k.At(killAt, victim.Kill)
	r.k.At(killAt.Add(simtime.Duration(100*time.Microsecond)), victim.Restart)
	bg := fabric.FlowKey{Src: r.extras[0], Dst: r.ranks[2], SrcPort: 9000, DstPort: 9001, Proto: 17}
	r.hosts[r.extras[0]].Send(bg, 2<<20)
	run.Start()
	r.k.Run(simtime.Never)
	if done, _ := run.Done(); !done {
		t.Fatal("collective incomplete after kill/restart")
	}
	if victim.Kills != 1 || sys.Kills() != 1 {
		t.Fatalf("Kills = %d (system %d), want 1", victim.Kills, sys.Kills())
	}
	if victim.dead {
		t.Fatal("monitor still dead after Restart")
	}
}

func TestDeadMonitorIgnoresEvents(t *testing.T) {
	// Direct unit check on the dead-state guards: a killed monitor ignores
	// notifications and step events instead of mutating volatile state.
	r := newRig(t, 4, 0)
	run := r.collective(t, 64*1024)
	sys := NewSystem(r.k, r.net, run, r.hosts, monCfg())
	m := sys.Monitors[r.ranks[0]]
	m.Kill()
	m.HandleNotify(&fabric.Packet{Kind: fabric.KindNotify, Payload: NotifyPayload{Count: 5}})
	if m.budget != 0 {
		t.Fatalf("dead monitor accepted notify budget %d", m.budget)
	}
	m.HandleStepStart(0, fabric.FlowKey{})
	if m.budget != 0 {
		t.Fatalf("dead monitor armed a step (budget %d)", m.budget)
	}
	m.Restart()
	m.HandleStepStart(0, fabric.FlowKey{})
	if m.budget == 0 {
		t.Fatal("restarted monitor did not re-arm at the next step start")
	}
	_ = run
}
