package scenario

import (
	"time"

	"fmt"

	"vedrfolnir/internal/baseline"
	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/monitor"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
	"vedrfolnir/internal/waitgraph"
)

// Outcome is one case's diagnostic verdict under the paper's criteria.
type Outcome uint8

// Outcomes per §IV-A's definitions.
const (
	// TP: all injected flows detected / PFC traced to its source.
	TP Outcome = iota
	// FP: partial detection (only some flows; PFC reported but not
	// localized).
	FP
	// FN: no anomaly detected at all.
	FN
)

func (o Outcome) String() string {
	switch o {
	case TP:
		return "TP"
	case FP:
		return "FP"
	default:
		return "FN"
	}
}

// Result is everything a case run produces.
type Result struct {
	Case    Case
	System  SystemKind
	Outcome Outcome

	// Detected culprit flows and PFC root ports.
	Detected  []fabric.FlowKey
	RootPorts []topo.PortID

	// Overhead is the diagnosis system's cost on this case.
	Overhead telemetry.Overhead
	// Reports retained for diagnosis.
	ReportCount int
	// CollectiveTime is the collective's completion time.
	CollectiveTime simtime.Duration
	// Completed is false if the simulation hit the deadline.
	Completed bool

	Diag *diagnose.Diagnosis

	// Confidence is the diagnosis's overall coverage score (1 in a healthy
	// control plane); ChaosStats counts the faults injected into this run.
	Confidence float64
	ChaosStats chaos.Stats

	// The analyzer's raw inputs, retained so callers (e.g. the analyzerd
	// integration tests, offline tooling) can re-submit or re-analyze.
	Records []collective.StepRecord
	Reports []*telemetry.Report
	CFs     map[fabric.FlowKey]bool
}

// RunOptions carries per-system tunables so the parameter sweeps of
// Figs 12–13 can vary them.
type RunOptions struct {
	Monitor  monitor.Config
	Hawkeye  baseline.HawkeyeConfig
	FullPoll simtime.Duration // polling epoch
	// Chaos, when Active, injects control-plane faults into the run
	// (internal/chaos). The zero value leaves the pipeline untouched.
	Chaos chaos.Config
	// Obs, when enabled, receives sim-time trace events, metrics, and
	// structured logs from every layer of the run. The nil default records
	// nothing and leaves the run byte-identical to an uninstrumented one.
	Obs *obs.Scope
	// Stages, when set, records wall-time histograms around the named
	// hot-path stages (event push/pop, fabric forwarding, telemetry
	// collection, diagnosis phases) into its own registry — never into
	// Obs, whose Flatten lands in deterministic bundles. The nil default
	// records nothing and leaves the run byte-identical.
	Stages *obs.Stages
}

// DefaultRunOptions returns each system's paper operating point, adapted to
// the configured cell size and with every time constant scaled by
// cfg.Scale: shrinking the data shrinks all durations proportionally (the
// bandwidth is fixed), so sampling periods and dedup windows must shrink
// with them to preserve each system's poll-count-to-workload ratio.
func DefaultRunOptions(cfg Config) RunOptions {
	scaleT := func(paper simtime.Duration) simtime.Duration { return scaleDur(paper, cfg.Scale) }
	m := monitor.DefaultConfig()
	m.CellSize = cfg.CellSize
	m.Window = scaleT(500 * time.Millisecond)
	m.UnrestrictedSpacing = scaleT(100 * time.Microsecond)
	// §V stall watchdog: investigate flows halted for an extended period
	// (PFC deadlocks and storms that silence the RTT trigger).
	m.StallTimeout = scaleT(50 * time.Millisecond)
	h := baseline.DefaultHawkeyeConfig()
	h.CellSize = cfg.CellSize
	h.PerFlowSpacing = scaleT(1 * time.Millisecond)
	h.RetainEvery = scaleT(50 * time.Microsecond * 90) // 50 µs at the 1/90 default
	h.Window = m.Window
	return RunOptions{Monitor: m, Hawkeye: h, FullPoll: scaleT(1 * time.Millisecond)}
}

// Run executes one case under one diagnosis system and evaluates the
// outcome against the case's ground truth. It returns an error for
// construction failures (bad collective spec, invalid host config, bad
// injection point); a case that merely hits the deadline still returns a
// Result with Completed=false.
func Run(cs Case, system SystemKind, cfg Config, opts RunOptions) (Result, error) {
	ft, net := newNetwork(cs, cfg)
	return runOn(ft, net, cs, system, cfg, opts)
}

// newNetwork builds the case's fabric: the paper fat-tree on a fresh kernel
// seeded from the case, no device attached yet.
func newNetwork(cs Case, cfg Config) (*topo.FatTree, *fabric.Network) {
	ft := topo.PaperFatTree()
	k := sim.New(cs.Seed*1000003 + int64(cs.Kind))
	k.SetEventLimit(500_000_000)
	fcfg := cfg.Fabric
	if fcfg.PFCPauseThreshold == 0 {
		fcfg = fabric.DefaultConfig()
	}
	return ft, fabric.NewNetwork(k, ft.Topology, fcfg)
}

// runOn is Run on a network newNetwork built; this package's tests reach
// in between the two to observe every queue or to intern flows in an order
// of their choosing.
func runOn(ft *topo.FatTree, net *fabric.Network, cs Case, system SystemKind, cfg Config, opts RunOptions) (Result, error) {
	k := net.K
	if opts.Stages != nil {
		k.SetStages(opts.Stages)
		net.SetStages(opts.Stages)
	}

	rcfg := rdma.DefaultConfig()
	rcfg.CellSize = cfg.CellSize
	rcfg.CC = cfg.CC
	// DCQCN reaction times scale with the workload so congestion control
	// converges over the same fraction of a step as at paper scale.
	rcfg.CNPInterval = scaleDur(50*time.Microsecond*90, cfg.Scale)
	rcfg.RateIncTimer = scaleDur(55*time.Microsecond*90, cfg.Scale)
	hosts := make(map[topo.NodeID]*rdma.Host)
	for _, id := range ft.Hosts() {
		h, err := rdma.NewHost(k, net, id, rcfg)
		if err != nil {
			return Result{}, fmt.Errorf("scenario: %w", err)
		}
		hosts[id] = h
	}
	ranks := ft.Hosts()[:cfg.Ranks]

	schedules, err := collective.Decompose(collective.Spec{
		Op: cfg.Op, Alg: cfg.Alg, Ranks: ranks, Bytes: cfg.StepBytes * int64(cfg.Ranks),
	})
	if err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	run, err := collective.NewRunner(k, hosts, schedules)
	if err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	run.Bind()

	cfs := make(map[fabric.FlowKey]bool)
	for _, sch := range schedules {
		for s := range sch.Steps {
			cfs[sch.FlowKey(s)] = true
		}
	}

	// Instantiate the diagnosis system; col is its one telemetry collector.
	var (
		sys     *monitor.System
		fp      *baseline.FullPolling
		col     *telemetry.Collector
		reports func() []*telemetry.Report
	)
	switch system {
	case Vedrfolnir:
		sys = monitor.NewSystem(k, net, run, hosts, opts.Monitor)
		col, reports = sys.Col, sys.Reports
	case HawkeyeMaxR, HawkeyeMinR:
		mode := baseline.MaxR
		if system == HawkeyeMinR {
			mode = baseline.MinR
		}
		hk := baseline.NewHawkeye(k, net, schedules, mode, opts.Hawkeye)
		hk.Wire(hosts)
		col, reports = hk.Col, func() []*telemetry.Report { return hk.Reports }
	case FullPolling:
		fp = baseline.NewFullPolling(k, net, opts.FullPoll)
		fp.Start()
		col, reports = fp.Col, func() []*telemetry.Report { return fp.Reports }
	}

	if opts.Obs.Enabled() {
		instrumentRun(opts.Obs, run, sys, ranks)
	}
	if opts.Stages != nil && col != nil {
		col.SetStages(opts.Stages)
	}

	// Wire the fault-injection layer. Every hook is nil by default, so an
	// inactive (or zero-rate) configuration leaves the run byte-identical.
	var ch *chaos.Chaos
	if opts.Chaos.Active() {
		ccfg := opts.Chaos
		if ccfg.MonitorKillRate > 0 && ccfg.MonitorKillWindow <= 0 {
			// Spread undated kills across the whole run by default.
			ccfg.MonitorKillWindow = simtime.Duration(cfg.Deadline)
		}
		ch = chaos.New(ccfg, cs.Seed)
		net.Tap = ch.TapControl
		if col != nil {
			col.PortFault = ch.PortLost
		}
		if sys != nil {
			// Monitor-level faults only apply to the host-monitor system.
			var monHosts []topo.NodeID
			for _, id := range ranks {
				if sys.Monitors[id] != nil {
					sys.Monitors[id].Gate = ch
					monHosts = append(monHosts, id)
				}
			}
			for _, kill := range ch.KillPlan(monHosts) {
				m := sys.Monitors[kill.Host]
				k.At(kill.At, m.Kill)
				k.At(kill.RestartAt, m.Restart)
			}
		}
	}

	// Inject the anomaly. Send failures inside event callbacks cannot be
	// returned from there; the first one is captured and surfaced after the
	// run.
	var injErr error
	for _, inj := range cs.Flows {
		inj := inj
		k.At(inj.StartAt, func() {
			if err := hosts[inj.Key.Src].Send(inj.Key, inj.Bytes); err != nil && injErr == nil {
				injErr = err
			}
		})
	}
	if cs.Kind == PFCStorm {
		if err := net.InjectPFCStorm(cs.StormSwitch, cs.StormPort, cs.StormStart, cs.StormDur); err != nil {
			return Result{}, fmt.Errorf("scenario: %w", err)
		}
	}
	if cs.Kind == LoadImbalance {
		for _, dst := range cs.PinnedDsts {
			ft.OverrideNextHops(cs.PinnedEdge, dst, []int{cs.PinnedPort})
		}
	}
	if cs.Kind == Loop {
		edge, agg := cs.LoopSwitches[0], cs.LoopSwitches[1]
		up, down := -1, -1
		for pi, peer := range ft.Node(edge).Ports {
			if peer.Node == agg {
				up = pi
			}
		}
		for pi, peer := range ft.Node(agg).Ports {
			if peer.Node == edge {
				down = pi
			}
		}
		ft.OverrideNextHops(edge, cs.LoopDst, []int{up})
		ft.OverrideNextHops(agg, cs.LoopDst, []int{down})
	}

	// Run until the collective completes (plus nothing: reports are
	// collected inline), bounded by the deadline.
	var doneAt simtime.Time
	run.OnComplete = func(at simtime.Time) {
		doneAt = at
		if fp != nil {
			fp.Stop()
		}
		k.Stop()
	}
	run.Start()
	k.Run(simtime.Time(cfg.Deadline))
	if injErr != nil {
		return Result{}, fmt.Errorf("scenario: injecting background flow: %w", injErr)
	}
	if err := run.Err(); err != nil {
		return Result{}, fmt.Errorf("scenario: %w", err)
	}
	completed, _ := run.Done()

	// Diagnose. The coverage inputs (expected step records, lost polls)
	// let the analyzer annotate confidence when telemetry went missing.
	expectedRecords := 0
	for _, sch := range schedules {
		expectedRecords += len(sch.Steps)
	}
	pollsLost := 0
	if sys != nil {
		pollsLost = sys.PollsLost()
	}
	diag := diagnose.Analyze(diagnose.Input{
		Records: run.Records(),
		Reports: reports(),
		CFs:     cfs,
		StepOf: func(f fabric.FlowKey) (waitgraph.StepRef, bool) {
			host, step, ok := run.StepOf(f)
			return waitgraph.StepRef{Host: host, Step: step}, ok
		},
		RecordsExpected: expectedRecords,
		PollsLost:       pollsLost,
		Obs:             opts.Obs,
		ObsAt:           k.Now(),
		Stages:          opts.Stages,
	})
	if opts.Obs.Enabled() {
		recordRunObs(opts.Obs, k, net, col.Totals, ch, doneAt, completed)
	}

	res := Result{
		Case:           cs,
		System:         system,
		Detected:       diag.Culprits(),
		RootPorts:      diag.RootPorts(),
		Overhead:       col.Totals,
		ReportCount:    len(reports()),
		CollectiveTime: simtime.Duration(doneAt),
		Completed:      completed,
		Diag:           diag,
		Confidence:     diag.Confidence,
		Records:        run.Records(),
		Reports:        reports(),
		CFs:            cfs,
	}
	if ch != nil {
		res.ChaosStats = ch.Stats
	}
	res.Outcome = Evaluate(cs, diag)
	return res, nil
}

// RootLocalized reports whether a finding traces the case's PFC anomaly to
// its ground-truth origin: a storm finding to the injected switch
// (provenance roots are egress ports while the injection point is an
// ingress, so a storm is compared at switch granularity), a backpressure
// or storm finding to the cascade's root port. Other kinds have no PFC
// origin to localize.
func (cs Case) RootLocalized(f diagnose.Finding) bool {
	switch cs.Kind {
	case PFCStorm:
		return f.Type == diagnose.PFCStorm && f.RootPort.Node == cs.StormSwitch
	case PFCBackpressure:
		return (f.Type == diagnose.PFCBackpressure || f.Type == diagnose.PFCStorm) &&
			f.RootPort == cs.BackpressureRoot
	}
	return false
}

// Evaluate applies the paper's per-scenario TP/FP/FN criteria to a
// diagnosis.
func Evaluate(cs Case, diag *diagnose.Diagnosis) Outcome {
	switch cs.Kind {
	case Contention, Incast, LoadImbalance:
		// "Detecting all injected flows [is] a true positive, detecting
		// only some flows [is] a false positive, and failing to detect
		// any anomaly [is] a false negative."
		detected := map[fabric.FlowKey]bool{}
		for _, f := range diag.Culprits() {
			detected[f] = true
		}
		missing := 0
		for key := range cs.InjectedKeys() {
			if !detected[key] {
				missing++
			}
		}
		switch {
		case len(diag.Findings) == 0:
			return FN
		case missing == 0:
			return TP
		default:
			return FP
		}

	case PFCStorm, PFCBackpressure:
		// "Tracing to the source port where the PFC occurred is a true
		// positive, merely reporting the presence of PFC is a false
		// positive, failing to detect any anomaly is a false negative."
		if len(diag.Findings) == 0 {
			return FN
		}
		for _, f := range diag.Findings {
			if cs.RootLocalized(f) {
				return TP
			}
		}
		return FP

	case Loop:
		// Extension criteria, analogous to the PFC rules: localizing the
		// problem to one of the looped switches is a TP. In a lossless
		// fabric a forwarding loop manifests as a PFC deadlock (paused
		// packets never age out), so a deadlock cycle localized at the
		// loop counts as detection too. Other findings without
		// localization are an FP; silence is an FN.
		if len(diag.Findings) == 0 {
			return FN
		}
		for _, f := range diag.Findings {
			atLoop := f.Port.Node == cs.LoopSwitches[0] || f.Port.Node == cs.LoopSwitches[1]
			if f.Type == diagnose.ForwardingLoop && atLoop {
				return TP
			}
			if f.Type == diagnose.PFCDeadlock {
				for _, p := range append([]topo.PortID{f.Port}, f.Chain...) {
					if p.Node == cs.LoopSwitches[0] || p.Node == cs.LoopSwitches[1] {
						return TP
					}
				}
			}
		}
		return FP

	default: // Clean
		if len(diag.Findings) == 0 {
			return TP
		}
		return FP
	}
}

// Metrics aggregates outcomes into the paper's precision/recall.
type Metrics struct {
	TP, FP, FN int
}

// Add folds one outcome in.
func (m *Metrics) Add(o Outcome) {
	switch o {
	case TP:
		m.TP++
	case FP:
		m.FP++
	case FN:
		m.FN++
	}
}

// Precision = TP/(TP+FP); 1 when undefined.
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 1
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall = TP/(TP+FN); 1 when undefined.
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 1
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// scaleDur scales a paper-scale duration by the workload scale, with a
// 200 ns floor.
func scaleDur(paper simtime.Duration, scale float64) simtime.Duration {
	d := simtime.Duration(float64(paper) * scale)
	if d < 200 {
		d = 200
	}
	return d
}
