// Package monitor implements Vedrfolnir's host-side monitor (§III-C1/C2):
// waiting-status awareness over the SSQ/RSQ decomposition (Table I),
// per-step performance recording, and the step-aware adaptive anomaly
// detection that distinguishes Vedrfolnir from Hawkeye — per-step RTT
// thresholds recomputed from the topology, a bounded number of detection
// triggers per step spaced by the estimated FCT, and the transfer of
// remaining detection opportunities to the waiting flow's monitor through
// highest-priority notification packets (Figs 5–8).
package monitor

import (
	"sort"
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

// Config tunes the detection mechanism. The experiment sweeps of Figs 12–13
// vary RTTFactor and MaxDetectPerStep.
type Config struct {
	// RTTFactor scales the per-step topology-derived base RTT into the
	// detection threshold (1.2 = the paper's "120% RTT").
	RTTFactor float64
	// FixedRTTThreshold, when positive, replaces the per-step threshold
	// with a fixed value for every flow and step (the Fig 13a ablation).
	FixedRTTThreshold simtime.Duration
	// MaxDetectPerStep bounds detection triggers per step (Fig 5).
	MaxDetectPerStep int
	// Unrestricted disables the per-step budget and FCT-derived spacing,
	// falling back to a raw spacing alone (the Fig 13b ablation,
	// "unrestricted triggering similar to Hawkeye").
	Unrestricted bool
	// UnrestrictedSpacing is the only rate limit in Unrestricted mode.
	UnrestrictedSpacing simtime.Duration
	// Adaptive enables the notification-packet transfer of remaining
	// detection opportunities (§III-C2's adaptive mechanism).
	Adaptive bool
	// StallTimeout, when positive, arms the §V extension: if a running
	// step produces no RTT sample for this long (its flow is completely
	// halted — PFC storm or deadlock), a detection triggers immediately,
	// bypassing the budget. The paper proposes exactly this fix for
	// anomalies the RTT trigger cannot see because no packets flow.
	StallTimeout simtime.Duration
	// Window is the telemetry look-back passed to each poll.
	Window simtime.Duration
	// CellSize is the data packet size, needed to estimate base RTTs.
	CellSize int
}

// DefaultConfig returns the paper's operating point: 120% step-grained RTT
// threshold, 3 detections per step, adaptive transfer on.
func DefaultConfig() Config {
	return Config{
		RTTFactor:           1.2,
		MaxDetectPerStep:    3,
		Adaptive:            true,
		UnrestrictedSpacing: time.Microsecond,
		Window:              5 * time.Millisecond,
		CellSize:            64 << 10,
	}
}

// WaitState is the Table I waiting-status determination.
type WaitState uint8

// Waiting states.
const (
	// Waiting: Send Steps == Recv Steps — the next send step waits for
	// the current receive to complete.
	Waiting WaitState = iota
	// NonWaiting: Send Steps < Recv Steps — the next send step can start
	// as soon as the current one finishes.
	NonWaiting
)

func (s WaitState) String() string {
	if s == Waiting {
		return "waiting"
	}
	return "non-waiting"
}

// PollGate decides, per detection, whether the poll round trip is lost —
// the query or the switches' responses eaten by the fabric under diagnosis.
// internal/chaos implements this; nil means every poll completes.
type PollGate interface {
	PollLost() bool
}

// NotifyPayload is the content of a notification packet (Fig 6): the sender
// and the detection opportunities being transferred.
type NotifyPayload struct {
	From  topo.NodeID
	Step  int
	Count int
}

// Monitor is the per-host detection agent (Fig 8).
type Monitor struct {
	K    *sim.Kernel
	Topo *topo.Topology
	Net  *fabric.Network
	Col  *telemetry.Collector
	Run  *collective.Runner
	Host topo.NodeID
	Cfg  Config

	sch *collective.Schedule

	curStep     int
	stepActive  bool
	curFlow     fabric.FlowKey
	threshold   simtime.Duration
	budget      int
	minInterval simtime.Duration
	lastTrigger simtime.Time

	// Obs, when set, receives detection-level trace instants and metrics;
	// the nil default records nothing.
	Obs *obs.Scope

	// Reports are the telemetry reports this monitor's detections
	// produced, in trigger order.
	Reports []*telemetry.Report
	// Triggers counts detection activations.
	Triggers int
	// Suppressed counts over-threshold RTT samples whose detection was
	// withheld by the per-step budget or the FCT-derived spacing — the
	// triggers an unrestricted system would have fired.
	Suppressed int
	// StallTriggers counts detections fired by the stall watchdog.
	StallTriggers int
	// stallBudget bounds watchdog firings per step so a permanently
	// stalled flow (deadlock) cannot poll unboundedly.
	stallBudget int
	// Transferred counts opportunities handed away; Received counts
	// opportunities accepted from notifications.
	Transferred, Received int

	// Gate, when set, can lose a detection's poll round trip (fault
	// injection); the monitor re-arms the detection with bounded retries.
	Gate PollGate
	// PollsLost counts poll round trips the Gate ate; PollRetries counts
	// re-armed detections. Both feed the diagnosis confidence.
	PollsLost, PollRetries int
	// Kills counts how many times this monitor was killed mid-collective.
	Kills int
	dead  bool

	lastSample simtime.Time
	stallSeq   int // invalidates outstanding watchdog timers
}

// System wires one monitor per participating host plus a shared collector.
type System struct {
	Monitors map[topo.NodeID]*Monitor
	Col      *telemetry.Collector
	Cfg      Config
}

// NewSystem builds monitors for every schedule in the runner and chains
// itself into the runner's and hosts' hooks (preserving hooks already set).
func NewSystem(k *sim.Kernel, net *fabric.Network, run *collective.Runner,
	hosts map[topo.NodeID]*rdma.Host, cfg Config) *System {

	sys := &System{
		Monitors: make(map[topo.NodeID]*Monitor),
		Col:      telemetry.NewCollector(net),
		Cfg:      cfg,
	}
	for id, h := range hosts {
		sch := run.Schedule(id)
		if sch == nil {
			continue
		}
		m := &Monitor{
			K:           k,
			Topo:        net.Topo,
			Net:         net,
			Col:         sys.Col,
			Run:         run,
			Host:        id,
			Cfg:         cfg,
			sch:         sch,
			lastTrigger: -1 << 62,
		}
		sys.Monitors[id] = m

		prevRTT := h.OnRTTSample
		h.OnRTTSample = func(s rdma.RTTSample) {
			if prevRTT != nil {
				prevRTT(s)
			}
			m.HandleRTTSample(s)
		}
		prevNotify := h.OnNotify
		h.OnNotify = func(p *fabric.Packet) {
			if prevNotify != nil {
				prevNotify(p)
			}
			m.HandleNotify(p)
		}
	}

	prevStart := run.OnStepStart
	run.OnStepStart = func(host topo.NodeID, step int, flow fabric.FlowKey, at simtime.Time) {
		if prevStart != nil {
			prevStart(host, step, flow, at)
		}
		if m := sys.Monitors[host]; m != nil {
			m.HandleStepStart(step, flow)
		}
	}
	prevEnd := run.OnStepEnd
	run.OnStepEnd = func(rec collective.StepRecord) {
		if prevEnd != nil {
			prevEnd(rec)
		}
		if m := sys.Monitors[rec.Host]; m != nil {
			m.HandleStepEnd(rec)
		}
	}
	return sys
}

// SetObs attaches an observability scope to every monitor. Call before
// the run starts; a nil scope (the default) records nothing.
func (s *System) SetObs(scope *obs.Scope) {
	for _, m := range s.Monitors {
		m.Obs = scope
	}
}

// Reports returns every monitor's retained reports, analyzer-ready.
func (s *System) Reports() []*telemetry.Report {
	var out []*telemetry.Report
	for _, id := range sortedHosts(s.Monitors) {
		out = append(out, s.Monitors[id].Reports...)
	}
	return out
}

// Triggers sums detection activations across monitors.
func (s *System) Triggers() int {
	n := 0
	for _, m := range s.Monitors {
		n += m.Triggers
	}
	return n
}

// Suppressed sums withheld detections across monitors.
func (s *System) Suppressed() int {
	n := 0
	for _, m := range s.Monitors {
		n += m.Suppressed
	}
	return n
}

func sortedHosts(ms map[topo.NodeID]*Monitor) []topo.NodeID {
	out := make([]topo.NodeID, 0, len(ms))
	for id := range ms {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PollsLost sums lost poll round trips across monitors (fault injection).
func (s *System) PollsLost() int {
	n := 0
	for _, m := range s.Monitors {
		n += m.PollsLost
	}
	return n
}

// Kills sums monitor kills across monitors (fault injection).
func (s *System) Kills() int {
	n := 0
	for _, m := range s.Monitors {
		n += m.Kills
	}
	return n
}

// WaitState derives Table I's determination from the SSQ/RSQ indices.
func (m *Monitor) WaitState() WaitState {
	if m.Run.SendIndex(m.Host) < m.Run.RecvIndex(m.Host) {
		return NonWaiting
	}
	return Waiting
}

// HandleStepStart recomputes the detection parameters for the new step:
// the RTT threshold from the topology over the step's actual path (unlike
// Hawkeye's fixed threshold, §III-C2), the trigger budget, and the
// FCT-derived minimum trigger spacing.
func (m *Monitor) HandleStepStart(step int, flow fabric.FlowKey) {
	if m.dead {
		return
	}
	m.curStep = step
	m.curFlow = flow
	m.stepActive = true
	st := m.sch.Steps[step]

	if m.Cfg.FixedRTTThreshold > 0 {
		m.threshold = m.Cfg.FixedRTTThreshold
	} else {
		base := m.Topo.EstimateBaseRTT(m.Host, st.Dst, m.Cfg.CellSize, fabric.AckSize, flow.PathHash())
		m.threshold = simtime.Duration(float64(base) * m.Cfg.RTTFactor)
	}

	m.budget += m.Cfg.MaxDetectPerStep
	if m.budget > 4*m.Cfg.MaxDetectPerStep {
		// Cap hoarding so transferred opportunities cannot grow without
		// bound (the paper's "upper bound on overhead").
		m.budget = 4 * m.Cfg.MaxDetectPerStep
	}
	est := m.Topo.EstimateFCT(m.Host, st.Dst, st.Bytes, flow.PathHash())
	div := m.Cfg.MaxDetectPerStep
	if div <= 0 {
		div = 1
	}
	m.minInterval = est / simtime.Duration(div)

	m.lastSample = m.K.Now()
	m.stallBudget = 3
	m.armStallWatchdog()
}

// armStallWatchdog schedules the §V stall check: if the step is still
// active and nothing arrived since the timer was armed, the flow is halted
// and an investigation triggers immediately.
func (m *Monitor) armStallWatchdog() {
	if m.Cfg.StallTimeout <= 0 {
		return
	}
	m.stallSeq++
	seq := m.stallSeq
	armedAt := m.K.Now()
	step := m.curStep
	m.K.After(m.Cfg.StallTimeout, func() {
		if m.dead || seq != m.stallSeq || !m.stepActive || m.curStep != step {
			return
		}
		if m.lastSample > armedAt {
			// Progress since arming: re-arm from the last sample.
			m.armStallWatchdog()
			return
		}
		if m.stallBudget <= 0 {
			return
		}
		m.stallBudget--
		m.Triggers++
		m.StallTriggers++
		m.lastTrigger = m.K.Now()
		m.Obs.T().Instant(obs.PidMonitor, int(m.Host), "detect", "stall-detect", m.lastTrigger,
			obs.I("step", int64(step)))
		m.Obs.M().Counter("vedr_monitor_stall_detections_total",
			"detections fired by the stall watchdog").Inc()
		m.collect(m.curFlow, maxPollRetries)
		m.armStallWatchdog()
	})
}

// HandleStepEnd closes the step and, in adaptive mode, transfers the unused
// detection opportunities to the monitor of the flow waiting on this one
// via a highest-priority notification packet (Fig 7).
func (m *Monitor) HandleStepEnd(rec collective.StepRecord) {
	if m.dead || rec.Step != m.curStep {
		return
	}
	m.stepActive = false
	if m.Cfg.Unrestricted {
		return
	}
	// Unused opportunities either transfer to the waiting monitor or
	// expire with the step (the budget is per step, Fig 5).
	if !m.Cfg.Adaptive || m.budget <= 0 {
		m.budget = 0
		return
	}
	st := m.sch.Steps[rec.Step]
	waiter := st.Dst
	wsch := m.Run.Schedule(waiter)
	if wsch == nil {
		m.budget = 0
		return
	}
	waits := false
	for _, ws := range wsch.Steps {
		if ws.WaitSrc == m.Host && ws.WaitStep == rec.Step {
			waits = true
			break
		}
	}
	if !waits {
		m.budget = 0
		return
	}
	count := m.budget
	m.budget = 0
	m.Transferred += count
	m.Obs.T().Instant(obs.PidMonitor, int(m.Host), "transfer", "transfer", m.K.Now(),
		obs.I("step", int64(rec.Step)), obs.I("to", int64(waiter)), obs.I("count", int64(count)))
	m.Obs.M().Counter("vedr_monitor_opportunities_transferred_total",
		"detection opportunities handed to waiting monitors").Add(int64(count))
	pkt := &fabric.Packet{
		Kind:    fabric.KindNotify,
		Flow:    rec.Flow,
		To:      waiter,
		Size:    fabric.NotifySize,
		Payload: NotifyPayload{From: m.Host, Step: rec.Step, Count: count},
	}
	hops := m.Net.DeliverControl(m.Host, waiter, pkt)
	m.Col.AddNotifyBytes(int64(hops * fabric.NotifySize))
}

// HandleNotify accepts transferred detection opportunities.
func (m *Monitor) HandleNotify(pkt *fabric.Packet) {
	if m.dead {
		return
	}
	payload, ok := pkt.Payload.(NotifyPayload)
	if !ok || !m.Cfg.Adaptive {
		return
	}
	m.budget += payload.Count
	m.Received += payload.Count
	m.Obs.T().Instant(obs.PidMonitor, int(m.Host), "transfer", "notify-recv", m.K.Now(),
		obs.I("from", int64(payload.From)), obs.I("step", int64(payload.Step)),
		obs.I("count", int64(payload.Count)))
	m.Obs.M().Counter("vedr_monitor_opportunities_received_total",
		"detection opportunities accepted from notifications").Add(int64(payload.Count))
}

// HandleRTTSample applies the trigger decision of Fig 8 to one RTT
// observation from the NIC.
func (m *Monitor) HandleRTTSample(s rdma.RTTSample) {
	if m.dead || !m.stepActive || s.Flow != m.curFlow {
		return
	}
	m.lastSample = m.K.Now()
	if s.RTT <= m.threshold {
		return
	}
	now := m.K.Now()
	if m.Cfg.Unrestricted {
		if now.Sub(m.lastTrigger) < m.Cfg.UnrestrictedSpacing {
			m.suppress(now)
			return
		}
	} else {
		if m.budget <= 0 || now.Sub(m.lastTrigger) < m.minInterval {
			m.suppress(now)
			return
		}
		m.budget--
	}
	m.lastTrigger = now
	m.Triggers++
	m.Obs.T().Instant(obs.PidMonitor, int(m.Host), "detect", "detect", now,
		obs.I("step", int64(m.curStep)), obs.I("rtt_ns", int64(s.RTT)),
		obs.I("threshold_ns", int64(m.threshold)), obs.I("budget_left", int64(m.budget)))
	m.Obs.M().Counter("vedr_monitor_detections_total",
		"detection triggers fired across monitors").Inc()
	m.collect(s.Flow, maxPollRetries)
}

// suppress accounts one over-threshold sample whose detection the budget
// or spacing withheld.
func (m *Monitor) suppress(now simtime.Time) {
	m.Suppressed++
	m.Obs.T().Instant(obs.PidMonitor, int(m.Host), "detect", "detect-suppressed", now,
		obs.I("step", int64(m.curStep)), obs.I("budget_left", int64(m.budget)))
	m.Obs.M().Counter("vedr_monitor_detections_suppressed_total",
		"over-threshold samples withheld by the budget or trigger spacing").Inc()
}

// maxPollRetries bounds how many times a detection whose poll round trip
// was lost is re-armed before the opportunity is abandoned.
const maxPollRetries = 2

// collect performs one detection's telemetry poll. When the Gate loses the
// round trip, the detection re-arms after the FCT-derived trigger spacing —
// the same timescale the paper uses to pace detections within a step — and
// retries a bounded number of times, so a fully partitioned control plane
// degrades to missing reports instead of an unbounded poll loop. A retry
// only fires while the step it was armed in is still the active one.
func (m *Monitor) collect(flow fabric.FlowKey, retriesLeft int) {
	if m.Gate != nil && m.Gate.PollLost() {
		m.PollsLost++
		m.Obs.T().Instant(obs.PidMonitor, int(m.Host), "poll", "poll-lost", m.K.Now(),
			obs.I("retries_left", int64(retriesLeft)))
		m.Obs.M().Counter("vedr_monitor_polls_lost_total",
			"poll round trips eaten by fault injection").Inc()
		if retriesLeft <= 0 {
			return
		}
		step := m.curStep
		m.K.After(m.retryTimeout(), func() {
			if m.dead || !m.stepActive || m.curStep != step {
				return
			}
			m.PollRetries++
			m.Obs.M().Counter("vedr_monitor_poll_retries_total",
				"detections re-armed after a lost poll").Inc()
			m.collect(flow, retriesLeft-1)
		})
		return
	}
	rep := m.Col.Poll(flow, m.Cfg.Window)
	m.Reports = append(m.Reports, rep)
	m.Obs.T().Instant(obs.PidMonitor, int(m.Host), "poll", "poll", m.K.Now(),
		obs.I("ports", int64(len(rep.Ports))), obs.I("ports_missed", int64(rep.PortsMissed)))
	m.Obs.M().Counter("vedr_monitor_polls_total",
		"completed telemetry poll round trips").Inc()
}

// retryTimeout derives the lost-poll re-arm delay from the step's estimated
// FCT (the detection spacing), falling back to the RTT threshold and then
// the telemetry window for configurations without either.
func (m *Monitor) retryTimeout() simtime.Duration {
	if m.minInterval > 0 {
		return m.minInterval
	}
	if m.threshold > 0 {
		return m.threshold
	}
	return m.Cfg.Window
}

// Kill simulates the host monitor process dying mid-collective: volatile
// detection state (budget, active step, armed watchdogs) is lost and every
// event is ignored until Restart. Reports already produced survive — they
// model records already streamed to the analyzer.
func (m *Monitor) Kill() {
	m.dead = true
	m.Kills++
	m.stepActive = false
	m.budget = 0
	m.stallSeq++ // cancel outstanding watchdog timers
}

// Restart revives a killed monitor. It re-synchronizes at its next step
// start; samples from a step already in flight are ignored because no
// threshold is known for it.
func (m *Monitor) Restart() { m.dead = false }
