// Package baseline implements the two comparison systems of §IV-A:
//
//   - Hawkeye, the state-of-the-art single-flow RDMA diagnosis system, with
//     the paper's two threshold variants: Hawkeye-MaxR (fixed threshold at
//     120% of the maximum base RTT over all collective flows) and
//     Hawkeye-MinR (120% of the minimum). Hawkeye triggers on every
//     above-threshold ACK with no step awareness; to bound its processing
//     cost it retains only one telemetry report per 50 µs and discards the
//     rest — the behaviour the paper identifies as discarding valid data.
//   - Full polling: every switch reports all telemetry every epoch for the
//     duration of the collective, the overhead upper bound.
package baseline

import (
	"time"

	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/rdma"
	"vedrfolnir/internal/sim"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/telemetry"
	"vedrfolnir/internal/topo"
)

// Mode selects Hawkeye's fixed RTT threshold.
type Mode uint8

// Hawkeye threshold modes.
const (
	// MaxR sets the threshold to 120% of the largest base RTT among the
	// collective's flows — small-RTT flows' anomalies go unnoticed.
	MaxR Mode = iota
	// MinR sets it to 120% of the smallest base RTT — long-RTT flows
	// trigger continuously.
	MinR
)

func (m Mode) String() string {
	if m == MaxR {
		return "hawkeye-maxr"
	}
	return "hawkeye-minr"
}

// HawkeyeConfig tunes the baseline.
type HawkeyeConfig struct {
	Factor float64 // threshold scale over the base RTT (paper: 1.2)
	// PerFlowSpacing is the minimum time between triggers of one flow;
	// Hawkeye collects "several pieces of telemetry data within tens of
	// microseconds".
	PerFlowSpacing simtime.Duration
	// RetainEvery drops all but one collected report per window (the
	// 50 µs dedup in Hawkeye's source the paper quotes).
	RetainEvery simtime.Duration
	// Window is the telemetry look-back per poll.
	Window simtime.Duration
	// CellSize sizes the probe packet for base-RTT estimation.
	CellSize int
}

// DefaultHawkeyeConfig mirrors the paper's description.
func DefaultHawkeyeConfig() HawkeyeConfig {
	return HawkeyeConfig{
		Factor:         1.2,
		PerFlowSpacing: 10 * time.Microsecond,
		RetainEvery:    50 * time.Microsecond,
		Window:         5 * time.Millisecond,
		CellSize:       64 << 10,
	}
}

// Hawkeye is the re-implemented baseline detector.
type Hawkeye struct {
	K    *sim.Kernel
	Col  *telemetry.Collector
	Cfg  HawkeyeConfig
	Mode Mode

	threshold    simtime.Duration
	lastTrigger  map[fabric.FlowKey]simtime.Time
	lastRetained simtime.Time

	// Reports are the retained telemetry reports.
	Reports []*telemetry.Report
	// Triggers counts every detection (retained or not); Discarded counts
	// reports collected but dropped by the retention dedup.
	Triggers, Discarded int
}

// NewHawkeye computes the fixed threshold from the collective's schedules:
// the base RTT of every (host, step) flow is estimated from the topology,
// then the max (MaxR) or min (MinR) is scaled by Factor.
func NewHawkeye(k *sim.Kernel, net *fabric.Network, schedules []*collective.Schedule,
	mode Mode, cfg HawkeyeConfig) *Hawkeye {

	h := &Hawkeye{
		K:            k,
		Col:          telemetry.NewCollector(net),
		Cfg:          cfg,
		Mode:         mode,
		lastTrigger:  make(map[fabric.FlowKey]simtime.Time),
		lastRetained: -1 << 62,
	}
	var minRTT, maxRTT simtime.Duration
	first := true
	for _, sch := range schedules {
		for s, st := range sch.Steps {
			base := net.Topo.EstimateBaseRTT(sch.Host, st.Dst, cfg.CellSize,
				fabric.AckSize, sch.FlowKey(s).PathHash())
			if first || base < minRTT {
				minRTT = base
			}
			if first || base > maxRTT {
				maxRTT = base
			}
			first = false
		}
	}
	pick := maxRTT
	if mode == MinR {
		pick = minRTT
	}
	h.threshold = simtime.Duration(float64(pick) * cfg.Factor)
	return h
}

// Wire chains Hawkeye into every host's RTT sample stream.
func (h *Hawkeye) Wire(hosts map[topo.NodeID]*rdma.Host) {
	for _, hostDev := range hosts {
		prev := hostDev.OnRTTSample
		hostDev.OnRTTSample = func(s rdma.RTTSample) {
			if prev != nil {
				prev(s)
			}
			h.HandleRTTSample(s)
		}
	}
}

// HandleRTTSample applies Hawkeye's fixed-threshold trigger: any flow whose
// ACK RTT exceeds the threshold is polled, subject only to the per-flow
// spacing; the retention dedup then decides whether the analyzer keeps the
// report.
func (h *Hawkeye) HandleRTTSample(s rdma.RTTSample) {
	if s.RTT <= h.threshold {
		return
	}
	now := h.K.Now()
	if last, ok := h.lastTrigger[s.Flow]; ok && now.Sub(last) < h.Cfg.PerFlowSpacing {
		return
	}
	h.lastTrigger[s.Flow] = now
	h.Triggers++
	rep := h.Col.Poll(s.Flow, h.Cfg.Window)
	if now.Sub(h.lastRetained) < h.Cfg.RetainEvery {
		h.Discarded++
		return
	}
	h.lastRetained = now
	h.Reports = append(h.Reports, rep)
}

// FullPolling continuously collects all switches' telemetry every epoch for
// as long as it runs — the paper's overhead upper bound.
type FullPolling struct {
	K     *sim.Kernel
	Col   *telemetry.Collector
	Epoch simtime.Duration

	active  bool
	Reports []*telemetry.Report
}

// NewFullPolling creates the baseline with the given polling epoch.
func NewFullPolling(k *sim.Kernel, net *fabric.Network, epoch simtime.Duration) *FullPolling {
	if epoch <= 0 {
		epoch = 100 * time.Microsecond
	}
	return &FullPolling{K: k, Col: telemetry.NewCollector(net), Epoch: epoch}
}

// Start begins per-epoch collection; call Stop when the collective ends.
func (f *FullPolling) Start() {
	if f.active {
		return
	}
	f.active = true
	f.tick()
}

func (f *FullPolling) tick() {
	if !f.active {
		return
	}
	f.Reports = append(f.Reports, f.Col.PollAllSwitches(f.Epoch))
	f.K.After(f.Epoch, func() { f.tick() })
}

// Stop halts collection after the current epoch.
func (f *FullPolling) Stop() { f.active = false }
