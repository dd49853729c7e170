// Package sweep is the deterministic parallel case-sweep engine behind
// every figure harness: it schedules independent scenario cases across a
// bounded worker pool while producing byte-identical merged output at any
// worker count. Each job runs in its own isolated simulation kernel with
// its own seeded RNG (scenario.Run builds both from the job seed), results
// are merged in job order regardless of completion order, and an optional
// JSONL journal (internal/wire exchange forms) gives checkpoint/resume: a
// killed sweep restarts and skips every job whose key already completed,
// and a failing case is captured per-job instead of aborting the sweep.
package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/wire"
)

// Params are the run-option overrides a job applies on top of the
// harness's base options — exactly the knobs the Fig 12/13 grids vary.
// Zero fields leave the base options untouched, so the zero Params is the
// system's default operating point.
type Params struct {
	// RTTFactor is the monitor's RTT threshold multiplier (Fig 12).
	RTTFactor float64
	// MaxDetectPerStep bounds detections per step (Figs 12, 13b).
	MaxDetectPerStep int
	// FixedRTTThreshold replaces the step-grained threshold (Fig 13a).
	FixedRTTThreshold simtime.Duration
	// Unrestricted removes the detection-count bound entirely (Fig 13b).
	Unrestricted bool
	// ChaosLoss applies a uniform control-packet loss rate to the run's
	// diagnosis traffic (the robustness grid). Zero injects nothing.
	ChaosLoss float64
}

// Apply overlays the non-zero overrides onto base run options.
func (p Params) Apply(opts *scenario.RunOptions) {
	if p.RTTFactor != 0 {
		opts.Monitor.RTTFactor = p.RTTFactor
	}
	if p.MaxDetectPerStep != 0 {
		opts.Monitor.MaxDetectPerStep = p.MaxDetectPerStep
	}
	if p.FixedRTTThreshold != 0 {
		opts.Monitor.FixedRTTThreshold = p.FixedRTTThreshold
	}
	if p.Unrestricted {
		opts.Monitor.Unrestricted = true
	}
	if p.ChaosLoss != 0 {
		opts.Chaos = chaos.UniformLoss(p.ChaosLoss)
	}
}

// Job is one schedulable case: which anomaly construction, which seed,
// which system under test, and which parameter overrides.
type Job struct {
	Kind   scenario.AnomalyKind
	Seed   int64
	System scenario.SystemKind
	Params Params
}

// Key returns the job's stable identity. Two jobs with the same key run
// the same simulation, so the key is what a resumed sweep matches journal
// records against; it must not depend on worker count, scheduling order,
// or process. Floats are rendered in Go's shortest round-trip form.
func (j Job) Key() string {
	var b strings.Builder
	b.WriteString(j.Kind.String())
	b.WriteByte('/')
	b.WriteString(j.System.String())
	fmt.Fprintf(&b, "/s%d", j.Seed)
	p := j.Params
	if p.RTTFactor != 0 {
		b.WriteString("/rtt=")
		b.WriteString(strconv.FormatFloat(p.RTTFactor, 'g', -1, 64))
	}
	if p.MaxDetectPerStep != 0 {
		fmt.Fprintf(&b, "/det=%d", p.MaxDetectPerStep)
	}
	if p.FixedRTTThreshold != 0 {
		fmt.Fprintf(&b, "/fix=%d", int64(p.FixedRTTThreshold))
	}
	if p.Unrestricted {
		b.WriteString("/unrestricted")
	}
	if p.ChaosLoss != 0 {
		b.WriteString("/loss=")
		b.WriteString(strconv.FormatFloat(p.ChaosLoss, 'g', -1, 64))
	}
	return b.String()
}

// Result is one job's outcome: the per-case quantities every figure
// harness aggregates, plus the captured error when the case failed. The
// schema is fixed so results survive a journal round trip losslessly.
type Result struct {
	Job Job
	Key string

	// Err is the captured per-job failure; non-empty means every other
	// result field is meaningless.
	Err string

	Outcome        scenario.Outcome
	Completed      bool
	TelemetryBytes int64
	BandwidthBytes int64
	CollectiveTime simtime.Duration
	// Detected is the number of culprit flows the diagnosis named.
	Detected int
	// Confidence is the diagnosis's coverage score (1 when every poll and
	// port answered; only the chaos grid pushes it below 1).
	Confidence float64
	// Samples is a harness-defined per-job sample set: positive per-step
	// slowdowns for case sweeps.
	Samples []simtime.Duration
}

// wireJob converts a job to its exchange form.
func wireJob(j Job) wire.SweepJob {
	return wire.SweepJob{
		Kind:       uint8(j.Kind),
		KindName:   j.Kind.String(),
		Seed:       j.Seed,
		System:     uint8(j.System),
		SystemName: j.System.String(),
		Params: wire.SweepParams{
			RTTFactor:        j.Params.RTTFactor,
			MaxDetectPerStep: j.Params.MaxDetectPerStep,
			FixedRTTNS:       int64(j.Params.FixedRTTThreshold),
			Unrestricted:     j.Params.Unrestricted,
			ChaosLoss:        j.Params.ChaosLoss,
		},
	}
}

// jobFromWire converts an exchange-form job back.
func jobFromWire(j wire.SweepJob) Job {
	return Job{
		Kind:   scenario.AnomalyKind(j.Kind),
		Seed:   j.Seed,
		System: scenario.SystemKind(j.System),
		Params: Params{
			RTTFactor:         j.Params.RTTFactor,
			MaxDetectPerStep:  j.Params.MaxDetectPerStep,
			FixedRTTThreshold: simtime.Duration(j.Params.FixedRTTNS),
			Unrestricted:      j.Params.Unrestricted,
			ChaosLoss:         j.Params.ChaosLoss,
		},
	}
}

// wireRecord converts a result to its journal line form.
func wireRecord(r Result) wire.SweepRecord {
	rec := wire.SweepRecord{
		Key:            r.Key,
		Job:            wireJob(r.Job),
		Err:            r.Err,
		Outcome:        uint8(r.Outcome),
		OutcomeName:    r.Outcome.String(),
		Completed:      r.Completed,
		TelemetryBytes: r.TelemetryBytes,
		BandwidthBytes: r.BandwidthBytes,
		CollectiveNS:   int64(r.CollectiveTime),
		Detected:       r.Detected,
		Confidence:     r.Confidence,
	}
	for _, s := range r.Samples {
		rec.SamplesNS = append(rec.SamplesNS, int64(s))
	}
	return rec
}

// resultFromWire converts a journal line back.
func resultFromWire(rec wire.SweepRecord) Result {
	r := Result{
		Job:            jobFromWire(rec.Job),
		Key:            rec.Key,
		Err:            rec.Err,
		Outcome:        scenario.Outcome(rec.Outcome),
		Completed:      rec.Completed,
		TelemetryBytes: rec.TelemetryBytes,
		BandwidthBytes: rec.BandwidthBytes,
		CollectiveTime: simtime.Duration(rec.CollectiveNS),
		Detected:       rec.Detected,
		Confidence:     rec.Confidence,
	}
	for _, s := range rec.SamplesNS {
		r.Samples = append(r.Samples, simtime.Duration(s))
	}
	return r
}
