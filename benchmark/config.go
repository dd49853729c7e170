package main

import (
	"vedrfolnir/internal/scenario"
)

// Workload names. Later issues cite them; do not rename.
const (
	wlSweepMixed    = "sweep-mixed"
	wlSweepParallel = "sweep-parallel"
	wlDiagnoseLarge = "diagnose-large"
	wlIngestStream  = "ingest-stream"
	wlIngestDurable = "ingest-durable"
)

var workloadNames = []string{wlSweepMixed, wlSweepParallel, wlDiagnoseLarge, wlIngestStream, wlIngestDurable}

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics every untraced run reports, on every
// workload. What each one measures per workload is tabulated in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"heavy_op_ms", "ms"},
}

// perLayer lists the metrics every traced run reports. A layer that does
// no work in a workload reports 0 there.
var perLayer = []metricDef{
	{"eventq.pushes_per_case", "count"},
	{"eventq.push_ns_per_case", "ns"},
	{"eventq.pop_ns_per_case", "ns"},
	{"eventq.hold_ns_per_op", "ns"},
	{"eventq.hold_allocs_per_op", "count"},
	{"fabric.forwards_per_case", "count"},
	{"fabric.forward_ns_per_case", "ns"},
	{"telemetry.polls_per_case", "count"},
	{"telemetry.collect_ns_per_case", "ns"},
	{"monitor.reports_per_case", "count"},
	{"monitor.overhead_bytes_per_case", "B"},
	{"sim.unattributed_ns_per_case", "ns"},
	{"collective.sim_time_us_per_case", "us"},
	{"scenario.generate_ns_per_case", "ns"},
	{"scenario.run_ns_per_case", "ns"},
	{"scenario.tp_share", "share"},
	{"sweep.allocs_per_case", "count"},
	{"sweep.alloc_mb_per_case", "MB"},
	{"sweep.gc_cpu_share", "share"},
	{"sweep.peak_heap_mb", "MB"},
	{"sweep.pool_efficiency", "share"},
	{"waitgraph.build_ns_per_case", "ns"},
	{"provenance.rate_ns_per_case", "ns"},
	{"diagnose.analyze_ns_per_case", "ns"},
	{"waitgraph.build_us_l", "us"},
	{"waitgraph.build_us_xl", "us"},
	{"provenance.build_us_l", "us"},
	{"provenance.build_us_xl", "us"},
	{"diagnose.analyze_ms_s", "ms"},
	{"diagnose.analyze_ms_l", "ms"},
	{"diagnose.analyze_ms_xl", "ms"},
	{"diagnose.allocs_xl", "count"},
	{"diagnose.scaling_exponent", "ratio"},
	{"wire.bytes_per_msg", "B"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.parse_ns_per_msg", "ns"},
	{"wire.parse_allocs_per_msg", "count"},
	{"wire.read_bundle_ms_l", "ms"},
	{"wire.read_bundle_ms_xl", "ms"},
	{"wire.merge_ms", "ms"},
	{"analyzerd.direct_ack_p50_us", "us"},
	{"analyzerd.direct_msgs_per_s", "1/s"},
	{"analyzerd.fsync_added_us", "us"},
	{"analyzerd.wal_bytes_per_msg", "B"},
	{"analyzerd.recover_ms", "ms"},
	{"analyzerd.client_retries", "count"},
	{"fleet.ack_p50_us", "us"},
	{"fleet.ack_p99_us", "us"},
	{"fleet.router_added_us", "us"},
	{"fleet.msgs_per_s", "1/s"},
	{"fleet.msgs_per_s_1shard", "1/s"},
	{"fleet.shard_skew", "ratio"},
	{"fleet.retry_naks", "count"},
	{"fleet.recover_ms", "ms"},
	{"fleet.drain_gather_ms", "ms"},
	{"fleet.drain_shutdown_ms", "ms"},
	{"fleet.drain_analyze_ms", "ms"},
	{"fleet.drain_total_ms", "ms"},
	{"trace_overhead_share", "share"},
}

// sizing holds every fixed count of the five workloads. A run repeats
// fixed-size rounds until its time is up, so the amount of state a round
// builds (and with it the cost of a drain or a recovery) never depends on
// how fast the machine is.
type sizing struct {
	// SeedsPerPass cases of one anomaly kind make one sweep.Run pass; a
	// run's cases are four passes, one per kind.
	SeedsPerPass int
	// VerifySeeds cases of each kind warm the pool up, and are re-run at
	// both worker counts to compare their bundle bytes.
	VerifySeeds int
	// DiagRanks are the Ring AllGather widths behind bundles S, L and XL.
	DiagRanks [3]int
	// DiagReports telemetry reports are kept in each bundle.
	DiagReports int
	// DiagLPerCycle L iterations follow each XL iteration.
	DiagLPerCycle int
	// An ingest-stream round is AckTrips single-message round trips (Phase
	// A), then StreamMsgs pipelined messages (Phase B). An ingest-durable
	// round is half of that, then a SIGKILL of shard 0 (recovery takes as
	// long as the two phases together) and AfterKillMsgs more messages
	// (Phase C).
	AckTrips      int
	StreamMsgs    int
	AfterKillMsgs int
	// StreamCases Contention cases are simulated to build the ingest stream.
	StreamCases int
	// SnapshotEvery is ingest-durable's -snapshot-every, small enough that
	// each shard has snapshotted before it is killed, so a recovery reads a
	// snapshot and a WAL tail.
	SnapshotEvery int
	// HoldOps is the length of the event-queue hold-model loop.
	HoldOps int
	// ParseReps passes over the stream's lines time ParseMessage.
	ParseReps int
}

// phases returns the Phase A and Phase B counts of one round.
func (s sizing) phases(durable bool) (ackTrips, streamMsgs int) {
	if durable {
		return s.AckTrips / 2, s.StreamMsgs / 2
	}
	return s.AckTrips, s.StreamMsgs
}

// fullSize is the frozen reference sizing.
func fullSize() sizing {
	return sizing{
		SeedsPerPass:  32,
		VerifySeeds:   2,
		DiagRanks:     [3]int{32, 64, 128},
		DiagReports:   256,
		DiagLPerCycle: 9,
		AckTrips:      1200,
		StreamMsgs:    3200,
		AfterKillMsgs: 320,
		StreamCases:   12,
		SnapshotEvery: 500,
		HoldOps:       200000,
		ParseReps:     40,
	}
}

// smokeSize is roughly 1/50 of fullSize: enough to drive every code path
// of the harness in a test.
func smokeSize() sizing {
	return sizing{
		SeedsPerPass:  2,
		VerifySeeds:   1,
		DiagRanks:     [3]int{4, 8, 16},
		DiagReports:   4,
		DiagLPerCycle: 3,
		AckTrips:      96,
		StreamMsgs:    256,
		AfterKillMsgs: 64,
		StreamCases:   4,
		SnapshotEvery: 40,
		HoldOps:       4000,
		ParseReps:     1,
	}
}

// Stream shape of the ingest workloads: one pass is every collective flow
// and step record of one Contention case plus streamReports telemetry
// reports, chosen nearest to reportTargetBytes among the reports of
// sizing.StreamCases cases and dealt to the hosts in turn, so that the bytes per
// pass and per host barely depend on the seed (a raw case carries between
// 13 reports of 1.4 KB and 148 of 10 KB, from whichever hosts were
// disturbed). The number of cases is fixed, not the size of the pool, so
// that building the stream costs about the same on every seed.
const (
	streamReports     = 16
	reportTargetBytes = 4096
)

// fleetFsync is the -fsync policy of an ingest workload's fleet.
//
// ingest-durable runs at "interval", not "always": on the sandbox's virtual
// disk a raw 700-byte append+fsync takes anywhere between 90 and 290 µs
// from one minute to the next, and with two shards waiting on it for every
// message the acked round trip swung between 0.41 and 0.85 ms — the same
// binary, the same seed — which no bound of at most 25 % can hold. At
// "interval" the WAL is written on every message and synced in the
// background, so the workload still pays for the append, the snapshots and
// the recovery, and its numbers repeat within a few percent. What
// per-message fsync costs is measured in the traced pass, against one
// standalone daemon at "always" (analyzerd.direct_*, analyzerd.fsync_added_us).
func fleetFsync(durable bool) string {
	if durable {
		return "interval"
	}
	return "off"
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 3

// benchConfig pins the 1/360-scale case configuration: cell size and
// PFC/ECN thresholds are fixed rather than derived, so the simulated byte
// stream is the same on every machine and commit.
func benchConfig() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = cfg.ScaledBytes(360e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	return cfg
}

// benchRunOptions is the Fig 9 operating point: at most five detections
// per step.
func benchRunOptions(cfg scenario.Config) scenario.RunOptions {
	opts := scenario.DefaultRunOptions(cfg)
	opts.Monitor.MaxDetectPerStep = 5
	return opts
}

// sweepKinds are the four §IV-A anomaly constructions.
var sweepKinds = []scenario.AnomalyKind{
	scenario.Contention, scenario.Incast, scenario.PFCStorm, scenario.PFCBackpressure,
}
