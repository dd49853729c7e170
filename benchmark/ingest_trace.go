package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/fleet"
	"vedrfolnir/internal/wire"
)

// fleetRun is the traced in-process fleet round.
type fleetRun struct {
	ackMS, plainMS []float64
	msgsPerS       float64
	recoverMS      float64
	retries        int
	stats          fleet.RouterStats
	tallies        []fleet.ShardTally
	gatherMS       float64
	shutdownMS     float64
	mergeMS        float64
	analyzeMS      float64
}

// runFleet drives one round against an in-process fleet.Start, which is
// what gives the benchmark the Router's DumpShard, Stats and Tallies: the
// drain is taken apart into gather, shutdown, merge and analyze.
func runFleet(c *runCtx, stream []streamMsg, durable bool, shards int, phaseA bool, tr *tracer, acct *tally) (*fleetRun, error) {
	var r fleetRun
	dir, err := os.MkdirTemp(c.tmp, "fleet-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch; a leftover is harmless
	cfg := fleet.Config{BinPath: c.daemon, Shards: shards, Dir: dir, Fsync: fleetFsync(durable), HoldShard: -1}
	if durable {
		cfg.SnapshotEvery = c.size.SnapshotEvery
	}
	fl, err := fleet.Start(cfg)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	lanes, err := newLanes(fl.Addr(), stream)
	if err != nil {
		return nil, err
	}
	if err := warmUp(lanes); err != nil {
		return nil, err
	}
	ackTrips, streamMsgs := c.size.phases(durable)
	if phaseA {
		if r.ackMS, r.plainMS, err = ackPhase(lanes, ackTrips, tr); err != nil {
			return nil, err
		}
	}
	if r.msgsPerS, err = pipelinePhase(lanes, streamMsgs); err != nil {
		return nil, err
	}
	if durable && phaseA {
		victim, host, err := ownedBy(lanes, shards, 0)
		if err != nil {
			return nil, err
		}
		pid := fl.Pid(0)
		tK := time.Now()
		kill := tr.begin(-1, 0, "fleet", "recover")
		if err := fl.KillShard(0); err != nil {
			return nil, err
		}
		if err := awaitRestart(func() int { return fl.Pid(0) }, pid); err != nil {
			return nil, err
		}
		if err := victim.firstAck(host); err != nil {
			return nil, err
		}
		tr.end(kill)
		r.recoverMS = msSince(tK)
		if _, err := pipelinePhase(lanes, c.size.AfterKillMsgs); err != nil {
			return nil, err
		}
	}
	if r.retries, err = closeLanes(lanes, acct); err != nil {
		return nil, err
	}

	router := fl.Router()
	r.stats, r.tallies = router.Stats(), router.Tallies()
	root := tr.begin(-1, 0, "fleet", "drain")
	t0 := time.Now()
	router.Stop()
	states := make([]*wire.ShardState, 0, shards)
	for i := 0; i < shards; i++ {
		sp := tr.begin(root, 0, "fleet", "dump_shard")
		st, err := router.DumpShard(i)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("dump shard %d: %w", i, err)
		}
		states = append(states, st)
	}
	t1 := time.Now()
	sp := tr.begin(root, 0, "fleet", "shutdown")
	fl.Close()
	tr.end(sp)
	t2 := time.Now()
	sp = tr.begin(root, 0, "wire", "merge")
	bundle, stats := wire.MergeShardStates(states)
	tr.end(sp)
	t3 := time.Now()
	sp = tr.begin(root, 0, "diagnose", "analyze")
	got, err := renderDiagnosis(bundle)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
	r.gatherMS, r.shutdownMS, r.mergeMS, r.analyzeMS = ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4)

	local, want, err := localDiagnosis(lanes)
	if err != nil {
		return nil, err
	}
	acct.ok(local.Messages)
	acct.check(stats.Records == local.Records && stats.Reports == local.Reports && stats.CFs == local.CFs && stats.Duplicates == 0,
		"%d-shard fleet kept %d/%d/%d records/reports/flows (%d duplicates), sent %d/%d/%d",
		shards, stats.Records, stats.Reports, stats.CFs, stats.Duplicates, local.Records, local.Reports, local.CFs)
	acct.check(bytes.Equal(got, want), "%d-shard fleet's merged diagnosis differs from the local merge", shards)
	return &r, nil
}

// directRun is the traced round against one standalone daemon, no router.
type directRun struct {
	ackMS       []float64
	msgsPerS    float64
	walPerMsg   float64
	recoverMS   float64
	recoveredOK bool
}

func runDirect(c *runCtx, stream []streamMsg, durable, full bool, acct *tally) (*directRun, error) {
	var r directRun
	dir, err := os.MkdirTemp(c.tmp, "direct-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch; a leftover is harmless
	fsync := "off"
	if durable {
		fsync = "always" // what per-message fsync costs is measured here, not on the fleet
	}
	d, err := startDaemon(c.daemon, daemonArgs(c, dir, fsync, 0)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	lanes, err := newLanes(d.addr, stream)
	if err != nil {
		return nil, err
	}
	if err := warmUp(lanes); err != nil {
		return nil, err
	}
	ackTrips, streamMsgs := c.size.phases(durable)
	if r.ackMS, _, err = ackPhase(lanes, ackTrips, nil); err != nil {
		return nil, err
	}
	if !full {
		_, err := closeLanes(lanes, acct)
		return &r, err
	}
	if r.msgsPerS, err = pipelinePhase(lanes, streamMsgs); err != nil {
		return nil, err
	}
	if _, err := closeLanes(lanes, acct); err != nil {
		return nil, err
	}
	// SIGKILL, then recover from what the daemon left on disk.
	d.kill()
	walSize := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		walSize = fi.Size()
	}
	t0 := time.Now()
	rs, err := analyzerd.Recover(dir)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	r.recoverMS = msSince(t0)
	if rs.Stats.WALEntries > 0 {
		r.walPerMsg = float64(walSize) / float64(rs.Stats.WALEntries)
	}
	sent := 0
	for _, l := range lanes {
		sent += len(l.mirror)
	}
	snapMsgs := 0
	if durable {
		snapMsgs = sent / c.size.SnapshotEvery * c.size.SnapshotEvery
	}
	r.recoveredOK = rs.Stats.WALMalformed == 0 && rs.Stats.WALEntries == sent-snapMsgs &&
		rs.Stats.SnapshotLoaded == (snapMsgs > 0)
	return &r, nil
}

// traceIngest is the traced pass of an ingest workload. Until the time is
// up it runs one round of each configuration the per-layer metrics
// compare — the in-process two-shard fleet (with spans), one standalone
// daemon, a one-shard fleet — and reports medians over the rounds; it also
// times ParseMessage over the stream's own lines.
func traceIngest(c *runCtx, durable bool, acct *tally) (map[string]float64, error) {
	stream, err := buildStream(c.seed, c.size.StreamCases)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}

	lines := make([][]byte, len(stream))
	total := 0
	for i, m := range stream {
		if lines[i], err = m.line(int64(i + 1)); err != nil {
			return nil, err
		}
		total += len(lines[i])
	}
	vals["wire.bytes_per_msg"] = float64(total) / float64(len(lines))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for rep := 0; rep < c.size.ParseReps; rep++ {
		for _, line := range lines {
			if _, err := analyzerd.ParseMessage(line); err != nil {
				return nil, fmt.Errorf("ParseMessage rejects the stream's own line: %w", err)
			}
		}
	}
	parsed := float64(c.size.ParseReps * len(lines))
	vals["wire.parse_ns_per_msg"] = float64(time.Since(t0).Nanoseconds()) / parsed
	runtime.ReadMemStats(&after)
	vals["wire.parse_allocs_per_msg"] = float64(after.Mallocs-before.Mallocs) / parsed

	tr := newTracer()
	rounds := map[string][]float64{}
	add := func(name string, v float64) { rounds[name] = append(rounds[name], v) }
	var ackMS, plainMS, unsyncedP50 []float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < c.seconds; round++ {
		routed, err := runFleet(c, stream, durable, clusterShards, true, tr, acct)
		if err != nil {
			return nil, err
		}
		ackMS = append(ackMS, routed.ackMS...)
		plainMS = append(plainMS, routed.plainMS...)
		add("fleet.msgs_per_s", routed.msgsPerS)
		add("fleet.recover_ms", routed.recoverMS)
		add("analyzerd.client_retries", float64(routed.retries))
		add("fleet.retry_naks", float64(routed.stats.ShardDown+routed.stats.Quiesced+routed.stats.TenantLimited))
		maxTally, sumTally := 0, 0
		for _, t := range routed.tallies {
			sumTally += t.Total()
			if t.Total() > maxTally {
				maxTally = t.Total()
			}
		}
		if sumTally > 0 {
			add("fleet.shard_skew", float64(maxTally)*float64(len(routed.tallies))/float64(sumTally))
		}
		add("fleet.drain_gather_ms", routed.gatherMS)
		add("fleet.drain_shutdown_ms", routed.shutdownMS)
		add("wire.merge_ms", routed.mergeMS)
		add("fleet.drain_analyze_ms", routed.analyzeMS)
		add("fleet.drain_total_ms", routed.gatherMS+routed.shutdownMS+routed.mergeMS+routed.analyzeMS)

		direct, err := runDirect(c, stream, durable, true, acct)
		if err != nil {
			return nil, err
		}
		acct.check(direct.recoveredOK, "analyzerd.Recover did not return every message the standalone daemon acked")
		directP50 := 1e3 * median(direct.ackMS)
		add("analyzerd.direct_ack_p50_us", directP50)
		add("analyzerd.direct_msgs_per_s", direct.msgsPerS)
		add("analyzerd.wal_bytes_per_msg", direct.walPerMsg)
		add("analyzerd.recover_ms", direct.recoverMS)
		// The router's share is read against a daemon that, like the
		// fleet, does not wait for the disk.
		unsynced := directP50
		if durable {
			off, err := runDirect(c, stream, false, false, acct)
			if err != nil {
				return nil, err
			}
			unsynced = 1e3 * median(off.ackMS)
			add("analyzerd.fsync_added_us", directP50-unsynced)
		}
		unsyncedP50 = append(unsyncedP50, unsynced)

		single, err := runFleet(c, stream, durable, 1, false, nil, acct)
		if err != nil {
			return nil, err
		}
		add("fleet.msgs_per_s_1shard", single.msgsPerS)
	}
	for _, name := range sortedKeys(rounds) {
		vals[name] = median(rounds[name])
	}
	selfNS, calls := tr.selfByName()
	vals["wire.encode_ns_per_msg"] = float64(selfNS["wire.encode"]) / float64(calls["wire.encode"])
	vals["fleet.ack_p50_us"] = 1e3 * median(ackMS)
	vals["fleet.ack_p99_us"] = 1e3 * quantile(ackMS, 0.99)
	vals["fleet.router_added_us"] = vals["fleet.ack_p50_us"] - median(unsyncedP50)
	if len(plainMS) > 0 {
		vals["trace_overhead_share"] = (median(ackMS) - median(plainMS)) / median(plainMS)
	}

	c.logf("  %d rounds; drain: gather %.1f + shutdown %.1f + merge %.1f + analyze %.1f ms (medians), total %.1f ms; simulator layers 0%%",
		len(rounds["fleet.msgs_per_s"]), vals["fleet.drain_gather_ms"], vals["fleet.drain_shutdown_ms"], vals["wire.merge_ms"],
		vals["fleet.drain_analyze_ms"], vals["fleet.drain_total_ms"])
	if err := tr.write(traceFile(c)); err != nil {
		return nil, err
	}
	return vals, nil
}
