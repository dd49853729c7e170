package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"
)

// ingestRound is one fixed-size round of an ingest workload against a
// fresh cluster.
type ingestRound struct {
	setupS    float64
	ackMS     []float64
	msgsPerS  float64
	recoverMS float64
	drainMS   float64
}

const clusterShards = 2

// runIngestRound runs one round; setupStart is when its set-up began,
// which is before the stream was built in the rounds that rebuild it.
func runIngestRound(c *runCtx, durable bool, stream []streamMsg, setupStart time.Time, acct *tally) (*ingestRound, error) {
	var r ingestRound
	dir, err := os.MkdirTemp(c.tmp, "ingest-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch; a leftover is harmless
	d, err := startDaemon(c.daemon, daemonArgs(c, dir, fleetFsync(durable), clusterShards)...)
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
	r.setupS = time.Since(setupStart).Seconds()

	ackTrips, streamMsgs := c.size.phases(durable)
	if r.ackMS, _, err = ackPhase(lanes, ackTrips, nil); err != nil {
		return nil, err
	}
	if r.msgsPerS, err = pipelinePhase(lanes, streamMsgs); err != nil {
		return nil, err
	}
	if durable {
		victim, host, err := ownedBy(lanes, clusterShards, 0)
		if err != nil {
			return nil, err
		}
		pid := d.shardPid(0)
		if pid <= 0 {
			return nil, fmt.Errorf("shard 0 never announced a pid")
		}
		tK := time.Now()
		if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
			return nil, err
		}
		if err := awaitRestart(func() int { return d.shardPid(0) }, pid); err != nil {
			return nil, err
		}
		if err := victim.firstAck(host); err != nil {
			return nil, err
		}
		r.recoverMS = msSince(tK)
		if _, err := pipelinePhase(lanes, c.size.AfterKillMsgs); err != nil {
			return nil, err
		}
	}
	if _, err := closeLanes(lanes, acct); err != nil {
		return nil, err
	}

	tD := time.Now()
	lines, err := d.drain()
	if err != nil {
		return nil, err
	}
	r.drainMS = msSince(tD)

	// Every message was acked (a Flush that gave up returned an error
	// above); now the fleet must have kept each exactly once and diagnose
	// them exactly as a local merge of the same messages does.
	stats, want, err := localDiagnosis(lanes)
	if err != nil {
		return nil, err
	}
	acct.ok(stats.Messages)
	wantCounts := fmt.Sprintf("ingested: %d step records, %d reports, %d collective flows", stats.Records, stats.Reports, stats.CFs)
	gotCounts, gotJSON := "(no ingested line)", ""
	for i, l := range lines {
		if strings.HasPrefix(l, "ingested: ") {
			gotCounts = l
		}
		if strings.HasPrefix(l, "{") {
			gotJSON = strings.Join(lines[i:], "\n") + "\n"
			break
		}
	}
	acct.check(gotCounts == wantCounts, "drained %q, sent %q", gotCounts, wantCounts)
	acct.check(gotJSON == string(want), "drained diagnosis (%d bytes) differs from the local merge (%d bytes)", len(gotJSON), len(want))
	return &r, nil
}

// runIngest is ingest-stream and ingest-durable.
func runIngest(c *runCtx, durable, traced bool) (map[string]float64, tally, error) {
	var acct tally
	if traced {
		vals, err := traceIngest(c, durable, &acct)
		return vals, acct, err
	}
	var setups, p50s, tails, rates, recovers, drains []float64
	acks := 0
	var stream []streamMsg
	wantPrint := ""
	start := time.Now()
	for round := 0; round < setupRepeats || time.Since(start) < c.seconds; round++ {
		// The first setupRepeats rounds set up in full, stream included;
		// later rounds reuse the stream and only start a fresh cluster.
		t0 := time.Now()
		if round < setupRepeats {
			var err error
			if stream, err = buildStream(c.seed, c.size.StreamCases); err != nil {
				return nil, acct, err
			}
			print, err := streamFingerprint(stream)
			if err != nil {
				return nil, acct, err
			}
			if round == 0 {
				wantPrint = print
			}
			acct.check(print == wantPrint, "generated stream differs between two set-ups on seed %d", c.seed)
		}
		r, err := runIngestRound(c, durable, stream, t0, &acct)
		if err != nil {
			return nil, acct, err
		}
		if round < setupRepeats {
			setups = append(setups, r.setupS)
		}
		p50s = append(p50s, median(r.ackMS))
		tails = append(tails, quantile(r.ackMS, 0.95))
		acks = len(r.ackMS)
		rates = append(rates, r.msgsPerS)
		recovers = append(recovers, r.recoverMS)
		drains = append(drains, r.drainMS)
	}
	c.logf("  %d rounds, each figure at its best round; ack n=%d a round, tail at p95 (p%g has ten samples beyond it); drain %.1f ms",
		len(rates), acks, 100*tailQuantile(acks), best(drains))
	// Rounds do identical work and the machine's noise only adds time, so
	// each figure is its best round's.
	vals := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   largest(rates),
		"op_p50_ms":   best(p50s),
		"op_tail_ms":  best(tails),
		"heavy_op_ms": best(drains),
	}
	if durable {
		vals["heavy_op_ms"] = best(recovers)
	}
	return vals, acct, nil
}
