package vedrtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/spec"
	"vedrfolnir/internal/wire"
)

// The fleet mode replays a finished case through `vedranalyzerd -cluster`:
// every source host streams through its own named ReliableClient, the
// router consistent-hashes the hosts across supervised shard daemons, and
// the drained merged diagnosis must match a local canonical merge of the
// same sourced stream — including across a mid-stream shard SIGKILL
// (recovered by the supervisor) or a shard held down through the drain
// (asserted degraded instead).

// submission is one message of a replayed case: the host agent that
// produced it, how a client sends it, and the sourced message (client and
// seq still blank) a shard is expected to retain for it.
type submission struct {
	host string
	send func(*analyzerd.ReliableClient) error
	msg  wire.SourcedMessage
}

// hostOf names the fleet client for a source host ID.
func hostOf(id int32) string { return fmt.Sprintf("h%02d", id) }

// replayStream fixes the replay order for both daemon modes: the
// collective-flow census (sorted), then step records, then telemetry
// reports, all in run order — deterministic, so a kill-after point always
// lands on the same message — each attributed to the host that produced it.
func replayStream(res scenario.Result) []submission {
	var subs []submission
	cfs := make([]fabric.FlowKey, 0, len(res.CFs))
	for f := range res.CFs {
		cfs = append(cfs, f)
	}
	sort.Slice(cfs, func(i, j int) bool { return flowKeyLess(cfs[i], cfs[j]) })
	for _, f := range cfs {
		f := f
		dto := wire.FromFlow(f)
		subs = append(subs, submission{
			host: hostOf(int32(f.Src)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendCF(f) },
			msg:  wire.SourcedMessage{Type: wire.MsgCF, CF: &dto},
		})
	}
	for _, rec := range res.Records {
		rec := rec
		dto := wire.FromStepRecord(rec)
		subs = append(subs, submission{
			host: hostOf(int32(rec.Host)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendStep(rec) },
			msg:  wire.SourcedMessage{Type: wire.MsgStep, Step: &dto},
		})
	}
	for _, rep := range res.Reports {
		rep := rep
		dto := wire.FromReport(rep)
		subs = append(subs, submission{
			host: hostOf(int32(rep.TriggeredBy.Src)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendReport(rep) },
			msg:  wire.SourcedMessage{Type: wire.MsgReport, Report: &dto},
		})
	}
	return subs
}

// shardAnnounces counts shard i's announce lines: one per incarnation,
// so >= 2 proves a supervised restart happened.
func (d *daemon) shardAnnounces(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	prefix := fmt.Sprintf("shard %d listening on ", i)
	for _, l := range d.lines {
		if strings.HasPrefix(l, prefix) {
			n++
		}
	}
	return n
}

// shardPid scans the daemon's captured announce lines for shard i's most
// recent incarnation and returns its pid (-1 when it never announced).
func (d *daemon) shardPid(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	pid := -1
	prefix := fmt.Sprintf("shard %d listening on ", i)
	for _, l := range d.lines {
		rest, ok := strings.CutPrefix(l, prefix)
		if !ok {
			continue
		}
		var addr string
		var p int
		if _, err := fmt.Sscanf(rest, "%s (pid %d)", &addr, &p); err == nil {
			pid = p
		}
	}
	return pid
}

// runFleet replays one finished case through a real sharded cluster and
// returns the resulting checks. Like runAnalyzerd, every failure mode
// lands in a failing check so the report shows how far the replay got.
func (r *Runner) runFleet(sp *spec.Spec, cs scenario.Case, res scenario.Result) []Check {
	fail := func(field, want string, err error) []Check {
		return []Check{checkBound(field, want, err.Error(), false)}
	}
	bin, err := r.daemonBinary()
	if err != nil {
		return fail("fleet.binary", "vedranalyzerd binary available", err)
	}
	walDir, err := os.MkdirTemp("", "vedrtest-fleet-wal")
	if err != nil {
		return fail("fleet.wal-dir", "WAL directory created", err)
	}
	defer func() { _ = os.RemoveAll(walDir) }()

	fl := sp.Fleet
	args := []string{"-listen", "127.0.0.1:0", "-json",
		"-cluster", strconv.Itoa(fl.Shards),
		"-wal-dir", walDir,
		"-fsync", fl.Fsync,
		"-snapshot-every", strconv.Itoa(fl.SnapshotEvery)}
	if fl.Replicas > 0 {
		args = append(args, "-shard-replicas", strconv.Itoa(fl.Replicas))
	}
	if fl.HoldShard != spec.Unset {
		args = append(args, "-hold-shard", strconv.Itoa(fl.HoldShard))
	}
	if fl.ResizeTo > 0 {
		args = append(args, "-resize-to", strconv.Itoa(fl.ResizeTo))
		if fl.ResizeAfter > 0 {
			args = append(args, "-resize-after", strconv.Itoa(fl.ResizeAfter))
		}
		if fl.RebalanceKillPhase != "" {
			args = append(args, "-rebalance-kill",
				fl.RebalanceKillPhase+":"+strconv.Itoa(fl.RebalanceKillShard))
		}
	}
	if fl.TenantRate > 0 {
		args = append(args, "-tenant-rate", strconv.FormatFloat(fl.TenantRate, 'f', -1, 64))
		if fl.TenantBurst > 0 {
			args = append(args, "-tenant-burst", strconv.Itoa(fl.TenantBurst))
		}
	}
	d, ok, err := startDaemon(bin, args)
	if err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("cluster exited before announcing its address")
		}
		return fail("fleet.start", "cluster listening", err)
	}
	defer func() { _ = d.cmd.Process.Kill() }()

	subs := replayStream(res)
	var checks []Check
	killAfter := 0
	if fl.KillShard != spec.Unset {
		killAfter = fl.KillAfter
		if killAfter >= len(subs) {
			checks = append(checks, checkBound("fleet.kill-recover",
				fmt.Sprintf("SIGKILL after %d acked messages lands mid-stream", killAfter),
				fmt.Sprintf("stream only has %d messages", len(subs)), false))
			killAfter = 0
		}
	}

	clients := map[string]*analyzerd.ReliableClient{}
	client := func(host string) (*analyzerd.ReliableClient, error) {
		if rc, ok := clients[host]; ok {
			return rc, nil
		}
		rc, err := analyzerd.NewReliableClient(d.addr, analyzerd.ClientConfig{
			ID:          host,
			MaxAttempts: 40,
			BackoffBase: 20 * time.Millisecond,
			BackoffMax:  500 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		clients[host] = rc
		return rc, nil
	}
	defer func() {
		for _, rc := range clients {
			_ = rc.Close()
		}
	}()

	// Mirror the sourced stream the shards should collectively retain:
	// per-client seqs count up in submission order.
	seqs := map[string]int64{}
	var sourced []wire.SourcedMessage
	killed := false
	for i, sub := range subs {
		rc, err := client(sub.host)
		if err != nil {
			return append(checks, fail(fmt.Sprintf("fleet.connect[%s]", sub.host), "client connected", err)...)
		}
		if err := sub.send(rc); err != nil {
			return append(checks, fail(fmt.Sprintf("fleet.send[%d]", i), "message accepted", err)...)
		}
		if err := rc.Flush(); err != nil {
			return append(checks, fail(fmt.Sprintf("fleet.ack[%d]", i), "message acked", err)...)
		}
		seqs[sub.host]++
		sm := sub.msg
		sm.Client, sm.Seq = sub.host, seqs[sub.host]
		sourced = append(sourced, sm)

		if killAfter > 0 && i+1 == killAfter {
			pid := d.shardPid(fl.KillShard)
			if pid <= 0 {
				return append(checks, fail("fleet.kill-recover",
					fmt.Sprintf("shard %d announced a pid", fl.KillShard),
					fmt.Errorf("no announce line for shard %d", fl.KillShard))...)
			}
			if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
				return append(checks, fail("fleet.kill-recover", "shard SIGKILLed", err)...)
			}
			//lint:ignore nosystime bounding a real supervised restart, not simulated time
			deadline := time.Now().Add(e2eStartupTimeout)
			for d.shardPid(fl.KillShard) == pid {
				//lint:ignore nosystime bounding a real supervised restart, not simulated time
				if time.Now().After(deadline) {
					return append(checks, fail("fleet.kill-recover", "supervisor restarted the shard",
						fmt.Errorf("shard %d never re-announced after SIGKILL", fl.KillShard))...)
				}
				//lint:ignore nosystime pacing a poll for a real subprocess restart
				time.Sleep(10 * time.Millisecond)
			}
			killed = true
		}
	}
	hosts := make([]string, 0, len(clients))
	for host := range clients {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		if err := clients[host].Close(); err != nil {
			return append(checks, fail(fmt.Sprintf("fleet.close[%s]", host), "client closed cleanly", err)...)
		}
	}
	lines, err := d.terminate()
	if err != nil {
		return append(checks, fail("fleet.drain", "cluster drained and exited 0", err)...)
	}
	if killed {
		checks = append(checks, checkBound("fleet.kill-recover",
			fmt.Sprintf("shard %d SIGKILLed after %d acked messages and restarted", fl.KillShard, fl.KillAfter),
			fmt.Sprintf("shard %d SIGKILLed after %d acked messages and restarted", fl.KillShard, fl.KillAfter), true))
	}
	if fl.ResizeTo > 0 {
		// The cluster prints its resize report before draining; its
		// absence means the rebalance never completed.
		wantResized := fmt.Sprintf("resized to %d shards (epoch 1)", fl.ResizeTo)
		gotResized := "(no resize line)"
		for _, l := range lines {
			if strings.HasPrefix(l, "resized to ") {
				gotResized = l
			}
		}
		checks = append(checks, check("fleet.resized", wantResized, gotResized))
	}
	if fl.RebalanceKillPhase != "" {
		// The chaos kill must have fired and the supervisor brought the
		// shard back: that shard announces at least twice.
		field := "fleet.rebalance-kill"
		want := fmt.Sprintf("shard %d SIGKILLed at %s and restarted", fl.RebalanceKillShard, fl.RebalanceKillPhase)
		if n := d.shardAnnounces(fl.RebalanceKillShard); n >= 2 {
			checks = append(checks, checkBound(field, want, want, true))
		} else {
			checks = append(checks, checkBound(field, want,
				fmt.Sprintf("shard %d announced %d time(s)", fl.RebalanceKillShard, n), false))
		}
	}

	// Local canonical merge of the mirrored sourced stream: what the fleet
	// must reconstruct no matter how it was sharded, killed, or recovered.
	local, stats := wire.MergeShardStates([]*wire.ShardState{{
		Format:   wire.ShardStateFormat,
		Map:      wire.ShardMap{Shards: fl.Shards, Replicas: fl.Replicas},
		Messages: sourced,
	}})

	wantIngest := fmt.Sprintf("ingested: %d step records, %d reports, %d collective flows",
		stats.Records, stats.Reports, stats.CFs)
	gotIngest := "(no ingest line)"
	var jsonLines []string
	for i, l := range lines {
		if strings.HasPrefix(l, "ingested: ") {
			gotIngest = l
			continue
		}
		if strings.HasPrefix(l, "{") {
			jsonLines = lines[i:]
			break
		}
	}
	gotJSON := strings.Join(jsonLines, "\n") + "\n"

	if fl.HoldShard != spec.Unset {
		// Degraded drill: a full-coverage ingest check would be wrong (the
		// held shard's slice is gone); assert the diagnosis is honest about
		// it instead — present, parseable, and confidence < 1.
		var diag struct {
			Confidence *float64 `json:"confidence"`
		}
		if err := json.Unmarshal([]byte(gotJSON), &diag); err != nil {
			return append(checks, fail("fleet.degraded", "degraded diagnosis JSON parseable", err)...)
		}
		got := "confidence absent (full confidence)"
		if diag.Confidence != nil {
			got = fmt.Sprintf("confidence %v", *diag.Confidence)
			if *diag.Confidence > 0 && *diag.Confidence < 1 {
				got = "confidence in (0, 1)"
			}
		}
		checks = append(checks, check("fleet.degraded", "confidence in (0, 1)", got))
		return checks
	}

	checks = append(checks, check("fleet.ingested", wantIngest, gotIngest))

	// Parity: the cluster's merged diagnosis must be byte-identical to the
	// local canonical merge's analysis.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	localDiag := local.Analyze()
	if err := enc.Encode(wire.FromDiagnosis(localDiag)); err != nil {
		return append(checks, fail("fleet.diagnosis-parity", "local merged diagnosis rendered", err)...)
	}
	parity := "byte-identical merged diagnosis"
	if gotJSON != want.String() {
		parity = fmt.Sprintf("cluster diagnosis differs from the local canonical merge (%d vs %d bytes)",
			len(gotJSON), want.Len())
	}
	checks = append(checks, check("fleet.diagnosis-parity", "byte-identical merged diagnosis", parity))

	// The fleet's merged diagnosis must reach the same verdict as the
	// in-process run.
	checks = append(checks, check("fleet.outcome",
		res.Outcome.String(), scenario.Evaluate(cs, localDiag).String()))
	return checks
}
