package vedrtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/spec"
	"vedrfolnir/internal/wire"
)

// The end-to-end modes replay a finished in-process run's analyzer inputs
// (step records, telemetry reports, collective-flow census) through a real
// vedranalyzerd over the seq/ack ReliableClient, then SIGTERM it and
// compare its drained diagnosis byte-for-byte against a local analysis of
// the same inputs. Analyzerd mode drives one daemon through one client;
// with kill-after set the daemon is SIGKILLed mid-stream and restarted on
// the same WAL directory and address, and the client resubmits through the
// reconnect. Fleet mode drives `vedranalyzerd -cluster`: every source host
// streams through its own named client, the router places each host on
// the supervised shard daemon that owns it, and the reference is a local
// canonical merge of the same sourced stream — across a mid-stream shard
// SIGKILL (recovered by the supervisor), or with a shard held down through
// the drain (rebuilt from a WAL with no final sync). Both go through
// replayDaemon.
//
// This file necessarily touches the host clock (subprocess startup and
// drain timeouts, bind-race retry pacing): it orchestrates real processes,
// not simulated ones. Each wall-clock read is individually sanctioned; the
// simulation itself finished before the replay starts, so determinism of
// the diagnosis is unaffected.

// e2eStartupTimeout bounds waiting for the daemon to announce or drain.
const e2eStartupTimeout = 30 * time.Second

// daemonBuild caches one on-demand `go build` of cmd/vedranalyzerd.
type daemonBuild struct {
	once sync.Once
	path string
	err  error
}

// daemonBinary returns the vedranalyzerd binary path, building it once
// per Runner when no prebuilt path was supplied.
func (r *Runner) daemonBinary() (string, error) {
	if r.AnalyzerdPath != "" {
		return r.AnalyzerdPath, nil
	}
	r.daemon.once.Do(func() {
		dir, err := os.MkdirTemp("", "vedrtest-analyzerd")
		if err != nil {
			r.daemon.err = err
			return
		}
		bin := filepath.Join(dir, "vedranalyzerd")
		build := exec.Command("go", "build", "-o", bin, "vedrfolnir/cmd/vedranalyzerd")
		out, err := build.CombinedOutput()
		if err != nil {
			r.daemon.err = fmt.Errorf("building vedranalyzerd: %v\n%s", err, out)
			return
		}
		r.daemon.path = bin
	})
	return r.daemon.path, r.daemon.err
}

// replay is what one daemon mode brings to replayDaemon; the stream, the
// clients, the drain and the checks are shared. Each mode keeps its own
// check names and want/got strings.
type replay struct {
	name string   // check prefix: "analyzerd" or "fleet"
	noun string   // what is started: "daemon" or "cluster"
	args []string // daemon flags besides -listen, -json and -wal-dir
	// client is the one client every source host sends through; "" gives
	// each host its own client, named after it.
	client string
	// kill, after killAfter acked messages (0: never), breaks the daemon
	// and waits for it to come back; a failure names the step that failed
	// in want. killCheck names the check and killed is its want.
	killAfter         int
	killCheck, killed string
	kill              func(d *daemon) (*daemon, string, error)
	// reference builds the local bundle whose diagnosis the drained one
	// must equal byte-for-byte, from the sourced stream the daemon
	// acknowledged; refWhat and refFrom name it in the parity check.
	reference        func([]wire.SourcedMessage) *wire.Bundle
	refWhat, refFrom string
}

// runAnalyzerd replays one finished case through a lone daemon.
func (r *Runner) runAnalyzerd(sp *spec.Spec, cs scenario.Case, res scenario.Result) []Check {
	a := sp.Analyzerd
	return r.replayDaemon(cs, res, replay{
		name: "analyzerd", noun: "daemon",
		args:      []string{"-fsync", a.Fsync, "-snapshot-every", strconv.Itoa(a.SnapshotEvery)},
		client:    "vedrtest",
		killAfter: a.KillAfter, killCheck: "crash-recovery",
		killed: fmt.Sprintf("daemon SIGKILLed after %d acked messages and restarted", a.KillAfter),
		kill: func(d *daemon) (*daemon, string, error) {
			if err := d.cmd.Process.Kill(); err != nil {
				return d, "daemon SIGKILLed", err
			}
			<-d.done
			nd, err := restartDaemon(d)
			return nd, "daemon restarted on the same address", err
		},
		reference: func([]wire.SourcedMessage) *wire.Bundle {
			return wire.NewBundle(res.Records, res.Reports, res.CFs)
		},
		refWhat: "diagnosis", refFrom: "the local bundle analysis",
	})
}

// runFleet replays one finished case through a sharded cluster.
func (r *Runner) runFleet(sp *spec.Spec, cs scenario.Case, res scenario.Result) []Check {
	fl := sp.Fleet
	rp := replay{
		name: "fleet", noun: "cluster",
		args: []string{"-cluster", strconv.Itoa(fl.Shards),
			"-fsync", fl.Fsync, "-snapshot-every", strconv.Itoa(fl.SnapshotEvery)},
		killAfter: fl.KillAfter, killCheck: "kill-recover",
		killed: fmt.Sprintf("shard %d SIGKILLed after %d acked messages and restarted", fl.KillShard, fl.KillAfter),
		kill: func(d *daemon) (*daemon, string, error) {
			pid := d.shardPid(fl.KillShard)
			if pid <= 0 {
				return d, fmt.Sprintf("shard %d announced a pid", fl.KillShard),
					fmt.Errorf("no announce line for shard %d", fl.KillShard)
			}
			if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
				return d, "shard SIGKILLed", err
			}
			//lint:ignore nosystime bounding a real supervised restart, not simulated time
			deadline := time.Now().Add(e2eStartupTimeout)
			for d.shardPid(fl.KillShard) == pid {
				//lint:ignore nosystime bounding a real supervised restart, not simulated time
				if time.Now().After(deadline) {
					return d, "supervisor restarted the shard",
						fmt.Errorf("shard %d never re-announced after SIGKILL", fl.KillShard)
				}
				//lint:ignore nosystime pacing a poll for a real subprocess restart
				time.Sleep(10 * time.Millisecond)
			}
			return d, "", nil
		},
		// What the fleet must reconstruct no matter how it was sharded,
		// killed, held, or recovered.
		reference: func(sourced []wire.SourcedMessage) *wire.Bundle {
			local, _ := wire.MergeShardStates([]*wire.ShardState{{Messages: sourced}})
			return local
		},
		refWhat: "merged diagnosis", refFrom: "the local canonical merge",
	}
	if fl.HoldShard != spec.Unset {
		rp.args = append(rp.args, "-hold-shard", strconv.Itoa(fl.HoldShard))
	}
	return r.replayDaemon(cs, res, rp)
}

// replayDaemon replays one finished case through a real daemon and returns
// the resulting checks. Every failure mode lands in a failing check rather
// than an error, so the report shows how far the replay got.
func (r *Runner) replayDaemon(cs scenario.Case, res scenario.Result, rp replay) []Check {
	fail := func(field, want string, err error) []Check {
		return []Check{checkBound(rp.name+"."+field, want, err.Error(), false)}
	}
	bin, err := r.daemonBinary()
	if err != nil {
		return fail("binary", "vedranalyzerd binary available", err)
	}
	walDir, err := os.MkdirTemp("", "vedrtest-"+rp.name+"-wal")
	if err != nil {
		return fail("wal-dir", "WAL directory created", err)
	}
	defer func() { _ = os.RemoveAll(walDir) }()

	d, ok, err := startDaemon(bin, "127.0.0.1:0", append([]string{"-json", "-wal-dir", walDir}, rp.args...))
	if err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("%s exited before announcing its address", rp.noun)
		}
		return fail("start", rp.noun+" listening", err)
	}
	defer func() { _ = d.cmd.Process.Kill() }()

	subs := replayStream(res)
	var checks []Check
	killAfter := rp.killAfter
	if killAfter > 0 && killAfter >= len(subs) {
		checks = append(checks, checkBound(rp.name+"."+rp.killCheck,
			fmt.Sprintf("SIGKILL after %d acked messages lands mid-stream", killAfter),
			fmt.Sprintf("stream only has %d messages", len(subs)), false))
		killAfter = 0
	}

	// label names a per-client check: bare for the one shared client.
	label := func(field, id string) string {
		if rp.client != "" {
			return field
		}
		return field + "[" + id + "]"
	}
	clients := map[string]*analyzerd.ReliableClient{}
	defer func() {
		for _, rc := range clients {
			_ = rc.Close()
		}
	}()

	// Mirror the sourced stream the daemon should retain: per-client seqs
	// count up in submission order.
	seqs := map[string]int64{}
	var sourced []wire.SourcedMessage
	killed := false
	for i, sub := range subs {
		id := rp.client
		if id == "" {
			id = sub.host
		}
		rc := clients[id]
		if rc == nil {
			rc, err = analyzerd.NewReliableClient(d.addr, analyzerd.ClientConfig{
				ID:          id,
				MaxAttempts: 40,
				BackoffBase: 20 * time.Millisecond,
				BackoffMax:  500 * time.Millisecond,
			})
			if err != nil {
				return append(checks, fail(label("connect", id), "client connected", err)...)
			}
			clients[id] = rc
		}
		if err := sub.send(rc); err != nil {
			return append(checks, fail(fmt.Sprintf("send[%d]", i), "message accepted", err)...)
		}
		if err := rc.Flush(); err != nil {
			return append(checks, fail(fmt.Sprintf("ack[%d]", i), "message acked", err)...)
		}
		seqs[id]++
		sm := sub.msg
		sm.Client, sm.Seq = id, seqs[id]
		sourced = append(sourced, sm)

		if killAfter > 0 && i+1 == killAfter {
			nd, want, err := rp.kill(d)
			if err != nil {
				return append(checks, fail(rp.killCheck, want, err)...)
			}
			d, killed = nd, true
		}
	}
	ids := make([]string, 0, len(clients))
	for id := range clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := clients[id].Close(); err != nil {
			return append(checks, fail(label("close", id), "client closed cleanly", err)...)
		}
	}
	lines, err := d.terminate()
	if err != nil {
		return append(checks, fail("drain", rp.noun+" drained and exited 0", err)...)
	}
	if killed {
		checks = append(checks, checkBound(rp.name+"."+rp.killCheck, rp.killed, rp.killed, true))
	}

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

	// Ingest totals must cover exactly what was submitted, crash or not.
	local := rp.reference(sourced)
	checks = append(checks, check(rp.name+".ingested",
		fmt.Sprintf("ingested: %d step records, %d reports, %d collective flows",
			len(local.Records), len(local.Reports), len(local.CFs)), gotIngest))

	// Parity: the drained diagnosis must be byte-identical to the local
	// reference's analysis.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	localDiag := local.Analyze()
	if err := enc.Encode(wire.FromDiagnosis(localDiag)); err != nil {
		return append(checks, fail("diagnosis-parity", "local "+rp.refWhat+" rendered", err)...)
	}
	parity := "byte-identical " + rp.refWhat
	if gotJSON != want.String() {
		parity = fmt.Sprintf("%s diagnosis differs from %s (%d vs %d bytes)",
			rp.noun, rp.refFrom, len(gotJSON), want.Len())
	}
	checks = append(checks, check(rp.name+".diagnosis-parity", "byte-identical "+rp.refWhat, parity))

	// The replayed diagnosis must reach the same verdict as the in-process
	// run (coverage inputs aside, the findings are the same analysis).
	return append(checks, check(rp.name+".outcome",
		res.Outcome.String(), scenario.Evaluate(cs, localDiag).String()))
}

// submission is one message of a replayed case: the host agent that
// produced it, how a client sends it, and the sourced message (client and
// seq still blank) the daemon is expected to retain for it.
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
	sort.Slice(cfs, func(i, j int) bool { return cfs[i].Less(cfs[j]) })
	for _, f := range cfs {
		dto := wire.FromFlow(f)
		subs = append(subs, submission{
			host: hostOf(int32(f.Src)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendCF(f) },
			msg:  wire.SourcedMessage{Type: wire.MsgCF, CF: &dto},
		})
	}
	for _, rec := range res.Records {
		dto := wire.FromStepRecord(rec)
		subs = append(subs, submission{
			host: hostOf(int32(rec.Host)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendStep(rec) },
			msg:  wire.SourcedMessage{Type: wire.MsgStep, Step: &dto},
		})
	}
	for _, rep := range res.Reports {
		dto := wire.FromReport(rep)
		subs = append(subs, submission{
			host: hostOf(int32(rep.TriggeredBy.Src)),
			send: func(rc *analyzerd.ReliableClient) error { return rc.SendReport(rep) },
			msg:  wire.SourcedMessage{Type: wire.MsgReport, Report: &dto},
		})
	}
	return subs
}

// daemon is one running vedranalyzerd subprocess with captured stdout.
type daemon struct {
	cmd  *exec.Cmd
	bin  string
	args []string // everything but -listen
	addr string
	done chan error

	mu    sync.Mutex
	lines []string
}

// startDaemon launches the binary on listen and waits for its listening
// line; ok is false when the daemon exited before announcing (a bind race
// on restart — the caller retries).
func startDaemon(bin, listen string, args []string) (*daemon, bool, error) {
	d := &daemon{
		cmd: exec.Command(bin, append([]string{"-listen", listen}, args...)...),
		bin: bin, args: args, done: make(chan error, 1),
	}
	d.cmd.Stderr = os.Stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, false, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, false, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "analyzer listening on "); ok {
				addrCh <- a
				continue
			}
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
		}
		close(addrCh)
		d.done <- d.cmd.Wait()
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			<-d.done
			return nil, false, nil
		}
		d.addr = a
		return d, true, nil
	//lint:ignore nosystime bounding a real subprocess's startup, not simulated time
	case <-time.After(e2eStartupTimeout):
		_ = d.cmd.Process.Kill()
		return nil, false, fmt.Errorf("daemon never announced its address")
	}
}

// restartDaemon relaunches a killed daemon on the address it used (the
// reliable client keeps resubmitting there), retrying the bind race while
// the kernel releases the port. On failure it returns the dead daemon.
func restartDaemon(dead *daemon) (*daemon, error) {
	for attempt := 0; attempt < 40; attempt++ {
		d, ok, err := startDaemon(dead.bin, dead.addr, dead.args)
		if err != nil {
			return dead, err
		}
		if ok {
			return d, nil
		}
		//lint:ignore nosystime pacing a real TCP bind-race retry
		time.Sleep(100 * time.Millisecond)
	}
	return dead, fmt.Errorf("could not rebind the daemon's address after 40 attempts")
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

// output returns the captured stdout lines, minus the operational noise
// that legitimately differs between a crashed-and-recovered run and an
// uninterrupted one (duplicate-suppression and backpressure counters, and
// per-shard announce lines whose ports and pids are never stable).
func (d *daemon) output() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, l := range d.lines {
		if strings.HasPrefix(l, "shrugged off:") || strings.HasPrefix(l, "backpressure:") ||
			strings.HasPrefix(l, "shard ") {
			continue
		}
		out = append(out, l)
	}
	return out
}

// terminate SIGTERMs the daemon, waits for the graceful drain, and returns
// the filtered output.
func (d *daemon) terminate() ([]string, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("signalling daemon: %w", err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			return nil, fmt.Errorf("daemon exited non-zero after SIGTERM: %w", err)
		}
	//lint:ignore nosystime bounding a real subprocess's drain, not simulated time
	case <-time.After(e2eStartupTimeout):
		_ = d.cmd.Process.Kill()
		return nil, fmt.Errorf("daemon did not drain and exit after SIGTERM")
	}
	return d.output(), nil
}
