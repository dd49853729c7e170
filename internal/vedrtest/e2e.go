package vedrtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/spec"
	"vedrfolnir/internal/wire"
)

// The end-to-end mode replays a finished in-process run's analyzer inputs
// (step records, telemetry reports, collective-flow census) through a real
// vedranalyzerd subprocess over the seq/ack ReliableClient, then SIGTERMs
// the daemon and compares its drained diagnosis byte-for-byte against a
// local wire.Bundle analysis of the same inputs. With kill-after set, the
// daemon is SIGKILLed mid-stream after that many acknowledged messages and
// restarted on the same WAL directory and address — the client resubmits
// through the reconnect, and every assertion must hold across the crash.
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

// runAnalyzerd replays one finished case end-to-end and returns the
// resulting checks. Every failure mode lands in a failing check rather
// than an error, so the report always shows how far the replay got.
func (r *Runner) runAnalyzerd(sp *spec.Spec, cs scenario.Case, res scenario.Result) []Check {
	fail := func(field, want string, err error) []Check {
		return []Check{checkBound(field, want, err.Error(), false)}
	}
	bin, err := r.daemonBinary()
	if err != nil {
		return fail("analyzerd.binary", "vedranalyzerd binary available", err)
	}
	walDir, err := os.MkdirTemp("", "vedrtest-wal")
	if err != nil {
		return fail("analyzerd.wal-dir", "WAL directory created", err)
	}
	defer func() { _ = os.RemoveAll(walDir) }()

	baseArgs := []string{"-json", "-wal-dir", walDir,
		"-fsync", sp.Analyzerd.Fsync,
		"-snapshot-every", strconv.Itoa(sp.Analyzerd.SnapshotEvery)}
	d, ok, err := startDaemon(bin, append([]string{"-listen", "127.0.0.1:0"}, baseArgs...))
	if err != nil || !ok {
		if err == nil {
			err = fmt.Errorf("daemon exited before announcing its address")
		}
		return fail("analyzerd.start", "daemon listening", err)
	}
	defer func() { _ = d.cmd.Process.Kill() }()

	rc, err := analyzerd.NewReliableClient(d.addr, analyzerd.ClientConfig{
		ID:          "vedrtest",
		MaxAttempts: 40,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  500 * time.Millisecond,
	})
	if err != nil {
		return fail("analyzerd.connect", "client connected", err)
	}
	defer func() { _ = rc.Close() }()

	msgs := replayStream(res) // one client sends everything: the host column is the fleet mode's
	killAfter := sp.Analyzerd.KillAfter
	var checks []Check
	if killAfter > 0 && killAfter >= len(msgs) {
		checks = append(checks, checkBound("analyzerd.crash-recovery",
			fmt.Sprintf("SIGKILL after %d acked messages lands mid-stream", killAfter),
			fmt.Sprintf("stream only has %d messages", len(msgs)), false))
		killAfter = 0
	}

	killed := false
	for i, m := range msgs {
		if err := m.send(rc); err != nil {
			return append(checks, fail(fmt.Sprintf("analyzerd.send[%d]", i), "message accepted", err)...)
		}
		if err := rc.Flush(); err != nil {
			return append(checks, fail(fmt.Sprintf("analyzerd.ack[%d]", i), "message acked", err)...)
		}
		if killAfter > 0 && i+1 == killAfter {
			if err := d.cmd.Process.Kill(); err != nil {
				return append(checks, fail("analyzerd.crash-recovery", "daemon SIGKILLed", err)...)
			}
			<-d.done
			d, err = restartDaemon(bin, append([]string{"-listen", d.addr}, baseArgs...))
			if err != nil {
				return append(checks, fail("analyzerd.crash-recovery", "daemon restarted on the same address", err)...)
			}
			killed = true
		}
	}
	if err := rc.Close(); err != nil {
		return append(checks, fail("analyzerd.close", "client closed cleanly", err)...)
	}
	lines, err := d.terminate()
	if err != nil {
		return append(checks, fail("analyzerd.drain", "daemon drained and exited 0", err)...)
	}
	if killed {
		checks = append(checks, checkBound("analyzerd.crash-recovery",
			fmt.Sprintf("daemon SIGKILLed after %d acked messages and restarted", sp.Analyzerd.KillAfter),
			fmt.Sprintf("daemon SIGKILLed after %d acked messages and restarted", sp.Analyzerd.KillAfter), true))
	}

	// Ingest totals must cover exactly what was submitted, crash or not.
	wantIngest := fmt.Sprintf("ingested: %d step records, %d reports, %d collective flows",
		len(res.Records), len(res.Reports), len(res.CFs))
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
	checks = append(checks, check("analyzerd.ingested", wantIngest, gotIngest))

	// Parity: the daemon's drained diagnosis must be byte-identical to a
	// local bundle analysis of the same inputs.
	var local bytes.Buffer
	enc := json.NewEncoder(&local)
	enc.SetIndent("", " ")
	bundle := wire.NewBundle(res.Records, res.Reports, res.CFs)
	localDiag := bundle.Analyze()
	if err := enc.Encode(wire.FromDiagnosis(localDiag)); err != nil {
		return append(checks, fail("analyzerd.diagnosis-parity", "local diagnosis rendered", err)...)
	}
	gotJSON := strings.Join(jsonLines, "\n") + "\n"
	parity := "byte-identical diagnosis"
	if gotJSON != local.String() {
		parity = fmt.Sprintf("daemon diagnosis differs from the local bundle analysis (%d vs %d bytes)",
			len(gotJSON), local.Len())
	}
	checks = append(checks, check("analyzerd.diagnosis-parity", "byte-identical diagnosis", parity))

	// The replayed diagnosis must reach the same verdict as the in-process
	// run (coverage inputs aside, the findings are the same analysis).
	checks = append(checks, check("analyzerd.outcome",
		res.Outcome.String(), scenario.Evaluate(cs, localDiag).String()))
	return checks
}

// daemon is one running vedranalyzerd subprocess with captured stdout.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error

	mu    sync.Mutex
	lines []string
}

// startDaemon launches the binary and waits for its listening line; ok is
// false when the daemon exited before announcing (a bind race on restart —
// the caller retries).
func startDaemon(bin string, args []string) (*daemon, bool, error) {
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan error, 1)}
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

// restartDaemon rebinds a recovered daemon on the address the killed one
// used (the reliable client keeps resubmitting there), retrying the bind
// race while the kernel releases the port.
func restartDaemon(bin string, args []string) (*daemon, error) {
	for attempt := 0; attempt < 40; attempt++ {
		d, ok, err := startDaemon(bin, args)
		if err != nil {
			return nil, err
		}
		if ok {
			return d, nil
		}
		//lint:ignore nosystime pacing a real TCP bind-race retry
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("could not rebind the daemon's address after 40 attempts")
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
