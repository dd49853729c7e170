package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/chaos"
	"vedrfolnir/internal/collective"
	"vedrfolnir/internal/fabric"
	"vedrfolnir/internal/topo"
)

var daemonPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vedranalyzerd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonPath = filepath.Join(dir, "vedranalyzerd")
	build := exec.Command("go", "build", "-o", daemonPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, "building daemon:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
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
// false when the daemon exited before announcing (e.g. a bind race on
// restart — the caller retries).
func startDaemon(t *testing.T, args ...string) (*daemon, bool) {
	t.Helper()
	d := &daemon{cmd: exec.Command(daemonPath, args...), done: make(chan error, 1)}
	d.cmd.Stderr = os.Stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
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
			return nil, false
		}
		d.addr = a
		return d, true
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon never announced its address")
		return nil, false
	}
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

func (d *daemon) terminate(t *testing.T) []string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("daemon did not drain and exit after SIGTERM")
	}
	return d.output()
}

func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.done
}

// testMessages is a fixed submission stream: a few step records plus the
// collective-flow census, enough to give the diagnosis real state.
func testMessages() []func(rc *analyzerd.ReliableClient) error {
	var items []func(rc *analyzerd.ReliableClient) error
	for i := 0; i < 6; i++ {
		rec := collective.StepRecord{
			Host:  topo.NodeID(i + 1),
			Step:  i,
			Flow:  fabric.FlowKey{Src: topo.NodeID(i + 1), Dst: topo.NodeID(i + 2), SrcPort: 7, DstPort: 8, Proto: 17},
			Bytes: int64(1000 * (i + 1)),
			Start: 0,
			End:   0,
		}
		items = append(items, func(rc *analyzerd.ReliableClient) error { return rc.SendStep(rec) })
	}
	for i := 0; i < 6; i++ {
		cf := fabric.FlowKey{Src: topo.NodeID(i + 1), Dst: topo.NodeID(i + 2), SrcPort: 7, DstPort: 8, Proto: 17}
		items = append(items, func(rc *analyzerd.ReliableClient) error { return rc.SendCF(cf) })
	}
	return items
}

func newClient(t *testing.T, addr string) *analyzerd.ReliableClient {
	t.Helper()
	rc, err := analyzerd.NewReliableClient(addr, analyzerd.ClientConfig{
		ID:          "harness",
		MaxAttempts: 20,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func sendItems(t *testing.T, rc *analyzerd.ReliableClient, items []func(rc *analyzerd.ReliableClient) error, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := items[i](rc); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// restartDaemon rebinds the recovered daemon on the address the killed one
// used (the client keeps resubmitting there), retrying the bind race.
func restartDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		if d, ok := startDaemon(t, args...); ok {
			return d
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("could not rebind the daemon's address after 20 attempts")
	return nil
}

// TestKillRecoverDiagnosisIdentical SIGKILLs the durable daemon at seeded
// cut points mid-ingest, restarts it on the same WAL directory and
// address, finishes the stream through the same reliable client, and
// requires the drained output (ingest totals + diagnosis) to be
// byte-identical to a run that never crashed.
func TestKillRecoverDiagnosisIdentical(t *testing.T) {
	items := testMessages()

	ref, ok := startDaemon(t, "-listen", "127.0.0.1:0")
	if !ok {
		t.Fatal("reference daemon failed to start")
	}
	rcRef := newClient(t, ref.addr)
	sendItems(t, rcRef, items, 0, len(items))
	if err := rcRef.Close(); err != nil {
		t.Fatal(err)
	}
	want := ref.terminate(t)
	if len(want) == 0 || !strings.HasPrefix(want[0], "ingested: ") {
		t.Fatalf("unexpected reference output: %q", want)
	}

	faults := chaos.NewWALFaults(1337)
	for _, cut := range faults.CrashPoints(2, len(items)-1) {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			walDir := t.TempDir()
			d1, ok := startDaemon(t, "-listen", "127.0.0.1:0",
				"-wal-dir", walDir, "-fsync", "always", "-snapshot-every", "4")
			if !ok {
				t.Fatal("daemon failed to start")
			}
			rc := newClient(t, d1.addr)
			sendItems(t, rc, items, 0, cut)
			if err := rc.Flush(); err != nil {
				t.Fatal(err)
			}
			d1.kill(t)

			d2 := restartDaemon(t, "-listen", d1.addr,
				"-wal-dir", walDir, "-fsync", "always", "-snapshot-every", "4")
			sendItems(t, rc, items, cut, len(items))
			if err := rc.Close(); err != nil {
				t.Fatal(err)
			}
			got := d2.terminate(t)
			if !slicesEqual(got, want) {
				t.Fatalf("recovered run output differs:\n%s\nvs reference\n%s",
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRemovedFlagsRefused: the fleet is sized once, by -cluster, so the
// live-rebalance, tenant-quota, shard-epoch and vnode-count flags are
// gone, as is the per-client rate limiter's -rate/-burst and the
// supervise subcommand (-cluster 1 supervises a lone daemon), and a
// command line that still carries one fails with exit 2 instead of
// running a daemon that ignores it. So does the memory-only fleet:
// -cluster without -wal-dir.
func TestRemovedFlagsRefused(t *testing.T) {
	daemon := func(flags ...string) []string {
		return append([]string{"-listen", "127.0.0.1:0", "-after", "1ms"}, flags...)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{daemon("-cluster", "2", "-resize-to", "3"), "flag provided but not defined: -resize-to"},
		{daemon("-cluster", "2", "-resize-after", "10"), "flag provided but not defined: -resize-after"},
		{daemon("-cluster", "2", "-rebalance-kill", "after-flip:0"), "flag provided but not defined: -rebalance-kill"},
		{daemon("-cluster", "2", "-tenant-rate", "25"), "flag provided but not defined: -tenant-rate"},
		{daemon("-cluster", "2", "-tenant-burst", "4"), "flag provided but not defined: -tenant-burst"},
		{daemon("-shard-index", "0", "-shard-count", "2", "-shard-epoch", "1"), "flag provided but not defined: -shard-epoch"},
		{daemon("-cluster", "2", "-shard-replicas", "16"), "flag provided but not defined: -shard-replicas"},
		{daemon("-rate", "100"), "flag provided but not defined: -rate"},
		{daemon("-burst", "8"), "flag provided but not defined: -burst"},
		{[]string{"supervise", "--", "-listen", "127.0.0.1:0"}, `unexpected argument "supervise"`},
		{daemon("-cluster", "2"), "-cluster needs -wal-dir"},
	} {
		out, err := exec.Command(daemonPath, tc.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err=%v, want exit 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: output does not say %q:\n%s", tc.args, tc.want, out)
		}
	}
}
