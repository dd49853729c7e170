package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// procLog captures supervisor events for assertions.
type procLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *procLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *procLog) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.lines {
		if strings.Contains(s, substr) {
			n++
		}
	}
	return n
}

// script writes an executable shell script into the test dir.
func script(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "child.sh")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body), 0o755); err != nil {
		t.Fatalf("write script: %v", err)
	}
	return path
}

// fast is a restart timing short enough for tests: crashes restart after
// a millisecond.
func fast() *procTiming {
	return &procTiming{backoff: time.Millisecond, backoffMax: time.Millisecond,
		crashWindow: time.Second, crashLoops: 3}
}

// waitFor polls cond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //lint:ignore nosystime test deadline
	for !cond() {
		if time.Now().After(deadline) { //lint:ignore nosystime test deadline
			t.Fatalf("%s: not within 10s", what)
		}
		time.Sleep(5 * time.Millisecond) //lint:ignore nosystime polling a real child restart
	}
}

func TestProcCleanExitEndsSupervision(t *testing.T) {
	var lg procLog
	p := startProc(procConfig{
		Path:   "/bin/sh",
		Args:   []string{script(t, `echo "analyzer listening on 127.0.0.1:9"; exit 0`)},
		Logf:   lg.logf,
		timing: fast(),
	})
	exit := p.Wait()
	if exit.Code != 0 || exit.CrashLoop || exit.Restarts != 0 {
		t.Errorf("exit = %+v, want clean 0 with no restarts", exit)
	}
	if got := p.Addr(); got != "127.0.0.1:9" {
		t.Errorf("Addr = %q, want the announced address", got)
	}
	if n := lg.count("restarting in"); n != 0 {
		t.Errorf("clean exit logged %d restarts", n)
	}
}

// TestProcCrashLoopGivesUp pins the one restart rule for a child that
// keeps crashing: the first crash restarts at once, the second waits
// backoff, each later one twice the last, up to backoffMax, and the
// crashLoops-th crash ends supervision.
func TestProcCrashLoopGivesUp(t *testing.T) {
	var lg procLog
	p := startProc(procConfig{
		Path: "/bin/sh",
		Args: []string{script(t, `exit 1`)},
		Logf: lg.logf,
		timing: &procTiming{backoff: time.Millisecond, backoffMax: 2 * time.Millisecond,
			crashWindow: time.Minute, crashLoops: 4},
	})
	exit := p.Wait()
	if exit.Code != 1 || !exit.CrashLoop {
		t.Errorf("exit = %+v, want code 1 with CrashLoop", exit)
	}
	if exit.Restarts != 3 {
		t.Errorf("Restarts = %d, want 3 (fourth crash gives up)", exit.Restarts)
	}
	if n := lg.count("crash loop: 4 consecutive"); n != 1 {
		t.Errorf("crash-loop log appeared %d times, want 1", n)
	}
	var delays []string
	for _, l := range lg.lines {
		if _, d, ok := strings.Cut(l, "restarting in "); ok {
			delays = append(delays, d)
		}
	}
	if got, want := strings.Join(delays, " "), "0s 1ms 2ms"; got != want {
		t.Errorf("restart delays = %s, want %s", got, want)
	}
}

// TestProcFirstCrashRestartsAtOnce: a child that crashes once is started
// again without waiting backoff. The backoff is a minute and waitFor gives
// up after 10 s, so the old first-crash wait cannot pass unnoticed.
func TestProcFirstCrashRestartsAtOnce(t *testing.T) {
	marker := filepath.Join(t.TempDir(), "crashed")
	var mu sync.Mutex
	var addrs []string
	p := startProc(procConfig{
		Path: "/bin/sh",
		Args: []string{script(t, fmt.Sprintf(`if [ -e '%[1]s' ]; then
	echo "analyzer listening on pid-$$"; exec sleep 60
fi
touch '%[1]s'; echo "analyzer listening on pid-$$"; exit 1
`, marker))},
		OnAnnounce: func(addr string, _ int) {
			mu.Lock()
			defer mu.Unlock()
			addrs = append(addrs, addr)
		},
		timing: &procTiming{backoff: time.Minute, backoffMax: time.Minute,
			crashWindow: time.Minute, crashLoops: 2},
	})
	waitFor(t, "second incarnation ready", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(addrs) == 2 && p.Ready() == nil && p.Addr() == addrs[1]
	})
	mu.Lock()
	first, second := addrs[0], addrs[1]
	mu.Unlock()
	if first == second {
		t.Errorf("both incarnations announced %q, want a new address", first)
	}
	p.Terminate(syscall.SIGKILL)
	if exit := p.Wait(); exit.CrashLoop || exit.Restarts != 1 {
		t.Errorf("exit = %+v, want 1 restart and no crash loop", exit)
	}
}

func TestProcKillRestartsImmediately(t *testing.T) {
	var lg procLog
	p := startProc(procConfig{
		Path: "/bin/sh",
		Args: []string{script(t, `echo "analyzer listening on pid-$$"; exec sleep 60`)},
		Logf: lg.logf,
		// Counted as crashes, the second kill would end supervision.
		timing: &procTiming{backoff: time.Second, backoffMax: time.Second,
			crashWindow: time.Minute, crashLoops: 2},
	})
	if err := p.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	for i := 0; i < 3; i++ {
		prev := p.Addr()
		p.Kill()
		waitFor(t, fmt.Sprintf("kill %d: child back", i), func() bool {
			return p.Ready() == nil && p.Addr() != prev
		})
	}
	if n := lg.count("crash loop") + lg.count("restarting in"); n != 0 {
		t.Errorf("operator kills were handled as crashes (%d log lines)", n)
	}
	p.Terminate(syscall.SIGKILL)
	if exit := p.Wait(); exit.CrashLoop || exit.Restarts != 3 {
		t.Errorf("exit = %+v, want 3 restarts and no crash loop", exit)
	}
}

// TestProcNotReadyDuringBackoff is the dead-incarnation fix: once a child
// that announced has exited, Ready must fail until the next incarnation
// announces, and a Kill aimed into that gap must not mark the next
// incarnation as killed. Both are checked from Logf, which the supervisor
// calls after the wait returns and before it sleeps, so no timing is
// involved.
func TestProcNotReadyDuringBackoff(t *testing.T) {
	started := make(chan *Proc, 1) // hands p to the supervisor goroutine
	var inBackoff []error
	logf := func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "restarting in") {
			p := <-started
			started <- p
			inBackoff = append(inBackoff, p.Ready())
			p.Kill() // no child to kill: must be a no-op
		}
	}
	p := startProc(procConfig{
		Path: "/bin/sh",
		Args: []string{script(t, `echo "analyzer listening on pid-$$"; exit 1`)},
		Logf: logf,
		timing: &procTiming{backoff: 500 * time.Millisecond, backoffMax: time.Second,
			crashWindow: time.Minute, crashLoops: 2},
	})
	started <- p
	exit := p.Wait()
	if len(inBackoff) != 1 {
		t.Fatalf("%d backoffs logged, want 1", len(inBackoff))
	}
	if inBackoff[0] == nil {
		t.Errorf("Ready() = nil during the crash backoff: the dead incarnation reported ready")
	}
	// A Kill that leaked onto the second incarnation would turn its crash
	// into an operator kill: an immediate third start, Restarts 2.
	if !exit.CrashLoop || exit.Restarts != 1 {
		t.Errorf("exit = %+v, want a crash loop after 1 restart", exit)
	}
}

func TestProcHoldParksUntilTerminate(t *testing.T) {
	p := startProc(procConfig{
		Path:   "/bin/sh",
		Args:   []string{script(t, `echo "analyzer listening on pid-$$"; exec sleep 60`)},
		timing: fast(),
	})
	if err := p.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	p.Hold()
	waitFor(t, "held child gone", func() bool { return p.Pid() == 0 })
	time.Sleep(100 * time.Millisecond) //lint:ignore nosystime giving a buggy restart time to happen
	if pid := p.Pid(); pid != 0 || p.Ready() == nil {
		t.Fatalf("held proc restarted (pid %d)", pid)
	}
	p.Terminate(syscall.SIGTERM)
	if exit := p.Wait(); exit.Restarts != 0 || exit.CrashLoop {
		t.Errorf("exit = %+v, want supervision ended with no restart", exit)
	}
}

// TestProcTerminateBeforeChildStarts: a Terminate that lands before the
// supervisor has made its first child current (Fleet.Start's error path
// closes shards that may still be starting) must still reach that child;
// otherwise Wait blocks until the child exits on its own.
func TestProcTerminateBeforeChildStarts(t *testing.T) {
	p := startProc(procConfig{
		Path:   "/bin/sh",
		Args:   []string{script(t, `exec sleep 60`)},
		timing: fast(),
	})
	p.Terminate(syscall.SIGTERM)
	done := make(chan procExit, 1)
	go func() { done <- p.Wait() }()
	select {
	case exit := <-done:
		if exit.CrashLoop || exit.Restarts != 0 {
			t.Errorf("exit = %+v, want supervision ended by the operator", exit)
		}
	case <-time.After(10 * time.Second): //lint:ignore nosystime test deadline
		t.Fatal("Terminate before the first child started did not end supervision")
	}
}

func TestRelistenArgs(t *testing.T) {
	args := []string{"-listen", "127.0.0.1:0", "-v", "-listen", "0.0.0.0:0"}
	got := relistenArgs(args, "127.0.0.1:7391")
	want := []string{"-listen", "127.0.0.1:7391", "-v", "-listen", "127.0.0.1:7391"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("relistenArgs = %v, want %v", got, want)
		}
	}
	if args[1] != "127.0.0.1:0" {
		t.Errorf("relistenArgs mutated its input")
	}
	if out := relistenArgs(args, ""); &out[0] != &args[0] {
		t.Errorf("no address yet should return the input unchanged")
	}
}
