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

func TestProcCleanExitEndsSupervision(t *testing.T) {
	var lg procLog
	p, err := StartProc(ProcConfig{
		Path:           "/bin/sh",
		Args:           []string{script(t, `echo "svc listening on 127.0.0.1:9"; exit 0`)},
		AnnouncePrefix: "svc listening on ",
		Backoff:        time.Millisecond,
		Logf:           lg.logf,
	})
	if err != nil {
		t.Fatalf("StartProc: %v", err)
	}
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

func TestProcCrashLoopGivesUp(t *testing.T) {
	var lg procLog
	p, err := StartProc(ProcConfig{
		Path:        "/bin/sh",
		Args:        []string{script(t, `exit 1`)},
		Backoff:     time.Millisecond,
		CrashWindow: time.Second,
		CrashLoops:  3,
		Logf:        lg.logf,
	})
	if err != nil {
		t.Fatalf("StartProc: %v", err)
	}
	exit := p.Wait()
	if exit.Code != 1 || !exit.CrashLoop {
		t.Errorf("exit = %+v, want code 1 with CrashLoop", exit)
	}
	if exit.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2 (third crash gives up)", exit.Restarts)
	}
	if n := lg.count("crash loop: 3 consecutive"); n != 1 {
		t.Errorf("crash-loop log appeared %d times, want 1", n)
	}
	if n := lg.count("restarting in"); n != 2 {
		t.Errorf("restart log appeared %d times, want 2", n)
	}
}

// healthyScript crashes immediately on every run except the second, which
// lives for 500ms — longer than the crash window but possibly shorter
// than HealthyAfter. The run count lands in the state file.
func healthyScript(t *testing.T) (path, state string) {
	t.Helper()
	state = filepath.Join(t.TempDir(), "runs")
	path = script(t, `
f="$1"
n=$(cat "$f" 2>/dev/null || echo 0)
echo $((n+1)) > "$f"
if [ "$n" -eq 1 ]; then sleep 0.5; fi
exit 1
`)
	return path, state
}

func runHealthy(t *testing.T, healthyAfter time.Duration) (runs int, exit ProcExit) {
	t.Helper()
	path, state := healthyScript(t)
	p, err := StartProc(ProcConfig{
		Path:         "/bin/sh",
		Args:         []string{path, state},
		Backoff:      time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		CrashWindow:  300 * time.Millisecond,
		CrashLoops:   3,
		HealthyAfter: healthyAfter,
	})
	if err != nil {
		t.Fatalf("StartProc: %v", err)
	}
	exit = p.Wait()
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatalf("read state: %v", err)
	}
	if _, err := fmt.Sscanf(string(raw), "%d", &runs); err != nil {
		t.Fatalf("parse state %q: %v", raw, err)
	}
	return runs, exit
}

// TestProcHealthyAfterAccumulates is the crash-loop-counter fix: a child
// that outlives the crash window but not HealthyAfter must NOT be
// forgiven — its earlier crashes still count, so the loop gives up after
// 3 fast crashes total (runs 1, 3, 4; run 2 is the 500ms limper).
func TestProcHealthyAfterAccumulates(t *testing.T) {
	runs, exit := runHealthy(t, time.Hour)
	if !exit.CrashLoop {
		t.Fatalf("exit = %+v, want a crash loop", exit)
	}
	if runs != 4 {
		t.Errorf("child ran %d times, want 4 (limping run must not reset the counter)", runs)
	}
}

// TestProcHealthyAfterResets is the companion: when the limping run DOES
// clear HealthyAfter, the counter resets and three more fast crashes are
// needed before giving up (5 runs total).
func TestProcHealthyAfterResets(t *testing.T) {
	runs, exit := runHealthy(t, 400*time.Millisecond)
	if !exit.CrashLoop {
		t.Fatalf("exit = %+v, want a crash loop", exit)
	}
	if runs != 5 {
		t.Errorf("child ran %d times, want 5 (healthy run resets the counter)", runs)
	}
}

func TestProcKillRestartsImmediately(t *testing.T) {
	var lg procLog
	p, err := StartProc(ProcConfig{
		Path:           "/bin/sh",
		Args:           []string{script(t, `echo "svc listening on pid-$$"; exec sleep 60`)},
		AnnouncePrefix: "svc listening on ",
		Backoff:        time.Second, // a crash restart would be visibly slow
		CrashWindow:    time.Millisecond,
		CrashLoops:     2,
		Logf:           lg.logf,
	})
	if err != nil {
		t.Fatalf("StartProc: %v", err)
	}
	if err := p.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	first := p.Addr()
	for i := 0; i < 3; i++ {
		p.Kill()
		deadline := time.Now().Add(10 * time.Second) //lint:ignore nosystime test deadline
		for p.Restarts() != i+1 || p.Ready() != nil {
			if time.Now().After(deadline) { //lint:ignore nosystime test deadline
				t.Fatalf("kill %d: child not back after 10s (restarts=%d)", i, p.Restarts())
			}
			time.Sleep(5 * time.Millisecond) //lint:ignore nosystime polling a real child restart
		}
	}
	// Three kills with CrashLoops=2: operator kills must not have fed the
	// crash-loop counter or waited out the 1s backoff.
	if got := p.Addr(); got == first {
		t.Errorf("Addr unchanged after restarts (announce not re-learned)")
	}
	if n := lg.count("crash loop"); n != 0 {
		t.Errorf("operator kills tripped the crash-loop detector")
	}
	p.Terminate(syscall.SIGKILL)
	p.Wait()
}

// TestProcNotReadyDuringBackoff is the dead-incarnation fix: once a child
// that announced has exited, Ready must fail through the whole crash
// backoff, and a Kill aimed into that gap must not mark the next
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
	p, err := StartProc(ProcConfig{
		Path:           "/bin/sh",
		Args:           []string{script(t, `echo "svc listening on pid-$$"; exit 1`)},
		AnnouncePrefix: "svc listening on ",
		Backoff:        500 * time.Millisecond,
		CrashWindow:    time.Minute,
		CrashLoops:     2,
		Logf:           logf,
	})
	if err != nil {
		t.Fatalf("StartProc: %v", err)
	}
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

func TestProcHoldParksUntilRelease(t *testing.T) {
	p, err := StartProc(ProcConfig{
		Path:           "/bin/sh",
		Args:           []string{script(t, `echo "svc listening on pid-$$"; exec sleep 60`)},
		AnnouncePrefix: "svc listening on ",
		Backoff:        time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartProc: %v", err)
	}
	if err := p.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	held := p.Addr()
	p.Hold()
	time.Sleep(100 * time.Millisecond) //lint:ignore nosystime giving a buggy restart time to happen
	if got := p.Restarts(); got != 0 {
		t.Fatalf("held proc restarted %d times", got)
	}
	p.Release()
	deadline := time.Now().Add(10 * time.Second) //lint:ignore nosystime test deadline
	for p.Restarts() != 1 || p.Ready() != nil || p.Addr() == held {
		if time.Now().After(deadline) { //lint:ignore nosystime test deadline
			t.Fatalf("released proc not back after 10s")
		}
		time.Sleep(5 * time.Millisecond) //lint:ignore nosystime polling a real child restart
	}
	p.Terminate(syscall.SIGKILL)
	p.Wait()
}

func TestRelistenArgs(t *testing.T) {
	args := []string{"-listen", "127.0.0.1:0", "-v", "-listen", "0.0.0.0:0"}
	got := relistenArgs(args, "-listen", "127.0.0.1:7391")
	want := []string{"-listen", "127.0.0.1:7391", "-v", "-listen", "127.0.0.1:7391"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("relistenArgs = %v, want %v", got, want)
		}
	}
	if args[1] != "127.0.0.1:0" {
		t.Errorf("relistenArgs mutated its input")
	}
	if out := relistenArgs(args, "", "x"); &out[0] != &args[0] {
		t.Errorf("empty flag should return the input unchanged")
	}
}
