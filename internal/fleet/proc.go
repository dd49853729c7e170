// Package fleet runs the sharded diagnosis tier: a supervisor that keeps
// shard daemons alive through crashes (Proc), a consistent-hash router
// that places each client on the shard that owns it, after which the
// client speaks the seq/ack ingest protocol to that shard directly
// (Router), and the drain that merges per-shard state into one diagnosis
// (Fleet). The design target is the kill-any-shard contract: SIGKILL any
// single shard mid-ingest, let the supervisor restart it onto its own WAL,
// and the merged diagnosis is byte-identical to a run that never crashed.
//
// This package orchestrates real processes and real TCP connections, so —
// unlike the simulation kernel — it legitimately reads the wall clock for
// backoff pacing and I/O deadlines. Every such read is individually
// sanctioned; nothing here feeds simulated time.
package fleet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// announcePrefix marks a shard's readiness line on stdout; the text after
// it is the address the shard listens on.
const announcePrefix = "analyzer listening on "

// relistenFlag is the shard flag rewritten to the announced address before
// each restart: a shard first bound to a :0 wildcard rebinds its concrete
// port, so peers holding that address survive the restart.
const relistenFlag = "-listen"

// procTiming is the restart rule's clock.
type procTiming struct {
	backoff     time.Duration // delay after the second consecutive crash, doubling after
	backoffMax  time.Duration // cap on the doubling delay
	crashWindow time.Duration // an exit sooner than this after start is a crash
	crashLoops  int           // this many consecutive crashes end supervision
}

// shardTiming is the timing every supervised shard runs on.
var shardTiming = procTiming{
	backoff:     200 * time.Millisecond,
	backoffMax:  5 * time.Second,
	crashWindow: 2 * time.Second,
	crashLoops:  5,
}

// procConfig describes one supervised child process.
type procConfig struct {
	// Path and Args are the child's command line.
	Path string
	Args []string
	// Stderr is handed to the child directly; nil discards.
	Stderr io.Writer
	// Logf receives supervisor events ("child exited …; restarting in …",
	// "crash loop: …"); nil discards.
	Logf func(format string, args ...any)
	// OnAnnounce is called with the learned address and the child's pid
	// after every announce line (so a router can re-point at a restarted
	// shard, and a harness can aim signals at the right incarnation).
	// Called from the stdout-scanning goroutine; keep it fast.
	OnAnnounce func(addr string, pid int)

	// timing, when set (in-package tests only), replaces shardTiming.
	timing *procTiming
}

// procExit is the final verdict of a supervision.
type procExit struct {
	// Code is the exit code to surface (the child's on a clean or
	// signalled end, 1 on a crash loop or a start failure).
	Code int
	// CrashLoop reports that supervision gave up on consecutive crashes.
	CrashLoop bool
	// Restarts counts how many times the child was restarted.
	Restarts int
}

// Proc supervises one child process: it restarts exits with backoff,
// detects crash loops, captures the child's announce line, and exposes
// kill/hold/terminate controls for chaos harnesses. All methods are safe
// for concurrent use.
type Proc struct {
	cfg procConfig

	mu        sync.Mutex
	cmd       *exec.Cmd
	addr      string
	announced bool // current child has announced
	restarts  int
	killed    bool // current child was killed by Kill/Hold, not a crash
	holding   bool
	termSig   os.Signal // set by the first Terminate

	termCh  chan struct{} // closed by the first Terminate
	ready   chan struct{} // closed on the first announce ever
	readyOn sync.Once
	done    chan struct{}
	exit    procExit
}

// startProc launches the child under supervision.
func startProc(cfg procConfig) *Proc {
	if cfg.timing == nil {
		cfg.timing = &shardTiming
	}
	p := &Proc{
		cfg:    cfg,
		termCh: make(chan struct{}),
		ready:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.supervise()
	return p
}

// Addr returns the last announced address ("" before the first announce).
func (p *Proc) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

// Pid returns the current child's process ID (0 when none is running).
func (p *Proc) Pid() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil || p.cmd.Process == nil {
		return 0
	}
	return p.cmd.Process.Pid
}

// Ready returns nil once the current child incarnation has announced; a
// child mid-restart reports an error.
func (p *Proc) Ready() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.done:
		return fmt.Errorf("fleet: supervision ended (exit %d)", p.exit.Code)
	default:
	}
	if !p.announced {
		return fmt.Errorf("fleet: child has not announced readiness")
	}
	return nil
}

// WaitReady blocks until the first announce or the timeout.
func (p *Proc) WaitReady(timeout time.Duration) error {
	select {
	case <-p.ready:
		return nil
	case <-p.done:
		return fmt.Errorf("fleet: supervision ended before the child announced")
	//lint:ignore nosystime bounding a real subprocess's startup, not simulated time
	case <-time.After(timeout):
		return fmt.Errorf("fleet: child did not announce within %s", timeout)
	}
}

// Kill SIGKILLs the current child. The supervisor restarts it immediately
// — an operator-driven kill is not a crash-loop signal, and the chaos
// harness wants the recovery, not the backoff. Between incarnations (a
// crash backoff, a restart in progress) there is no child and Kill does
// nothing: the next incarnation is not marked as killed.
func (p *Proc) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return
	}
	p.killed = true
	_ = p.cmd.Process.Signal(os.Kill) // a child that died meanwhile is fine
}

// Hold SIGKILLs the current child and parks the supervisor until
// Terminate: the "shard stays down" drill, which a fleet drain answers by
// recovering the shard offline from its WAL.
func (p *Proc) Hold() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.holding = true
	if p.cmd != nil {
		p.killed = true
		_ = p.cmd.Process.Signal(os.Kill)
	}
}

// Terminate forwards sig to the child and ends supervision with the
// child's own exit code. Safe to call more than once.
func (p *Proc) Terminate(sig os.Signal) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.termSig == nil {
		p.termSig = sig
		close(p.termCh)
	}
	if p.cmd != nil {
		_ = p.cmd.Process.Signal(sig) // already-dead children are fine
	}
}

// Wait blocks until supervision ends and returns its verdict.
func (p *Proc) Wait() procExit {
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exit
}

func (p *Proc) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// relistenArgs rewrites the value following relistenFlag to the learned
// address, so a restarted child rebinds the port it announced.
func relistenArgs(args []string, addr string) []string {
	if addr == "" {
		return args
	}
	out := append([]string(nil), args...)
	for i := 0; i < len(out)-1; i++ {
		if out[i] == relistenFlag {
			out[i+1] = addr
		}
	}
	return out
}

// startChild launches one incarnation, makes it the current child, and
// returns its wait channel. The stdout scanner feeds the wait: cmd.Wait is
// only called after the pipe drains, per the os/exec contract.
func (p *Proc) startChild() (<-chan error, error) {
	p.mu.Lock()
	args := relistenArgs(p.cfg.Args, p.addr)
	p.mu.Unlock()
	cmd := exec.Command(p.cfg.Path, args...)
	cmd.Stderr = p.cfg.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Before the scanner starts: set after it, announced = false could
	// land on top of this incarnation's own announce and leave it unready.
	p.mu.Lock()
	p.cmd = cmd
	p.announced = false
	if p.termSig != nil {
		// Terminate ran while no child was current: this one gets its
		// signal, or supervision would wait on it forever.
		_ = cmd.Process.Signal(p.termSig)
	}
	p.mu.Unlock()
	waitCh := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			a, ok := strings.CutPrefix(sc.Text(), announcePrefix)
			if !ok {
				continue
			}
			p.mu.Lock()
			p.addr = a
			p.announced = true
			p.mu.Unlock()
			p.readyOn.Do(func() { close(p.ready) })
			if p.cfg.OnAnnounce != nil {
				p.cfg.OnAnnounce(a, cmd.Process.Pid)
			}
		}
		waitCh <- cmd.Wait()
	}()
	return waitCh, nil
}

// finish records the verdict and wakes every Wait.
func (p *Proc) finish(exit procExit) {
	p.mu.Lock()
	exit.Restarts = p.restarts
	p.exit = exit
	p.cmd = nil
	p.mu.Unlock()
	close(p.done)
}

// supervise is the restart loop, and its one rule: Terminate or a clean
// exit ends supervision; Hold parks the loop until Terminate; a Kill
// restarts at once and is not counted; any other exit restarts after a
// delay set by n, the count of consecutive exits within crashWindow of
// their start (a longer life resets it to 0): no wait for n ≤ 1, so a
// shard killed from outside is back as fast as one killed through Kill,
// and min(backoffMax, backoff·2^(n−2)) for n ≥ 2. The crashLoops-th such
// exit ends supervision as a crash loop.
func (p *Proc) supervise() {
	crashes := 0
	for {
		//lint:ignore nosystime measuring a real child's uptime for crash-loop classification
		start := time.Now()
		waitCh, err := p.startChild()
		if err != nil {
			p.logf("starting child: %v", err)
			p.finish(procExit{Code: 1})
			return
		}

		var werr error
		select {
		case <-p.termCh:
			// Terminate already signalled the child; pass its verdict
			// through — supervision ends with the operator's intent.
			p.finish(procExit{Code: exitCode(<-waitCh)})
			return
		case werr = <-waitCh:
		}
		//lint:ignore nosystime measuring a real child's uptime for crash-loop classification
		lived := time.Since(start)

		// The incarnation is gone: until the next one starts and announces,
		// the child is neither ready nor a target for Kill.
		p.mu.Lock()
		p.cmd = nil
		p.announced = false
		holding := p.holding
		killed := p.killed
		p.killed = false
		terminating := p.termSig != nil
		p.mu.Unlock()
		if werr == nil || terminating {
			p.finish(procExit{Code: exitCode(werr)})
			return
		}
		if holding {
			<-p.termCh
			p.finish(procExit{Code: exitCode(werr)})
			return
		}
		if !killed {
			if lived < p.cfg.timing.crashWindow {
				crashes++
			} else {
				crashes = 0
			}
			if crashes >= p.cfg.timing.crashLoops {
				p.logf("crash loop: %d consecutive exits within %s; giving up",
					crashes, p.cfg.timing.crashWindow)
				p.finish(procExit{Code: 1, CrashLoop: true})
				return
			}
			var delay time.Duration
			if crashes > 1 {
				delay = min(p.cfg.timing.backoff<<(crashes-2), p.cfg.timing.backoffMax)
			}
			p.logf("child exited (%v) after %s; restarting in %s",
				werr, lived.Round(time.Millisecond), delay)
			select {
			case <-p.termCh:
				p.finish(procExit{Code: exitCode(werr)})
				return
			//lint:ignore nosystime restart backoff pacing for a real child process
			case <-time.After(delay):
			}
		}
		p.mu.Lock()
		p.restarts++
		p.mu.Unlock()
	}
}

// exitCode maps a cmd.Wait error to the code supervision surfaces.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() >= 0 {
		return ee.ExitCode()
	}
	return 1
}
