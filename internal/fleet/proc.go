// Package fleet runs the sharded diagnosis tier: a supervisor that keeps
// shard daemons alive through crashes (Proc), a consistent-hash router
// that fans the seq/ack ingest protocol out across them (Router), and the
// scatter-gather drain that merges per-shard state into one diagnosis
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

// ProcConfig describes one supervised child process.
type ProcConfig struct {
	// Path and Args are the child's command line. Path is required.
	Path string
	Args []string
	// AnnouncePrefix marks the child's readiness line on stdout; the text
	// after the prefix is the learned address (e.g. "analyzer listening on ").
	// Empty disables announce tracking (the child is considered ready as
	// soon as it starts).
	AnnouncePrefix string
	// RelistenFlag, when non-empty, names the command-line flag whose value
	// is rewritten to the learned address before each restart (typically
	// "-listen"): a child first bound to a :0 wildcard rebinds its concrete
	// port, so peers holding the announced address survive the restart.
	RelistenFlag string

	// Backoff is the first restart delay; it doubles per crash up to
	// BackoffMax (defaults 200ms and 5s).
	Backoff    time.Duration
	BackoffMax time.Duration
	// CrashWindow classifies an exit: a child living shorter than this
	// counts toward the crash loop (default 2s).
	CrashWindow time.Duration
	// CrashLoops gives up after this many consecutive short-lived crashes
	// (default 5).
	CrashLoops int
	// HealthyAfter is the uptime that forgives earlier crashes: the
	// consecutive-crash counter resets only once a child has lived this
	// long (default: CrashWindow). A child that dies after CrashWindow but
	// before HealthyAfter neither increments nor resets the counter — a
	// daemon that limps for a few seconds between crashes is still
	// crash-looping, it is just slow about it.
	HealthyAfter time.Duration

	// Stdout receives every child stdout line (announce lines included);
	// nil discards. Stderr is handed to the child directly; nil discards.
	Stdout io.Writer
	Stderr io.Writer
	// Logf receives supervisor events ("child exited …; restarting in …",
	// "crash loop: …"); nil discards.
	Logf func(format string, args ...any)
	// OnAnnounce is called with the learned address and the child's pid
	// after every announce line (so a router can re-point at a restarted
	// shard, and a harness can aim signals at the right incarnation).
	// Called from the stdout-scanning goroutine; keep it fast.
	OnAnnounce func(addr string, pid int)
}

func (c *ProcConfig) defaults() {
	if c.Backoff <= 0 {
		c.Backoff = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.CrashWindow <= 0 {
		c.CrashWindow = 2 * time.Second
	}
	if c.CrashLoops <= 0 {
		c.CrashLoops = 5
	}
	if c.HealthyAfter < c.CrashWindow {
		c.HealthyAfter = c.CrashWindow
	}
}

// ProcExit is the final verdict of a supervision.
type ProcExit struct {
	// Code is the exit code to surface (the child's on a clean or
	// signalled end, 1 on a crash loop or a start failure).
	Code int
	// CrashLoop reports that supervision gave up on consecutive crashes.
	CrashLoop bool
	// Restarts counts how many times the child was restarted.
	Restarts int
}

// Proc supervises one child process: it restarts crashes with exponential
// backoff, detects crash loops, captures the child's announce line, and
// exposes kill/hold/terminate controls for chaos harnesses. All methods
// are safe for concurrent use.
type Proc struct {
	cfg ProcConfig

	mu        sync.Mutex
	cmd       *exec.Cmd
	addr      string
	announced bool // current child has announced
	restarts  int
	killed    bool // current child was killed by Kill/Hold, not a crash
	holding   bool
	termSig   os.Signal

	release chan struct{} // wakes a held loop
	termCh  chan struct{} // closed once by Terminate
	termOne sync.Once
	ready   chan struct{} // closed on the first announce ever
	readyOn sync.Once
	done    chan struct{}
	exit    ProcExit
}

// StartProc launches the child under supervision.
func StartProc(cfg ProcConfig) (*Proc, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("fleet: ProcConfig.Path is required")
	}
	cfg.defaults()
	p := &Proc{
		cfg:     cfg,
		release: make(chan struct{}, 1),
		termCh:  make(chan struct{}),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go p.supervise()
	return p, nil
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

// Restarts returns how many times the child has been restarted so far.
func (p *Proc) Restarts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restarts
}

// Ready returns nil once the current child incarnation has announced; a
// child mid-restart (or one that never announces) reports an error. With
// no AnnouncePrefix a running child is always ready.
func (p *Proc) Ready() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.done:
		return fmt.Errorf("fleet: supervision ended (exit %d)", p.exit.Code)
	default:
	}
	if p.cfg.AnnouncePrefix == "" {
		return nil
	}
	if !p.announced {
		return fmt.Errorf("fleet: child has not announced readiness")
	}
	return nil
}

// WaitReady blocks until the first announce or the timeout.
func (p *Proc) WaitReady(timeout time.Duration) error {
	if p.cfg.AnnouncePrefix == "" {
		return nil
	}
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
// harness wants the recovery, not the backoff.
func (p *Proc) Kill() {
	p.mu.Lock()
	p.killed = true
	p.mu.Unlock()
	p.signalChild(os.Kill)
}

// Hold SIGKILLs the current child and parks the supervisor: no restart
// until Release (or Terminate). This is the "shard stays down" half of the
// degraded-fleet contract.
func (p *Proc) Hold() {
	p.mu.Lock()
	p.holding = true
	p.killed = true
	p.mu.Unlock()
	p.signalChild(os.Kill)
}

// Release un-parks a held supervisor; the child restarts immediately.
func (p *Proc) Release() {
	p.mu.Lock()
	p.holding = false
	p.mu.Unlock()
	select {
	case p.release <- struct{}{}:
	default:
	}
}

// Terminate forwards sig to the child and ends supervision with the
// child's own exit code. Safe to call more than once.
func (p *Proc) Terminate(sig os.Signal) {
	p.mu.Lock()
	p.termSig = sig
	p.mu.Unlock()
	p.termOne.Do(func() { close(p.termCh) })
	p.signalChild(sig)
}

// Wait blocks until supervision ends and returns its verdict.
func (p *Proc) Wait() ProcExit {
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exit
}

func (p *Proc) signalChild(sig os.Signal) {
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		_ = cmd.Process.Signal(sig) // already-dead children are fine
	}
}

func (p *Proc) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// relistenArgs rewrites the value following cfg.RelistenFlag to the
// learned address, so a restarted child rebinds the port it announced.
func relistenArgs(args []string, flag, addr string) []string {
	if flag == "" || addr == "" {
		return args
	}
	out := append([]string(nil), args...)
	for i := 0; i < len(out)-1; i++ {
		if out[i] == flag {
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
	args := relistenArgs(p.cfg.Args, p.cfg.RelistenFlag, p.addr)
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
	p.mu.Unlock()
	waitCh := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			line := sc.Text()
			if p.cfg.AnnouncePrefix != "" {
				if a, ok := strings.CutPrefix(line, p.cfg.AnnouncePrefix); ok {
					p.mu.Lock()
					p.addr = a
					p.announced = true
					p.mu.Unlock()
					p.readyOn.Do(func() { close(p.ready) })
					if p.cfg.OnAnnounce != nil {
						p.cfg.OnAnnounce(a, cmd.Process.Pid)
					}
				}
			}
			if p.cfg.Stdout != nil {
				_, _ = fmt.Fprintln(p.cfg.Stdout, line) // best-effort relay of child output
			}
		}
		waitCh <- cmd.Wait()
	}()
	return waitCh, nil
}

// finish records the verdict and wakes every Wait.
func (p *Proc) finish(exit ProcExit) {
	p.mu.Lock()
	exit.Restarts = p.restarts
	p.exit = exit
	p.cmd = nil
	p.mu.Unlock()
	close(p.done)
}

// supervise is the restart loop. It mirrors the contract of the original
// `vedranalyzerd supervise` subcommand (clean exit ends supervision,
// crashes restart with backoff, a crash loop gives up) and adds the
// HealthyAfter distinction plus the kill/hold/terminate controls.
func (p *Proc) supervise() {
	crashes := 0
	delay := p.cfg.Backoff
	for {
		//lint:ignore nosystime measuring a real child's uptime for crash-loop classification
		start := time.Now()
		waitCh, err := p.startChild()
		if err != nil {
			p.logf("starting child: %v", err)
			p.finish(ProcExit{Code: 1})
			return
		}

		var werr error
		select {
		case <-p.termCh:
			// Terminate already signalled the child; pass its verdict
			// through — supervision ends with the operator's intent.
			werr = <-waitCh
			p.finish(ProcExit{Code: exitCode(werr)})
			return
		case werr = <-waitCh:
		}
		//lint:ignore nosystime measuring a real child's uptime for crash-loop classification
		lived := time.Since(start)

		p.mu.Lock()
		holding := p.holding
		killed := p.killed
		p.killed = false
		terminating := p.termSig != nil
		p.mu.Unlock()
		if terminating {
			p.finish(ProcExit{Code: exitCode(werr)})
			return
		}
		if werr == nil {
			p.finish(ProcExit{Code: 0}) // clean exit: the child is done
			return
		}
		if holding {
			// Parked by Hold: the kill was ours, so it says nothing about
			// the child's health. Wait for Release or Terminate.
			select {
			case <-p.release:
			case <-p.termCh:
				p.finish(ProcExit{Code: exitCode(werr)})
				return
			}
			p.bumpRestarts()
			continue
		}
		if killed {
			// An operator-driven Kill: restart immediately. It says nothing
			// about the child's health, so it neither feeds nor forgives the
			// crash-loop counter.
			p.bumpRestarts()
			continue
		}
		switch {
		case lived < p.cfg.CrashWindow:
			crashes++
			if crashes >= p.cfg.CrashLoops {
				p.logf("crash loop: %d consecutive exits within %s; giving up",
					crashes, p.cfg.CrashWindow)
				p.finish(ProcExit{Code: 1, CrashLoop: true})
				return
			}
		case lived >= p.cfg.HealthyAfter:
			// Only genuinely healthy uptime forgives earlier crashes; an
			// exit between CrashWindow and HealthyAfter leaves the counter
			// where it was.
			crashes = 0
			delay = p.cfg.Backoff
		}
		p.logf("child exited (%v) after %s; restarting in %s",
			werr, lived.Round(time.Millisecond), delay)
		select {
		case <-p.termCh:
			p.finish(ProcExit{Code: exitCode(werr)})
			return
		//lint:ignore nosystime restart backoff pacing for a real child process
		case <-time.After(delay):
		}
		delay *= 2
		if delay > p.cfg.BackoffMax {
			delay = p.cfg.BackoffMax
		}
		p.bumpRestarts()
	}
}

func (p *Proc) bumpRestarts() {
	p.mu.Lock()
	p.restarts++
	p.mu.Unlock()
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
