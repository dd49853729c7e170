package fleet

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

// Config assembles a diagnosis fleet: N shard daemons (each a supervised
// child process of the analyzer binary with its own WAL directory) behind
// one Router.
type Config struct {
	// BinPath is the vedranalyzerd binary the shard children run. Required.
	BinPath string
	// Shards is the fleet width (required, >= 1): the whole shard map.
	Shards int
	// Dir gives each shard a WAL under Dir/shard-<i>: a SIGKILLed shard
	// recovers its accepted messages from it on restart, and a drain
	// recovers a shard it cannot dump from it offline. Required.
	Dir string
	// Fsync ("always", "interval", "never") and SnapshotEvery are passed
	// through to each shard's -fsync / -snapshot-every flags; zero values
	// keep the daemon defaults.
	Fsync         string
	SnapshotEvery int
	// Listen is the router's bind address (default 127.0.0.1:0).
	Listen string
	// HoldShard, when >= 0, holds that shard down at Drain time, so the
	// drain recovers it offline from its WAL: the operator-facing drill
	// for "one shard is dead and will not come back before the report is
	// due".
	HoldShard int
	// OnShard, when set, observes every shard (re)announce: index, listen
	// address, pid. Called from the supervisor goroutine.
	OnShard func(i int, addr string, pid int)
	// Stderr receives the children's stderr (nil = discard). Log receives
	// supervisor and router notes; nil discards. Metrics publishes router
	// counters.
	Stderr  io.Writer
	Log     *slog.Logger
	Metrics *obs.Registry
}

// readyTimeout bounds each shard's first announce.
const readyTimeout = 30 * time.Second

// Merged is a fleet drain's result: every shard's state merged, and its
// diagnosis.
type Merged struct {
	// Bundle is the merged telemetry in canonical order.
	Bundle *wire.Bundle
	// Stats describes the merge.
	Stats wire.MergeStats
	// Diagnosis is the analysis of Bundle.
	Diagnosis *diagnose.Diagnosis
}

// Fleet is a running sharded analyzer: router + supervised shard
// processes, as many as Config.Shards, fixed once Start returns. The
// contract it exists to keep: SIGKILL any single shard mid-ingest and,
// once its supervisor restarts it, the drained merged diagnosis is
// byte-identical to an unbroken run's.
type Fleet struct {
	cfg    Config
	router *Router
	procs  []*Proc
}

// Start launches the fleet: router first (so shard announces have
// somewhere to land), then the shard children, then a readiness wait on
// every shard's first announce.
func Start(cfg Config) (*Fleet, error) {
	if cfg.BinPath == "" {
		return nil, fmt.Errorf("fleet: BinPath is required")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: Shards = %d, want >= 1", cfg.Shards)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: Dir is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Log == nil {
		cfg.Log = obs.NopLogger()
	}
	router, err := StartRouter(cfg.Listen, RouterConfig{
		Map:     wire.ShardMap{Shards: cfg.Shards},
		Log:     cfg.Log,
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, router: router}
	for i := 0; i < cfg.Shards; i++ {
		p, err := f.startShard(i)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.procs = append(f.procs, p)
	}
	for i, p := range f.procs {
		if err := p.WaitReady(readyTimeout); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: shard %d never became ready: %w", i, err)
		}
	}
	return f, nil
}

// shardDir is shard i's WAL directory under dir.
func shardDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d", i)) }

// shardArgs builds shard i's command line.
func shardArgs(cfg *Config, i int) ([]string, error) {
	dir := shardDir(cfg.Dir, i)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: shard %d wal dir: %w", i, err)
	}
	args := []string{
		"-listen", "127.0.0.1:0",
		"-shard-index", strconv.Itoa(i),
		"-shard-count", strconv.Itoa(cfg.Shards),
		"-wal-dir", dir,
	}
	if cfg.Fsync != "" {
		args = append(args, "-fsync", cfg.Fsync)
	}
	if cfg.SnapshotEvery > 0 {
		args = append(args, "-snapshot-every", strconv.Itoa(cfg.SnapshotEvery))
	}
	return args, nil
}

// startShard launches one supervised shard child.
func (f *Fleet) startShard(i int) (*Proc, error) {
	args, err := shardArgs(&f.cfg, i)
	if err != nil {
		return nil, err
	}
	idx := i
	log := f.cfg.Log
	return startProc(procConfig{
		Path:   f.cfg.BinPath,
		Args:   args,
		Stderr: f.cfg.Stderr,
		Logf: func(format string, args ...any) {
			log.Info(fmt.Sprintf("shard %d: "+format, append([]any{idx}, args...)...))
		},
		OnAnnounce: func(addr string, pid int) {
			f.router.SetShardAddr(idx, addr)
			if f.cfg.OnShard != nil {
				f.cfg.OnShard(idx, addr, pid)
			}
		},
	}), nil
}

// Addr returns the router's client-facing listen address.
func (f *Fleet) Addr() string { return f.router.Addr() }

// Router exposes the ingest tier (tests and the obs registry peek at it).
func (f *Fleet) Router() *Router { return f.router }

// proc returns shard i's supervisor (nil when i is out of range).
func (f *Fleet) proc(i int) *Proc {
	if i < 0 || i >= len(f.procs) {
		return nil
	}
	return f.procs[i]
}

// Ready reports whether every shard has announced and is being supervised.
func (f *Fleet) Ready() error {
	for i, p := range f.procs {
		if err := p.Ready(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Pid returns shard i's current child pid (-1 when not running).
func (f *Fleet) Pid(i int) int {
	p := f.proc(i)
	if p == nil {
		return -1
	}
	return p.Pid()
}

// KillShard SIGKILLs shard i's child; the supervisor restarts it
// immediately and the router learns the new address from its announce.
func (f *Fleet) KillShard(i int) error {
	p := f.proc(i)
	if p == nil {
		return fmt.Errorf("fleet: no shard %d", i)
	}
	p.Kill()
	return nil
}

// Drain finishes the fleet run: stop accepting clients, dump every shard
// once, signal each child to exit once its dump is in, merge and diagnose
// while they write their final snapshots, and reap them. A shard that
// cannot be dumped (held down, mid-restart, dead past its crash-loop
// budget, or too slow to answer) is reaped first and its state rebuilt
// offline from its WAL directory by the rule its own restart would apply:
// a shard acks a message only after the WAL holds it, so the merge is
// exact either way. A shard whose directory cannot be recovered (an I/O
// error, a corrupt snapshot) fails the drain.
func (f *Fleet) Drain(scope *obs.Scope) (*Merged, error) {
	if p := f.proc(f.cfg.HoldShard); p != nil {
		// Hold the shard down before gathering: the offline-recovery drill.
		p.Hold()
	}
	f.router.Stop() // no new ingest, every forwarded line answered
	defer f.Close()

	// Gather every shard at once, each dump on a fresh connection — most
	// of a drain is moving shard state as JSON — and merge in shard-index
	// order, so the merge input does not depend on which shard finished
	// first. A shard whose dump is in exits while the other dumps, the
	// merge and the analysis go on.
	states := make([]*wire.ShardState, f.cfg.Shards)
	errs := make([]error, f.cfg.Shards)
	var wg sync.WaitGroup
	for i, p := range f.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[i], errs[i] = f.router.DumpShard(i)
			p.Terminate(syscall.SIGTERM)
			if errs[i] == nil {
				return
			}
			f.cfg.Log.Warn("shard dump unavailable; recovering it from its WAL", "shard", i, "err", errs[i])
			p.Wait() // the directory is the shard's until its last incarnation exits
			dir := shardDir(f.cfg.Dir, i)
			state, _, err := analyzerd.RecoverShard(dir, analyzerd.ShardConfig{Map: wire.ShardMap{Shards: f.cfg.Shards}, Index: i})
			if err != nil {
				errs[i] = fmt.Errorf("fleet: shard %d could not be dumped (%v) or recovered from %s: %w", i, errs[i], dir, err)
				return
			}
			states[i], errs[i] = state, nil
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	bundle, stats := wire.MergeShardStates(states)
	return &Merged{Bundle: bundle, Stats: stats, Diagnosis: bundle.AnalyzeObs(scope)}, nil
}

// Close terminates every shard child and the router. Safe to call more
// than once and after Drain.
func (f *Fleet) Close() {
	for _, p := range f.procs {
		p.Terminate(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		p.Wait()
	}
	if f.router != nil {
		f.router.Close()
	}
}
