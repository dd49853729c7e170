package fleet

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
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
// child process of the analyzer binary with its own WAL directory) and one
// Router, the address clients are given, which places each of them on
// its shard.
type Config struct {
	// BinPath is the vedranalyzerd binary the shard children run. Required.
	BinPath string
	// Shards is the fleet width (required, >= 1): the whole shard map.
	Shards int
	// Dir gives each shard a WAL under Dir/shard-<i>: a SIGKILLed shard
	// recovers its accepted messages from it on restart, and a drain
	// rebuilds every shard's state from it once the shard has exited.
	// Required.
	Dir string
	// Fsync ("always", "interval", "never") and SnapshotEvery are passed
	// through to each shard's -fsync / -snapshot-every flags; zero values
	// keep the daemon defaults.
	Fsync         string
	SnapshotEvery int
	// Listen is the router's bind address (default 127.0.0.1:0). Every
	// shard binds an ephemeral port on the same host, and clients reach
	// their shards there.
	Listen string
	// HoldShard, when >= 0, SIGKILLs that shard at Drain time and keeps
	// it down, so the drain rebuilds it from a WAL with no final sync:
	// the operator-facing drill for "one shard is dead and will not come
	// back before the report is due".
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
	f := &Fleet{cfg: cfg}
	router, err := StartRouter(cfg.Listen, RouterConfig{
		Map:     wire.ShardMap{Shards: cfg.Shards},
		Log:     cfg.Log,
		Metrics: cfg.Metrics,
		reap:    f.reap,
	})
	if err != nil {
		return nil, err
	}
	f.router = router
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

// shardArgs builds shard i's command line. The shard binds on the
// router's listen host: a placement names the host a client reached the
// router on, so a client that reached the router can reach its shard.
func shardArgs(cfg *Config, i int) ([]string, error) {
	dir := shardDir(cfg.Dir, i)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: shard %d wal dir: %w", i, err)
	}
	host, _, err := net.SplitHostPort(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen address: %w", err)
	}
	args := []string{
		"-listen", net.JoinHostPort(host, "0"),
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

// Router exposes the placement tier (tests and the obs registry peek at it).
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

// Drain finishes the fleet run: stop ingest, reap every shard and rebuild
// its state from its directory, merge in shard order and diagnose. Every
// shard leaves the same kind of directory, its last periodic snapshot plus
// the WAL tail, whether SIGTERM stopped it (which syncs the WAL) or it was
// held down, crash-looped or mid-restart; a shard acks only what its WAL
// holds, so the rebuilt state is exactly what it accepted. A directory
// that cannot be recovered, or that holds another shard's clients, fails
// the drain.
func (f *Fleet) Drain(scope *obs.Scope) (*Merged, error) {
	if p := f.proc(f.cfg.HoldShard); p != nil {
		p.Hold()
	}
	f.router.Stop() // no new placements; a shard's SIGTERM applies and syncs what it was sent
	defer f.Close()

	// Shards exit and recover in parallel; the merge input is in shard
	// order, so it does not depend on which finished first.
	states := make([]*wire.ShardState, f.cfg.Shards)
	errs := make([]error, f.cfg.Shards)
	var wg sync.WaitGroup
	for i := range f.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[i], errs[i] = f.reap(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	bundle, stats := wire.MergeShardStates(states)
	return &Merged{Bundle: bundle, Stats: stats, Diagnosis: bundle.AnalyzeObs(scope)}, nil
}

// reap SIGTERMs shard i, waits for its last incarnation to exit (the
// directory is the shard's until then) and rebuilds it from the directory.
func (f *Fleet) reap(i int) (*wire.ShardState, error) {
	f.procs[i].Terminate(syscall.SIGTERM)
	f.procs[i].Wait()
	return recoverShard(shardDir(f.cfg.Dir, i), wire.ShardMap{Shards: f.cfg.Shards}, i)
}

// recoverShard rebuilds shard i of m from dir by the replay rule the
// shard's own restart applies. A shard checks ownership before it logs a
// line, so in a correctly assembled fleet nothing is dropped: a message of
// another shard's client (Reassigned) or one without its payload
// (Unreplayable) means dir was written under another map or by another
// writer, and merging what is left would silently lose it.
func recoverShard(dir string, m wire.ShardMap, i int) (*wire.ShardState, error) {
	state, st, err := analyzerd.RecoverShard(dir, analyzerd.ShardConfig{Map: m, Index: i})
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d could not be recovered from %s: %w", i, dir, err)
	}
	if st.Reassigned != 0 || st.Unreplayable != 0 {
		return nil, fmt.Errorf("fleet: shard %d's directory %s is not shard %d of %+v's: %d messages of other shards' clients, %d without their payload",
			i, dir, i, m, st.Reassigned, st.Unreplayable)
	}
	return state, nil
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
		f.router.Stop()
	}
}
