package fleet

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

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
	// Dir, when set, gives each shard a WAL under Dir/shard-<i> so a
	// SIGKILLed shard recovers its accepted messages on restart. Empty
	// disables durability (a killed shard loses its slice of the fleet).
	Dir string
	// Fsync ("always", "interval", "never") and SnapshotEvery are passed
	// through to each shard's -fsync / -snapshot-every flags when Dir is
	// set; zero values keep the daemon defaults.
	Fsync         string
	SnapshotEvery int
	// Listen is the router's bind address (default 127.0.0.1:0).
	Listen string
	// HoldShard, when >= 0, holds that shard down at Drain time — its dump
	// is skipped and the merged diagnosis is degraded instead of failed.
	// The operator-facing stand-in for "one shard is dead and will not
	// come back before the report is due".
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

// readyTimeout bounds each shard's first announce, and at drain time how
// long a restarting shard is waited for before its dump is given up on.
const readyTimeout = 30 * time.Second

// Merged is a fleet drain's result: the canonical merged bundle plus the
// coverage bookkeeping a degraded gather needs to be honest about.
type Merged struct {
	// Bundle is the merged telemetry in canonical order.
	Bundle *wire.Bundle
	// Stats describes the merge.
	Stats wire.MergeStats
	// Missing lists the shard indices whose dumps were unavailable.
	Missing []int
	// MissedRecords/MissedReports/MissedCFs count what the router saw the
	// missing shards acknowledge — the lower bound on what the merge lost.
	MissedRecords int
	MissedReports int
	MissedCFs     int
	// Diagnosis is the analysis of Bundle; when shards are missing it is
	// computed degraded, with Coverage and Confidence discounted by the
	// missed counts.
	Diagnosis *diagnose.Diagnosis
}

// Degraded reports whether the gather was incomplete.
func (m *Merged) Degraded() bool { return len(m.Missing) > 0 }

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

// shardArgs builds shard i's command line.
func shardArgs(cfg *Config, i int) ([]string, error) {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-shard-index", strconv.Itoa(i),
		"-shard-count", strconv.Itoa(cfg.Shards),
	}
	if cfg.Dir != "" {
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: shard %d wal dir: %w", i, err)
		}
		args = append(args, "-wal-dir", dir)
		if cfg.Fsync != "" {
			args = append(args, "-fsync", cfg.Fsync)
		}
		if cfg.SnapshotEvery > 0 {
			args = append(args, "-snapshot-every", strconv.Itoa(cfg.SnapshotEvery))
		}
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

// Drain finishes the fleet run: stop accepting clients, gather every
// shard's dump, signal each child to exit once its dump is in, merge and
// diagnose while they write their final snapshots, and reap them. A shard
// that cannot be dumped (held down, or dead past its crash-loop budget)
// degrades the result instead of failing it: the router's acked tallies
// for that shard become the missed-input counts that discount Coverage
// and Confidence.
func (f *Fleet) Drain(scope *obs.Scope) (*Merged, error) {
	if p := f.proc(f.cfg.HoldShard); f.cfg.HoldShard >= 0 && p != nil {
		// Hold the shard down before gathering: the degraded-drain drill.
		p.Hold()
	}
	f.router.Stop() // no new ingest, every forwarded line answered

	shards := f.cfg.Shards
	tallies := f.router.Tallies()
	merged := &Merged{}
	// Gather every shard's dump at once, each on a fresh connection — most of
	// a drain is moving shard state as JSON — and assemble in shard-index
	// order, so the merge input and the degraded accounting do not depend
	// on which dump finished first. A dump rides out a supervised restart
	// (a shard killed just before the drain is down for the few
	// milliseconds its supervisor needs to relaunch it, and one failed
	// dial must not cost the merge that shard's whole slice); the
	// deliberately held shard gets one try — its absence is the
	// degraded-drain drill's entire point. A shard whose dump is in exits
	// while the other dumps, the merge and the analysis go on.
	dumps := make([]*wire.ShardState, shards)
	errs := make([]error, shards)
	//lint:ignore nosystime bounding a real shard's supervised restart
	deadline := time.Now().Add(readyTimeout)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == f.cfg.HoldShard {
				dumps[i], errs[i] = f.router.DumpShard(i)
			} else {
				dumps[i], errs[i] = f.router.dumpRetry(i, deadline)
			}
			f.procs[i].Terminate(syscall.SIGTERM)
		}(i)
	}
	wg.Wait()
	states := make([]*wire.ShardState, 0, shards)
	for i, state := range dumps {
		if errs[i] != nil {
			f.cfg.Log.Warn("shard dump unavailable; degrading", "shard", i, "err", errs[i])
			merged.Missing = append(merged.Missing, i)
			merged.MissedRecords += tallies[i].Records
			merged.MissedReports += tallies[i].Reports
			merged.MissedCFs += tallies[i].CFs
			continue
		}
		states = append(states, state)
	}
	defer f.Close()
	if len(states) == 0 {
		return nil, fmt.Errorf("fleet: no shard could be dumped; nothing to diagnose")
	}

	bundle, stats := wire.MergeShardStates(states)
	merged.Bundle = bundle
	merged.Stats = stats
	if merged.Degraded() {
		merged.Diagnosis = bundle.AnalyzeDegraded(scope,
			merged.MissedRecords, merged.MissedReports)
	} else {
		merged.Diagnosis = bundle.AnalyzeObs(scope)
	}
	return merged, nil
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
