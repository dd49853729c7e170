// Command vedranalyzerd runs the centralized analyzer of the paper's Fig 3
// architecture as a long-lived network service: host agents connect over
// TCP and stream step records, telemetry reports and collective-flow
// registrations as newline-delimited JSON; on SIGINT/SIGTERM (or after
// -after) the daemon drains, prints the diagnosis over everything
// ingested, and exits 0. (A fleet member — a shard child spawned by
// -cluster — drains, prints its ingest counts, and leaves the diagnosing
// to the parent that merges every shard's state.)
//
// Usage:
//
//	vedranalyzerd [-listen 127.0.0.1:7391] [-after 30s] [-json]
//	              [-read-timeout 2m] [-max-line 16777216]
//	              [-wal-dir DIR] [-fsync always|interval|off]
//	              [-snapshot-every N] [-queue N] [-rate R] [-burst N]
//	vedranalyzerd -cluster N [-shard-replicas R] [-hold-shard I]
//	              [-resize-to M [-resize-after K] [-rebalance-kill P:S]]
//	              [-tenant-rate R [-tenant-burst N]] [...]
//	vedranalyzerd supervise [-backoff 200ms] [-crash-loops 5]
//	              [-healthy-after 30s] -- <daemon flags>
//
// The service is hardened against misbehaving agents: -read-timeout drops
// a connection that stops delivering bytes, -max-line caps one protocol
// line, malformed lines are skipped with a counter, and sequence-numbered
// submissions are acknowledged for exactly-once resubmission (see
// internal/analyzerd). Abuse counters print alongside the ingest totals.
//
// With -wal-dir every accepted message is write-ahead-logged before it is
// acknowledged and the daemon snapshots its state there; a restarted
// daemon recovers a byte-identical diagnosis from the snapshot plus the
// log tail. -queue bounds the ingest queue and -rate/-burst cap each
// client's submission rate; both overload paths answer with explicit
// retryable NACKs that the reliable client backs off on. The obs listener
// additionally serves /healthz and /readyz probes.
//
// The supervise subcommand re-runs the daemon under a restart-with-backoff
// loop: a clean exit (0) ends supervision, a crash restarts the daemon
// after exponential backoff, and too many consecutive short-lived runs is
// declared a crash loop and gives up rather than burning CPU forever.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vedrfolnir/internal/analyzerd"
	"vedrfolnir/internal/diagnose"
	"vedrfolnir/internal/fleet"
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "supervise" {
		os.Exit(supervise(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7391", "TCP listen address")
	after := flag.Duration("after", 0, "diagnose and exit after this duration (0 = wait for SIGINT)")
	asJSON := flag.Bool("json", false, "emit the diagnosis as JSON")
	scfg := analyzerd.DefaultServerConfig()
	flag.DurationVar(&scfg.ReadTimeout, "read-timeout", scfg.ReadTimeout,
		"drop a connection idle for this long (0 = never)")
	flag.IntVar(&scfg.MaxLineBytes, "max-line", scfg.MaxLineBytes,
		"maximum protocol line size in bytes")
	flag.IntVar(&scfg.MaxQueue, "queue", scfg.MaxQueue,
		"ingest queue bound; a full queue NACKs with retry")
	flag.Float64Var(&scfg.RateLimit.Rate, "rate", 0,
		"per-client sustained messages/second (0 = unlimited)")
	flag.IntVar(&scfg.RateLimit.Burst, "burst", 0,
		"per-client token bucket depth (0 = derived from -rate)")
	flag.DurationVar(&scfg.AckTTL, "ack-ttl", 0,
		"evict a disconnected client's ack window after this idle time (0 = default 15m, <0 = never)")
	walDir := flag.String("wal-dir", "",
		"write-ahead log + snapshot directory; empty disables durability")
	fsyncMode := flag.String("fsync", "always",
		"WAL fsync policy with -wal-dir: always|interval|off")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond,
		"sync pacing for -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"snapshot state every N accepted messages with -wal-dir (0 = only on drain)")
	obsListen := flag.String("obs-listen", "",
		"serve live /metrics, /healthz, /readyz, /debug/vars and /debug/pprof on this address")
	verbose := flag.Bool("v", false, "log connection and ingest events on stderr")
	cluster := flag.Int("cluster", 0,
		"run as a fleet: N supervised shard children behind a consistent-hash router")
	shardReplicas := flag.Int("shard-replicas", 0,
		"consistent-hash virtual nodes per shard (0 = default)")
	holdShard := flag.Int("hold-shard", -1,
		"with -cluster: hold this shard down at drain time and report a degraded diagnosis")
	resizeTo := flag.Int("resize-to", 0,
		"with -cluster: live-rebalance the fleet to this many shards mid-run")
	resizeAfter := flag.Int("resize-after", 0,
		"with -cluster and -resize-to: trigger the rebalance once this many submissions are acked")
	rebalanceKill := flag.String("rebalance-kill", "",
		"with -cluster and -resize-to: SIGKILL shard S at rebalance phase P, as P:S (chaos hook)")
	tenantRate := flag.Float64("tenant-rate", 0,
		"with -cluster: per-tenant sustained messages/second quota (0 = no quotas)")
	tenantBurst := flag.Int("tenant-burst", 0,
		"with -cluster: per-tenant token bucket depth (0 = derived from -tenant-rate)")
	shardIndex := flag.Int("shard-index", -1,
		"run as shard I of a fleet (internal; spawned by -cluster)")
	shardCount := flag.Int("shard-count", 0,
		"fleet width for -shard-index (internal; spawned by -cluster)")
	shardEpoch := flag.Int64("shard-epoch", 0,
		"shard map epoch for -shard-index (internal; rewritten by a live rebalance)")
	flag.Parse()

	if *cluster > 0 {
		return runCluster(clusterOpts{
			listen:        *listen,
			after:         *after,
			asJSON:        *asJSON,
			shards:        *cluster,
			replicas:      *shardReplicas,
			holdShard:     *holdShard,
			resizeTo:      *resizeTo,
			resizeAfter:   *resizeAfter,
			rebalanceKill: *rebalanceKill,
			tenantRate:    *tenantRate,
			tenantBurst:   *tenantBurst,
			walDir:        *walDir,
			fsyncMode:     *fsyncMode,
			snapshotEvery: *snapshotEvery,
			obsListen:     *obsListen,
			verbose:       *verbose,
		})
	}
	if *verbose {
		scfg.Log = obs.NewLogger(os.Stderr, slog.LevelDebug, nil)
	}
	if *shardCount > 0 {
		scfg.Shard = &analyzerd.ShardConfig{
			Map:   wire.ShardMap{Shards: *shardCount, Replicas: *shardReplicas, Epoch: *shardEpoch},
			Index: *shardIndex,
		}
	}
	if *walDir != "" {
		policy, err := analyzerd.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
			return 1
		}
		scfg.Durability = &analyzerd.DurabilityConfig{
			Dir:           *walDir,
			Fsync:         policy,
			FsyncInterval: *fsyncInterval,
			SnapshotEvery: *snapshotEvery,
		}
	}
	srv, err := analyzerd.ServeWith(*listen, scfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
		return 1
	}
	if rec := srv.Recovery(); rec.SnapshotLoaded || rec.WALEntries > 0 || rec.WALTruncatedBytes > 0 {
		fmt.Fprintf(os.Stderr,
			"vedranalyzerd: recovered %d snapshot messages, %d WAL entries (%d skipped, %d malformed, %d tail bytes dropped)\n",
			rec.SnapshotMessages, rec.WALEntries, rec.WALSkipped, rec.WALMalformed, rec.WALTruncatedBytes)
	}
	done := drainTrigger(*after)
	fmt.Println("analyzer listening on", srv.Addr())

	if *obsListen != "" {
		reg := obs.NewRegistry()
		srv.PublishStats(reg)
		if err := serveObs(*obsListen, reg, srv.Ready); err != nil {
			fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
			return 1
		}
	}

	<-done

	// Graceful drain: stop accepting, apply everything queued, flush and
	// sync the WAL, write a final snapshot. Counts and the diagnosis below
	// then cover every accepted message.
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
	}
	recs, reps, cfs := srv.Counts()
	fmt.Printf("ingested: %d step records, %d reports, %d collective flows\n", recs, reps, cfs)
	st := srv.Stats()
	if st.Malformed != 0 || st.Oversized != 0 || st.TimedOut != 0 || st.Rejected != 0 || st.Duplicates != 0 {
		fmt.Printf("shrugged off: %d malformed, %d oversized, %d timed out, %d rejected, %d duplicates\n",
			st.Malformed, st.Oversized, st.TimedOut, st.Rejected, st.Duplicates)
	}
	if st.Overloaded != 0 || st.RateLimited != 0 || st.AckEvictions != 0 || st.WALErrors != 0 {
		fmt.Printf("backpressure: %d overloaded, %d rate limited, %d ack evictions, %d wal errors\n",
			st.Overloaded, st.RateLimited, st.AckEvictions, st.WALErrors)
	}
	if scfg.Shard != nil {
		// A fleet member's slice is not a diagnosis anyone reads: the
		// parent has its dump and diagnoses the merge.
		return 0
	}
	return printDiagnosis(srv.Diagnose(), *asJSON)
}

// drainTrigger returns a channel that closes when the run should end:
// after the given duration, or with 0 on SIGINT/SIGTERM. Arm it before
// announcing readiness — a client that reads the announce line may
// legitimately finish its work and SIGTERM us before a later
// signal.Notify would have installed the handler.
func drainTrigger(after time.Duration) <-chan struct{} {
	done := make(chan struct{})
	if after > 0 {
		go func() {
			//lint:ignore nosystime operator-requested wall-clock run duration
			time.Sleep(after)
			close(done)
		}()
		return done
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(done)
	}()
	return done
}

// serveObs serves the registry's /metrics, /debug/vars and /debug/pprof
// plus /healthz and /readyz (the latter backed by ready) on addr.
func serveObs(addr string, reg *obs.Registry, ready func() error) error {
	reg.PublishExpvar("vedranalyzerd")
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "vedranalyzerd: obs on http://%s/metrics\n", ln.Addr())
	mux := obs.Mux(reg)
	obs.HandleHealth(mux, nil, ready)
	go http.Serve(ln, mux)
	return nil
}

// printDiagnosis renders the run's result on stdout — the summary, or
// with asJSON the wire form — and returns the exit code.
func printDiagnosis(diag *diagnose.Diagnosis, asJSON bool) int {
	if !asJSON {
		fmt.Print(diag.Summary())
		return 0
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(wire.FromDiagnosis(diag)); err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
		return 1
	}
	return 0
}

// supervise re-runs this binary as a child daemon under fleet.Proc's
// restart-with-backoff loop: a clean exit (0) ends supervision, a crash
// restarts the daemon, a forwarded signal passes the child's verdict
// through, and too many consecutive short-lived runs is declared a crash
// loop. The crash-loop counter forgives earlier crashes only once a child
// has stayed up for -healthy-after — a daemon that limps past the crash
// window but keeps dying is still a crash loop, not a healthy service.
func supervise(argv []string) int {
	fs := flag.NewFlagSet("supervise", flag.ExitOnError)
	backoff := fs.Duration("backoff", 200*time.Millisecond, "first restart delay; doubles per crash")
	backoffMax := fs.Duration("backoff-max", 5*time.Second, "restart delay cap")
	crashWindow := fs.Duration("crash-window", 2*time.Second,
		"a child living shorter than this counts toward the crash loop")
	crashLoops := fs.Int("crash-loops", 5, "give up after this many consecutive short-lived crashes")
	healthyAfter := fs.Duration("healthy-after", 30*time.Second,
		"a child must live this long before earlier crashes are forgiven")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: vedranalyzerd supervise [flags] -- <daemon flags>")
		fs.PrintDefaults()
	}
	fs.Parse(argv)
	childArgs := fs.Args()

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd: supervise:", err)
		return 1
	}
	p, err := fleet.StartProc(fleet.ProcConfig{
		Path:           exe,
		Args:           childArgs,
		AnnouncePrefix: "analyzer listening on ",
		RelistenFlag:   "-listen",
		Backoff:        *backoff,
		BackoffMax:     *backoffMax,
		CrashWindow:    *crashWindow,
		CrashLoops:     *crashLoops,
		HealthyAfter:   *healthyAfter,
		Stdout:         os.Stdout,
		Stderr:         os.Stderr,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "vedranalyzerd: supervise: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd: supervise:", err)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		// Forward the signal so the child drains gracefully; supervision
		// ends with the child's own verdict, not a restart.
		p.Terminate(<-sig)
	}()
	return p.Wait().Code
}
