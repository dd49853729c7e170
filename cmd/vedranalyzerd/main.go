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
//	              [-wal-dir DIR] [-fsync always|interval|off]
//	              [-snapshot-every N] [-obs-listen ADDR] [-v]
//	vedranalyzerd -cluster N -wal-dir DIR [-hold-shard I] [...]
//
// The service is hardened against misbehaving agents: a connection that
// delivers no byte for 2 minutes is dropped, one protocol line is capped
// at 16 MiB, malformed lines are skipped with a counter, and every
// submission must name its client and carry a sequence number, which is
// acknowledged for exactly-once resubmission (see internal/analyzerd).
// Abuse counters print alongside the ingest totals.
//
// With -wal-dir every accepted message is write-ahead-logged before it is
// acknowledged, and -snapshot-every N snapshots the state there every N
// messages (-fsync interval syncs at most every 100 ms); a stopped or
// crashed daemon leaves the last snapshot plus the log tail, from which a
// restart recovers a byte-identical diagnosis. The ingest
// queue holds 1024 messages; a full queue answers with an explicit
// retryable NACK that the reliable client backs off on. The obs listener
// additionally serves /healthz and /readyz probes.
//
// For unattended operation, -cluster 1 -wal-dir DIR runs the daemon as one
// supervised shard: a crash restarts it onto DIR/shard-0, at once the
// first time and with backoff from the second consecutive short-lived run,
// and too many such runs end supervision as a crash loop. -cluster needs
// -wal-dir (exit 2 without it): each shard logs under DIR/shard-<i>, and
// the drain rebuilds every shard's state from there once the shard has
// exited.
//
// The daemon takes no positional arguments: one on the command line is an
// error (exit 2), so a stale "vedranalyzerd supervise -- ..." command does
// not start a daemon that ignores its flags.
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
	"vedrfolnir/internal/obs"
	"vedrfolnir/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7391", "TCP listen address")
	after := flag.Duration("after", 0, "diagnose and exit after this duration (0 = wait for SIGINT)")
	asJSON := flag.Bool("json", false, "emit the diagnosis as JSON")
	walDir := flag.String("wal-dir", "",
		"write-ahead log + snapshot directory (required with -cluster); empty disables durability")
	fsyncMode := flag.String("fsync", "always",
		"WAL fsync policy with -wal-dir: always|interval|off")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"snapshot state every N accepted messages with -wal-dir (0 = never)")
	obsListen := flag.String("obs-listen", "",
		"serve live /metrics, /healthz, /readyz, /debug/vars and /debug/pprof on this address")
	verbose := flag.Bool("v", false, "log connection and ingest events on stderr")
	cluster := flag.Int("cluster", 0,
		"run as a fleet: N supervised shard children and a router that places each client on its shard")
	holdShard := flag.Int("hold-shard", -1,
		"with -cluster: hold this shard down at drain time; the drain recovers it from its WAL")
	shardIndex := flag.Int("shard-index", -1,
		"run as shard I of a fleet (internal; spawned by -cluster)")
	shardCount := flag.Int("shard-count", 0,
		"fleet width for -shard-index (internal; spawned by -cluster)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "vedranalyzerd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	if *cluster > 0 {
		if *walDir == "" {
			// The drain rebuilds every shard's state from its WAL directory.
			fmt.Fprintln(os.Stderr, "vedranalyzerd: -cluster needs -wal-dir")
			return 2
		}
		return runCluster(clusterOpts{
			listen:        *listen,
			after:         *after,
			asJSON:        *asJSON,
			shards:        *cluster,
			holdShard:     *holdShard,
			walDir:        *walDir,
			fsyncMode:     *fsyncMode,
			snapshotEvery: *snapshotEvery,
			obsListen:     *obsListen,
			verbose:       *verbose,
		})
	}
	scfg := analyzerd.DefaultServerConfig()
	if *verbose {
		scfg.Log = obs.NewLogger(os.Stderr, slog.LevelDebug, nil)
	}
	if *shardCount > 0 {
		scfg.Shard = &analyzerd.ShardConfig{
			Map:   wire.ShardMap{Shards: *shardCount},
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

	// Graceful drain: stop accepting, apply everything queued, sync and
	// close the WAL. Counts and the diagnosis below then cover every
	// accepted message.
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
	}
	recs, reps, cfs := srv.Counts()
	fmt.Printf("ingested: %d step records, %d reports, %d collective flows\n", recs, reps, cfs)
	st := srv.Stats()
	if st.Malformed != 0 || st.Oversized != 0 || st.TimedOut != 0 || st.Rejected != 0 || st.Duplicates != 0 {
		fmt.Printf("shrugged off: %d malformed, %d oversized, %d timed out, %d rejected, %d duplicates\n",
			st.Malformed, st.Oversized, st.TimedOut, st.Rejected, st.Duplicates)
	}
	if st.Overloaded != 0 || st.AckEvictions != 0 || st.WALErrors != 0 {
		fmt.Printf("backpressure: %d overloaded, %d ack evictions, %d wal errors\n",
			st.Overloaded, st.AckEvictions, st.WALErrors)
	}
	if scfg.Shard != nil {
		// A fleet member's slice is not a diagnosis anyone reads: the
		// parent rebuilds it from the snapshot and WAL tail in its
		// directory and diagnoses the merge.
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
