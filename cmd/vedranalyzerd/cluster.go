package main

import (
	"fmt"
	"log/slog"
	"os"
	"time"

	"vedrfolnir/internal/fleet"
	"vedrfolnir/internal/obs"
)

// clusterOpts carries the -cluster subset of the daemon flags into the
// fleet runner.
type clusterOpts struct {
	listen        string
	after         time.Duration
	asJSON        bool
	shards        int
	holdShard     int
	walDir        string
	fsyncMode     string
	snapshotEvery int
	obsListen     string
	verbose       bool
}

// runCluster is the -cluster entrypoint: it spawns this same binary as N
// supervised shard children, fronts them with the consistent-hash router,
// and on drain gathers every shard's state into one merged diagnosis —
// printed in exactly the format of a standalone run, so harnesses that
// diff daemon output need not know a fleet produced it. Per-shard
// announce lines go to stdout with a "shard " prefix so those same
// harnesses can filter them (and chaos drivers can read the pids).
func runCluster(o clusterOpts) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
		return 1
	}
	var log *slog.Logger
	if o.verbose {
		log = obs.NewLogger(os.Stderr, slog.LevelDebug, nil)
	}
	var reg *obs.Registry
	if o.obsListen != "" {
		reg = obs.NewRegistry()
	}
	f, err := fleet.Start(fleet.Config{
		BinPath:       exe,
		Shards:        o.shards,
		Dir:           o.walDir,
		Fsync:         o.fsyncMode,
		SnapshotEvery: o.snapshotEvery,
		Listen:        o.listen,
		HoldShard:     o.holdShard,
		OnShard: func(i int, addr string, pid int) {
			fmt.Printf("shard %d listening on %s (pid %d)\n", i, addr, pid)
		},
		Stderr:  os.Stderr,
		Log:     log,
		Metrics: reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
		return 1
	}
	done := drainTrigger(o.after)
	fmt.Println("analyzer listening on", f.Addr())

	if o.obsListen != "" {
		if err := serveObs(o.obsListen, reg, f.Ready); err != nil {
			fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
			f.Close()
			return 1
		}
	}

	<-done

	router := f.Router()
	merged, err := f.Drain(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
		return 1
	}
	fmt.Printf("ingested: %d step records, %d reports, %d collective flows\n",
		merged.Stats.Records, merged.Stats.Reports, merged.Stats.CFs)
	st := router.Stats()
	if st.Rejected != 0 {
		fmt.Printf("shrugged off: %d rejected lines\n", st.Rejected)
	}
	if st.ShardDown != 0 {
		fmt.Printf("backpressure: %d client connections ended for an unreachable shard\n", st.ShardDown)
	}
	return printDiagnosis(merged.Diagnosis, o.asJSON)
}
