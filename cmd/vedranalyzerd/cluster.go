package main

import (
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	replicas      int
	holdShard     int
	resizeTo      int
	resizeAfter   int
	rebalanceKill string // "phase:shard" chaos cut point
	tenantRate    float64
	tenantBurst   int
	walDir        string
	fsyncMode     string
	snapshotEvery int
	obsListen     string
	verbose       bool
}

// parseRebalanceKill splits the -rebalance-kill "phase:shard" chaos
// coordinate.
func parseRebalanceKill(s string) (phase string, shard int, err error) {
	i := strings.LastIndex(s, ":")
	if i <= 0 {
		return "", 0, fmt.Errorf("want phase:shard, got %q", s)
	}
	phase = s[:i]
	switch phase {
	case fleet.PhaseBeforeQuiesce, fleet.PhaseDuringHandoff, fleet.PhaseAfterFlip:
	default:
		return "", 0, fmt.Errorf("unknown rebalance phase %q", phase)
	}
	shard, err = strconv.Atoi(s[i+1:])
	if err != nil || shard < 0 {
		return "", 0, fmt.Errorf("bad shard index in %q", s)
	}
	return phase, shard, nil
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
	var tenants *fleet.TenantConfig
	if o.tenantRate > 0 {
		tenants = &fleet.TenantConfig{Rate: o.tenantRate, Burst: o.tenantBurst}
	}
	killPhase, killShard := "", -1
	if o.rebalanceKill != "" {
		var err error
		if killPhase, killShard, err = parseRebalanceKill(o.rebalanceKill); err != nil {
			fmt.Fprintln(os.Stderr, "vedranalyzerd: -rebalance-kill:", err)
			return 1
		}
	}

	// The -resize-to trigger: once -resize-after submissions are acked
	// (immediately, with 0), rebalance the live fleet exactly once. The
	// resize runs on its own goroutine — OnAcked is called from router
	// handlers, which must not block behind a whole rebalance — and the
	// drain below waits for it, so its report always precedes the output.
	var f *fleet.Fleet
	var resizeOnce sync.Once
	resizeDone := make(chan struct{})
	var resizeTriggered atomic.Bool
	triggerResize := func() {
		resizeOnce.Do(func() {
			resizeTriggered.Store(true)
			go func() {
				defer close(resizeDone)
				rep, err := f.Resize(o.resizeTo)
				if err != nil {
					fmt.Fprintln(os.Stderr, "vedranalyzerd: resize:", err)
					return
				}
				fmt.Printf("resized to %d shards (epoch %d)\n", rep.To, rep.Epoch)
			}()
		})
	}
	var onAcked func(total int64)
	if o.resizeTo > 0 && o.resizeAfter > 0 {
		onAcked = func(total int64) {
			if total >= int64(o.resizeAfter) {
				triggerResize()
			}
		}
	}
	var killOnce sync.Once
	onPhase := func(phase string) {
		if phase != killPhase {
			return
		}
		killOnce.Do(func() {
			if err := f.KillShard(killShard); err != nil {
				fmt.Fprintln(os.Stderr, "vedranalyzerd: rebalance-kill:", err)
			}
		})
	}

	f, err = fleet.Start(fleet.Config{
		BinPath:       exe,
		Shards:        o.shards,
		Replicas:      o.replicas,
		Dir:           o.walDir,
		Fsync:         o.fsyncMode,
		SnapshotEvery: o.snapshotEvery,
		Listen:        o.listen,
		HoldShard:     o.holdShard,
		Tenants:       tenants,
		OnAcked:       onAcked,
		OnPhase:       onPhase,
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
	if o.resizeTo > 0 && o.resizeAfter <= 0 {
		triggerResize() // no ack threshold: rebalance as soon as the fleet is up
	}

	if o.obsListen != "" {
		if err := serveObs(o.obsListen, reg, f.Ready); err != nil {
			fmt.Fprintln(os.Stderr, "vedranalyzerd:", err)
			f.Close()
			return 1
		}
	}

	<-done
	if resizeTriggered.Load() {
		// Let an in-flight rebalance finish before tearing the fleet
		// down: its handoffs are what the drain is about to gather.
		<-resizeDone
	}

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
	if st.ShardDown != 0 || st.Quiesced != 0 || st.TenantLimited != 0 {
		fmt.Printf("backpressure: %d shard-down retries, %d rebalance fences, %d tenant limits\n",
			st.ShardDown, st.Quiesced, st.TenantLimited)
	}
	if tenants != nil {
		// Per-tenant accounting: what each budget owner got through
		// (deterministic for a completed workload, so it lives on stdout)
		// and how often the quota gate pushed back (timing-dependent, so
		// it rides stderr with the rest of the operational noise).
		for _, ta := range merged.Tenants {
			fmt.Printf("tenant %s: %d clients, %d records, %d reports, %d flows\n",
				ta.Tenant, ta.Clients, ta.Records, ta.Reports, ta.CFs)
			if ta.Limited > 0 {
				fmt.Fprintf(os.Stderr, "vedranalyzerd: tenant %s: %d over-quota NACKs\n",
					ta.Tenant, ta.Limited)
			}
		}
	}
	if merged.Degraded() {
		fmt.Fprintf(os.Stderr,
			"vedranalyzerd: degraded: shards %v unreachable; diagnosis missing >= %d records, %d reports, %d flows\n",
			merged.Missing, merged.MissedRecords, merged.MissedReports, merged.MissedCFs)
	}
	return printDiagnosis(merged.Diagnosis, o.asJSON)
}
