package scenario

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
	"time"

	"vedrfolnir/internal/collective"
)

// The load a collective job offers the analyzer tier is fixed when the job
// starts: N hosts, one flow per host, the algorithm's step count, one step
// record per flow per step, and at most K detections per host per step
// (§III-C). These tests pin that arithmetic to the simulator's own counts
// at the sizes it runs and, under -v, extrapolate it to the sizes a fleet
// would serve — the table DESIGN §15 quotes for why the fleet is static.

// jobSteps is the closed form of a collective's steps per flow: N−1 for a
// Ring AllGather or ReduceScatter, log₂N for Halving-Doubling, twice that
// for an AllReduce, which runs one of each.
func jobSteps(alg collective.Algorithm, op collective.Op, n int) int {
	steps := n - 1
	if alg == collective.HalvingDoubling {
		steps = bits.Len(uint(n)) - 1
	}
	if op == collective.AllReduce {
		steps *= 2
	}
	return steps
}

// TestLoadStepRecordsClosedForm: every flow reports one record per step,
// so a job's step records are N·steps — 2(N−1)·N for Ring AllReduce,
// 2·log₂N·N for Halving-Doubling, (N−1)·N for Ring AllGather — exactly,
// for every algorithm and op at every size the fat tree holds.
func TestLoadStepRecordsClosedForm(t *testing.T) {
	cfg, opts := benchmarkConfig()
	for _, alg := range []collective.Algorithm{collective.Ring, collective.HalvingDoubling} {
		for _, op := range []collective.Op{collective.AllGather, collective.ReduceScatter, collective.AllReduce} {
			for _, n := range []int{4, 8, 16} {
				cfg.Ranks, cfg.Alg, cfg.Op = n, alg, op
				cs, err := GenerateCase(Clean, 1, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(cs, Vedrfolnir, cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := jobSteps(alg, op, n) * n
				if !res.Completed || len(res.Records) != want {
					t.Errorf("%v %v N=%d: %d step records (completed %v), closed form %d",
						alg, op, n, len(res.Records), res.Completed, want)
				}
				t.Logf("%v %v N=%d: %d step records, %d CFs, %d reports", alg, op, n, len(res.Records), len(res.CFs), len(res.Reports))
			}
		}
	}
}

// Measured supply on 2 vCPU (ROADMAP item 4): one shard behind the router,
// and a lone daemon.
const (
	shardMsgsPerS = 38_000
	loneMsgsPerS  = 49_000
)

// TestLoadExtrapolation measures, on the benchmark's anomaly cases, the two
// ratios the closed form leaves open — CF registrations and telemetry
// reports per step record — and extrapolates a Ring AllReduce job's
// message rate at 100 Gbps, 360 MB per flow per step and K = 5 to the
// sizes a fleet would serve, beside the measured supply.
func TestLoadExtrapolation(t *testing.T) {
	cfg, opts := benchmarkConfig()
	var records, cfs, reports int
	for _, kind := range benchmarkKinds {
		for seed := int64(1); seed <= 3; seed++ {
			cs, err := GenerateCase(kind, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cs, Vedrfolnir, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := jobSteps(cfg.Alg, cfg.Op, cfg.Ranks) * cfg.Ranks; len(res.Records) != want {
				t.Errorf("%v seed %d: %d step records, closed form %d", kind, seed, len(res.Records), want)
			}
			records += len(res.Records)
			cfs += len(res.CFs)
			reports += len(res.Reports)
		}
	}
	cfPerRecord := float64(cfs) / float64(records)
	reportPerRecord := float64(reports) / float64(records) // reports per host per step
	const k = 5
	if reportPerRecord > k {
		t.Fatalf("%.2f reports per host per step, above the K = %d bound", reportPerRecord, k)
	}
	jobs := 3 * len(benchmarkKinds)
	t.Logf("measured over %d %d-host jobs: %.0f CFs per job (%.3f per step record), %.3f reports per host per step (K = %d)",
		jobs, cfg.Ranks, float64(cfs)/float64(jobs), cfPerRecord, reportPerRecord, k)

	// One step moves 360 MB per flow at 100 Gbps: 28.8 ms.
	step := time.Duration(360e6 * 8 / 100e9 * float64(time.Second))
	var b strings.Builder
	fmt.Fprintf(&b, "Ring AllReduce, %v per step:\n", step)
	fmt.Fprintf(&b, "%6s %12s %9s %11s %13s %13s %10s\n",
		"hosts", "step recs", "job", "records/s", "msgs/s meas", "msgs/s K=5", "1-shard x")
	var largest float64 // records/s of the largest job
	for _, n := range []int{8, 64, 256, 1024} {
		steps := jobSteps(collective.Ring, collective.AllReduce, n)
		job := time.Duration(steps) * step
		largest = float64(steps*n) / job.Seconds()
		measured := largest * (1 + cfPerRecord + reportPerRecord)
		fmt.Fprintf(&b, "%6d %12d %8.2fs %11.0f %13.0f %13.0f %10.2f\n",
			n, steps*n, job.Seconds(), largest, measured, largest*(1+cfPerRecord+k), shardMsgsPerS/measured)
	}
	fmt.Fprintf(&b, "supply: %d msgs/s one shard behind the router, %d a lone daemon", shardMsgsPerS, loneMsgsPerS)
	t.Log("\n" + b.String())

	// The 1,024-host row decides ROADMAP item 4: its step records alone
	// leave one shard short of the 10× headroom branch (a) asks for.
	if largest < 35_000 || largest > 36_000 || shardMsgsPerS >= 10*largest {
		t.Errorf("1,024-host Ring AllReduce at %.0f records/s; the DESIGN §15 verdict assumes ≈ 35.6 k", largest)
	}
}
