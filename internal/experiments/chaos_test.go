package experiments

import (
	"testing"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/sweep"
)

func TestChaosJobsShape(t *testing.T) {
	counts := tinyCounts()
	jobs := grid(t, fastConfig(), counts, "chaos").Jobs()
	want := 0
	for _, kind := range Kinds {
		want += counts[kind] * len(ChaosLossRates)
	}
	if len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	keys := map[string]bool{}
	for _, j := range jobs {
		if j.System != scenario.Vedrfolnir {
			t.Fatalf("chaos grid runs %v, want vedrfolnir only", j.System)
		}
		if keys[j.Key()] {
			t.Fatalf("duplicate job key %q", j.Key())
		}
		keys[j.Key()] = true
	}
}

// TestChaosPlanned: the robustness grid is a figure-table entry with jobs,
// journaled under its own name.
func TestChaosPlanned(t *testing.T) {
	g := grid(t, scenario.ConfigForScale(360), SmallCaseCounts(), "chaos")
	if len(g.Jobs()) == 0 {
		t.Fatal("chaos grid is empty")
	}
	if !g.ScoreCompleteOnly {
		t.Fatal("chaos grid must score completed cases only")
	}
}

// TestChaosDegradation is the PR's acceptance sweep: across every §IV-A
// scenario and the full loss-rate axis, the chaos-wrapped pipeline must
// complete every case and yield a diagnosis — no per-job failures (panics,
// hangs caught by the watchdog) and no deadline hits — with confidence 1 at
// zero loss and a sane confidence under loss. Runs on a parallel pool and
// under -race in CI.
func TestChaosDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	cfg := fastConfig()
	counts := map[scenario.AnomalyKind]int{
		scenario.Contention:      2,
		scenario.Incast:          2,
		scenario.PFCStorm:        2,
		scenario.PFCBackpressure: 2,
	}
	rows := runGrid(t, cfg, counts, "chaos", sweep.Options{Workers: 4})
	if want := 4 * len(ChaosLossRates); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Failed != 0 {
			t.Errorf("%v @ %.1f%%: %d case(s) failed outright", r.Kind, r.Params.ChaosLoss*100, r.Failed)
		}
		if r.Incomplete != 0 {
			t.Errorf("%v @ %.1f%%: %d case(s) hit the deadline", r.Kind, r.Params.ChaosLoss*100, r.Incomplete)
		}
		if got := r.Metrics.TP + r.Metrics.FP + r.Metrics.FN; got != r.Seeds-r.Failed-r.Incomplete {
			t.Errorf("%v @ %.1f%%: outcome accounting broken: %+v over %d cases",
				r.Kind, r.Params.ChaosLoss*100, r.Metrics, r.Seeds)
		}
		if r.Params.ChaosLoss == 0 {
			if !(r.Confidence > 0.999) {
				t.Errorf("%v @ 0%%: confidence %v, want 1 (byte-identity control)",
					r.Kind, r.Confidence)
			}
		} else if r.Confidence <= 0 || r.Confidence > 1 {
			t.Errorf("%v @ %.1f%%: confidence %v outside (0,1]",
				r.Kind, r.Params.ChaosLoss*100, r.Confidence)
		}
	}

	// Determinism across pool widths: the robustness grid is still a
	// simulation, so workers=1 must reproduce the parallel rows exactly.
	seq := runGrid(t, cfg, counts, "chaos", sweep.Options{Workers: 1})
	for i := range rows {
		if rows[i] != seq[i] {
			t.Errorf("row %d differs across pool widths:\n%+v\nvs\n%+v", i, rows[i], seq[i])
		}
	}
}
