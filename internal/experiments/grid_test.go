package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/simtime"
	"vedrfolnir/internal/sweep"
)

// TestGridJobKeysGolden pins every grid's job-key list, in order, at the
// small census and at the paper census (scale 1/90). A journal is matched
// to its jobs by key and compacted in job order, so this list is what lets
// a journal written by an earlier build resume to the same bytes. The
// golden was generated from the per-figure job builders the table
// replaced; it is never regenerated from the table itself. The small
// census is listed key by key, the paper census by count and SHA-256.
func TestGridJobKeysGolden(t *testing.T) {
	cfg := scenario.ConfigForScale(90)
	var b strings.Builder
	for _, paper := range []bool{false, true} {
		counts := SmallCaseCounts()
		if paper {
			counts = PaperCaseCounts()
		}
		for _, g := range Grids(cfg, counts) {
			var keys strings.Builder
			for _, j := range g.Jobs() {
				keys.WriteString(j.Key())
				keys.WriteByte('\n')
			}
			fmt.Fprintf(&b, "# %s paper=%v jobs=%d sha256=%x\n",
				g.Name, paper, len(g.Jobs()), sha256.Sum256([]byte(keys.String())))
			if !paper {
				b.WriteString(keys.String())
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "jobkeys.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("job keys drift from the golden at line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

// TestGridRowsFold pins the fold rules on a hand-built summary: failed
// cases are excluded everywhere; incomplete ones are scored except where
// the grid scores completed cases only, and always count toward the
// overhead means and the slowdown pool.
func TestGridRowsFold(t *testing.T) {
	grp := Group{Kind: scenario.Contention, System: scenario.Vedrfolnir, Seeds: 3}
	sum := &sweep.Summary{Results: []sweep.Result{
		{Outcome: scenario.TP, Completed: true, TelemetryBytes: 10, BandwidthBytes: 20, Confidence: 1, Samples: []simtime.Duration{5}},
		{Err: "boom", TelemetryBytes: 1000},
		{Outcome: scenario.FN, Completed: false, TelemetryBytes: 11, BandwidthBytes: 21, Confidence: 0.5, Samples: []simtime.Duration{7}},
	}}
	for _, completeOnly := range []bool{false, true} {
		g := Grid{Groups: []Group{grp}, ScoreCompleteOnly: completeOnly}
		rows := g.Rows(sum)
		if len(rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(rows))
		}
		r := rows[0]
		if r.Failed != 1 || r.TelemetryBytes != 10 || r.BandwidthBytes != 20 || r.Slowdowns.N != 2 {
			t.Errorf("completeOnly=%v: failed/means/pool wrong: %+v", completeOnly, r)
		}
		wantM, wantConf, wantInc := scenario.Metrics{TP: 1, FN: 1}, 0.75, 0
		if completeOnly {
			wantM, wantConf, wantInc = scenario.Metrics{TP: 1}, 1, 1
		}
		if r.Metrics != wantM || r.Confidence != wantConf || r.Incomplete != wantInc {
			t.Errorf("completeOnly=%v: metrics %+v conf %v incomplete %d, want %+v %v %d",
				completeOnly, r.Metrics, r.Confidence, r.Incomplete, wantM, wantConf, wantInc)
		}
	}
}
