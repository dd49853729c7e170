package diagnose_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/viz"
	"vedrfolnir/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the analyzer golden files")

// goldenConfig is the pinned 1/360 configuration the sweep benchmarks and
// the allocation ceiling use, at the Fig 9 operating point.
func goldenConfig() (scenario.Config, scenario.RunOptions) {
	cfg := scenario.DefaultConfig()
	cfg.Scale = 1.0 / 360
	cfg.StepBytes = cfg.ScaledBytes(360e6)
	cfg.CellSize = 16 << 10
	cfg.Fabric.PFCPauseThreshold = 64 << 10
	cfg.Fabric.PFCResumeThreshold = 32 << 10
	cfg.Fabric.ECNThreshold = 32 << 10
	opts := scenario.DefaultRunOptions(cfg)
	opts.Monitor.MaxDetectPerStep = 5
	return cfg, opts
}

// analyzerOutput renders everything the analyzer prints for one case: the
// summary, the diagnosis JSON as `vedranalyze -json` emits it, the pruned
// waiting graph and the provenance graph as DOT.
func analyzerOutput(t *testing.T, kind scenario.AnomalyKind, seed int64) []byte {
	t.Helper()
	cfg, opts := goldenConfig()
	cs, err := scenario.GenerateCase(kind, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diag
	var b bytes.Buffer
	b.WriteString("== summary\n")
	b.WriteString(d.Summary())
	b.WriteString("== diagnosis json\n")
	enc := json.NewEncoder(&b)
	enc.SetIndent("", " ")
	if err := enc.Encode(wire.FromDiagnosis(d)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== waiting graph (pruned %d vertices)\n", d.WaitGraph.Prune())
	b.WriteString(viz.WaitGraphDOT(d.WaitGraph))
	b.WriteString("== provenance graph\n")
	b.WriteString(viz.ProvenanceDOT(d.Graph))
	return b.Bytes()
}

// TestAnalyzerGolden pins the analyzer's output bytes on real §IV-A cases:
// the four evaluated kinds, two seeds each. A change to the waiting graph,
// the provenance graph or the rating that moves any printed byte shows up
// here; regenerate with -update only when the change is meant to.
func TestAnalyzerGolden(t *testing.T) {
	for _, kind := range []scenario.AnomalyKind{
		scenario.Contention, scenario.Incast, scenario.PFCStorm, scenario.PFCBackpressure,
	} {
		for _, seed := range []int64{1, 2} {
			name := fmt.Sprintf("%s-seed%d", kind, seed)
			t.Run(name, func(t *testing.T) {
				got := analyzerOutput(t, kind, seed)
				golden := filepath.Join("testdata", "golden", name+".txt")
				if *update {
					if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("reading golden (run with -update to regenerate): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("analyzer output drifted from %s (%d vs %d bytes); "+
						"if the change is intentional, regenerate with -update", golden, len(got), len(want))
				}
			})
		}
	}
}
