package vedrtest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vedrfolnir/internal/experiments"
	"vedrfolnir/internal/scenario"
	"vedrfolnir/internal/spec"
)

const corpusDir = "../../testdata/conformance"

func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance specs under %s: %v", corpusDir, err)
	}
	return files
}

// TestConformanceCorpusInProcess runs the full shipped corpus in-process
// (analyzerd-mode specs downgraded) — the same thing CI's -race corpus
// step exercises through cmd/vedrtest.
func TestConformanceCorpusInProcess(t *testing.T) {
	r := &Runner{ForceInProcess: true}
	for _, file := range corpusFiles(t) {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			rep := r.RunFile(file)
			if rep.LoadFailed {
				t.Fatalf("spec failed to load: %s", rep.Err)
			}
			if rep.Failed() {
				t.Fatalf("spec failed:\n%s", FailureDiff(rep))
			}
			if total, _ := rep.Counts(); total == 0 {
				t.Fatalf("spec ran no checks")
			}
		})
	}
}

// TestFig9SpecGoParity pins the ported Fig 9 contention cell: the
// declarative spec and a direct Go replication of the experiment's jobs
// (same seeds, same max-detect-per-step operating point) must agree on
// precision and recall, and both must match the values the spec asserts.
func TestFig9SpecGoParity(t *testing.T) {
	path := filepath.Join(corpusDir, "fig9_contention_cell.yaml")
	sp, err := spec.Load(path)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	// Direct Go run of the identical cell at the figure table's Fig 9
	// operating point rather than through Compile.
	cfg := scenario.ConfigForScale(90)
	fig9, ok := experiments.Lookup(experiments.Grids(cfg, experiments.SmallCaseCounts()), "fig9")
	if !ok {
		t.Fatal("no fig9 grid in the figure table")
	}
	opts := fig9.RunOptions()
	for _, g := range fig9.Groups {
		if g.Kind == scenario.Contention && g.System == scenario.Vedrfolnir {
			g.Params.Apply(&opts)
		}
	}
	if sp.Params.MaxDetectPerStep != opts.Monitor.MaxDetectPerStep {
		t.Fatalf("spec max-detect-per-step = %d, want the figure table's %d",
			sp.Params.MaxDetectPerStep, opts.Monitor.MaxDetectPerStep)
	}
	var m scenario.Metrics
	for _, seed := range sp.Scenario.Seeds {
		cs, err := scenario.GenerateCase(scenario.Contention, seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := scenario.Run(cs, scenario.Vedrfolnir, cfg, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m.Add(res.Outcome)
	}
	if m.Precision() != sp.Expect.Precision {
		t.Errorf("Go precision = %v, spec asserts %v", m.Precision(), sp.Expect.Precision)
	}
	if m.Recall() != sp.Expect.Recall {
		t.Errorf("Go recall = %v, spec asserts %v", m.Recall(), sp.Expect.Recall)
	}

	rep := (&Runner{}).RunFile(path)
	if rep.Failed() {
		t.Fatalf("spec run failed:\n%s", FailureDiff(rep))
	}
	for _, c := range rep.Aggregate {
		var got string
		switch c.Field {
		case "precision":
			got = ftoa(m.Precision())
		case "recall":
			got = ftoa(m.Recall())
		default:
			continue
		}
		if c.Got != got {
			t.Errorf("spec aggregate %s = %s, direct Go run = %s", c.Field, c.Got, got)
		}
	}
}

// failingSpec is a storm case whose expectations are deliberately wrong:
// the run is a TP with exactly one pfc-storm finding.
const failingSpec = `name: deliberately-wrong
scenario:
  anomaly: pfc-storm
  seed: 5
expect:
  outcome: FN
  max-findings: 0
  min-confidence: 1
`

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.yaml")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFailingSpecDiff(t *testing.T) {
	rep := (&Runner{}).RunFile(writeSpec(t, failingSpec))
	if rep.LoadFailed || rep.Err != "" {
		t.Fatalf("unexpected error: %s", rep.Err)
	}
	if !rep.Failed() {
		t.Fatal("deliberately wrong spec passed")
	}
	total, failed := rep.Counts()
	if total != 3 || failed != 2 {
		t.Fatalf("counts = (%d, %d), want (3, 2)", total, failed)
	}
	diff := FailureDiff(rep)
	for _, want := range []string{
		"-outcome = FN",
		"+outcome = TP",
		"-max-findings = <= 0 findings",
		"+max-findings = 1 findings",
		" min-confidence = >= 1", // passing check stays context
	} {
		if !strings.Contains(diff, want) {
			t.Errorf("diff is missing %q:\n%s", want, diff)
		}
	}
}

func TestArtifactsOnFailure(t *testing.T) {
	dir := t.TempDir()
	rep := (&Runner{ArtifactsDir: dir}).RunFile(writeSpec(t, failingSpec))
	if !rep.Failed() {
		t.Fatal("deliberately wrong spec passed")
	}
	if rep.TracePath == "" || rep.ReportPath == "" {
		t.Fatalf("missing artifacts: trace=%q report=%q", rep.TracePath, rep.ReportPath)
	}
	data, err := os.ReadFile(rep.ReportPath)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("report artifact is not valid JSON: %v", err)
	}
	if round.Name != "deliberately-wrong" {
		t.Fatalf("report artifact name = %q", round.Name)
	}
	if st, err := os.Stat(rep.TracePath); err != nil || st.Size() == 0 {
		t.Fatalf("trace artifact unreadable or empty: %v", err)
	}
}

func TestLoadErrorIsLineNumbered(t *testing.T) {
	rep := (&Runner{}).RunFile(writeSpec(t, "name: broken\nscenario:\n  anomaly: nope\nexpect:\n  outcome: TP\n"))
	if !rep.LoadFailed {
		t.Fatal("broken spec loaded")
	}
	if !strings.Contains(rep.Err, "line 3:") {
		t.Fatalf("error is not line-numbered: %q", rep.Err)
	}
}

// TestRunnerDeterminism reruns one multi-seed spec and requires the full
// serialized report to be identical — the property that makes corpus
// output byte-stable at any worker count.
func TestRunnerDeterminism(t *testing.T) {
	path := filepath.Join(corpusDir, "fig9_contention_cell.yaml")
	r := &Runner{ForceInProcess: true}
	first, err := json.Marshal(r.RunFile(path))
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(r.RunFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("reports differ across reruns:\n%s\n%s", first, second)
	}
}
