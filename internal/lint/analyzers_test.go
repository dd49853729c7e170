package lint_test

import (
	"path/filepath"
	"testing"

	"vedrfolnir/internal/lint"
	"vedrfolnir/internal/lint/linttest"
)

func td(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestNoSysTime(t *testing.T)    { linttest.Run(t, lint.NoSysTime, td("nosystime", "a")) }
func TestObsWallClock(t *testing.T) { linttest.Run(t, lint.ObsWallClock, td("obswallclock", "a")) }
func TestSeededRand(t *testing.T)   { linttest.Run(t, lint.SeededRand, td("seededrand", "a")) }
func TestMapIterOrder(t *testing.T) { linttest.Run(t, lint.MapIterOrder, td("mapiterorder", "a")) }
func TestNoPanic(t *testing.T)      { linttest.Run(t, lint.NoPanic, td("nopanic", "a")) }
func TestFloatEq(t *testing.T)      { linttest.Run(t, lint.FloatEq, td("floateq", "a")) }
func TestGuardedField(t *testing.T) { linttest.Run(t, lint.GuardedField, td("guardedfield", "a")) }
func TestErrDrop(t *testing.T)      { linttest.Run(t, lint.ErrDrop, td("errdrop", "a")) }
func TestGoroLeak(t *testing.T)     { linttest.Run(t, lint.GoroLeak, td("goroleak", "a")) }
func TestHotAlloc(t *testing.T)     { linttest.Run(t, lint.HotAlloc, td("hotalloc", "a")) }

// TestHotAllocScheduledClosure covers hotalloc's per-event check, which
// needs the callee to be the module's own sim.Kernel: a fixture module
// with a stub internal/sim and a hot package scheduling on it.
func TestHotAllocScheduledClosure(t *testing.T) {
	linttest.RunModule(t, []*lint.Analyzer{lint.HotAlloc},
		filepath.Join("testdata", "mod", "hotalloc"))
}

// TestFactPropagation drives the cross-package fact store over a
// self-contained fixture module: an unsanctioned wall-clock read taints
// importers (directly and through two call hops), a suppressed read sets
// no fact, the internal/simtime gateway never propagates, and a guarded
// field annotated in one package is enforced in another.
func TestFactPropagation(t *testing.T) {
	linttest.RunModule(t, []*lint.Analyzer{lint.NoSysTime, lint.GuardedField},
		filepath.Join("testdata", "mod", "factprop"))
}

// TestSuiteScoping pins the package scoping decisions: which invariants
// govern which parts of the tree.
func TestSuiteScoping(t *testing.T) {
	const mod = "vedrfolnir"
	byName := map[string]func(string) bool{}
	for _, e := range lint.Suite(mod) {
		byName[e.Analyzer.Name] = e.AppliesTo
	}
	cases := []struct {
		analyzer string
		pkg      string
		want     bool
	}{
		{"nosystime", mod + "/internal/sim", true},
		{"nosystime", mod + "/internal/hostmon", true},
		{"nosystime", mod + "/internal/simtime", false}, // sanctioned wall-clock gateway
		{"nosystime", mod + "/internal/lint", false},    // host-side tooling
		{"nosystime", mod + "/cmd/vedrsim", false},      // CLIs may report wall time
		{"nosystime", mod, true},                        // root facade is simulated
		{"obswallclock", mod + "/internal/obs", true},
		{"obswallclock", mod + "/internal/obs.test", true},
		{"obswallclock", mod + "/internal/sweep", false}, // stopwatch legal outside obs
		{"obswallclock", mod + "/internal/simtime", false},
		{"seededrand", mod + "/cmd/vedrsim", true},
		{"seededrand", mod + "/internal/scenario", true},
		{"mapiterorder", mod + "/internal/provenance", true},
		{"nopanic", mod + "/internal/diagnose", true},
		{"nopanic", mod + "/cmd/vedrsim", false}, // binaries may crash on startup
		{"floateq", mod + "/internal/provenance", true},
		{"floateq", mod + "/internal/diagnose", true},
		{"floateq", mod + "/internal/fabric", false},
		{"guardedfield", mod + "/internal/analyzerd", true},
		{"guardedfield", mod + "/cmd/vedrsim", true}, // annotation is opt-in, scope is global
		{"errdrop", mod + "/internal/analyzerd", true},
		{"errdrop", mod + "/cmd/vedrsim", true},
		{"goroleak", mod + "/internal/hostmon", true},
		{"hotalloc", mod + "/internal/eventq", true},
		{"hotalloc", mod + "/internal/fabric", true},
		{"hotalloc", mod + "/internal/rdma", true},
		{"hotalloc", mod + "/internal/sim", true},
		{"hotalloc", mod + "/internal/sweep", true},
		{"hotalloc", mod + "/internal/diagnose", false}, // not a declared hot path
		{"hotalloc", mod + "/internal/obs", false},
	}
	for _, c := range cases {
		if got := byName[c.analyzer](c.pkg); got != c.want {
			t.Errorf("%s applies to %s = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}

// TestRunSuiteOnTree runs the full scoped suite over this repository — the
// same check CI enforces via cmd/vedrlint: no findings, no stale
// suppressions.
func TestRunSuiteOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	rep, err := lint.RunTree(".", []string{"./..."})
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	for _, d := range rep.Diags {
		t.Errorf("finding: %s", d)
	}
	for _, d := range rep.StaleIgnores {
		t.Errorf("%s", d)
	}
}
