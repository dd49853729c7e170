package lint_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vedrfolnir/internal/lint"
	"vedrfolnir/internal/lint/linttest"
)

func td(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

func TestNoSysTime(t *testing.T)    { linttest.Run(t, lint.NoSysTime, td("nosystime", "a")) }
func TestSeededRand(t *testing.T)   { linttest.Run(t, lint.SeededRand, td("seededrand", "a")) }
func TestMapIterOrder(t *testing.T) { linttest.Run(t, lint.MapIterOrder, td("mapiterorder", "a")) }
func TestNoPanic(t *testing.T)      { linttest.Run(t, lint.NoPanic, td("nopanic", "a")) }
func TestFloatEq(t *testing.T)      { linttest.Run(t, lint.FloatEq, td("floateq", "a")) }
func TestGuardedField(t *testing.T) { linttest.Run(t, lint.GuardedField, td("guardedfield", "a")) }
func TestErrDrop(t *testing.T)      { linttest.Run(t, lint.ErrDrop, td("errdrop", "a")) }

// TestStaleIgnore runs nosystime alone over suppressions that cover
// nothing, one of them naming an analyzer outside the run.
func TestStaleIgnore(t *testing.T) { linttest.Run(t, lint.NoSysTime, td("staleignore", "a")) }

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
	diags, err := lint.RunTree(".", []string{"./..."})
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}

// TestLoadTestOnlyImports: a package whose in-package tests import a
// package whose own tests import it back loads clean, as go test builds
// it (imports resolve to packages without their tests), and its external
// test package still sees its in-package test code; a cycle between two
// packages' non-test files is still refused.
func TestLoadTestOnlyImports(t *testing.T) {
	l, err := lint.NewLoader(td("loadcycle"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns("./a", "./b")
	if err != nil {
		t.Fatalf("test-only imports reported as a cycle: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if want := "[loadcycle/a loadcycle/a.test loadcycle/b]"; fmt.Sprint(paths) != want {
		t.Errorf("loaded %v, want %s", paths, want)
	}
	if _, err := l.LoadPatterns("./c"); err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("a non-test import cycle loaded with error %v", err)
	}
}
