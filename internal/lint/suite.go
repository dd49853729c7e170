package lint

import "strings"

// SuiteEntry binds an analyzer to the set of packages its invariant
// governs.
type SuiteEntry struct {
	Analyzer *Analyzer
	// AppliesTo reports whether the analyzer runs on the package with the
	// given import path (external test packages carry a ".test" suffix).
	AppliesTo func(pkgPath string) bool
}

// Suite returns the repository's analyzer set with its package scoping,
// for the module rooted at modulePath:
//
//   - nosystime: every internal simulation/diagnosis package and the root
//     facade. internal/simtime is the sanctioned wall-clock gateway and
//     internal/lint is host-side tooling, so both are exempt, as are the
//     cmd/ CLIs and examples (wall-clock progress reporting is legitimate
//     there).
//   - seededrand, mapiterorder: everywhere — determinism is global.
//   - nopanic: library (internal/...) packages except internal/lint's own
//     testdata-free tooling; binaries may still crash on startup errors.
//   - floateq: the weight/rating computations (provenance, diagnose,
//     waitgraph, baseline, stats) where float comparisons gate results.
//   - guardedfield, errdrop: everywhere — the annotation is opt-in per
//     field and durability depends on every handled error, so broad scope
//     costs nothing.
func Suite(modulePath string) []SuiteEntry {
	internal := func(path string) (string, bool) {
		rel := strings.TrimPrefix(path, modulePath+"/internal/")
		if rel == path {
			return "", false
		}
		rel = strings.TrimSuffix(rel, ".test")
		if i := strings.IndexByte(rel, '/'); i >= 0 {
			rel = rel[:i]
		}
		return rel, true
	}
	return []SuiteEntry{
		{NoSysTime, func(path string) bool {
			if path == modulePath || path == modulePath+".test" {
				return true
			}
			sub, ok := internal(path)
			return ok && sub != "simtime" && sub != "lint"
		}},
		{SeededRand, func(string) bool { return true }},
		{MapIterOrder, func(string) bool { return true }},
		{NoPanic, func(path string) bool {
			sub, ok := internal(path)
			return ok && sub != "lint"
		}},
		{FloatEq, func(path string) bool {
			sub, ok := internal(path)
			switch sub {
			case "provenance", "diagnose", "waitgraph", "baseline", "stats":
				return ok
			}
			return false
		}},
		{GuardedField, func(string) bool { return true }},
		{ErrDrop, func(string) bool { return true }},
	}
}

// Analyzers returns every analyzer in the suite, unscoped (for tests and
// tools that want the full set).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoSysTime, SeededRand, MapIterOrder, NoPanic, FloatEq,
		GuardedField, ErrDrop,
	}
}

// RunTree loads the packages matched by patterns, tests included, runs
// each suite analyzer over the packages it applies to, and returns every
// finding: unsuppressed violations and stale //lint:ignore comments.
func RunTree(dir string, patterns []string) ([]Diagnostic, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return nil, err
	}
	suite := Suite(loader.ModulePath())
	var out []Diagnostic
	for _, pkg := range pkgs {
		var as []*Analyzer
		for _, e := range suite {
			if e.AppliesTo(pkg.Path) {
				as = append(as, e.Analyzer)
			}
		}
		diags, err := runAnalyzers(pkg, as, loader.ModulePath())
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	return out, nil
}
