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
//   - obswallclock: internal/obs only — the observability layer's outputs
//     must be byte-identical across runs, so even the sanctioned stopwatch
//     gateway and slog's wall-clock record stamps are off-limits there.
//   - seededrand, mapiterorder: everywhere — determinism is global.
//   - nopanic: library (internal/...) packages except internal/lint's own
//     testdata-free tooling; binaries may still crash on startup errors.
//   - floateq: the weight/rating computations (provenance, diagnose,
//     waitgraph, baseline, stats) where float comparisons gate results.
//   - guardedfield, errdrop, goroleak: everywhere — the annotation (and
//     the error/goroutine conventions) are opt-in per site, so broad scope
//     costs nothing and concurrency discipline is global.
//   - hotalloc: the declared hot-path packages only (eventq, fabric, rdma,
//     sim, sweep) — per-iteration (and per-event) allocation is a defect
//     there and merely a style choice elsewhere.
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
		{ObsWallClock, func(path string) bool {
			sub, ok := internal(path)
			return ok && sub == "obs"
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
		{GoroLeak, func(string) bool { return true }},
		{HotAlloc, func(path string) bool {
			sub, ok := internal(path)
			switch sub {
			case "eventq", "fabric", "rdma", "sim", "sweep":
				return ok
			}
			return false
		}},
	}
}

// Analyzers returns every analyzer in the suite, unscoped (for tests and
// tools that want the full set).
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoSysTime, ObsWallClock, SeededRand, MapIterOrder, NoPanic, FloatEq,
		GuardedField, ErrDrop, GoroLeak, HotAlloc,
	}
}

// TreeReport is a module-wide analysis result.
type TreeReport struct {
	// ModulePath is the analyzed module's import path.
	ModulePath string
	// Diags are the surviving (unsuppressed) findings across every
	// analyzed package, position-sorted per package.
	Diags []Diagnostic
	// StaleIgnores are //lint:ignore comments that suppressed nothing,
	// reported under the "staleignore" pseudo-analyzer.
	StaleIgnores []Diagnostic
}

// RunTree loads the packages matched by patterns (tests included),
// computes cross-package facts over every loaded package in dependency
// order, and runs each suite analyzer over the packages it applies to.
func RunTree(dir string, patterns []string) (*TreeReport, error) {
	suite := func(modulePath string) func(string) []*Analyzer {
		entries := Suite(modulePath)
		return func(pkgPath string) []*Analyzer {
			var as []*Analyzer
			for _, e := range entries {
				if e.AppliesTo(pkgPath) {
					as = append(as, e.Analyzer)
				}
			}
			return as
		}
	}
	return analyzeTree(dir, patterns, suite)
}

// AnalyzeModule runs the given analyzers, with cross-package facts, over
// every package of the module at dir matched by patterns. It is the
// entry point for tooling and for linttest's multi-package fixtures; the
// repository suite goes through RunTree, which scopes per package.
func AnalyzeModule(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	rep, err := analyzeTree(dir, patterns, func(string) func(string) []*Analyzer {
		return func(string) []*Analyzer { return analyzers }
	})
	if err != nil {
		return nil, err
	}
	return rep.Diags, nil
}

func analyzeTree(dir string, patterns []string, pick func(modulePath string) func(string) []*Analyzer) (*TreeReport, error) {
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	loader.IncludeTests = true
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return nil, err
	}
	facts := NewFacts(loader.ModulePath())
	for _, pkg := range loader.DependencyOrder() {
		facts.AddPackage(pkg)
	}
	analyzersFor := pick(loader.ModulePath())
	rep := &TreeReport{ModulePath: loader.ModulePath()}
	for _, pkg := range pkgs {
		as := analyzersFor(pkg.Path)
		if len(as) == 0 {
			continue
		}
		diags, stale, err := runAnalyzers(pkg, as, loader.ModulePath(), facts)
		if err != nil {
			return nil, err
		}
		rep.Diags = append(rep.Diags, diags...)
		rep.StaleIgnores = append(rep.StaleIgnores, stale...)
	}
	return rep, nil
}

// RunSuite loads the packages matched by patterns (tests included) and
// runs each analyzer over the packages it applies to, returning the
// surviving findings. Kept for callers that do not need the baseline or
// suppression audit; CI uses RunTree through cmd/vedrlint.
func RunSuite(dir string, patterns []string) ([]Diagnostic, error) {
	rep, err := RunTree(dir, patterns)
	if err != nil {
		return nil, err
	}
	return rep.Diags, nil
}
