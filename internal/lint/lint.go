// Package lint is a stdlib-only static-analysis framework plus the suite of
// analyzers that encode this repository's determinism and diagnosis
// invariants (see DESIGN.md "Determinism invariants & linting"). The
// simulator's value proposition is *reproducible* diagnosis: the waiting
// graph, per-step thresholds and contributor ratings (Eqs. 1–3) must come
// out identical for identical inputs, and the crash-safe daemon around them
// must be free of lock-discipline and error-swallowing bugs. The analyzers
// reject the code patterns that silently break those properties — wall-clock
// reads (direct or transitive), globally seeded randomness, order-dependent
// map iteration, library panics, exact floating-point equality, unguarded
// access to mutex-protected fields, discarded error returns, unstoppable
// goroutines and per-iteration allocations in declared hot paths.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can migrate to the upstream framework
// when the dependency becomes available; until then everything here is
// built on go/ast, go/parser and go/types alone. On top of the per-package
// passes sits one module-wide capability: a cross-package fact store
// (facts.go) propagated in dependency order.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. It mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:ignore <name> reason" suppression comments.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ModulePath is the import path of the module under analysis, or ""
	// for single-package runs (linttest); analyzers use it to tell module
	// code from dependencies.
	ModulePath string
	// Facts is the cross-package fact store, populated for every module
	// package in dependency order before any analyzer runs.
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// StaleIgnore is the pseudo-analyzer name under which unused
// //lint:ignore comments are reported: a suppression that no longer
// suppresses anything is debt pretending to be justification.
const StaleIgnore = "staleignore"

// ignoreRE matches the suppression comment. The analyzer list is
// comma-separated; a reason is mandatory, matching staticcheck's
// //lint:ignore convention.
var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+([\w,]+)\s+\S`)

// suppression is one //lint:ignore comment. It covers its own line
// (trailing-comment form) and the line immediately below (standalone
// form). used records whether any diagnostic was actually suppressed, so
// stale comments can be audited away.
type suppression struct {
	pos   token.Position
	names map[string]bool
	list  string // the comma-separated analyzer list as written
	used  bool
}

type suppressionList []*suppression

func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressionList {
	var sups suppressionList
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				s := &suppression{pos: fset.Position(c.Pos()), names: map[string]bool{}, list: m[1]}
				for _, n := range strings.Split(m[1], ",") {
					s.names[n] = true
				}
				sups = append(sups, s)
			}
		}
	}
	return sups
}

// covers reports whether any suppression matches d, marking every match
// used.
func (l suppressionList) covers(d Diagnostic) bool {
	hit := false
	for _, s := range l {
		if s.pos.Filename != d.Pos.Filename {
			continue
		}
		if d.Pos.Line != s.pos.Line && d.Pos.Line != s.pos.Line+1 {
			continue
		}
		if s.names[d.Analyzer] || s.names["all"] {
			s.used = true
			hit = true
		}
	}
	return hit
}

// allows is the side-effect-free variant used during fact extraction: it
// reports whether a finding by the named analyzer at pos would be
// suppressed, without marking anything used.
func (l suppressionList) allows(pos token.Position, name string) bool {
	for _, s := range l {
		if s.pos.Filename == pos.Filename &&
			(pos.Line == s.pos.Line || pos.Line == s.pos.Line+1) &&
			(s.names[name] || s.names["all"]) {
			return true
		}
	}
	return false
}

// stale returns the suppressions that suppressed nothing, restricted to
// comments whose every named analyzer actually ran (a comment naming an
// analyzer outside this run may be load-bearing for another scope, and
// "all" can never be proven stale).
func (l suppressionList) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, s := range l {
		if s.used || s.names["all"] {
			continue
		}
		covered := true
		for n := range s.names {
			if !ran[n] {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: StaleIgnore,
			Pos:      s.pos,
			Message: fmt.Sprintf("stale //lint:ignore %s: it suppresses nothing on this or the next line; delete it",
				s.list),
		})
	}
	return out
}

// RunAnalyzers executes the analyzers over one loaded package, honoring
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// by position. Facts are computed from the package itself; module-wide
// runs go through RunTree, which propagates facts across packages first.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFacts("")
	facts.AddPackage(pkg)
	diags, _, err := runAnalyzers(pkg, analyzers, "", facts)
	return diags, err
}

// runAnalyzers is the shared core: run the analyzers, filter suppressed
// findings, and audit the suppressions themselves.
func runAnalyzers(pkg *Package, analyzers []*Analyzer, modulePath string, facts *Facts) (diags, stale []Diagnostic, err error) {
	var raw []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			ModulePath: modulePath,
			Facts:      facts,
			diags:      &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sups := collectSuppressions(pkg.Fset, pkg.Files)
	var kept []Diagnostic
	for _, d := range raw {
		if !sups.covers(d) {
			kept = append(kept, d)
		}
	}
	sortDiags(kept)
	stale = sups.stale(ran)
	sortDiags(stale)
	return kept, stale, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		if diags[i].Pos.Column != diags[j].Pos.Column {
			return diags[i].Pos.Column < diags[j].Pos.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// moduleFunc reports whether fn is defined in this module (including the
// package under analysis itself, which covers single-package runs where
// ModulePath is empty).
func (p *Pass) moduleFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if pkg == p.Pkg {
		return true
	}
	if p.ModulePath == "" {
		return false
	}
	path := pkg.Path()
	return path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/")
}
