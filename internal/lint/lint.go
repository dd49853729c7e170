// Package lint is a stdlib-only static-analysis framework plus the suite of
// analyzers that encode this repository's determinism and diagnosis
// invariants (see DESIGN.md §8 and §13). The simulator's value proposition
// is *reproducible* diagnosis: the waiting graph, per-step thresholds and
// contributor ratings (Eqs. 1–3) must come out identical for identical
// inputs, and the crash-safe daemon around them must not swallow errors or
// touch lock-guarded state unlocked. The analyzers reject the code patterns
// that silently break those properties — wall-clock reads, globally seeded
// randomness, order-dependent map iteration, library panics, exact
// floating-point equality, unguarded access to mutex-protected fields and
// discarded error returns. Each stays only while some one-line mutation of
// the tree is caught by it and by nothing else (DESIGN.md §13 keeps the
// table).
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can migrate to the upstream framework
// when the dependency becomes available; until then everything here is
// built on go/ast, go/parser and go/types alone, one package at a time.
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

// ignoreRE matches the suppression comment: one analyzer name, then a
// mandatory reason, matching staticcheck's //lint:ignore convention.
var ignoreRE = regexp.MustCompile(`^//lint:ignore\s+(\w+)\s+\S`)

// suppression is one //lint:ignore comment. It covers its own line
// (trailing-comment form) and the line immediately below (standalone
// form). used records whether it suppressed a diagnostic; one that did
// not is stale.
type suppression struct {
	pos  token.Position
	name string
	used bool
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) []*suppression {
	var sups []*suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := ignoreRE.FindStringSubmatch(c.Text); m != nil {
					sups = append(sups, &suppression{pos: fset.Position(c.Pos()), name: m[1]})
				}
			}
		}
	}
	return sups
}

// suppressed reports whether a suppression covers d, marking every match
// used.
func suppressed(sups []*suppression, d Diagnostic) bool {
	hit := false
	for _, s := range sups {
		if s.name == d.Analyzer && s.pos.Filename == d.Pos.Filename &&
			(d.Pos.Line == s.pos.Line || d.Pos.Line == s.pos.Line+1) {
			s.used = true
			hit = true
		}
	}
	return hit
}

// RunAnalyzers executes the analyzers over one loaded package and returns
// the findings no //lint:ignore covers, plus one StaleIgnore finding per
// suppression that covered nothing in this run (including one naming an
// analyzer that did not run), sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runAnalyzers(pkg, analyzers, "")
}

func runAnalyzers(pkg *Package, analyzers []*Analyzer, modulePath string) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			ModulePath: modulePath,
			diags:      &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sups := collectSuppressions(pkg.Fset, pkg.Files)
	var kept []Diagnostic
	for _, d := range raw {
		if !suppressed(sups, d) {
			kept = append(kept, d)
		}
	}
	for _, s := range sups {
		if !s.used {
			kept = append(kept, Diagnostic{
				Analyzer: StaleIgnore,
				Pos:      s.pos,
				Message:  fmt.Sprintf("stale //lint:ignore %s: it suppresses nothing on this or the next line; delete it", s.name),
			})
		}
	}
	sortDiags(kept)
	return kept, nil
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
