// Package linttest is an analysistest-style harness for the lint suite's
// analyzers: it loads a testdata package, runs one analyzer, and compares
// the reported diagnostics against `// want "regexp"` comments placed on
// the offending lines. Both directions are checked — every diagnostic must
// be expected, and every expectation must fire. //lint:ignore suppressions
// are honored and audited, so testdata can also exercise the suppression
// path and the stale-suppression report.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vedrfolnir/internal/lint"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// expectation is one `// want` pattern anchored to a file line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the package rooted at dir (e.g. "testdata/src/nosystime/a"),
// applies the analyzer, and reports mismatches through t. Testdata
// packages may import only the standard library.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	pkg, err := loadTestdata(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants, err := parseExpectations(pkg.Fset, pkg.Files)
	if err != nil {
		t.Fatalf("parsing expectations in %s: %v", dir, err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("expected diagnostic matching %q at %s:%d, got none", w.pattern, w.file, w.line)
		}
	}
}

// claim marks the first unmatched expectation that covers d.
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func parseExpectations(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				qs := quotedRE.FindAllStringSubmatch(m[1], -1)
				if len(qs) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment without quoted pattern", pos.Filename, pos.Line)
				}
				for _, q := range qs {
					text := q[1]
					if q[2] != "" {
						text = q[2]
					}
					re, err := regexp.Compile(text)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, text, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out, nil
}

// loadTestdata parses and type-checks a self-contained testdata package.
func loadTestdata(dir string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Package{Path: tpkg.Path(), Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
