// Package loading without golang.org/x/tools: parse and type-check the
// module's packages and their tests, resolving stdlib imports through
// the compiler's source importer (works offline, needs only GOROOT) and
// module-internal imports recursively through the loader itself.
package lint

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
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("vedrfolnir/internal/sim"); external test
	// packages get a ".test" suffix appended to the base path.
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages of a single module.
// In-package _test.go files join their package; external (package
// foo_test) files become a separate package.
type Loader struct {
	fset       *token.FileSet
	modulePath string
	moduleDir  string
	std        types.Importer
	pkgs       map[string]*Package // by import path
	loading    map[string]bool     // cycle detection
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

// NewLoader locates the enclosing module of dir (walking up to go.mod) and
// prepares a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleRE.FindSubmatch(data)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		modulePath: string(m[1]),
		moduleDir:  root,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// ModulePath returns the module's import path.
func (l *Loader) ModulePath() string { return l.modulePath }

// LoadPatterns resolves go-tool-style patterns ("./...", "./internal/sim")
// relative to the module root and loads every matched package.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.moduleDir, filepath.FromSlash(pat))
		if !recursive {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	var out []*Package
	for _, dir := range sorted {
		pkgs, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory to its module import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.moduleDir)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir loads the package in dir with its in-package tests, and its
// external test package, if any. As under go test, every import resolves
// to a package without its tests, except that the external test package
// imports the package it tests with them.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	_, inTest, ext, err := l.parseDir(dir)
	if err == nil && len(inTest) > 0 {
		pkg, err = l.check(path, dir, append(inTest, pkg.Files...), nil)
	}
	if err != nil || len(ext) == 0 {
		return []*Package{pkg}, err
	}
	xpkg, err := l.check(path+".test", dir, ext, pkg)
	return []*Package{pkg, xpkg}, err
}

// load parses and type-checks the package with the given module import
// path, memoized.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.moduleDir
	if path != l.modulePath {
		rel := strings.TrimPrefix(path, l.modulePath+"/")
		if rel == path {
			return nil, fmt.Errorf("lint: %s is not in module %s", path, l.modulePath)
		}
		dir = filepath.Join(l.moduleDir, filepath.FromSlash(rel))
	}
	files, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg, err := l.check(path, dir, files, nil)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses a directory's Go files into the package's own files,
// its in-package test files and its external test-package files.
func (l *Loader) parseDir(dir string) (own, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		switch {
		case err != nil:
			return nil, nil, nil, err
		case !strings.HasSuffix(name, "_test.go"):
			own = append(own, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return own, inTest, extTest, nil
}

// check type-checks one file set as a package; an import of tested's path
// resolves to tested.
func (l *Loader) check(path, dir string, files []*ast.File, tested *Package) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: &chainImporter{loader: l, tested: tested},
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// chainImporter resolves module-internal imports through the loader and
// everything else through the stdlib source importer.
type chainImporter struct {
	loader *Loader
	tested *Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	l := c.loader
	if c.tested != nil && path == c.tested.Path {
		return c.tested.Types, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
