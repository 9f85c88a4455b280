// Package loading and type-checking for numlint.
//
// numlint must run with `go run ./tools/numlint ./...` in an offline
// container, so it cannot depend on golang.org/x/tools/go/packages.
// Instead it resolves module-local import paths ("batlife/...") straight
// to directories under the module root and type-checks them with
// go/types, delegating standard-library imports to the compiler "source"
// importer. The module has no external requirements (see go.mod), so the
// two importers together cover the whole build graph.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type packageInfo struct {
	path  string
	dir   string
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info

	loading bool
	err     error
}

type loader struct {
	fset    *token.FileSet
	modDir  string
	modPath string
	tags    []string
	std     types.ImporterFrom
	pkgs    map[string]*packageInfo
}

func newLoader(modDir, modPath string, tags []string) *loader {
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		panic("numlint: source importer does not implement ImporterFrom")
	}
	return &loader{
		fset:    fset,
		modDir:  modDir,
		modPath: modPath,
		tags:    tags,
		std:     std,
		pkgs:    map[string]*packageInfo{},
	}
}

// loaded returns every successfully loaded package — requested patterns
// and their transitive module-local imports — sorted by import path, so
// interprocedural passes see one deterministic module-wide view.
func (l *loader) loaded() []*packageInfo {
	out := make([]*packageInfo, 0, len(l.pkgs))
	for _, pi := range l.pkgs {
		if pi.err == nil && !pi.loading && pi.pkg != nil {
			out = append(out, pi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("numlint: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("numlint: no go.mod above %s", dir)
		}
		d = parent
	}
}

func (l *loader) isModuleLocal(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

func (l *loader) dirFor(path string) string {
	if path == l.modPath {
		return l.modDir
	}
	rel := strings.TrimPrefix(path, l.modPath+"/")
	return filepath.Join(l.modDir, filepath.FromSlash(rel))
}

// load parses and type-checks one module-local package, memoized by
// import path.
func (l *loader) load(path string) (*packageInfo, error) {
	if pi, ok := l.pkgs[path]; ok {
		if pi.loading {
			return nil, fmt.Errorf("numlint: import cycle through %s", path)
		}
		return pi, pi.err
	}
	pi := &packageInfo{path: path, dir: l.dirFor(path), fset: l.fset, loading: true}
	l.pkgs[path] = pi
	pi.err = l.loadInto(pi)
	pi.loading = false
	return pi, pi.err
}

func (l *loader) loadInto(pi *packageInfo) error {
	ctx := build.Default
	ctx.BuildTags = append(ctx.BuildTags, l.tags...)
	bp, err := ctx.ImportDir(pi.dir, 0)
	if err != nil {
		return fmt.Errorf("numlint: list %s: %w", pi.dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(pi.dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("numlint: parse: %w", err)
		}
		pi.files = append(pi.files, f)
	}

	pi.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*chainImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pi.pkg, _ = conf.Check(pi.path, l.fset, pi.files, pi.info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("numlint: type errors in %s:\n\t%v", pi.path, typeErrs[0])
	}
	return nil
}

// chainImporter routes module-local imports to the loader and everything
// else (the standard library) to the source importer.
type chainImporter loader

func (c *chainImporter) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *chainImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*loader)(c)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.isModuleLocal(path) {
		pi, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pi.pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// expandPatterns turns command-line package patterns (directories, import
// paths, or the "/..." wildcard) into module-local import paths. The
// wildcard skips nested modules.
func (l *loader) expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		var dir string
		switch {
		case pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "/"):
			abs, err := filepath.Abs(pat)
			if err != nil {
				return nil, err
			}
			dir = abs
		case l.isModuleLocal(pat):
			dir = l.dirFor(pat)
		default:
			return nil, fmt.Errorf("numlint: pattern %q is outside module %s", pat, l.modPath)
		}
		rel, err := filepath.Rel(l.modDir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("numlint: %q is outside module root %s", pat, l.modDir)
		}
		if !recursive {
			if path, ok := l.importPathFor(dir); ok {
				add(path)
			}
			continue
		}
		err = filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			// A directory with its own go.mod is another module, which
			// "/..." does not reach, as in go list.
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != dir && err == nil {
				return filepath.SkipDir
			}
			if path, ok := l.importPathFor(p); ok {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// importPathFor maps an absolute directory to its module import path if
// the directory holds at least one buildable Go file.
func (l *loader) importPathFor(dir string) (string, bool) {
	ctx := build.Default
	ctx.BuildTags = append(ctx.BuildTags, l.tags...)
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil || len(bp.GoFiles) == 0 {
		return "", false
	}
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil {
		return "", false
	}
	if rel == "." {
		return l.modPath, true
	}
	return l.modPath + "/" + filepath.ToSlash(rel), true
}
