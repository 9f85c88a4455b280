package main

import (
	"go/ast"
	"go/types"
	"strings"
)

// testonlyAnalyzer flags exported functions and methods of internal
// packages that no non-test file in the module uses. Such API exists only
// for tests: nothing served can reach it, so it should be deleted or, when
// a test compares against it, moved into a _test.go file.
//
// Uses are counted module-wide over non-test files (the loader parses no
// _test.go file), so the driver loads every module package before the
// analyzers run. A use inside the function's own body does not count.
// Methods that satisfy an interface are skipped, since a call through
// the interface records no use of the concrete method, and so are
// generated files. A kept exception carries a
// //numlint:ignore testonly directive that gives its reason.
var testonlyAnalyzer = &Analyzer{
	Name: "testonly",
	Doc:  "flag exported internal functions and methods used only by tests",
	Run:  runTestonly,
}

func runTestonly(pass *Pass) {
	if pass.Inter == nil || !isInternalPath(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		if ast.IsGenerated(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || pass.Inter.uses[fn] > 0 {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil && (!ast.IsExported(receiverName(recv.Type())) || pass.Inter.satisfiesInterface(recv.Type(), fn.Name())) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s has no use outside _test.go files", qualifiedName(fn))
		}
	}
}

// isInternalPath reports whether an import path has an "internal"
// element.
func isInternalPath(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return true
		}
	}
	return false
}

// receiverName returns the name of a method receiver's named type.
func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// qualifiedName renders pkg.Func or pkg.Type.Method.
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		name += receiverName(recv.Type()) + "."
	}
	return name + fn.Name()
}

// countUses counts, for every module function, the uses of it in the
// loaded (non-test) files outside its own declaration.
func countUses(pkgs []*packageInfo) map[*types.Func]int {
	uses := map[*types.Func]int{}
	for _, pi := range pkgs {
		decls := map[*types.Func]*ast.FuncDecl{}
		for _, f := range pi.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pi.info.Defs[fd.Name].(*types.Func); ok {
						decls[fn] = fd
					}
				}
			}
		}
		for id, obj := range pi.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
				continue
			}
			uses[fn]++
		}
	}
	return uses
}

// collectInterfaces indexes, by method name, every named interface type
// declared in the loaded packages or in a package they import, plus the
// predeclared error.
func collectInterfaces(pkgs []*packageInfo) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	add := func(scope *types.Scope) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || iface.NumMethods() == 0 {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i).Name()
				byMethod[m] = append(byMethod[m], iface)
			}
		}
	}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		add(p.Scope())
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pi := range pkgs {
		visit(pi.pkg)
	}
	add(types.Universe)
	return byMethod
}

// satisfiesInterface reports whether the receiver type, as a value or a
// pointer, implements an indexed interface that has a method of the given
// name.
func (st *interState) satisfiesInterface(recv types.Type, method string) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, iface := range st.ifaces[method] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
