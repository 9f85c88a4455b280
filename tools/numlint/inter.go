// Interprocedural layer: after every requested package is loaded, the
// driver builds one module-wide call graph and summary set
// (internal/callgraph + internal/summary) and hands them to the
// analyzers through Pass.Inter. divguard and probconserve use the
// summaries to discharge guards across call boundaries; the contract
// analyzer enforces //numlint:requires / ensures declarations.
package main

import (
	"go/ast"
	"go/types"

	"batlife/tools/numlint/internal/callgraph"
	"batlife/tools/numlint/internal/summary"
)

// interState is the shared interprocedural view of one numlint run.
type interState struct {
	graph  *callgraph.Graph
	sums   *summary.Set
	issues []summary.Issue

	// bodies caches the per-function solved lattices so divguard and
	// contract don't each re-solve every body.
	bodies map[*ast.FuncDecl]*summary.AnalyzerBody

	// uses counts each function's non-test uses and ifaces indexes
	// interfaces by method name, both for testonly.
	uses   map[*types.Func]int
	ifaces map[string][]*types.Interface
}

// buildInter computes the interprocedural state over everything the
// loader has pulled in (requested patterns plus transitive deps, so
// summaries exist for out-of-pattern callees too).
func buildInter(l *loader) *interState {
	loaded := l.loaded()
	var pkgs []*callgraph.Package
	for _, pi := range loaded {
		pkgs = append(pkgs, &callgraph.Package{
			Path:  pi.path,
			Fset:  pi.fset,
			Files: pi.files,
			Pkg:   pi.pkg,
			Info:  pi.info,
		})
	}
	g := callgraph.Build(pkgs)
	contracts, issues := summary.CollectContracts(pkgs)
	sums := summary.Compute(g, contracts, summary.Options{
		// Obligation inference mirrors the naninf/divguard envelope, so
		// interprocedural findings appear exactly where the
		// intraprocedural ones already would.
		InferBody: func(p *callgraph.Package, fd *ast.FuncDecl) bool {
			return returnsFloatInfo(p.Info, fd) && !docStatesPrecondition(fd.Doc)
		},
	})
	return &interState{
		graph:  g,
		sums:   sums,
		issues: issues,
		bodies: map[*ast.FuncDecl]*summary.AnalyzerBody{},
		uses:   countUses(loaded),
		ifaces: collectInterfaces(loaded),
	}
}

// nodeOf resolves a declaration to its call-graph node.
func (st *interState) nodeOf(info *types.Info, fd *ast.FuncDecl) *callgraph.Node {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	return st.graph.Lookup(fn)
}

// analyzerBody returns the memoized interprocedural lattice view of one
// declared function, or nil when the declaration is unknown.
func (st *interState) analyzerBody(info *types.Info, fd *ast.FuncDecl) *summary.AnalyzerBody {
	if ab, ok := st.bodies[fd]; ok {
		return ab
	}
	n := st.nodeOf(info, fd)
	if n == nil || n.Decl == nil {
		return nil
	}
	ab := st.sums.AnalyzerBody(n)
	st.bodies[fd] = ab
	return ab
}

// hasRequiresContract reports whether fd declares //numlint:requires
// clauses — a machine-readable precondition, which exempts the function
// from naninf/divguard the same way a prose one does.
func (st *interState) hasRequiresContract(info *types.Info, fd *ast.FuncDecl) bool {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	ct := st.sums.ContractOf(fn)
	return ct != nil && len(ct.Requires) > 0
}

// contextPreds returns the predicates every visible call site
// establishes for one of fd's parameters (zero when the function is
// exported, address-taken, a method, or has an unguarded caller). A
// parameter guarded by every caller needs no guard in the body.
func (st *interState) contextPreds(info *types.Info, fd *ast.FuncDecl, obj types.Object) summary.PredSet {
	n := st.nodeOf(info, fd)
	if n == nil {
		return 0
	}
	sum := st.sums.Of(n.Fn)
	if sum == nil || len(sum.Context) == 0 {
		return 0
	}
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	for i := 0; i < sig.Params().Len() && i < len(sum.Context); i++ {
		if sig.Params().At(i) == obj {
			return sum.Context[i]
		}
	}
	return 0
}

// returnsFloatInfo is returnsFloat without a Pass, for use before
// passes exist.
func returnsFloatInfo(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, res := range fd.Type.Results.List {
		t := info.Types[res.Type].Type
		if isFloat(t) {
			return true
		}
		if sl, ok := t.(*types.Slice); ok && isFloat(sl.Elem()) {
			return true
		}
	}
	return false
}
