// Command numlint is the repository's numeric-safety and dataflow
// linter.
//
// It runs eleven custom analyzers tuned to the battery-lifetime pipeline
// over module-local packages. Four are the per-expression checks from
// PR 1:
//
//	floatcmp      ==/!= on floats outside exact-sentinel comparisons
//	naninf        unguarded division / Log / Sqrt of parameters in float kernels
//	errchecklite  dropped error returns from module-local functions
//	unitsafety    raw numeric literals passed as internal/units quantities
//
// Five are dataflow analyzers built on the CFG engine in
// internal/flow (see docs/STATIC_ANALYSIS.md):
//
//	divguard      division/Log/Sqrt with no *dominating* positivity guard
//	probconserve  probability-vector writes reaching a return unguarded
//	ctxflow       calls that drop an in-scope context.Context
//	sharedcapture unsynchronised goroutine mutation + unbalanced lock paths
//	hotalloc      allocations inside //numlint:hotpath functions
//
// One is interprocedural, built on the module-wide call graph and
// function summaries (internal/callgraph + internal/summary):
//
//	contract      //numlint:requires / ensures verification: bodies must
//	              discharge declared ensures, call sites must satisfy
//	              declared requires
//
// One counts uses module-wide, so every module package is loaded even
// when the patterns name fewer:
//
//	testonly      exported functions and methods of internal packages
//	              that only _test.go files use
//
// The same summaries feed naninf, divguard, and probconserve, so a
// guard in every caller (or a callee's ensures) discharges obligations
// across call boundaries. Run -gen-checks to emit debugchecks-tagged
// runtime asserts for every contract (see docs/STATIC_ANALYSIS.md).
//
// Usage:
//
//	go run ./tools/numlint ./...
//	go run ./tools/numlint -pkgs ./internal/...,./cmd/... -json
//	go run ./tools/numlint -baseline .numlint-baseline.json ./...
//	go run ./tools/numlint -write-baseline .numlint-baseline.json ./...
//	go run ./tools/numlint -tags debugchecks ./internal/check
//
// With no package arguments the whole module is analyzed (every
// package under the module root, including cmd/ and tools/),
// regardless of the current directory.
//
// Findings are suppressed with a trailing or preceding comment:
//
//	//numlint:ignore <analyzer> <reason>
//
// or accepted wholesale in .numlint-baseline.json (see -baseline).
// Exit status: 0 clean (or all findings baselined), 1 new findings,
// 2 load or usage errors. See docs/STATIC_ANALYSIS.md for the full
// contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

var analyzers = []*Analyzer{
	floatcmpAnalyzer,
	naninfAnalyzer,
	errcheckliteAnalyzer,
	unitsafetyAnalyzer,
	divguardAnalyzer,
	probconserveAnalyzer,
	ctxflowAnalyzer,
	sharedcaptureAnalyzer,
	hotallocAnalyzer,
	contractAnalyzer,
	testonlyAnalyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("numlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tags := fs.String("tags", "", "comma-separated extra build tags")
	verbose := fs.Bool("v", false, "log packages as they are analyzed")
	pkgsFlag := fs.String("pkgs", "", "comma-separated package patterns (combined with positional patterns)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON report on stdout")
	baselinePath := fs.String("baseline", "", "baseline file; findings matching it do not fail the run")
	writeBaselinePath := fs.String("write-baseline", "", "write current findings to this baseline file and exit 0")
	genChecksFlag := fs.Bool("gen-checks", false, "write debugchecks runtime shims for every //numlint:requires/ensures contract, then exit")
	verifyGenFlag := fs.Bool("verify-gen-checks", false, "fail if the generated contract shims are out of sync with the contracts (CI mode)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: numlint [-tags tag,...] [-pkgs p1,p2] [-json] [-baseline file] [-write-baseline file] [-gen-checks | -verify-gen-checks] [-v] [packages...]")
		fmt.Fprintln(stderr, "analyzers:")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if *pkgsFlag != "" {
		for _, p := range strings.Split(*pkgsFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				patterns = append(patterns, p)
			}
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "numlint:", err)
		return 2
	}
	modDir, modPath, err := findModule(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(patterns) == 0 {
		// Default: the whole module, independent of the working
		// directory numlint happens to be invoked from.
		patterns = []string{modPath + "/..."}
	}
	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}
	l := newLoader(modDir, modPath, tagList)

	paths, err := l.expandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "numlint: no packages match", patterns)
		return 2
	}

	// Phase one: load every requested package (plus transitive deps via
	// the import chain) so the interprocedural layer sees the whole set.
	var pis []*packageInfo
	for _, path := range paths {
		if *verbose {
			fmt.Fprintln(stderr, "numlint: loading", path)
		}
		pi, err := l.load(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pis = append(pis, pi)
	}
	// testonly counts uses module-wide, so the importers of a requested
	// package must be loaded too.
	all, err := l.expandPatterns([]string{modPath + "/..."})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, path := range all {
		if _, err := l.load(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	inter := buildInter(l)

	if *genChecksFlag || *verifyGenFlag {
		return runGenChecks(genChecks(l, inter), *verifyGenFlag, stderr)
	}

	// Phase two: run the analyzers per requested package against the
	// shared summaries.
	var diags []Diagnostic
	for _, pi := range pis {
		if *verbose {
			fmt.Fprintln(stderr, "numlint: analyzing", pi.path)
		}
		diags = append(diags, runAnalyzers(pi, modPath, inter)...)
	}

	if *writeBaselinePath != "" {
		if err := writeBaseline(*writeBaselinePath, modDir, diags); err != nil {
			fmt.Fprintln(stderr, "numlint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "numlint: wrote %d finding(s) to %s\n", len(diags), *writeBaselinePath)
		return 0
	}

	newFindings := diags
	var accepted []Diagnostic
	if *baselinePath != "" {
		b, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		newFindings, accepted = filterBaseline(b, modDir, diags)
	}

	if *jsonOut {
		if err := writeJSONReport(stdout, modDir, newFindings, accepted); err != nil {
			fmt.Fprintln(stderr, "numlint:", err)
			return 2
		}
	} else {
		for _, d := range newFindings {
			fmt.Fprintln(stdout, d)
		}
	}

	if *verbose || len(newFindings) > 0 {
		fmt.Fprintf(stderr, "numlint: %d new finding(s), %d baselined, %d package(s)\n",
			len(newFindings), len(accepted), len(paths))
	}
	if len(newFindings) > 0 {
		return 1
	}
	return 0
}
