package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// loadFixture type-checks one testdata package through the real loader
// and returns its unsuppressed diagnostics. Any further packages named
// are loaded first, so their uses of the fixture count module-wide.
func loadFixture(t *testing.T, name string, users ...string) []Diagnostic {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modDir, modPath, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modDir, modPath, nil)
	var pi *packageInfo
	for _, p := range append(users, name) {
		if pi, err = l.load(modPath + "/tools/numlint/testdata/" + p); err != nil {
			t.Fatalf("load fixture %s: %v", p, err)
		}
	}
	return runAnalyzers(pi, modPath, buildInter(l))
}

// keys reduces diagnostics to comparable "analyzer:line" strings.
func keys(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d", d.Analyzer, d.Pos.Line))
	}
	sort.Strings(out)
	return out
}

func assertFindings(t *testing.T, diags []Diagnostic, want []string) {
	t.Helper()
	got := keys(diags)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("findings %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("findings %v, want %v", got, want)
		}
	}
}

func TestFloatcmpFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "floatcmp"), []string{
		"floatcmp:9",
		"floatcmp:25",
	})
}

func TestNanInfFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "naninf"), []string{
		"naninf:9", // math.Log(x)
		"naninf:9", // 1/d
	})
}

func TestErrcheckFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "errcheck"), []string{
		"errchecklite:13",
		"errchecklite:14",
		"errchecklite:15",
		"errchecklite:17",
	})
}

func TestUnitsafetyFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "unitsafety"), []string{
		"unitsafety:21",
		"unitsafety:22",
		"unitsafety:26",
	})
}

func TestDivguardFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "divguard"), []string{
		"divguard:13", // x / d before the branch on d
		"divguard:26", // x / d on the d <= 0 branch
		"divguard:32", // math.Log(x) on the x < 0 branch
	})
}

func TestProbconserveFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "probconserve"), []string{
		"probconserve:15", // BuildUnguarded
		"probconserve:46", // DirtiedAfterCheck
		"probconserve:56", // HalfGuarded
		"probconserve:62", // BareReturn
	})
}

func TestCtxflowFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "ctxflow"), []string{
		"ctxflow:24", // solve(nil, n) with ctx in scope
		"ctxflow:29", // context.Background() with ctx in scope
	})
}

func TestSharedcaptureFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "sharedcapture"), []string{
		"sharedcapture:19", // total++ with no lock
		"sharedcapture:72", // out[next] shared index
		"sharedcapture:73", // next++ with no lock
		"sharedcapture:84", // return with mu held
	})
}

func TestHotallocFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "hotalloc"), []string{
		"hotalloc:22", // make
		"hotalloc:24", // append
		"hotalloc:33", // fmt.Sprintf
		"hotalloc:40", // string concatenation
	})
}

// TestTestonlyFixture loads the fixture's internal package after its
// parent, which calls some of its API: the rest is flagged, except a
// method that satisfies fmt.Stringer and anything unexported.
func TestTestonlyFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "testonly/internal/lib", "testonly"), []string{
		"testonly:11", // TestOnly: called from lib_test.go alone
		"testonly:14", // Recursive: only its own body calls it
		"testonly:29", // T.Unused: no caller
	})
}

// TestContractFixture pins the contract analyzer plus the
// interprocedural behaviour of naninf and divguard: declared requires
// enforced at call sites, ensures discharged (or not) by the body,
// inferred obligations crossing call boundaries, and context facts
// suppressing naninf for helpers guarded at every call site (ctxHelper
// stays clean, leakHelper does not).
func TestContractFixture(t *testing.T) {
	assertFindings(t, loadFixture(t, "contract"), []string{
		"contract:45",  // badScale: scale requires nonzero(d)
		"naninf:57",    // leakHelper division, unguarded call site exists
		"divguard:60",  // leakCaller hands x to leakHelper unguarded
		"contract:90",  // distBad: ensures normalized not established
		"contract:109", // clampBad: ensures positive not established
		"contract:133", // feedBad: consume requires normalized(v)
		"contract:136", // typoContract: unknown predicate
	})
}

// TestRepoIsClean runs every analyzer over the whole module — the same
// gate CI applies with `go run ./tools/numlint ./...` — so a finding
// introduced anywhere in the tree fails the test suite too.
func TestRepoIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modDir, modPath, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modDir, modPath, nil)
	paths, err := l.expandPatterns([]string{filepath.Join(modDir, "...")})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 20 {
		t.Fatalf("expected to discover the whole module, got %d packages: %v", len(paths), paths)
	}
	var pis []*packageInfo
	for _, path := range paths {
		pi, err := l.load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pis = append(pis, pi)
	}
	inter := buildInter(l)
	for _, pi := range pis {
		for _, d := range runAnalyzers(pi, modPath, inter) {
			t.Errorf("%s", d)
		}
	}
}

// TestBaselineFileIsEmpty pins the committed baseline to zero accepted
// findings. TestRepoIsClean proves the raw finding count is zero; this
// test makes sure a regression cannot be hidden by refreshing
// .numlint-baseline.json instead of fixing (or explicitly ignoring) the
// finding. If a baseline entry ever becomes genuinely necessary, update
// this test in the same change with the justification.
func TestBaselineFileIsEmpty(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modDir, _, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(modDir, ".numlint-baseline.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("baseline file: %v", err)
	}
	b, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range b.Findings {
		t.Errorf("baseline accepts a finding: %s in %s: %s (count %d)", e.Analyzer, e.File, e.Message, e.count())
	}
}
