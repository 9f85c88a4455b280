package main

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestInternalImports keeps the CLI on the public facade: its non-test
// files may import only the internal packages that hold no solver —
// the analytic battery, telemetry serving, chart rendering and unit
// parsing. Every analysis goes through batlife.Solver.
func TestInternalImports(t *testing.T) {
	allowed := map[string]bool{
		"batlife/internal/kibam":  true,
		"batlife/internal/obs":    true,
		"batlife/internal/report": true,
		"batlife/internal/units":  true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "batlife/internal/") && !allowed[path] {
				t.Errorf("%s imports %s; solve through the batlife facade instead", name, path)
			}
		}
	}
}
