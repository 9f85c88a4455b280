package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestExpandPatternsSkipsNestedModules: the "/..." wildcard reaches
// every package of the module, the root's included, but no directory
// with a go.mod of its own, nor anything below one, as go list does.
func TestExpandPatternsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                 "module example.com/m\n",
		"m.go":                   "package m\n",
		"a/a.go":                 "package a\n",
		"a/deep/d.go":            "package deep\n",
		"nested/go.mod":          "module example.com/m/nested\n",
		"nested/n.go":            "package nested\n",
		"nested/inner/i.go":      "package inner\n",
		"a/sub/go.mod":           "module example.com/m/a/sub\n",
		"a/sub/s.go":             "package sub\n",
		"testdata/fixture/f.go":  "package fixture\n",
		"nogo/readme.txt":        "no Go here\n",
		"nested/inner/more/x.go": "package more\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	modDir, modPath, err := findModule(filepath.Join(root, "a"))
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(modDir, modPath, nil)
	for _, pat := range []string{filepath.Join(root, "..."), "example.com/m/..."} {
		got, err := l.expandPatterns([]string{pat})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(got)
		if want := []string{"example.com/m", "example.com/m/a", "example.com/m/a/deep"}; !slices.Equal(got, want) {
			t.Errorf("%s: packages %v, want %v", pat, got, want)
		}
	}
}
