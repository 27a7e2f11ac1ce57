package tango

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignCitesLiveFuncs fails for every Test…, Fuzz… or Benchmark… name
// DESIGN.md cites that names no func of the module. Any func counts, tests
// and benchmark/ included, so a citation goes stale only when what it names
// is deleted or renamed.
func TestDesignCitesLiveFuncs(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				funcs[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := map[string]bool{}
	for _, name := range regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*`).FindAllString(string(doc), -1) {
		cited[name] = true
	}
	var stale []string
	for name := range cited {
		if !funcs[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("DESIGN.md cites %s, which names no func of the module", name)
	}
	t.Logf("DESIGN.md cites %d distinct Test/Fuzz/Benchmark names", len(cited))
}
