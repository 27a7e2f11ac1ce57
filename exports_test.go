package tango

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportExempt lists exported functions under internal/ that production code
// does not call but that stay, each with the reason. The walk fails for an
// entry that gains a production caller. Production code is every non-test Go
// file of the module: the root facade, internal/, the commands under cmd/
// (the module's only main packages, each with tests of its own) and
// benchmark/. A main package anywhere else would make calls count that no
// test runs; CI's "Every main package is a tested command" step allows none.
var exportExempt = map[string]string{
	"switchsim.Switch.InTCAM":         "ground truth: the emulator's tests read which tier holds a rule",
	"probe.Engine.Label":              "ground truth: the probe, ofconn and conformance tests read which device an engine names",
	"flowtable.L2ProbeMatch":          "fixture: the flowtable, openflow and switchsim tests build L2-only rules with it",
	"fleet.Result.Deterministic":      "the differential contract TestFleetShardedDifferential compares",
	"structlayout.Check":              "test support: the layout tests of two packages call it",
	"fleet.Service.Scores":            "the fleet's score database, which ROADMAP item 3's tangosched -db is to consume",
	"switchsim.Switch.SetPortDown":    "the link-failure event TestFailoverOverTCP raises, which starts the PORT_STATUS loop a live controller reroutes on",
	"ofconn.Controller.Notifications": "the channel TestFailoverOverTCP reads the PORT_STATUS from, which a live controller reroutes on",
}

// TestEveryExportHasACaller keeps DESIGN §17's rule: an exported function or
// method under internal/ has a caller outside _test.go files, or it goes (or
// moves into the tests that use it). The walk type-checks every package of
// the module, benchmark/ included, from source, and counts every reference
// outside the function's own body. A concrete method also counts as called
// when its type implements an interface one of whose methods is referenced,
// or one the standard library calls implicitly (error, fmt.Stringer,
// json.Marshaler/Unmarshaler, sort/heap.Interface, Unwrap/Is). Instantiated
// generic methods resolve to their origin.
func TestEveryExportHasACaller(t *testing.T) {
	l := loadModule(t)

	called := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	for _, it := range l.implicitInterfaces(t) {
		ifaces[it] = true
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					called[fn.Origin()] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						if it, ok := recv.Type().Underlying().(*types.Interface); ok {
							ifaces[it] = true
						}
					}
					return true
				})
			}
		}
	}
	// A concrete method is called through any interface its type implements.
	for _, p := range l.pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := mset.Lookup(nil, it.Method(i).Name()); sel != nil {
						called[sel.Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	exported := map[string]bool{}
	var uncalled []string
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "tango/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				id := exportName(p.pkg, fd)
				exported[id] = true
				switch fn := p.info.Defs[fd.Name].(*types.Func); {
				case called[fn] && exportExempt[id] != "":
					t.Errorf("exportExempt names %s, which production code calls", id)
				case !called[fn] && exportExempt[id] == "":
					uncalled = append(uncalled, id)
				}
			}
		}
	}
	sort.Strings(uncalled)
	for _, id := range uncalled {
		t.Errorf("%s: no non-test code calls it — delete it, or move it into the tests that use it", id)
	}
	for id := range exportExempt {
		if !exported[id] {
			t.Errorf("exportExempt names %s, which is not an exported function under internal/", id)
		}
	}
	t.Logf("%d packages, %d exported functions under internal/, %d called by no production code", len(l.pkgs), len(exported), len(uncalled))
}

// importPath maps a directory of the repository to its package's import path;
// benchmark/ is the module tango/benchmark, so one rule covers both modules.
func importPath(dir string) string {
	if dir == "." {
		return "tango"
	}
	return "tango/" + dir
}

// exportName spells a function as pkg.Func and a method as pkg.Type.Method.
func exportName(pkg *types.Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg.Name() + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if s, ok := recv.(*ast.StarExpr); ok {
		recv = s.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	return pkg.Name() + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
}

// module is the whole module, type-checked once and shared by the walks.
var module struct {
	once sync.Once
	l    *moduleLoader
	err  error
}

// loadModule type-checks every package of the module, benchmark/ included,
// from source. Directories named testdata or starting with "." are skipped.
func loadModule(t *testing.T) *moduleLoader {
	t.Helper()
	module.once.Do(func() {
		l := newModuleLoader(nil)
		module.err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if bp, err := build.ImportDir(p, 0); err == nil && len(bp.GoFiles) > 0 {
				_, err = l.load(importPath(filepath.ToSlash(p)))
				return err
			}
			return nil
		})
		module.l = l
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.l
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks the module's packages from source, once each, and
// leaves the standard library to the source importer.
type moduleLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*loadedPkg
}

// newModuleLoader returns an empty loader. It reuses std's already
// type-checked standard library when std is not nil.
func newModuleLoader(std *moduleLoader) *moduleLoader {
	if std != nil {
		return &moduleLoader{fset: std.fset, std: std.std, pkgs: map[string]*loadedPkg{}}
	}
	fset := token.NewFileSet()
	return &moduleLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom), pkgs: map[string]*loadedPkg{}}
}

func (l *moduleLoader) Import(p string) (*types.Package, error) { return l.ImportFrom(p, "", 0) }

func (l *moduleLoader) ImportFrom(p, dir string, mode types.ImportMode) (*types.Package, error) {
	if p != "tango" && !strings.HasPrefix(p, "tango/") {
		return l.std.ImportFrom(p, dir, mode)
	}
	lp, err := l.load(p)
	if err != nil {
		return nil, err
	}
	return lp.pkg, nil
}

func (l *moduleLoader) load(p string) (*loadedPkg, error) {
	if lp := l.pkgs[p]; lp != nil {
		return lp, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(p, "tango"), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, path.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	conf := types.Config{Importer: l}
	if lp.pkg, err = conf.Check(p, l.fset, lp.files, lp.info); err != nil {
		return nil, err
	}
	l.pkgs[p] = lp
	return lp, nil
}

// implicitInterfaces are the interfaces the standard library calls through
// without any reference in the module: formatting, errors, encoding, sorting.
func (l *moduleLoader) implicitInterfaces(t *testing.T) []*types.Interface {
	lookup := func(pkg, name string) *types.Interface {
		p, err := l.std.Import(pkg)
		if err != nil {
			t.Fatal(err)
		}
		return p.Scope().Lookup(name).Type().Underlying().(*types.Interface)
	}
	errType := types.Universe.Lookup("error").Type()
	method := func(name string, params, results *types.Tuple) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, params, results, false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	errs := types.NewSlice(errType)
	return []*types.Interface{
		errType.Underlying().(*types.Interface),
		lookup("fmt", "Stringer"),
		lookup("encoding/json", "Marshaler"),
		lookup("encoding/json", "Unmarshaler"),
		lookup("sort", "Interface"),
		lookup("container/heap", "Interface"),
		method("Unwrap", nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType))),
		method("Unwrap", nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errs))),
		method("Is", types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.Bool]))),
	}
}
