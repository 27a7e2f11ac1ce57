package tango

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module uses what it declares (DESIGN §15). Production code is every
// non-test Go file of the module as loadModule loads it: the root facade,
// internal/, the commands under cmd/ (the module's only main packages, each
// with tests of its own) and benchmark/. What only a test sets, calls or
// reads has no caller.

// declKind is one of the three things the walk checks.
type declKind int

const (
	optionDecl declKind = iota // an exported field of an exported *Options, *Config or *Opts struct
	exportDecl                 // an exported function or method under internal/
	fieldDecl                  // a struct field under internal/, exported or not
)

// declKinds says, per kind, what production code does to use one, what to
// do with one it does not use, and how many exemptions the kind may carry.
var declKinds = [...]struct {
	name, verb, fix string
	maxExempt       int
}{
	optionDecl: {"option field", "sets", "make it a constant beside the code that reads it", 25},
	exportDecl: {"exported function", "calls", "delete it, or move it into the tests that use it", 8},
	fieldDecl:  {"struct field", "reads", "delete it with the code that computes it, or give it a reader", 8},
}

// declKey names one declaration of a kind: pkg.Type.Field, pkg.Func or
// pkg.Type.Method, and pkg.file:line.Field for a field of an anonymous
// struct type.
type declKey struct {
	kind declKind
	name string
}

// declExempt lists what production code does not use and stays, each with
// its reason. A fieldDecl entry may name pkg.Type for every field of the
// type. The walk fails for an entry without a reason, one that names
// nothing declared, one that covers nothing unused, and for a kind with
// more entries than its maxExempt.
var declExempt = map[declKey]string{
	{optionDecl, "faults.Config.Delay"}:              faultsParsed,
	{optionDecl, "faults.Config.DelayMean"}:          faultsParsed,
	{optionDecl, "faults.Config.DelayStdDev"}:        faultsParsed,
	{optionDecl, "faults.Config.Drop"}:               faultsParsed,
	{optionDecl, "faults.Config.DropTimeout"}:        faultsParsed,
	{optionDecl, "faults.Config.Duplicate"}:          faultsParsed,
	{optionDecl, "faults.Config.Overflow"}:           faultsParsed,
	{optionDecl, "faults.Config.Reorder"}:            faultsParsed,
	{optionDecl, "faults.Config.Reset"}:              faultsParsed,
	{optionDecl, "faults.Config.Seed"}:               faultsParsed,
	{optionDecl, "classbench.Options.Families"}:      classbenchTable2,
	{optionDecl, "classbench.Options.MaxDepth"}:      classbenchTable2,
	{optionDecl, "classbench.Options.NumRules"}:      classbenchTable2,
	{optionDecl, "classbench.Options.Seed"}:          classbenchTable2,
	{optionDecl, "openflow.SwitchConfig.Set"}:        "a wire message, not a knob: the codec and the agent fill it",
	{optionDecl, "conformance.Options.Workers"}:      serialReference,
	{optionDecl, "experiments.Options.Workers"}:      serialReference,
	{optionDecl, "sched.RunOptions.Concurrent"}:      paperExtension,
	{optionDecl, "sched.RunOptions.GuardTime"}:       paperExtension,
	{optionDecl, "sched.RunOptions.NonGreedy"}:       paperExtension,
	{optionDecl, "sched.RunOptions.Metrics"}:         ownRegistry,
	{optionDecl, "sched.RunOptions.Tracer"}:          ownRegistry,
	{optionDecl, "fleet.Options.Registry"}:           ownRegistry,
	{optionDecl, "fleet.Options.Flight"}:             ownRegistry,
	{optionDecl, "ofconn.ControllerOptions.Metrics"}: ownRegistry,

	{exportDecl, "switchsim.Switch.InTCAM"}:         "ground truth: the emulator's tests read which tier holds a rule",
	{exportDecl, "probe.Engine.Label"}:              "ground truth: the probe, ofconn and conformance tests read which device an engine names",
	{exportDecl, "flowtable.L2ProbeMatch"}:          "fixture: the flowtable, openflow and switchsim tests build L2-only rules with it",
	{exportDecl, "fleet.Result.Deterministic"}:      "the differential contract TestFleetShardedDifferential compares",
	{exportDecl, "structlayout.Check"}:              "test support: the layout tests of two packages call it",
	{exportDecl, "fleet.Service.Scores"}:            "the fleet's score database, which ROADMAP item 3's tangosched -db is to consume",
	{exportDecl, "switchsim.Switch.SetPortDown"}:    "the link-failure event TestFailoverOverTCP raises, which starts the PORT_STATUS loop a live controller reroutes on",
	{exportDecl, "ofconn.Controller.Notifications"}: "the channel TestFailoverOverTCP reads the PORT_STATUS from, which a live controller reroutes on",

	{fieldDecl, "fleet.SwitchSummary"}: "the per-member ledger is the per-member half of TestFleetShardedDifferential's contract; tangofleet prints only the failing members' fields",
}

const (
	faultsParsed     = "set by faults.ParseSpec, beside the declaration, from the commands' -faults flag"
	classbenchTable2 = "the three Table2Configs, beside the declaration, give Table 2's rule sets"
	serialReference  = "Workers 1 is the serial reference the parallel runs are compared against"
	paperExtension   = "the paper's §6 scheduler extensions, measured by TestAblations and TestNonGreedyBatchingWins"
	ownRegistry      = "a telemetry sink a test points at its own registry, tracer or flight recorder"
)

// TestEveryOptionIsSet fails for an exported field of an exported struct
// named *Options, *Config or *Opts that no production code sets outside
// the file declaring it: a default beside the declaration is the constant
// in question, not a caller.
func TestEveryOptionIsSet(t *testing.T) { checkDecls(t, optionDecl) }

// TestEveryExportHasACaller fails for an exported function or method under
// internal/ that no production code calls.
func TestEveryExportHasACaller(t *testing.T) { checkDecls(t, exportDecl) }

// TestEveryFieldIsRead fails for a struct field under internal/ that no
// production code reads: a field it only writes goes with the code that
// computes it.
func TestEveryFieldIsRead(t *testing.T) { checkDecls(t, fieldDecl) }

// checkDecls reports, from the module's one walk, every declaration of kind
// that production code does not use and no exemption covers, and every
// stale exemption of kind.
func checkDecls(t *testing.T, kind declKind) {
	_, decls := loadModule(t)
	k := declKinds[kind]
	declared, covers := map[string]bool{}, map[string]int{}
	var unused []string
	total, idle := 0, 0
	for key, used := range decls {
		if key.kind != kind {
			continue
		}
		total++
		if !used {
			idle++
		}
		typ := key.name[:strings.LastIndex(key.name, ".")]
		declared[key.name] = true
		if kind == fieldDecl {
			declared[typ] = true
		}
		switch {
		case used:
		case declExempt[key] != "":
			covers[key.name]++
		case kind == fieldDecl && declExempt[declKey{kind, typ}] != "":
			covers[typ]++
		default:
			unused = append(unused, key.name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: no production code %s it — %s", name, k.verb, k.fix)
	}
	entries := 0
	for key, reason := range declExempt {
		if key.kind != kind {
			continue
		}
		entries++
		switch {
		case reason == "":
			t.Errorf("declExempt names %s without a reason", key.name)
		case !declared[key.name]:
			t.Errorf("declExempt names %s, which is not a declared %s", key.name, k.name)
		case covers[key.name] == 0:
			t.Errorf("declExempt names %s, which production code %s", key.name, k.verb)
		}
	}
	if entries > k.maxExempt {
		t.Errorf("declExempt has %d %s entries, more than %d", entries, k.name, k.maxExempt)
	}
	t.Logf("%d %ss, %d unused by production code, %d of them exempt", total, k.name, idle, idle-len(unused))
}

// TestOptionWalkRules, TestExportWalkRules and TestFieldWalkRules run the
// walk on testdata/declwalk, which holds one case per rule of each kind,
// and check the exact set of each kind it flags.
func TestOptionWalkRules(t *testing.T) {
	checkRules(t, optionDecl, "declwalk.Options.Default", "declwalk.Options.TestOnly")
}

func TestExportWalkRules(t *testing.T) {
	checkRules(t, exportDecl, "declwalk.CalledByTests", "declwalk.Recurse")
}

func TestFieldWalkRules(t *testing.T) {
	checkRules(t, fieldDecl,
		"declwalk.Options.Assigned", "declwalk.Options.Elided", "declwalk.Options.Keyed",
		"declwalk.Options.Mapped", "declwalk.Options.TestOnly",
		"declwalk.appended.items", "declwalk.counted.n", "declwalk.keyed.unused",
		"declwalk.written.m", "declwalk.written.only", "declwalk.written.sub")
}

func checkRules(t *testing.T, kind declKind, want ...string) {
	l, _ := loadModule(t)
	fixture := newModuleLoader(l)
	if _, err := fixture.load("tango/testdata/declwalk"); err != nil {
		t.Fatal(err)
	}
	var got []string
	for key, used := range walkDecls(fixture, "tango/testdata/") {
		if key.kind == kind && !used {
			got = append(got, key.name)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unused %ss:\n got %q\nwant %q", declKinds[kind].name, got, want)
	}
}

// declWalk is the one pass behind the three checks. It declares the
// option fields, exports and fields of the packages, and records in one
// ast.Inspect of each file what production code sets, calls and reads.
//
// Set: the key of a keyed composite literal (also one whose type a slice or
// map literal elides), the target of an assignment, or an &x.F (as handed
// to a flag), outside the file declaring the field.
//
// Called: any identifier outside the function's own declaration that the
// type checker resolves to it, a generic instance counting for its origin.
// A concrete method also counts as called when its type implements an
// interface one of whose methods is called, or one the standard library
// calls without a reference in the module (implicitInterfaces).
//
// Read: any selection of a field that is not a write, &x.f included; a
// promoted selection reads the embedded fields it passes through. Writes
// are an assignment target, including x.f[k] = v and x.f.g = v on a struct
// value; delete or clear of x.f; x.f++ and x.f op= v; a range-loop =
// target; the f: key of a composite literal; and x.f inside the right-hand
// side of its own assignment, as in x.f = append(x.f, v). A whole value
// handed to fmt, encoding/json or reflect.DeepEqual, or compared with == or
// !=, reads all its fields, as does a struct used as a map key.
type declWalk struct {
	fset   *token.FileSet
	decls  [3]map[types.Object]string // per kind, the declared objects by name
	used   [3]map[types.Object]bool   // per kind, the objects set, called or read
	ifaces map[*types.Interface]bool  // interfaces whose methods count as called
	writes map[*ast.SelectorExpr]bool // field selections that are writes
	whole  map[wholeRead]bool

	info *types.Info  // of the package being scanned
	file *token.File  // being scanned
	self types.Object // the function whose declaration is being scanned
}

// wholeRead is one readWhole visit: a deep visit covers a shallow one, not
// the other way round.
type wholeRead struct {
	t    types.Type
	deep bool
}

// walkDecls walks the loader's packages and maps every declaration to
// whether production code uses it. Exports and fields are those of the
// packages under scope; option fields are those of every package.
func walkDecls(l *moduleLoader, scope string) map[declKey]bool {
	w := &declWalk{
		fset:   l.fset,
		ifaces: map[*types.Interface]bool{},
		writes: map[*ast.SelectorExpr]bool{},
		whole:  map[wholeRead]bool{},
	}
	for k := range w.decls {
		w.decls[k], w.used[k] = map[types.Object]string{}, map[types.Object]bool{}
	}
	for _, it := range l.implicitInterfaces() {
		w.ifaces[it] = true
	}
	for _, p := range l.pkgs {
		w.declare(p, strings.HasPrefix(p.pkg.Path(), scope))
		w.info = p.info
		for _, f := range p.files {
			w.file = l.fset.File(f.Pos())
			for _, d := range f.Decls {
				w.self = nil
				if fd, ok := d.(*ast.FuncDecl); ok {
					w.self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, w.visit)
			}
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				w.readWhole(m.Key(), false)
			}
		}
	}
	w.callImplemented(l.pkgs)
	decls := map[declKey]bool{}
	for k, objs := range w.decls {
		for obj, name := range objs {
			key := declKey{declKind(k), name}
			if all, seen := decls[key]; !seen || all {
				decls[key] = w.used[k][obj]
			}
		}
	}
	return decls
}

// declare names what p declares: its option fields, and its exports and
// fields when inScope.
func (w *declWalk) declare(p *loadedPkg, inScope bool) {
	pkg := p.pkg.Name() + "."
	for _, obj := range p.info.Defs {
		switch obj := obj.(type) {
		case *types.TypeName:
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || obj.IsAlias() {
				continue
			}
			option := obj.Exported() && (strings.HasSuffix(obj.Name(), "Options") ||
				strings.HasSuffix(obj.Name(), "Config") || strings.HasSuffix(obj.Name(), "Opts"))
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				name := pkg + obj.Name() + "." + f.Name()
				if option && f.Exported() && !f.Embedded() {
					w.decls[optionDecl][f] = name
				}
				if inScope && f.Name() != "_" {
					w.decls[fieldDecl][f] = name
				}
			}
		case *types.Func:
			recv := obj.Type().(*types.Signature).Recv()
			if !inScope || !obj.Exported() || recv != nil && types.IsInterface(recv.Type()) {
				continue
			}
			name := pkg
			if recv != nil {
				t := recv.Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				name += t.(*types.Named).Obj().Name() + "."
			}
			w.decls[exportDecl][obj] = name + obj.Name()
		}
	}
	if !inScope {
		return
	}
	for id, obj := range p.info.Defs {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Name() != "_" && w.decls[fieldDecl][v] == "" {
			pos := w.fset.Position(id.Pos())
			w.decls[fieldDecl][v] = fmt.Sprintf("%s%s:%d.%s", pkg, filepath.Base(pos.Filename), pos.Line, v.Name())
		}
	}
}

// visit records what one node sets, calls and reads. ast.Inspect visits a
// node before its children, so the writes a statement marks are known when
// the walk reaches their selections.
func (w *declWalk) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.Ident:
		if fn, ok := w.info.Uses[n].(*types.Func); ok && fn.Origin() != w.self {
			w.used[exportDecl][fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					w.ifaces[it] = true
				}
			}
		}
	case *ast.KeyValueExpr:
		if k, ok := n.Key.(*ast.Ident); ok {
			w.set(k)
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			w.set(n.X)
		}
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			break
		}
		for i, lhs := range n.Lhs {
			w.set(lhs)
			own, rhs := w.target(lhs), n.Rhs
			if len(rhs) == len(n.Lhs) {
				rhs = rhs[i : i+1]
			}
			for _, r := range rhs {
				w.ownWrites(r, own)
			}
		}
	case *ast.IncDecStmt:
		w.target(n.X)
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil {
					w.target(e)
				}
			}
		}
	case *ast.SelectorExpr:
		if sel := w.info.Selections[n]; sel != nil {
			w.readPath(sel)
			if sel.Kind() == types.FieldVal && !w.writes[n] {
				w.used[fieldDecl][sel.Obj().(*types.Var).Origin()] = true
			}
		}
	case *ast.CallExpr:
		var callee *ast.Ident
		switch f := ast.Unparen(n.Fun).(type) {
		case *ast.Ident:
			callee = f
		case *ast.SelectorExpr:
			callee = f.Sel
		}
		switch fn := w.info.Uses[callee].(type) {
		case *types.Builtin:
			if (fn.Name() == "delete" || fn.Name() == "clear") && len(n.Args) > 0 {
				w.target(n.Args[0])
			}
		case *types.Func:
			// fmt, encoding/json and reflect.DeepEqual read their arguments whole.
			if p := fn.Pkg(); p != nil && (p.Path() == "fmt" || p.Path() == "encoding/json") || fn.FullName() == "reflect.DeepEqual" {
				for _, a := range n.Args {
					w.readWhole(w.info.TypeOf(a), true)
				}
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			w.readWhole(w.info.TypeOf(n.X), false)
			w.readWhole(w.info.TypeOf(n.Y), false)
		}
	}
	return true
}

// set records the field e names, as a literal's key or as x.F, as set,
// unless e is in the file declaring the field.
func (w *declWalk) set(e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := w.info.Uses[id].(*types.Var); ok && w.fset.File(v.Pos()) != w.file {
			w.used[optionDecl][v.Origin()] = true
		}
	}
}

// target marks the field selections an assignment to e writes and returns
// their spellings, for the right-hand side's own-field rule.
func (w *declWalk) target(e ast.Expr) map[string]*types.Var {
	own := map[string]*types.Var{}
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := w.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return own
			}
			w.writes[x] = true
			own[types.ExprString(x)] = sel.Obj().(*types.Var)
			if _, ptr := w.info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return own
			}
			e = x.X
		default:
			return own
		}
	}
}

// ownWrites marks, in rhs, the selections spelled like one of own.
func (w *declWalk) ownWrites(rhs ast.Expr, own map[string]*types.Var) {
	ast.Inspect(rhs, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok {
			if v := own[types.ExprString(x)]; v != nil && w.info.Selections[x] != nil && w.info.Selections[x].Obj() == v {
				w.writes[x] = true
			}
		}
		return true
	})
}

// readPath marks the embedded fields a promoted selection passes through.
func (w *declWalk) readPath(sel *types.Selection) {
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		w.used[fieldDecl][f.Origin()] = true
		t = f.Type()
	}
}

// readWhole marks every field of t read: through struct and array values
// always, and through pointers, slices and maps when deep (what fmt and
// encoding/json follow, and == does not).
func (w *declWalk) readWhole(t types.Type, deep bool) {
	if t == nil || w.whole[wholeRead{t, deep}] || w.whole[wholeRead{t, true}] {
		return
	}
	w.whole[wholeRead{t, deep}] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			w.used[fieldDecl][u.Field(i).Origin()] = true
			w.readWhole(u.Field(i).Type(), deep)
		}
	case *types.Array:
		w.readWhole(u.Elem(), deep)
	case *types.Pointer, *types.Slice:
		if deep {
			w.readWhole(u.(interface{ Elem() types.Type }).Elem(), deep)
		}
	case *types.Map:
		if deep {
			w.readWhole(u.Key(), deep)
			w.readWhole(u.Elem(), deep)
		}
	}
}

// callImplemented counts a concrete method as called through any interface
// in w.ifaces its type implements. The match walks each named type's method
// set, so a method promoted through embedding counts for the type that
// declares it.
func (w *declWalk) callImplemented(pkgs map[string]*loadedPkg) {
	for _, p := range pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for it := range w.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := mset.Lookup(nil, it.Method(i).Name()); sel != nil {
						w.used[exportDecl][sel.Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
}

// module is the whole module, type-checked and walked once per test binary.
var module struct {
	once  sync.Once
	l     *moduleLoader
	decls map[declKey]bool
	err   error
}

// loadModule type-checks every package of the module, benchmark/ included,
// from source, and walks it. Directories named testdata or starting with
// "." are skipped.
func loadModule(t *testing.T) (*moduleLoader, map[declKey]bool) {
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
				// benchmark/ is the module tango/benchmark, so one rule
				// maps every directory to its import path.
				_, err = l.load(path.Join("tango", filepath.ToSlash(p)))
				return err
			}
			return nil
		})
		if module.err == nil {
			module.l, module.decls = l, walkDecls(l, "tango/internal/")
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.l, module.decls
}

type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks the module's packages from source, once each, and
// leaves the standard library to the source importer. Only GoFiles are
// loaded, so _test.go files and files a build constraint excludes are not.
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
	dir := "./" + strings.TrimPrefix(p+"/", "tango/")
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
// They come from the standard library's source, as the module's own imports
// do, so a failed lookup is a broken toolchain.
func (l *moduleLoader) implicitInterfaces() []*types.Interface {
	lookup := func(pkg, name string) *types.Interface {
		p, err := l.std.Import(pkg)
		if err != nil {
			panic(err)
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
