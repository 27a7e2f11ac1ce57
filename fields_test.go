package tango

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fieldExempt lists struct fields under internal/ that production code
// writes but does not read and that stay, each with the reason. A key is
// pkg.Type.Field, or pkg.Type for every field of the type. The walk fails for
// an entry that covers no write-only field.
var fieldExempt = map[string]string{
	"fleet.SwitchSummary": "the per-member ledger is the per-member half of TestFleetShardedDifferential's contract; tangofleet prints only the failing members' fields",
}

// TestEveryFieldIsRead keeps DESIGN §20's rule: a struct field declared under
// internal/, exported or not, is read by code outside _test.go files, or it
// goes with the code that computes it. benchmark/ is part of the module, so a
// field the benchmark reads counts as read. See fieldWalk for what is a read.
func TestEveryFieldIsRead(t *testing.T) {
	l := loadModule(t)
	var pkgs []*loadedPkg
	for _, p := range l.pkgs {
		pkgs = append(pkgs, p)
	}
	w := walkFields(l.fset, pkgs, func(p *types.Package) bool { return strings.HasPrefix(p.Path(), "tango/internal/") })

	covers := map[string]int{}
	var unread []string
	writeOnly := w.writeOnly()
	for _, name := range writeOnly {
		typ := name[:strings.LastIndex(name, ".")]
		switch {
		case fieldExempt[name] != "":
			covers[name]++
		case fieldExempt[typ] != "":
			covers[typ]++
		default:
			unread = append(unread, name)
		}
	}
	for _, name := range unread {
		t.Errorf("%s: no non-test code reads it — delete it with the code that computes it, or give it a reader", name)
	}
	if len(fieldExempt) > 8 {
		t.Errorf("fieldExempt has %d entries, more than 8", len(fieldExempt))
	}
	for key, reason := range fieldExempt {
		switch {
		case reason == "":
			t.Errorf("fieldExempt names %s without a reason", key)
		case !w.declares(key):
			t.Errorf("fieldExempt names %s, which is not a struct type or field under internal/", key)
		case covers[key] == 0:
			t.Errorf("fieldExempt names %s, which production code reads", key)
		}
	}
	t.Logf("%d fields under internal/, %d write-only, %d of them exempt", len(w.fields), len(writeOnly), len(writeOnly)-len(unread))
}

// TestFieldWalkRules runs the walk on testdata/fieldwalk, which holds one
// case per read and write rule, and checks the exact set it flags.
func TestFieldWalkRules(t *testing.T) {
	l := newModuleLoader(loadModule(t))
	p, err := l.load("tango/testdata/fieldwalk")
	if err != nil {
		t.Fatal(err)
	}
	w := walkFields(l.fset, []*loadedPkg{p}, func(*types.Package) bool { return true })
	want := []string{
		"fieldwalk.appended.items",
		"fieldwalk.counted.n",
		"fieldwalk.keyed.unused",
		"fieldwalk.written.m",
		"fieldwalk.written.only",
		"fieldwalk.written.sub",
	}
	if got := w.writeOnly(); !reflect.DeepEqual(got, want) {
		t.Errorf("write-only fields:\n got %q\nwant %q", got, want)
	}
}

// fieldWalk records, for the struct fields declared in the packages it
// checks, whether any code it scans reads them. These are writes, not
// reads: an assignment target, including x.f[k] = v, x.f.g = v on a struct
// value, and delete or clear of x.f; x.f++ and x.f op= v; the f: key of a
// composite literal; and x.f inside the right-hand side of its own
// assignment, as in x.f = append(x.f, v). Every other selection of a field
// is a read, &x.f included, and a promoted selection reads the embedded
// fields it passes through. A whole value handed to fmt, encoding/json or
// reflect, or compared with == or !=, reads all its fields, as does a
// struct used as a map key.
type fieldWalk struct {
	fields map[*types.Var]string // declared fields, by name
	types  map[string]bool       // declared named struct types
	read   map[*types.Var]bool
	whole  map[wholeRead]bool
}

// wholeRead is one readWhole visit: a deep visit covers a shallow one, not
// the other way round.
type wholeRead struct {
	t    types.Type
	deep bool
}

func walkFields(fset *token.FileSet, pkgs []*loadedPkg, check func(*types.Package) bool) *fieldWalk {
	w := &fieldWalk{
		fields: map[*types.Var]string{},
		types:  map[string]bool{},
		read:   map[*types.Var]bool{},
		whole:  map[wholeRead]bool{},
	}
	for _, p := range pkgs {
		if check(p.pkg) {
			w.declare(fset, p)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			w.scan(p.info, f)
		}
		for _, tv := range p.info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				w.readWhole(m.Key(), false)
			}
		}
	}
	return w
}

// declare names every field the package declares: pkg.Type.Field for a
// named struct type's own fields, pkg.file:line.Field for any other.
func (w *fieldWalk) declare(fset *token.FileSet, p *loadedPkg) {
	for _, obj := range p.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			w.types[p.pkg.Name()+"."+tn.Name()] = true
			for i := 0; i < st.NumFields(); i++ {
				w.fields[st.Field(i)] = p.pkg.Name() + "." + tn.Name() + "." + st.Field(i).Name()
			}
		}
	}
	for id, obj := range p.info.Defs {
		if v, ok := obj.(*types.Var); ok && v.IsField() && w.fields[v] == "" {
			pos := fset.Position(id.Pos())
			w.fields[v] = fmt.Sprintf("%s.%s:%d.%s", p.pkg.Name(), filepath.Base(pos.Filename), pos.Line, v.Name())
		}
	}
	for v := range w.fields {
		if v.Name() == "_" {
			delete(w.fields, v)
		}
	}
}

// scan marks the fields one file reads.
func (w *fieldWalk) scan(info *types.Info, f *ast.File) {
	writes := map[*ast.SelectorExpr]bool{}
	// target marks the field selections an assignment to e writes and
	// returns their spellings, for the right-hand side's own-field rule.
	target := func(e ast.Expr) map[string]*types.Var {
		own := map[string]*types.Var{}
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return own
				}
				writes[x] = true
				own[types.ExprString(x)] = sel.Obj().(*types.Var)
				if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
					return own
				}
				e = x.X
				continue
			}
			return own
		}
	}
	// ownReads marks, in rhs, the selections spelled like one of own.
	ownReads := func(rhs ast.Expr, own map[string]*types.Var) {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if x, ok := n.(*ast.SelectorExpr); ok {
				if v := own[types.ExprString(x)]; v != nil && info.Selections[x] != nil && info.Selections[x].Obj() == v {
					writes[x] = true
				}
			}
			return true
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range s.Lhs {
				own := target(lhs)
				switch {
				case len(s.Rhs) == len(s.Lhs):
					ownReads(s.Rhs[i], own)
				default:
					for _, rhs := range s.Rhs {
						ownReads(rhs, own)
					}
				}
			}
		case *ast.IncDecStmt:
			target(s.X)
		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{s.Key, s.Value} {
					if e != nil {
						target(e)
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && len(s.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") {
					target(s.Args[0])
				}
			}
		}
		return true
	})

	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil {
				return true
			}
			w.readPath(sel)
			if sel.Kind() == types.FieldVal && !writes[x] {
				w.read[sel.Obj().(*types.Var).Origin()] = true
			}
		case *ast.CallExpr:
			if fn := calledFunc(info, x); fn != nil && fn.Pkg() != nil && wholeReader(fn) {
				for _, a := range x.Args {
					w.readWhole(info.TypeOf(a), true)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				w.readWhole(info.TypeOf(x.X), false)
				w.readWhole(info.TypeOf(x.Y), false)
			}
		}
		return true
	})
}

// readPath marks the embedded fields a promoted selection passes through.
func (w *fieldWalk) readPath(sel *types.Selection) {
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
		w.read[f.Origin()] = true
		t = f.Type()
	}
}

// readWhole marks every field of t read: through struct and array values
// always, and through pointers, slices and maps when deep (what fmt and
// encoding/json follow, and == does not).
func (w *fieldWalk) readWhole(t types.Type, deep bool) {
	if t == nil || w.whole[wholeRead{t, deep}] || w.whole[wholeRead{t, true}] {
		return
	}
	w.whole[wholeRead{t, deep}] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			w.read[u.Field(i).Origin()] = true
			w.readWhole(u.Field(i).Type(), deep)
		}
	case *types.Array:
		w.readWhole(u.Elem(), deep)
	case *types.Pointer:
		if deep {
			w.readWhole(u.Elem(), deep)
		}
	case *types.Slice:
		if deep {
			w.readWhole(u.Elem(), deep)
		}
	case *types.Map:
		if deep {
			w.readWhole(u.Key(), deep)
			w.readWhole(u.Elem(), deep)
		}
	}
}

// wholeReader reports whether fn reads its arguments whole: anything in
// fmt or encoding/json, and reflect.DeepEqual.
func wholeReader(fn *types.Func) bool {
	switch fn.Pkg().Path() {
	case "fmt", "encoding/json":
		return true
	case "reflect":
		return fn.Name() == "DeepEqual"
	}
	return false
}

func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// writeOnly lists the declared fields nothing reads, sorted.
func (w *fieldWalk) writeOnly() []string {
	var names []string
	for v, name := range w.fields {
		if !w.read[v] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// declares reports whether key names a declared named struct type or one
// of its fields.
func (w *fieldWalk) declares(key string) bool {
	if w.types[key] {
		return true
	}
	for _, name := range w.fields {
		if name == key {
			return true
		}
	}
	return false
}
