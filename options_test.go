package tango

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionExempt lists option fields that are set where the walk below cannot
// see it (an assignment through an embedded or aliased struct, or through a
// value whose type syntax alone does not give), each with the reason. It is
// empty: every field the tree sets is set by a keyed literal or by an
// assignment the walk can type.
var optionExempt = map[string]string{}

// TestEveryOptionIsSet keeps DESIGN §15's rule: an exported field of a struct
// named *Options, *Config or *Opts that no caller sets is a constant, not an
// option. It parses every Go file of the module and fails for each such
// field that no keyed composite literal and no field assignment outside the
// struct's declaring file sets (a default written
// beside the declaration is the constant in question, not a caller). Syntax
// only (go/parser and go/ast): an assignment counts when its target's type
// can be read off a parameter, a receiver, a var declaration, or a := from a
// literal or a call of a package-level function, through struct fields from
// there. A field set only in a way that cannot be typed like that goes in
// optionExempt with the reason. A caller is any Go file of the module, tests
// included: the root facade, internal/, the commands under cmd/ (the
// module's only main packages) and benchmark/. A setting only a test makes
// still runs the option, which a setting in an untested main package would
// not; CI's "Every main package is a tested command" step keeps there from
// being one.
func TestEveryOptionIsSet(t *testing.T) {
	fset := token.NewFileSet()
	w := &optionWalk{
		structs: map[typeRef]*structInfo{},
		funcs:   map[typeRef]typeRef{},
		set:     map[setKey]bool{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
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
		w.files = append(w.files, srcFile{path: filepath.ToSlash(p), dir: path.Dir(filepath.ToSlash(p)), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range w.files {
		w.declare(f)
	}
	for _, f := range w.files {
		w.uses(f)
	}

	fields := map[string]bool{}
	var unset []string
	for ref, s := range w.structs {
		if !s.option {
			continue
		}
		for name := range s.fields {
			if !ast.IsExported(name) {
				continue
			}
			id := fmt.Sprintf("%s.%s.%s", path.Base(ref.dir), ref.name, name)
			if ref.dir == "." {
				id = fmt.Sprintf("tango.%s.%s", ref.name, name)
			}
			fields[id] = true
			if !w.set[setKey{ref, name}] && optionExempt[id] == "" {
				unset = append(unset, id)
			}
		}
	}
	sort.Strings(unset)
	for _, id := range unset {
		t.Errorf("%s: no caller sets it — make it a constant beside the code that reads it", id)
	}
	for id := range optionExempt {
		if !fields[id] {
			t.Errorf("optionExempt names %s, which is not an option field", id)
		}
	}
	t.Logf("%d exported option fields, %d set by no caller", len(fields), len(unset))
}

// typeRef names a declared type by the directory of its package.
type typeRef struct{ dir, name string }

type setKey struct {
	typ   typeRef
	field string
}

type structInfo struct {
	file   string
	option bool
	fields map[string]typeRef // field → its named type, zero when it has none
}

type srcFile struct {
	path, dir string
	ast       *ast.File
}

type optionWalk struct {
	files   []srcFile
	structs map[typeRef]*structInfo
	funcs   map[typeRef]typeRef // package-level function → its first result's named type
	set     map[setKey]bool
}

func isOptionName(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts")
}

// imports maps the names a file imports module packages under to their
// directories: "tango/internal/cluster" is internal/cluster, "tango" is the
// root, and the benchmark module's own path is benchmark.
func imports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		var dir string
		switch {
		case p == "tango":
			dir = "."
		case strings.HasPrefix(p, "tango/"):
			dir = strings.TrimPrefix(p, "tango/")
		default:
			continue
		}
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		m[name] = dir
	}
	return m
}

// named resolves a type expression to the declared type it names, through
// pointers; anything else (slices, maps, funcs, builtins) is the zero ref.
func named(e ast.Expr, dir string, imp map[string]string) typeRef {
	switch e := e.(type) {
	case *ast.StarExpr:
		return named(e.X, dir, imp)
	case *ast.ParenExpr:
		return named(e.X, dir, imp)
	case *ast.Ident:
		return typeRef{dir, e.Name}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if d, ok := imp[x.Name]; ok {
				return typeRef{d, e.Sel.Name}
			}
		}
	}
	return typeRef{}
}

func (w *optionWalk) declare(f srcFile) {
	imp := imports(f.ast)
	for _, d := range f.ast.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Type.Results != nil {
			w.funcs[typeRef{f.dir, fd.Name.Name}] = named(fd.Type.Results.List[0].Type, f.dir, imp)
		}
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, sp := range gd.Specs {
			ts := sp.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			s := &structInfo{file: f.path, option: isOptionName(ts.Name.Name) && ast.IsExported(ts.Name.Name), fields: map[string]typeRef{}}
			for _, fl := range st.Fields.List {
				ft := named(fl.Type, f.dir, imp)
				for _, n := range fl.Names {
					s.fields[n.Name] = ft
				}
			}
			w.structs[typeRef{f.dir, ts.Name.Name}] = s
		}
	}
}

func (w *optionWalk) uses(f srcFile) {
	imp := imports(f.ast)
	for _, d := range f.ast.Decls {
		scope := map[string]typeRef{}
		bind := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, p := range fl.List {
				for _, n := range p.Names {
					scope[n.Name] = named(p.Type, f.dir, imp)
				}
			}
		}
		if fd, ok := d.(*ast.FuncDecl); ok {
			bind(fd.Recv)
			bind(fd.Type.Params)
			bind(fd.Type.Results)
		}
		// Bind before visiting uses: a flat scope per declaration, the last
		// binding of a name winning, is enough for how the tree names things.
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				bind(n.Type.Params)
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, id := range n.Names {
						scope[id.Name] = named(n.Type, f.dir, imp)
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
					break
				}
				for i, l := range n.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						if t := w.typeOf(n.Rhs[i], scope, f.dir, imp); t != (typeRef{}) {
							scope[id.Name] = t
						}
					}
				}
			}
			return true
		})
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				w.literal(n, typeRef{}, f, imp)
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					sel, ok := l.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					base := w.typeOf(sel.X, scope, f.dir, imp)
					if s := w.structs[base]; s != nil && s.option && s.file != f.path {
						w.set[setKey{base, sel.Sel.Name}] = true
					}
				}
			}
			return true
		})
	}
}

// literal records the keyed fields of one composite literal. elided is the
// element type an enclosing slice, array or map literal gives a literal that
// omits its own.
func (w *optionWalk) literal(cl *ast.CompositeLit, elided typeRef, f srcFile, imp map[string]string) {
	t := elided
	var elem typeRef
	switch ty := cl.Type.(type) {
	case nil:
	case *ast.ArrayType:
		t, elem = typeRef{}, named(ty.Elt, f.dir, imp)
	case *ast.MapType:
		t, elem = typeRef{}, named(ty.Value, f.dir, imp)
	default:
		t = named(ty, f.dir, imp)
	}
	if elem != (typeRef{}) {
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
				w.literal(inner, elem, f, imp)
			}
		}
		return
	}
	s := w.structs[t]
	if s == nil || !s.option || s.file == f.path {
		return
	}
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if k, ok := kv.Key.(*ast.Ident); ok {
				w.set[setKey{t, k.Name}] = true
			}
		}
	}
}

// typeOf reads an expression's declared type off the flat scope: identifiers,
// literals (addressed or not), calls of package-level functions, and field
// selections through known structs.
func (w *optionWalk) typeOf(e ast.Expr, scope map[string]typeRef, dir string, imp map[string]string) typeRef {
	switch e := e.(type) {
	case *ast.Ident:
		return scope[e.Name]
	case *ast.ParenExpr:
		return w.typeOf(e.X, scope, dir, imp)
	case *ast.StarExpr:
		return w.typeOf(e.X, scope, dir, imp)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.typeOf(e.X, scope, dir, imp)
		}
	case *ast.CompositeLit:
		if e.Type != nil {
			return named(e.Type, dir, imp)
		}
	case *ast.CallExpr:
		return w.funcs[named(e.Fun, dir, imp)]
	case *ast.SelectorExpr:
		if s := w.structs[w.typeOf(e.X, scope, dir, imp)]; s != nil {
			return s.fields[e.Sel.Name]
		}
	}
	return typeRef{}
}
