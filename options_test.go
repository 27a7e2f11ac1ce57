package tango

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// optionExempt lists exported option fields that no production code sets
// and that stay options, each with the reason. The walk fails for an entry
// that production code starts to set.
var optionExempt = map[string]string{
	"faults.Config.Delay":              faultsParsed,
	"faults.Config.DelayMean":          faultsParsed,
	"faults.Config.DelayStdDev":        faultsParsed,
	"faults.Config.Drop":               faultsParsed,
	"faults.Config.DropTimeout":        faultsParsed,
	"faults.Config.Duplicate":          faultsParsed,
	"faults.Config.Overflow":           faultsParsed,
	"faults.Config.Reorder":            faultsParsed,
	"faults.Config.Reset":              faultsParsed,
	"faults.Config.Seed":               faultsParsed,
	"classbench.Options.Families":      classbenchTable2,
	"classbench.Options.MaxDepth":      classbenchTable2,
	"classbench.Options.NumRules":      classbenchTable2,
	"classbench.Options.Seed":          classbenchTable2,
	"openflow.SwitchConfig.Set":        "a wire message, not a knob: the codec and the agent fill it",
	"conformance.Options.Workers":      serialReference,
	"experiments.Options.Workers":      serialReference,
	"sched.RunOptions.Concurrent":      paperExtension,
	"sched.RunOptions.GuardTime":       paperExtension,
	"sched.RunOptions.NonGreedy":       paperExtension,
	"sched.RunOptions.Metrics":         ownRegistry,
	"sched.RunOptions.Tracer":          ownRegistry,
	"fleet.Options.Registry":           ownRegistry,
	"fleet.Options.Flight":             ownRegistry,
	"ofconn.ControllerOptions.Metrics": ownRegistry,
}

const (
	faultsParsed     = "set by faults.ParseSpec, beside the declaration, from the commands' -faults flag"
	classbenchTable2 = "the three Table2Configs, beside the declaration, give Table 2's rule sets"
	serialReference  = "Workers 1 is the serial reference the parallel runs are compared against"
	paperExtension   = "the paper's §6 scheduler extensions, measured by TestAblations and TestNonGreedyBatchingWins"
	ownRegistry      = "a telemetry sink a test points at its own registry, tracer or flight recorder"
)

// TestEveryOptionIsSet keeps DESIGN §15's rule: an exported field of an
// exported struct named *Options, *Config or *Opts that no production code
// sets is a constant beside the code that reads it, not an option.
// Production code is every non-test Go file of the module, benchmark/
// included, as loadModule loads it: a knob that only a test turns has no
// caller. See walkOptions for what sets a field.
func TestEveryOptionIsSet(t *testing.T) {
	l := loadModule(t)
	set := walkOptions(l.fset, l.pkgs)
	unset := unsetOptions(set)
	for _, id := range unset {
		if optionExempt[id] == "" {
			t.Errorf("%s: no production code sets it — make it a constant beside the code that reads it", id)
		}
	}
	for id, reason := range optionExempt {
		switch isSet, declared := set[id]; {
		case reason == "":
			t.Errorf("optionExempt names %s without a reason", id)
		case !declared:
			t.Errorf("optionExempt names %s, which is not an exported option field", id)
		case isSet:
			t.Errorf("optionExempt names %s, which production code sets", id)
		}
	}
	t.Logf("%d exported option fields, %d set by no production code", len(set), len(unset))
}

// TestOptionWalkRules runs the walk on testdata/optionwalk, which holds one
// case per setting rule, and checks the exact set it flags.
func TestOptionWalkRules(t *testing.T) {
	l := newModuleLoader(loadModule(t))
	if _, err := l.load("tango/testdata/optionwalk"); err != nil {
		t.Fatal(err)
	}
	want := []string{"optionwalk.Options.Default", "optionwalk.Options.TestOnly"}
	if got := unsetOptions(walkOptions(l.fset, l.pkgs)); !reflect.DeepEqual(got, want) {
		t.Errorf("unset option fields:\n got %q\nwant %q", got, want)
	}
}

// walkOptions maps every exported field of an exported option struct the
// packages declare, as pkg.Type.Field, to whether code outside the field's
// declaring file sets it. A setting is the key of a keyed composite literal
// (also one whose type a slice or map literal elides), the target of an
// assignment, or an &x.F (as handed to a flag), each resolved by the type
// checker to the field. A default written in the declaring file is the
// constant in question, not a caller.
func walkOptions(fset *token.FileSet, pkgs map[string]*loadedPkg) map[string]bool {
	fields, set := map[*types.Var]string{}, map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !isOptionName(tn.Name()) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						fields[f] = p.pkg.Name() + "." + tn.Name() + "." + f.Name()
						set[fields[f]] = false
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			file := fset.File(f.Pos())
			mark := func(id *ast.Ident) {
				if v, ok := p.info.Uses[id].(*types.Var); ok && fields[v] != "" && fset.File(v.Pos()) != file {
					set[fields[v]] = true
				}
			}
			markField := func(e ast.Expr) {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					mark(sel.Sel)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if k, ok := n.Key.(*ast.Ident); ok {
						mark(k)
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							markField(l)
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markField(n.X)
					}
				}
				return true
			})
		}
	}
	return set
}

func isOptionName(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts")
}

// unsetOptions lists the option fields nothing sets, sorted.
func unsetOptions(set map[string]bool) []string {
	var names []string
	for name, ok := range set {
		if !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
