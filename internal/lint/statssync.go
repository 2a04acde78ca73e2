package lint

import (
	"go/ast"
	"go/types"
)

// StatsSync keeps obs.QueryStats honest: a counter added to the struct
// but forgotten in Add silently under-merges parallel extraction and
// the coordinator's sum over cluster legs; one forgotten in Counters
// AND String is invisible to golden tests and logs; a duration missing
// from StageTime AND String can never be attributed. The analyzer
// checks, in the obs package:
//
//   - every QueryStats field is referenced in Add;
//   - every counter (integer) field is referenced in Counters or
//     String;
//   - every duration field is attributed in StageTime (String alone is
//     not enough: the stage breakdown in logs reads StageTime, not the
//     prose).
var StatsSync = &Analyzer{
	Name: "statssync",
	Doc:  "obs.QueryStats fields appear in Add and in Counters/String (or StageTime)",
	Run:  runStatsSync,
}

func runStatsSync(pass *Pass) error {
	if pass.Pkg.Name == "obs" {
		checkObsMethods(pass)
	}
	return nil
}

// queryStatsType finds the QueryStats named type in scope (obs side) or
// returns nil.
func queryStatsType(pkg *types.Package) (*types.Named, *types.Struct) {
	obj := pkg.Scope().Lookup("QueryStats")
	if obj == nil {
		return nil, nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

func isDurationType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

func checkObsMethods(pass *Pass) {
	named, st := queryStatsType(pass.Pkg.Types)
	if named == nil {
		return
	}
	// Which fields does each method body touch?
	refs := map[string]map[*types.Var]bool{}
	for name := range map[string]bool{"Add": true, "Counters": true, "String": true, "StageTime": true} {
		refs[name] = map[*types.Var]bool{}
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		set, ok := refs[m.Name()]
		if !ok {
			continue
		}
		src := pass.Loader.FuncSource(m)
		if src.Decl == nil || src.Decl.Body == nil {
			continue
		}
		ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := src.Pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if v, ok := s.Obj().(*types.Var); ok {
					set[v] = true
				}
			}
			return true
		})
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		if !refs["Add"][f] {
			pass.Reportf(f.Pos(), "QueryStats field %s is not merged in Add — parallel extraction drops it", f.Name())
		}
		if isDurationType(f.Type()) {
			if !refs["StageTime"][f] {
				pass.Reportf(f.Pos(), "QueryStats duration %s is not attributed in StageTime", f.Name())
			}
		} else if !refs["Counters"][f] && !refs["String"][f] {
			pass.Reportf(f.Pos(), "QueryStats counter %s appears in neither Counters nor String — invisible to tests and logs", f.Name())
		}
	}
}
