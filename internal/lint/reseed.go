package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ReseedAnalyzer enforces the run-isolation contract on stochastic
// components. Any named struct holding a *geom.RNG field, directly or
// through embedded structs, owns mutable random state, so a run must be
// able to re-derive that state from its seed (Reseed). A capacity
// process among them, one with a Service(int) float64 method, is also a
// shape that delay.ForRun copies for every run, so it must declare
// ForRun(func() *geom.RNG) delay.ServiceProcess itself: without one,
// delay.ForRun hands every run the prototype, and one promoted from an
// embedded field copies only the embedded state. Types whose RNG is
// deliberately run-scoped (constructed fresh inside the run and never
// reused) carry //qarv:allow reseed with that reason.
var ReseedAnalyzer = &Analyzer{
	Name: "reseed",
	Doc: "structs holding *geom.RNG must implement Reseed(*geom.RNG), and those with a Service(int) float64 " +
		"method must declare their own ForRun(func() *geom.RNG) delay.ServiceProcess, so every run of a " +
		"shape gets its own reseeded copy",
	Run: runReseed,
}

// runReseed checks every named struct type in the package.
func runReseed(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !holdsRNG(st, nil) {
					continue
				}
				if lacks := missingContract(named); lacks != "" {
					pass.Reportf(ts.Pos(), "%s holds *geom.RNG but %s", ts.Name.Name, lacks)
				}
			}
		}
	}
	return nil
}

// holdsRNG reports whether the struct holds a *geom.RNG directly or
// through embedded structs: a type embedding a learner embeds its
// generator, so it owns random state just as surely as a direct field.
// seen guards against embedding cycles.
func holdsRNG(st *types.Struct, seen map[*types.Struct]bool) bool {
	if seen[st] {
		return false
	}
	if seen == nil {
		seen = map[*types.Struct]bool{}
	}
	seen[st] = true
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isRNG(f.Type()) {
			return true
		}
		if !f.Embedded() {
			continue
		}
		ft := f.Type()
		if p, ok := ft.Underlying().(*types.Pointer); ok {
			ft = p.Elem()
		}
		if inner, ok := ft.Underlying().(*types.Struct); ok && holdsRNG(inner, seen) {
			return true
		}
	}
	return false
}

// isRNG reports whether t is geom.RNG or a pointer to it.
func isRNG(t types.Type) bool { return isNamedIn(t, "RNG", "internal/geom") }

// missingContract describes what *T lacks of the contract, "" when it
// is complete: Reseed, and for a capacity process a ForRun of the
// signature delay.ForRun calls, declared on T itself.
func missingContract(named *types.Named) string {
	ms := types.NewMethodSet(types.NewPointer(named))
	var lacks []string
	if lookupMethod(ms, "Reseed") == nil {
		lacks = append(lacks, "Reseed")
	}
	var forRun *types.Selection
	if service := lookupMethod(ms, "Service"); service != nil && isServiceSig(service) {
		if forRun = lookupMethod(ms, "ForRun"); forRun == nil {
			lacks = append(lacks, "ForRun")
		}
	}
	switch {
	case len(lacks) > 0:
		return "lacks " + strings.Join(lacks, " and ")
	case forRun == nil:
		return ""
	case len(forRun.Index()) > 1:
		from := named.Underlying().(*types.Struct).Field(forRun.Index()[0]).Name()
		return "inherits ForRun from " + from + ", which copies only the embedded state; declare ForRun on " +
			named.Obj().Name() + " itself"
	case !isForRunSig(forRun):
		return "its ForRun is " + types.TypeString(forRun.Type(), nil) +
			"; delay.ForRun calls only ForRun(func() *geom.RNG) delay.ServiceProcess"
	}
	return ""
}

// lookupMethod finds a method by name regardless of the querying
// package (the contract methods are exported, but keeping the scan
// explicit means an unexported Reseed still counts).
func lookupMethod(ms *types.MethodSet, name string) *types.Selection {
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return ms.At(i)
		}
	}
	return nil
}

// isServiceSig reports whether the method is Service(int) float64, the
// delay.ServiceProcess capacity method.
func isServiceSig(sel *types.Selection) bool {
	sig := sel.Type().(*types.Signature)
	return sig.Params().Len() == 1 && types.Identical(sig.Params().At(0).Type(), types.Typ[types.Int]) &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.Float64])
}

// isForRunSig reports whether the method is
// ForRun(func() *geom.RNG) delay.ServiceProcess, the one delay.ForRun
// calls.
func isForRunSig(sel *types.Selection) bool {
	sig := sel.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 ||
		!isNamedIn(sig.Results().At(0).Type(), "ServiceProcess", "internal/delay") {
		return false
	}
	stream, ok := sig.Params().At(0).Type().(*types.Signature)
	return ok && stream.Params().Len() == 0 && stream.Results().Len() == 1 && isRNG(stream.Results().At(0).Type())
}
