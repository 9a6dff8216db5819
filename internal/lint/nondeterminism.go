package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicPkgs are the module packages whose outputs must be
// byte-identical per seed — the determinism contract ARCHITECTURE.md
// states and the seed pin tests enforce after the fact. The analyzers
// apply their strictest rules here.
var deterministicPkgs = map[string]bool{
	"internal/sim":         true,
	"internal/fleet":       true,
	"internal/experiments": true,
	"internal/queueing":    true,
	"internal/netem":       true,
	"internal/policy":      true,
	"internal/alloc":       true,
	// The learning layer: learned trajectories are part of every sweep
	// report, so arm draws and weight updates must replay exactly from
	// the run seed — no clocks, no math/rand, no map-order leaks.
	"internal/learn": true,
	"internal/stats": true,
	// The telemetry layer: metric snapshots are part of the determinism
	// contract (byte-identical per seed at any shard or worker count),
	// so the registry and recorder must never read clocks or leak map
	// order. The wall-clock side (Prometheus/pprof HTTP) lives in the
	// same package but reads no clocks itself.
	"internal/obs": true,
	// The content pipeline: measured byte/PSNR ladders feed controller
	// calibration, so one nondeterministic byte here breaks every seed
	// pin above it (same seed ⇒ identical profile ⇒ identical report).
	"internal/content":    true,
	"internal/octree":     true,
	"internal/synthetic":  true,
	"internal/render":     true,
	"internal/quality":    true,
	"internal/ply":        true,
	"internal/pointcloud": true,
}

// IsDeterministic reports whether the package at pkgPath (a full
// import path) is part of the byte-determinism contract: reports it
// produces must be identical for identical seeds, so wall-clock reads
// and unordered map iteration are forbidden rather than merely
// suspicious.
func IsDeterministic(pkgPath string) bool {
	i := strings.Index(pkgPath, "internal/")
	if i < 0 {
		return false
	}
	return deterministicPkgs[pkgPath[i:]]
}

// NondeterminismAnalyzer forbids the three classic determinism leaks.
// Wall-clock reads (time.Now, time.Since) and math/rand imports are
// forbidden module-wide: every stochastic component takes a *geom.RNG
// seeded from the experiment config, and genuinely wall-clock code
// (stream pacing, bench timing) must carry a reasoned //qarv:allow.
// Map iteration is additionally checked inside the deterministic
// packages: a range over a map whose body feeds ordered output
// (appends to an outer slice, writes, prints, or sends) is a finding
// unless the collected slice is sorted afterwards in the same
// function. Order-insensitive map loops (counters, map-to-map
// rewrites) are clean; note that floating-point accumulation across a
// map range is still order-sensitive in the last bits and stays the
// reviewer's job.
var NondeterminismAnalyzer = &Analyzer{
	Name: "nondeterminism",
	Doc: "forbid time.Now/time.Since and math/rand everywhere, and map iteration " +
		"feeding ordered output in the deterministic packages (sim, fleet, experiments, " +
		"queueing, netem, policy, alloc, stats, obs, and the content pipeline: content, octree, " +
		"synthetic, render, quality, ply, pointcloud); wall-clock sites carry //qarv:allow with a reason",
	Run: runNondeterminism,
}

// runNondeterminism applies the wall-clock, math/rand, and map-order
// checks to one package.
func runNondeterminism(pass *Pass) error {
	strict := IsDeterministic(pass.PkgPath)
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "import of math/rand breaks seed reproducibility; use geom.RNG")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if isPkgFunc(pass, sel, "time", "Now") || isPkgFunc(pass, sel, "time", "Since") {
					pass.Reportf(sel.Pos(), "wall-clock read time.%s in deterministic code; derive timing from slots or //qarv:allow with a reason", sel.Sel.Name)
				}
			}
			return true
		})
		if strict {
			checkMapOrder(pass, f)
		}
	}
	return nil
}

// isPkgFunc reports whether sel is a reference to pkgName.funcName
// where the selector base resolves to an imported package of that
// path.
func isPkgFunc(pass *Pass, sel *ast.SelectorExpr, pkgPath, funcName string) bool {
	if sel.Sel.Name != funcName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// checkMapOrder flags map-range loops that feed ordered output without
// a subsequent sort.
func checkMapOrder(pass *Pass, f *ast.File) {
	// Walk function by function so "sorted later" is scoped to the
	// enclosing function body.
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			reportMapRange(pass, fn, rng)
			return true
		})
	}
}

// reportMapRange decides whether one map-range loop feeds ordered
// output and reports it if no later sort redeems it.
func reportMapRange(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt) {
	var appendTargets []types.Object
	ordered := false
	orderedWhy := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			ordered, orderedWhy = true, "sends on a channel"
		case *ast.AssignStmt:
			// x = append(x, ...) into a slice declared outside the
			// loop collects in iteration order.
			if obj := appendTarget(pass, x); obj != nil && !declaredWithin(pass, obj, rng) {
				appendTargets = append(appendTargets, obj)
			}
			// s += ... string concatenation accumulates in iteration
			// order.
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 {
				if t := pass.Info.TypeOf(x.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						ordered, orderedWhy = true, "concatenates strings"
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
						ordered, orderedWhy = true, "formats output with fmt."+sel.Sel.Name
					}
				}
				if strings.HasPrefix(sel.Sel.Name, "Write") {
					ordered, orderedWhy = true, "writes via "+sel.Sel.Name
				}
			}
		}
		return true
	})
	if ordered {
		pass.Reportf(rng.Pos(), "map iteration %s in iteration order; iterate sorted keys instead", orderedWhy)
		return
	}
	for _, obj := range appendTargets {
		if !sortedAfter(pass, fn, rng, obj) {
			pass.Reportf(rng.Pos(), "map iteration appends to %q without a subsequent sort; sort it or iterate sorted keys", obj.Name())
			return
		}
	}
}

// appendTarget returns the object assigned by a `v = append(v, ...)`
// statement, or nil.
func appendTarget(pass *Pass, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fid, ok := call.Fun.(*ast.Ident)
	if !ok || fid.Name != "append" {
		return nil
	}
	if _, isBuiltin := pass.Info.Uses[fid].(*types.Builtin); !isBuiltin {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[lhs]
	if obj == nil {
		obj = pass.Info.Defs[lhs]
	}
	return obj
}

// declaredWithin reports whether obj's declaration lies inside node's
// source range (a slice created inside the loop is per-iteration state,
// not cross-iteration ordered output).
func declaredWithin(pass *Pass, obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call after the range statement within fn's body.
func sortedAfter(pass *Pass, fn *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		p := pn.Imported().Path()
		if p != "sort" && p != "slices" {
			return true
		}
		// Any argument (possibly inside a func literal, as in
		// sort.Slice(keys, func(i, j int) bool {...})) referencing the
		// collected slice counts.
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if aid, ok := m.(*ast.Ident); ok && pass.Info.Uses[aid] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
