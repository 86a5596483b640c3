package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Determinism enforces the soundness rules of the detsim harness: every
// schedule decision must flow from the harness PRNG and virtual clock.
// In deterministic scope (the detsim-driven packages plus files carrying
// the //lint:deterministic pragma) it flags wall-clock reads, global
// math/rand use, and goroutine spawns. Repo-wide it flags `range` over a
// map whose body has order-sensitive effects — appends, channel sends,
// writes not keyed by the loop key, or feeds into an order-sensitive
// sink such as the trace hash — unless the collected keys are sorted
// afterwards in the same function or the site carries //lint:sorted.
type Determinism struct{}

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// deterministicPkgs are always in scope for the wall-clock, global-rand,
// and goroutine rules. Other files (e.g. the msgpass driver path) opt in
// with a //lint:deterministic pragma.
var deterministicPkgs = map[string]bool{
	"mcdp/internal/detsim":   true,
	"mcdp/internal/core":     true,
	"mcdp/internal/drinkers": true,
	// The protocol machines detsim and lockservice both drive: a wall
	// clock read in there would be a decision detsim cannot schedule.
	"mcdp/internal/coord": true,
}

// bannedTimeFuncs are the package-level time functions that read or wait
// on the wall clock. Constructors like time.Unix and methods on
// time.Time are pure and stay allowed.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
	"Since": true, "Until": true,
}

// bannedRandFuncs are the package-level math/rand functions backed by
// the global, non-replayable source. rand.New over a seeded source is
// the sanctioned alternative and stays allowed.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true,
	"N": true,
}

// Run implements Analyzer.
func (a *Determinism) Run(_ *Program, p *Package) []Diagnostic {
	var ds []Diagnostic
	for _, f := range p.Files {
		inScope := deterministicPkgs[p.Path] || fileOptsIn(f, "//lint:deterministic")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ds = append(ds, a.runFunc(p, fn.Body, inScope)...)
		}
	}
	return ds
}

// runFunc walks one function body. fnBody is also the scope searched for
// the collect-then-sort idiom.
func (a *Determinism) runFunc(p *Package, fnBody *ast.BlockStmt, inScope bool) []Diagnostic {
	var ds []Diagnostic
	ast.Inspect(fnBody, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !inScope {
				return true
			}
			if d, bad := a.checkNondetCall(p, n); bad {
				ds = append(ds, d)
			}
		case *ast.GoStmt:
			if inScope {
				ds = append(ds, diagnose(p, a.Name(), n,
					"goroutine spawned in deterministic stepper code; all concurrency must be scheduled by the detsim driver"))
			}
		case *ast.RangeStmt:
			ds = append(ds, a.checkMapRange(p, fnBody, n)...)
		}
		return true
	})
	return ds
}

// checkNondetCall flags uses of the banned time and math/rand
// package-level functions. Matching the use (not just calls) also
// catches passing time.Now as a function value.
func (a *Determinism) checkNondetCall(p *Package, sel *ast.SelectorExpr) (Diagnostic, bool) {
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return Diagnostic{}, false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return Diagnostic{}, false // methods (e.g. time.Time.Add) are pure
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[fn.Name()] {
			return diagnose(p, a.Name(), sel,
				"time.%s reads the wall clock and breaks seed replay; use the driver's virtual clock", fn.Name()), true
		}
	case "math/rand", "math/rand/v2":
		if bannedRandFuncs[fn.Name()] {
			return diagnose(p, a.Name(), sel,
				"global math/rand call %s is not seed-replayable; draw from a seeded *rand.Rand owned by the driver", fn.Name()), true
		}
	}
	return Diagnostic{}, false
}

// checkMapRange flags `range` over a map whose body has order-sensitive
// effects. Recognized-safe patterns: writes indexed by exactly the loop
// key (commute), deletes of the ranged map itself, idempotent constant
// assignments, exact commutative accumulation on integers, and appends
// whose target is sorted later in the same function.
func (a *Determinism) checkMapRange(p *Package, fnBody *ast.BlockStmt, rng *ast.RangeStmt) []Diagnostic {
	tv, ok := p.Info.Types[rng.X]
	if !ok {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	var keyObj types.Object
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = p.Info.ObjectOf(id)
	}
	rangedStr := types.ExprString(rng.X)

	var reasons []string
	flag := func(format string, args ...any) {
		reasons = append(reasons, fmt.Sprintf(format, args...))
	}
	// append targets found in the body; checked for a later sort.
	appends := make(map[types.Object]bool)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			flag("sends on channel %s", types.ExprString(n.Chan))
		case *ast.IncDecStmt:
			// x++ / x-- apply the identical delta each iteration:
			// order-independent even for floats.
		case *ast.AssignStmt:
			a.checkRangeAssign(p, rng, keyObj, n, appends, flag)
		case *ast.CallExpr:
			a.checkRangeCall(p, rng, rangedStr, n, flag)
		}
		return true
	})
	for obj := range appends {
		if !sortedAfter(p, fnBody, rng, obj) {
			flag("appends to %s without sorting it afterwards", obj.Name())
		}
	}
	if len(reasons) == 0 {
		return nil
	}
	// One diagnostic per loop; sort the reasons so the reported one is
	// stable across runs.
	sort.Strings(reasons)
	return []Diagnostic{diagnose(p, a.Name(), rng,
		"iteration over map %s is order-sensitive (%s); sort the keys first or annotate //lint:sorted <why>",
		rangedStr, reasons[0])}
}

// checkRangeAssign classifies one assignment inside a map-range body.
func (a *Determinism) checkRangeAssign(p *Package, rng *ast.RangeStmt, keyObj types.Object, as *ast.AssignStmt, appends map[types.Object]bool, flag func(string, ...any)) {
	if as.Tok == token.DEFINE {
		return // new loop-locals
	}
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" || declaredWithin(p, lhs, rng) {
				continue
			}
			a.checkScalarWrite(p, lhs, as.Tok, rhs, appends, flag)
		case *ast.IndexExpr:
			// m2[k] = v keyed by exactly the loop key commutes: each
			// iteration writes a distinct slot.
			if id, ok := lhs.Index.(*ast.Ident); ok && keyObj != nil && p.Info.ObjectOf(id) == keyObj {
				continue
			}
			if baseDeclaredWithin(p, lhs.X, rng) {
				continue
			}
			flag("writes %s with a loop-dependent index", types.ExprString(lhs))
		case *ast.SelectorExpr:
			if baseDeclaredWithin(p, lhs.X, rng) {
				continue
			}
			a.checkScalarWrite(p, lhs, as.Tok, rhs, appends, flag)
		case *ast.StarExpr:
			if baseDeclaredWithin(p, lhs.X, rng) {
				continue
			}
			flag("writes through pointer %s", types.ExprString(lhs))
		}
	}
}

// checkScalarWrite handles `x = rhs` / `x op= rhs` where x outlives the
// loop. Idempotent constant stores and exact commutative accumulation
// are order-independent; everything else is flagged.
func (a *Determinism) checkScalarWrite(p *Package, lhs ast.Expr, tok token.Token, rhs ast.Expr, appends map[types.Object]bool, flag func(string, ...any)) {
	lhsStr := types.ExprString(lhs)
	switch tok {
	case token.ASSIGN:
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(p, call) {
			// x = append(x, ...): defer judgment to the sorted-after
			// check. Field targets (g.edges) use the field object, which
			// the later sort call's selector resolves to as well.
			var target *ast.Ident
			switch lhs := lhs.(type) {
			case *ast.Ident:
				target = lhs
			case *ast.SelectorExpr:
				target = lhs.Sel
			}
			if target != nil {
				if obj := p.Info.ObjectOf(target); obj != nil {
					appends[obj] = true
					return
				}
			}
			flag("appends to %s", lhsStr)
			return
		}
		if isIdempotentRHS(p, rhs) {
			return // x = true / x = 0: same value every iteration
		}
		flag("assigns %s a loop-dependent value (last iteration wins)", lhsStr)
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		// Exact commutative ops: order-independent on integers, not on
		// floats (rounding) or strings (concatenation).
		if t, ok := p.Info.Types[lhs]; ok {
			if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return
			}
		}
		flag("accumulates into %s with a non-commutative or inexact operation", lhsStr)
	case token.SUB_ASSIGN:
		if t, ok := p.Info.Types[lhs]; ok {
			if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return
			}
		}
		flag("accumulates into %s with an inexact operation", lhsStr)
	default:
		flag("updates %s", lhsStr)
	}
}

// checkRangeCall flags order-sensitive calls: deletes of other maps and
// writes into order-sensitive sinks (hashes, writers, fmt.Fprint*).
func (a *Determinism) checkRangeCall(p *Package, rng *ast.RangeStmt, rangedStr string, call *ast.CallExpr, flag func(string, ...any)) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "delete" && p.Info.Uses[fun] == nil && len(call.Args) == 2 {
			// Deleting from the ranged map itself is sanctioned by the
			// spec; deleting elsewhere depends on visit order.
			if types.ExprString(call.Args[0]) != rangedStr {
				flag("deletes from %s", types.ExprString(call.Args[0]))
			}
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if obj, ok := p.Info.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			switch name {
			case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
				flag("emits output via fmt.%s in map order", name)
			}
			return
		}
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			if sel, ok := p.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				if baseDeclaredWithin(p, fun.X, rng) {
					return
				}
				flag("feeds %s (an order-sensitive sink such as the trace hash)", types.ExprString(fun.X))
			}
		}
	}
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call after the range loop in the same function — the sanctioned
// collect-then-sort idiom.
func sortedAfter(p *Package, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isIdempotentRHS reports whether rhs stores the same value every
// iteration (constants, nil): such assignments commute.
func isIdempotentRHS(p *Package, rhs ast.Expr) bool {
	if rhs == nil {
		return false
	}
	if tv, ok := p.Info.Types[rhs]; ok && (tv.Value != nil || tv.IsNil()) {
		return true
	}
	return false
}

// declaredWithin reports whether id's object is declared inside the
// range statement (loop variables and body locals).
func declaredWithin(p *Package, id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := p.Info.ObjectOf(id)
	return obj != nil && rng.Pos() <= obj.Pos() && obj.Pos() < rng.End()
}

// baseDeclaredWithin walks to the base identifier of an access path and
// reports whether it is loop-local (writes to per-iteration values do
// not escape the loop).
func baseDeclaredWithin(p *Package, e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return declaredWithin(p, x, rng)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
