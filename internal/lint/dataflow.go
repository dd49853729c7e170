// Intra-procedural dataflow helpers shared by the guardedfield and errdrop
// analyzers: constructor-fresh locals and callee resolution, all over
// go/ast and go/types. Deliberately no SSA: def-use over types.Info covers
// the invariants this suite enforces and keeps the framework stdlib-only.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// calleeFunc resolves the function or method a call statically invokes,
// or nil for builtins, conversions, and calls through function values.
func calleeFunc(call *ast.CallExpr, info *types.Info) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// freshLocals returns the local variables of body that are initialized
// from a composite literal, new, or make in the function itself. Until
// such a value escapes, no other goroutine can reach it, so guarded-field
// accesses through these locals are the constructor pattern, not races.
func freshLocals(body ast.Node, info *types.Info) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil && isFreshExpr(as.Rhs[i]) {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

// isFreshExpr reports whether e constructs a brand-new value: a composite
// literal (optionally behind &) or a new/make call.
func isFreshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new" || id.Name == "make"
		}
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
