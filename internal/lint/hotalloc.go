package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc makes per-iteration allocation visible in the declared hot-path
// packages (the simulator's event queue, fabric, kernel, RDMA hosts and the
// sweep engine — see the suite scoping): inside a loop it flags fmt
// formatting calls, map construction, new/&T{} heap allocations, and
// values boxed into interfaces (explicit conversions and variadic ...any
// arguments). Each of these is a malloc (or a whole format machine) per
// event or per packet; the ROADMAP's scaling item needs them hoisted,
// pooled, or replaced with appends.
//
// Cold paths inside loops are exempt: expressions under a return
// statement or a panic call run at most once per loop exit, so
// `return fmt.Errorf(...)` stays legal. Function literals defined inside
// a loop are not descended into (their execution count is unknowable
// here), and test files are skipped.
//
// Anywhere in those packages, loop or not, it also flags a function
// literal that captures a variable when it is passed to the simulation
// kernel's At/After: the event loop is the loop, so that is one heap
// closure per scheduled event. The hot path binds its callbacks once
// (per port, per send) and passes the func value; sites that schedule
// once per run or per rare transition say so with //lint:ignore.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag per-iteration allocations in hot-path loops: fmt formatting, map construction, " +
		"new/&T{} and interface boxing; hoist them out of the loop or reuse buffers. " +
		"Also flag capturing function literals scheduled on sim.Kernel.At/After: bind the callback once",
	Run: runHotAlloc,
}

// hotFmtFuncs are the fmt entry points that build a formatter and a string
// per call.
var hotFmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok {
				checkScheduledClosure(pass, call)
			}
			if _, ok := n.(*ast.FuncLit); ok && inLoopBody(stack) {
				return false
			}
			if !inLoopBody(stack) || onColdPath(stack) {
				return true
			}
			checkHotNode(pass, n, stack)
			return true
		})
	}
	return nil
}

// checkScheduledClosure flags a capturing function literal passed to the
// module's (*sim.Kernel).At or After.
func checkScheduledClosure(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(call, pass.TypesInfo)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pass.ModulePath+"/internal/sim" ||
		(fn.Name() != "At" && fn.Name() != "After") || shortFuncName(fn) != "Kernel."+fn.Name() {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		if v := capturedVar(pass, lit); v != nil {
			pass.Reportf(lit.Pos(),
				"function literal passed to sim.Kernel.%s captures %s: one heap closure per scheduled event; bind the callback once and pass the func value",
				fn.Name(), v.Name())
		}
	}
}

// capturedVar returns the first variable lit uses that is declared outside
// it in an enclosing function (locals, parameters, receivers), or nil when
// the literal is a plain function the compiler allocates statically.
func capturedVar(pass *Pass, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured != nil {
			return captured == nil
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captured = v
		}
		return true
	})
	return captured
}

// inLoopBody reports whether the innermost node sits inside the body of a
// for/range statement on the stack (not in its init/cond/post clauses).
func inLoopBody(stack []ast.Node) bool {
	n := stack[len(stack)-1]
	for _, anc := range stack[:len(stack)-1] {
		var body *ast.BlockStmt
		switch anc := anc.(type) {
		case *ast.ForStmt:
			body = anc.Body
		case *ast.RangeStmt:
			body = anc.Body
		default:
			continue
		}
		if body.Pos() <= n.Pos() && n.Pos() < body.End() {
			return true
		}
	}
	return false
}

// onColdPath reports whether the node runs at most once per loop exit: it
// hangs under a return statement or a panic call.
func onColdPath(stack []ast.Node) bool {
	for _, anc := range stack[:len(stack)-1] {
		switch anc := anc.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(anc.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func checkHotNode(pass *Pass, n ast.Node, stack []ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(n, pass.TypesInfo); fn != nil &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && hotFmtFuncs[fn.Name()] {
			pass.Reportf(n.Pos(),
				"fmt.%s allocates and reflects on every iteration of a hot loop; format outside the loop or use strconv appends",
				fn.Name())
			return
		}
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "make":
				if len(n.Args) > 0 {
					if t := pass.TypesInfo.TypeOf(n.Args[0]); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(n.Pos(),
								"map allocated on every iteration of a hot loop; hoist it out and reuse it (clear to reset)")
						}
					}
				}
				return
			case "new":
				pass.Reportf(n.Pos(), "new allocates on every iteration of a hot loop; hoist or pool the value")
				return
			}
		}
		if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
			// Explicit conversion: boxing when the target is an interface
			// and the operand is concrete.
			if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(n.Args) == 1 {
				if at := pass.TypesInfo.TypeOf(n.Args[0]); at != nil {
					if _, already := at.Underlying().(*types.Interface); !already {
						pass.Reportf(n.Pos(),
							"conversion boxes %s into %s on every iteration of a hot loop",
							at.String(), tv.Type.String())
					}
				}
			}
			return
		}
		reportVariadicBoxing(pass, n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				pass.Reportf(n.Pos(),
					"&composite literal allocates on every iteration of a hot loop; hoist or pool the value")
			}
		}
	case *ast.CompositeLit:
		if t := pass.TypesInfo.TypeOf(n); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(n.Pos(),
					"map literal allocated on every iteration of a hot loop; hoist it out and reuse it (clear to reset)")
			}
		}
	}
}

// reportVariadicBoxing flags concrete arguments passed through a
// ...interface{} (or other interface-element) variadic parameter: each one
// is an allocation per iteration.
func reportVariadicBoxing(pass *Pass, call *ast.CallExpr) {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis != token.NoPos {
		return
	}
	params := sig.Params()
	slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
	if !ok {
		return
	}
	if _, isIface := slice.Elem().Underlying().(*types.Interface); !isIface {
		return
	}
	for _, arg := range call.Args[min(params.Len()-1, len(call.Args)):] {
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		if at == types.Typ[types.UntypedNil] {
			continue
		}
		pass.Reportf(call.Pos(),
			"arguments box into %s on every iteration of a hot loop; preformat outside the loop",
			slice.Elem().String())
		return
	}
}
