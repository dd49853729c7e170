package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// GuardedField enforces the `// guarded by <mu>` annotation convention: a
// struct field carrying the annotation may only be read or written while
// the named sibling mutex is held. Holding is tracked intra-procedurally
// with a statement-ordered lock-state walk: <x>.mu.Lock()/RLock() adds
// x.mu to the held set, Unlock()/RUnlock() removes it, `defer Unlock`
// holds to function end, and branches are analyzed with forked state and
// merged by intersection (a field is safe only if every path holds the
// mutex). Three escape hatches keep the rule honest instead of noisy:
// functions whose name ends in "Locked" or whose doc says "callers hold
// <x>.mu" start with that mutex held, accesses through constructor-fresh
// locals (def-use: defined in this function from a composite literal or
// new/make, so unshared) are exempt, and goroutine/deferred bodies are
// analyzed with an empty held set because they run outside the launching
// critical section.
var GuardedField = &Analyzer{
	Name: "guardedfield",
	Doc: "require the mutex named in a `// guarded by <mu>` field annotation to be held " +
		"on every path that reads or writes the field",
	Run: runGuardedField,
}

// guardedByRE matches the guarded-field annotation on a struct field:
//
//	mu      sync.Mutex
//	records map[string]int // guarded by mu
//
// The named mutex must be a sibling field of the same struct.
var guardedByRE = regexp.MustCompile(`guarded by\s+([A-Za-z_]\w*)`)

// callersHoldRE extracts the caller-contract doc convention, e.g.
// "Callers hold s.mu." or "caller must hold q.mu".
var callersHoldRE = regexp.MustCompile(`[Cc]allers?\s+(?:must\s+)?holds?\s+(\w+(?:\.\w+)*)`)

func runGuardedField(pass *Pass) error {
	guarded := guardedFields(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &guardedChecker{pass: pass, guarded: guarded, fresh: freshLocals(fd.Body, pass.TypesInfo)}
			st := lockState{held: map[string]bool{}}
			if len(fd.Name.Name) > len("Locked") &&
				fd.Name.Name[len(fd.Name.Name)-len("Locked"):] == "Locked" {
				st.all = true
			}
			if fd.Doc != nil {
				for _, m := range callersHoldRE.FindAllStringSubmatch(fd.Doc.Text(), -1) {
					st.held[m[1]] = true
				}
			}
			c.stmts(fd.Body.List, st)
		}
	}
	return nil
}

// guardedFields maps each annotated struct field declared in the package
// to the name of its guarding sibling mutex. Annotations are read one
// package at a time, so an annotated field must be unexported: an access
// from another package would go unchecked, and is reported instead.
func guardedFields(pass *Pass) map[*types.Var]string {
	guarded := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			field, ok := n.(*ast.Field)
			if !ok {
				return true
			}
			for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
					for _, name := range field.Names {
						if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
							guarded[v] = m[1]
						}
						if name.IsExported() {
							pass.Reportf(name.Pos(), "%s is guarded by %s but exported; unexport it so every access is checked", name.Name, m[1])
						}
					}
					break
				}
			}
			return true
		})
	}
	return guarded
}

// lockState is the set of mutexes held at a program point, keyed by the
// rendered owner expression ("s.mu"). all is the *Locked-suffix wildcard:
// the function's contract is that it runs entirely under its receiver's
// locks.
type lockState struct {
	held map[string]bool
	all  bool
}

func (s lockState) clone() lockState {
	out := lockState{held: make(map[string]bool, len(s.held)), all: s.all}
	for k := range s.held {
		out.held[k] = true
	}
	return out
}

func (s lockState) has(key string) bool { return s.all || s.held[key] }

// intersect keeps only what both branch outcomes hold.
func intersect(a, b lockState) lockState {
	out := lockState{held: map[string]bool{}, all: a.all && b.all}
	for k := range a.held {
		if b.held[k] {
			out.held[k] = true
		}
	}
	return out
}

type guardedChecker struct {
	pass    *Pass
	guarded map[*types.Var]string
	fresh   map[types.Object]bool
}

// stmts walks a statement list, threading lock state; the bool result
// reports whether the list always terminates (returns or branches away).
func (c *guardedChecker) stmts(list []ast.Stmt, st lockState) (lockState, bool) {
	for _, s := range list {
		var term bool
		st, term = c.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *guardedChecker) stmt(s ast.Stmt, st lockState) (lockState, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, acquire, ok := lockOp(s.X, c.pass.TypesInfo); ok {
			if acquire {
				st.held[key] = true
			} else {
				delete(st.held, key)
			}
			return st, false
		}
		c.expr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, st)
		}
		for _, e := range s.Lhs {
			c.expr(e, st)
		}
	case *ast.IncDecStmt:
		c.expr(s.X, st)
	case *ast.SendStmt:
		c.expr(s.Chan, st)
		c.expr(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, st)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.DeferStmt:
		if _, _, ok := lockOp(s.Call, c.pass.TypesInfo); ok {
			// defer mu.Unlock(): the mutex stays held to function end, so
			// the state is unchanged; defer mu.Lock() would be a bug this
			// analyzer does not model.
			return st, false
		}
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// Deferred bodies run at return, when the locks of this scope
			// may already be released: analyze with nothing held (the body
			// can acquire its own).
			c.stmts(fl.Body.List, lockState{held: map[string]bool{}})
		} else {
			c.expr(s.Call.Fun, st)
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A spawned goroutine does not inherit the launcher's critical
			// section.
			c.stmts(fl.Body.List, lockState{held: map[string]bool{}})
		} else {
			c.expr(s.Call.Fun, st)
		}
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st)
		}
		c.expr(s.Cond, st)
		bodyOut, bodyTerm := c.stmts(s.Body.List, st.clone())
		elseOut, elseTerm := st, false
		if s.Else != nil {
			elseOut, elseTerm = c.stmt(s.Else, st.clone())
		}
		switch {
		case bodyTerm && elseTerm:
			return st, true
		case bodyTerm:
			return elseOut, false
		case elseTerm:
			return bodyOut, false
		default:
			return intersect(bodyOut, elseOut), false
		}
	case *ast.ForStmt:
		inner := st.clone()
		if s.Init != nil {
			inner, _ = c.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			c.expr(s.Cond, inner)
		}
		c.stmts(s.Body.List, inner.clone())
		if s.Post != nil {
			c.stmt(s.Post, inner)
		}
		return st, false // assume balanced lock use across iterations
	case *ast.RangeStmt:
		c.expr(s.X, st)
		c.stmts(s.Body.List, st.clone())
		return st, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st)
		}
		if s.Tag != nil {
			c.expr(s.Tag, st)
		}
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CaseClause)
			for _, e := range cl.List {
				c.expr(e, st)
			}
			c.stmts(cl.Body, st.clone())
		}
		return st, false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = c.stmt(s.Init, st)
		}
		st, _ = c.stmt(s.Assign, st)
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CaseClause)
			c.stmts(cl.Body, st.clone())
		}
		return st, false
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			inner := st.clone()
			if comm.Comm != nil {
				inner, _ = c.stmt(comm.Comm, inner)
			}
			c.stmts(comm.Body, inner)
		}
		return st, false
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	}
	return st, false
}

// expr scans an expression tree for guarded-field accesses under the
// current lock state. Function literals are analyzed with the same state:
// immediately-invoked and callback literals run on the current path, and a
// literal that truly escapes to another goroutine is handled at its
// go/defer statement instead.
func (c *guardedChecker) expr(e ast.Expr, st lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.stmts(n.Body.List, st.clone())
			return false
		case *ast.SelectorExpr:
			c.access(n, st)
		}
		return true
	})
}

// access reports a guarded field reached without its mutex held.
func (c *guardedChecker) access(sel *ast.SelectorExpr, st lockState) {
	selInfo := c.pass.TypesInfo.Selections[sel]
	if selInfo == nil || selInfo.Kind() != types.FieldVal {
		return
	}
	field, ok := selInfo.Obj().(*types.Var)
	if !ok {
		return
	}
	mu, ok := c.guarded[field]
	if !ok {
		return
	}
	base := ast.Unparen(sel.X)
	if id, ok := base.(*ast.Ident); ok {
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[id]
		}
		if obj != nil && c.fresh[obj] {
			return // constructor pattern: the value is not shared yet
		}
	}
	key := types.ExprString(base) + "." + mu
	if st.has(key) {
		return
	}
	c.pass.Reportf(sel.Sel.Pos(),
		"%s is guarded by %s but accessed without it held; acquire %s first (or document the contract: \"callers hold %s\")",
		types.ExprString(sel), mu, key, key)
}

// lockOp recognizes <x>.<mu>.Lock/RLock (acquire=true) and
// Unlock/RUnlock (acquire=false) calls on sync mutexes, returning the
// held-set key "<x>.<mu>".
func lockOp(e ast.Expr, info *types.Info) (key string, acquire, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	return types.ExprString(ast.Unparen(sel.X)), acquire, true
}
