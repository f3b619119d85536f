package analysis

import (
	"go/ast"
	"go/types"
)

// Seam describes one pooled-object acquire/release pairing.
type Seam struct {
	// Name labels the seam in diagnostics ("msg", "freelist", "mshr").
	Name string

	// Acquires are the constructors that hand out a pooled value.
	Acquires []FuncRef

	// Releases return a value to the pool.
	Releases []FuncRef

	// Sinks are cross-package functions sanctioned to take ownership
	// of an acquired value (e.g. Network.Send releases the message at
	// delivery). In-package sinks are annotated //patch:sink instead.
	Sinks []FuncRef
}

// PoolpairConfig scopes the poolpair contract.
type PoolpairConfig struct {
	Scope Scope
	Seams []Seam
}

// NewPoolpair returns the poolpair analyzer: inside the scoped
// packages, every value acquired from a pooled seam must visibly leave
// the acquiring function's hands — released back to the pool, passed
// to a release/sink function (cross-package sinks are configured,
// in-package sinks carry //patch:sink), stored into a field, map,
// slice or composite literal, or returned. An acquisition whose result
// is discarded, or bound to a local that none of those uses ever
// touch, leaks a pooled slot and is reported at the acquire site.
//
// The check is function-local and flow-insensitive: it proves presence
// of a handoff, not its reachability on every path — the runtime pool
// accounting catches the residue, this catches the class of bug where
// a refactor drops the release entirely.
func NewPoolpair(cfg PoolpairConfig) *Analyzer {
	a := &Analyzer{
		Name: "poolpair",
		Doc:  "pooled acquisitions must be released, stored, returned, or handed to an annotated sink",
	}
	a.Run = func(pass *Pass) error {
		ok, only := cfg.Scope.Match(pass.Path)
		if !ok {
			return nil
		}
		decls := declaredFuncs(pass)
		for _, f := range pass.Files {
			if !inFiles(pass.Fset, f.Pos(), only) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkPoolpairFunc(pass, cfg, decls, fd)
			}
		}
		return nil
	}
	return a
}

// declaredFuncs maps each function object declared in this package to
// its declaration, for //patch:sink lookups.
func declaredFuncs(pass *Pass) map[*types.Func]*ast.FuncDecl {
	m := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

// seamOf returns the seam whose acquire list matches fn, or nil.
func seamOf(cfg *PoolpairConfig, fn *types.Func) *Seam {
	for i := range cfg.Seams {
		for _, ref := range cfg.Seams[i].Acquires {
			if ref.matches(fn) {
				return &cfg.Seams[i]
			}
		}
	}
	return nil
}

// consumes reports whether fn is a sanctioned consumer for the seam: a
// release, a configured sink, or an in-package //patch:sink function.
func consumes(s *Seam, decls map[*types.Func]*ast.FuncDecl, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	for _, ref := range s.Releases {
		if ref.matches(fn) {
			return true
		}
	}
	for _, ref := range s.Sinks {
		if ref.matches(fn) {
			return true
		}
	}
	if fd, ok := decls[fn.Origin()]; ok && hasDirective(fd, "sink") {
		return true
	}
	return false
}

func checkPoolpairFunc(pass *Pass, cfg PoolpairConfig, decls map[*types.Func]*ast.FuncDecl, fd *ast.FuncDecl) {
	// The seam's own machinery (the acquire wrappers themselves) is
	// exempt: MSHRs.Acquire calling FreeList.Get and returning it IS
	// the seam.
	if self, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		for i := range cfg.Seams {
			for _, ref := range cfg.Seams[i].Acquires {
				if ref.matches(self) {
					return
				}
			}
		}
	}
	parents := parentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		seam := seamOf(&cfg, fn)
		if seam == nil {
			return true
		}
		checkAcquire(pass, seam, decls, fd, call, parents)
		return true
	})
}

// parentMap records each node's parent within the body.
func parentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func checkAcquire(pass *Pass, seam *Seam, decls map[*types.Func]*ast.FuncDecl, fd *ast.FuncDecl, call *ast.CallExpr, parents map[ast.Node]ast.Node) {
	parent := parents[call]
	for {
		if p, ok := parent.(*ast.ParenExpr); ok {
			parent = parents[p]
			continue
		}
		break
	}
	switch p := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "value acquired from %s seam (%s) is discarded: release it or hand it to a sink", seam.Name, calleeName(pass, call))
	case *ast.AssignStmt:
		obj := acquireBinding(pass, p, call)
		if obj == nil {
			return // multi-value or non-ident binding; give the benefit of the doubt
		}
		if !handedOff(pass, seam, decls, fd, obj) {
			pass.Reportf(call.Pos(), "%q acquired from %s seam is never released (%s), stored, returned, or passed to a //patch:sink", obj.Name(), seam.Name, releaseNames(seam))
		}
	case *ast.ValueSpec:
		if len(p.Names) == 1 {
			if obj, ok := pass.TypesInfo.Defs[p.Names[0]].(*types.Var); ok && !handedOff(pass, seam, decls, fd, obj) {
				pass.Reportf(call.Pos(), "%q acquired from %s seam is never released (%s), stored, returned, or passed to a //patch:sink", obj.Name(), seam.Name, releaseNames(seam))
			}
		}
	case *ast.CallExpr:
		// Result flows straight into another call: that call must be a
		// sanctioned consumer, e.g. n.Send(n.Msg(...)).
		if !consumes(seam, decls, calleeOf(pass.TypesInfo, p)) {
			pass.Reportf(call.Pos(), "value acquired from %s seam flows into %s, which is not a release or annotated sink for it", seam.Name, calleeName(pass, p))
		}
	default:
		// Returned, stored into a composite literal or field directly,
		// or part of a larger expression: ownership visibly leaves.
	}
}

func calleeName(pass *Pass, call *ast.CallExpr) string {
	if fn := calleeOf(pass.TypesInfo, call); fn != nil {
		return fn.Name()
	}
	return "call"
}

func releaseNames(s *Seam) string {
	out := ""
	for i, r := range s.Releases {
		if i > 0 {
			out += "/"
		}
		out += r.Name
	}
	if out == "" {
		out = "no release configured"
	}
	return out
}

// acquireBinding returns the variable the acquire call is assigned to,
// for the simple single-binding forms x := call / x = call.
func acquireBinding(pass *Pass, as *ast.AssignStmt, call *ast.CallExpr) *types.Var {
	if len(as.Rhs) != len(as.Lhs) {
		return nil
	}
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) != call {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
			return v
		}
		if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// handedOff reports whether the function body contains a use of obj
// that transfers ownership: a release/sink call taking it, a store of
// it (assignment RHS, composite-literal element, channel send), or a
// return.
func handedOff(pass *Pass, seam *Seam, decls map[*types.Func]*ast.FuncDecl, fd *ast.FuncDecl, obj *types.Var) bool {
	isObj := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x] == obj
		case *ast.UnaryExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				return pass.TypesInfo.Uses[id] == obj
			}
		}
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if isObj(arg) && consumes(seam, decls, calleeOf(pass.TypesInfo, n)) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isObj(rhs) {
					continue
				}
				// x on the RHS of any assignment other than its own
				// binding: stored into a field/map/another name that
				// outlives this frame's view of it.
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						// Its own binding, or a discard: neither is a
						// handoff.
						if id.Name == "_" || pass.TypesInfo.Defs[id] == obj {
							continue
						}
					}
				}
				found = true
			}
		case *ast.KeyValueExpr:
			if isObj(n.Value) {
				found = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if isObj(el) {
					found = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isObj(r) {
					found = true
				}
			}
		case *ast.SendStmt:
			if isObj(n.Value) {
				found = true
			}
		}
		return true
	})
	return found
}
