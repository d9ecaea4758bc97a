// Package conccheck enforces the goroutine discipline the deterministic
// pipeline depends on. Every parallel stage fans in through a bounded
// pool helper (dist.Pool.ForEach, the inline-fallback pool that
// dist.Map/Fold/ForEach and core synthesis spawn through; the ingest
// worker pool; the stats memory sampler); determinism then rests on two
// structural properties: goroutines are spawned only inside those
// helpers, and spawned closures communicate results exclusively through
// index-disjoint slice stores or channels —
// never through a shared append, map write, or captured-variable
// assignment, whose interleavings would leak scheduling into output.
//
// The discipline is declared with a doc-comment directive:
//
//	//jx:pool <reason>
//
// A `go` statement outside a //jx:pool function is reported. Inside a pool
// function, each spawned closure is checked: assignments to captured
// variables, writes to captured maps, appends to captured slices, and
// captured-counter increments are reported (index stores into captured
// slices are the sanctioned result channel — disjointness is the helper's
// documented contract). Every sync.WaitGroup with an Add call must also
// have a Done deferred (directly or inside a deferred closure), and a
// Done that is not deferred is reported — a panic between Add and a bare
// Done would deadlock Wait. A //jx:pool tag on a function that spawns no
// goroutine is stale and reported, mirroring ignoreaudit.
package conccheck

import (
	"go/ast"
	"go/types"
	"strings"

	"jxplain/internal/lint/jxanalysis"
)

// Analyzer is the conccheck pass.
var Analyzer = &jxanalysis.Analyzer{
	Name: "conccheck",
	Doc:  "allow go statements only in //jx:pool helpers whose goroutines write results index-disjointly or via channels, with deferred WaitGroup.Done",
	Run:  run,
}

const poolTag = "//jx:pool"

// poolTagged reports whether fd carries //jx:pool and whether the
// mandatory reason is present.
func poolTagged(fd *ast.FuncDecl) (tagged, hasReason bool) {
	if fd.Doc == nil {
		return false, false
	}
	for _, c := range fd.Doc.List {
		if c.Text == poolTag {
			return true, false
		}
		if rest, ok := strings.CutPrefix(c.Text, poolTag+" "); ok {
			return true, strings.TrimSpace(rest) != ""
		}
	}
	return false, false
}

func run(pass *jxanalysis.Pass) error {
	for _, f := range pass.Files {
		if file := pass.Fset.File(f.Pos()); file != nil && strings.HasSuffix(file.Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pooled, hasReason := poolTagged(fd)
			if pooled && !hasReason {
				pass.Reportf(fd.Pos(), `//jx:pool directive on %s requires a reason: "//jx:pool <reason>"`, fd.Name.Name)
			}
			spawns := checkFunc(pass, fd, pooled)
			if pooled && spawns == 0 {
				pass.Reportf(fd.Pos(), "//jx:pool function %s spawns no goroutine; the directive is stale", fd.Name.Name)
			}
		}
	}
	return nil
}

// checkFunc walks one function, reporting go statements when the function
// is not pooled and goroutine discipline violations when it is. It returns
// the number of go statements seen.
func checkFunc(pass *jxanalysis.Pass, fd *ast.FuncDecl, pooled bool) int {
	name := fd.Name.Name
	spawns := 0
	jxanalysis.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			spawns++
			if !pooled {
				pass.Reportf(n.Pos(), "go statement in %s, which is not a //jx:pool helper; spawn goroutines only in approved pool functions", name)
				return true
			}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				checkSpawnedClosure(pass, name, lit)
			}
		case *ast.CallExpr:
			if pooled {
				checkWaitGroupCall(pass, name, n, stack)
			}
		}
		return true
	})
	if pooled {
		checkAddDonePairing(pass, fd)
	}
	return spawns
}

// localTo reports whether obj is declared inside the node span [lo, hi) —
// parameters and locals of a closure fall inside its FuncLit span.
func localTo(obj types.Object, lit *ast.FuncLit) bool {
	return obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
}

// checkSpawnedClosure enforces the result-writing discipline inside one
// `go func(...){...}` closure.
func checkSpawnedClosure(pass *jxanalysis.Pass, pool string, lit *ast.FuncLit) {
	objOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[id]
	}
	captured := func(e ast.Expr) (types.Object, bool) {
		obj := objOf(e)
		if v, ok := obj.(*types.Var); ok && !localTo(v, lit) {
			return obj, true
		}
		return nil, false
	}
	jxanalysis.WalkStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch lhs := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if obj, ok := captured(lhs); ok && obj.Name() != "_" {
						pass.Reportf(lhs.Pos(), "goroutine in pool function %s assigns captured variable %s; return results through an index-disjoint slice store or a channel", pool, obj.Name())
					}
				case *ast.IndexExpr:
					t := pass.TypesInfo.TypeOf(lhs.X)
					if t == nil {
						continue
					}
					if _, isMap := types.Unalias(t).Underlying().(*types.Map); !isMap {
						continue // slice/array index store: the sanctioned channel
					}
					if obj, ok := captured(lhs.X); ok {
						pass.Reportf(lhs.Pos(), "goroutine in pool function %s writes captured map %s; map writes are not index-disjoint — use a slice or a channel", pool, obj.Name())
					}
				}
			}
		case *ast.IncDecStmt:
			if obj, ok := captured(n.X); ok {
				pass.Reportf(n.Pos(), "goroutine in pool function %s increments captured variable %s; use an index-disjoint slice store or a channel", pool, obj.Name())
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) == 0 {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				return true
			}
			target := ast.Unparen(n.Args[0])
			if sl, ok := target.(*ast.SliceExpr); ok {
				target = ast.Unparen(sl.X)
			}
			if obj, ok := captured(target); ok {
				pass.Reportf(n.Pos(), "goroutine in pool function %s appends to captured slice %s; appends race — write by index or send on a channel", pool, obj.Name())
			}
		}
		return true
	})
}

// receiverString renders the receiver of a WaitGroup method call ("wg",
// "s.done") so Add and Done sites can be paired lexically. Unrenderable
// receivers return "".
func receiverString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		prefix := receiverString(e.X)
		if prefix == "" {
			return ""
		}
		return prefix + "." + e.Sel.Name
	}
	return ""
}

// waitGroupMethod returns the receiver rendering when call is
// sync.WaitGroup.Add / .Done / .Wait, with the method name.
func waitGroupMethod(pass *jxanalysis.Pass, call *ast.CallExpr) (recv, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", ""
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	recvType := s.Recv()
	if p, ok := types.Unalias(recvType).(*types.Pointer); ok {
		recvType = p.Elem()
	}
	named, ok := types.Unalias(recvType).(*types.Named)
	if !ok || named.Obj().Name() != "WaitGroup" {
		return "", ""
	}
	return receiverString(sel.X), fn.Name()
}

// checkWaitGroupCall reports a WaitGroup.Done that is not deferred.
func checkWaitGroupCall(pass *jxanalysis.Pass, pool string, call *ast.CallExpr, stack []ast.Node) {
	recv, method := waitGroupMethod(pass, call)
	if method != "Done" {
		return
	}
	for _, anc := range stack {
		if _, ok := anc.(*ast.DeferStmt); ok {
			return
		}
	}
	pass.Reportf(call.Pos(), "%s.Done in pool function %s is not deferred; a panic between Add and Done would deadlock Wait", recv, pool)
}

// checkAddDonePairing requires, for every WaitGroup receiving an Add in
// the pool function, at least one Done under a defer on the same receiver.
func checkAddDonePairing(pass *jxanalysis.Pass, fd *ast.FuncDecl) {
	type addSite struct {
		pos  ast.Node
		recv string
	}
	var adds []addSite
	deferredDone := map[string]bool{}
	jxanalysis.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := waitGroupMethod(pass, call)
		if recv == "" {
			return true
		}
		switch method {
		case "Add":
			adds = append(adds, addSite{pos: call, recv: recv})
		case "Done":
			for _, anc := range stack {
				if _, ok := anc.(*ast.DeferStmt); ok {
					deferredDone[recv] = true
					break
				}
			}
		}
		return true
	})
	for _, a := range adds {
		if !deferredDone[a.recv] {
			pass.Reportf(a.pos.Pos(), "%s.Add in pool function %s has no deferred %s.Done; pair every Add with a deferred Done", a.recv, fd.Name.Name, a.recv)
		}
	}
}
