// Package ctxflow enforces context discipline in the long-lived
// serving packages (internal/service, internal/jobs, internal/loadgen).
// Two rules:
//
//   - no fresh root contexts: context.Background(), context.TODO() and
//     the context.WithoutCancel detach are findings. The handful of
//     intentional roots (the server's base context, the graceful-drain
//     timeout, the detached cache-fill compute, the job store's runner
//     root) carry scoped //nolint:edramvet/ctxflow escapes with the
//     detach reason — making the allowlist greppable and audited;
//   - a function that receives a ctx must thread it: if the body calls
//     at least one context-accepting callee but never mentions its own
//     ctx parameter, cancellation stops propagating right there (the
//     callee runs on whatever context it conjures instead).
package ctxflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"edram/internal/analysis"
)

// Analyzer is the context-propagation pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "forbid fresh root contexts and unthreaded ctx parameters in the serving packages",
	Run:  run,
}

// servingPackages are the long-lived packages held to context
// discipline (by final path element).
var servingPackages = map[string]bool{
	"service": true, "jobs": true, "loadgen": true,
	// The disk cache's writer runs under the same discipline — its
	// lifetime is channel-managed, never context-detached.
	"diskcache": true,
}

// rootFuncs are the context constructors that sever the caller's
// cancellation chain.
var rootFuncs = map[string]string{
	"Background":    "creates a fresh root context; derive from the caller's ctx instead",
	"TODO":          "creates a fresh root context; derive from the caller's ctx instead",
	"WithoutCancel": "detaches from the caller's cancellation; intentional detach sites need a scoped nolint with the reason",
}

func run(pass *analysis.Pass) error {
	parts := strings.Split(pass.Pkg.Path, "/")
	if !servingPackages[parts[len(parts)-1]] {
		return nil
	}
	c := &checker{pass: pass, info: pass.Info()}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				c.rootCall(n)
			case *ast.FuncDecl:
				if n.Body != nil {
					c.threading(n.Type, n.Body)
				}
			case *ast.FuncLit:
				c.threading(n.Type, n.Body)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	info *types.Info
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.pass.Report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// rootCall flags context.Background/TODO/WithoutCancel.
func (c *checker) rootCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	if why, bad := rootFuncs[fn.Name()]; bad {
		c.report(call.Pos(), "context.%s %s", fn.Name(), why)
	}
}

// threading flags a ctx parameter that is never used even though the
// body calls context-accepting callees.
func (c *checker) threading(ft *ast.FuncType, body *ast.BlockStmt) {
	if ft.Params == nil {
		return
	}
	var ctxParams []*ast.Ident
	for _, field := range ft.Params.List {
		if !isCtxExpr(c.info, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				ctxParams = append(ctxParams, name)
			}
		}
	}
	if len(ctxParams) == 0 {
		return
	}
	used := map[types.Object]bool{}
	hasCtxCallee := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := c.info.Uses[n]; obj != nil {
				used[obj] = true
			}
		case *ast.CallExpr:
			if c.acceptsCtx(n) {
				hasCtxCallee = true
			}
		}
		return true
	})
	if !hasCtxCallee {
		return
	}
	for _, p := range ctxParams {
		if obj := c.info.Defs[p]; obj != nil && !used[obj] {
			c.report(p.Pos(), "ctx parameter %s is never threaded to the function's context-accepting callees; cancellation stops propagating here", p.Name)
		}
	}
}

// acceptsCtx reports whether a call's callee takes a context.Context.
func (c *checker) acceptsCtx(call *ast.CallExpr) bool {
	tv, ok := c.info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isCtxExpr reports whether a parameter type expression is
// context.Context.
func isCtxExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isCtxType(tv.Type)
}

func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
