// Package goroutines is the static complement of the PR 7 testleak
// runtime gate: every `go` statement in the long-lived serving packages
// (internal/service, internal/jobs, internal/loadgen) must be
// cancellation-aware — observably tied to a context, a WaitGroup, or a
// channel (send, receive, close or select). A goroutine with none of
// those has no shutdown path: the daemon's graceful drain cannot wait
// for it and cannot stop it, which is exactly how serve loops leak.
package goroutines

import (
	"go/ast"
	"go/types"
	"strings"

	"edram/internal/analysis"
)

// Analyzer is the goroutine-lifecycle pass.
var Analyzer = &analysis.Analyzer{
	Name: "goroutines",
	Doc:  "go statements in serving packages must be cancellation-aware (ctx, WaitGroup or channel)",
	Run:  run,
}

// servingPackages are the long-lived packages whose goroutines need a
// shutdown path (by final path element).
var servingPackages = map[string]bool{
	"service": true, "jobs": true, "loadgen": true,
	// The disk cache's writer goroutine lives for the whole process:
	// it must observe shutdown (context or done channel) or a drain
	// would hang forever.
	"diskcache": true,
}

func run(pass *analysis.Pass) error {
	parts := strings.Split(pass.Pkg.Path, "/")
	if !servingPackages[parts[len(parts)-1]] {
		return nil
	}
	info := pass.Info()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !aware(info, g) {
				pass.Report(analysis.Diagnostic{
					Pos:     g.Pos(),
					Message: "goroutine is not cancellation-aware: tie it to a context, WaitGroup or done channel so shutdown can reach it",
				})
			}
			return true
		})
	}
	return nil
}

// aware scans the whole go statement (arguments and, for a function
// literal, its body) for a lifecycle signal: any context- or
// WaitGroup-typed value, any channel-typed value, or any channel
// operation.
func aware(info *types.Info, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(g, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					found = true
				}
			}
		case ast.Expr:
			if tv, ok := info.Types[n]; ok && lifecycleType(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

// lifecycleType reports whether a value of this type ties the goroutine
// to a shutdown path: a channel, a context.Context, or a
// sync.WaitGroup.
func lifecycleType(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Name() == "Context" && obj.Pkg().Path() == "context":
		return true
	case obj.Name() == "WaitGroup" && obj.Pkg().Path() == "sync":
		return true
	}
	return false
}
