// Package determinism enforces the model suite's reproducibility
// contract: sweep, fault and experiment pipelines must be byte-identical
// across runs and worker counts (the PR 1 explore engine and PR 2
// reliability fingerprints are tested on exactly that property). In the
// model packages it forbids the three ways wall-clock or scheduler
// state leaks into results:
//
//   - time.Now (inject a clock, or annotate the call when it only feeds
//     progress/stats reporting);
//   - package-level math/rand functions, which draw from the global
//     source (inject a seeded *rand.Rand; constructors like rand.New
//     and rand.NewSource are allowed);
//   - ranging over a map while appending to an outer slice with no
//     subsequent sort, writing output, feeding a hash/fingerprint, or
//     assigning outer variables (the argmax-over-map pattern breaks
//     ties in map order).
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"edram/internal/analysis"
)

// Analyzer is the determinism pass.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand and map-iteration-order leaks in model packages",
	Run:  run,
}

// modelPackages are the packages whose outputs must be reproducible
// bit-for-bit (by final path element).
var modelPackages = map[string]bool{
	"core": true, "reliab": true, "sched": true, "yield": true,
	"geom": true, "timing": true, "experiments": true,
	"iram": true, "cpu": true, "mpeg2": true,
	// The HTTP service layer serves cached model outputs, so its
	// encodings must be as reproducible as the models themselves; its
	// intentional wall-clock sites (latency measurement, the admission
	// wait estimator) carry scoped nolint escapes.
	"service": true,
	// Scenario documents compile to cacheable byte-stable responses, so
	// the loader/compiler is held to the same determinism bar.
	"scenario": true,
	// The job store's checkpoints must replay byte-identically after a
	// restart, so its persistence path cannot depend on wall-clock or
	// iteration order.
	"jobs": true,
	// The load generator's schedules are seeded and replayable: the same
	// profile + seed must issue the same request sequence, or an SLO
	// regression cannot be distinguished from schedule noise. The
	// edramload driver's latency clocks carry scoped nolint escapes.
	"loadgen": true, "edramload": true,
	// The disk cache's segment log must replay byte-identically after
	// a restart: record framing and compaction order cannot depend on
	// wall-clock or map iteration.
	"diskcache": true,
}

// allowedRandFuncs are math/rand package-level constructors that do not
// touch the global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	parts := strings.Split(pass.Pkg.Path, "/")
	if !modelPackages[parts[len(parts)-1]] {
		return nil
	}
	c := &checker{pass: pass, info: pass.Info()}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				c.forbiddenCall(n)
			case *ast.RangeStmt:
				c.mapRange(n, enclosingBody(f, n))
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

// calleeFunc resolves a call to the *types.Func it invokes, if any.
func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.info.Uses[id].(*types.Func)
	return fn
}

func (c *checker) forbiddenCall(call *ast.CallExpr) {
	fn := c.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" && !isMethod {
			c.report(call.Pos(), "time.Now in model package %s: inject a clock (results must be reproducible)", c.pass.Pkg.Name)
		}
	case "math/rand", "math/rand/v2":
		if !isMethod && !allowedRandFuncs[fn.Name()] {
			c.report(call.Pos(), "global rand.%s draws from the process-wide source: inject a seeded *rand.Rand", fn.Name())
		}
	}
}

// enclosingBody finds the innermost function body containing n, for the
// sorted-afterwards check.
func enclosingBody(f *ast.File, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(f, func(m ast.Node) bool {
		if m == nil || m.Pos() > n.Pos() || m.End() < n.End() {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncDecl:
			if m.Body != nil && m.Body.Pos() <= n.Pos() && m.Body.End() >= n.End() {
				body = m.Body
			}
		case *ast.FuncLit:
			if m.Body.Pos() <= n.Pos() && m.Body.End() >= n.End() {
				body = m.Body
			}
		}
		return true
	})
	return body
}

// mapRange inspects one `for ... := range m` over a map for
// order-dependent effects in its body.
func (c *checker) mapRange(rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	t := c.info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	outer := func(id *ast.Ident) bool {
		obj := c.info.ObjectOf(id)
		if obj == nil || obj.Pos() == token.NoPos {
			return false
		}
		return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.mapRangeAssign(rng, fnBody, n, outer)
		case *ast.CallExpr:
			c.mapRangeCall(rng, n)
		}
		return true
	})
}

// mapRangeAssign flags appends without a later sort, and plain
// assignments to outer variables (order-dependent selection).
func (c *checker) mapRangeAssign(rng *ast.RangeStmt, fnBody *ast.BlockStmt, as *ast.AssignStmt, outer func(*ast.Ident) bool) {
	if as.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || !outer(id) {
			continue
		}
		if i < len(as.Rhs) && isAppendOf(as.Rhs[i], id.Name) {
			if !sortedAfter(c.info, fnBody, rng, id.Name) {
				c.report(id.Pos(), "append to %s while ranging over a map: iteration order is random — sort %s afterwards or iterate sorted keys", id.Name, id.Name)
			}
			continue
		}
		// Only order-dependent values are a problem: the right-hand
		// side must mention something bound by this iteration (the loop
		// variables or anything declared in the body). Loop-invariant
		// assignments like `found = true` are fine.
		if c.rhsDependsOnLoop(rng, as.Rhs) {
			c.report(id.Pos(), "assignment to outer variable %s inside a map range: selection depends on iteration order — iterate sorted keys", id.Name)
		}
	}
}

// rhsDependsOnLoop reports whether any right-hand side references a
// variable bound inside the range statement (key, value, or body
// locals) — i.e. carries an iteration-order-dependent value.
func (c *checker) rhsDependsOnLoop(rng *ast.RangeStmt, rhs []ast.Expr) bool {
	dep := false
	for _, e := range rhs {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || dep {
				return !dep
			}
			obj := c.info.ObjectOf(id)
			if obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
				dep = true
			}
			return !dep
		})
	}
	return dep
}

// mapRangeCall flags output writes and hash/fingerprint feeding inside
// a map range.
func (c *checker) mapRangeCall(rng *ast.RangeStmt, call *ast.CallExpr) {
	fn := c.calleeFunc(call)
	if fn == nil {
		return
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.Contains(name, "rint") {
		c.report(call.Pos(), "fmt.%s inside a map range: output order is random — iterate sorted keys", name)
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	if isMethod && (name == "Write" || name == "WriteString" || strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		c.report(call.Pos(), "%s inside a map range: output order is random — iterate sorted keys", name)
		return
	}
	if strings.Contains(name, "Fingerprint") || strings.Contains(name, "Hash") || name == "Sum" || name == "Sum64" {
		c.report(call.Pos(), "feeding %s inside a map range: digest depends on iteration order — iterate sorted keys", name)
	}
}

// isAppendOf reports whether e is append(target, ...).
func isAppendOf(e ast.Expr, target string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" || len(call.Args) == 0 {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && arg.Name == target
}

// sortedAfter reports whether the enclosing function sorts the named
// slice somewhere after the range statement (sort.* or slices.Sort*
// with the slice as first argument) — the collect-then-sort idiom.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target string) bool {
	if fnBody == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := info.Uses[sel.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		sorter := (pkg == "sort" && !strings.HasPrefix(fn.Name(), "Search") && fn.Name() != "IsSorted") ||
			(pkg == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
		if sorter && len(call.Args) > 0 {
			if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && arg.Name == target {
				found = true
			}
		}
		return !found
	})
	return found
}
