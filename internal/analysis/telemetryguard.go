package analysis

import (
	"go/ast"
	"go/types"
	"maps"
)

// TelemetryGuard enforces the observability layer's zero-cost contract:
// every telemetry.Collector.EmitSpan/EmitCounter call site must be
// statically guarded by a check on the same receiver — either an
// enclosing `if c.Enabled() { ... }` or a preceding early return
// `if !c.Enabled() { return }` in the same function. Emit methods are
// nil-safe, so unguarded calls are *correct* — but they still pay
// argument construction (fmt.Sprintf keys, span labels, Arg slices) on
// the simulator's hot path when telemetry is off, which is exactly the
// overhead the disabled path promises not to have.
//
// Tracing() (true only on a collector that keeps spans) guards EmitSpan
// as well as Enabled() does. It must not guard EmitCounter: an enabled
// counters-only collector (telemetry.NewCounters) fails Tracing(), so
// the counter would silently vanish from it.
var TelemetryGuard = &Analyzer{
	Name: "telemetryguard",
	Doc: "requires telemetry.Collector Emit* calls to sit behind an " +
		"Enabled() guard (or Tracing(), for EmitSpan only) on the same " +
		"receiver, so argument construction is never paid when telemetry " +
		"is disabled and no counter depends on spans being kept",
	Run: runTelemetryGuard,
}

// guard is the set of collector checks dominating a position.
type guard uint8

const (
	guardEnabled guard = 1 << iota // c.Enabled() holds
	guardTracing                   // c.Tracing() holds
)

func runTelemetryGuard(pass *Pass) error {
	// The telemetry package itself (tests, the exporter) emits freely.
	if pass.Pkg.Name() == "telemetry" {
		return nil
	}
	g := &guardWalker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g.walkBlock(fd.Body, map[string]guard{})
		}
	}
	return nil
}

// guardWalker tracks, per lexical position, the receiver expressions
// (rendered with types.ExprString) whose Enabled() or Tracing() check
// dominates that position. Both are immutable properties of a collector
// (nil or not, counters-only or not), so a lexical guard is sound even
// across closures.
type guardWalker struct {
	pass *Pass
}

// walkBlock walks statements in order, accumulating early-return guards:
// after `if !c.Enabled() { return }` (or `!c.Tracing()`), the rest of the
// block is guarded for c.
func (g *guardWalker) walkBlock(b *ast.BlockStmt, guarded map[string]guard) {
	cur := maps.Clone(guarded)
	for _, st := range b.List {
		if ifs, ok := st.(*ast.IfStmt); ok {
			if recv, kind, ok := g.negatedGuard(ifs); ok && ifs.Else == nil && terminates(ifs.Body) {
				g.walkBlock(ifs.Body, cur)
				cur[recv] |= kind
				continue
			}
		}
		g.walkNode(st, cur)
	}
}

// walkIf handles the positive form: the body of `if c.Enabled() { ... }`
// (including `&&` conjunctions) is guarded for c; the else branch is not.
func (g *guardWalker) walkIf(ifs *ast.IfStmt, guarded map[string]guard) {
	if ifs.Init != nil {
		g.walkNode(ifs.Init, guarded)
	}
	g.walkNode(ifs.Cond, guarded)
	inner := guarded
	if pos := g.positiveGuards(ifs.Cond); len(pos) > 0 {
		inner = maps.Clone(guarded)
		for _, c := range pos {
			inner[c.recv] |= c.kind
		}
	}
	g.walkBlock(ifs.Body, inner)
	switch e := ifs.Else.(type) {
	case *ast.IfStmt:
		g.walkIf(e, guarded)
	case *ast.BlockStmt:
		g.walkBlock(e, guarded)
	}
}

// walkNode descends generically, intercepting the constructs that change
// guard state and the Emit calls under scrutiny.
func (g *guardWalker) walkNode(n ast.Node, guarded map[string]guard) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.BlockStmt:
			g.walkBlock(s, guarded)
			return false
		case *ast.IfStmt:
			g.walkIf(s, guarded)
			return false
		case *ast.CallExpr:
			g.checkCall(s, guarded)
			return true
		}
		return true
	})
}

// checkCall reports EmitSpan calls on a telemetry.Collector receiver that
// no dominating Enabled() or Tracing() guard covers, and EmitCounter
// calls that no Enabled() guard covers or that a Tracing() guard does.
func (g *guardWalker) checkCall(call *ast.CallExpr, guarded map[string]guard) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "EmitSpan" && name != "EmitCounter" {
		return
	}
	if !g.isCollector(sel.X) {
		return
	}
	recv := types.ExprString(sel.X)
	have, check := guarded[recv], "Tracing"
	if name == "EmitCounter" {
		if have&guardTracing != 0 {
			g.pass.Reportf(call.Pos(),
				"telemetry counter behind a Tracing() guard: counters-only collectors "+
					"(telemetry.NewCounters) would silently drop %s.EmitCounter; "+
					"guard it with %s.Enabled() instead", recv, recv)
			return
		}
		check = "Enabled"
	}
	if have != 0 {
		return
	}
	g.pass.Reportf(call.Pos(),
		"unguarded telemetry emission: wrap %s.%s in `if %s.%s() { ... }` "+
			"(or return early on `!%s.%s()`) so argument construction is "+
			"free when telemetry is off", recv, name, recv, check, recv, check)
}

// guardTerm is one collector check: receiver and which method.
type guardTerm struct {
	recv string
	kind guard
}

// positiveGuards collects the checks that hold when cond is true:
// `c.Enabled()` and `c.Tracing()` terms of the top-level `&&`
// conjunction.
func (g *guardWalker) positiveGuards(cond ast.Expr) []guardTerm {
	switch e := stripParens(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op.String() == "&&" {
			return append(g.positiveGuards(e.X), g.positiveGuards(e.Y)...)
		}
	case *ast.CallExpr:
		if recv, kind, ok := g.guardReceiver(e); ok {
			return []guardTerm{{recv, kind}}
		}
	}
	return nil
}

// negatedGuard matches `if !c.Enabled() { ... }` (or Tracing) and returns
// c and the check.
func (g *guardWalker) negatedGuard(ifs *ast.IfStmt) (string, guard, bool) {
	un, ok := stripParens(ifs.Cond).(*ast.UnaryExpr)
	if !ok || un.Op.String() != "!" {
		return "", 0, false
	}
	call, ok := stripParens(un.X).(*ast.CallExpr)
	if !ok {
		return "", 0, false
	}
	return g.guardReceiver(call)
}

// guardReceiver returns the receiver expression of a
// telemetry.Collector.Enabled() or Tracing() call, and which it is.
func (g *guardWalker) guardReceiver(call *ast.CallExpr) (string, guard, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 || !g.isCollector(sel.X) {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Enabled":
		return types.ExprString(sel.X), guardEnabled, true
	case "Tracing":
		return types.ExprString(sel.X), guardTracing, true
	}
	return "", 0, false
}

func (g *guardWalker) isCollector(x ast.Expr) bool {
	tv, ok := g.pass.Info.Types[x]
	return ok && isNamed(tv.Type, "telemetry", "Collector")
}

// terminates reports whether a block always leaves the enclosing scope
// (return, branch, or panic as its last statement).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
