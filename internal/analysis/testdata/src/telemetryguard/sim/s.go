// Package sim is the telemetryguard fixture: EmitSpan/EmitCounter calls
// on a telemetry.Collector must be dominated by an Enabled() guard on the
// same receiver. It imports the real collector so receiver-type matching
// is exercised against the production type.
package sim

import (
	"fmt"

	"crophe/internal/telemetry"
)

// Engine mimics the simulator's shape: a collector behind a field.
type Engine struct {
	tel *telemetry.Collector
}

// UnguardedSpan pays fmt.Sprintf even when telemetry is off.
func UnguardedSpan(c *telemetry.Collector, row int) {
	c.EmitSpan("PE", fmt.Sprintf("row %d", row), "g0", 0, 10) // want `unguarded telemetry emission`
}

// UnguardedCounter has no guard at all.
func UnguardedCounter(c *telemetry.Collector) {
	c.EmitCounter("noc/sends", 1) // want `unguarded telemetry emission`
}

// WrongReceiverGuard guards a, then emits on b.
func WrongReceiverGuard(a, b *telemetry.Collector) {
	if a.Enabled() {
		b.EmitCounter("x", 1) // want `unguarded telemetry emission`
	}
}

// ElseBranch emits on the disabled branch of the guard.
func ElseBranch(c *telemetry.Collector) {
	if c.Enabled() {
		c.EmitCounter("ok", 1)
	} else {
		c.EmitCounter("bad", 1) // want `unguarded telemetry emission`
	}
}

// GuardDoesNotOutliveBlock: the early-return guard only covers its own
// block, not siblings of the enclosing scope.
func GuardDoesNotOutliveBlock(c *telemetry.Collector, deep bool) {
	if deep {
		if !c.Enabled() {
			return
		}
		c.EmitCounter("ok", 1)
	}
	c.EmitCounter("bad", 1) // want `unguarded telemetry emission`
}

// PositiveGuard is the canonical hot-path form.
func PositiveGuard(c *telemetry.Collector, row int) {
	if c.Enabled() {
		c.EmitSpan("PE", fmt.Sprintf("row %d", row), "g0", 0, 10)
		for i := 0; i < row; i++ {
			c.EmitCounter("spans", 1)
		}
	}
}

// ConjunctionGuard keeps the guard inside an && chain.
func ConjunctionGuard(c *telemetry.Collector, hot bool) {
	if hot && c.Enabled() {
		c.EmitCounter("hot", 1)
	}
}

// EarlyReturnGuard is the canonical whole-function form (noc/mem style).
func EarlyReturnGuard(c *telemetry.Collector, links int) {
	if !c.Enabled() {
		return
	}
	for i := 0; i < links; i++ {
		c.EmitCounter(fmt.Sprintf("noc/link/%d", i), 1)
	}
	c.EmitSpan("NoC", "links", "drain", 0, float64(links))
}

// FieldReceiver guards and emits through a struct field (the sched
// pattern s.tel).
func (e *Engine) FieldReceiver(n int) {
	if e.tel.Enabled() {
		e.tel.EmitCounter("sched/candidates", float64(n))
	}
	e.tel.EmitCounter("sched/pruned", 1) // want `unguarded telemetry emission`
}

// NestedClosure inherits the lexical guard: enablement is immutable, so
// the closure created inside the guard stays guarded.
func NestedClosure(c *telemetry.Collector) func() {
	if c.Enabled() {
		return func() { c.EmitCounter("deferred", 1) }
	}
	return func() {}
}

// TracingGuardsSpans is the simulator's split: spans behind Tracing(),
// counters behind Enabled().
func TracingGuardsSpans(c *telemetry.Collector, row int) {
	if c.Tracing() {
		c.EmitSpan("PE", fmt.Sprintf("row %d", row), "g0", 0, 10)
	}
	if c.Enabled() {
		c.EmitCounter("sim/groups", 1)
		if c.Tracing() {
			c.EmitSpan("PE", "array", "g0", 0, 10)
		}
	}
}

// TracingEarlyReturn guards the rest of the function's spans.
func TracingEarlyReturn(c *telemetry.Collector) {
	if !c.Tracing() {
		return
	}
	c.EmitSpan("Fault", "plan", "rows:1", 0, 10)
}

// TracingGuardDoesNotOutliveBlock: spans after the guarded block are
// unguarded.
func TracingGuardDoesNotOutliveBlock(c *telemetry.Collector) {
	if c.Tracing() {
		c.EmitSpan("NoC", "links", "g0", 0, 1)
	}
	c.EmitSpan("NoC", "links", "g1", 0, 1) // want `unguarded telemetry emission: wrap c.EmitSpan in .if c.Tracing`
}

// CounterBehindTracing vanishes from counters-only collectors.
func CounterBehindTracing(c *telemetry.Collector) {
	if c.Tracing() {
		c.EmitCounter("noc/sends", 1) // want `telemetry counter behind a Tracing\(\) guard`
	}
}

// CounterBehindEnabledAndTracing still vanishes: the inner Tracing()
// guard decides.
func CounterBehindEnabledAndTracing(c *telemetry.Collector) {
	if c.Enabled() {
		if c.Tracing() {
			c.EmitCounter("noc/sends", 1) // want `telemetry counter behind a Tracing\(\) guard`
		}
	}
}

// CounterAfterTracingEarlyReturn vanishes the same way.
func CounterAfterTracingEarlyReturn(c *telemetry.Collector) {
	if !c.Tracing() {
		return
	}
	c.EmitCounter("sim/groups", 1) // want `telemetry counter behind a Tracing\(\) guard`
}
