// Package telemetry is the cycle-level observability layer of the CROPHE
// stack: a zero-cost-when-disabled event/counter subsystem the simulator,
// scheduler, NoC and memory models emit into, with a Chrome trace-event
// (chrome://tracing / Perfetto) exporter and host-profile correlation
// hooks.
//
// The design contract is that a nil *Collector is a valid, disabled
// collector: every method is nil-safe, and Enabled() on a nil receiver
// returns false. Hot paths must still guard emission sites with
//
//	if tel.Enabled() {
//		tel.EmitCounter(...)
//	}
//	if tel.Tracing() {
//		tel.EmitSpan(...)
//	}
//
// so that argument construction (string formatting, slice allocation) is
// never paid when telemetry is off. Tracing() is also false on an enabled
// counters-only collector (NewCounters), which keeps counters and drops
// spans, so span arguments are built only when the span is kept. The
// crophe-lint `telemetryguard` analyzer enforces both guards statically.
//
// All times are model cycles, not wall clock: the exporter maps one cycle
// to one trace microsecond, so Perfetto's timeline reads directly in
// cycles. Collectors are safe for concurrent emission (mutex-guarded) and
// their exported output is deterministic: spans serialise in emission
// order and counters in name order, so two runs of the same schedule
// produce byte-identical traces.
package telemetry

import (
	"sort"
	"sync"
)

// Arg is one key/value annotation attached to a span. Args are plain
// ordered pairs (not a map) so trace output never depends on map
// iteration order.
type Arg struct {
	Key   string
	Value float64
}

// Span is one busy interval of a modeled resource, in cycles.
type Span struct {
	// Track is the resource group the span belongs to ("PE", "NoC",
	// "SRAM", "HBM", "Schedule") — exported as a Chrome trace process.
	Track string
	// Lane is the sub-track within the group (a PE row, "links",
	// "channels") — exported as a Chrome trace thread.
	Lane string
	// Name labels the span (segment, group, or transfer identity).
	Name string
	// Start and Dur are in model cycles.
	Start float64
	Dur   float64
	Args  []Arg
}

// Counter is one aggregated named counter value.
type Counter struct {
	Name  string
	Value float64
}

// Collector gathers spans and counters for one simulation run. The zero
// value is not used directly; construct with New or NewCounters. A nil
// *Collector is the disabled collector.
type Collector struct {
	mu       sync.Mutex
	spans    []Span
	counters map[string]float64
	timeUnit string
	// countersOnly is fixed at construction: EmitSpan drops spans.
	countersOnly bool
}

// New returns an enabled, empty collector that keeps spans and counters.
func New() *Collector {
	return &Collector{counters: make(map[string]float64)}
}

// NewCounters returns an enabled, empty collector that keeps counters and
// drops spans: the collector for callers that only read counters, such
// as a long-running server, whose span list would otherwise grow with
// every run.
func NewCounters() *Collector {
	return &Collector{counters: make(map[string]float64), countersOnly: true}
}

// SetTimeUnit overrides the unit label written into the exported trace's
// otherData ("cycles" by default). crophe-bench uses "ms" because its
// experiment spans are wall clock, not model time. Nil-safe.
func (c *Collector) SetTimeUnit(unit string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.timeUnit = unit
	c.mu.Unlock()
}

// TimeUnit returns the unit label of the trace timeline.
func (c *Collector) TimeUnit() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeUnit == "" {
		return "cycles"
	}
	return c.timeUnit
}

// Enabled reports whether the collector records events. A nil receiver is
// disabled; emission sites use this as their zero-cost guard.
func (c *Collector) Enabled() bool { return c != nil }

// Tracing reports whether the collector keeps spans: false on a nil or
// counters-only collector. Span emission sites use this as their guard.
func (c *Collector) Tracing() bool { return c != nil && !c.countersOnly }

// EmitSpan records one busy interval. Callers must guard with Tracing()
// so span-argument construction is free when spans are not kept; the
// call itself is also nil-safe, and a no-op on a counters-only
// collector, as a second line of defence.
func (c *Collector) EmitSpan(track, lane, name string, start, dur float64, args ...Arg) {
	if !c.Tracing() {
		return
	}
	c.mu.Lock()
	c.spans = append(c.spans, Span{
		Track: track, Lane: lane, Name: name,
		Start: start, Dur: dur, Args: args,
	})
	c.mu.Unlock()
}

// EmitCounter accumulates delta into the named counter. Nil-safe; callers
// must still guard with Enabled() (key construction is often the real
// cost), never with Tracing(), which a counters-only collector fails.
func (c *Collector) EmitCounter(name string, delta float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Counter returns the current value of one counter (0 when absent or
// disabled).
func (c *Collector) Counter(name string) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Counters returns all counters sorted by name — the deterministic
// aggregate view merged into sim.Result and the crophe-bench report.
func (c *Collector) Counters() []Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Counter, 0, len(c.counters))
	for name, v := range c.counters {
		out = append(out, Counter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CounterMap returns a copy of the counters as a map (for JSON encoding,
// which sorts keys itself).
func (c *Collector) CounterMap() map[string]float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// Spans returns a copy of the recorded spans in emission order.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// SpanCount returns the number of recorded spans without copying.
func (c *Collector) SpanCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Reset drops all recorded spans and counters, keeping the collector
// enabled.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = c.spans[:0]
	c.counters = make(map[string]float64)
	c.mu.Unlock()
}
