package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestNilCollectorIsDisabledAndSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	// Every method must be nil-safe.
	c.EmitSpan("PE", "row 0", "g0", 0, 10)
	c.EmitCounter("x", 1)
	c.Reset()
	if c.Counter("x") != 0 || c.Counters() != nil || c.Spans() != nil || c.SpanCount() != 0 {
		t.Fatal("nil collector leaked state")
	}
	if c.CounterMap() != nil {
		t.Fatal("nil collector returned a counter map")
	}
	if _, err := c.ChromeTrace(); err == nil {
		t.Fatal("exporting a nil collector should fail")
	}
}

// TestCountersOnlyCollector: NewCounters is enabled but not tracing; it
// drops spans and keeps counters, before and after Reset.
func TestCountersOnlyCollector(t *testing.T) {
	var disabled *Collector
	if disabled.Tracing() {
		t.Fatal("nil collector reports tracing")
	}
	if !New().Tracing() {
		t.Fatal("full collector does not report tracing")
	}
	c := NewCounters()
	if !c.Enabled() || c.Tracing() {
		t.Fatalf("counters-only collector: Enabled %v Tracing %v, want true false", c.Enabled(), c.Tracing())
	}
	for round := 0; round < 2; round++ {
		c.EmitSpan("PE", "array", "g0", 0, 10)
		c.EmitCounter("noc/sends", 2)
		if c.SpanCount() != 0 || len(c.Spans()) != 0 {
			t.Fatalf("round %d: counters-only collector kept %d spans", round, c.SpanCount())
		}
		if v := c.Counter("noc/sends"); v != 2 {
			t.Fatalf("round %d: counter %v want 2", round, v)
		}
		c.Reset()
	}
}

func TestSpanAndCounterAccumulation(t *testing.T) {
	c := New()
	if !c.Enabled() {
		t.Fatal("fresh collector disabled")
	}
	c.EmitSpan("PE", "array", "group 0", 0, 100, Arg{"ops", 4})
	c.EmitSpan("NoC", "links", "group 0", 0, 40)
	c.EmitCounter("noc/bytes", 64)
	c.EmitCounter("noc/bytes", 36)
	c.EmitCounter("hbm/bursts", 2)

	if n := c.SpanCount(); n != 2 {
		t.Fatalf("span count %d want 2", n)
	}
	if v := c.Counter("noc/bytes"); v != 100 {
		t.Fatalf("counter accumulation %v want 100", v)
	}
	cs := c.Counters()
	if len(cs) != 2 || cs[0].Name != "hbm/bursts" || cs[1].Name != "noc/bytes" {
		t.Fatalf("counters not name-sorted: %+v", cs)
	}
	spans := c.Spans()
	if spans[0].Track != "PE" || spans[0].Args[0].Key != "ops" {
		t.Fatalf("span content %+v", spans[0])
	}

	c.Reset()
	if c.SpanCount() != 0 || len(c.Counters()) != 0 {
		t.Fatal("reset did not clear state")
	}
	if !c.Enabled() {
		t.Fatal("reset disabled the collector")
	}
}

// TestConcurrentEmissionRaceClean hammers one collector from many
// goroutines; `go test -race` proves the mutex guards every path.
func TestConcurrentEmissionRaceClean(t *testing.T) {
	c := New()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if c.Enabled() {
					c.EmitSpan("PE", fmt.Sprintf("row %d", w), "g", float64(i), 1)
					c.EmitCounter("spans", 1)
				}
				_ = c.Counter("spans")
				if i%50 == 0 {
					_ = c.Counters()
					_ = c.Spans()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Counter("spans"); got != workers*perWorker {
		t.Fatalf("lost counter increments: %v want %d", got, workers*perWorker)
	}
	if got := c.SpanCount(); got != workers*perWorker {
		t.Fatalf("lost spans: %d want %d", got, workers*perWorker)
	}
}

// TestChromeTraceDeterministic re-exports the same collector and rebuilds
// an identical collector; all exports must be byte-identical.
func TestChromeTraceDeterministic(t *testing.T) {
	build := func() *Collector {
		c := New()
		for i := 0; i < 5; i++ {
			c.EmitSpan("PE", fmt.Sprintf("row %d", i%2), fmt.Sprintf("group %d", i),
				float64(i)*10, 8, Arg{"ops", float64(i)})
			c.EmitCounter(fmt.Sprintf("noc/link/%d", 4-i), float64(i))
		}
		c.EmitSpan("HBM", "channels", "aux", 0, 30)
		return c
	}
	c := build()
	a, err := c.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("re-export of the same collector differs")
	}
	c2 := build()
	d, err := c2.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, d) {
		t.Fatal("export of an identically-built collector differs")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := New()
	c.EmitSpan("PE", "array", "g", 0, 1)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || buf.Bytes()[buf.Len()-1] != '\n' {
		t.Fatal("trace output missing or not newline-terminated")
	}
}

func TestHostSpanRunsBody(t *testing.T) {
	ran := false
	WithHostSpan(context.Background(), "unit", func(ctx context.Context) {
		defer HostRegion(ctx, "inner")()
		ran = true
	})
	if !ran {
		t.Fatal("WithHostSpan did not run the body")
	}
}
