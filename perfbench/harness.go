package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crophe/internal/telemetry"
)

// outDir holds everything a run leaves behind (binary, Go caches, Chrome
// traces, result files). It is relative to the working directory, which
// is the repository root, and is listed in the root .gitignore.
const outDir = ".bench_build/perfbench"

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is the full, host-stamped form of a run kept under outDir: the
// printed Result plus the fingerprint the compare step checks and
// the workload-specific figures (accuracy, tail percentile) that are not
// part of the shared metric set.
type Record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     Host               `json:"host"`
	Result   Result             `json:"result"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// Host identifies the machine and toolchain a timing was taken on.
// Timings taken under different fingerprints are not comparable.
type Host struct {
	CPUModel   string `json:"cpu_model"`
	VCPUs      int    `json:"vcpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
}

func hostFingerprint() Host {
	h := Host{
		CPUModel:   "unknown",
		VCPUs:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile p (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailLadder are the candidate tail percentiles, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailLatency returns the highest ladder percentile with at least ten
// samples beyond it, and that percentile. With fewer than 20 samples
// no rung qualifies and the median is returned as p50.
func tailLatency(xs []float64) (value, pct float64) {
	n := float64(len(xs))
	for _, p := range tailLadder {
		if n*(100-p)/100 >= 10 {
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}

// Span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type Span struct {
	Layer, Name string
	Lane        int
	Parent      int // index into the tracer's spans; -1 for a root
	Start, End  time.Duration
	// Mallocs and AllocBytes are the heap deltas over the span (only
	// for spans opened with beginMem).
	Mallocs, AllocBytes uint64
	withMem             bool
	// Args are per-call counts attached after the call (search
	// candidates, simulated groups, memo source).
	Args map[string]float64
}

func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer records spans. A nil *Tracer is disabled and free, so the
// untraced run pays only a nil check per layer call.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (t *Tracer) begin(layer, name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Layer: layer, Name: name, Lane: lane, Parent: parent, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *Tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setArgs attaches per-call counts to a span.
func (t *Tracer) setArgs(id int, args map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Args = args
	t.mu.Unlock()
}

// memSpan is a span that also attributes heap allocation. Reading the
// heap statistics stops the world briefly, so it is taken outside the
// span's own timing; only the enclosing span absorbs that cost.
type memSpan struct {
	t  *Tracer // nil when tracing is off
	id int
	ms runtime.MemStats
}

func (t *Tracer) beginMem(layer, name string, parent, lane int) *memSpan {
	if t == nil {
		return &memSpan{id: -1}
	}
	m := &memSpan{t: t}
	runtime.ReadMemStats(&m.ms)
	m.id = t.begin(layer, name, parent, lane)
	return m
}

func (m *memSpan) end() {
	if m.t == nil {
		return
	}
	m.t.end(m.id)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.t.mu.Lock()
	s := &m.t.spans[m.id]
	s.Mallocs = after.Mallocs - m.ms.Mallocs
	s.AllocBytes = after.TotalAlloc - m.ms.TotalAlloc
	s.withMem = true
	m.t.mu.Unlock()
}

// LayerStat aggregates the spans of one layer (or one span name).
type LayerStat struct {
	Calls      int
	Self       []float64 // per-call self time, seconds
	SelfSum    float64
	Mallocs    float64 // self heap deltas
	AllocBytes float64
	Args       map[string]float64 // summed span args
}

// stats computes self times (a span's duration minus the time its child
// spans cover) and groups them by key(span).
func (t *Tracer) stats(key func(Span) string) map[string]*LayerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make([]time.Duration, len(t.spans))
	childMallocs := make([]uint64, len(t.spans))
	childBytes := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.Dur()
			childMallocs[s.Parent] += s.Mallocs
			childBytes[s.Parent] += s.AllocBytes
		}
	}
	out := map[string]*LayerStat{}
	for i, s := range t.spans {
		k := key(s)
		if k == "" {
			continue
		}
		st := out[k]
		if st == nil {
			st = &LayerStat{}
			out[k] = st
		}
		self := (s.Dur() - childDur[i]).Seconds()
		st.Calls++
		st.Self = append(st.Self, self)
		st.SelfSum += self
		for k, v := range s.Args {
			if st.Args == nil {
				st.Args = map[string]float64{}
			}
			st.Args[k] += v
		}
		if s.withMem {
			st.Mallocs += float64(s.Mallocs - childMallocs[i])
			st.AllocBytes += float64(s.AllocBytes - childBytes[i])
		}
	}
	return out
}

// writeChrome exports the spans through telemetry.Collector as a Chrome
// trace (one process per layer, one thread per client lane; times in µs).
func (t *Tracer) writeChrome(path string) error {
	c := telemetry.New()
	c.SetTimeUnit("us")
	t.mu.Lock()
	for _, s := range t.spans {
		c.EmitSpan(s.Layer, fmt.Sprintf("lane %d", s.Lane), s.Name,
			float64(s.Start.Nanoseconds())/1e3, float64(s.Dur().Nanoseconds())/1e3)
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return c.WriteChromeTraceFile(path)
}

// runtimeSample is a snapshot of the Go runtime's CPU and heap totals.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func sampleRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ms)
	var r runtimeSample
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ms[2].Value.Uint64()
	}
	return r
}

// timeReps runs op until at least minDur has elapsed (at least once)
// and returns the mean time per call in seconds.
func timeReps(minDur time.Duration, op func()) float64 {
	reps := 0
	start := time.Now()
	for {
		op()
		reps++
		if el := time.Since(start); el >= minDur {
			return el.Seconds() / float64(reps)
		}
	}
}

// medianOf samples timeReps n times and returns the median.
func medianOf(n int, minDur time.Duration, op func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = timeReps(minDur, op)
	}
	return median(xs)
}
