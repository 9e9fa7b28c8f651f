// Command perfbench is the repository benchmark. It drives the CROPHE
// stack only through the public functions of its layers, checks every
// output against golden values recorded from the unchanged model, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 36 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are also written as a Chrome trace under .bench_build/perfbench.
//
// Other modes:
//
//	perfbench compare A.json B.json   compare two result records
//	perfbench record                  re-record the golden outputs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "record":
			if err := recordGoldens(filepath.Join("perfbench", "golden")); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench record:", err)
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 36, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	_ = fs.Parse(os.Args[1:]) // ExitOnError

	rec, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(rec, path)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Workload is one seeded input set the benchmark runs.
type Workload struct {
	Name, Why string
	// Setup builds the workload's state from the seed; the run repeats it
	// and reports the median as setup_s.
	Setup func(seed int64) (State, error)
}

// State is a set-up workload.
type State interface {
	// Loop runs ops closed-loop from the start of the seeded op sequence
	// for about budget and reports them; tr is nil in untraced runs.
	Loop(tr *Tracer, budget time.Duration) (*Phase, error)
	// Accuracy adds the workload's own accuracy figures for the last
	// loop (they are specific to one workload, so they go to the record's
	// extra figures rather than the shared metric set).
	Accuracy(extra map[string]float64)
	Close() error
}

// Phase is one measured loop.
type Phase struct {
	Lanes       int // concurrent closed-loop callers
	Ops, Failed int
	Wall        time.Duration
	Failures    []string // first few failure descriptions
	// Rate (ops/s), P50 and Tail (seconds) are the workload's
	// median-based estimates. The host's speed drifts by tens of percent
	// over a few seconds, so each workload reports medians over repeated
	// points, ops or passes, not totals (see the Loop methods). Tail is
	// at percentile TailPct of Samples latencies.
	Rate, P50, Tail float64
	TailPct         float64
	Samples         int
}

func (p *Phase) fail(format string, a ...any) {
	p.Failed++
	if len(p.Failures) < 5 {
		p.Failures = append(p.Failures, fmt.Sprintf(format, a...))
	}
}

var workloads = []Workload{paperEval, serveMix, ckksBoot}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

func run(name string, seed int64, seconds int, trace bool) (*Record, error) {
	var w *Workload
	for i := range workloads {
		if workloads[i].Name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	budget := time.Duration(seconds) * time.Second

	var st State
	setups := make([]float64, setupReps)
	for i := range setups {
		// A collection still running from the previous set-up would
		// otherwise be charged to this one.
		runtime.GC()
		start := time.Now()
		s, err := w.Setup(seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups[i] = time.Since(start).Seconds()
		if i < setupReps-1 {
			if err := s.Close(); err != nil {
				return nil, fmt.Errorf("%s setup close: %w", name, err)
			}
		} else {
			st = s
		}
	}
	defer st.Close()

	rec := &Record{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Host: hostFingerprint(), Extra: map[string]float64{}}
	var phases []*Phase
	vals := map[string]float64{}
	if !trace {
		ph, err := st.Loop(nil, budget)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		vals["throughput_ops_per_s"] = ph.Rate
		vals["setup_s"] = median(setups)
		vals["latency_p50_ms"] = ph.P50 * 1e3
		vals["latency_tail_ms"] = ph.Tail * 1e3
		rec.Extra["latency_tail_percentile"] = ph.TailPct
		rec.Extra["latency_samples"] = float64(ph.Samples)
		st.Accuracy(rec.Extra)
	} else {
		var err error
		phases, err = tracedRun(st, seed, budget, vals, filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", name, seed)))
		if err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals["peak_rss_mb"] = rss

	res := Result{Correct: true}
	for _, ph := range phases {
		res.Attempted += ph.Ops
		res.Failed += ph.Failed
		for _, f := range ph.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	vals["ok_frac"] = 1 - float64(res.Failed)/float64(max(res.Attempted, 1))
	rec.Extra["failed_frac"] = 1 - vals["ok_frac"]
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	if res.Metrics, err = metricSet(specs, vals); err != nil {
		return nil, err
	}
	rec.Result = res
	return rec, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create %s: %w", filepath.Dir(path), err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printSummary(rec *Record, path string) {
	h := rec.Host
	fmt.Printf("host: %s | vcpus=%d gomaxprocs=%d %s GOAMD64=%s\n", h.CPUModel, h.VCPUs, h.GOMAXPROCS, h.GoVersion, h.GOAMD64)
	fmt.Printf("%s seed=%d trace=%t: attempted=%d failed=%d (record: %s)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Result.Attempted, rec.Result.Failed, path)
	names := make([]string, 0, len(rec.Result.Metrics)+len(rec.Extra))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Printf("  %-38s %14.6g %s\n", n, m.Value, m.Unit)
	}
	extras := make([]string, 0, len(rec.Extra))
	for n := range rec.Extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Printf("  [extra] %-30s %14.6g\n", n, rec.Extra[n])
	}
}
