package sim

import (
	"bytes"
	"math"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/sched"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

// runWithTelemetry schedules and simulates bootstrapping on CROPHE-64
// with a fresh collector attached to both stages.
func runWithTelemetry(t *testing.T) (*telemetry.Collector, *Result, *sched.Schedule, *workload.Workload) {
	t.Helper()
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	tel := telemetry.New()
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).WithTelemetry(tel).Run(w)
	r, err := New(arch.CROPHE64, WithTelemetry(tel)).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	return tel, r, s, w
}

// TestTraceReconcilesWithUtil is the acceptance check of the
// observability layer: summing span durations on the aggregate lane of
// each resource track must reproduce Result.Util within 1%. The
// aggregate lanes ("PE"/"array", "NoC"/"links", "SRAM"/"banks",
// "HBM"/"channels" — plus the segment-level aux spans) carry exactly the
// cycles the simulator adds to its busy accumulators; per-row and
// per-transfer lanes are visual detail excluded from the sum.
func TestTraceReconcilesWithUtil(t *testing.T) {
	tel, r, s, w := runWithTelemetry(t)

	busy := map[string]float64{}
	for _, sp := range tel.Spans() {
		switch {
		case sp.Track == "PE" && sp.Lane == "array":
			busy["PE"] += sp.Dur
		case sp.Track == "NoC" && sp.Lane == "links":
			busy["NoC"] += sp.Dur
		case sp.Track == "SRAM" && sp.Lane == "banks":
			busy["SRAM"] += sp.Dur
		case sp.Track == "HBM" && sp.Lane == "channels":
			busy["HBM"] += sp.Dur
		}
	}

	clusters := s.Opt.Clusters
	if clusters < 1 {
		clusters = 1
	}
	if clusters > w.DataParallel {
		clusters = w.DataParallel
	}
	total := r.Cycles * float64(clusters)
	want := map[string]float64{
		"PE": r.Util.PE, "NoC": r.Util.NoC, "SRAM": r.Util.SRAM, "DRAM": r.Util.DRAM,
	}
	trackFor := map[string]string{"PE": "PE", "NoC": "NoC", "SRAM": "SRAM", "DRAM": "HBM"}
	for res, util := range want {
		got := busy[trackFor[res]] / total
		if got > 1 {
			got = 1
		}
		if util == 0 {
			t.Errorf("%s utilisation zero — workload exercises every resource", res)
			continue
		}
		if rel := math.Abs(got-util) / util; rel > 0.01 {
			t.Errorf("%s: trace busy/total = %.4f but Util = %.4f (rel err %.2f%%)",
				res, got, util, rel*100)
		}
	}

	// The same reconciliation must hold against the exported counters.
	for res, key := range map[string]string{
		"PE": "sim/busy_cycles/pe", "NoC": "sim/busy_cycles/noc",
		"SRAM": "sim/busy_cycles/sram", "DRAM": "sim/busy_cycles/dram",
	} {
		c := tel.Counter(key)
		b := busy[trackFor[res]]
		if math.Abs(c-b) > 1e-6*(1+math.Abs(c)) {
			t.Errorf("%s: counter %s = %v but span sum = %v", res, key, c, b)
		}
	}
}

// TestTraceHasAllTracks checks the Chrome export contains the four
// resource tracks plus the schedule overview, segment spans for every
// unique segment, and that transfers were recorded.
func TestTraceHasAllTracks(t *testing.T) {
	tel, r, _, w := runWithTelemetry(t)

	tracks := map[string]bool{}
	segSpans := 0
	for _, sp := range tel.Spans() {
		tracks[sp.Track] = true
		if sp.Track == "Schedule" && sp.Lane == "segments" {
			segSpans++
		}
	}
	for _, want := range []string{"Schedule", "PE", "NoC", "SRAM", "HBM"} {
		if !tracks[want] {
			t.Errorf("missing %s track", want)
		}
	}
	if segSpans != len(w.Segments) {
		t.Errorf("segment spans %d want %d", segSpans, len(w.Segments))
	}
	if tel.Counter("sim/transfers") == 0 {
		t.Error("no transfers recorded")
	}
	if len(r.Counters) == 0 {
		t.Error("Result.Counters empty with telemetry enabled")
	}
	if _, err := tel.ChromeTrace(); err != nil {
		t.Fatalf("export failed: %v", err)
	}
}

// TestTraceDeterministicAcrossRuns pins the determinism contract: two
// full schedule+simulate runs must export byte-identical traces.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	export := func() []byte {
		w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
		tel := telemetry.New()
		s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).WithTelemetry(tel).Run(w)
		if _, err := New(arch.CROPHE64, WithTelemetry(tel)).SimulateSchedule(w, s); err != nil {
			t.Fatal(err)
		}
		data, err := tel.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs exported different traces")
	}
}

// TestDisabledTelemetryLeavesNoTrace: the default engine must not
// allocate or record anything observability-related.
func TestDisabledTelemetryLeavesNoTrace(t *testing.T) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	r, err := New(arch.CROPHE64).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters != nil {
		t.Fatalf("Counters populated without a collector: %v", r.Counters)
	}
	if New(arch.CROPHE64).Telemetry() != nil {
		t.Fatal("default engine has a collector")
	}
}

// TestTelemetryDoesNotChangeResults: attaching a collector must be
// purely observational — cycles, energy, and utilisation identical.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	plain, err := New(arch.CROPHE64).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := New(arch.CROPHE64, WithTelemetry(telemetry.New())).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != traced.Cycles || plain.EnergyJ != traced.EnergyJ || plain.Util != traced.Util {
		t.Fatalf("telemetry changed results: %+v vs %+v", plain, traced)
	}
}

// TestMeshOverride: the topology knob must change NoC behaviour while
// invalid overrides are ignored.
func TestMeshOverride(t *testing.T) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	base, err := New(arch.CROPHE64).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := New(arch.CROPHE64, WithMeshOverride(4, 16)).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Cycles <= 0 {
		t.Fatal("override produced no cycles")
	}
	if narrow.Cycles == base.Cycles && narrow.Util.NoC == base.Util.NoC {
		t.Error("4x16 override indistinguishable from native 8x8 mesh")
	}
	ignored, err := New(arch.CROPHE64, WithMeshOverride(0, -1)).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if ignored.Cycles != base.Cycles {
		t.Error("non-positive override was not ignored")
	}
}

// BenchmarkSimulate measures the telemetry-disabled hot path; compare
// with BenchmarkSimulateTraced to bound the enabled-path cost. The
// disabled path must stay within noise of the pre-telemetry simulator;
// nothing pins that budget dynamically, so compare by hand.
func BenchmarkSimulate(b *testing.B) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	e := New(arch.CROPHE64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SimulateSchedule(w, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateTraced(b *testing.B) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := telemetry.New()
		if _, err := New(arch.CROPHE64, WithTelemetry(tel)).SimulateSchedule(w, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCounters measures the counters-only path crophe-serve
// takes: counters are kept, spans are never built.
func BenchmarkSimulateCounters(b *testing.B) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel := telemetry.NewCounters()
		if _, err := New(arch.CROPHE64, WithTelemetry(tel)).SimulateSchedule(w, s); err != nil {
			b.Fatal(err)
		}
	}
}
