package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"sync"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/fault"
	"crophe/internal/sched"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

// pinCase is one simulation of the bit-identity set: a schedule plus the
// fault machine (nil when healthy) it runs on.
type pinCase struct {
	name   string
	hw     *arch.HWConfig
	w      *workload.Workload
	s      *sched.Schedule
	faults *fault.Machine
}

// run simulates the case with the given collector (nil for untraced).
func (c *pinCase) run(t testing.TB, tel *telemetry.Collector) *Result {
	t.Helper()
	opts := []Option{WithTelemetry(tel)}
	if c.faults != nil {
		opts = append(opts, WithFaults(c.faults))
	}
	r, err := New(c.hw, opts...).SimulateSchedule(c.w, c.s)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return r
}

// pinParams mirrors the serving layer's hardware → parameter-set pairing.
func pinParams(hw *arch.HWConfig) arch.ParamSet {
	if hw.Homogeneous {
		if hw.WordBits == 64 {
			return arch.ParamsARK
		}
		return arch.ParamsSHARP
	}
	return arch.ParamsFor(hw)
}

// pinWorkloads are the four serve workloads, built as the serving layer
// builds them (hoisted rotations).
func pinWorkloads(p arch.ParamSet) []*workload.Workload {
	return []*workload.Workload{
		workload.Bootstrapping(p, workload.RotHoisted, 0),
		workload.HELR(p, workload.RotHoisted, 0),
		workload.ResNet(p, 20, workload.RotHoisted, 0),
		workload.ResNet(p, 110, workload.RotHoisted, 0),
	}
}

// pinCases builds the serve request space: 48 /v1/simulate keys (six
// chips × four workloads × CROPHE and MAD dataflows) and 40 degraded runs
// (the two homogeneous chips × four workloads × five fault specs, seed =
// spec index + 1), scheduled the way the handlers schedule them.
func pinCases(t testing.TB) []pinCase {
	t.Helper()
	var out []pinCase
	for _, hw := range []*arch.HWConfig{arch.BTS, arch.ARK, arch.SHARP, arch.CLPlus, arch.CROPHE64, arch.CROPHE36} {
		for _, w := range pinWorkloads(pinParams(hw)) {
			dec := w.DecomposeNTTs()
			out = append(out,
				pinCase{name: hw.Name + "/" + w.Name + "/crophe", hw: hw, w: dec,
					s: sched.New(hw, sched.DefaultOptions(sched.DataflowCROPHE)).Run(dec)},
				pinCase{name: hw.Name + "/" + w.Name + "/mad", hw: hw, w: w,
					s: sched.New(hw, sched.DefaultOptions(sched.DataflowMAD)).Run(w)})
		}
	}
	specs := []string{"rows:1", "links:2,banks:4", "rows:1,links:2,hbm:0.75", "slow:2@0.5,stalls:4@200", "flip:1e-6"}
	for _, hw := range []*arch.HWConfig{arch.CROPHE64, arch.CROPHE36} {
		for _, w := range pinWorkloads(pinParams(hw)) {
			for i, spec := range specs {
				sp, err := fault.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := fault.Generate(hw, sp, int64(i+1))
				if err != nil {
					t.Fatal(err)
				}
				m, err := fault.NewMachine(hw, plan)
				if err != nil {
					t.Fatal(err)
				}
				s, err := sched.New(m.Base, sched.DefaultOptions(sched.DataflowCROPHE)).
					WithPricing(m.EffectiveHW()).Schedule(context.Background(), w)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, pinCase{name: hw.Name + "/" + w.Name + "/" + spec, hw: hw, w: w, s: s, faults: m})
			}
		}
	}
	return out
}

func hashF(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// simPinDigest is the SHA-256 over every pin case's traced Result
// (cycles, energy, utilisation), its counters and its Chrome trace bytes,
// recorded before the mesh's link table became dense and the simulator
// learnt to skip spans for counters-only collectors.
const simPinDigest = "b77d425d3ecdc167d9cfb7b3e8bb1795adc9639e071070f0396a0f29ea38969f"

// TestSimulationPinned pins every simulated number, counter and trace of
// the serve request space bit for bit, and checks that attaching a
// collector never changes a result.
func TestSimulationPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules 88 serve runs")
	}
	h := sha256.New()
	for _, c := range pinCases(t) {
		tel := telemetry.New()
		r := c.run(t, tel)
		plain := c.run(t, nil)
		if plain.Cycles != r.Cycles || plain.EnergyJ != r.EnergyJ || plain.Util != r.Util ||
			!reflect.DeepEqual(plain.PerSegment, r.PerSegment) {
			t.Fatalf("%s: telemetry changed the result", c.name)
		}
		h.Write([]byte(c.name))
		hashF(h, r.Cycles, r.EnergyJ, r.Util.PE, r.Util.NoC, r.Util.SRAM, r.Util.DRAM)
		for _, ctr := range r.Counters {
			h.Write([]byte(ctr.Name))
			hashF(h, ctr.Value)
		}
		trace, err := tel.ChromeTrace()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(trace)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != simPinDigest {
		t.Fatalf("simulation digest %s, pinned %s", got, simPinDigest)
	}
}

// TestCountersOnlyMatchesFullCollector: a counters-only collector ends a
// run with exactly the counters a full collector has, and no spans.
func TestCountersOnlyMatchesFullCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules 88 serve runs")
	}
	for _, c := range pinCases(t) {
		full, counters := telemetry.New(), telemetry.NewCounters()
		r, rc := c.run(t, full), c.run(t, counters)
		if r.Cycles != rc.Cycles || r.EnergyJ != rc.EnergyJ || r.Util != rc.Util {
			t.Fatalf("%s: counters-only collector changed the result", c.name)
		}
		if !reflect.DeepEqual(rc.Counters, r.Counters) || !reflect.DeepEqual(counters.CounterMap(), full.CounterMap()) {
			t.Fatalf("%s: counters-only counters differ from the full collector's", c.name)
		}
		if n := counters.SpanCount(); n != 0 {
			t.Fatalf("%s: counters-only collector kept %d spans", c.name, n)
		}
	}
}

// TestCountersCollectorSharedAcrossGoroutines simulates from four
// goroutines into one counters-only collector, the way crophe-serve
// shares its collector across requests: the integer counters must equal
// four times a serial run's, and no span may be kept.
func TestCountersCollectorSharedAcrossGoroutines(t *testing.T) {
	var cases []pinCase
	for i, c := range pinCases(t) {
		if i%8 == 0 {
			cases = append(cases, c)
		}
	}
	serial := telemetry.NewCounters()
	for _, c := range cases {
		c.run(t, serial)
	}

	const workers = 4
	shared := telemetry.NewCounters()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				c := &cases[(i+g)%len(cases)]
				opts := []Option{WithTelemetry(shared)}
				if c.faults != nil {
					opts = append(opts, WithFaults(c.faults))
				}
				if _, err := New(c.hw, opts...).SimulateSchedule(c.w, c.s); err != nil {
					t.Errorf("%s: %v", c.name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, name := range []string{"sim/groups", "noc/sends", "hbm/transfers"} {
		want := workers * serial.Counter(name)
		if want == 0 {
			t.Fatalf("%s is zero in the serial run", name)
		}
		if got := shared.Counter(name); got != want {
			t.Errorf("%s = %v, want %d × serial = %v", name, got, workers, want)
		}
	}
	if n := shared.SpanCount(); n != 0 {
		t.Fatalf("shared counters-only collector kept %d spans", n)
	}
}
