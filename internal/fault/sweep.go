package fault

import (
	"context"
	"fmt"
	"strings"

	"crophe/internal/arch"
	"crophe/internal/parallel"
)

// Outcome is what a Runner reports for one degraded machine: the
// simulated (or scheduled) task time and whether the anytime search was
// cut before finishing.
type Outcome struct {
	TimeSec float64
	Cycles  float64
	Partial bool
}

// Runner executes a workload on one degraded machine. The fault package
// deliberately does not know how — the simulator injects itself here
// (sim.DegradedRunner), keeping the dependency arrow pointing one way.
type Runner func(m *Machine) (Outcome, error)

// SweepPoint is one rung of a resilience sweep.
type SweepPoint struct {
	Step       int
	FracFailed float64 // nominal fraction of each resource class failed
	Spec       Spec
	FaultCount int
	Outcome    Outcome
	// Err is the flattened error for infeasible rungs ("" when the rung
	// ran): the sweep keeps going so the report shows where the machine
	// stops being schedulable.
	Err string
}

// Retained is the throughput retained versus the healthy baseline
// (1 = full speed, 0 = infeasible).
func (pt *SweepPoint) Retained(baseline float64) float64 {
	if pt.Err != "" || pt.Outcome.TimeSec <= 0 || baseline <= 0 {
		return 0
	}
	r := baseline / pt.Outcome.TimeSec
	if r > 1 {
		r = 1
	}
	return r
}

// SweepResult is a full resilience sweep: escalating fault loads under
// one seed, all points generated from nested plans so throughput
// degrades monotonically in the fault count.
type SweepResult struct {
	HW       string
	Seed     int64
	Baseline float64 // healthy TimeSec (the step-0 outcome)
	Points   []SweepPoint
}

// maxSweepFrac bounds how much of each resource class the final rung
// fails; beyond ~half the machine the interesting transitions (graceful
// → infeasible) have already happened.
const maxSweepFrac = 0.5

// sweepSpec scales a fault load to a fraction of each resource class.
func sweepSpec(hw *arch.HWConfig, frac float64) Spec {
	meshW, meshH := hw.MeshW, hw.MeshH
	if meshW < 1 || meshH < 1 {
		meshW, meshH = hw.NumPEs, 1
		if meshW > 64 {
			meshW = 64
		}
	}
	links := len(meshLinks(meshW, meshH))
	s := Spec{
		FailedRows: int(frac * float64(meshH-1)),
		DeadLinks:  int(frac * float64(links) / 4),
		SlowLinks:  int(frac * float64(links) / 4),
		SlowFactor: 0.5,
		DeadBanks:  int(frac * float64(bufBanks-1)),
		HBMFrac:    1 - frac/2,
		LaneFrac:   frac / 2,
		FlipRate:   frac / 4,
	}
	if s.SlowLinks == 0 {
		s.SlowFactor = 0
	}
	return s
}

// SweepConfig is the resolved option set of one RunSweep call. Callers
// normally never build one directly — they pass SweepOption values to
// RunSweep — but BuildSweepConfig exposes the resolution so façades can
// make mode-dependent choices (e.g. which context the runner captures).
type SweepConfig struct {
	// Observe, when set, receives each freshly computed rung before the
	// next begins — the append-only checkpoint-journaling hook. Spliced
	// (Done) rungs are not re-observed. Forces sequential execution.
	Observe func(SweepPoint)
	// Done holds rungs already computed by a previous run, keyed by step
	// index; they are spliced into the result verbatim instead of
	// re-running. Forces sequential execution.
	Done map[int]SweepPoint
	// ShardIndex/ShardCount restrict the sweep to the rungs whose step
	// satisfies step % ShardCount == ShardIndex. ShardCount 0 disables
	// sharding (every rung runs).
	ShardIndex int
	ShardCount int
	// Parallel runs rungs concurrently via internal/parallel instead of
	// sequentially in step order. Incompatible with Observe (the
	// journaling contract is "each rung lands before the next begins").
	Parallel bool
}

// Sequential reports whether the config forces in-order execution: any
// journaling or resume state implies the sequential contract.
func (c *SweepConfig) Sequential() bool { return !c.Parallel }

func (c *SweepConfig) validate() error {
	if c.ShardCount < 0 {
		return fmt.Errorf("fault: negative shard count %d", c.ShardCount)
	}
	if c.ShardCount > 0 && (c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount) {
		return fmt.Errorf("fault: shard index %d out of range [0, %d)", c.ShardIndex, c.ShardCount)
	}
	if c.Parallel && c.Observe != nil {
		return fmt.Errorf("fault: WithParallel is incompatible with WithJournal (observe order is the sequential contract)")
	}
	return nil
}

// SweepOption configures RunSweep.
type SweepOption func(*SweepConfig)

// WithJournal hands each freshly computed rung to observe before the next
// begins — the checkpoint-journaling hook. Implies sequential execution.
func WithJournal(observe func(SweepPoint)) SweepOption {
	return func(c *SweepConfig) { c.Observe = observe }
}

// WithResume splices previously computed rungs (keyed by step) into the
// result instead of re-running them. Implies sequential execution.
func WithResume(done map[int]SweepPoint) SweepOption {
	return func(c *SweepConfig) { c.Done = done }
}

// WithShard restricts the sweep to shard index of count: only rungs whose
// step satisfies step % count == index run, and the result holds exactly
// those points (in ascending step order). Shards of the same (hw, seed,
// steps, runner) partition the full sweep; MergeShards reassembles them
// into a result byte-identical to an unsharded run.
func WithShard(index, count int) SweepOption {
	return func(c *SweepConfig) { c.ShardIndex, c.ShardCount = index, count }
}

// WithParallel runs rungs concurrently (each writing its index-addressed
// slot, so the result is still deterministic). Incompatible with
// WithJournal.
func WithParallel() SweepOption {
	return func(c *SweepConfig) { c.Parallel = true }
}

// BuildSweepConfig resolves a SweepOption list the way RunSweep does.
func BuildSweepConfig(opts ...SweepOption) SweepConfig {
	var c SweepConfig
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// ShardSteps returns the ascending step indices shard index-of-count owns
// within a steps-rung sweep: the steps congruent to index mod count.
// count < 1 means "no sharding" and returns every step.
func ShardSteps(steps, index, count int) []int {
	if steps < 2 {
		steps = 2
	}
	if count < 1 {
		count, index = 1, 0
	}
	var out []int
	for s := index % count; s < steps; s += count {
		out = append(out, s)
	}
	return out
}

// RunSweep is the single entry point for resilience sweeps: steps rungs
// of escalating fault load (rung 0 healthy, the last rung at maxSweepFrac
// of every resource class), each instantiated under the same seed so rung
// k's fault set nests inside rung k+1's. Options select the execution
// mode:
//
//   - Default (no options): sequential in step order, ctx consulted only
//     *between* rungs — the deterministic, checkpointable contract. Every
//     rung is independently deterministic per (hw, seed, step), and this
//     function never hands the runner a cancellable context mid-rung, so
//     a sweep interrupted by cancellation or a crash loses at most the
//     in-flight rung and resuming (WithResume) produces remaining rungs
//     byte-identical to an uninterrupted run.
//   - WithJournal(observe) streams each completed rung out before the
//     next begins; WithResume(done) splices journaled rungs in verbatim.
//   - WithShard(i, n) runs only the rungs with step % n == i; shard
//     results reassemble via MergeShards.
//   - WithParallel runs rungs concurrently (batch/CLI use; ctx is checked
//     once before launch).
//
// Infeasible rungs are recorded in their point, not returned as errors;
// RunSweep itself fails only on plan-generation bugs, invalid option
// combinations, or between-rung cancellation (wrapping ctx.Err(), seed
// attached).
func RunSweep(ctx context.Context, hw *arch.HWConfig, seed int64, steps int, run Runner, opts ...SweepOption) (*SweepResult, error) {
	if steps < 2 {
		steps = 2
	}
	cfg := BuildSweepConfig(opts...)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sel := ShardSteps(steps, cfg.ShardIndex, cfg.ShardCount)
	res := &SweepResult{HW: hw.Name, Seed: seed, Points: make([]SweepPoint, len(sel))}

	if cfg.Parallel {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fault: sweep interrupted before start (seed %d): %w", seed, err)
		}
		errs := make([]error, len(sel))
		parallel.For(len(sel), func(i int) {
			if pt, ok := cfg.Done[sel[i]]; ok {
				res.Points[i] = pt
				return
			}
			res.Points[i], errs[i] = runStep(hw, seed, steps, sel[i], run)
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for i, step := range sel {
			if pt, ok := cfg.Done[step]; ok {
				res.Points[i] = pt
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("fault: sweep interrupted before step %d (seed %d): %w", step, seed, err)
			}
			pt, err := runStep(hw, seed, steps, step, run)
			if err != nil {
				return nil, err
			}
			res.Points[i] = pt
			if cfg.Observe != nil {
				cfg.Observe(pt)
			}
		}
	}
	if len(res.Points) > 0 && res.Points[0].Step == 0 && res.Points[0].Err == "" {
		res.Baseline = res.Points[0].Outcome.TimeSec
	}
	return res, nil
}

// MergeShards reassembles shard results (produced with WithShard over the
// same hw, seed, steps and runner) into the full steps-rung sweep,
// byte-identical to an unsharded run: points are reordered by step, the
// baseline is recomputed from rung 0, and overlapping points (a rung run
// by two shards after a reassignment) must agree exactly — rung outcomes
// are deterministic, so a disagreement means the shards did not share an
// identity and is an error, as is a missing step.
func MergeShards(steps int, shards ...*SweepResult) (*SweepResult, error) {
	if steps < 2 {
		steps = 2
	}
	var (
		hwName string
		seed   int64
		first  = true
	)
	byStep := make(map[int]SweepPoint, steps)
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		if first {
			hwName, seed, first = sh.HW, sh.Seed, false
		}
		if sh.HW != hwName || sh.Seed != seed {
			return nil, fmt.Errorf("fault: merging shards of different sweeps: %s seed %d vs %s seed %d",
				hwName, seed, sh.HW, sh.Seed)
		}
		for _, pt := range sh.Points {
			if prev, ok := byStep[pt.Step]; ok && prev != pt {
				return nil, fmt.Errorf("fault: shard disagreement at step %d (seed %d): rung outcomes must be deterministic", pt.Step, seed)
			}
			byStep[pt.Step] = pt
		}
	}
	if first {
		return nil, fmt.Errorf("fault: no shards to merge")
	}
	res := &SweepResult{HW: hwName, Seed: seed, Points: make([]SweepPoint, steps)}
	for i := 0; i < steps; i++ {
		pt, ok := byStep[i]
		if !ok {
			return nil, fmt.Errorf("fault: merged sweep is missing step %d (seed %d)", i, seed)
		}
		res.Points[i] = pt
	}
	if res.Points[0].Err == "" {
		res.Baseline = res.Points[0].Outcome.TimeSec
	}
	return res, nil
}

// runStep generates, instantiates and runs one sweep rung. Infeasible
// machines and runner failures are recorded in the point; only
// plan-generation bugs surface as errors.
func runStep(hw *arch.HWConfig, seed int64, steps, i int, run Runner) (SweepPoint, error) {
	frac := maxSweepFrac * float64(i) / float64(steps-1)
	spec := sweepSpec(hw, frac)
	pt := SweepPoint{Step: i, FracFailed: frac, Spec: spec}
	plan, err := Generate(hw, spec, seed)
	if err != nil {
		return pt, err
	}
	pt.FaultCount = plan.FaultCount()
	m, err := NewMachine(hw, plan)
	if err != nil {
		pt.Err = err.Error()
		return pt, nil
	}
	out, err := run(m)
	if err != nil {
		pt.Err = err.Error()
		return pt, nil
	}
	pt.Outcome = out
	return pt, nil
}

// String renders the resilience report: throughput retained versus
// fraction of resources failed.
func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "resilience sweep: %s, seed %d\n", r.HW, r.Seed)
	fmt.Fprintf(&b, "%-8s %-8s %-12s %-10s %-8s %s\n",
		"failed", "faults", "time(ms)", "retained", "partial", "spec")
	for i := range r.Points {
		pt := &r.Points[i]
		if pt.Err != "" {
			fmt.Fprintf(&b, "%-8s %-8d %-12s %-10s %-8s %s\n",
				fmt.Sprintf("%.0f%%", pt.FracFailed*100), pt.FaultCount,
				"-", "infeasible", "-", pt.Err)
			continue
		}
		fmt.Fprintf(&b, "%-8s %-8d %-12.3f %-10s %-8v %s\n",
			fmt.Sprintf("%.0f%%", pt.FracFailed*100), pt.FaultCount,
			pt.Outcome.TimeSec*1e3,
			fmt.Sprintf("%.1f%%", pt.Retained(r.Baseline)*100),
			pt.Outcome.Partial, pt.Spec.String())
	}
	return b.String()
}
