package fault

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/leakcheck"
)

// shardRunner is a cheap deterministic runner: time scales with the
// fault count so retained throughput varies across rungs.
func shardRunner(m *Machine) (Outcome, error) {
	return Outcome{TimeSec: 1e-3 * float64(1+m.Plan.FaultCount()), Cycles: 100}, nil
}

// TestShardStepsPartition: shards partition the step set — disjoint,
// ascending, and their union is exactly [0, steps).
func TestShardStepsPartition(t *testing.T) {
	for _, steps := range []int{2, 5, 8, 13} {
		for _, count := range []int{1, 2, 3, 5} {
			seen := make(map[int]int)
			for idx := 0; idx < count; idx++ {
				prev := -1
				for _, s := range ShardSteps(steps, idx, count) {
					if s <= prev {
						t.Fatalf("ShardSteps(%d, %d, %d) not ascending", steps, idx, count)
					}
					prev = s
					seen[s]++
				}
			}
			for s := 0; s < steps; s++ {
				if seen[s] != 1 {
					t.Fatalf("steps=%d count=%d: step %d owned by %d shards; want 1", steps, count, s, seen[s])
				}
			}
		}
	}
	if got := ShardSteps(4, 0, 0); len(got) != 4 {
		t.Fatalf("count 0 should mean no sharding; got %v", got)
	}
}

// TestShardedSweepMergesByteIdentical: running each shard separately and
// merging must reproduce the unsharded sweep exactly, including the
// rendered report.
func TestShardedSweepMergesByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE36
	const seed, steps = 19, 7
	full, err := RunSweep(context.Background(), hw, seed, steps, shardRunner)
	if err != nil {
		t.Fatal(err)
	}

	const count = 3
	shards := make([]*SweepResult, count)
	for i := 0; i < count; i++ {
		shards[i], err = RunSweep(context.Background(), hw, seed, steps, shardRunner, WithShard(i, count))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if want := len(ShardSteps(steps, i, count)); len(shards[i].Points) != want {
			t.Fatalf("shard %d has %d points; want %d", i, len(shards[i].Points), want)
		}
		for _, pt := range shards[i].Points {
			if pt.Step%count != i {
				t.Fatalf("shard %d holds foreign step %d", i, pt.Step)
			}
		}
	}
	// Only the shard owning step 0 knows the baseline.
	if shards[0].Baseline == 0 {
		t.Fatal("shard 0 owns step 0 but has no baseline")
	}
	if count > 1 && shards[1].Baseline != 0 {
		t.Fatal("shard 1 does not own step 0 but claims a baseline")
	}

	merged, err := MergeShards(steps, shards...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Fatalf("merged shards differ from unsharded sweep:\nmerged: %+v\nfull:   %+v", merged, full)
	}
	if merged.String() != full.String() {
		t.Fatalf("merged report differs:\n%s\nvs\n%s", merged.String(), full.String())
	}
}

// TestMergeShardsValidation: missing steps, empty input and mismatched
// identities are errors; duplicate agreeing points are fine.
func TestMergeShardsValidation(t *testing.T) {
	hw := arch.CROPHE36
	const seed, steps = 19, 4
	s0, err := RunSweep(context.Background(), hw, seed, steps, shardRunner, WithShard(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := RunSweep(context.Background(), hw, seed, steps, shardRunner, WithShard(1, 2))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := MergeShards(steps, s0); err == nil || !strings.Contains(err.Error(), "missing step") {
		t.Fatalf("merge with a missing shard = %v; want missing-step error", err)
	}
	if _, err := MergeShards(steps); err == nil {
		t.Fatal("merge of nothing succeeded")
	}
	other := &SweepResult{HW: s1.HW, Seed: seed + 1, Points: s1.Points}
	if _, err := MergeShards(steps, s0, other); err == nil || !strings.Contains(err.Error(), "different sweeps") {
		t.Fatalf("merge across seeds = %v; want identity error", err)
	}
	// A rung rerun after reassignment appears in two shards with equal
	// values; the merge must accept it.
	dup := &SweepResult{HW: s1.HW, Seed: s1.Seed, Points: s1.Points[:1]}
	if _, err := MergeShards(steps, s0, s1, dup); err != nil {
		t.Fatalf("merge with agreeing duplicate rung: %v", err)
	}
	// A disagreeing duplicate is a determinism violation.
	bad := &SweepResult{HW: s1.HW, Seed: s1.Seed, Points: []SweepPoint{s1.Points[0]}}
	bad.Points[0].Outcome.TimeSec *= 2
	if _, err := MergeShards(steps, s0, s1, bad); err == nil || !strings.Contains(err.Error(), "disagreement") {
		t.Fatalf("merge with disagreeing rung = %v; want disagreement error", err)
	}
}

// TestRunSweepOptionValidation pins the option-combination errors.
func TestRunSweepOptionValidation(t *testing.T) {
	hw := arch.CROPHE36
	if _, err := RunSweep(context.Background(), hw, 1, 4, shardRunner, WithShard(3, 2)); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := RunSweep(context.Background(), hw, 1, 4, shardRunner, WithShard(0, -1)); err == nil {
		t.Fatal("negative shard count accepted")
	}
	observe := func(SweepPoint) {}
	if _, err := RunSweep(context.Background(), hw, 1, 4, shardRunner, WithParallel(), WithJournal(observe)); err == nil {
		t.Fatal("parallel + journal accepted")
	}
}

// TestRunSweepModesAgree: sequential (default) and parallel runs produce
// the identical result — the determinism the distributed merge rests on.
func TestRunSweepModesAgree(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE36
	const seed, steps = 23, 5
	seq, err := RunSweep(context.Background(), hw, seed, steps, shardRunner)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweep(context.Background(), hw, seed, steps, shardRunner, WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sequential and parallel results differ")
	}
}

// TestShardResumeSplicesDone: a shard resumed over journaled rungs must
// not re-run them.
func TestShardResumeSplicesDone(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE36
	const seed, steps = 29, 8
	shard, err := RunSweep(context.Background(), hw, seed, steps, shardRunner, WithShard(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	done := map[int]SweepPoint{
		shard.Points[0].Step: shard.Points[0],
		shard.Points[1].Step: shard.Points[1],
	}
	var observed []int
	resumed, err := RunSweep(context.Background(), hw, seed, steps, shardRunner,
		WithShard(1, 2), WithResume(done), WithJournal(func(pt SweepPoint) { observed = append(observed, pt.Step) }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, shard) {
		t.Fatal("resumed shard differs from uninterrupted shard")
	}
	want := []int{5, 7}
	if !reflect.DeepEqual(observed, want) {
		t.Fatalf("observed rungs %v; want only the not-done steps %v", observed, want)
	}
}
