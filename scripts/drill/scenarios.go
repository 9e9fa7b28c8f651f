package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"crophe/internal/serve"
)

// serveDrill exercises one server end to end: health, scheduling, the
// memo path, deadline-expiry partials, degraded simulation, chaos panic
// isolation, a checkpointed sweep job, SIGTERM drain, and checkpoint
// recovery across a restart.
func serveDrill(d *drill) {
	ctx := context.Background()
	s := d.start("server", "-checkpoint-dir", d.tmp, "-queue-wait", "5s", "-chaos")
	d.step("server up on %s", s.addr)

	if code, body := s.getRaw("/healthz"); code != 200 || !json.Valid(body) {
		d.fatalf("/healthz = %d %s; want 200 and a JSON body", code, body)
	}
	if err := s.client.Ready(ctx); err != nil {
		d.fatalf("Ready: %v", err)
	}

	// Full-budget schedule, then the memo hit.
	sched := serve.ScheduleRequest{HW: "crophe64", Workload: "helr"}
	resp, err := s.client.Schedule(ctx, sched)
	if err != nil {
		d.fatalf("schedule: %v", err)
	}
	if resp.Partial || resp.TimeMS <= 0 {
		d.fatalf("schedule = %+v; want a full positive-time schedule", resp)
	}
	resp, err = s.client.Schedule(ctx, sched)
	if err != nil || !resp.Cached {
		d.fatalf("repeat schedule = %+v (%v); want cached=true", resp, err)
	}
	d.step("schedule ok (memo hit on repeat)")

	// A 1 ms deadline cannot cover the helr search space: the anytime
	// search must return its best-so-far schedule marked partial.
	resp, err = s.client.Schedule(ctx, serve.ScheduleRequest{HW: "crophe64", Workload: "helr", DeadlineMS: 1})
	if err != nil || !resp.Partial {
		d.fatalf("deadline schedule = %+v (%v); want partial=true", resp, err)
	}
	d.step("deadline expiry returned a partial schedule")

	deg, err := s.client.SimulateDegraded(ctx, serve.DegradedRequest{
		HW: "crophe64", Workload: "helr", Faults: "rows:1,links:2", Seed: 13,
	})
	if err != nil {
		d.fatalf("simulate-degraded: %v", err)
	}
	if deg.FaultCount < 1 {
		d.fatalf("degraded run injected %d faults; want >= 1", deg.FaultCount)
	}
	d.step("degraded simulation ok (%d faults)", deg.FaultCount)

	// Chaos: an injected panic must come back as a typed 500 carrying
	// the fault seed — and the server must keep serving.
	_, err = s.client.Schedule(ctx, serve.ScheduleRequest{
		HW: "crophe64", Workload: "helr", ChaosPanic: true, Seed: 99,
	})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 500 {
		d.fatalf("chaos request: %T %v; want *serve.APIError 500", err, err)
	}
	if apiErr.FaultSeed == nil || *apiErr.FaultSeed != 99 {
		d.fatalf("chaos 500 fault seed = %v; want 99", apiErr.FaultSeed)
	}
	if !strings.Contains(apiErr.Message, "invariant violation under fault seed 99") {
		d.fatalf("chaos 500 error %q missing the seed convention", apiErr.Message)
	}
	if err := s.client.Ready(ctx); err != nil {
		d.fatalf("Ready after chaos panic: %v", err)
	}
	d.step("chaos panic isolated as a typed 500")

	// A checkpointed sweep job: idempotent start, poll to done.
	sweep := serve.SweepRequest{HW: "crophe64", Workload: "helr", Seed: 5, Steps: 4, DeadlineMS: 3}
	st, err := s.client.StartSweep(ctx, sweep)
	if err != nil || st.Created == nil || !*st.Created {
		d.fatalf("start sweep = %+v (%v); want created=true", st, err)
	}
	id := st.ID
	st, err = s.client.StartSweep(ctx, sweep)
	if err != nil || st.ID != id || st.Created == nil || *st.Created {
		d.fatalf("repeat sweep POST = %+v (%v); want same id, created=false", st, err)
	}
	if final := s.waitDone(id, 30*time.Second); len(final.Points) != 4 {
		d.fatalf("done sweep has %d points; want 4", len(final.Points))
	}
	d.step("sweep %s done (4 rungs journaled)", id)

	reqVars := s.vars("requests")
	if n, _ := reqVars["panics"].(float64); n != 1 {
		d.fatalf("vars requests.panics = %v; want 1 (the chaos drill)", reqVars["panics"])
	}

	s.drain()
	d.step("SIGTERM drain clean")

	// The journal survived the drain and carries the done terminator.
	journals, err := filepath.Glob(filepath.Join(d.tmp, "*.sweep.jsonl"))
	if err != nil || len(journals) != 1 {
		d.fatalf("checkpoint dir holds %d journals (err %v); want 1", len(journals), err)
	}
	raw, err := os.ReadFile(journals[0])
	if err != nil {
		d.fatalf("reading journal: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if !bytes.Contains(lines[len(lines)-1], []byte(`"done":true`)) {
		d.fatalf("journal tail %q is not the done terminator", lines[len(lines)-1])
	}

	// A restarted server recovers the finished job from its journal.
	s2 := d.start("restarted", "-checkpoint-dir", d.tmp, "-queue-wait", "5s")
	st, err = s2.client.SweepStatus(ctx, id, false)
	if err != nil || st.State != "done" {
		d.fatalf("recovered sweep = %+v (%v); want done", st, err)
	}
	if len(st.Points) != 4 {
		d.fatalf("recovered sweep has %d points; want 4", len(st.Points))
	}
	s2.drain()
	d.step("restart recovered the finished sweep from its journal")
}

// clusterDrill boots a coordinator sharding across two single-role
// workers, SIGKILLs one worker mid-shard, and requires the orphaned
// shard to be reassigned and the merged report to be byte-identical to
// a fresh single-process run. Cluster state is read from /v1/cluster.
func clusterDrill(d *drill) {
	ctx := context.Background()
	w0 := d.start("worker0", "-checkpoint-dir", d.mkdir("w0"))
	w1 := d.start("worker1", "-checkpoint-dir", d.mkdir("w1"))
	coord := d.start("coordinator",
		"-role", "coordinator",
		"-workers", w0.addr+","+w1.addr,
		"-checkpoint-dir", d.mkdir("coord"),
		"-heartbeat", "25ms", "-worker-timeout", "250ms", "-poll", "10ms")
	d.step("cluster up: coordinator %s, workers %s %s", coord.addr, w0.addr, w1.addr)

	// The cluster endpoint must report the topology.
	code, body := coord.getRaw("/v1/cluster")
	if code != 200 {
		d.fatalf("/v1/cluster = %d", code)
	}
	var cluster map[string]any
	if err := json.Unmarshal(body, &cluster); err != nil {
		d.fatalf("/v1/cluster: %v", err)
	}
	if cluster["role"] != "coordinator" {
		d.fatalf("/v1/cluster role = %v; want coordinator", cluster["role"])
	}
	if ws, _ := cluster["workers"].([]any); len(ws) != 2 {
		d.fatalf("/v1/cluster reports %d workers; want 2", len(ws))
	}

	const steps, deadlineMS = 12, 15
	req := serve.SweepRequest{HW: "crophe64", Workload: "helr", Seed: 9, Steps: steps, DeadlineMS: deadlineMS}
	st, err := coord.client.StartSweep(ctx, req)
	if err != nil {
		d.fatalf("StartSweep: %v", err)
	}
	id := st.ID
	d.step("distributed sweep %s started (%d steps over 2 workers)", id, steps)

	// Kill worker 1 once its shard (the odd steps) has landed at least
	// one rung. If the worker outran the kill window, say so and carry
	// on — the byte-identity check below still holds; only the
	// reassignment assertion is skipped.
	outran := false
	killDeadline := time.Now().Add(120 * time.Second)
	for {
		raw, err := coord.client.SweepStatus(ctx, id, true)
		if err != nil {
			d.fatalf("raw sweep poll: %v", err)
		}
		odd := 0
		for _, pt := range raw.RawPoints {
			if pt.Step%2 == 1 {
				odd++
			}
		}
		if odd >= steps/2 {
			outran = true
			break
		}
		if odd >= 1 {
			break
		}
		if time.Now().After(killDeadline) {
			d.fatalf("no odd-shard rung appeared within the kill window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	w1.kill()
	if outran {
		d.step("worker1 outran the kill window (shard already complete); skipping the reassignment assertion")
	} else {
		d.step("worker1 SIGKILLed mid-shard")
	}

	if final := coord.waitDone(id, 180*time.Second); len(final.Points) != steps {
		d.fatalf("done sweep has %d points; want %d", len(final.Points), steps)
	}
	d.step("merged sweep done (%d rungs)", steps)

	if !outran {
		_, body = coord.getRaw("/v1/cluster")
		if err := json.Unmarshal(body, &cluster); err != nil {
			d.fatalf("/v1/cluster after kill: %v", err)
		}
		reassigned := false
		jobs, _ := cluster["jobs"].([]any)
		for _, jv := range jobs {
			jm, _ := jv.(map[string]any)
			shards, _ := jm["shards"].([]any)
			for _, sv := range shards {
				sm, _ := sv.(map[string]any)
				if epoch, _ := sm["epoch"].(float64); epoch >= 1 {
					reassigned = true
				}
			}
		}
		if !reassigned {
			d.fatalf("/v1/cluster shows no shard with epoch >= 1 after the worker kill: %s", body)
		}
		d.step("shard reassignment confirmed via /v1/cluster (epoch >= 1)")
	}

	single := d.requireSingleIdentical(coord, req, id)
	d.drainAll(coord, w0, single)
}

// failoverDrill boots two workers, a primary coordinator and a standby
// sharing its checkpoint directory, with deterministic transport chaos
// on every coordinator→worker link. It freezes the primary mid-sweep
// (SIGSTOP: a partition, the worst case — the process will come back)
// and requires the standby to promote off the stale lease and finish
// at a bumped epoch, the merged report to be byte-identical to a
// single-process run, and the thawed zombie primary to fence itself.
func failoverDrill(d *drill) {
	const chaosSpec = "drop:0.1,reset:0.05,trunc:0.05,err500:0.05,lat:0.2@2"
	w0 := d.start("worker0", "-checkpoint-dir", d.mkdir("w0"))
	w1 := d.start("worker1", "-checkpoint-dir", d.mkdir("w1"))
	shared := d.mkdir("coord") // primary and standby share it: journals + lease
	coordArgs := []string{
		"-role", "coordinator",
		"-workers", w0.addr + "," + w1.addr,
		"-checkpoint-dir", shared,
		"-heartbeat", "25ms", "-worker-timeout", "250ms", "-poll", "10ms",
		"-chaos-net", chaosSpec, "-chaos-net-seed", "11",
	}
	primary := d.start("primary", coordArgs...)
	standby := d.start("standby", append(coordArgs, "-standby", "-takeover", "200ms")...)
	d.step("cluster up: primary %s, standby %s, workers %s %s (chaos %s)",
		primary.addr, standby.addr, w0.addr, w1.addr, chaosSpec)

	// The unpromoted standby must refuse traffic.
	if code, body := standby.getRaw("/readyz"); code != 503 || !bytes.Contains(body, []byte("standby")) {
		d.fatalf("unpromoted standby /readyz = %d %s; want 503 standby", code, body)
	}

	const steps, deadlineMS = 12, 15
	req := serve.SweepRequest{HW: "crophe64", Workload: "helr", Seed: 9, Steps: steps, DeadlineMS: deadlineMS}
	ctx := context.Background()
	st, err := primary.client.StartSweep(ctx, req)
	if err != nil {
		d.fatalf("StartSweep: %v", err)
	}
	id := st.ID
	d.step("distributed sweep %s started under transport chaos", id)

	// Freeze the primary once at least one merged rung is journaled: the
	// takeover replays a genuinely mid-flight journal.
	killDeadline := time.Now().Add(120 * time.Second)
	for {
		got, err := primary.client.SweepStatus(ctx, id, false)
		if err != nil {
			d.fatalf("pre-freeze poll: %v", err)
		}
		if got.Completed >= 1 {
			break
		}
		if time.Now().After(killDeadline) {
			d.fatalf("no merged rung before the freeze window closed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	primary.signal(syscall.SIGSTOP)
	d.step("primary SIGSTOPped mid-sweep (partitioned, not dead)")

	// Poll through the client's failover rotation. Until the standby
	// promotes, polls hit a frozen primary and a 503 standby — both
	// retryable — so the loop tolerates errors until the takeover
	// lands. The transport timeout (not a per-poll context deadline)
	// bounds each attempt against the frozen primary, so the client's
	// failover rotation still gets to run after the hang is cut.
	fc, err := serve.NewFailoverClient([]string{primary.addr, standby.addr},
		serve.WithHTTPClient(&http.Client{Timeout: 2 * time.Second}))
	if err != nil {
		d.fatalf("NewFailoverClient: %v", err)
	}
	var final *serve.SweepStatus
	doneDeadline := time.Now().Add(180 * time.Second)
	for {
		got, err := fc.SweepStatus(ctx, id, false)
		if err == nil {
			if got.State == "done" {
				final = got
				break
			}
			if got.State == "failed" {
				d.fatalf("sweep failed across the takeover: %s", got.Error)
			}
		}
		if time.Now().After(doneDeadline) {
			d.fatalf("sweep not done after takeover: status %+v, err %v", got, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.ID != id || len(final.Points) != steps {
		d.fatalf("post-takeover sweep = id %s, %d points; want %s, %d", final.ID, len(final.Points), id, steps)
	}
	cv := standby.vars("coordinator")
	if cv["active"] != true {
		d.fatalf("standby finished the sweep without reporting active: %v", cv)
	}
	if epoch, _ := cv["epoch"].(float64); epoch < 2 {
		d.fatalf("promoted standby at epoch %v; want >= 2", cv["epoch"])
	}
	d.step("standby promoted (epoch %v) and finished the sweep (%d rungs)", cv["epoch"], steps)

	// Thaw the primary: now a zombie coordinator holding a usurped lease.
	// Its lease heartbeat must fence it — /readyz flips to 503 "fenced" —
	// and its late journal writes are refused, never merged.
	primary.signal(syscall.SIGCONT)
	fenceDeadline := time.Now().Add(30 * time.Second)
	for {
		code, body := primary.getRaw("/readyz")
		if code == 503 && bytes.Contains(body, []byte("fenced")) {
			break
		}
		if time.Now().After(fenceDeadline) {
			d.fatalf("thawed primary never fenced: /readyz = %d %s", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.step("thawed zombie primary fenced itself (readyz 503 fenced)")

	single := d.requireSingleIdentical(standby, req, id)
	d.drainAll(standby, primary, w0, w1, single)
}

// sdcDrill exercises both halves of the data-plane integrity story.
// Kernel/model half: crophe-sim runs a degraded simulation whose fault
// plan carries the SDC dimensions and must report the priced
// detect-recompute-escalate outcome; malformed flip/scrub specs must
// exit 2 at both CLIs. Wire half: a coordinator flipping one bit of most
// worker response bodies must still finish a sharded sweep
// byte-identical to a single-process run, refusing corrupted shard
// payloads by their end-to-end checksum, with the injected flips and
// the reject counter visible at /debug/vars.
func sdcDrill(d *drill) {
	code, out := d.runBin(d.sim, "-hw", "crophe64", "-workload", "boot",
		"-faults", "flip:0.0001,scrub:100000", "-seed", "29", "-deadline", "500ms")
	if code != 0 {
		d.fatalf("degraded SDC run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "sdc integrity:") {
		d.fatalf("degraded SDC run did not report the integrity outcome:\n%s", out)
	}
	if !strings.Contains(out, "throughput retained") {
		d.fatalf("degraded SDC run did not report throughput retained:\n%s", out)
	}
	d.step("crophe-sim degraded run priced the SDC recovery (flip:0.0001,scrub:100000 seed 29)")

	for _, bad := range []string{"flip:1.5", "flip:bit", "scrub:-1", "flip:0.1,flip:0.2"} {
		if code, out := d.runBin(d.sim, "-faults", bad); code != 2 {
			d.fatalf("-faults %s exited %d; want 2:\n%s", bad, code, out)
		}
	}
	for _, bad := range []string{"flip:1.01", "flip:bit"} {
		code, out := d.runBin(d.bin, "-addr", "127.0.0.1:0", "-role", "coordinator",
			"-workers", "127.0.0.1:1", "-chaos-net", bad)
		if code != 2 {
			d.fatalf("crophe-serve -chaos-net %s exited %d; want 2:\n%s", bad, code, out)
		}
	}
	d.step("malformed flip/scrub specs rejected with exit 2 at both CLIs")

	w0 := d.start("worker0", "-checkpoint-dir", d.mkdir("w0"))
	w1 := d.start("worker1", "-checkpoint-dir", d.mkdir("w1"))
	coord := d.start("coordinator",
		"-role", "coordinator",
		"-workers", w0.addr+","+w1.addr,
		"-checkpoint-dir", d.mkdir("coord"),
		"-heartbeat", "25ms", "-worker-timeout", "500ms", "-poll", "10ms",
		"-chaos-net", "flip:0.6", "-chaos-net-seed", "17")
	d.step("cluster up under flip chaos: coordinator %s, workers %s %s", coord.addr, w0.addr, w1.addr)

	const steps, deadlineMS = 8, 3
	req := serve.SweepRequest{HW: "crophe64", Workload: "helr", Seed: 5, Steps: steps, DeadlineMS: deadlineMS}
	st, err := coord.client.StartSweep(context.Background(), req)
	if err != nil {
		d.fatalf("StartSweep: %v", err)
	}
	id := st.ID
	d.step("distributed sweep %s started (%d steps over 2 workers, flip:0.6)", id, steps)

	if final := coord.waitDone(id, 180*time.Second); len(final.Points) != steps {
		d.fatalf("done sweep has %d points; want %d", len(final.Points), steps)
	}
	d.step("merged sweep done (%d rungs) despite the flip storm", steps)

	// The single-process server runs without chaos: silent wire
	// corruption may slow the sweep, never skew it.
	single := d.requireSingleIdentical(coord, req, id)

	cv := coord.vars("coordinator")
	nc, _ := cv["net_chaos"].(map[string]any)
	if nc == nil {
		d.fatalf("/debug/vars missing coordinator.net_chaos: %v", cv)
	}
	flips, _ := nc["flips"].(float64)
	if flips < 1 {
		d.fatalf("coordinator.net_chaos.flips = %v; want >= 1", nc["flips"])
	}
	if _, ok := cv["shard_checksum_rejects"]; !ok {
		d.fatalf("/debug/vars missing coordinator.shard_checksum_rejects: %v", cv)
	}
	d.step("observability: %d bits flipped on the links, %v shard payloads refused",
		int(flips), cv["shard_checksum_rejects"])

	d.drainAll(coord, w0, w1, single)
}

// runBin runs a binary to completion and returns its exit code and
// combined output.
func (d *drill) runBin(bin string, args ...string) (int, string) {
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		d.fatalf("running %s %v: %v", bin, args, err)
	}
	return cmd.ProcessState.ExitCode(), buf.String()
}
