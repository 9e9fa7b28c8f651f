// Command drill runs the end-to-end drills that pin crophe-serve's
// serving, cluster, fail-over and silent-data-corruption guarantees
// against real processes. One harness (start, drain, kill, signal,
// getRaw, the /debug/vars reader, the sweep poller and the
// byte-identity check) drives one scenario per drill; every API call
// goes through the typed serve.Client, so `make serve-smoke`,
// `cluster-smoke`, `failover-smoke`, `sdc-smoke` and CI run the
// identical drill through the client production callers use.
//
// Usage:
//
//	drill -bin path/to/crophe-serve [-sim path/to/crophe-sim] <scenario>
//
// Scenarios:
//
//	serve     health, memoized scheduling, a deadline-expiry partial,
//	          degraded simulation, chaos panic isolation, a checkpointed
//	          sweep, SIGTERM drain, and journal recovery across a restart
//	cluster   coordinator + two workers, one worker SIGKILLed mid-shard,
//	          the merged report byte-identical to a single-process run
//	failover  primary + standby coordinators under transport chaos; the
//	          primary SIGSTOPped mid-sweep, the standby promotes and
//	          finishes byte-identical, the thawed zombie fences itself
//	sdc       crophe-sim prices the SDC recovery (needs -sim), then a
//	          sharded sweep under bit-flip chaos stays byte-identical
//
// Exits 0 when every probe passes, 1 with a diagnostic otherwise, and 2
// on a usage error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"crophe/internal/serve"
)

// scenarios maps each drill name to its body. A scenario returns only
// when every probe passed; any failure ends the process via fatalf.
var scenarios = map[string]func(*drill){
	"serve":    serveDrill,
	"cluster":  clusterDrill,
	"failover": failoverDrill,
	"sdc":      sdcDrill,
}

// drill is the state one scenario run shares with its harness.
type drill struct {
	name     string // scenario name; prefixes every output line
	bin, sim string // crophe-serve and crophe-sim binaries
	tmp      string // scratch dir, removed on every exit path
	procs    []*proc
}

// proc is one child crophe-serve process and the client pointed at it.
type proc struct {
	d      *drill
	name   string
	cmd    *exec.Cmd
	addr   string
	client *serve.Client
}

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run parses the command line and runs one scenario. It returns 2 on a
// usage error and 0 when the scenario passes; a failing probe exits 1
// from fatalf instead of returning.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("drill", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bin := fs.String("bin", "", "path to a built crophe-serve binary (required)")
	sim := fs.String("sim", "", "path to a built crophe-sim binary (required by sdc)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: drill -bin crophe-serve [-sim crophe-sim] serve|cluster|failover|sdc")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	body, ok := scenarios[fs.Arg(0)]
	if !ok || fs.NArg() != 1 || *bin == "" || (fs.Arg(0) == "sdc" && *sim == "") {
		fs.Usage()
		return 2
	}
	d := &drill{name: fs.Arg(0), bin: *bin, sim: *sim}
	tmp, err := os.MkdirTemp("", d.name+"drill-*")
	if err != nil {
		d.fatalf("temp dir: %v", err)
	}
	d.tmp = tmp
	defer os.RemoveAll(tmp)
	body(d)
	d.step("PASS")
	return 0
}

// fatalf kills every child, removes the temp dir, reports the failure
// and exits 1. os.Exit skips deferred calls, so the cleanup runs here.
func (d *drill) fatalf(format string, a ...any) {
	for _, p := range d.procs {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
	}
	if d.tmp != "" {
		_ = os.RemoveAll(d.tmp)
	}
	fmt.Fprintf(os.Stderr, "drill %s: FAIL: "+format+"\n", append([]any{d.name}, a...)...)
	os.Exit(1)
}

func (d *drill) step(format string, a ...any) {
	fmt.Printf("drill %s: "+format+"\n", append([]any{d.name}, a...)...)
}

// mkdir creates a named subdirectory of the drill's temp dir.
func (d *drill) mkdir(name string) string {
	dir := filepath.Join(d.tmp, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		d.fatalf("mkdir %s: %v", dir, err)
	}
	return dir
}

// start launches one crophe-serve process on an ephemeral port, parses
// the address off its "crophe-serve: listening on ..." startup line, and
// drains the rest of its stdout so the child never blocks on a full pipe.
func (d *drill) start(name string, args ...string) *proc {
	cmd := exec.Command(d.bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		d.fatalf("%s: stdout pipe: %v", name, err)
	}
	if err := cmd.Start(); err != nil {
		d.fatalf("%s: starting %s: %v", name, d.bin, err)
	}
	p := &proc{d: d, name: name, cmd: cmd}
	d.procs = append(d.procs, p)

	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "crophe-serve: listening on "); ok {
			p.addr = strings.TrimSpace(rest)
			break
		}
	}
	if p.addr == "" {
		d.fatalf("%s exited without announcing a listen address", name)
	}
	go func() {
		for lines.Scan() {
		}
	}()
	p.client = serve.NewClient(p.addr)
	return p
}

func (p *proc) signal(sig syscall.Signal) {
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.d.fatalf("%s: %v: %v", p.name, sig, err)
	}
}

// kill delivers SIGKILL — the crash, not the drain.
func (p *proc) kill() {
	if err := p.cmd.Process.Kill(); err != nil {
		p.d.fatalf("killing %s: %v", p.name, err)
	}
	_, _ = p.cmd.Process.Wait()
}

// drain sends SIGTERM and requires a clean exit within 30s.
func (p *proc) drain() {
	p.signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			p.d.fatalf("%s exited non-zero after SIGTERM: %v", p.name, err)
		}
	case <-time.After(30 * time.Second):
		p.d.fatalf("%s did not drain within 30s of SIGTERM", p.name)
	}
}

// getRaw fetches a path and returns status plus the exact body bytes —
// the byte-identity comparisons work on these.
func (p *proc) getRaw(path string) (int, []byte) {
	resp, err := http.Get("http://" + p.addr + path)
	if err != nil {
		p.d.fatalf("%s: GET %s: %v", p.name, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		p.d.fatalf("%s: GET %s: reading body: %v", p.name, path, err)
	}
	return resp.StatusCode, body
}

// vars returns one top-level block of the process's /debug/vars.
func (p *proc) vars(block string) map[string]any {
	code, body := p.getRaw("/debug/vars")
	if code != 200 {
		p.d.fatalf("%s: /debug/vars = %d", p.name, code)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		p.d.fatalf("%s: /debug/vars: %v", p.name, err)
	}
	b, _ := vars[block].(map[string]any)
	if b == nil {
		p.d.fatalf("%s: /debug/vars has no %s block: %s", p.name, block, body)
	}
	return b
}

// waitDone polls a sweep job until it finishes; a failed job, a poll
// error or the timeout fails the drill.
func (p *proc) waitDone(id string, timeout time.Duration) *serve.SweepStatus {
	deadline := time.Now().Add(timeout)
	for {
		st, err := p.client.SweepStatus(context.Background(), id, false)
		if err != nil {
			p.d.fatalf("%s: sweep poll: %v", p.name, err)
		}
		switch st.State {
		case "done":
			return st
		case "failed":
			p.d.fatalf("%s: sweep failed: %s", p.name, st.Error)
		}
		if time.Now().After(deadline) {
			p.d.fatalf("%s: sweep did not finish in %v: %+v", p.name, timeout, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// requireSingleIdentical is the byte-identity check: a fresh
// single-process server answering req must assign the same
// deterministic job ID and serve a ?raw=1 status document
// byte-identical to merged's. It returns the single-process server,
// still running, for the caller to drain.
func (d *drill) requireSingleIdentical(merged *proc, req serve.SweepRequest, id string) *proc {
	single := d.start("single", "-checkpoint-dir", d.mkdir("single"))
	st, err := single.client.StartSweep(context.Background(), req)
	if err != nil {
		d.fatalf("single-process StartSweep: %v", err)
	}
	if st.ID != id {
		d.fatalf("single-process job ID %s != distributed job ID %s", st.ID, id)
	}
	single.waitDone(id, 180*time.Second)

	_, mergedBody := merged.getRaw("/v1/sweeps/" + id + "?raw=1")
	_, singleBody := single.getRaw("/v1/sweeps/" + id + "?raw=1")
	if !bytes.Equal(mergedBody, singleBody) {
		d.fatalf("merged status document differs from the single-process one:\n%s: %s\nsingle: %s",
			merged.name, mergedBody, singleBody)
	}
	d.step("merged report byte-identical to the single-process run (%d bytes)", len(mergedBody))
	return single
}

// drainAll drains each process in order.
func (d *drill) drainAll(ps ...*proc) {
	for _, p := range ps {
		p.drain()
	}
	d.step("drain clean")
}
