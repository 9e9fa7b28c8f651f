package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"crophe"
	"crophe/internal/bench"
	"crophe/internal/serve"
	"crophe/internal/workload"
)

// serveMix drives an in-process crophe-serve instance over loopback
// HTTP with one closed-loop client per vCPU, starting from a cold
// schedule memo.
var serveMix = Workload{
	Name:  "serve-mix",
	Why:   "80% Zipf /v1/schedule (memo hits beside single-flight misses), 10% /v1/simulate, 10% seeded /v1/simulate-degraded: sim dominates busy time",
	Setup: setupServeMix,
}

var (
	serveHWs       = []string{"bts", "ark", "sharp", "cl", "crophe64", "crophe36"}
	serveWorkloads = []string{"bootstrapping", "helr1024", "resnet-20", "resnet-110"}
	serveFlows     = []string{"crophe", "mad"}
	// degradedHWs are the homogeneous meshes the fault grammar targets.
	degradedHWs = []string{"crophe64", "crophe36"}
	// faultSpecs is the catalogue degraded requests draw from; each spec's
	// fault seed is its index + 1, so the key space (and its goldens) is
	// finite.
	faultSpecs = []string{"rows:1", "links:2,banks:4", "rows:1,links:2,hbm:0.75", "slow:2@0.5,stalls:4@200"}
)

// Request kinds, which are also the endpoint names.
const (
	kindSchedule = "schedule"
	kindSimulate = "simulate"
	kindDegraded = "simulate-degraded"
)

// request is one generated serve request.
type request struct {
	Kind  string
	Key   string
	Sched serve.ScheduleRequest
	Deg   serve.DegradedRequest
}

func scheduleKeys() []serve.ScheduleRequest {
	var out []serve.ScheduleRequest
	for _, hw := range serveHWs {
		for _, wn := range serveWorkloads {
			for _, df := range serveFlows {
				out = append(out, serve.ScheduleRequest{HW: hw, Workload: wn, Dataflow: df})
			}
		}
	}
	return out
}

func degradedKeys() []serve.DegradedRequest {
	var out []serve.DegradedRequest
	for _, hw := range degradedHWs {
		for _, wn := range serveWorkloads {
			for i, spec := range faultSpecs {
				out = append(out, serve.DegradedRequest{HW: hw, Workload: wn, Faults: spec, Seed: int64(i + 1)})
			}
		}
	}
	return out
}

func schedKey(kind string, r serve.ScheduleRequest) string {
	return fmt.Sprintf("%s/%s/%s/%s", kind, r.HW, r.Workload, r.Dataflow)
}

func degKey(r serve.DegradedRequest) string {
	return fmt.Sprintf("%s/%s/%s/%s/%d", kindDegraded, r.HW, r.Workload, r.Faults, r.Seed)
}

// zipfRank is the fixed popularity order of the schedule keys. It does
// not depend on the seed, so every seed has the same hot keys and the
// seed only draws the sequence.
var zipfRank = rand.New(rand.NewSource(48)).Perm(len(scheduleKeys()))

// reqGen produces the seeded request sequence. Kinds come in shuffled
// blocks of ten (eight schedule, one simulate, one degraded), and the
// simulate and degraded keys are dealt from reshuffled decks, so every
// run of a given length sees the same mix whatever the seed.
type reqGen struct {
	r       *rand.Rand
	zipf    *rand.Zipf
	sched   []serve.ScheduleRequest
	deg     []serve.DegradedRequest
	block   []string
	simDeck []int
	degDeck []int
}

func newReqGen(seed int64) *reqGen {
	r := rand.New(rand.NewSource(seed))
	keys := scheduleKeys()
	return &reqGen{r: r, zipf: rand.NewZipf(r, 1.1, 1, uint64(len(keys)-1)), sched: keys, deg: degradedKeys()}
}

func (g *reqGen) deal(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = g.r.Perm(n)
	}
	i := (*deck)[0]
	*deck = (*deck)[1:]
	return i
}

func (g *reqGen) next() request {
	if len(g.block) == 0 {
		g.block = []string{kindSimulate, kindDegraded}
		for i := 0; i < 8; i++ {
			g.block = append(g.block, kindSchedule)
		}
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	switch kind {
	case kindSchedule:
		k := g.sched[zipfRank[g.zipf.Uint64()]]
		return request{Kind: kind, Key: schedKey(kind, k), Sched: k}
	case kindSimulate:
		k := g.sched[g.deal(&g.simDeck, len(g.sched))]
		return request{Kind: kind, Key: schedKey(kind, k), Sched: k}
	default:
		k := g.deg[g.deal(&g.degDeck, len(g.deg))]
		return request{Kind: kind, Key: degKey(k), Deg: k}
	}
}

// respGolden is the checked content of a response (everything but the
// memo-source flag, which differs between a miss and a hit).
type respGolden struct {
	TimeMS     float64 `json:"time_ms"`
	Partial    bool    `json:"partial"`
	DRAMBytes  float64 `json:"dram_bytes,omitempty"`
	SRAMBytes  float64 `json:"sram_bytes,omitempty"`
	NoCBytes   float64 `json:"noc_bytes,omitempty"`
	SimTimeMS  float64 `json:"sim_time_ms,omitempty"`
	SimCycles  float64 `json:"sim_cycles,omitempty"`
	SimEnergyJ float64 `json:"sim_energy_j,omitempty"`
	Cycles     float64 `json:"cycles,omitempty"`
	FaultCount int     `json:"fault_count,omitempty"`
}

func goldenOfSchedule(r *serve.ScheduleResponse) respGolden {
	g := respGolden{TimeMS: r.TimeMS, Partial: r.Partial, DRAMBytes: r.DRAMBytes, SRAMBytes: r.SRAMBytes, NoCBytes: r.NoCBytes}
	if r.SimTimeMS != nil && r.SimCycles != nil && r.SimEnergyJ != nil {
		g.SimTimeMS, g.SimCycles, g.SimEnergyJ = *r.SimTimeMS, *r.SimCycles, *r.SimEnergyJ
	}
	return g
}

// serveHarness is an in-process server and a client bound to it.
type serveHarness struct {
	srv    *serve.Server
	client *serve.Client
}

func startServe() (*serveHarness, error) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	// No retries: a refusal is a failed op, not a hidden second attempt.
	h := &serveHarness{srv: srv, client: serve.NewClient(srv.Addr(), serve.WithRetry(0, 0, 0))}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.client.Ready(ctx); err != nil {
		_ = srv.Shutdown() // already failing; the readiness error is the one to report
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return h, nil
}

func (h *serveHarness) close() error { return h.srv.Shutdown() }

// do sends one request. The context carries no deadline: a deadline
// would become the server's anytime search budget and change answers.
func (h *serveHarness) do(req request) (g respGolden, cached bool, err error) {
	ctx := context.Background()
	switch req.Kind {
	case kindSchedule:
		r, err := h.client.Schedule(ctx, req.Sched)
		if err != nil {
			return g, false, err
		}
		return goldenOfSchedule(r), r.Cached, nil
	case kindSimulate:
		r, err := h.client.Simulate(ctx, req.Sched)
		if err != nil {
			return g, false, err
		}
		return goldenOfSchedule(r), false, nil
	default:
		r, err := h.client.SimulateDegraded(ctx, req.Deg)
		if err != nil {
			return g, false, err
		}
		return respGolden{TimeMS: r.TimeMS, Partial: r.Partial, Cycles: r.Cycles, FaultCount: r.FaultCount}, false, nil
	}
}

// counters reads the shed and partial-response counts from /debug/vars.
func (h *serveHarness) counters() (shed, partials float64, err error) {
	resp, err := http.Get("http://" + h.srv.Addr() + "/debug/vars")
	if err != nil {
		return 0, 0, fmt.Errorf("read /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	var v struct {
		Requests struct {
			Shed    float64 `json:"shed"`
			Partial float64 `json:"partial"`
		} `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, 0, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v.Requests.Shed, v.Requests.Partial, nil
}

type serveState struct {
	seed    int64
	h       *serveHarness
	used    bool // h has served a pass
	golden  map[string]respGolden
	clients int
	gaps    []float64 // |sim/analytical − 1| of checked simulate responses
}

func setupServeMix(seed int64) (State, error) {
	g, err := loadServeGolden()
	if err != nil {
		return nil, err
	}
	h, err := startServe()
	if err != nil {
		return nil, err
	}
	return &serveState{seed: seed, h: h, golden: g, clients: runtime.NumCPU()}, nil
}

// servePass is the request count of one serve-mix pass: 192 blocks of
// ten, so a pass deals whole simulate (48-key) and degraded (32-key)
// decks and has the same mix whatever the seed.
const servePass = 1920

// Loop runs passes of the first servePass requests of the seeded
// sequence, each against a fresh server with a cold schedule memo. A
// pass starts only if the previous pass's duration still fits in the
// budget (the first always runs). The rate, p50 and tail are medians
// over the passes, which rides out the host's speed drift; a fixed-size
// pass also bounds how much the server accumulates before it is
// replaced (see peak_rss_mb).
func (s *serveState) Loop(tr *Tracer, budget time.Duration) (*Phase, error) {
	ph := &Phase{Lanes: s.clients}
	s.gaps = nil
	var rates, p50s, tails []float64
	start := time.Now()
	var lastPass time.Duration
	for len(rates) == 0 || time.Since(start)+lastPass <= budget {
		if s.used {
			if err := s.h.close(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
			h, err := startServe()
			if err != nil {
				return nil, err
			}
			s.h = h
		}
		s.used = true
		bench.ResetScheduleMemo()
		passStart := time.Now()
		lats := s.pass(tr, ph)
		lastPass = time.Since(passStart)
		rates = append(rates, float64(len(lats))/lastPass.Seconds())
		p50s = append(p50s, median(lats))
		tail, pct := tailLatency(lats)
		tails = append(tails, tail)
		ph.TailPct = pct
		ph.Samples += len(lats)
	}
	ph.Wall = time.Since(start)
	ph.Rate, ph.P50, ph.Tail = median(rates), median(p50s), median(tails)
	return ph, nil
}

// pass sends the first servePass requests of the seeded sequence from
// s.clients closed-loop clients, checks every response against its
// golden and returns the latencies.
func (s *serveState) pass(tr *Tracer, ph *Phase) []float64 {
	gen := newReqGen(s.seed)
	sent := 0
	lats := make([]float64, 0, servePass)
	var mu sync.Mutex // guards gen, sent, lats, ph and s.gaps
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				mu.Lock()
				if sent == servePass {
					mu.Unlock()
					return
				}
				req := gen.next()
				sent++
				ph.Ops++
				mu.Unlock()

				root := tr.begin("harness", req.Key, -1, lane)
				call := tr.begin("serve", req.Kind, root, lane)
				t0 := time.Now()
				got, cached, err := s.h.do(req)
				lat := time.Since(t0).Seconds()
				tr.end(call)
				tr.end(root)
				if err == nil && req.Kind == kindSchedule {
					tr.setArgs(call, map[string]float64{"cached": b2f(cached)})
				}

				mu.Lock()
				lats = append(lats, lat)
				switch want, ok := s.golden[req.Key]; {
				case err != nil:
					ph.fail("%s: %v", req.Key, err)
				case !ok:
					ph.fail("%s: no golden", req.Key)
				case got != want:
					ph.fail("%s: got %+v, golden %+v", req.Key, got, want)
				case req.Kind == kindSimulate:
					s.gaps = append(s.gaps, math.Abs(got.SimTimeMS/got.TimeMS-1))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lats
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Accuracy reports the analytical-vs-simulated gap over the simulate
// responses.
func (s *serveState) Accuracy(extra map[string]float64) {
	if len(s.gaps) > 0 {
		extra["sim_model_gap_pct"] = median(s.gaps) * 100
	}
}

func (s *serveState) Close() error { return s.h.close() }

// directCall answers req through the library entry point the handler
// uses, without HTTP, for the serve-overhead and fault probes. It
// returns the time of the library call alone, without resolving the
// request into a design and workload.
func directCall(req request) (time.Duration, error) {
	hwName, wn := req.Sched.HW, req.Sched.Workload
	if req.Kind == kindDegraded {
		hwName, wn = req.Deg.HW, req.Deg.Workload
	}
	hw, ok := crophe.LookupHW(hwName)
	if !ok {
		return 0, fmt.Errorf("unknown hw %q", hwName)
	}
	params := crophe.DefaultParamsFor(hw)
	w, ok := crophe.LookupWorkload(wn, params, crophe.RotHoisted)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", wn)
	}
	d := crophe.CROPHEDesign(hw)
	if req.Sched.Dataflow == "mad" {
		d = crophe.MADDesign(hw)
	}
	var call func() error
	switch req.Kind {
	case kindSchedule:
		call = func() error {
			crophe.MemoizedScheduleSummary(d, params.Name+"/"+wn+"/hoisted", func(workload.RotMode, int) *crophe.Workload { return w })
			return nil
		}
	case kindSimulate:
		call = func() error {
			_, _, err := crophe.SimulateWorkloadContext(context.Background(), d, w, 0)
			return err
		}
	default:
		spec, err := crophe.ParseFaultSpec(req.Deg.Faults)
		if err != nil {
			return 0, err
		}
		m, err := crophe.NewFaultMachine(hw, spec, req.Deg.Seed)
		if err != nil {
			return 0, err
		}
		call = func() error {
			_, _, err := crophe.SimulateDegraded(context.Background(), m, w)
			return err
		}
	}
	t0 := time.Now()
	err := call()
	return time.Since(t0), err
}
