package main

import (
	"fmt"
	"math/rand"
	"time"

	"crophe/internal/arch"
	"crophe/internal/ckks"
	"crophe/internal/integrity"
	"crophe/internal/modmath"
	"crophe/internal/ntt"
	"crophe/internal/rns"
	"crophe/internal/workload"
)

// The layer probes run at the end of every traced run, with fixed
// inputs, and time single layers through their public calls. Each
// returns the metrics it defines directly; the spans it records also go
// into the layer aggregates and the Chrome trace.

// modelProbe evaluates the fixed model-probe points (golden-checked).
func modelProbe(tr *Tracer) error {
	g, err := loadPaperGolden()
	if err != nil {
		return err
	}
	for _, p := range modelProbePoints() {
		root := tr.begin("harness", "probe:"+p.ID, -1, 0)
		o, err := evaluatePoint(tr, p, root)
		tr.end(root)
		if err != nil {
			return err
		}
		if err := g[p.ID].check(o); err != nil {
			return fmt.Errorf("model probe %s: %w", p.ID, err)
		}
	}
	return nil
}

// graphProbe times the graph layer on the paper's workloads (the four
// benchmarks under each Table III parameter set, Min-KS form): the NTT
// decomposition per workload, and the fingerprint and topological order
// per node of every segment graph.
func graphProbe(tr *Tracer, vals map[string]float64) {
	var decompose []float64
	var fpSec, topoSec float64
	nodes := 0
	for _, ps := range []arch.ParamSet{arch.ParamsBTS, arch.ParamsARK, arch.ParamsSHARP, arch.ParamsCL} {
		for _, w := range workload.StandardSet(ps, workload.RotMinKS, 0) {
			root := tr.begin("harness", "probe:graph/"+ps.Name+"/"+w.Name, -1, 0)
			for _, seg := range w.Segments {
				nodes += len(seg.G.Nodes)
				id := tr.begin("graph", "Fingerprint", root, 0)
				t0 := time.Now()
				_ = seg.G.Fingerprint()
				fpSec += time.Since(t0).Seconds()
				tr.end(id)
				id = tr.begin("graph", "Topological", root, 0)
				t0 = time.Now()
				_ = seg.G.Topological()
				topoSec += time.Since(t0).Seconds()
				tr.end(id)
			}
			id := tr.begin("graph", "DecomposeNTTs", root, 0)
			t0 := time.Now()
			_ = w.DecomposeNTTs()
			decompose = append(decompose, time.Since(t0).Seconds())
			tr.end(id)
			tr.end(root)
		}
	}
	vals["graph.decompose_ms"] = median(decompose) * 1e3
	vals["graph.fingerprint_us_per_node"] = fpSec / float64(nodes) * 1e6
	vals["graph.topological_us_per_node"] = topoSec / float64(nodes) * 1e6
}

// serveProbe sends the first distinct requests of the seed's serve-mix
// sequence to a server, each paired with a direct library call on the
// same request: the round trip minus the direct call (request
// resolution included) is the serving overhead, and the library calls
// alone time the fault layer (degraded) and the memo (schedule hits).
// Without a server of the workload's own, it starts one.
func serveProbe(tr *Tracer, h *serveHarness, seed int64, vals map[string]float64) error {
	if h == nil {
		var err error
		if h, err = startServe(); err != nil {
			return err
		}
		defer h.close()
	}
	want := map[string]int{kindSchedule: 4, kindSimulate: 2, kindDegraded: 2}
	pairs := map[string]int{kindSchedule: 5, kindSimulate: 3, kindDegraded: 3}
	directLayer := map[string]string{kindSchedule: "bench", kindSimulate: "sim", kindDegraded: "fault"}
	seen := map[string]bool{}
	rt := map[string][]float64{}
	direct := map[string][]float64{} // resolve + library call
	library := map[string][]float64{}
	gen := newReqGen(seed)
	golden, err := loadServeGolden()
	if err != nil {
		return err
	}
	for n := 0; n < 10000 && (want[kindSchedule]+want[kindSimulate]+want[kindDegraded]) > 0; n++ {
		req := gen.next()
		if seen[req.Key] || want[req.Kind] == 0 {
			continue
		}
		seen[req.Key] = true
		want[req.Kind]--
		root := tr.begin("harness", "probe:"+req.Key, -1, 0)
		// The first schedule round trip may be a memo miss (a cold
		// sample); the paired samples after it are hits.
		reps := pairs[req.Kind]
		if req.Kind == kindSchedule {
			reps++
		}
		for i := 0; i < reps; i++ {
			id := tr.begin("serve", req.Kind, root, 0)
			t0 := time.Now()
			got, cached, err := h.do(req)
			d := time.Since(t0).Seconds()
			tr.end(id)
			if err != nil {
				return fmt.Errorf("serve probe %s: %w", req.Key, err)
			}
			if got != golden[req.Key] {
				return fmt.Errorf("serve probe %s: got %+v, golden %+v", req.Key, got, golden[req.Key])
			}
			if req.Kind == kindSchedule {
				tr.setArgs(id, map[string]float64{"cached": b2f(cached)})
				if i == 0 {
					continue
				}
			}
			rt[req.Kind] = append(rt[req.Kind], d)
			id = tr.begin(directLayer[req.Kind], "direct:"+req.Kind, root, 0)
			t0 = time.Now()
			lib, err := directCall(req)
			direct[req.Kind] = append(direct[req.Kind], time.Since(t0).Seconds())
			library[req.Kind] = append(library[req.Kind], lib.Seconds())
			tr.end(id)
			if err != nil {
				return fmt.Errorf("direct %s: %w", req.Key, err)
			}
		}
		tr.end(root)
	}
	for _, k := range []string{kindSchedule, kindSimulate, kindDegraded} {
		if len(rt[k]) == 0 {
			return fmt.Errorf("serve probe: no %s requests in the seeded sequence", k)
		}
		vals["serve."+k+".overhead_ms"] = (median(rt[k]) - median(direct[k])) * 1e3
	}
	vals["bench.memo_hit_us"] = median(library[kindSchedule]) * 1e6
	vals["fault.degraded_ms"] = median(library[kindDegraded]) * 1e3
	shed, partials, err := h.counters()
	if err != nil {
		return err
	}
	vals["serve.shed"], vals["serve.partials"] = shed, partials
	return nil
}

// ckksProbe times the numeric kernels at ckks-boot's parameters (logN=8,
// 11 levels, alpha=2), each the median of repeated samples.
func ckksProbe(tr *Tracer, vals map[string]float64) error {
	root := tr.begin("harness", "probe:ckks", -1, 0)
	defer tr.end(root)
	c, err := newCKKSContext(1)
	if err != nil {
		return err
	}
	params := c.params
	rots := []int{1, 2, 3, 4}
	keys := c.kg.GenEvaluationKeySet(c.sk, rots)
	ev := ckks.NewEvaluator(params, keys)
	encryptor := ckks.NewEncryptor(params, c.pk, ckks.NewTestRand(2))
	r := rand.New(rand.NewSource(3))
	msg := make([]complex128, params.Slots())
	for i := range msg {
		msg[i] = complex(r.Float64()-0.5, r.Float64()-0.5)
	}
	top := params.MaxLevel()
	ct, err := ckks.EncryptAtLevel(c.enc, encryptor, msg, top)
	if err != nil {
		return err
	}
	var probeErr error
	try := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	const samples, minDur = 9, 2 * time.Millisecond
	timed := func(layer, name string, op func()) float64 {
		id := tr.begin(layer, name, root, 0)
		defer tr.end(id)
		return medianOf(samples, minDur, op)
	}
	vals["ckks.encode_us"] = 1e6 * timed("ckks", "EncodeAtScale", func() {
		_, err := c.enc.EncodeAtScale(msg, top, params.Scale)
		try(err)
	})
	vals["ckks.keyswitch_us"] = 1e6 * timed("ckks", "KeySwitch", func() {
		_, _, err := ev.KeySwitch(ct.A, top, keys.Relin)
		try(err)
	})
	vals["ckks.rotate_hoisted_us_per_rot"] = 1e6 / float64(len(rots)) * timed("ckks", "RotateHoisted", func() {
		_, err := ev.RotateHoisted(ct, rots)
		try(err)
	})
	vals["ckks.mulrelin_us"] = 1e6 * timed("ckks", "MulRelin", func() {
		_, err := ev.MulRelin(ct, ct)
		try(err)
	})
	vals["ckks.rescale_us"] = 1e6 * timed("ckks", "Rescale", func() {
		_, err := ev.Rescale(ct)
		try(err)
	})
	if probeErr != nil {
		return fmt.Errorf("ckks probe: %w", probeErr)
	}

	// NTT per limb over the ciphertext modulus chain, in place on a
	// uniform polynomial (values stay reduced, so repeats are valid).
	rq := params.RingQ()
	limbs := rq.K()
	p := rq.UniformPoly(limbs, rand.New(rand.NewSource(4)))
	vals["ntt.forward_us_per_limb"] = 1e6 / float64(limbs) * timed("ntt", "Forward", func() {
		for i, t := range rq.Tables {
			t.Forward(p.Coeffs[i])
		}
	})
	vals["ntt.inverse_us_per_limb"] = 1e6 / float64(limbs) * timed("ntt", "Inverse", func() {
		for i, t := range rq.Tables {
			t.Inverse(p.Coeffs[i])
		}
	})

	// Base conversion of one key-switching digit (alpha limbs) onto the
	// rest of the chain plus the special primes — the ModUp shape.
	src := rq.Basis.Sub(0, params.Alpha)
	dst, err := rns.NewBasis(append(append([]uint64(nil), params.Q[params.Alpha:]...), params.P...))
	if err != nil {
		return fmt.Errorf("ckks probe: %w", err)
	}
	conv := rns.NewConv(src, dst)
	in := p.Coeffs[:params.Alpha]
	out := make([][]uint64, dst.K())
	for i := range out {
		out[i] = make([]uint64, params.N())
	}
	vals["rns.convert_columns_us"] = 1e6 * timed("rns", "ConvertColumns", func() { conv.ConvertColumns(out, in) })

	frac, err := integrityOverhead(tr, root)
	if err != nil {
		return err
	}
	vals["ntt.integrity_overhead_frac"] = frac
	return nil
}

// integrityOverhead is the median over interleaved pairs of the
// ForwardChecked/Forward time ratio, minus one, with no clamp: a
// negative value means the checked kernel measured faster. It uses the
// N=4096 single-limb shape of the in-tree integrity gate.
func integrityOverhead(tr *Tracer, parent int) (float64, error) {
	const n, pairs = 4096, 21
	primes, err := modmath.GeneratePrimes(45, n, 1)
	if err != nil {
		return 0, err
	}
	tbl, err := ntt.NewTable(modmath.MustModulus(primes[0]), n)
	if err != nil {
		return 0, err
	}
	r := rand.New(rand.NewSource(n))
	a := make([]uint64, n)
	for i := range a {
		a[i] = r.Uint64() % tbl.M.Q
	}
	ck := integrity.NewChecker(1)
	var checkErr error
	plain := func() { tbl.Forward(a) }
	checked := func() {
		if _, err := tbl.ForwardChecked(a, ck); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	id := tr.begin("ntt", "ForwardChecked/Forward pairs", parent, 0)
	defer tr.end(id)
	ratios := make([]float64, pairs)
	for i := range ratios {
		// Alternate which side goes first so drift does not favour one.
		if i%2 == 0 {
			p := timeReps(time.Millisecond, plain)
			ratios[i] = timeReps(time.Millisecond, checked) / p
		} else {
			c := timeReps(time.Millisecond, checked)
			ratios[i] = c / timeReps(time.Millisecond, plain)
		}
	}
	if checkErr != nil {
		return 0, fmt.Errorf("integrity probe: %w", checkErr)
	}
	return median(ratios) - 1, nil
}
