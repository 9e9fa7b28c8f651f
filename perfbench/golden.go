package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// The golden outputs were recorded from the unchanged model with
// `perfbench record`. Speed-only changes must reproduce them bit for
// bit; a change that moves the model on purpose re-records them in its
// own benchmark change.
//
//go:embed golden/*.json
var goldenFS embed.FS

// pointGolden is a paper-eval point's analytical time and traffic and
// its simulated cycles.
type pointGolden struct {
	TimeSec   float64 `json:"time_sec"`
	DRAM      float64 `json:"dram"`
	SRAM      float64 `json:"sram"`
	NoC       float64 `json:"noc"`
	Transpose float64 `json:"transpose"`
	SimCycles float64 `json:"sim_cycles"`
}

// ckksGolden bounds the bootstrap decrypt error: twice the worst error
// observed over the recording sweep.
type ckksGolden struct {
	RecordedMaxErr float64 `json:"recorded_max_err"`
	Floor          float64 `json:"floor"`
}

func loadGolden(name string, v any) error {
	data, err := goldenFS.ReadFile("golden/" + name)
	if err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	return nil
}

func loadPaperGolden() (map[string]pointGolden, error) {
	var g map[string]pointGolden
	return g, loadGolden("paper-eval.json", &g)
}

func loadServeGolden() (map[string]respGolden, error) {
	var g map[string]respGolden
	return g, loadGolden("serve-mix.json", &g)
}

func loadCKKSGolden() (float64, error) {
	var g ckksGolden
	if err := loadGolden("ckks-boot.json", &g); err != nil {
		return 0, err
	}
	return g.Floor, nil
}

// recordGoldens evaluates every paper-eval point, every serve-mix
// request key and a sweep of bootstraps, and writes the golden files
// into dir.
func recordGoldens(dir string) error {
	start := time.Now()
	paper := map[string]pointGolden{}
	for _, p := range paperPoints() {
		o, err := evaluatePoint(nil, p, -1)
		if err != nil {
			return err
		}
		paper[p.ID] = goldenOfPoint(o)
	}
	if err := writeJSON(filepath.Join(dir, "paper-eval.json"), paper); err != nil {
		return err
	}
	fmt.Printf("paper-eval: %d points (%.1fs)\n", len(paper), time.Since(start).Seconds())

	h, err := startServe()
	if err != nil {
		return err
	}
	defer h.close()
	var reqs []request
	for _, k := range scheduleKeys() {
		reqs = append(reqs, request{Kind: kindSchedule, Key: schedKey(kindSchedule, k), Sched: k})
		reqs = append(reqs, request{Kind: kindSimulate, Key: schedKey(kindSimulate, k), Sched: k})
	}
	for _, k := range degradedKeys() {
		reqs = append(reqs, request{Kind: kindDegraded, Key: degKey(k), Deg: k})
	}
	resp := map[string]respGolden{}
	for _, r := range reqs {
		g, _, err := h.do(r)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Key, err)
		}
		if g.Partial {
			return fmt.Errorf("%s: partial response", r.Key)
		}
		resp[r.Key] = g
	}
	if err := writeJSON(filepath.Join(dir, "serve-mix.json"), resp); err != nil {
		return err
	}
	fmt.Printf("serve-mix: %d responses (%.1fs)\n", len(resp), time.Since(start).Seconds())

	var worst float64
	for seed := int64(1); seed <= 8; seed++ {
		st, err := newCKKSState(seed, math.Inf(1))
		if err != nil {
			return err
		}
		if _, err := st.Loop(nil, 3*time.Second); err != nil {
			return err
		}
		worst = math.Max(worst, st.maxErr)
	}
	if err := writeJSON(filepath.Join(dir, "ckks-boot.json"), ckksGolden{RecordedMaxErr: worst, Floor: 2 * worst}); err != nil {
		return err
	}
	fmt.Printf("ckks-boot: worst decrypt error %.3g (%.1fs)\n", worst, time.Since(start).Seconds())
	return nil
}
