package serve

import (
	"fmt"
	"net/http"

	"crophe"
	"crophe/internal/sim"
	"crophe/internal/workload"
)

// resolve maps the request's symbolic fields onto a design point and a
// workload, mirroring crophe-sim's conventions (hoisted rotations, NTT
// decomposition under the CROPHE dataflow).
func (req *ScheduleRequest) resolve() (crophe.Design, *crophe.Workload, string, error) {
	hw, ok := crophe.LookupHW(req.HW)
	if !ok {
		return crophe.Design{}, nil, "", fmt.Errorf("unknown hw %q", req.HW)
	}
	params := crophe.DefaultParamsFor(hw)
	w, ok := crophe.LookupWorkload(req.Workload, params, crophe.RotHoisted)
	if !ok {
		return crophe.Design{}, nil, "", fmt.Errorf("unknown workload %q", req.Workload)
	}
	var d crophe.Design
	switch req.Dataflow {
	case "", "crophe":
		d = crophe.CROPHEDesign(hw)
	case "mad":
		d = crophe.MADDesign(hw)
	default:
		return crophe.Design{}, nil, "", fmt.Errorf("unknown dataflow %q (want crophe or mad)", req.Dataflow)
	}
	// The memo key couples design identity with what the factory builds.
	wkey := params.Name + "/" + req.Workload + "/hoisted"
	return d, w, wkey, nil
}

// chaos honours an injected panic when the server allows it; the seed is
// registered first so the 500 carries it.
func (s *Server) chaos(r *http.Request, req *ScheduleRequest) {
	if s.cfg.AllowChaos && req.ChaosPanic {
		registerSeed(r, req.Seed)
		panic(fmt.Sprintf("chaos: injected request panic (seed %d)", req.Seed))
	}
}

// handleSchedule runs the dataflow search for one workload. Without a
// deadline the evaluation goes through the single-flight schedule memo
// (identical concurrent requests coalesce); with one, the search runs
// fresh under the request context and its deterministic anytime budget,
// and an expiring request returns its best-so-far schedule with
// "partial": true.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if err := decodeJSON(r, &req); err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, wl, wkey, err := req.resolve()
	if err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.chaos(r, &req)

	ctx, cancel, deadline := s.requestBudget(r, req.DeadlineMS)
	defer cancel()

	resp := ScheduleResponse{Workload: wl.Name, HW: d.HW.Name}
	if deadline <= 0 {
		// The no-deadline path reads only summary fields, so it goes
		// through both memo tiers: the single-flight LRU and the warm
		// summaries a coordinator shipped to this process.
		sum, src := crophe.MemoizedScheduleSummary(d, wkey, func(m workload.RotMode, _ int) *crophe.Workload {
			return wl
		})
		resp.fillSummary(sum)
		resp.Cached = src.Cached()
	} else {
		sched, err := crophe.ScheduleWorkload(ctx, d, wl, deadline)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "schedule: %v", err)
			return
		}
		resp.fillSchedule(sched)
	}
	if resp.Partial {
		s.metrics.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (resp *ScheduleResponse) fillSchedule(sched *crophe.Schedule) {
	resp.TimeMS = sched.TimeSec * 1e3
	resp.Partial = sched.Partial
	resp.DRAMBytes = sched.Traffic.DRAM
	resp.SRAMBytes = sched.Traffic.SRAM
	resp.NoCBytes = sched.Traffic.NoC
}

func (resp *ScheduleResponse) fillSummary(sum crophe.ScheduleSummary) {
	resp.TimeMS = sum.TimeSec * 1e3
	resp.Partial = sum.Partial
	resp.DRAMBytes = sum.Traffic.DRAM
	resp.SRAMBytes = sum.Traffic.SRAM
	resp.NoCBytes = sum.Traffic.NoC
}

// handleSimulate schedules and then runs the cycle-level simulator,
// accumulating the run's model counters into the server's counters-only
// telemetry collector (surfaced at /debug/vars); no spans are built or
// kept.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if err := decodeJSON(r, &req); err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, wl, _, err := req.resolve()
	if err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.chaos(r, &req)

	ctx, cancel, deadline := s.requestBudget(r, req.DeadlineMS)
	defer cancel()

	res, sched, err := crophe.SimulateWorkloadContext(ctx, d, wl, deadline, crophe.WithTelemetry(s.tel))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "simulate: %v", err)
		return
	}
	resp := ScheduleResponse{Workload: wl.Name, HW: d.HW.Name}
	resp.fillSchedule(sched)
	simMS := res.TimeSec * 1e3
	resp.SimTimeMS = &simMS
	resp.SimCycles = &res.Cycles
	resp.SimEnergyJ = &res.EnergyJ
	if resp.Partial {
		s.metrics.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSimulateDegraded degrades the chip under a seeded fault plan and
// simulates. The seed is registered before the degraded stack runs, so
// an invariant violation escaping it becomes a 500 carrying the seed.
func (s *Server) handleSimulateDegraded(w http.ResponseWriter, r *http.Request) {
	var req DegradedRequest
	if err := decodeJSON(r, &req); err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hw, ok := crophe.LookupHW(req.HW)
	if !ok {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "unknown hw %q", req.HW)
		return
	}
	spec, err := crophe.ParseFaultSpec(req.Faults)
	if err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "invalid faults: %v", err)
		return
	}
	params := crophe.DefaultParamsFor(hw)
	wl, ok := crophe.LookupWorkload(req.Workload, params, crophe.RotHoisted)
	if !ok {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "unknown workload %q", req.Workload)
		return
	}
	registerSeed(r, req.Seed)
	if s.cfg.AllowChaos && req.ChaosPanic {
		panic(fmt.Sprintf("chaos: injected degraded-path panic (seed %d)", req.Seed))
	}

	m, err := crophe.NewFaultMachine(hw, spec, req.Seed)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "fault machine: %v", err)
		return
	}

	ctx, cancel, _ := s.requestBudget(r, req.DeadlineMS)
	defer cancel()
	res, sched, err := crophe.SimulateDegraded(ctx, m, wl, sim.WithTelemetry(s.tel))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "degraded simulate: %v", err)
		return
	}
	if sched.Partial {
		s.metrics.partials.Add(1)
	}
	resp := DegradedResponse{
		Workload: wl.Name, HW: hw.Name,
		Faults: spec.String(), Seed: req.Seed, FaultCount: m.Plan.FaultCount(),
		TimeMS: res.TimeSec * 1e3, Cycles: res.Cycles, Partial: sched.Partial,
	}
	if res.Integrity != nil {
		resp.Integrity = &IntegrityStats{
			Checks:        res.Integrity.Checks,
			Detected:      res.Integrity.Detected,
			Recomputed:    res.Integrity.Recomputed,
			Escalated:     res.Integrity.Escalated,
			PenaltyCycles: res.Integrity.PenaltyCycles(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
