package serve

import (
	"context"
	"net/http"
	"testing"

	"crophe"
	"crophe/internal/sim"
	"crophe/internal/telemetry"
)

// TestSimulateKeepsCountersNotSpans: the server's collector accumulates
// the model counters of every simulation it runs but keeps no spans, so
// its memory does not grow with the request count. The sim/groups
// counter on /debug/vars must equal the sum over the same runs on fresh
// collectors, so the counters are not zero by construction.
func TestSimulateKeepsCountersNotSpans(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	sims := []ScheduleRequest{
		{HW: "crophe64", Workload: "helr"},
		{HW: "crophe36", Workload: "bootstrapping", Dataflow: "mad"},
	}
	degs := []DegradedRequest{
		{HW: "crophe64", Workload: "helr", Faults: "rows:1", Seed: 1},
		{HW: "crophe36", Workload: "helr", Faults: "links:2,banks:4", Seed: 2},
	}
	var want float64
	for _, req := range sims {
		if code, body, _ := doJSON(t, client, "POST", base+"/v1/simulate", req, nil); code != 200 {
			t.Fatalf("simulate %+v = %d %v", req, code, body)
		}
		d, wl, _, err := req.resolve()
		if err != nil {
			t.Fatal(err)
		}
		fresh := telemetry.New()
		if _, _, err := crophe.SimulateWorkloadContext(context.Background(), d, wl, 0, crophe.WithTelemetry(fresh)); err != nil {
			t.Fatal(err)
		}
		want += fresh.Counter("sim/groups")
	}
	for _, req := range degs {
		if code, body, _ := doJSON(t, client, "POST", base+"/v1/simulate-degraded", req, nil); code != 200 {
			t.Fatalf("simulate-degraded %+v = %d %v", req, code, body)
		}
		hw, _ := crophe.LookupHW(req.HW)
		spec, err := crophe.ParseFaultSpec(req.Faults)
		if err != nil {
			t.Fatal(err)
		}
		m, err := crophe.NewFaultMachine(hw, spec, req.Seed)
		if err != nil {
			t.Fatal(err)
		}
		wl, _ := crophe.LookupWorkload(req.Workload, crophe.DefaultParamsFor(hw), crophe.RotHoisted)
		fresh := telemetry.New()
		if _, _, err := crophe.SimulateDegraded(context.Background(), m, wl, sim.WithTelemetry(fresh)); err != nil {
			t.Fatal(err)
		}
		want += fresh.Counter("sim/groups")
	}

	if n := s.tel.SpanCount(); n != 0 {
		t.Fatalf("server collector kept %d spans after %d simulations", n, len(sims)+len(degs))
	}
	code, body, _ := doJSON(t, client, "GET", base+"/debug/vars", nil, nil)
	if code != 200 {
		t.Fatalf("vars = %d %v", code, body)
	}
	tel, _ := body["telemetry"].(map[string]any)
	got, _ := tel["sim/groups"].(float64)
	if want == 0 || got != want {
		t.Fatalf("/debug/vars sim/groups = %v, want %v (the fresh-collector sum)", got, want)
	}
}
