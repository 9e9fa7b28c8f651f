package crophe

import (
	"reflect"
	"strings"
	"testing"

	"crophe/internal/sched"
	"crophe/internal/workload"
)

func TestFacadeCKKSRoundTrip(t *testing.T) {
	params, err := NewTestCKKSParameters(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if params.Slots() != 32 {
		t.Fatalf("slots %d", params.Slots())
	}
}

func TestFacadeDesignsEvaluate(t *testing.T) {
	cro := CROPHEDesign(HWCROPHE64)
	mad := MADDesign(HWCROPHE64)
	if cro.Name != "CROPHE-64" || mad.Name != "CROPHE-64+MAD" {
		t.Fatal("design names")
	}
	factory := BootstrappingWorkload(ParamsARK)
	rc := cro.Evaluate(factory)
	rm := mad.Evaluate(factory)
	if rc.TimeSec >= rm.TimeSec {
		t.Fatalf("facade: CROPHE %.3g not faster than MAD %.3g", rc.TimeSec, rm.TimeSec)
	}
}

func TestFacadeWorkloadFactories(t *testing.T) {
	for name, f := range map[string]WorkloadFactory{
		"boot":   BootstrappingWorkload(ParamsSHARP),
		"helr":   HELRWorkload(ParamsSHARP),
		"resnet": ResNetWorkload(ParamsSHARP, 20),
	} {
		w := f(workload.RotHoisted, 0)
		if w.TotalOps() == 0 {
			t.Errorf("%s: empty workload", name)
		}
	}
}

func TestFacadeSimulate(t *testing.T) {
	factory := BootstrappingWorkload(ParamsARK)
	w := factory(workload.RotHoisted, 0)
	s := sched.New(HWCROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	r, err := Simulate(HWCROPHE64, w, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeSec <= 0 {
		t.Fatal("simulation time")
	}
}

func TestFacadeExperiments(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "fig9", "fig10", "fig11", "ablations"}
	if ids := Experiments(); !reflect.DeepEqual(ids, want) {
		t.Fatalf("experiments %v, want %v", ids, want)
	}
	out, err := RunExperiment("table3", true)
	if err != nil || !strings.Contains(out, "TABLE III") {
		t.Fatalf("table3: %v", err)
	}
	if _, err := RunExperiment("bogus", true); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}
