package moment

import (
	"strings"
	"testing"

	"moment/internal/topology"
)

func TestOptimizeQuickstart(t *testing.T) {
	plan, err := Optimize(MachineB(), Workload{Dataset: MustDataset("IG"), Model: GraphSAGE})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Placement == nil || plan.Epoch == nil {
		t.Fatal("incomplete plan")
	}
	if !strings.Contains(plan.Report(), "selected placement") {
		t.Error("report incomplete")
	}
}

func TestFacadeRoundTrips(t *testing.T) {
	m := MachineA()
	spec := topology.FormatSpec(m)
	back, err := ParseMachine(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "A" || back.NumGPUs != 4 {
		t.Errorf("round trip lost identity: %+v", back)
	}
	if _, err := DatasetByName("UK"); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustDataset should panic on unknown name")
		}
	}()
	MustDataset("nope")
}

func TestSimulateClassicLayout(t *testing.T) {
	m := MachineA()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(SimConfig{Machine: m, Placement: p,
		Workload: Workload{Dataset: MustDataset("PA"), Model: GAT}})
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != "" || r.EpochTime <= 0 {
		t.Errorf("bad result: %+v", r)
	}
}

func TestBaselineFacade(t *testing.T) {
	m := MachineA()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Dataset: MustDataset("PA"), Model: GraphSAGE}
	if _, err := MGIDS(m, p, w); err != nil {
		t.Error(err)
	}
	if _, err := MHyperion(m, p, w); err != nil {
		t.Error(err)
	}
	if _, err := DistDGL(MachineC(), DefaultDistDGL(), w); err != nil {
		t.Error(err)
	}
	if _, err := PublishedPlacementB(MachineB()); err != nil {
		t.Error(err)
	}
}
