package moment

// Cross-package integration and property tests: random (but valid) server
// topologies are pushed through the full pipeline — enumeration, search,
// DDAK, fabric simulation — and the pipeline's global invariants are
// checked on each.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"moment/internal/adaptive"
	"moment/internal/ddak"
	"moment/internal/placement"
	"moment/internal/topology"
	"moment/internal/units"
)

// randomMachine builds a valid random two-socket server with a bounded
// placement-candidate count.
func randomMachine(r *rand.Rand) *Machine {
	m := &Machine{
		Name:          fmt.Sprintf("rand%d", r.Intn(1000)),
		QPIBW:         units.GiBps(14 + float64(r.Intn(12))),
		DRAMPerSocket: units.GB(256),
		DRAMBW:        units.GiBps(30 + float64(r.Intn(10))),
		GPUMemory:     units.GB(40),
		GPUCacheFrac:  0.1 + r.Float64()*0.2,
		SSDCapacity:   units.TB(3.84),
		SSDBW:         units.GiBps(5 + float64(r.Intn(3))),
		SSDIOPS:       900_000,
		PCIeX16:       units.GiBps(16 + float64(r.Intn(8))),
		PCIeX4:        units.GiBps(7),
		NumNodes:      1,
	}
	m.Points = []topology.AttachPoint{
		{ID: "rc0", Kind: topology.RootComplex, Bays: 2 + r.Intn(5), GPUSlots: r.Intn(2)},
		{ID: "rc1", Kind: topology.RootComplex, Bays: 2 + r.Intn(5), GPUSlots: r.Intn(2)},
	}
	// Up to one switch per socket, optionally cascaded on socket 0.
	if r.Intn(2) == 0 {
		m.Points = append(m.Points, topology.AttachPoint{
			ID: "sw0", Kind: topology.Switch, Parent: "rc0",
			UplinkBW: m.PCIeX16, Bays: r.Intn(3), GPUSlots: 2 + r.Intn(2),
		})
		if r.Intn(2) == 0 {
			m.Points = append(m.Points, topology.AttachPoint{
				ID: "sw1", Kind: topology.Switch, Parent: "sw0",
				UplinkBW: m.PCIeX16, Bays: r.Intn(3), GPUSlots: 2,
			})
		}
	}
	if r.Intn(2) == 0 {
		m.Points = append(m.Points, topology.AttachPoint{
			ID: "swb", Kind: topology.Switch, Parent: "rc1",
			UplinkBW: m.PCIeX16, Bays: r.Intn(3), GPUSlots: 2,
		})
	}
	// Device inventory bounded by the slots we created.
	gpuSlots, bays := m.TotalGPUSlots(), m.TotalBays()
	if gpuSlots == 0 {
		m.Points[0].GPUSlots = 1
		gpuSlots = 1
	}
	m.NumGPUs = 1 + r.Intn(min(gpuSlots, 4))
	m.NumSSDs = 2 + r.Intn(bays-1)
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRandomMachinesFullPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	w := Workload{Dataset: MustDataset("PA"), Model: GraphSAGE}
	machines := 0
	for trial := 0; trial < 20 && machines < 8; trial++ {
		m := randomMachine(r)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: generator built invalid machine: %v", trial, err)
		}
		cands, err := placement.Enumerate(m)
		if err != nil || len(cands) == 0 || len(cands) > 120 {
			continue // keep the sweep cheap
		}
		machines++
		plan, err := Optimize(m, w)
		if err != nil {
			t.Fatalf("trial %d (%s): optimize: %v", trial, m.Name, err)
		}
		if err := plan.Placement.Validate(m); err != nil {
			t.Fatalf("trial %d: invalid chosen placement: %v", trial, err)
		}
		// Invariants on the simulated epoch.
		e := plan.Epoch
		if e.OOM != "" {
			t.Fatalf("trial %d: plan OOM: %s", trial, e.OOM)
		}
		if e.EpochTime <= 0 || e.IOTime <= 0 || e.PredictedIO <= 0 {
			t.Fatalf("trial %d: degenerate times %+v", trial, e)
		}
		if e.FabricEpoch > e.FetchEpoch*1.0001 {
			t.Fatalf("trial %d: fabric bytes %.0f exceed fetched %.0f",
				trial, e.FabricEpoch, e.FetchEpoch)
		}
		if e.HitGPU < 0 || e.HitGPU > 1 || e.HitCPU < 0 || e.HitCPU > 1 {
			t.Fatalf("trial %d: hit rates out of range: %v %v", trial, e.HitGPU, e.HitCPU)
		}
		for g, bw := range e.PerGPUIOBW {
			if bw < 0 || float64(bw) > 2*float64(m.PCIeX16)+float64(m.NVLinkBW) {
				t.Fatalf("trial %d: gpu%d inlet %v implausible", trial, g, bw)
			}
		}
		// The plan's predicted IO must not be worse than a random
		// candidate's (search optimality over the same demand).
		other := cands[r.Intn(len(cands))]
		cfg := SimConfig{Machine: m, Placement: other, Workload: w}
		ro, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("trial %d: simulate candidate: %v", trial, err)
		}
		if ro.OOM == "" && plan.Epoch.PredictedIO.Sec() > ro.PredictedIO.Sec()*1.01 {
			t.Errorf("trial %d: plan predicted %.2fs worse than candidate %.2fs",
				trial, plan.Epoch.PredictedIO.Sec(), ro.PredictedIO.Sec())
		}
	}
	if machines < 4 {
		t.Fatalf("only %d random machines exercised", machines)
	}
}

func TestRandomMachinesDDAKNeverLosesToHash(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	w := Workload{Dataset: MustDataset("IG"), Model: GraphSAGE}
	machines := 0
	for trial := 0; trial < 20 && machines < 6; trial++ {
		m := randomMachine(r)
		cands, err := placement.Enumerate(m)
		if err != nil || len(cands) == 0 {
			continue
		}
		p := cands[r.Intn(len(cands))]
		dd, err := Simulate(SimConfig{Machine: m, Placement: p, Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		hh, err := Simulate(SimConfig{Machine: m, Placement: p, Workload: w, Policy: PolicyHash})
		if err != nil {
			t.Fatal(err)
		}
		if dd.OOM != "" || hh.OOM != "" {
			continue
		}
		machines++
		if dd.EpochTime.Sec() > hh.EpochTime.Sec()*1.02 {
			t.Errorf("trial %d (%s, %s): DDAK %.2fs materially worse than hash %.2fs",
				trial, m.Name, p, dd.EpochTime.Sec(), hh.EpochTime.Sec())
		}
	}
	if machines < 3 {
		t.Fatalf("only %d machines compared", machines)
	}
}

func TestClusterFacade(t *testing.T) {
	node := MachineB()
	p, err := PublishedPlacementB(node)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateCluster(ClusterConfig{
		Node: node, Nodes: 2, NICBW: Gbps(100),
		Workload:  Workload{Dataset: MustDataset("UK"), Model: GraphSAGE},
		Placement: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM != "" || res.Throughput <= 0 {
		t.Fatalf("bad cluster result: %+v", res)
	}
	sweep, err := ClusterSweep(ClusterConfig{
		Node: node, NICBW: Gbps(100),
		Workload:  Workload{Dataset: MustDataset("UK"), Model: GraphSAGE},
		Placement: p,
	}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 || sweep[1].Throughput <= sweep[0].Throughput {
		t.Errorf("sweep did not scale: %v", sweep)
	}
}

func TestAdaptiveFacade(t *testing.T) {
	hot, err := ProfileHotness(MustDataset("IG"), 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]float64, len(hot))
	for i := range bytes {
		bytes[i] = 4096
	}
	bins := []StorageBin{
		{Name: "hbm", Tier: ddak.TierGPU, Capacity: 200 * 4096, Traffic: 0.5},
		{Name: "ssd", Tier: ddak.TierSSD, Capacity: 1e9, Traffic: 0.5},
	}
	rp, err := NewReplanner(hot, bytes, bins, 100, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	h0, err := adaptive.HitRate(rp.Current(), hot)
	if err != nil {
		t.Fatal(err)
	}
	if h0 <= 0 {
		t.Fatal("no fast-tier hits")
	}
	mon, err := NewAccessMonitor(len(hot), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.ObserveBatch([]int32{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if d, err := adaptive.TV(hot, mon.Hotness()); err != nil || d <= 0 {
		t.Errorf("drift %v, %v", d, err)
	}
}

func TestTrainScaledAllModels(t *testing.T) {
	for _, kind := range []ModelKind{GraphSAGE, GAT, GCN} {
		res, err := TrainScaled(TrainConfig{
			Dataset: MustDataset("PA"), Model: kind,
			Vertices: 600, Epochs: 3, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.Losses) != 3 || res.Sampled == 0 {
			t.Fatalf("%v: degenerate result %+v", kind, res)
		}
	}
	if _, err := TrainScaled(TrainConfig{Dataset: MustDataset("PA")}); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := TrainScaled(TrainConfig{Dataset: MustDataset("PA"), Vertices: 10}); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestEstimateTimeToAccuracy(t *testing.T) {
	m := MachineA()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateTimeToAccuracy(
		SimConfig{Machine: m, Placement: p,
			Workload: Workload{Dataset: MustDataset("PA"), Model: GraphSAGE}},
		TrainConfig{Dataset: MustDataset("PA"), Model: GraphSAGE, Vertices: 1200, Seed: 4},
		0.7, 12,
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs <= 0 || res.Epochs > 12 {
		t.Fatalf("epochs %d", res.Epochs)
	}
	if res.ReachedAccuracy < 0.7 && res.Epochs < 12 {
		t.Errorf("stopped at %.3f before budget exhausted", res.ReachedAccuracy)
	}
	wantTotal := res.EpochTime.Sec() * float64(res.Epochs)
	if math.Abs(res.Total.Sec()-wantTotal) > 1e-9 {
		t.Errorf("total %v != epochs x epoch time", res.Total)
	}
	if len(res.Curve) < res.Epochs {
		t.Errorf("curve too short: %d < %d", len(res.Curve), res.Epochs)
	}
	if _, err := EstimateTimeToAccuracy(SimConfig{}, TrainConfig{}, 0, 5); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := EstimateTimeToAccuracy(SimConfig{}, TrainConfig{}, 0.5, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestEpochTimelineFacade(t *testing.T) {
	m := MachineA()
	p, err := ClassicPlacement(m, LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(SimConfig{Machine: m, Placement: p,
		Workload: Workload{Dataset: MustDataset("IG"), Model: GraphSAGE}})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := EpochTimeline(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Critical == "" || tl.Total <= 0 {
		t.Errorf("bad timeline %+v", tl)
	}
}
