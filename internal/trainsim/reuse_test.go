package trainsim_test

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"moment/internal/cluster"
	"moment/internal/core"
	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/obs"
	"moment/internal/partition"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/units"
)

const statsCounter = "trainsim_stats_computed_total"

func workload(t *testing.T, ds string) trainsim.Workload {
	t.Helper()
	d, err := graph.DatasetByName(ds)
	if err != nil {
		t.Fatal(err)
	}
	return trainsim.Workload{Dataset: d, Model: gnn.KindSAGE}
}

// customMachine parses the build-to-order chassis examples/customserver
// plans.
func customMachine(t *testing.T) *topology.Machine {
	t.Helper()
	src, err := os.ReadFile("../../examples/customserver/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, spec, ok := strings.Cut(string(src), "const spec = `")
	if !ok {
		t.Fatal("examples/customserver: no spec constant")
	}
	spec, _, _ = strings.Cut(spec, "`")
	m, err := topology.ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func coInputs(t *testing.T) map[string]func() core.Input {
	sched, err := faults.Parse("seed=3;kill:ssd2@1.5;throttle:ssd5@0.5x0.4+2;straggle:gpu1@1x0.7+1")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() core.Input{
		"A/IG": func() core.Input { return core.Input{Machine: topology.MachineA(), Workload: workload(t, "IG")} },
		"B/PA": func() core.Input { return core.Input{Machine: topology.MachineB(), Workload: workload(t, "PA")} },
		"custom/UK": func() core.Input {
			return core.Input{Machine: customMachine(t), Workload: workload(t, "UK")}
		},
		"B/PA/faulted": func() core.Input {
			in := core.Input{Machine: topology.MachineB(), Workload: workload(t, "PA")}
			in.Sim.Faults = sched
			return in
		},
	}
}

// clusterConfig is a 4-node deployment of machine B planned in flow mode
// with a CAGNET 1D layout of the cold tail.
func clusterConfig(t *testing.T) cluster.Config {
	t.Helper()
	g, err := graph.GenZipf(4096, 8, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Config{
		Node: topology.MachineB(), Nodes: 4, NICBW: units.Gbps(100),
		Workload: workload(t, "PA"), Flow: true, Replication: 0.1,
		Partition:      &partition.Spec{Layout: partition.Layout1D, Nodes: 4},
		PartitionGraph: g,
	}
}

// withFresh runs f with every planner call deriving its profile afresh.
func withFresh(f func()) {
	trainsim.SetFreshStats(true)
	defer trainsim.SetFreshStats(false)
	f()
}

// TestStatsReuseMatchesFresh is the differential for handing the workload
// profile on: a co-optimization (machines A, B, the customserver chassis,
// and B under faults) and a 4-node flow deployment must come out bit-equal
// — placement, predicted I/O, DDAK layout and the whole epoch result —
// whether each stage reuses the profile or derives it again.
func TestStatsReuseMatchesFresh(t *testing.T) {
	for name, input := range coInputs(t) {
		t.Run(name, func(t *testing.T) {
			reuse, err := core.CoOptimize(input())
			if err != nil {
				t.Fatal(err)
			}
			var fresh *core.Plan
			withFresh(func() { fresh, err = core.CoOptimize(input()) })
			if err != nil {
				t.Fatal(err)
			}
			if reuse.Placement.String() != fresh.Placement.String() || !reflect.DeepEqual(reuse.Placement, fresh.Placement) {
				t.Errorf("placement %v, fresh %v", reuse.Placement, fresh.Placement)
			}
			if reuse.PredictedIO != fresh.PredictedIO || reuse.PredictedThroughput != fresh.PredictedThroughput {
				t.Errorf("predicted I/O %v (%v), fresh %v (%v)", reuse.PredictedIO,
					reuse.PredictedThroughput, fresh.PredictedIO, fresh.PredictedThroughput)
			}
			if !reflect.DeepEqual(reuse.DataPlacement, fresh.DataPlacement) {
				t.Error("DDAK layout differs from the fresh run")
			}
			if !reflect.DeepEqual(reuse.Epoch, fresh.Epoch) {
				t.Errorf("epoch %+v, fresh %+v", reuse.Epoch, fresh.Epoch)
			}
		})
	}
	t.Run("cluster/B/4-node-1d", func(t *testing.T) {
		reuse, err := cluster.Simulate(clusterConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		var fresh *cluster.Result
		withFresh(func() { fresh, err = cluster.Simulate(clusterConfig(t)) })
		if err != nil {
			t.Fatal(err)
		}
		if reuse.OOM != "" || !reflect.DeepEqual(reuse, fresh) {
			t.Errorf("cluster result %+v, fresh %+v", reuse, fresh)
		}
	})
}

// TestStatsComputedOncePerPlan: one co-optimization and one cluster
// simulation each derive the workload profile exactly once, and the
// fresh baseline derives it at every stage.
func TestStatsComputedOncePerPlan(t *testing.T) {
	count := func(t *testing.T, run func(o *obs.Observer) error) float64 {
		t.Helper()
		o := obs.New()
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return o.Counter(statsCounter).Value()
	}
	coRun := func(in core.Input) func(o *obs.Observer) error {
		return func(o *obs.Observer) error {
			in.Observer = o
			_, err := core.CoOptimize(in)
			return err
		}
	}
	clRun := func(cfg cluster.Config) func(o *obs.Observer) error {
		return func(o *obs.Observer) error {
			cfg.Sim.Observer = o
			_, err := cluster.Simulate(cfg)
			return err
		}
	}
	inputs := coInputs(t)
	explained := inputs["B/PA"]()
	explained.Search.Explain = obs.NewExplain()
	given := clusterConfig(t)
	p, err := topology.ClassicPlacement(given.Node, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	given.Placement = p
	analytical := clusterConfig(t)
	analytical.Flow = false

	cases := []struct {
		name       string
		run        func(o *obs.Observer) error
		freshCalls float64 // profiles derived when none is handed on
	}{
		{"co-optimize", coRun(inputs["B/PA"]()), 2},
		{"co-optimize/faulted", coRun(inputs["B/PA/faulted"]()), 2},
		{"co-optimize/explain", coRun(explained), 2},
		{"cluster/flow", clRun(clusterConfig(t)), 4},
		{"cluster/flow/given-placement", clRun(given), 2},
		{"cluster/analytical", clRun(analytical), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := count(t, tc.run); got != 1 {
				t.Errorf("%s = %v, want 1", statsCounter, got)
			}
			var fresh float64
			withFresh(func() { fresh = count(t, tc.run) })
			if fresh != tc.freshCalls {
				t.Errorf("fresh %s = %v, want %v", statsCounter, fresh, tc.freshCalls)
			}
		})
	}
}
