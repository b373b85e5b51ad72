package cluster

import (
	"testing"

	"moment/internal/core"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/obs"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/units"
)

func cfg(t *testing.T, nodes int, nic units.Bandwidth) Config {
	t.Helper()
	d, err := graph.DatasetByName("UK")
	if err != nil {
		t.Fatal(err)
	}
	m := topology.MachineB()
	p, err := topology.MomentPlacementB(m)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Node:      m,
		Nodes:     nodes,
		NICBW:     nic,
		Workload:  trainsim.Workload{Dataset: d, Model: gnn.KindSAGE},
		Placement: p,
	}
}

func TestSingleNodeMatchesSingleMachine(t *testing.T) {
	c := cfg(t, 1, units.Gbps(100))
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM != "" {
		t.Fatal(r.OOM)
	}
	if r.RemoteFraction != 0 || r.NICTime != 0 {
		t.Errorf("1-node cluster has network traffic: %v / %v", r.RemoteFraction, r.NICTime)
	}
	single, err := trainsim.SimulateEpoch(trainsim.Config{
		Machine: c.Node, Placement: c.Placement, Workload: c.Workload})
	if err != nil {
		t.Fatal(err)
	}
	rel := (r.EpochTime - single.EpochTime).Sec() / single.EpochTime.Sec()
	if rel > 0.01 || rel < -0.01 {
		t.Errorf("1-node epoch %v != single machine %v", r.EpochTime, single.EpochTime)
	}
}

func TestScalingImprovesThroughput(t *testing.T) {
	results, err := Sweep(cfg(t, 0, units.Gbps(100)), []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Throughput <= results[i-1].Throughput {
			t.Errorf("throughput did not grow: %d nodes %.0f <= previous %.0f",
				1<<i, results[i].Throughput, results[i-1].Throughput)
		}
	}
	// Sublinear: network and fixed per-node costs eat into scaling.
	if s := results[2].Throughput / results[0].Throughput; s > 4 {
		t.Errorf("4-node speedup %.2f superlinear", s)
	}
}

func TestSlowNICBindsEpoch(t *testing.T) {
	fast, err := Simulate(cfg(t, 4, units.Gbps(200)))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Simulate(cfg(t, 4, units.Gbps(10)))
	if err != nil {
		t.Fatal(err)
	}
	if slow.EpochTime.Sec() <= fast.EpochTime.Sec() {
		t.Errorf("slow NIC epoch %v <= fast %v", slow.EpochTime, fast.EpochTime)
	}
	if slow.NICTime.Sec() <= slow.LocalIO.Sec() {
		t.Errorf("10 Gbps NIC should dominate: nic %v vs io %v", slow.NICTime, slow.LocalIO)
	}
}

func TestHotReplicationReducesNetwork(t *testing.T) {
	// §5: prioritizing local SSD/memory access mitigates network cost.
	off := false
	naive := cfg(t, 4, units.Gbps(50))
	naive.ReplicateHot = &off
	rNaive, err := Simulate(naive)
	if err != nil {
		t.Fatal(err)
	}
	rLocal, err := Simulate(cfg(t, 4, units.Gbps(50)))
	if err != nil {
		t.Fatal(err)
	}
	if rLocal.RemoteFraction >= rNaive.RemoteFraction {
		t.Errorf("replication did not cut remote traffic: %.3f vs %.3f",
			rLocal.RemoteFraction, rNaive.RemoteFraction)
	}
	if rLocal.EpochTime.Sec() > rNaive.EpochTime.Sec() {
		t.Errorf("locality made things slower: %v vs %v", rLocal.EpochTime, rNaive.EpochTime)
	}
}

func TestAutoPlacementWhenNil(t *testing.T) {
	c := cfg(t, 2, units.Gbps(100))
	c.Placement = nil
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Placement == nil {
		t.Fatal("no placement chosen")
	}
	if err := r.Placement.Validate(c.Node); err != nil {
		t.Fatal(err)
	}
}

func TestShardOOM(t *testing.T) {
	c := cfg(t, 1, units.Gbps(100))
	m := c.Node.Clone()
	m.SSDCapacity = 1 << 38 // 256 GiB per SSD: UK's 3.2 TiB shard won't fit
	c.Node = m
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.OOM == "" {
		t.Error("expected shard OOM")
	}
	// More nodes shrink the shard until it fits.
	c.Nodes = 4
	r4, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r4.OOM != "" {
		t.Errorf("4-node shard should fit: %s", r4.OOM)
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Simulate(Config{}); err == nil {
		t.Error("nil node accepted")
	}
	c := cfg(t, 0, units.Gbps(100))
	if _, err := Simulate(c); err == nil {
		t.Error("zero nodes accepted")
	}
	c = cfg(t, 2, 0)
	if _, err := Simulate(c); err == nil {
		t.Error("multi-node without NIC accepted")
	}
}

// TestSingleNodeSearchesUnderNodeSim: the placement search runs under the
// node's own simulation knobs, so for every cache mode a 1-node cluster
// picks the placement a single-machine co-optimization picks under the
// same Sim, and derives the workload profile once for search and epoch.
func TestSingleNodeSearchesUnderNodeSim(t *testing.T) {
	d, err := graph.DatasetByName("PA")
	if err != nil {
		t.Fatal(err)
	}
	w := trainsim.Workload{Dataset: d, Model: gnn.KindSAGE}
	for _, mode := range []trainsim.CacheMode{trainsim.CacheReplicated, trainsim.CachePartitioned, trainsim.CachePaired} {
		t.Run(mode.String(), func(t *testing.T) {
			sim := trainsim.Config{Cache: mode, VirtualVertices: 20000}
			single, err := core.CoOptimize(core.Input{Machine: topology.MachineB(), Workload: w, Sim: sim})
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New()
			sim.Observer = o
			r, err := Simulate(Config{Node: topology.MachineB(), Nodes: 1, NICBW: units.Gbps(100), Workload: w, Sim: sim})
			if err != nil {
				t.Fatal(err)
			}
			if r.OOM != "" {
				t.Fatalf("OOM: %s", r.OOM)
			}
			if got, want := r.Placement.String(), single.Placement.String(); got != want {
				t.Errorf("1-node cluster placement %s, single machine %s", got, want)
			}
			if got := o.Counter("trainsim_stats_computed_total").Value(); got != 1 {
				t.Errorf("trainsim_stats_computed_total = %v, want 1", got)
			}
		})
	}
}
