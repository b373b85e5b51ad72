package cluster

import (
	"math"
	"math/rand"
	"testing"

	"moment/internal/baselines"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/partition"
	"moment/internal/topology"
	"moment/internal/trainsim"
	"moment/internal/units"
)

// TestFlowMatchesAnalyticalGrid is the differential wall for the flow
// planner: on a non-blocking core switch with the detached-NIC model, the
// whole-cluster max-flow must reproduce the analytical composition across
// the node-count × NIC-bandwidth × replication grid — same wire volume
// bit-for-bit, same network stage and epoch to 1e-9 (the min-time solve
// is exact, so only float rounding separates the two).
func TestFlowMatchesAnalyticalGrid(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		for _, nic := range []units.Bandwidth{units.Gbps(25), units.Gbps(100)} {
			for _, r := range []float64{0, 0.5, 1} {
				ana := cfg(t, nodes, nic)
				ana.Replication = r
				ra, err := Simulate(ana)
				if err != nil {
					t.Fatalf("nodes=%d nic=%v r=%v analytical: %v", nodes, nic, r, err)
				}
				flow := cfg(t, nodes, nic)
				flow.Replication = r
				flow.Flow = true
				rf, err := Simulate(flow)
				if err != nil {
					t.Fatalf("nodes=%d nic=%v r=%v flow: %v", nodes, nic, r, err)
				}
				if ra.OOM != "" || rf.OOM != "" {
					t.Fatalf("nodes=%d nic=%v r=%v: OOM %q / %q", nodes, nic, r, ra.OOM, rf.OOM)
				}
				if ra.Mode != "analytical" || rf.Mode != "flow" {
					t.Fatalf("modes %q / %q", ra.Mode, rf.Mode)
				}
				if ra.RemoteBytes != rf.RemoteBytes {
					t.Errorf("nodes=%d nic=%v r=%v: remote bytes diverge %v vs %v",
						nodes, nic, r, ra.RemoteBytes, rf.RemoteBytes)
				}
				if d := relDiff(ra.NICTime.Sec(), rf.NICTime.Sec()); d > 1e-9 {
					t.Errorf("nodes=%d nic=%v r=%v: NIC stage %vs vs %vs (rel %.3g)",
						nodes, nic, r, ra.NICTime.Sec(), rf.NICTime.Sec(), d)
				}
				if d := relDiff(ra.EpochTime.Sec(), rf.EpochTime.Sec()); d > 1e-9 {
					t.Errorf("nodes=%d nic=%v r=%v: epoch %v vs %v (rel %.3g)",
						nodes, nic, r, ra.EpochTime, rf.EpochTime, d)
				}
				if r == 1 && ra.RemoteBytes != 0 {
					t.Errorf("nodes=%d: full replication still shipped %v bytes", nodes, ra.RemoteBytes)
				}
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestReplicationAxisMonotoneEpoch sweeps r on a network-bound cluster:
// wire volume must fall monotonically, and with a slow NIC the epoch
// should improve as the hot head is localized.
func TestReplicationAxisMonotoneEpoch(t *testing.T) {
	prevRemote := math.Inf(1)
	for _, r := range []float64{0, 0.25, 0.5, 0.75, 1} {
		c := cfg(t, 4, units.Gbps(10))
		c.Replication = r
		res, err := Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		if res.OOM != "" {
			t.Fatalf("r=%v: %s", r, res.OOM)
		}
		if res.RemoteBytes > prevRemote+1 {
			t.Errorf("r=%v: remote bytes rose to %v", r, res.RemoteBytes)
		}
		prevRemote = res.RemoteBytes
		if res.Replication == nil || res.Replication.R != r {
			t.Errorf("r=%v: plan not reported: %+v", r, res.Replication)
		}
	}
	if prevRemote != 0 {
		t.Errorf("r=1 still remote: %v bytes", prevRemote)
	}
}

// TestReplicationNeedsReplicateHot pins the config contract.
func TestReplicationNeedsReplicateHot(t *testing.T) {
	off := false
	c := cfg(t, 4, units.Gbps(100))
	c.ReplicateHot = &off
	c.Replication = 0.5
	if _, err := Simulate(c); err == nil {
		t.Error("Replication with ReplicateHot=false accepted")
	}
	c = cfg(t, 4, units.Gbps(100))
	c.Replication = 1.5
	if _, err := Simulate(c); err == nil {
		t.Error("replication factor 1.5 accepted")
	}
}

// TestFlowNICOnGPUSocket verifies the contention knob that replaces the
// documented detached-NIC simplification: attaching the NIC to the GPU
// socket's fabric can only slow the flow-planned epoch down.
func TestFlowNICOnGPUSocket(t *testing.T) {
	base := cfg(t, 4, units.Gbps(100))
	base.Flow = true
	rb, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	knob := cfg(t, 4, units.Gbps(100))
	knob.Flow = true
	knob.NICOnGPUSocket = true
	rk, err := Simulate(knob)
	if err != nil {
		t.Fatal(err)
	}
	if rk.EpochTime.Sec() < rb.EpochTime.Sec()*(1-1e-3) {
		t.Errorf("fabric-attached NIC epoch %v faster than detached %v", rk.EpochTime, rb.EpochTime)
	}
	if rk.FlowTime.Sec() < rb.FlowTime.Sec()*(1-1e-3) {
		t.Errorf("fabric-attached NIC horizon %v faster than detached %v", rk.FlowTime, rb.FlowTime)
	}
	// The analytical mode cannot express the knob; flow mode must accept it.
	if rk.Mode != "flow" {
		t.Errorf("mode %q", rk.Mode)
	}
}

// TestFlowOversubscribedSpine prices what the analytical model cannot: a
// 2-leaf core whose uplinks are slower than the aggregate NIC demand must
// stretch the network stage beyond the non-blocking solution.
func TestFlowOversubscribedSpine(t *testing.T) {
	nb := cfg(t, 4, units.Gbps(25))
	nb.Flow = true
	rNB, err := Simulate(nb)
	if err != nil {
		t.Fatal(err)
	}
	over := cfg(t, 4, units.Gbps(25))
	over.Flow = true
	over.Cluster = &topology.ClusterSpec{
		Nodes: 4, NICBW: units.Gbps(25), Leaves: 2, LeafUplinkBW: units.Gbps(10),
	}
	rOver, err := Simulate(over)
	if err != nil {
		t.Fatal(err)
	}
	// Each leaf funnels 2 x 25 Gbps of NICs into a 10 Gbps uplink: the
	// spine is 5x oversubscribed and must dominate the NIC stage.
	if rOver.NICTime.Sec() <= rNB.NICTime.Sec()*2 {
		t.Errorf("oversubscribed spine NIC stage %v vs non-blocking %v — uplink did not bind",
			rOver.NICTime, rNB.NICTime)
	}
	if rOver.EpochTime.Sec() < rNB.EpochTime.Sec() {
		t.Errorf("oversubscription sped the epoch up: %v < %v", rOver.EpochTime, rNB.EpochTime)
	}
}

// TestClusterSpecMismatch pins spec/config agreement errors.
func TestClusterSpecMismatch(t *testing.T) {
	c := cfg(t, 4, units.Gbps(25))
	c.Cluster = &topology.ClusterSpec{Nodes: 8, NICBW: units.Gbps(25)}
	if _, err := Simulate(c); err == nil {
		t.Error("node-count mismatch accepted")
	}
	c = cfg(t, 4, units.Gbps(25))
	c.Cluster = &topology.ClusterSpec{Nodes: 4, NICBW: units.Gbps(100)}
	if _, err := Simulate(c); err == nil {
		t.Error("NIC-bandwidth mismatch accepted")
	}
}

// localityGraph builds a block-local random graph: most edges stay inside
// a contiguous node-sized block, so a range-partitioned 1D layout keeps
// them local while hashing scatters them.
func localityGraph(t *testing.T, n, nodes int) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	block := n / nodes
	var edges [][2]int32
	for v := 0; v < n; v++ {
		base := (v / block) * block
		for k := 0; k < 4; k++ {
			w := base + r.Intn(block) // intra-block
			edges = append(edges, [2]int32{int32(v), int32(w)})
		}
		if r.Intn(10) == 0 {
			edges = append(edges, [2]int32{int32(v), int32(r.Intn(n))}) // rare long-range
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPartitionScoredCrossTraffic wires the CAGNET partition scoring into
// the cluster planner: a locality-friendly range partition must beat both
// the uniform (N-1)/N assumption and the hashed variant on remote traffic.
func TestPartitionScoredCrossTraffic(t *testing.T) {
	const nodes = 4
	g := localityGraph(t, 4096, nodes)

	uniform := cfg(t, nodes, units.Gbps(25))
	rUni, err := Simulate(uniform)
	if err != nil {
		t.Fatal(err)
	}

	ranged := cfg(t, nodes, units.Gbps(25))
	ranged.Partition = &partition.Spec{Layout: partition.Layout1D, Nodes: nodes}
	ranged.PartitionGraph = g
	rRange, err := Simulate(ranged)
	if err != nil {
		t.Fatal(err)
	}

	hashed := cfg(t, nodes, units.Gbps(25))
	hashed.Partition = &partition.Spec{Layout: partition.Layout1D, Nodes: nodes, Hashed: true}
	hashed.PartitionGraph = g
	rHash, err := Simulate(hashed)
	if err != nil {
		t.Fatal(err)
	}

	if rRange.RemoteFraction >= rUni.RemoteFraction {
		t.Errorf("range partition remote %.4f >= uniform %.4f", rRange.RemoteFraction, rUni.RemoteFraction)
	}
	if rRange.RemoteFraction >= rHash.RemoteFraction {
		t.Errorf("range partition remote %.4f >= hashed %.4f", rRange.RemoteFraction, rHash.RemoteFraction)
	}
	// Hashed 1D approaches the uniform assumption on a scattered graph.
	if d := relDiff(rHash.RemoteFraction, rUni.RemoteFraction); d > 0.15 {
		t.Errorf("hashed remote %.4f far from uniform %.4f", rHash.RemoteFraction, rUni.RemoteFraction)
	}

	// Spec/graph contract errors.
	c := cfg(t, nodes, units.Gbps(25))
	c.Partition = &partition.Spec{Layout: partition.Layout1D, Nodes: nodes}
	if _, err := Simulate(c); err == nil {
		t.Error("Partition without PartitionGraph accepted")
	}
	c = cfg(t, nodes, units.Gbps(25))
	c.Partition = &partition.Spec{Layout: partition.Layout1D, Nodes: 8}
	c.PartitionGraph = g
	if _, err := Simulate(c); err == nil {
		t.Error("partition/cluster node mismatch accepted")
	}
}

// TestFlowBeatsDistDGL is the acceptance comparison: the flow-planned
// 4-node cluster on the PA reference (the dataset DistDGL survives without
// OOM) must out-train the calibrated DistDGL baseline.
func TestFlowBeatsDistDGL(t *testing.T) {
	d, err := graph.DatasetByName("PA")
	if err != nil {
		t.Fatal(err)
	}
	m := topology.MachineB()
	p, err := topology.MomentPlacementB(m)
	if err != nil {
		t.Fatal(err)
	}
	w := trainsim.Workload{Dataset: d, Model: gnn.KindSAGE}

	flow := Config{
		Node: m, Nodes: 4, NICBW: units.Gbps(100),
		Workload: w, Placement: p, Flow: true, Replication: 0.25,
	}
	rf, err := Simulate(flow)
	if err != nil {
		t.Fatal(err)
	}
	if rf.OOM != "" {
		t.Fatal(rf.OOM)
	}

	dgl, err := baselines.DistDGL(m, baselines.DefaultDistDGL(), w)
	if err != nil {
		t.Fatal(err)
	}
	if dgl.OOM != "" {
		t.Fatalf("DistDGL OOM on PA: %s", dgl.OOM)
	}
	if rf.Throughput <= dgl.Throughput {
		t.Errorf("flow planner %.0f v/s does not beat DistDGL %.0f v/s", rf.Throughput, dgl.Throughput)
	}
	if rf.EpochTime.Sec() >= dgl.EpochTime.Sec() {
		t.Errorf("flow planner epoch %v not faster than DistDGL %v", rf.EpochTime, dgl.EpochTime)
	}
}
