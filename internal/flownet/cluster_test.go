package flownet

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"moment/internal/topology"
	"moment/internal/units"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// loadClusterSpec reads a combined machine+cluster testdata file and builds
// the deterministic placement the goldens assume (everything on sw0).
func loadClusterSpec(t *testing.T, name string) (*topology.Machine, *topology.Placement, topology.ClusterSpec) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, cs, err := topology.ParseClusterFile(f)
	if err != nil {
		t.Fatalf("ParseClusterFile(%s): %v", name, err)
	}
	if cs == nil {
		t.Fatalf("%s has no cluster line", name)
	}
	p := &topology.Placement{Name: "mini-all-sw0"}
	for i := 0; i < m.NumGPUs; i++ {
		p.GPUAt = append(p.GPUAt, "sw0")
	}
	for i := 0; i < m.NumSSDs; i++ {
		p.SSDAt = append(p.SSDAt, "sw0")
	}
	if err := p.Validate(m); err != nil {
		t.Fatalf("placement: %v", err)
	}
	return m, p, *cs
}

// miniDemand builds a small deterministic cluster demand: node j's GPU i
// wants (10+i) GiB served by 4 GiB per DRAM cache plus the SSD tier, and
// every node exchanges 2 GiB with its peers.
func miniDemand(m *topology.Machine, nodes int) *ClusterDemand {
	const GiB = 1 << 30
	d := &ClusterDemand{}
	for j := 0; j < nodes; j++ {
		nd := &Demand{DRAM: map[string]float64{}}
		for i := 0; i < m.NumGPUs; i++ {
			nd.PerGPU = append(nd.PerGPU, float64(10+i)*GiB)
		}
		for _, rc := range m.RootComplexes() {
			nd.DRAM[rc] = 4 * GiB
		}
		nd.SSDTotal = 16 * GiB
		d.Node = append(d.Node, nd)
		d.Import = append(d.Import, 2*GiB)
		d.Export = append(d.Export, 2*GiB)
	}
	return d
}

func formatEdges(edges []ClusterEdge) string {
	var b strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&b, "%-5s %-16s -> %-16s %g\n", e.Kind, e.From, e.To, e.Value)
	}
	return b.String()
}

// TestClusterGoldens pins the hierarchical construction: testdata spec in,
// exact flow-graph edge list out. Regenerate with -update after deliberate
// wiring changes.
func TestClusterGoldens(t *testing.T) {
	cases := []struct {
		spec, golden string
		opts         ClusterOptions
	}{
		{"cluster_nonblocking.spec", "cluster_nonblocking.golden", ClusterOptions{}},
		{"cluster_oversub.spec", "cluster_oversub.golden", ClusterOptions{}},
		{"cluster_oversub.spec", "cluster_oversub_nicfabric.golden", ClusterOptions{NICOnGPUSocket: true}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			m, p, cs := loadClusterSpec(t, tc.spec)
			cn, err := BuildCluster(m, p, cs, miniDemand(m, cs.Nodes), tc.opts)
			if err != nil {
				t.Fatalf("BuildCluster: %v", err)
			}
			got := formatEdges(cn.EdgeList())
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("edge list drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestClusterSolveNonBlocking checks the solved flow against the closed
// form: on a non-blocking core the network stage is exactly
// export bytes / NIC bandwidth, every NIC carries exactly its node's
// configured import/export volume, and all inter-node bytes cross the spine.
func TestClusterSolveNonBlocking(t *testing.T) {
	m, p, cs := loadClusterSpec(t, "cluster_nonblocking.spec")
	d := miniDemand(m, cs.Nodes)
	cn, err := BuildCluster(m, p, cs, d, ClusterOptions{})
	if err != nil {
		t.Fatalf("BuildCluster: %v", err)
	}
	if _, err := cn.Solve(); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	nt, err := cn.NetworkTime()
	if err != nil {
		t.Fatal(err)
	}
	want := d.Export[0] / float64(cs.NICBW)
	if got := nt.Sec(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("NetworkTime = %vs, want %vs (export/NICBW)", got, want)
	}
	eg, in, err := cn.NICBytes()
	if err != nil {
		t.Fatal(err)
	}
	for j := range eg {
		if math.Abs(eg[j]-d.Export[j]) > 1e-3*d.Export[j] {
			t.Errorf("node %d egress %v, want %v", j, eg[j], d.Export[j])
		}
		if math.Abs(in[j]-d.Import[j]) > 1e-3*d.Import[j] {
			t.Errorf("node %d ingress %v, want %v", j, in[j], d.Import[j])
		}
	}
	sp, err := cn.SpineBytes()
	if err != nil {
		t.Fatal(err)
	}
	wantSpine := 0.0
	for _, v := range d.Import {
		wantSpine += v
	}
	if math.Abs(sp-wantSpine) > 1e-3*wantSpine {
		t.Errorf("SpineBytes = %v, want %v", sp, wantSpine)
	}
}

// TestClusterOversubscribedUplink checks that a binding leaf uplink, not
// the NICs, sets the network time once per-leaf traffic exceeds it.
func TestClusterOversubscribedUplink(t *testing.T) {
	m, p, cs := loadClusterSpec(t, "cluster_oversub.spec")
	d := miniDemand(m, cs.Nodes)
	// Push each node's exchange to 12 GiB: a leaf's two nodes then offer
	// 24 GiB to a 15 GiB/s uplink, while each 10 GiB/s NIC only needs
	// 1.2 s for its own 12 GiB.
	const GiB = 1 << 30
	for j := range d.Import {
		d.Import[j], d.Export[j] = 12*GiB, 12*GiB
	}
	cn, err := BuildCluster(m, p, cs, d, ClusterOptions{})
	if err != nil {
		t.Fatalf("BuildCluster: %v", err)
	}
	nt, err := cn.NetworkTime()
	if err != nil {
		t.Fatal(err)
	}
	want := 24 * GiB / float64(cs.LeafUplinkBW)
	if got := nt.Sec(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("NetworkTime = %vs, want %vs (leaf uplink bound)", got, want)
	}
	osub := cs.Oversubscription()
	if osub <= 1 {
		t.Fatalf("testdata spec no longer oversubscribed: %v", osub)
	}
}

// TestClusterNICOnGPUSocket checks the contention knob: attaching the NIC
// to the fabric can only slow a solve down, and exports still cross the
// wire in full.
func TestClusterNICOnGPUSocket(t *testing.T) {
	m, p, cs := loadClusterSpec(t, "cluster_oversub.spec")
	d := miniDemand(m, cs.Nodes)
	base, err := BuildCluster(m, p, cs, d, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tBase, err := base.Solve()
	if err != nil {
		t.Fatal(err)
	}
	fab, err := BuildCluster(m, p, cs, d, ClusterOptions{NICOnGPUSocket: true})
	if err != nil {
		t.Fatal(err)
	}
	tFab, err := fab.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if tFab.Sec() < tBase.Sec()*(1-1e-3) {
		t.Errorf("fabric-attached NIC solved faster: %v < %v", tFab, tBase)
	}
	eg, _, err := fab.NICBytes()
	if err != nil {
		t.Fatal(err)
	}
	for j := range eg {
		if math.Abs(eg[j]-d.Export[j]) > 1e-3*d.Export[j] {
			t.Errorf("node %d egress %v, want %v", j, eg[j], d.Export[j])
		}
	}
}

// TestClusterSingleNode degenerates to the single-machine model: no
// imports, no exports, and the solved horizon matches Build+Solve on the
// same demand.
func TestClusterSingleNode(t *testing.T) {
	m, p, _ := loadClusterSpec(t, "cluster_nonblocking.spec")
	cs := topology.ClusterSpec{Nodes: 1}
	d := miniDemand(m, 1)
	d.Import[0], d.Export[0] = 0, 0
	cn, err := BuildCluster(m, p, cs, d, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := cn.Solve()
	if err != nil {
		t.Fatal(err)
	}
	single, err := Build(m, p, d.Node[0])
	if err != nil {
		t.Fatal(err)
	}
	ts, err := single.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(tc.Sec()-ts.Sec()) / ts.Sec(); rel > 2e-3 {
		t.Errorf("cluster(1) = %v, single-machine = %v (rel %v)", tc, ts, rel)
	}
	nt, err := cn.NetworkTime()
	if err != nil {
		t.Fatal(err)
	}
	if nt != 0 {
		t.Errorf("single node with no exchange has network time %v", nt)
	}
}

// TestClusterValidation exercises the construction error paths.
func TestClusterValidation(t *testing.T) {
	m, p, cs := loadClusterSpec(t, "cluster_nonblocking.spec")
	ok := miniDemand(m, cs.Nodes)

	bad := miniDemand(m, cs.Nodes)
	bad.Node = bad.Node[:1]
	if _, err := BuildCluster(m, p, cs, bad, ClusterOptions{}); err == nil {
		t.Error("accepted mismatched node demand count")
	}

	bad = miniDemand(m, cs.Nodes)
	bad.Export[0] = 0
	if _, err := BuildCluster(m, p, cs, bad, ClusterOptions{}); err == nil {
		t.Error("accepted exports < imports")
	}

	bad = miniDemand(m, cs.Nodes)
	bad.Import[1] = -1
	if _, err := BuildCluster(m, p, cs, bad, ClusterOptions{}); err == nil {
		t.Error("accepted negative import")
	}

	bad = miniDemand(m, cs.Nodes)
	bad.Node[0].SSDTotal = 0
	bad.Node[0].DRAM = nil
	if _, err := BuildCluster(m, p, cs, bad, ClusterOptions{}); err == nil {
		t.Error("accepted starved node")
	}

	csBad := cs
	csBad.NICAt = "nosuch"
	if _, err := BuildCluster(m, p, csBad, ok, ClusterOptions{NICOnGPUSocket: true}); err == nil {
		t.Error("accepted unknown NIC attach point")
	}

	// Infeasible at any horizon: import with no matching export capacity is
	// caught up front, but a NIC-less spec sneaking past Validate is not
	// constructible — exports over a zero-rate NIC never drain.
	csZero := cs
	csZero.NICBW = units.Bandwidth(1) // 1 B/s: feasible but absurdly slow
	cn, err := BuildCluster(m, p, csZero, ok, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	horizon, err := cn.Solve()
	if err != nil {
		t.Fatalf("1 B/s NIC should still be feasible: %v", err)
	}
	if horizon.Sec() < 1e9 {
		t.Errorf("2 GiB over 1 B/s solved in %v", horizon)
	}
}

// TestClusterEdgeBudget sanity-checks the bisector bookkeeping: the sum of
// fixed sink budgets equals the bisector's demand.
func TestClusterEdgeBudget(t *testing.T) {
	m, p, cs := loadClusterSpec(t, "cluster_oversub.spec")
	d := miniDemand(m, cs.Nodes)
	cn, err := BuildCluster(m, p, cs, d, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sinkBudget := 0.0
	for _, e := range cn.EdgeList() {
		if e.Kind == "fixed" && e.To == "t" {
			sinkBudget += e.Value
		}
	}
	want := 0.0
	for j, nd := range d.Node {
		want += nd.TotalDemand() + d.Import[j]
	}
	if math.Abs(sinkBudget-want) > 1 {
		t.Errorf("sink budgets %v, bisector demand %v", sinkBudget, want)
	}
	// Rate edges into the leaves exist for every NIC.
	nics := 0
	for _, e := range cn.EdgeList() {
		if e.Kind == "rate" && strings.Contains(e.From, "nic") && strings.Contains(e.To, "leaf") {
			nics++
		}
	}
	if want := cs.Nodes * cs.Defaults().NICsPerNode; nics != want {
		t.Errorf("%d NIC egress edges, want %d", nics, want)
	}
}
