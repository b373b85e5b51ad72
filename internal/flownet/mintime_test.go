package flownet_test

import (
	"testing"

	"moment/internal/flownet"
	"moment/internal/maxflow"
	"moment/internal/placement"
	"moment/internal/topology"
)

// bisectOracle is the time bisection MinTime replaced (the same oracle as
// maxflow's tests): double a horizon until the max flow Feasible leaves
// delivers all of D, then halve [lo, hi] until hi−lo ≤ tol·hi.
func bisectOracle(b *maxflow.TimeBisector, tol float64) (lo, hi float64) {
	delivers := func(t float64) bool {
		b.Feasible(t)
		in := 0.0
		for e := maxflow.EdgeID(0); int(e) < 2*b.G.M(); e += 2 {
			if _, v := b.G.Endpoints(e); v == b.T {
				in += b.G.Flow(e)
			}
		}
		return in >= b.Demand
	}
	hi = 1
	for !delivers(hi) {
		lo, hi = hi, 2*hi
	}
	for hi-lo > tol*hi {
		if mid := (lo + hi) / 2; delivers(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// checkMinTime solves b and holds the answer to the min-time contract:
// within 1e-12 relative of the oracle's final bracket at tol 1e-9,
// feasible, and reached in at most 8 max-flow solves.
func checkMinTime(t *testing.T, name string, b *maxflow.TimeBisector) {
	t.Helper()
	got, err := b.MinTime()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	solves := b.Probes
	lo, hi := bisectOracle(b, 1e-9)
	if got < lo*(1-1e-12) || got > hi*(1+1e-12) {
		t.Errorf("%s: MinTime %.17g outside the oracle bracket [%.17g, %.17g]", name, got, lo, hi)
	}
	if !b.Feasible(got) {
		t.Errorf("%s: MinTime %.17g is not feasible", name, got)
	}
	if solves > 8 {
		t.Errorf("%s: MinTime took %d solves, want <= 8", name, solves)
	}
}

// demands returns a healthy demand for m (100 GB per GPU, 10 GB of it
// peer-served from each GPU cache, 25 GB per socket from DRAM, the rest
// from the SSD pool) and a faulted one: the same bytes with per-SSD
// budgets pinned as a fail-stop re-bin leaves them — SSD 0 serves nothing
// and the survivors split its share.
func demands(m *topology.Machine) (healthy, faulted *flownet.Demand) {
	const gb = 1e9
	healthy = &flownet.Demand{DRAM: map[string]float64{}}
	for i := 0; i < m.NumGPUs; i++ {
		healthy.PerGPU = append(healthy.PerGPU, 100*gb)
		healthy.HBMPeer = append(healthy.HBMPeer, 10*gb)
	}
	rcs := m.RootComplexes()
	for _, rc := range rcs {
		healthy.DRAM[rc] = 25 * gb
	}
	healthy.SSDTotal = float64(m.NumGPUs)*90*gb - float64(len(rcs))*25*gb
	faulted = &flownet.Demand{PerGPU: healthy.PerGPU, HBMPeer: healthy.HBMPeer, DRAM: healthy.DRAM,
		SSDPer: make([]float64, m.NumSSDs)}
	for i := 1; i < m.NumSSDs; i++ {
		faulted.SSDPer[i] = healthy.SSDTotal / float64(m.NumSSDs-1)
	}
	return healthy, faulted
}

// TestMinTimeMatchesBisection is the min-time differential on the
// planner's real networks: every deduped candidate of machines A and B
// under a healthy and a faulted demand, and the cluster testdata specs.
func TestMinTimeMatchesBisection(t *testing.T) {
	for name, m := range map[string]*topology.Machine{"A": topology.MachineA(), "B": topology.MachineB()} {
		all, err := placement.Enumerate(m)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := placement.Dedupe(m, all)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]int{"A": 23, "B": 144}[name]; len(cands) != want {
			t.Fatalf("machine %s: %d candidates, want %d", name, len(cands), want)
		}
		healthy, faulted := demands(m)
		for _, p := range cands {
			for dn, d := range map[string]*flownet.Demand{"healthy": healthy, "faulted": faulted} {
				n, err := flownet.Build(m, p, d)
				if err != nil {
					t.Fatal(err)
				}
				checkMinTime(t, name+"/"+p.Name+"/"+dn, flownet.Bisector(n))
			}
		}
	}
	for _, tc := range []struct {
		spec string
		opts flownet.ClusterOptions
	}{
		{"cluster_nonblocking.spec", flownet.ClusterOptions{}},
		{"cluster_oversub.spec", flownet.ClusterOptions{}},
		{"cluster_oversub.spec", flownet.ClusterOptions{NICOnGPUSocket: true}},
	} {
		m, p, cs := flownet.LoadClusterSpec(t, tc.spec)
		cn, err := flownet.BuildCluster(m, p, cs, flownet.MiniDemand(m, cs.Nodes), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		checkMinTime(t, tc.spec, flownet.ClusterBisector(cn))
	}
}
