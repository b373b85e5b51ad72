package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var allSolvers = []Solver{Dinic, EdmondsKarp, PushRelabel}

// classic CLRS-style network with known max flow 23.
func clrsNetwork() (*Graph, int, int, float64) {
	g := New(6)
	s, v1, v2, v3, v4, t := 0, 1, 2, 3, 4, 5
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v2, 10)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v3, t, 20)
	g.AddEdge(v4, t, 4)
	return g, s, t, 23
}

func TestMaxFlowClassic(t *testing.T) {
	for _, solver := range allSolvers {
		g, s, sink, want := clrsNetwork()
		got := g.MaxFlow(s, sink, solver)
		if math.Abs(got-want) > Eps {
			t.Errorf("%v: max flow = %v, want %v", solver, got, want)
		}
	}
}

func TestMaxFlowSingleEdge(t *testing.T) {
	for _, solver := range allSolvers {
		g := New(2)
		g.AddEdge(0, 1, 5)
		if got := g.MaxFlow(0, 1, solver); math.Abs(got-5) > Eps {
			t.Errorf("%v: got %v, want 5", solver, got)
		}
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	for _, solver := range allSolvers {
		g := New(4)
		g.AddEdge(0, 1, 5)
		g.AddEdge(2, 3, 5)
		if got := g.MaxFlow(0, 3, solver); got > Eps {
			t.Errorf("%v: got %v, want 0", solver, got)
		}
	}
}

func TestMaxFlowParallelPaths(t *testing.T) {
	// Two disjoint 3-hop paths, bottlenecks 2 and 7.
	for _, solver := range allSolvers {
		g := New(6)
		g.AddEdge(0, 1, 2)
		g.AddEdge(1, 2, 10)
		g.AddEdge(2, 5, 10)
		g.AddEdge(0, 3, 10)
		g.AddEdge(3, 4, 7)
		g.AddEdge(4, 5, 10)
		if got := g.MaxFlow(0, 5, solver); math.Abs(got-9) > Eps {
			t.Errorf("%v: got %v, want 9", solver, got)
		}
	}
}

func TestMaxFlowInfiniteVirtualEdges(t *testing.T) {
	// Source and sink attach via infinite virtual edges; the physical
	// bottleneck (12) must decide.
	for _, solver := range allSolvers {
		g := New(5)
		g.AddEdge(0, 1, Inf)
		g.AddEdge(1, 2, 12)
		g.AddEdge(2, 3, 30)
		g.AddEdge(3, 4, Inf)
		if got := g.MaxFlow(0, 4, solver); math.Abs(got-12) > Eps {
			t.Errorf("%v: got %v, want 12", solver, got)
		}
	}
}

func TestFlowConservationAndCapacity(t *testing.T) {
	for _, solver := range allSolvers {
		g, s, sink, _ := clrsNetwork()
		total := g.MaxFlow(s, sink, solver)
		checkConservation(t, g, s, sink, total)
	}
}

func checkConservation(t *testing.T, g *Graph, s, sink int, total float64) {
	t.Helper()
	net := make([]float64, g.N())
	for e := EdgeID(0); int(e) < 2*g.M(); e += 2 {
		u, v := g.Endpoints(e)
		f := g.Flow(e)
		if f < -Eps {
			t.Errorf("negative flow %v on edge %d", f, e)
		}
		if c := g.Capacity(e); !math.IsInf(c, 1) && f > c+Eps {
			t.Errorf("flow %v exceeds capacity %v on edge %d", f, c, e)
		}
		net[u] -= f
		net[v] += f
	}
	for v := 0; v < g.N(); v++ {
		want := 0.0
		switch v {
		case s:
			want = -total
		case sink:
			want = total
		}
		if math.Abs(net[v]-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("node %d: net flow %v, want %v", v, net[v], want)
		}
	}
}

func TestMinCutMatchesMaxFlow(t *testing.T) {
	g, s, sink, want := clrsNetwork()
	g.MaxFlow(s, sink, Dinic)
	edges, side := g.MinCut(s)
	if !side[s] {
		t.Fatal("source not on source side")
	}
	if side[sink] {
		t.Fatal("sink on source side")
	}
	sum := 0.0
	for _, e := range edges {
		sum += g.Capacity(e)
	}
	if math.Abs(sum-want) > Eps {
		t.Errorf("cut capacity %v, want %v", sum, want)
	}
}

func TestDecompose(t *testing.T) {
	g, s, sink, want := clrsNetwork()
	g.MaxFlow(s, sink, Dinic)
	paths := g.Decompose(s, sink)
	sum := 0.0
	for _, p := range paths {
		sum += p.Amount
		if p.Nodes[0] != s || p.Nodes[len(p.Nodes)-1] != sink {
			t.Errorf("path endpoints %v", p.Nodes)
		}
		if len(p.Edges) != len(p.Nodes)-1 {
			t.Errorf("path shape: %d edges, %d nodes", len(p.Edges), len(p.Nodes))
		}
		for i, e := range p.Edges {
			u, v := g.Endpoints(e)
			if u != p.Nodes[i] || v != p.Nodes[i+1] {
				t.Errorf("edge %d does not connect consecutive path nodes", e)
			}
		}
		if p.Amount <= 0 {
			t.Errorf("non-positive path amount %v", p.Amount)
		}
	}
	if math.Abs(sum-want) > 1e-6 {
		t.Errorf("decomposed total %v, want %v", sum, want)
	}
	if len(paths) > g.M() {
		t.Errorf("too many paths: %d > %d edges", len(paths), g.M())
	}
}

func randomNetwork(r *rand.Rand) (*Graph, int, int) {
	n := 4 + r.Intn(10)
	g := New(n)
	m := n + r.Intn(3*n)
	for i := 0; i < m; i++ {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, float64(1+r.Intn(50)))
	}
	return g, 0, n - 1
}

func TestSolversAgreeOnRandomNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		g, s, sink := randomNetwork(r)
		want := g.Clone().MaxFlow(s, sink, Dinic)
		for _, solver := range []Solver{EdmondsKarp, PushRelabel} {
			got := g.Clone().MaxFlow(s, sink, solver)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("iter %d: %v=%v, dinic=%v", i, solver, got, want)
			}
		}
	}
}

func TestConservationOnRandomNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		g, s, sink := randomNetwork(r)
		total := g.MaxFlow(s, sink, PushRelabel)
		checkConservation(t, g, s, sink, total)
	}
}

func TestMinCutEqualsFlowOnRandomNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		g, s, sink := randomNetwork(r)
		total := g.MaxFlow(s, sink, Dinic)
		edges, _ := g.MinCut(s)
		sum := 0.0
		for _, e := range edges {
			sum += g.Capacity(e)
		}
		if math.Abs(sum-total) > 1e-6*(1+total) {
			t.Fatalf("iter %d: cut %v != flow %v", i, sum, total)
		}
	}
}

func TestMaxFlowScalesLinearlyProperty(t *testing.T) {
	// Scaling all capacities by k scales max flow by k.
	f := func(seed int64, kRaw uint8) bool {
		k := float64(kRaw%7) + 0.5
		r := rand.New(rand.NewSource(seed))
		g, s, sink := randomNetwork(r)
		base := g.Clone().MaxFlow(s, sink, Dinic)
		scaled := g.Clone()
		for e := EdgeID(0); int(e) < 2*g.M(); e += 2 {
			scaled.SetCapacity(e, g.Capacity(e)*k)
		}
		got := scaled.MaxFlow(s, sink, Dinic)
		return math.Abs(got-k*base) <= 1e-6*(1+k*base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g, s, sink, want := clrsNetwork()
	c := g.Clone()
	c.MaxFlow(s, sink, Dinic)
	// Original has no flow recorded.
	for e := EdgeID(0); int(e) < 2*g.M(); e += 2 {
		if g.Flow(e) != 0 {
			t.Fatalf("clone mutated original edge %d", e)
		}
	}
	if got := g.MaxFlow(s, sink, Dinic); math.Abs(got-want) > Eps {
		t.Errorf("original flow %v, want %v", got, want)
	}
}

func TestAddNodeAndLabels(t *testing.T) {
	g := New(1)
	v := g.AddNode("gpu0")
	if v != 1 || g.N() != 2 {
		t.Fatalf("AddNode returned %d, N=%d", v, g.N())
	}
	if g.Label(v) != "gpu0" {
		t.Errorf("label = %q", g.Label(v))
	}
	g.SetLabel(0, "src")
	if g.Label(0) != "src" {
		t.Errorf("label = %q", g.Label(0))
	}
	g.AddEdge(0, 1, 3)
	if got := g.MaxFlow(0, 1, Dinic); math.Abs(got-3) > Eps {
		t.Errorf("flow %v", got)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative nodes", func() { New(-1) })
	mustPanic("edge out of range", func() { New(2).AddEdge(0, 5, 1) })
	mustPanic("negative capacity", func() { New(2).AddEdge(0, 1, -1) })
	mustPanic("nan capacity", func() { New(2).AddEdge(0, 1, math.NaN()) })
	mustPanic("s==t", func() {
		g := New(2)
		g.AddEdge(0, 1, 1)
		g.MaxFlow(0, 0, Dinic)
	})
	mustPanic("terminal range", func() {
		g := New(2)
		g.AddEdge(0, 1, 1)
		g.MaxFlow(0, 7, Dinic)
	})
}

// Regression: SetCapacity through a residual companion (odd id) used to
// silently corrupt the cap/resid invariant; it must panic instead.
func TestSetCapacityRejectsResidualEdge(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	g := New(2)
	e := g.AddEdge(0, 1, 5)
	mustPanic("odd id", func() { g.SetCapacity(e^1, 3) })
	mustPanic("out of range", func() { g.SetCapacity(EdgeID(99), 3) })
	mustPanic("negative id", func() { g.SetCapacity(EdgeID(-2), 3) })
	// The forward edge itself must still be writable.
	g.SetCapacity(e, 3)
	if g.Capacity(e) != 3 {
		t.Fatalf("capacity = %v, want 3", g.Capacity(e))
	}
}

func TestSolverString(t *testing.T) {
	if Dinic.String() != "dinic" || EdmondsKarp.String() != "edmonds-karp" || PushRelabel.String() != "push-relabel" {
		t.Error("solver names changed")
	}
	if Solver(9).String() != "solver(9)" {
		t.Error("unknown solver name")
	}
}

func TestResetAndRerun(t *testing.T) {
	g, s, sink, want := clrsNetwork()
	for i := 0; i < 3; i++ {
		if got := g.MaxFlow(s, sink, Dinic); math.Abs(got-want) > Eps {
			t.Fatalf("run %d: got %v", i, got)
		}
	}
}

func TestAddingEdgeNeverDecreasesFlowProperty(t *testing.T) {
	// Monotonicity: adding capacity anywhere can only help.
	r := rand.New(rand.NewSource(314))
	for trial := 0; trial < 60; trial++ {
		g, s, sink := randomNetwork(r)
		before := g.Clone().MaxFlow(s, sink, Dinic)
		aug := g.Clone()
		u, v := r.Intn(aug.N()), r.Intn(aug.N())
		if u == v {
			continue
		}
		aug.AddEdge(u, v, float64(1+r.Intn(40)))
		after := aug.MaxFlow(s, sink, Dinic)
		if after < before-1e-6 {
			t.Fatalf("trial %d: flow fell from %v to %v after adding an edge", trial, before, after)
		}
	}
}

func TestIncreasingCapacityNeverDecreasesFlowProperty(t *testing.T) {
	f := func(seed int64, extraRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g, s, sink := randomNetwork(r)
		if g.M() == 0 {
			return true
		}
		before := g.Clone().MaxFlow(s, sink, Dinic)
		e := EdgeID(2 * r.Intn(g.M()))
		boosted := g.Clone()
		boosted.SetCapacity(e, g.Capacity(e)+float64(extraRaw)+1)
		after := boosted.MaxFlow(s, sink, Dinic)
		return after >= before-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBisectionMonotoneInDemandProperty(t *testing.T) {
	// A larger demand never completes sooner.
	f := func(seed int64, d1Raw, d2Raw uint8) bool {
		d1 := float64(d1Raw%100) + 1
		d2 := d1 + float64(d2Raw%100) + 1
		build := func(demand float64) (*TimeBisector, error) {
			g := New(3)
			e1 := g.AddEdge(0, 1, 0)
			e2 := g.AddEdge(1, 2, 0)
			b := NewTimeBisector(g, 0, 2, demand)
			b.AddRateEdge(e1, 7)
			b.AddFixedEdge(e2, demand)
			return b, nil
		}
		b1, _ := build(d1)
		b2, _ := build(d2)
		t1, err1 := b1.MinTime()
		t2, err2 := b2.MinTime()
		if err1 != nil || err2 != nil {
			return false
		}
		return t2 >= t1*(1-1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Regression: push–relabel saturates infinite source arcs with the total
// finite capacity of the graph. On networks mixing ~1e10 capacities with
// near-Eps ones, returning that huge excess across the infinite arc rounds
// at ulp(1e10) ≈ 1e-5, annihilating small amounts from the source arc's
// record but not from downstream edges — the terminal "flow" violated
// conservation at internal nodes by several Eps. The rebalance second phase
// repairs the edge bookkeeping; this network (found by the differential
// fuzzer, seed 195) reproduced the stranding.
func TestPushRelabelPreflowConservation(t *testing.T) {
	build := func() *Graph {
		g := New(12)
		g.AddEdge(0, 2, Inf)
		g.AddEdge(0, 3, 2.535364897054643e-06)
		g.AddEdge(2, 4, 7.867444635905543)
		g.AddEdge(2, 5, 20.55773233823611)
		g.AddEdge(3, 4, 84.74226788907367)
		g.AddEdge(3, 5, 8.569850121189482e+10)
		g.AddEdge(4, 6, 82.71214557085904)
		g.AddEdge(4, 7, 14.544122502422377)
		g.AddEdge(4, 7, 12.239377229854673)
		g.AddEdge(5, 6, 4.455243879174475e+10)
		g.AddEdge(5, 7, 84.88597237353588)
		g.AddEdge(6, 8, 9.8485983136785)
		g.AddEdge(6, 9, 3.500149582370192e+10)
		g.AddEdge(7, 11, 2.651265309570906)
		g.AddEdge(8, 10, 7.977778676014446e-06)
		g.AddEdge(9, 10, 81.8638921268878)
		g.AddEdge(9, 11, 33.54809575920687)
		return g
	}
	s, sink := 0, 1 // the sink is unreachable: the maximum flow is zero
	for _, sv := range []Solver{Dinic, EdmondsKarp, PushRelabel} {
		g := build()
		v := g.MaxFlow(s, sink, sv)
		if v > Eps {
			t.Errorf("%v: value %v, want 0 (sink unreachable)", sv, v)
		}
		in := make([]float64, g.N())
		out := make([]float64, g.N())
		for i := 0; i < g.M(); i++ {
			e := EdgeID(2 * i)
			u, w := g.Endpoints(e)
			f := g.Flow(e)
			out[u] += f
			in[w] += f
		}
		for nd := 0; nd < g.N(); nd++ {
			if nd == s || nd == sink {
				continue
			}
			if d := math.Abs(in[nd] - out[nd]); d > Eps {
				t.Errorf("%v: conservation violated at node %d: in %v, out %v", sv, nd, in[nd], out[nd])
			}
		}
	}
}
