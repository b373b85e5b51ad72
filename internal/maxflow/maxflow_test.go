package maxflow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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

func TestMinCutMatchesMaxFlow(t *testing.T) {
	g, s, sink, want := clrsNetwork()
	g.MaxFlow(s, sink)
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
	g.MaxFlow(s, sink)
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

func TestMinCutEqualsFlowOnRandomNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		g, s, sink := randomNetwork(r)
		total := g.MaxFlow(s, sink)
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
		base := g.Clone().MaxFlow(s, sink)
		scaled := g.Clone()
		for e := EdgeID(0); int(e) < 2*g.M(); e += 2 {
			scaled.SetCapacity(e, g.Capacity(e)*k)
		}
		got := scaled.MaxFlow(s, sink)
		return math.Abs(got-k*base) <= 1e-6*(1+k*base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g, s, sink, want := clrsNetwork()
	c := g.Clone()
	c.MaxFlow(s, sink)
	// Original has no flow recorded.
	for e := EdgeID(0); int(e) < 2*g.M(); e += 2 {
		if g.Flow(e) != 0 {
			t.Fatalf("clone mutated original edge %d", e)
		}
	}
	if got := g.MaxFlow(s, sink); math.Abs(got-want) > Eps {
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
	if got := g.MaxFlow(0, 1); math.Abs(got-3) > Eps {
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
		g.MaxFlow(0, 0)
	})
	mustPanic("terminal range", func() {
		g := New(2)
		g.AddEdge(0, 1, 1)
		g.MaxFlow(0, 7)
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

func TestResetAndRerun(t *testing.T) {
	g, s, sink, want := clrsNetwork()
	for i := 0; i < 3; i++ {
		if got := g.MaxFlow(s, sink); math.Abs(got-want) > Eps {
			t.Fatalf("run %d: got %v", i, got)
		}
	}
}

func TestAddingEdgeNeverDecreasesFlowProperty(t *testing.T) {
	// Monotonicity: adding capacity anywhere can only help.
	r := rand.New(rand.NewSource(314))
	for trial := 0; trial < 60; trial++ {
		g, s, sink := randomNetwork(r)
		before := g.Clone().MaxFlow(s, sink)
		aug := g.Clone()
		u, v := r.Intn(aug.N()), r.Intn(aug.N())
		if u == v {
			continue
		}
		aug.AddEdge(u, v, float64(1+r.Intn(40)))
		after := aug.MaxFlow(s, sink)
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
		before := g.Clone().MaxFlow(s, sink)
		e := EdgeID(2 * r.Intn(g.M()))
		boosted := g.Clone()
		boosted.SetCapacity(e, g.Capacity(e)+float64(extraRaw)+1)
		after := boosted.MaxFlow(s, sink)
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
