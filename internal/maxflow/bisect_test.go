package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

// pipeNetwork: s -> a (rate R) -> t (demand D). Min time = D/R.
func TestBisectorSinglePipe(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)   // 10 bytes/s
	b.AddFixedEdge(e2, 100) // 100 bytes demand
	got, err := b.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12*10 {
		t.Errorf("min time %v, want 10", got)
	}
	thr, err := b.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(thr-10) > 1e-12*10 {
		t.Errorf("throughput %v, want 10", thr)
	}
}

// Two GPUs with unequal demands share an upstream bottleneck:
// s -> hub (rate 10) -> g1 (demand 30), hub -> g2 (demand 70).
// All demand moves through the hub: min time = 100/10 = 10.
func TestBisectorSharedBottleneck(t *testing.T) {
	g := New(5)
	s, hub, g1, g2, sink := 0, 1, 2, 3, 4
	eHub := g.AddEdge(s, hub, 0)
	l1 := g.AddEdge(hub, g1, 0)
	l2 := g.AddEdge(hub, g2, 0)
	d1 := g.AddEdge(g1, sink, 0)
	d2 := g.AddEdge(g2, sink, 0)
	b := NewTimeBisector(g, s, sink, 100)
	b.AddRateEdge(eHub, 10)
	b.AddRateEdge(l1, 100)
	b.AddRateEdge(l2, 100)
	b.AddFixedEdge(d1, 30)
	b.AddFixedEdge(d2, 70)
	got, err := b.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12*10 {
		t.Errorf("min time %v, want 10", got)
	}
}

// Load imbalance: one GPU has a slow private link, so completion time is
// dominated by the straggler even though aggregate bandwidth is plentiful.
func TestBisectorStragglerDominates(t *testing.T) {
	g := New(4)
	s, g1, g2, sink := 0, 1, 2, 3
	f := g.AddEdge(s, g1, 0)
	sl := g.AddEdge(s, g2, 0)
	d1 := g.AddEdge(g1, sink, 0)
	d2 := g.AddEdge(g2, sink, 0)
	b := NewTimeBisector(g, s, sink, 200)
	b.AddRateEdge(f, 100) // fast link
	b.AddRateEdge(sl, 1)  // slow link
	b.AddFixedEdge(d1, 100)
	b.AddFixedEdge(d2, 100)
	got, err := b.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-100) > 1e-12*100 {
		t.Errorf("min time %v, want 100 (straggler-bound)", got)
	}
}

func TestBisectorInfeasible(t *testing.T) {
	// Demand on a GPU with no incoming path.
	g := New(3)
	d := g.AddEdge(1, 2, 0) // node 1 unreachable from 0
	b := NewTimeBisector(g, 0, 2, 50)
	b.AddFixedEdge(d, 50)
	if _, err := b.MinTime(); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestBisectorZeroDemand(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 0)
	b := NewTimeBisector(g, 0, 1, 0)
	got, err := b.MinTime()
	if err != nil || got != 0 {
		t.Fatalf("got (%v, %v), want (0, nil)", got, err)
	}
}

func TestBisectorFeasibleLeavesFlow(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)
	if !b.Feasible(20) {
		t.Fatal("t=20 should be feasible")
	}
	if f := g.Flow(e2); math.Abs(f-100) > 1e-6 {
		t.Errorf("flow on demand edge %v, want 100", f)
	}
	if b.Feasible(5) {
		t.Fatal("t=5 should be infeasible")
	}
}

// Property: MinTime is the threshold — slightly above feasible, slightly
// below infeasible — on random two-tier networks.
func TestBisectorThresholdProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		nStore := 1 + r.Intn(3)
		nGPU := 1 + r.Intn(3)
		g := New(2 + nStore + nGPU)
		s := 0
		sink := 1 + nStore + nGPU
		b := NewTimeBisector(g, s, sink, 0)
		for j := 0; j < nStore; j++ {
			e := g.AddEdge(s, 1+j, 0)
			b.AddRateEdge(e, float64(1+r.Intn(20)))
		}
		total := 0.0
		for k := 0; k < nGPU; k++ {
			gv := 1 + nStore + k
			for j := 0; j < nStore; j++ {
				if r.Intn(2) == 0 || j == k%nStore {
					e := g.AddEdge(1+j, gv, 0)
					b.AddRateEdge(e, float64(1+r.Intn(20)))
				}
			}
			d := float64(1 + r.Intn(100))
			e := g.AddEdge(gv, sink, 0)
			b.AddFixedEdge(e, d)
			total += d
		}
		b.Demand = total
		tm, err := b.MinTime()
		if err != nil {
			continue // disconnected instance; fine
		}
		if !b.Feasible(tm * 1.01) {
			t.Fatalf("iter %d: t*1.01 infeasible (t=%v)", i, tm)
		}
		if tm > 1e-6 && b.Feasible(tm*0.98) {
			t.Fatalf("iter %d: t*0.98 feasible (t=%v)", i, tm)
		}
	}
}

func TestBisectorInvalidInputsPanic(t *testing.T) {
	g := New(2)
	e := g.AddEdge(0, 1, 0)
	b := NewTimeBisector(g, 0, 1, 1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("negative rate", func() { b.AddRateEdge(e, -1) })
	mustPanic("nan fixed", func() { b.AddFixedEdge(e, math.NaN()) })
	// Regression: registering a residual companion (odd id) used to corrupt
	// residual invariants on the first apply(); it must panic up front.
	mustPanic("odd rate edge", func() { b.AddRateEdge(e^1, 1) })
	mustPanic("odd fixed edge", func() { b.AddFixedEdge(e^1, 1) })
	mustPanic("rate edge out of range", func() { b.AddRateEdge(EdgeID(42), 1) })
}

// Regression: Feasible(t<=0) used to return without touching the graph,
// leaving capacities and flow from the previous probe in place while
// reporting on the zero-demand case — subsequent Flow() reads were garbage.
func TestBisectorZeroHorizonClearsStaleState(t *testing.T) {
	g := New(3)
	e1 := g.AddEdge(0, 1, 0)
	e2 := g.AddEdge(1, 2, 0)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(e1, 10)
	b.AddFixedEdge(e2, 100)
	if !b.Feasible(20) {
		t.Fatal("t=20 should be feasible")
	}
	if f := g.Flow(e1); f < 99 {
		t.Fatalf("probe at t=20 should leave flow, got %v", f)
	}
	if b.Feasible(0) {
		t.Fatal("t=0 must be infeasible for positive demand")
	}
	if f := g.Flow(e1); f != 0 {
		t.Errorf("stale flow %v on rate edge after Feasible(0), want 0", f)
	}
	if f := g.Flow(e2); f != 0 {
		t.Errorf("stale flow %v on fixed edge after Feasible(0), want 0", f)
	}
	if c := g.Capacity(e1); c != 0 {
		t.Errorf("rate edge capacity %v at horizon 0, want 0", c)
	}
	if c := g.Capacity(e2); c != 100 {
		t.Errorf("fixed edge capacity %v at horizon 0, want 100", c)
	}

	// Zero demand at zero horizon is feasible, and equally clean.
	b0 := NewTimeBisector(g, 0, 2, 0)
	b0.AddRateEdge(e1, 10)
	b0.AddFixedEdge(e2, 0)
	if !b0.Feasible(0) {
		t.Fatal("zero demand must be feasible at t=0")
	}
	if f := g.Flow(e1); f != 0 {
		t.Errorf("flow %v after zero-demand probe, want 0", f)
	}
}
