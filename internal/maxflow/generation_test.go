package maxflow

import "testing"

// TestWarmStateStaleAfterExternalShrink reproduces the warm-start staleness
// bug: an edge capacity shrunk directly on the graph (bypassing the
// bisector, no InvalidateWarm call) between probes. The monotonicity check
// only inspects registered edges, so before the generation counter the
// bisector warm-started from a flow that SetCapacity had already destroyed
// and reported a horizon feasible that the cold truth rejects.
func TestWarmStateStaleAfterExternalShrink(t *testing.T) {
	g := New(3) // 0 = source, 1 = relay, 2 = sink
	sa := g.AddEdge(0, 1, 0)
	at := g.AddEdge(1, 2, 100)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(sa, 100)

	if !b.Feasible(1) {
		t.Fatal("horizon 1 must be feasible before the shrink")
	}
	// Shrink the unregistered relay edge directly. This both invalidates
	// the saved warm flow (SetCapacity clears the edge's flow, so the 100
	// bytes recorded as delivered are fiction) and is invisible to the
	// registered-edge monotonicity check.
	g.SetCapacity(at, 10)
	if b.Feasible(2) {
		t.Fatal("stale warm state: horizon 2 reported feasible after the relay shrank to 10 B/s-equivalent")
	}

	// Cold reference agrees.
	cold := NewTimeBisector(g.Clone(), 0, 2, 100)
	cold.AddRateEdge(sa, 100)
	cold.DisableWarmStart = true
	if cold.Feasible(2) {
		t.Fatal("cold reference disagrees: horizon 2 should be infeasible")
	}

	// The warm machinery must re-engage after the self-detected
	// invalidation: the next growing-horizon probe warm-starts again.
	warmBefore := b.WarmStarts
	if b.Feasible(3) {
		t.Fatal("horizon 3 still infeasible with the relay at 10")
	}
	if b.WarmStarts != warmBefore+1 {
		t.Fatalf("warm start did not re-engage after invalidation: WarmStarts %d -> %d", warmBefore, b.WarmStarts)
	}
}

// TestGenerationSemantics pins which operations advance the generation
// counter and which leave it alone.
func TestGenerationSemantics(t *testing.T) {
	g := New(2)
	last := g.Generation()
	step := func(name string, want bool, f func()) {
		t.Helper()
		f()
		moved := g.Generation() != last
		if moved != want {
			t.Fatalf("%s: generation moved=%v, want %v", name, moved, want)
		}
		last = g.Generation()
	}
	var e EdgeID
	step("AddEdge", true, func() { e = g.AddEdge(0, 1, 5) })
	step("Capacity read", false, func() { _ = g.Capacity(e) })
	step("Flow read", false, func() { _ = g.Flow(e) })
	step("SetCapacity", true, func() { g.SetCapacity(e, 7) })
	step("RaiseCapacity grow", true, func() { g.RaiseCapacity(e, 9) })
	step("RaiseCapacity no-op", false, func() { g.RaiseCapacity(e, 9) })
	step("MaxFlow", true, func() { g.MaxFlow(0, 1, Dinic) })
	step("Augment", true, func() { g.Augment(0, 1, Dinic) })
	step("Reset", true, func() { g.Reset() })
	step("Clear", true, func() { g.Clear() })

	// Clone carries the source's generation.
	src := New(2)
	src.AddEdge(0, 1, 3)
	if c := src.Clone(); c.Generation() != src.Generation() {
		t.Fatalf("Clone generation %d != source %d", c.Generation(), src.Generation())
	}
}
