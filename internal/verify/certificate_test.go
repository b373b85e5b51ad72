package verify

import (
	"math"
	"strings"
	"testing"

	"moment/internal/maxflow"
)

// clrs26 is the CLRS figure 26.1 network with max flow 23.
func clrs26() (*maxflow.Graph, int, int, float64) {
	g := maxflow.New(6)
	s, t := 0, 5
	g.AddEdge(s, 1, 16)
	g.AddEdge(s, 2, 13)
	g.AddEdge(1, 3, 12)
	g.AddEdge(2, 1, 4)
	g.AddEdge(2, 4, 14)
	g.AddEdge(3, 2, 9)
	g.AddEdge(3, t, 20)
	g.AddEdge(4, 3, 7)
	g.AddEdge(4, t, 4)
	return g, s, t, 23
}

func TestCheckFlowDetectsNonMaximalFlow(t *testing.T) {
	g, s, sink, _ := clrs26()
	g.MaxFlow(s, sink)
	// A fresh bypass edge reopens an augmenting path: the recorded flow is
	// still feasible but no longer maximum, so the duality check must fail.
	g.AddEdge(s, sink, 5)
	if _, err := CheckFlow(g, s, sink); err == nil {
		t.Fatal("non-maximal flow certified")
	} else if !strings.Contains(err.Error(), "augmenting") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestCheckFlowDetectsConservationViolation(t *testing.T) {
	g := maxflow.New(3)
	e1 := g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	g.MaxFlow(0, 2)
	// Clearing flow on only the first hop strands 10 units at node 1.
	g.SetCapacity(e1, 10)
	if _, err := CheckFlow(g, 0, 2); err == nil {
		t.Fatal("conservation violation certified")
	} else if !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestCheckFlowZeroFlow(t *testing.T) {
	// Disconnected network: the zero flow is maximal and must certify.
	g := maxflow.New(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	g.MaxFlow(0, 3)
	cert, err := CheckFlow(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Value != 0 {
		t.Errorf("value %v, want 0", cert.Value)
	}
}

func TestCheckFlowInfiniteVirtualArcs(t *testing.T) {
	// s -Inf-> a -7-> b -Inf-> t: the finite middle edge bounds the flow.
	g := maxflow.New(4)
	g.AddEdge(0, 1, maxflow.Inf)
	g.AddEdge(1, 2, 7)
	g.AddEdge(2, 3, maxflow.Inf)
	v := g.MaxFlow(0, 3)
	cert, err := CheckFlow(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-7) > 1e-9 || math.Abs(cert.Value-7) > 1e-9 {
		t.Errorf("value %v / %v, want 7", v, cert.Value)
	}
}

func TestCheckDecomposeRoundTrip(t *testing.T) {
	g, s, sink, want := clrs26()
	v := g.MaxFlow(s, sink)
	if err := CheckDecompose(g, s, sink, v); err != nil {
		t.Fatal(err)
	}
	if err := CheckDecompose(g, s, sink, want+5); err == nil {
		t.Fatal("wrong value accepted by decomposition round trip")
	}
}
