package maxflow

// Exports for the external test package (maxflow_test), which imports
// internal/verify for flow certificates and so cannot live in this one.

// Solver is one max-flow algorithm under differential test.
type Solver struct {
	Name  string
	Solve func(g *Graph, s, t int) float64
}

func (s Solver) String() string { return s.Name }

// Solvers lists the production Dinic (MaxFlow) first, then the
// Edmonds–Karp and push–relabel oracles of oracle_test.go, which clear any
// prior flow first as MaxFlow does.
var Solvers = []Solver{
	{"dinic", (*Graph).MaxFlow},
	{"edmonds-karp", func(g *Graph, s, t int) float64 { g.Reset(); return g.edmondsKarp(s, t) }},
	{"push-relabel", func(g *Graph, s, t int) float64 { g.Reset(); return g.pushRelabel(s, t) }},
}

// Dinic and PushRelabel name single entries of Solvers.
var Dinic, PushRelabel = Solvers[0], Solvers[2]

// ClassicNetwork is the CLRS network with known max flow 23.
var ClassicNetwork = clrsNetwork

// SmallRandomNetwork is a sparse random graph of 4–13 nodes with integer
// capacities.
var SmallRandomNetwork = randomNetwork
