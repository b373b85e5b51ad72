package maxflow

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrInfeasible is returned when no horizon can satisfy the demand (some
// demand is disconnected from the source, or a fixed edge caps it).
var ErrInfeasible = errors.New("maxflow: demand unsatisfiable at any horizon")

// TimeBisector finds the minimum wall-clock time T at which a set of byte
// demands can be routed through a bandwidth-constrained network — the
// quantity the paper's "time-bisection Ford–Fulkerson" (§3.2, Problem
// Solving) approximates. The type keeps the paper's name; MinTime computes
// T exactly.
//
// Edge capacities come in two flavors:
//   - rate edges: physical links whose capacity is a bandwidth; at horizon T
//     they can carry rate·T bytes;
//   - fixed edges: byte budgets independent of T (per-GPU demand arcs into
//     the sink, or per-storage supply arcs out of the source).
//
// Edges registered as neither keep the capacity set on the graph and count
// as fixed. Feasible(T) asks whether max-flow at horizon T moves all Demand
// bytes. Every s–t cut C bounds that flow by T·R(C) + F(C), where R(C) is
// the rate and F(C) the fixed capacity crossing C, so the minimum time is
// T* = max over cuts C of (D − F(C)) / R(C). MinTime reaches it by Newton
// steps on min cuts.
type TimeBisector struct {
	G      *Graph
	S, T   int
	Demand float64 // total bytes that must arrive at the sink

	// Ctx, when non-nil, lets an abandoned caller stop MinTime early: it
	// checks the context before every max-flow solve and returns the
	// context's error once it is done. A single solve on these networks is
	// microseconds, so cancellation latency is one solve. Cleared by Reinit
	// (a rebound bisector serves a new caller).
	Ctx context.Context

	rateEdges  []EdgeID
	rates      []float64
	fixedEdges []EdgeID
	fixed      []float64

	// Probes counts max-flow solves and Iterations counts Newton steps of
	// the last MinTime; both reset at the start of each MinTime. Plain ints:
	// bisectors are not shared across goroutines, and callers report them
	// to an observer after the solve rather than paying atomics inside it.
	Probes     int
	Iterations int

	// Cut-reading scratch, reused across MinTime calls: rateOf[e/2] is the
	// rate of forward edge e if it is a registered rate edge and -1
	// otherwise; side and queue hold the residual search from S.
	rateOf []float64
	side   []bool
	queue  []int
}

// NewTimeBisector wraps g for min-time search between terminals s and t.
func NewTimeBisector(g *Graph, s, t int, demand float64) *TimeBisector {
	return &TimeBisector{G: g, S: s, T: t, Demand: demand}
}

// AddRateEdge registers edge e as a bandwidth edge with the given rate
// (bytes/second). Infinite rates stay infinite at every horizon.
func (b *TimeBisector) AddRateEdge(e EdgeID, rate float64) {
	b.G.checkForwardEdge(e, "AddRateEdge")
	if rate < 0 || math.IsNaN(rate) {
		panic(fmt.Sprintf("maxflow: invalid rate %v", rate))
	}
	b.rateEdges = append(b.rateEdges, e)
	b.rates = append(b.rates, rate)
}

// AddFixedEdge registers edge e as a horizon-independent byte budget.
func (b *TimeBisector) AddFixedEdge(e EdgeID, bytes float64) {
	b.G.checkForwardEdge(e, "AddFixedEdge")
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("maxflow: invalid byte budget %v", bytes))
	}
	b.fixedEdges = append(b.fixedEdges, e)
	b.fixed = append(b.fixed, bytes)
}

// Reinit rebinds the bisector to a rebuilt graph, dropping every registered
// edge and counter while retaining slice capacity — the bisector half of
// the graph arena reuse API (see Graph.Clear).
func (b *TimeBisector) Reinit(g *Graph, s, t int, demand float64) {
	b.G, b.S, b.T, b.Demand = g, s, t, demand
	b.Ctx = nil
	b.rateEdges = b.rateEdges[:0]
	b.rates = b.rates[:0]
	b.fixedEdges = b.fixedEdges[:0]
	b.fixed = b.fixed[:0]
	b.Probes, b.Iterations = 0, 0
}

// apply sets all capacities for horizon t, clearing any flow on them.
func (b *TimeBisector) apply(t float64) {
	for i, e := range b.rateEdges {
		c := b.rates[i]
		if !math.IsInf(c, 1) {
			c *= t
		}
		b.G.SetCapacity(e, c)
	}
	for i, e := range b.fixedEdges {
		b.G.SetCapacity(e, b.fixed[i])
	}
}

// Feasible reports whether all demand can be delivered within horizon t
// (negative horizons count as 0), leaving the corresponding maximum flow
// on the graph. Each call is one cold max-flow solve.
func (b *TimeBisector) Feasible(t float64) bool {
	b.Probes++
	b.apply(max(t, 0))
	return b.G.MaxFlow(b.S, b.T) >= b.Demand-relEps(b.Demand)
}

func relEps(v float64) float64 {
	return math.Max(Eps, 1e-9*math.Abs(v))
}

// canceled returns the context's error once Ctx is done, nil otherwise
// (including when no context is attached).
func (b *TimeBisector) canceled() error {
	if b.Ctx == nil {
		return nil
	}
	select {
	case <-b.Ctx.Done():
		return b.Ctx.Err()
	default:
		return nil
	}
}

// MinTime returns the smallest horizon at which the demand is feasible,
// leaving a feasible flow for it on the graph.
//
// It solves at t = 0, then repeats a Newton step: read the min cut C of the
// flow on the graph and move to t = (D − F(C)) / R(C), the horizon at which
// C stops binding. Every cut bounds the flow, so each iterate is a lower
// bound on T* and the first feasible one is T* itself. An infeasible
// iterate's min cut carries less than D at t, so the next iterate is
// strictly larger; no cut repeats, and the loop ends within a few solves.
// A cut with no rate edge (R = 0) caps the flow below D at every horizon:
// ErrInfeasible.
func (b *TimeBisector) MinTime() (float64, error) {
	b.Probes, b.Iterations = 0, 0
	b.indexRates()
	t := 0.0
	for {
		if err := b.canceled(); err != nil {
			return 0, err
		}
		if b.Feasible(t) {
			return t, nil
		}
		next, ok := b.step()
		if !ok {
			return 0, ErrInfeasible
		}
		if !(next > t) {
			return 0, fmt.Errorf("maxflow: min-time iterate %v did not rise above %v", next, t)
		}
		b.Iterations++
		t = next
	}
}

// indexRates fills rateOf from the registered rate edges.
func (b *TimeBisector) indexRates() {
	b.rateOf = resize(b.rateOf, b.G.M())
	for i := range b.rateOf {
		b.rateOf[i] = -1
	}
	for i, e := range b.rateEdges {
		b.rateOf[e/2] = b.rates[i]
	}
}

// step reads the min cut of the flow on the graph (the nodes reachable
// from S in the residual graph) and returns the Newton step (D − F) / R,
// where R sums the rates of the crossing rate edges and F the capacity of
// every other crossing edge; ok is false when R = 0. A crossing edge is
// saturated, so no rate edge of infinite rate can cross. D − F is summed
// with compensation and the quotient corrected by its remainder, so the
// step is within an ulp of the exact ratio of those sums.
func (b *TimeBisector) step() (next float64, ok bool) {
	g := b.G
	b.side = resize(b.side, g.n)
	b.queue = g.reach(b.S, b.side, b.queue)
	rate := 0.0
	num, lost := b.Demand, 0.0 // D − F as an unevaluated sum num + lost
	for e := 0; e < len(g.to); e += 2 {
		if !b.side[g.to[e^1]] || b.side[g.to[e]] {
			continue
		}
		if r := b.rateOf[e/2]; r >= 0 {
			rate += r
			continue
		}
		// Neumaier's two-sum: lost gathers the rounding error of num.
		x, sum := -g.cap[e], num-g.cap[e]
		if math.Abs(num) >= math.Abs(x) {
			lost += (num - sum) + x
		} else {
			lost += (x - sum) + num
		}
		num = sum
	}
	if rate <= 0 {
		return 0, false
	}
	q := num / rate
	return q + (math.FMA(-q, rate, num)+lost)/rate, true
}

// Throughput returns demand/minTime in bytes/second, the aggregate delivery
// rate the paper reports as a placement candidate's predicted throughput.
func (b *TimeBisector) Throughput() (float64, error) {
	t, err := b.MinTime()
	if err != nil {
		return 0, err
	}
	if t == 0 {
		return math.Inf(1), nil
	}
	return b.Demand / t, nil
}

// resize returns s with length n, reusing its backing array when large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
