package maxflow

// Reference max-flow solvers, kept as test oracles for Dinic (MaxFlow):
// Edmonds–Karp and FIFO push–relabel with the gap heuristic. They answer
// the same question by different means, so the differential tests hold
// Dinic's value, certificate and conservation to theirs.

import "math"

func (g *Graph) edmondsKarp(s, t int) float64 {
	total := 0.0
	parent := make([]EdgeID, g.n)
	queue := make([]int, 0, g.n)
	for {
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = -2
		queue = append(queue[:0], s)
		found := false
	bfs:
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.head[u] {
				v := int(g.to[e])
				if parent[v] == -1 && g.resid[e] > Eps {
					parent[v] = e
					if v == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		if !found {
			return total
		}
		// Bottleneck along the path.
		bottleneck := Inf
		for v := t; v != s; {
			e := parent[v]
			if g.resid[e] < bottleneck {
				bottleneck = g.resid[e]
			}
			v, _ = g.Endpoints(e)
		}
		for v := t; v != s; {
			e := parent[v]
			g.resid[e] -= bottleneck
			g.resid[e^1] += bottleneck
			v, _ = g.Endpoints(e)
		}
		g.stats.AugmentingPaths++
		total += bottleneck
	}
}

func (g *Graph) pushRelabel(s, t int) float64 {
	n := g.n
	height := make([]int, n)
	excess := make([]float64, n)
	count := make([]int, 2*n+1) // nodes at each height, for the gap heuristic
	inQueue := make([]bool, n)
	queue := make([]int, 0, n)

	height[s] = n
	count[0] = n - 1
	count[n] = 1

	enqueue := func(v int) {
		if !inQueue[v] && v != s && v != t && excess[v] > Eps {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}

	// Saturate source edges.
	for _, e := range g.head[s] {
		if e%2 != 0 { // only forward edges leave flow from s initially
			continue
		}
		c := g.resid[e]
		if c <= Eps {
			continue
		}
		if math.IsInf(c, 1) {
			// Infinite arcs out of the source would make excess infinite;
			// cap the initial push by the total finite capacity of the
			// graph (an upper bound on any feasible flow).
			c = g.finiteCapSum()
		}
		v := int(g.to[e])
		g.resid[e] -= c
		g.resid[e^1] += c
		excess[v] += c
		excess[s] -= c
		enqueue(v)
	}

	relabel := func(u int) {
		count[height[u]]--
		minH := 2 * n
		for _, e := range g.head[u] {
			if g.resid[e] > Eps {
				if h := height[int(g.to[e])] + 1; h < minH {
					minH = h
				}
			}
		}
		if count[height[u]] == 0 && height[u] < n {
			// Gap heuristic: lift every node stranded above the gap.
			gap := height[u]
			for v := 0; v < n; v++ {
				if v != s && height[v] > gap && height[v] < n {
					count[height[v]]--
					height[v] = n + 1
					count[height[v]]++
				}
			}
		}
		height[u] = minH
		count[minH]++
	}

	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		for excess[u] > Eps {
			pushed := false
			for _, e := range g.head[u] {
				if excess[u] <= Eps {
					break
				}
				v := int(g.to[e])
				if g.resid[e] > Eps && height[u] == height[v]+1 {
					d := math.Min(excess[u], g.resid[e])
					g.resid[e] -= d
					g.resid[e^1] += d
					excess[u] -= d
					excess[v] += d
					enqueue(v)
					pushed = true
				}
			}
			if !pushed {
				relabel(u)
				if height[u] >= 2*n {
					break
				}
			}
		}
	}
	// Second phase: the preflow left on the edges is not necessarily a
	// flow. Eps-thresholded discharge can abandon sub-Eps excess at a node,
	// and float cancellation at large scales (returning a finiteCapSum-sized
	// excess across an infinite source arc rounds at ulp of that sum) can
	// annihilate small amounts from one edge's record but not its
	// neighbor's. Rebalance the recorded flows so conservation holds.
	g.rebalance(s, t)
	// Rebalancing cancels flow upstream and may unsaturate a former cut
	// edge; finish with augmenting paths so the flow is maximal again.
	return excess[t] + g.dinic(s, t)
}

// rebalance converts the edge-recorded preflow into a valid flow: at every
// internal node whose recorded inflow exceeds its recorded outflow, cancel
// the surplus on incoming flow-carrying edges, propagating it upstream
// until it is absorbed at the source, the sink, or a deficit node. Works
// purely on the edge bookkeeping, so it also repairs imbalances that exist
// only there (where no residual path back to the source survives).
func (g *Graph) rebalance(s, t int) {
	surplus := make([]float64, g.n)
	for i := 0; i < len(g.to); i += 2 {
		f := g.Flow(EdgeID(i))
		if f <= 0 {
			continue
		}
		surplus[int(g.to[i])] += f
		surplus[int(g.to[i^1])] -= f
	}
	inWork := make([]bool, g.n)
	work := make([]int, 0, g.n)
	push := func(v int) {
		if v != s && v != t && surplus[v] > Eps/2 && !inWork[v] {
			inWork[v] = true
			work = append(work, v)
		}
	}
	for v := 0; v < g.n; v++ {
		push(v)
	}
	// Each cancellation either clears a node's surplus or zeroes an edge's
	// flow; the budget is a safety net against float ping-pong on cycles.
	for budget := 4 * g.n * len(g.to); len(work) > 0 && budget > 0; budget-- {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[v] = false
		for _, e := range g.head[v] {
			if surplus[v] <= 0 {
				break
			}
			if e&1 == 0 {
				continue // even ids in head[v] leave v; odd ids mirror edges into v
			}
			f := g.Flow(e ^ 1)
			if f <= 0 {
				continue
			}
			d := math.Min(surplus[v], f)
			g.resid[e^1] += d
			g.resid[e] -= d
			surplus[v] -= d
			u := int(g.to[e])
			surplus[u] += d
			push(u)
		}
	}
}

func (g *Graph) finiteCapSum() float64 {
	sum := 0.0
	for e := 0; e < len(g.cap); e += 2 {
		if !math.IsInf(g.cap[e], 1) {
			sum += g.cap[e]
		}
	}
	return sum
}
