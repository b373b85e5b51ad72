package placement

import (
	"fmt"
	"math/rand"

	"moment/internal/flownet"
	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

// Exhaustive enumeration is exact but its candidate count grows
// combinatorially with slots and devices; beyond a few hundred candidates
// (large custom chassis, §2.3's vendor-built servers) Moment falls back to
// stochastic local search: hill climbing over single-device move and
// device-swap neighborhoods with random restarts. On the evaluated
// machines the local search provably reaches the exhaustive optimum (see
// tests); on larger machines it trades exactness for tractability.

// LocalSearchOptions tunes the stochastic search.
type LocalSearchOptions struct {
	// Restarts is the number of random initial placements (default 8).
	Restarts int
	// MaxSteps bounds improvement steps per restart (default 200).
	MaxSteps int
	// Seed makes the search reproducible.
	Seed int64
	// Cache, when non-nil, memoizes candidate scores under the same keys
	// as Search (canonical class + machine/demand fingerprints), so hill
	// climbing that revisits a placement class — across restarts or across
	// separate searches — skips the max-flow solve.
	Cache *scorecache.Scores
	// FaultsKey mirrors Options.FaultsKey: the fault-schedule component of
	// the cache key, so fault-aware local searches stay isolated from
	// healthy ones sharing the same cache.
	FaultsKey string
	// Observer receives spans and metrics (nil falls back to the process
	// default observer).
	Observer *obs.Observer
	// Explain, when non-nil, receives the provenance trail: one step per
	// restart and accepted move (Seq = restart index, Count = step) plus
	// run-level summaries, deterministic for a fixed Seed.
	Explain *obs.Explain
}

func (o LocalSearchOptions) defaults() LocalSearchOptions {
	if o.Restarts == 0 {
		o.Restarts = 8
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 200
	}
	return o
}

// LocalSearch finds a low-epoch-IO placement by hill climbing. It returns
// the best placement found, its predicted time, and the number of
// candidate evaluations spent.
func LocalSearch(m *topology.Machine, d *flownet.Demand, opt LocalSearchOptions) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	opt = opt.defaults()
	r := rand.New(rand.NewSource(opt.Seed))
	o := obs.Active(opt.Observer)
	sp := o.Begin("placement.localsearch")
	sp.SetStr("machine", m.Name)
	defer sp.End()

	type pointCap struct {
		id   string
		gpus int
		bays int
	}
	var points []pointCap
	for _, pt := range m.Points {
		points = append(points, pointCap{id: pt.ID, gpus: pt.GPUSlots, bays: pt.Bays})
	}

	randomPlacement := func() *topology.Placement {
		p := &topology.Placement{Name: "ls"}
		gpuLeft := make([]int, len(points))
		bayLeft := make([]int, len(points))
		for i, pt := range points {
			gpuLeft[i] = pt.gpus
			bayLeft[i] = pt.bays
		}
		place := func(n int, left []int) ([]string, bool) {
			var at []string
			for k := 0; k < n; k++ {
				var options []int
				for i := range points {
					if left[i] > 0 {
						options = append(options, i)
					}
				}
				if len(options) == 0 {
					return nil, false
				}
				i := options[r.Intn(len(options))]
				left[i]--
				at = append(at, points[i].id)
			}
			return at, true
		}
		var ok bool
		if p.GPUAt, ok = place(m.NumGPUs, gpuLeft); !ok {
			return nil
		}
		if p.SSDAt, ok = place(m.NumSSDs, bayLeft); !ok {
			return nil
		}
		return p
	}

	prefix := ""
	if opt.Cache != nil {
		prefix = cachePrefix(m, d, opt.FaultsKey)
	}
	evaluations := 0
	cacheHits := 0
	var scratch *flownet.Network
	solve := func(p *topology.Placement) (float64, bool) {
		n, err := flownet.BuildReuse(m, p, d, scratch)
		if err != nil {
			o.Counter("placement_candidates_infeasible_total").Inc()
			return 0, false
		}
		scratch = n
		n.SetObserver(o)
		t, err := n.Solve()
		if err != nil {
			o.Counter("placement_candidates_infeasible_total").Inc()
			return 0, false
		}
		return t.Sec(), true
	}
	score := func(p *topology.Placement) (float64, bool) {
		evaluations++
		o.Counter("placement_localsearch_evals_total").Inc()
		if opt.Cache == nil {
			return solve(p)
		}
		key, err := CanonicalKey(m, p)
		if err != nil {
			return 0, false
		}
		key = prefix + key
		if s, ok := opt.Cache.Get(key); ok {
			cacheHits++
			o.Counter("placement_cache_hits_total").Inc()
			return s.Seconds, !s.Infeasible
		}
		o.Counter("placement_cache_misses_total").Inc()
		sec, ok := solve(p)
		if ok {
			opt.Cache.Put(key, scorecache.Score{Seconds: sec})
		} else {
			opt.Cache.Put(key, scorecache.Score{Infeasible: true, Err: "localsearch: infeasible"})
		}
		return sec, ok
	}

	// neighbors yields single-device moves to any point with a free slot.
	neighbors := func(p *topology.Placement) []*topology.Placement {
		var out []*topology.Placement
		gpus, ssds := p.Counts()
		for i := range p.GPUAt {
			for _, pt := range points {
				if pt.id == p.GPUAt[i] || gpus[pt.id] >= pt.gpus {
					continue
				}
				q := p.Clone()
				q.GPUAt[i] = pt.id
				out = append(out, q)
			}
		}
		for i := range p.SSDAt {
			for _, pt := range points {
				if pt.id == p.SSDAt[i] || ssds[pt.id] >= pt.bays {
					continue
				}
				q := p.Clone()
				q.SSDAt[i] = pt.id
				out = append(out, q)
			}
		}
		return out
	}

	var best *topology.Placement
	bestT := 0.0
	for restart := 0; restart < opt.Restarts; restart++ {
		cur := randomPlacement()
		if cur == nil {
			opt.Explain.Add(obs.ExplainStep{Seq: restart, Stage: "restart", Reason: "no-feasible-start"})
			continue
		}
		curT, ok := score(cur)
		if !ok {
			opt.Explain.Add(obs.ExplainStep{Seq: restart, Stage: "restart", Reason: "infeasible-start"})
			continue
		}
		opt.Explain.Add(obs.ExplainStep{Seq: restart, Stage: "restart", Value: curT})
		for step := 0; step < opt.MaxSteps; step++ {
			improved := false
			for _, nb := range neighbors(cur) {
				t, ok := score(nb)
				if ok && t < curT*(1-1e-9) {
					cur, curT = nb, t
					improved = true
					o.Counter("placement_localsearch_moves_total").Inc()
					opt.Explain.Add(obs.ExplainStep{Seq: restart, Stage: "move", Count: step + 1, Value: t})
					break // first-improvement hill climbing
				}
			}
			if !improved {
				break
			}
		}
		if best == nil || curT < bestT {
			best, bestT = cur, curT
		}
	}
	if best == nil {
		return nil, fmt.Errorf("placement: local search found no feasible placement on %s", m.Name)
	}
	best.Name = fmt.Sprintf("%s(moment-ls)", m.Name)
	opt.Explain.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "localsearch", Reason: "evaluations", Count: evaluations})
	opt.Explain.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "localsearch", Reason: "score-cache-hits", Count: cacheHits})
	opt.Explain.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "result", Subject: best.Name, Value: bestT})
	sp.SetInt("evaluations", evaluations)
	sp.SetInt("cache_hits", cacheHits)
	sp.SetFloat("best_seconds", bestT)
	res := &Result{
		Best:       best,
		Time:       units.Seconds(bestT),
		Enumerated: evaluations,
		Evaluated:  evaluations,
		CacheHits:  cacheHits,
		Demand:     d,
		Machine:    m,
	}
	if bestT > 0 {
		res.Throughput = units.Bandwidth(d.TotalDemand() / bestT)
	}
	return res, nil
}
