// Package placement enumerates feasible hardware placements (which slots
// hold the GPUs and SSDs), prunes symmetry- and rotation-equivalent
// candidates by isomorphic reduction, and searches for the placement whose
// max-flow-predicted epoch I/O time is minimal (paper §3.2, Problem
// Solving).
//
// Devices of the same kind are interchangeable, so a candidate is a count
// vector (GPUs and SSDs per attach point) — PCIe-switch symmetry (devices
// on the same switch are equivalent) is therefore structural. Topological
// symmetry (mirrored subtrees, as in Machine A's two sockets) and
// rotation-invariant re-orderings are removed by canonical tree encoding:
// two candidates whose rooted-forest encodings coincide after sorting
// equivalent subtrees are the same physical configuration.
package placement

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"moment/internal/flownet"
	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
	"moment/internal/units"
)

// MaxCandidates bounds the placements Enumerate lists. Every candidate
// costs a flow build and solve, and the largest real machine (the
// examples/customserver chassis) has 370, so a spec past this bound is
// rejected before anything is allocated for it.
const MaxCandidates = 1 << 16

// CountCandidates returns how many placements Enumerate lists for m — the
// number of GPU slot compositions times the number of SSD bay
// compositions — saturating at MaxCandidates+1. Its time and memory stay
// small whatever the device counts (see countCompositions).
func CountCandidates(m *topology.Machine) int {
	gpuCaps := make([]int, len(m.Points))
	ssdCaps := make([]int, len(m.Points))
	for i, p := range m.Points {
		gpuCaps[i] = p.GPUSlots
		ssdCaps[i] = p.Bays
	}
	const sat = MaxCandidates + 1
	g, s := countCompositions(m.NumGPUs, gpuCaps), countCompositions(m.NumSSDs, ssdCaps)
	if g != 0 && s > sat/g {
		return sat
	}
	return g * s
}

// countCompositions counts the ways to write total as a sum over
// len(caps) non-negative parts with parts[i] <= caps[i] (the compositions
// Enumerate lists), saturating at MaxCandidates+1.
//
// The count is the coefficient of x^total in ∏(1 + x + … + x^cap), with
// each cap clipped to total. That product is symmetric and unimodal, so
// with r = min(total, slack), slack being the clipped caps' sum less
// total, the count is at least the coefficient of x^2 (≥ k(k−1)/2 for k
// nonzero caps) once r ≥ 2; it is also at least r+1. Large r, or large k
// with r ≥ 2, therefore saturate at once, and otherwise a DP over degrees
// 0..r (x^total and x^slack share a coefficient) costs k·r steps: O(k)
// for r = 1, and under 363·MaxCandidates for r ≥ 2.
func countCompositions(total int, caps []int) int {
	const sat = MaxCandidates + 1
	if total < 0 {
		return 0
	}
	var clipped []int
	sum := 0
	for _, c := range caps {
		if c = min(c, total); c > 0 {
			clipped = append(clipped, c)
			sum += c
		}
	}
	if sum < total {
		return 0
	}
	r, k := min(total, sum-total), len(clipped)
	switch {
	case r == 0:
		return 1
	case r >= sat || (r >= 2 && k*(k-1)/2 >= sat):
		return sat
	}
	// ways[j] counts the compositions of j over the caps seen so far; a
	// new cap c makes it the window sum of ways[j-c..j], read off prefix
	// sums of saturated counts (at most (r+1)·sat < 2^33).
	ways := make([]int, r+1)
	prefix := make([]int, r+2)
	ways[0] = 1
	for _, c := range clipped {
		for j, w := range ways {
			prefix[j+1] = prefix[j] + w
		}
		for j := range ways {
			ways[j] = min(prefix[j+1]-prefix[max(0, j-c)], sat)
		}
	}
	return ways[r]
}

// Enumerate lists every slot-feasible placement of m's device inventory,
// honoring physical slot constraints (x16 dual-width for GPUs, U.2 bays
// for SSDs). The result is not symmetry-reduced; see Dedupe. A machine
// with more than MaxCandidates placements is an error.
func Enumerate(m *topology.Machine) ([]*topology.Placement, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if CountCandidates(m) > MaxCandidates {
		return nil, fmt.Errorf("placement: machine %s has over %d placement candidates", m.Name, MaxCandidates)
	}
	gpuCaps := make([]int, len(m.Points))
	ssdCaps := make([]int, len(m.Points))
	for i, p := range m.Points {
		gpuCaps[i] = p.GPUSlots
		ssdCaps[i] = p.Bays
	}
	gpuDists := compositions(m.NumGPUs, gpuCaps)
	ssdDists := compositions(m.NumSSDs, ssdCaps)
	out := make([]*topology.Placement, 0, len(gpuDists)*len(ssdDists))
	for _, gd := range gpuDists {
		for _, sd := range ssdDists {
			p := &topology.Placement{}
			for i, pt := range m.Points {
				for k := 0; k < gd[i]; k++ {
					p.GPUAt = append(p.GPUAt, pt.ID)
				}
				for k := 0; k < sd[i]; k++ {
					p.SSDAt = append(p.SSDAt, pt.ID)
				}
			}
			p.Name = fmt.Sprintf("cand%d", len(out))
			out = append(out, p)
		}
	}
	return out, nil
}

// compositions returns all ways to write total as a sum over len(caps)
// non-negative parts with parts[i] <= caps[i].
func compositions(total int, caps []int) [][]int {
	var out [][]int
	cur := make([]int, len(caps))
	var rec func(i, left int)
	rec = func(i, left int) {
		if i == len(caps) {
			if left == 0 {
				out = append(out, append([]int(nil), cur...))
			}
			return
		}
		maxHere := caps[i]
		if left < maxHere {
			maxHere = left
		}
		for v := 0; v <= maxHere; v++ {
			cur[i] = v
			rec(i+1, left-v)
		}
		cur[i] = 0
	}
	rec(0, total)
	return out
}

// CanonicalKey computes an isomorphism-invariant encoding of a placed
// machine. Each attach point is encoded as
// (kind, uplinkGiBps, bays, gpuSlots, placedGPUs, placedSSDs, children...)
// with children sorted by their encodings; the forest of root complexes is
// sorted likewise (root complexes peer symmetrically over QPI). Placements
// that differ only by swapping equivalent subtrees share a key.
func CanonicalKey(m *topology.Machine, p *topology.Placement) (string, error) {
	if err := p.Validate(m); err != nil {
		return "", err
	}
	gpus, ssds := p.Counts()
	children := map[string][]string{}
	for _, pt := range m.Points {
		if pt.Kind == topology.Switch {
			children[pt.Parent] = append(children[pt.Parent], pt.ID)
		}
	}
	var encode func(id string) string
	encode = func(id string) string {
		pt, _ := m.Point(id)
		var kids []string
		for _, c := range children[id] {
			kids = append(kids, encode(c))
		}
		sort.Strings(kids)
		return fmt.Sprintf("(%d,%.3f,%d,%d,g%d,s%d;%s)",
			int(pt.Kind), pt.UplinkBW.GiBpsf(), pt.Bays, pt.GPUSlots,
			gpus[id], ssds[id], strings.Join(kids, ""))
	}
	var roots []string
	for _, rc := range m.RootComplexes() {
		roots = append(roots, encode(rc))
	}
	sort.Strings(roots)
	return strings.Join(roots, "|"), nil
}

// Dedupe removes symmetry-equivalent placements, keeping the first
// representative of each canonical class (the isomorphic graph reduction
// of §3.2).
func Dedupe(m *topology.Machine, ps []*topology.Placement) ([]*topology.Placement, error) {
	kept, _, err := dedupe(m, ps, false)
	if err != nil {
		return nil, err
	}
	out := make([]*topology.Placement, len(kept))
	for i, c := range kept {
		out[i] = c.p
	}
	return out, nil
}

// dedupe is the canonicalize-and-dedupe loop shared by Dedupe and Search.
// It keys every placement in order and, unless keepAll, drops each one
// whose canonical class an earlier placement already holds. Survivors carry
// their index in ps and their canonical key (the score-cache key suffix);
// pruned lists the indices of the dropped placements.
func dedupe(m *topology.Machine, ps []*topology.Placement, keepAll bool) (kept []cand, pruned []int, err error) {
	seen := make(map[string]struct{}, len(ps))
	kept = make([]cand, 0, len(ps))
	for i, p := range ps {
		key, err := CanonicalKey(m, p)
		if err != nil {
			return nil, nil, err
		}
		if !keepAll {
			if _, dup := seen[key]; dup {
				pruned = append(pruned, i)
				continue
			}
			seen[key] = struct{}{}
		}
		kept = append(kept, cand{seq: i, p: p, key: key})
	}
	return kept, pruned, nil
}

// Options tunes the placement search.
type Options struct {
	// Parallelism bounds concurrent candidate evaluations
	// (default GOMAXPROCS). With 1 every candidate is scored in the
	// caller's goroutine; results are identical at every setting.
	Parallelism int
	// SkipDedupe disables isomorphic reduction (ablation).
	SkipDedupe bool
	// KeepScores records every candidate's predicted time in the result.
	KeepScores bool
	// Cache, when non-nil, memoizes candidate scores across searches,
	// local searches, and fault-triggered replans. Keys combine the
	// canonical placement class with machine-rate and demand fingerprints,
	// so a shared cache is safe across machines and demands.
	Cache *scorecache.Scores
	// FaultsKey folds an injected fault schedule into the score-cache key
	// (callers pass faults.Format output). Two searches over identical
	// machine/demand fingerprints but different fault schedules must not
	// share memoized scores: leave it empty only when scores are
	// schedule-independent (the healthy-machine planner).
	FaultsKey string
	// Observer receives spans and metrics for the search (nil falls back
	// to the process default observer; both nil = no instrumentation).
	Observer *obs.Observer
	// Explain, when non-nil, receives a per-decision provenance trail:
	// candidates pruned (with reasons), score-cache hits, per-candidate
	// min-time work, and run-level summaries. Steps carry the candidate's
	// enumeration index, so the rendered trail is deterministic for a fixed
	// machine/demand at any Parallelism. Nil (the default) costs nothing on
	// the hot path.
	Explain *obs.Explain
	// Ctx, when non-nil, cancels an in-flight search: no further
	// candidate is scored, in-flight min-time searches stop at their next
	// solve (see maxflow.TimeBisector.Ctx), and Search returns the context's
	// error. An abandoned caller — a disconnected planning request, a
	// timed-out RPC — therefore stops consuming CPU instead of running the
	// search to completion. Canceled evaluations are never written to
	// Cache, so a shared cache cannot be poisoned with partial results.
	Ctx context.Context
}

// Scored pairs a candidate with its predicted epoch I/O time.
type Scored struct {
	Placement *topology.Placement
	Time      units.Duration
	Err       error
}

// Result summarizes a search.
type Result struct {
	Best       *topology.Placement
	Time       units.Duration  // predicted epoch I/O completion time
	Throughput units.Bandwidth // total demand / Time
	Enumerated int             // candidates before reduction
	Evaluated  int             // candidates scored after reduction
	CacheHits  int             // evaluations short-circuited by Options.Cache
	Scores     []Scored        // per-candidate results when KeepScores
	Demand     *flownet.Demand // the demand the search optimized for
	Machine    *topology.Machine
}

// cand is one deduped placement awaiting a score. seq is its enumeration
// index (also its "cand%d" name); key is its canonical key.
type cand struct {
	seq int
	p   *topology.Placement
	key string
}

// scoredCand is a scored candidate and whether the score came from the
// cache.
type scoredCand struct {
	Scored
	hit bool
}

// CacheKey returns the score-cache key under which Search, LocalSearch, and
// replans memoize candidate p's predicted time: the canonical placement
// class prefixed with machine-rate, demand and fault-schedule fingerprints
// (faultsKey is Options.FaultsKey, typically faults.Format output), so one
// shared cache serves different machines, demands and schedules without
// collisions.
func CacheKey(m *topology.Machine, p *topology.Placement, d *flownet.Demand, faultsKey string) (string, error) {
	key, err := CanonicalKey(m, p)
	if err != nil {
		return "", err
	}
	return cachePrefix(m, d, faultsKey) + key, nil
}

// cachePrefix fingerprints everything that determines a candidate's score
// besides its canonical placement class: the machine's link rates and
// device counts (CanonicalKey covers attach-point structure but not fabric
// bandwidths — two machines can differ only in QPIBW), the demand vector,
// and the fault schedule the scores were computed under.
func cachePrefix(m *topology.Machine, d *flownet.Demand, faultsKey string) string {
	h := scorecache.NewHasher()
	h.Float(float64(m.QPIBW)).Float(float64(m.DRAMBW))
	h.Float(float64(m.PCIeX16)).Float(float64(m.PCIeX4))
	h.Float(float64(m.SSDBW)).Float(float64(m.NVLinkBW))
	h.Uint(uint64(m.NumGPUs)).Uint(uint64(m.NumSSDs))
	h.Uint(uint64(len(m.NVLinks)))
	for _, nv := range m.NVLinks {
		h.Uint(uint64(nv.A)).Uint(uint64(nv.B))
	}
	h.String(faultsKey)
	return fmt.Sprintf("%x|%x|", h.Sum(), d.Fingerprint())
}

// searchState carries the per-search context the scoring workers share.
type searchState struct {
	m      *topology.Machine
	d      *flownet.Demand
	opt    Options
	o      *obs.Observer
	sp     *obs.Span
	ex     *obs.Explain // nil when the caller asked for no provenance
	prefix string       // cache key prefix; "" when no cache
}

// collector folds scored candidates, fed in enumeration order, into a
// Result: the best is the first candidate with the minimum time, so the
// winner never depends on which worker finished first.
type collector struct {
	best   *Scored
	count  int
	hits   int
	scores []Scored
	keep   bool
}

func (c *collector) add(s scoredCand) {
	c.count++
	if s.hit {
		c.hits++
	}
	if c.keep {
		c.scores = append(c.scores, s.Scored)
	}
	if s.Err != nil {
		return
	}
	if c.best == nil || s.Time < c.best.Time {
		sc := s.Scored
		c.best = &sc
	}
}

// Search enumerates placements, reduces symmetry, scores every survivor by
// its exact max-flow minimum time under demand d, and returns the fastest.
//
// Enumeration and dedupe (canonical-key isomorphic reduction) run in the
// caller's goroutine. Scoring is a parallel map over the deduped
// candidates (see scoreAll), and the results fold in enumeration order, so
// the outcome is identical at every Parallelism. Candidates whose networks
// are infeasible (disconnected demand) are skipped; with Options.Cache,
// previously seen candidates skip the max-flow solve entirely.
func Search(m *topology.Machine, d *flownet.Demand, opt Options) (*Result, error) {
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	o := obs.Active(opt.Observer)
	sp := o.Begin("placement.search")
	sp.SetStr("machine", m.Name)
	defer sp.End()

	esp := sp.Child("enumerate")
	ps, err := Enumerate(m) // validates m
	esp.SetInt("candidates", len(ps))
	esp.End()
	if err != nil {
		return nil, err
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("placement: no feasible candidates for machine %s", m.Name)
	}
	psp := sp.Child("prune")
	kept, pruned, err := dedupe(m, ps, opt.SkipDedupe)
	psp.SetInt("kept", len(kept))
	psp.SetInt("pruned", len(pruned))
	psp.End()
	if err != nil {
		return nil, err
	}

	st := &searchState{m: m, d: d, opt: opt, o: o, sp: sp, ex: opt.Explain}
	for _, i := range pruned {
		st.ex.Add(obs.ExplainStep{Seq: i, Stage: "prune", Subject: ps[i].Name, Reason: "isomorphic-duplicate"})
	}
	if opt.Cache != nil {
		st.prefix = cachePrefix(m, d, opt.FaultsKey)
	}
	results := scoreAll(st, kept)
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	col := collector{keep: opt.KeepScores}
	for _, s := range results {
		col.add(s)
	}
	o.Counter("placement_candidates_enumerated_total").Add(float64(len(ps)))
	o.Counter("placement_candidates_pruned_total").Add(float64(len(pruned)))

	res := &Result{
		Enumerated: len(ps),
		Evaluated:  col.count,
		CacheHits:  col.hits,
		Demand:     d,
		Machine:    m,
	}
	if col.best == nil {
		return nil, fmt.Errorf("placement: every candidate infeasible on machine %s", m.Name)
	}
	res.Time = col.best.Time
	if res.Time > 0 {
		res.Throughput = units.Bandwidth(d.TotalDemand() / res.Time.Sec())
	}
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "enumerated", Count: len(ps)})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "pruned", Count: len(pruned)})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "evaluated", Count: col.count})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "search", Reason: "score-cache-hits", Count: col.hits})
	st.ex.Add(obs.ExplainStep{Seq: obs.SeqSummary, Stage: "result", Subject: col.best.Placement.Name, Value: res.Time.Sec()})
	if opt.KeepScores {
		// Stable: equal times stay in enumeration order.
		sort.SliceStable(col.scores, func(a, b int) bool {
			sa, sb := col.scores[a], col.scores[b]
			if (sa.Err == nil) != (sb.Err == nil) {
				return sa.Err == nil
			}
			return sa.Time < sb.Time
		})
		res.Scores = col.scores
	}
	best := col.best.Placement.Clone()
	best.Name = fmt.Sprintf("%s(moment)", m.Name)
	res.Best = best
	sp.SetInt("evaluated", res.Evaluated)
	sp.SetInt("cache_hits", res.CacheHits)
	sp.SetFloat("best_seconds", res.Time.Sec())
	if Check != nil {
		if err := Check(m, d, opt, res); err != nil {
			return nil, fmt.Errorf("placement: self-check failed: %w", err)
		}
	}
	return res, nil
}

// scoreAll is the scoring map: it scores kept[i] into results[i].
// min(Parallelism, len(kept)) workers claim indices from a shared counter,
// each threading its own scratch network through flownet.BuildReuse; a
// single worker runs inline in the caller's goroutine. Once Ctx is canceled
// every worker stops before its next candidate (an in-flight min-time search
// sees the same context), leaving the remaining results unset — Search
// then returns the context's error instead of folding them.
func scoreAll(st *searchState, kept []cand) []scoredCand {
	results := make([]scoredCand, len(kept))
	var next atomic.Int64
	work := func() {
		var scratch *flownet.Network
		for i := int(next.Add(1) - 1); i < len(kept); i = int(next.Add(1) - 1) {
			if st.opt.Ctx != nil && st.opt.Ctx.Err() != nil {
				return
			}
			if evalHook != nil {
				evalHook()
			}
			results[i], scratch = scoreCached(st, kept[i], scratch)
		}
	}
	workers := min(st.opt.Parallelism, len(kept))
	if workers <= 1 {
		work()
		return results
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return results
}

// Check, when non-nil, audits every Search result before it is returned
// (winner re-scores to the reported time, throughput consistent, placement
// valid). Installed by internal/verify when self-verification is enabled;
// declared here rather than imported so placement does not depend on the
// verification subsystem.
var Check func(m *topology.Machine, d *flownet.Demand, opt Options, res *Result) error

// evalHook, when non-nil, is invoked at the start of every candidate
// evaluation (test instrumentation for the concurrency bound).
var evalHook func()

// cacheGet consults the score cache for candidate c, accounting the hit or
// miss.
func cacheGet(st *searchState, c cand) (scoredCand, bool) {
	if st.opt.Cache == nil {
		return scoredCand{}, false
	}
	s, ok := st.opt.Cache.Get(st.prefix + c.key)
	if !ok {
		st.o.Counter("placement_cache_misses_total").Inc()
		return scoredCand{}, false
	}
	st.o.Counter("placement_cache_hits_total").Inc()
	out := scoredCand{hit: true}
	out.Placement = c.p
	if s.Infeasible {
		out.Err = errors.New(s.Err)
		st.o.Counter("placement_candidates_infeasible_total").Inc()
		st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: c.p.Name, Reason: "cache-hit-infeasible"})
	} else {
		out.Time = units.Seconds(s.Seconds)
		st.o.Counter("placement_candidates_scored_total").Inc()
		st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: c.p.Name, Reason: "cache-hit", Value: s.Seconds})
	}
	return out, true
}

// cachePut memoizes a scored candidate unless the result reflects caller
// cancellation rather than a property of the candidate.
func cachePut(st *searchState, c cand, s Scored) {
	if st.opt.Cache == nil || isCanceled(s.Err) {
		return
	}
	entry := scorecache.Score{Seconds: s.Time.Sec()}
	if s.Err != nil {
		entry = scorecache.Score{Infeasible: true, Err: s.Err.Error()}
	}
	st.opt.Cache.Put(st.prefix+c.key, entry)
}

// scoreCached scores one candidate, consulting the cache first when the
// search has one, and returns the (possibly newly built) scratch network
// for the worker to reuse on its next candidate.
func scoreCached(st *searchState, c cand, scratch *flownet.Network) (scoredCand, *flownet.Network) {
	if out, ok := cacheGet(st, c); ok {
		return out, scratch
	}
	var s Scored
	s, scratch = score(st, c, scratch)
	cachePut(st, c, s)
	return scoredCand{Scored: s}, scratch
}

// isCanceled reports whether err stems from caller cancellation rather than
// a property of the candidate — such scores are transient and must not be
// cached as infeasible or reported as candidate failures.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// score evaluates one candidate by its max-flow minimum time, rebuilding into
// the worker's scratch network (flownet.BuildReuse) to keep the hot loop
// out of the allocator. It returns the network used so the caller can
// thread it into the next evaluation.
func score(st *searchState, c cand, scratch *flownet.Network) (Scored, *flownet.Network) {
	candP, o := c.p, st.o
	sp := st.sp.Fork("maxflow-score")
	sp.SetStr("candidate", candP.Name)
	defer sp.End()
	n, err := flownet.BuildReuse(st.m, candP, st.d, scratch)
	if err != nil {
		sp.SetStr("error", err.Error())
		o.Counter("placement_candidates_infeasible_total").Inc()
		o.Logf("placement: candidate %s infeasible: %v", candP.Name, err)
		st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: candP.Name, Reason: "infeasible-build"})
		return Scored{Placement: candP, Err: err}, scratch
	}
	n.SetObserver(o)
	n.SetContext(st.opt.Ctx)
	t, err := n.Solve()
	probes, iters := n.SolveCounters()
	if err != nil {
		sp.SetStr("error", err.Error())
		if !isCanceled(err) {
			o.Counter("placement_candidates_infeasible_total").Inc()
			o.Logf("placement: candidate %s unsolvable: %v", candP.Name, err)
			st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: candP.Name, Reason: "unsolvable"})
		}
		return Scored{Placement: candP, Err: err}, n
	}
	sp.SetFloat("predicted_seconds", t.Sec())
	o.Counter("placement_candidates_scored_total").Inc()
	st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "score", Subject: candP.Name, Reason: "solved", Value: t.Sec()})
	st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "bisect", Subject: candP.Name, Reason: "probes", Count: probes})
	st.ex.Add(obs.ExplainStep{Seq: c.seq, Stage: "bisect", Subject: candP.Name, Reason: "iterations", Count: iters})
	return Scored{Placement: candP, Time: t}, n
}
