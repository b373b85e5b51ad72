package placement

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"moment/internal/flownet"
	"moment/internal/obs"
	"moment/internal/scorecache"
	"moment/internal/topology"
)

// scaledDemand is demand(n) with every budget multiplied by f, a second
// demand point for the differential grid.
func scaledDemand(n int, f float64) *flownet.Demand {
	d := demand(n)
	for i := range d.PerGPU {
		d.PerGPU[i] *= f
		d.HBMPeer[i] *= f
	}
	for k := range d.DRAM {
		d.DRAM[k] *= f
	}
	d.SSDTotal *= f
	return d
}

func degradedB() *topology.Machine {
	m := topology.MachineB()
	m.QPIBW = topology.QPIRate / 4
	return m
}

// customMachine parses the build-to-order chassis that
// examples/customserver plans: a two-deep switch cascade, 3 GPUs, 6 SSDs
// and an NVLink bridge.
func customMachine(t *testing.T) *topology.Machine {
	t.Helper()
	src, err := os.ReadFile("../../examples/customserver/main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, spec, ok := strings.Cut(string(src), "const spec = `")
	if !ok {
		t.Fatal("examples/customserver: no spec constant")
	}
	spec, _, _ = strings.Cut(spec, "`")
	m, err := topology.ParseSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// placementCounters are the pipeline counters every differential compares.
var placementCounters = []string{
	"placement_candidates_enumerated_total",
	"placement_candidates_pruned_total",
	"placement_candidates_scored_total",
	"placement_candidates_infeasible_total",
}

// solverCounters and solverHistograms are the max-flow work the scoring
// map records through the observer.
var (
	solverCounters = []string{
		"maxflow_solves_total",
		"maxflow_augmenting_paths_total",
	}
	solverHistograms = []string{"maxflow_bisection_probes", "maxflow_bisection_iterations"}
)

// searchWith runs Search with a fresh observer and fails the test on error.
func searchWith(t *testing.T, name string, m *topology.Machine, d *flownet.Demand, opt Options) (*Result, *obs.Observer) {
	t.Helper()
	o := obs.New()
	opt.Observer = o
	opt.KeepScores = true
	r, err := Search(m, d, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r, o
}

// sameSearch reports every way got differs from the one-worker reference
// want: best time and winner, enumeration and evaluation counts, every
// kept score (time, name, error), the named counters and the named
// histograms (count and sum).
func sameSearch(t *testing.T, name string, got, want *Result, gotObs, wantObs *obs.Observer, counters, histograms []string) {
	t.Helper()
	if got.Time != want.Time || got.Best.Name != want.Best.Name {
		t.Errorf("%s: best %v/%q vs %v/%q serial", name,
			got.Time, got.Best.Name, want.Time, want.Best.Name)
	}
	if got.Enumerated != want.Enumerated || got.Evaluated != want.Evaluated {
		t.Errorf("%s: counts %d/%d vs %d/%d serial", name,
			got.Enumerated, got.Evaluated, want.Enumerated, want.Evaluated)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Errorf("%s: %d scores vs %d", name, len(got.Scores), len(want.Scores))
	} else {
		for i := range got.Scores {
			g, s := got.Scores[i], want.Scores[i]
			if g.Time != s.Time || g.Placement.Name != s.Placement.Name || (g.Err == nil) != (s.Err == nil) {
				t.Errorf("%s: score[%d] %v/%q vs %v/%q serial", name, i,
					g.Time, g.Placement.Name, s.Time, s.Placement.Name)
				break
			}
		}
	}
	for _, c := range counters {
		if gv, wv := gotObs.Counter(c).Value(), wantObs.Counter(c).Value(); gv != wv {
			t.Errorf("%s: counter %s = %v vs %v serial", name, c, gv, wv)
		}
	}
	for _, h := range histograms {
		gh, wh := gotObs.Histogram(h), wantObs.Histogram(h)
		if gh.Count() != wh.Count() || gh.Sum() != wh.Sum() {
			t.Errorf("%s: histogram %s = %d/%v vs %d/%v serial", name, h,
				gh.Count(), gh.Sum(), wh.Count(), wh.Sum())
		}
	}
}

// TestParallelismMatchesSerial is the search differential: across
// machines × demands × dedupe settings, Parallelism 2, 4 and 8 must return
// exactly what Parallelism 1 (every candidate scored in the caller's
// goroutine, in enumeration order) returns — best time and winner, every
// kept score, the placement counters, and the max-flow work counters and
// bisection histograms. Run under -race this also exercises the scoring
// map's synchronization.
func TestParallelismMatchesSerial(t *testing.T) {
	machines := map[string]func() *topology.Machine{
		"A":          topology.MachineA,
		"B":          topology.MachineB,
		"B-degraded": degradedB,
		"A-3gpu":     func() *topology.Machine { return topology.MachineA().WithGPUs(3) },
		"custom":     func() *topology.Machine { return customMachine(t) },
	}
	demands := map[string]func(*topology.Machine) *flownet.Demand{
		"base":   func(m *topology.Machine) *flownet.Demand { return demand(m.NumGPUs) },
		"scaled": func(m *topology.Machine) *flownet.Demand { return scaledDemand(m.NumGPUs, 1.7) },
	}
	counters := append(append([]string(nil), placementCounters...), solverCounters...)
	for mName, mk := range machines {
		m := mk()
		for dName, dk := range demands {
			d := dk(m)
			for _, skip := range []bool{false, true} {
				if skip && dName != "base" {
					continue
				}
				serial, serialObs := searchWith(t, mName+"/"+dName+" serial", m, d, Options{Parallelism: 1, SkipDedupe: skip})
				for _, par := range []int{2, 4, 8} {
					name := fmt.Sprintf("%s/%s/skip=%v/parallelism=%d", mName, dName, skip, par)
					got, parObs := searchWith(t, name, m, d, Options{Parallelism: par, SkipDedupe: skip})
					if skip && got.Evaluated != got.Enumerated {
						t.Errorf("%s: skip-dedupe evaluated %d of %d", name, got.Evaluated, got.Enumerated)
					}
					sameSearch(t, name, got, serial, parObs, serialObs, counters, solverHistograms)
				}
			}
		}
	}
}

// TestStreamingMatchesSerial checks the default search, whose worker count
// follows GOMAXPROCS (Parallelism 0), against Parallelism 1 across
// machines × demands at GOMAXPROCS 2, 4 and 8: identical best score and
// winner, counts, kept scores and placement counters.
func TestStreamingMatchesSerial(t *testing.T) {
	machines := map[string]func() *topology.Machine{
		"A":          topology.MachineA,
		"B":          topology.MachineB,
		"B-degraded": degradedB,
		"A-3gpu":     func() *topology.Machine { return topology.MachineA().WithGPUs(3) },
	}
	demands := map[string]func(*topology.Machine) *flownet.Demand{
		"base":   func(m *topology.Machine) *flownet.Demand { return demand(m.NumGPUs) },
		"scaled": func(m *topology.Machine) *flownet.Demand { return scaledDemand(m.NumGPUs, 1.7) },
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for mName, mk := range machines {
		for dName, dk := range demands {
			m := mk()
			d := dk(m)
			serial, serialObs := searchWith(t, mName+"/"+dName+" serial", m, d, Options{Parallelism: 1})
			for _, procs := range []int{2, 4, 8} {
				runtime.GOMAXPROCS(procs)
				name := fmt.Sprintf("%s/%s/procs=%d", mName, dName, procs)
				got, gotObs := searchWith(t, name, m, d, Options{})
				sameSearch(t, name, got, serial, gotObs, serialObs, placementCounters, nil)
			}
		}
	}
}

// TestStreamingMatchesSerialSkipDedupe covers the ablation path where the
// dedupe stage forwards everything, at the default Parallelism.
func TestStreamingMatchesSerialSkipDedupe(t *testing.T) {
	m := topology.MachineA()
	d := demand(4)
	serial, serialObs := searchWith(t, "serial", m, d, Options{Parallelism: 1, SkipDedupe: true})
	got, gotObs := searchWith(t, "default", m, d, Options{SkipDedupe: true})
	sameSearch(t, "skip-dedupe", got, serial, gotObs, serialObs, placementCounters, nil)
	if got.Evaluated != got.Enumerated {
		t.Errorf("skip-dedupe evaluated %d != enumerated %d", got.Evaluated, got.Enumerated)
	}
}

// TestProbePoolMatchesInline compares the max-flow work of the default
// search's scoring workers with candidates scored inline in the caller's
// goroutine (Parallelism 1), at GOMAXPROCS 2, 4 and 8: the solver
// counters and bisection histograms must be identical, since each
// candidate is solved the same way whichever worker claims it.
func TestProbePoolMatchesInline(t *testing.T) {
	machines := map[string]func() *topology.Machine{
		"A":          topology.MachineA,
		"B-degraded": degradedB,
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for mName, mk := range machines {
		m := mk()
		d := demand(m.NumGPUs)
		inline, inlineObs := searchWith(t, mName+" inline", m, d, Options{Parallelism: 1})
		if v := inlineObs.Counter("maxflow_solves_total").Value(); v == 0 {
			t.Fatalf("%s: inline search recorded no max-flow solves", mName)
		}
		for _, procs := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("%s/procs=%d", mName, procs)
			got, gotObs := searchWith(t, name, m, d, Options{})
			sameSearch(t, name, got, inline, gotObs, inlineObs, solverCounters, solverHistograms)
		}
	}
}

// TestSearchCacheShortCircuits reruns an identical search through a shared
// cache: the second run must hit on every evaluation and agree exactly.
func TestSearchCacheShortCircuits(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	cache := scorecache.NewScores(4096)
	cold, err := Search(m, d, Options{Cache: cache, KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold search reported %d hits", cold.CacheHits)
	}
	warm, err := Search(m, d, Options{Cache: cache, KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Evaluated {
		t.Errorf("warm search hit %d of %d evaluations", warm.CacheHits, warm.Evaluated)
	}
	if warm.Time != cold.Time || warm.Best.Name != cold.Best.Name {
		t.Errorf("cache changed result: %v/%q vs %v/%q",
			warm.Time, warm.Best.Name, cold.Time, cold.Best.Name)
	}
	for i := range warm.Scores {
		if warm.Scores[i].Time != cold.Scores[i].Time {
			t.Errorf("score[%d] %v warm vs %v cold", i, warm.Scores[i].Time, cold.Scores[i].Time)
			break
		}
	}
	// A single worker shares the same keys.
	serialWarm, err := Search(m, d, Options{Cache: cache, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serialWarm.CacheHits != serialWarm.Evaluated {
		t.Errorf("serial warm search hit %d of %d", serialWarm.CacheHits, serialWarm.Evaluated)
	}
}

// TestSearchCacheKeySeparation shares one cache across a healthy and a
// QPI-degraded machine (same attach-point structure, different fabric
// rates) and across two demands: nothing may cross-hit, and every result
// must match its cache-free baseline.
func TestSearchCacheKeySeparation(t *testing.T) {
	cache := scorecache.NewScores(4096)
	type run struct {
		m *topology.Machine
		d *flownet.Demand
	}
	runs := []run{
		{topology.MachineB(), demand(4)},
		{degradedB(), demand(4)},                  // same keys structurally, different QPI rate
		{topology.MachineB(), scaledDemand(4, 2)}, // same machine, different demand
	}
	for i, r := range runs {
		cached, err := Search(r.m, r.d, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if cached.CacheHits != 0 {
			t.Errorf("run %d: %d cross-hits from a different machine/demand", i, cached.CacheHits)
		}
		plain, err := Search(r.m, r.d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cached.Time != plain.Time {
			t.Errorf("run %d: cached %v vs plain %v", i, cached.Time, plain.Time)
		}
	}
}

// TestFaultsKeyIsolatesSharedCache shares one cache between a healthy
// search (empty FaultsKey) and a fault-aware one over the *same* machine
// and demand. The fault schedule degrades the scoring picture outside the
// machine/demand fingerprint, so without the FaultsKey component the
// second search would be served the first one's scores wholesale.
func TestFaultsKeyIsolatesSharedCache(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	cache := scorecache.NewScores(4096)
	healthy, err := Search(m, d, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.CacheHits != 0 {
		t.Fatalf("cold healthy search reported %d hits", healthy.CacheHits)
	}
	faulted, err := Search(m, d, Options{Cache: cache, FaultsKey: "kill:ssd0@5"})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.CacheHits != 0 {
		t.Errorf("fault-aware search took %d hits from the healthy run", faulted.CacheHits)
	}
	// Same schedule revisiting is still fully memoized...
	again, err := Search(m, d, Options{Cache: cache, FaultsKey: "kill:ssd0@5"})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != again.Evaluated {
		t.Errorf("same-schedule rerun hit %d of %d evaluations", again.CacheHits, again.Evaluated)
	}
	// ...and a different schedule is isolated again.
	other, err := Search(m, d, Options{Cache: cache, FaultsKey: "kill:ssd0@90"})
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHits != 0 {
		t.Errorf("schedule B search took %d hits from schedule A", other.CacheHits)
	}
	// Isolation must not change what gets planned.
	plain, err := Search(m, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*Result{healthy, faulted, again, other} {
		if r.Time != plain.Time || r.Best.Name != plain.Best.Name {
			t.Errorf("run %d: %v/%q vs cache-free %v/%q",
				i, r.Time, r.Best.Name, plain.Time, plain.Best.Name)
		}
	}
	// LocalSearch shares the key space, FaultsKey included: warmed by the
	// same-schedule exhaustive search it hits, across schedules it must not.
	lsSame, err := LocalSearch(m, d, LocalSearchOptions{Seed: 7, Cache: cache, FaultsKey: "kill:ssd0@5"})
	if err != nil {
		t.Fatal(err)
	}
	if lsSame.CacheHits == 0 {
		t.Error("same-schedule local search got no hits from a Search-warmed cache")
	}
	// A local search's revisit-heavy walk hits its own entries within one
	// run, so cross-schedule isolation shows as "no more hits than the same
	// walk against a fresh cache".
	lsFresh, err := LocalSearch(m, d, LocalSearchOptions{Seed: 7, Cache: scorecache.NewScores(4096), FaultsKey: "throttle:ssd1@2"})
	if err != nil {
		t.Fatal(err)
	}
	lsOther, err := LocalSearch(m, d, LocalSearchOptions{Seed: 7, Cache: cache, FaultsKey: "throttle:ssd1@2"})
	if err != nil {
		t.Fatal(err)
	}
	if lsOther.CacheHits != lsFresh.CacheHits {
		t.Errorf("cross-schedule local search took %d hits, fresh-cache walk %d",
			lsOther.CacheHits, lsFresh.CacheHits)
	}
}

// TestSearchCacheInfeasibleMemoized ensures infeasible candidates are
// remembered too — a warm search repeats the infeasibility verdict without
// re-solving, and a fully infeasible search still errors.
func TestSearchCacheInfeasibleMemoized(t *testing.T) {
	m := topology.MachineA()
	d := &flownet.Demand{PerGPU: []float64{gb, gb, gb, gb}, SSDTotal: gb}
	cache := scorecache.NewScores(1024)
	if _, err := Search(m, d, Options{Cache: cache}); err == nil {
		t.Fatal("expected infeasible search to fail")
	}
	if cache.Len() == 0 {
		t.Fatal("infeasible scores not cached")
	}
	if _, err := Search(m, d, Options{Cache: cache}); err == nil {
		t.Fatal("warm infeasible search must still fail")
	}
	h, _, _ := cache.Stats()
	if h == 0 {
		t.Error("warm infeasible search did not use the cache")
	}
}

// TestLocalSearchCache reruns a seeded local search through a shared cache;
// the revisit-heavy walk must hit and agree with the cache-free run.
func TestLocalSearchCache(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	opt := LocalSearchOptions{Seed: 11}
	plain, err := LocalSearch(m, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	cache := scorecache.NewScores(8192)
	opt.Cache = cache
	first, err := LocalSearch(m, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Time != plain.Time {
		t.Errorf("cache changed local search: %v vs %v", first.Time, plain.Time)
	}
	second, err := LocalSearch(m, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != second.Evaluated {
		t.Errorf("second run hit %d of %d evaluations", second.CacheHits, second.Evaluated)
	}
	if second.Time != plain.Time {
		t.Errorf("warm local search %v vs plain %v", second.Time, plain.Time)
	}
}

// TestSearchAndLocalSearchShareCache verifies the two planners use the same
// key space: a local search warmed by an exhaustive search gets hits.
func TestSearchAndLocalSearchShareCache(t *testing.T) {
	m := topology.MachineA()
	d := demand(4)
	cache := scorecache.NewScores(8192)
	if _, err := Search(m, d, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	ls, err := LocalSearch(m, d, LocalSearchOptions{Seed: 7, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if ls.CacheHits == 0 {
		t.Error("local search got no hits from a Search-warmed cache")
	}
}

// TestCacheKeyExported sanity-checks the exported key constructor against
// the keys Search writes.
func TestCacheKeyExported(t *testing.T) {
	m := topology.MachineA()
	d := demand(4)
	cache := scorecache.NewScores(1024)
	res, err := Search(m, d, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(m, res.Best, d, "")
	if err != nil {
		t.Fatal(err)
	}
	s, ok := cache.Get(key)
	if !ok {
		t.Fatal("winner's CacheKey not present in cache")
	}
	if s.Infeasible {
		t.Fatal("winner cached as infeasible")
	}
	got := s.Seconds
	want := res.Time.Sec()
	if got != want {
		t.Errorf("cached %v, result %v", got, want)
	}
}
