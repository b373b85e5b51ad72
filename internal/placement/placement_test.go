package placement

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"moment/internal/flownet"
	"moment/internal/topology"
)

const gb = 1 << 30

func demand(numGPU int) *flownet.Demand {
	per := make([]float64, numGPU)
	hbm := make([]float64, numGPU)
	for i := range per {
		per[i] = 100 * gb
		hbm[i] = 10 * gb
	}
	total := float64(numGPU) * 100 * gb
	return &flownet.Demand{
		PerGPU:   per,
		HBMPeer:  hbm,
		DRAM:     map[string]float64{"rc0": 25 * gb, "rc1": 25 * gb},
		SSDTotal: total - 50*gb - float64(numGPU)*10*gb,
	}
}

func TestEnumerateCountsMachineA(t *testing.T) {
	m := topology.MachineA()
	ps, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	// GPUs: 4 into caps (0,0,4,4) -> 5 ways; SSDs: 8 into (8,8,0,0) -> 9.
	if len(ps) != 45 {
		t.Errorf("enumerated %d, want 45", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(m); err != nil {
			t.Errorf("invalid candidate %v: %v", p, err)
		}
	}
}

func TestEnumerateRespectsSlotCaps(t *testing.T) {
	m := topology.MachineB()
	ps, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		gpus, ssds := p.Counts()
		for at, n := range gpus {
			pt, _ := m.Point(at)
			if n > pt.GPUSlots {
				t.Fatalf("candidate overfills %s with %d GPUs", at, n)
			}
		}
		for at, n := range ssds {
			pt, _ := m.Point(at)
			if n > pt.Bays {
				t.Fatalf("candidate overfills %s with %d SSDs", at, n)
			}
		}
	}
}

func TestCompositions(t *testing.T) {
	cs := compositions(3, []int{2, 2})
	// (1,2),(2,1) are both allowed; (3,0),(0,3) exceed caps.
	if len(cs) != 2 {
		t.Fatalf("compositions(3,[2,2]) = %v", cs)
	}
	if len(compositions(0, []int{2, 2})) != 1 {
		t.Error("zero total should have exactly the empty composition")
	}
	if len(compositions(5, []int{2, 2})) != 0 {
		t.Error("infeasible total should have no compositions")
	}
}

// TestCountCandidatesMatchesEnumerate pins the counting DP to the
// listing on every real machine: A (45), B (144), C and the
// examples/customserver chassis (370).
func TestCountCandidatesMatchesEnumerate(t *testing.T) {
	for _, m := range []*topology.Machine{topology.MachineA(), topology.MachineB(), topology.MachineC(), customMachine(t)} {
		ps, err := Enumerate(m)
		if err != nil {
			t.Fatal(err)
		}
		if got := CountCandidates(m); got != len(ps) {
			t.Errorf("%s: CountCandidates %d, Enumerate lists %d", m.Name, got, len(ps))
		}
	}
}

// TestCountCompositions holds the counting DP to the listing on random
// small cap vectors, and to closed forms where it saturates or short-cuts.
func TestCountCompositions(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		caps := make([]int, 1+r.Intn(6))
		for j := range caps {
			caps[j] = r.Intn(5)
		}
		total := r.Intn(16) - 1
		want := 0
		if total >= 0 {
			want = len(compositions(total, caps))
		}
		if got := countCompositions(total, caps); got != want {
			t.Fatalf("countCompositions(%d, %v) = %d, want %d", total, caps, got, want)
		}
	}
	const sat = MaxCandidates + 1
	ones := func(k int) []int {
		caps := make([]int, k)
		for i := range caps {
			caps[i] = 1
		}
		return caps
	}
	for _, tc := range []struct {
		name  string
		total int
		caps  []int
		want  int
	}{
		{"one wide point", 1 << 30, []int{1 << 30, 0}, 1},
		{"two wide points", 1 << 30, []int{1 << 30, 1 << 30}, sat},
		{"362 choose 2", 2, ones(362), 362 * 361 / 2},
		{"363 choose 2", 2, ones(363), sat},
		{"one slack unit", 1<<20 - 1, ones(1 << 20), sat},
		{"pair just saturates", 1 << 16, []int{1 << 16, 1 << 16}, sat},
		{"pair just below", 1<<16 - 1, []int{1<<16 - 1, 1<<16 - 1}, 1 << 16},
	} {
		if got := countCompositions(tc.total, tc.caps); got != tc.want {
			t.Errorf("%s: countCompositions = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestEnumerateRejectsTooManyCandidates: one root and six switches of 4
// GPU slots and 4 bays holding 6 GPUs and 6 SSDs is 426² = 181,476
// placements, past MaxCandidates; Enumerate refuses it without listing.
func TestEnumerateRejectsTooManyCandidates(t *testing.T) {
	m := &topology.Machine{
		Name: "wide", QPIBW: 1, DRAMPerSocket: 1, DRAMBW: 1, GPUMemory: 1,
		SSDCapacity: 1, SSDBW: 1, SSDIOPS: 1, PCIeX16: 1, PCIeX4: 1, NumNodes: 1,
		NumGPUs: 6, NumSSDs: 6,
		Points: []topology.AttachPoint{{ID: "rc0", Kind: topology.RootComplex}},
	}
	for i := 0; i < 6; i++ {
		m.Points = append(m.Points, topology.AttachPoint{ID: fmt.Sprintf("sw%d", i),
			Kind: topology.Switch, Parent: "rc0", UplinkBW: 1, Bays: 4, GPUSlots: 4})
	}
	if got := CountCandidates(m); got != MaxCandidates+1 {
		t.Errorf("CountCandidates = %d, want saturated %d", got, MaxCandidates+1)
	}
	if _, err := Enumerate(m); err == nil {
		t.Fatal("Enumerate listed 181,476 candidates")
	}
	m.NumGPUs, m.NumSSDs = 2, 2 // 21² = 441
	if ps, err := Enumerate(m); err != nil || len(ps) != 441 {
		t.Fatalf("2 GPUs, 2 SSDs: %d candidates, %v; want 441", len(ps), err)
	}
}

func TestDedupeMachineAMirrorSymmetry(t *testing.T) {
	m := topology.MachineA()
	all, err := Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	ded, err := Dedupe(m, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ded) >= len(all) {
		t.Fatalf("dedupe removed nothing: %d -> %d", len(all), len(ded))
	}
	// Machine A's sockets mirror each other, so roughly half the
	// candidates are redundant (diagonal ones are self-symmetric).
	if len(ded) > len(all)*2/3 {
		t.Errorf("dedupe too weak: %d -> %d", len(all), len(ded))
	}
}

func TestCanonicalKeyInvariantUnderMirror(t *testing.T) {
	m := topology.MachineA()
	// 3 GPUs on sw0 + 1 on sw1, SSDs 5 rc0 + 3 rc1 — and its mirror.
	p1 := &topology.Placement{
		GPUAt: []string{"sw0", "sw0", "sw0", "sw1"},
		SSDAt: []string{"rc0", "rc0", "rc0", "rc0", "rc0", "rc1", "rc1", "rc1"},
	}
	p2 := &topology.Placement{
		GPUAt: []string{"sw1", "sw1", "sw1", "sw0"},
		SSDAt: []string{"rc1", "rc1", "rc1", "rc1", "rc1", "rc0", "rc0", "rc0"},
	}
	k1, err := CanonicalKey(m, p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey(m, p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("mirror placements got different keys:\n%s\n%s", k1, k2)
	}
	// A genuinely different placement must differ.
	p3 := &topology.Placement{
		GPUAt: []string{"sw0", "sw0", "sw1", "sw1"},
		SSDAt: p1.SSDAt,
	}
	k3, err := CanonicalKey(m, p3)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("different placements share a key")
	}
}

func TestCanonicalKeyNotInvariantOnAsymmetricB(t *testing.T) {
	// Machine B's sockets are NOT symmetric (rc1 has bays, rc0 hosts the
	// switch cascade), so "mirrored" placements must stay distinct.
	m := topology.MachineB()
	p1 := &topology.Placement{
		GPUAt: []string{"rc0", "sw0", "sw0", "sw1"},
		SSDAt: []string{"rc1", "rc1", "rc1", "rc1", "sw0", "sw0", "sw1", "sw1"},
	}
	p2 := &topology.Placement{
		GPUAt: []string{"rc1", "sw0", "sw0", "sw1"},
		SSDAt: p1.SSDAt,
	}
	k1, err := CanonicalKey(m, p1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CanonicalKey(m, p2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("asymmetric sockets collapsed by canonical key")
	}
}

func TestCanonicalKeyPermutationProperty(t *testing.T) {
	// Shuffling device order within a placement never changes the key
	// (PCIe switch symmetry: same-point devices are interchangeable).
	m := topology.MachineB()
	r := rand.New(rand.NewSource(3))
	base := &topology.Placement{
		GPUAt: []string{"rc0", "sw0", "sw1", "sw1"},
		SSDAt: []string{"rc1", "rc1", "sw0", "sw0", "rc1", "sw1", "sw1", "rc1"},
	}
	want, err := CanonicalKey(m, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p := base.Clone()
		r.Shuffle(len(p.GPUAt), func(a, b int) { p.GPUAt[a], p.GPUAt[b] = p.GPUAt[b], p.GPUAt[a] })
		r.Shuffle(len(p.SSDAt), func(a, b int) { p.SSDAt[a], p.SSDAt[b] = p.SSDAt[b], p.SSDAt[a] })
		got, err := CanonicalKey(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shuffle %d changed key", i)
		}
	}
}

func TestSearchMachineABeatsClassics(t *testing.T) {
	m := topology.MachineA()
	d := demand(4)
	res, err := Search(m, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Time <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		p, err := topology.ClassicPlacement(m, l)
		if err != nil {
			t.Fatal(err)
		}
		n, err := flownet.Build(m, p, d)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := n.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Time.Sec() > ct.Sec()*1.001 {
			t.Errorf("search result %.3fs worse than classic %v %.3fs", res.Time.Sec(), l, ct.Sec())
		}
	}
}

func TestSearchMachineBBeatsClassics(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	res, err := Search(m, d, Options{KeepScores: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []topology.ClassicLayout{topology.LayoutA, topology.LayoutB, topology.LayoutC, topology.LayoutD} {
		p, err := topology.ClassicPlacement(m, l)
		if err != nil {
			t.Fatal(err)
		}
		n, err := flownet.Build(m, p, d)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := n.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Time.Sec() > ct.Sec()*1.001 {
			t.Errorf("search result %.3fs worse than classic %v %.3fs", res.Time.Sec(), l, ct.Sec())
		}
	}
	if len(res.Scores) != res.Evaluated {
		t.Errorf("scores %d != evaluated %d", len(res.Scores), res.Evaluated)
	}
	// Scores must be sorted ascending among the error-free prefix.
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i].Err != nil {
			break
		}
		if res.Scores[i].Time < res.Scores[i-1].Time {
			t.Error("scores not sorted")
			break
		}
	}
}

func TestSearchDedupeConsistency(t *testing.T) {
	// Skipping symmetry reduction must not change the optimum.
	m := topology.MachineA()
	d := demand(4)
	withDedupe, err := Search(m, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Search(m, d, Options{SkipDedupe: true})
	if err != nil {
		t.Fatal(err)
	}
	rel := (withDedupe.Time - without.Time).Sec() / without.Time.Sec()
	if rel > 0.001 || rel < -0.001 {
		t.Errorf("dedupe changed optimum: %.4fs vs %.4fs", withDedupe.Time.Sec(), without.Time.Sec())
	}
	if withDedupe.Evaluated >= without.Evaluated {
		t.Errorf("dedupe did not shrink evaluations: %d vs %d",
			withDedupe.Evaluated, without.Evaluated)
	}
}

func TestSearchReducedGPUCounts(t *testing.T) {
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		for n := 1; n <= 4; n++ {
			m := mk().WithGPUs(n)
			res, err := Search(m, demand(n), Options{})
			if err != nil {
				t.Fatalf("%s n=%d: %v", m.Name, n, err)
			}
			if len(res.Best.GPUAt) != n {
				t.Errorf("%s n=%d: best has %d GPUs", m.Name, n, len(res.Best.GPUAt))
			}
		}
	}
}

func TestSearchParallelismDeterministicOptimum(t *testing.T) {
	m := topology.MachineB()
	d := demand(4)
	r1, err := Search(m, d, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Search(m, d, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	rel := (r1.Time - r8.Time).Sec() / r1.Time.Sec()
	if rel > 1e-6 || rel < -1e-6 {
		t.Errorf("optimum depends on parallelism: %v vs %v", r1.Time, r8.Time)
	}
}

func TestSearchInfeasible(t *testing.T) {
	m := topology.MachineA()
	// Demand exceeding any storage supply is rejected at Build time for
	// every candidate, so the search must fail cleanly.
	d := &flownet.Demand{PerGPU: []float64{gb, gb, gb, gb}, SSDTotal: gb}
	if _, err := Search(m, d, Options{}); err == nil {
		t.Fatal("expected search failure")
	}
}

func TestLocalSearchMatchesExhaustiveOnAB(t *testing.T) {
	for _, mk := range []func() *topology.Machine{topology.MachineA, topology.MachineB} {
		m := mk()
		d := demand(4)
		exact, err := Search(m, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := LocalSearch(m, d, LocalSearchOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		rel := (ls.Time - exact.Time).Sec() / exact.Time.Sec()
		if rel > 0.01 {
			t.Errorf("machine %s: local search %.3fs vs exhaustive %.3fs (%.1f%% worse)",
				m.Name, ls.Time.Sec(), exact.Time.Sec(), rel*100)
		}
		if err := ls.Best.Validate(m); err != nil {
			t.Errorf("machine %s: invalid local-search placement: %v", m.Name, err)
		}
	}
}

func TestLocalSearchHandlesLargeChassis(t *testing.T) {
	// A chassis with many slots: exhaustive enumeration would be large,
	// local search stays bounded.
	m := &topology.Machine{
		Name: "big",
		Points: []topology.AttachPoint{
			{ID: "rc0", Kind: topology.RootComplex, Bays: 8, GPUSlots: 2},
			{ID: "rc1", Kind: topology.RootComplex, Bays: 8, GPUSlots: 2},
			{ID: "sw0", Kind: topology.Switch, Parent: "rc0", UplinkBW: topology.PCIe4x16, Bays: 4, GPUSlots: 4},
			{ID: "sw1", Kind: topology.Switch, Parent: "rc0", UplinkBW: topology.PCIe4x16, Bays: 4, GPUSlots: 4},
			{ID: "sw2", Kind: topology.Switch, Parent: "rc1", UplinkBW: topology.PCIe4x16, Bays: 4, GPUSlots: 4},
			{ID: "sw3", Kind: topology.Switch, Parent: "rc1", UplinkBW: topology.PCIe4x16, Bays: 4, GPUSlots: 4},
		},
		QPIBW:         topology.QPIRate,
		DRAMPerSocket: 256 << 30,
		DRAMBW:        topology.DRAMServeBW,
		NumGPUs:       8,
		NumSSDs:       16,
		GPUMemory:     40 << 30,
		GPUCacheFrac:  0.15,
		SSDCapacity:   3840e9,
		SSDBW:         topology.P5510BW,
		SSDIOPS:       930000,
		PCIeX16:       topology.PCIe4x16,
		PCIeX4:        topology.PCIe4x4,
		NumNodes:      1,
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	per := make([]float64, 8)
	hbm := make([]float64, 8)
	for i := range per {
		per[i] = 100 * gb
		hbm[i] = 10 * gb
	}
	d := &flownet.Demand{
		PerGPU:   per,
		HBMPeer:  hbm,
		DRAM:     map[string]float64{"rc0": 25 * gb, "rc1": 25 * gb},
		SSDTotal: 800*gb - 50*gb - 80*gb,
	}
	res, err := LocalSearch(m, d, LocalSearchOptions{Seed: 5, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// Must beat a naive packed placement.
	packed := &topology.Placement{
		GPUAt: fill(fill(nil, "sw0", 4), "sw1", 4),
		SSDAt: fill(fill(nil, "rc0", 8), "rc1", 8),
	}
	n, err := flownet.Build(m, packed, d)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Time.Sec() > pt.Sec()*1.001 {
		t.Errorf("local search %.3fs worse than naive packed %.3fs", res.Time.Sec(), pt.Sec())
	}
}

func TestLocalSearchErrors(t *testing.T) {
	bad := topology.MachineA()
	bad.Points = nil
	if _, err := LocalSearch(bad, demand(4), LocalSearchOptions{}); err == nil {
		t.Error("invalid machine accepted")
	}
}

func fill(s []string, id string, n int) []string {
	for i := 0; i < n; i++ {
		s = append(s, id)
	}
	return s
}

func TestSearchAdaptsToDegradedQPI(t *testing.T) {
	// Profiling-driven planning (§3.1): if the measured QPI rate is low,
	// the chosen placement must avoid cross-socket traffic harder — its
	// predicted time under the degraded fabric must beat the placement
	// chosen assuming a healthy fabric.
	healthy := topology.MachineB()
	degraded := topology.MachineB()
	degraded.QPIBW = topology.QPIRate / 4
	d := demand(4)
	onHealthy, err := Search(healthy, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	onDegraded, err := Search(degraded, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Score the healthy-fabric choice on the degraded machine.
	n, err := flownet.Build(degraded, onHealthy.Best, d)
	if err != nil {
		t.Fatal(err)
	}
	tHealthyChoice, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if onDegraded.Time.Sec() > tHealthyChoice.Sec()*1.001 {
		t.Errorf("degraded-aware search %.3fs worse than naive choice %.3fs",
			onDegraded.Time.Sec(), tHealthyChoice.Sec())
	}
}

// Regression: Search used to spawn one goroutine per candidate before
// acquiring the semaphore, so a large enumeration launched thousands of
// goroutines at once. The worker pool must run at most Parallelism
// concurrent evaluations and allocate at most Parallelism worker
// goroutines.
func TestSearchWorkerPoolBounded(t *testing.T) {
	const parallelism = 2
	var cur, peak, calls int64
	evalHook = func() {
		n := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
				break
			}
		}
		atomic.AddInt64(&calls, 1)
		time.Sleep(100 * time.Microsecond) // widen the overlap window
		atomic.AddInt64(&cur, -1)
	}
	defer func() { evalHook = nil }()

	before := runtime.NumGoroutine()
	m := topology.MachineB()
	res, err := Search(m, demand(4), Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best placement")
	}
	if int(calls) != res.Evaluated {
		t.Errorf("hook saw %d evaluations, want %d", calls, res.Evaluated)
	}
	if peak > parallelism {
		t.Errorf("%d concurrent evaluations, Parallelism=%d", peak, parallelism)
	}
	// All workers must have exited; no goroutine leak either.
	after := runtime.NumGoroutine()
	if after > before+1 {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// The pool must also cap itself at the candidate count (no idle workers
// blocking on an empty channel) and finish with a huge Parallelism.
func TestSearchWorkerPoolMoreWorkersThanCandidates(t *testing.T) {
	m := topology.MachineA().WithGPUs(1)
	res, err := Search(m, demand(1), Options{Parallelism: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Time <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}
