package maxflow

import (
	"math"
	"math/rand"
	"testing"

	"moment/internal/faults"
)

// bisectOracle is the time bisection MinTime replaced, kept as its test
// oracle: it doubles a horizon until the demand fits, then halves the
// bracket [lo, hi] until hi−lo ≤ tol·hi, solving each horizon's network
// with sv. Its predicate is exact — the maximum flow delivers all of D —
// because Feasible's own 1e-9 slack would move the boundary below T* by
// more than the bracket's width. Every horizon up to lo delivers less than
// D, and hi delivers D.
func bisectOracle(b *TimeBisector, tol float64, sv Solver) (lo, hi float64, err error) {
	delivers := func(t float64) bool {
		b.apply(t)
		sv.Solve(b.G, b.S, b.T)
		in := 0.0
		for e := EdgeID(0); int(e) < 2*b.G.M(); e += 2 {
			if _, v := b.G.Endpoints(e); v == b.T {
				in += b.G.Flow(e)
			}
		}
		return in >= b.Demand
	}
	if delivers(0) {
		return 0, 0, nil
	}
	hi = 1
	for d := 0; !delivers(hi); d++ {
		if d == 1000 { // 2^1000 s: no finite horizon delivers
			return 0, 0, ErrInfeasible
		}
		lo, hi = hi, 2*hi
	}
	for hi-lo > tol*hi {
		if mid := (lo + hi) / 2; delivers(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi, nil
}

// checkMinTime runs MinTime on b and holds it to the min-time contract:
// the same verdict as the bisection oracle (solving with sv) at tol 1e-9,
// an answer within
// 1e-12 relative of the oracle's final bracket, feasible, and reached in
// at most 8 max-flow solves.
func checkMinTime(t *testing.T, name string, b *TimeBisector, sv Solver) (float64, error) {
	t.Helper()
	got, err := b.MinTime()
	solves := b.Probes
	lo, hi, oerr := bisectOracle(b, 1e-9, sv)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s: MinTime err %v, oracle err %v", name, err, oerr)
	}
	if err != nil {
		return 0, err
	}
	if got < lo*(1-1e-12) || got > hi*(1+1e-12) {
		t.Fatalf("%s: MinTime %.17g outside the oracle bracket [%.17g, %.17g]", name, got, lo, hi)
	}
	if !b.Feasible(got) {
		t.Fatalf("%s: MinTime %.17g is not feasible", name, got)
	}
	if solves > 8 {
		t.Fatalf("%s: MinTime took %d solves, want <= 8", name, solves)
	}
	return got, nil
}

// layeredNet is one randomly generated min-time problem: a layered
// supply→storage→interconnect→gpu→demand network with a guaranteed
// backbone (so demand is always connected) plus random extra rate edges.
type layeredNet struct {
	g   *Graph
	bis *TimeBisector
}

// buildLayered deterministically constructs the network for a seed. The
// storage egress rates are scaled by ssdFactor(i) and the interconnect
// rates by linkFactor, so fault-degraded schedules rebuild the same shape.
func buildLayered(seed int64, ssdFactor func(i int) float64, linkFactor float64) *layeredNet {
	r := rand.New(rand.NewSource(seed))
	nStorage := 2 + r.Intn(3)
	nMid := 1 + r.Intn(3)
	nGPU := 2 + r.Intn(3)

	g := New(2)
	s, t := 0, 1
	storage := make([]int, nStorage)
	for i := range storage {
		storage[i] = g.AddNode("ssd")
	}
	mids := make([]int, nMid)
	for i := range mids {
		mids[i] = g.AddNode("mid")
	}
	gpus := make([]int, nGPU)
	for i := range gpus {
		gpus[i] = g.AddNode("gpu")
	}

	demand := 0.0
	perGPU := make([]float64, nGPU)
	for i := range perGPU {
		perGPU[i] = float64(50+r.Intn(200)) * 1e9
		demand += perGPU[i]
	}
	bis := NewTimeBisector(g, s, t, demand)

	// Supply: generous fixed budgets so storage is never the binding
	// constraint by construction (rates are).
	for _, sn := range storage {
		bis.AddFixedEdge(g.AddEdge(s, sn, 0), demand)
	}
	// Storage egress rate edges: backbone into mid 0 plus random extras.
	ssd := 0
	egress := func(u, v int) {
		bis.AddRateEdge(g.AddEdge(u, v, 0), float64(1+r.Intn(8))*1e9*ssdFactor(ssd))
		ssd++
	}
	for i, sn := range storage {
		egress(sn, mids[0])
		if i%2 == 1 && nMid > 1 {
			egress(sn, mids[1+r.Intn(nMid-1)])
		}
	}
	// Interconnect: mids fully chained, each mid feeds every GPU.
	link := func(u, v int) {
		bis.AddRateEdge(g.AddEdge(u, v, 0), float64(2+r.Intn(16))*1e9*linkFactor)
	}
	for i := 0; i+1 < nMid; i++ {
		link(mids[i], mids[i+1])
	}
	for _, mid := range mids {
		for _, gpu := range gpus {
			link(mid, gpu)
		}
	}
	for i, gpu := range gpus {
		bis.AddFixedEdge(g.AddEdge(gpu, t, 0), perGPU[i])
	}
	return &layeredNet{g: g, bis: bis}
}

func healthy(int) float64 { return 1 }

// TestWarmStartMatchesColdStart is the min-time differential over 100
// seeded layered topologies: MinTime against the bisection oracle, twice
// on the same bisector (state must not carry between calls), with the
// oracle's horizons solved by Dinic, Edmonds–Karp and push–relabel in
// turn. The name dates from the warm-started bisection this
// test used to hold against a cold one; the fast path under test is now
// the Newton iteration, and the reference the plain bisection.
func TestWarmStartMatchesColdStart(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		oracle := Solvers[seed%3]
		w := buildLayered(seed, healthy, 1)
		first, err := checkMinTime(t, "first", w.bis, oracle)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, _ := checkMinTime(t, "again", w.bis, oracle)
		if again != first {
			t.Fatalf("seed %d: repeated MinTime %v, first %v", seed, again, first)
		}
	}
}

// TestWarmStartUnderFaultSchedules replays deterministic fault-degraded
// rate schedules (SSD throttles and link downtrains from internal/faults):
// at every schedule step the network is rebuilt with the degraded rates,
// and MinTime must match the bisection oracle and never beat the healthy
// network.
func TestWarmStartUnderFaultSchedules(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sched := &faults.Schedule{
			Seed: seed,
			Events: []faults.Event{
				faults.ThrottleSSD(0, 2, 0.5, 6),
				faults.ThrottleSSD(1, 5, 0.25, 5),
				faults.Downtrain("up:sw0", 4, 0.5, 4),
			},
		}
		in, err := faults.NewInjector(sched)
		if err != nil {
			t.Fatal(err)
		}
		base, err := buildLayered(seed, healthy, 1).bis.MinTime()
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []float64{0, 3, 6, 9, 12} {
			w := buildLayered(seed, func(i int) float64 { return in.SSDFactor(i, at) }, in.LinkFactor("up:sw0", at))
			got, err := checkMinTime(t, "degraded", w.bis, Dinic)
			if err != nil {
				t.Fatalf("seed %d at %v: %v", seed, at, err)
			}
			if got < base*(1-1e-12) {
				t.Fatalf("seed %d at %v: degraded MinTime %v beats healthy %v", seed, at, got, base)
			}
		}
	}
}

// TestWarmAbortSelfDetection lowers a rate between solves — the bisector
// rebound to the same graph with a halved SSD rate, the way a fault
// re-schedule reuses it — and requires the answer a fresh bisector gives,
// never one left over from the old schedule. (The name dates from the
// warm starts that once had to detect such shrinks.)
func TestWarmAbortSelfDetection(t *testing.T) {
	w := buildLayered(7, healthy, 1)
	before, err := w.bis.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	rates := append([]float64(nil), w.bis.rates...)
	edges := append([]EdgeID(nil), w.bis.rateEdges...)
	fixedEdges := append([]EdgeID(nil), w.bis.fixedEdges...)
	fixed := append([]float64(nil), w.bis.fixed...)
	rates[0] /= 2
	w.bis.Reinit(w.g, w.bis.S, w.bis.T, w.bis.Demand)
	for i, e := range edges {
		w.bis.AddRateEdge(e, rates[i])
	}
	for i, e := range fixedEdges {
		w.bis.AddFixedEdge(e, fixed[i])
	}
	got, err := w.bis.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildLayered(7, func(i int) float64 {
		if i == 0 {
			return 0.5
		}
		return 1
	}, 1)
	want, err := fresh.bis.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("rebound MinTime %v, fresh bisector %v", got, want)
	}
	if got <= before {
		t.Fatalf("halving the binding SSD rate did not slow the network: %v <= %v", got, before)
	}
}

// TestWarmStateStaleAfterExternalShrink shrinks an unregistered edge
// directly on the graph between solves. Every solve starts cold from the
// graph as it is, so the next Feasible and MinTime must see the shrink.
func TestWarmStateStaleAfterExternalShrink(t *testing.T) {
	g := New(3) // 0 = source, 1 = relay, 2 = sink
	sa := g.AddEdge(0, 1, 0)
	at := g.AddEdge(1, 2, 100)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(sa, 100)

	if !b.Feasible(1) {
		t.Fatal("horizon 1 must be feasible before the shrink")
	}
	g.SetCapacity(at, 10)
	if b.Feasible(2) {
		t.Fatal("horizon 2 reported feasible after the relay shrank to 10 bytes")
	}
	if _, err := b.MinTime(); err != ErrInfeasible {
		t.Fatalf("MinTime after the shrink: err %v, want ErrInfeasible", err)
	}
	g.SetCapacity(at, 100)
	if got, err := b.MinTime(); err != nil || got != 1 {
		t.Fatalf("MinTime after restoring the relay = (%v, %v), want (1, nil)", got, err)
	}
}

// TestReinitDropsState verifies arena rebinding: registered edges and
// counters reset while the bisector struct is reused.
func TestReinitDropsState(t *testing.T) {
	w := buildLayered(5, healthy, 1)
	if _, err := w.bis.MinTime(); err != nil {
		t.Fatal(err)
	}
	if w.bis.Probes == 0 {
		t.Fatal("no solves recorded before Reinit")
	}
	g2 := New(2)
	w.bis.Reinit(g2, 0, 1, 42)
	if w.bis.G != g2 || w.bis.Demand != 42 {
		t.Fatal("Reinit did not rebind graph/demand")
	}
	if len(w.bis.rateEdges) != 0 || len(w.bis.fixedEdges) != 0 {
		t.Fatal("Reinit kept registered edges")
	}
	if w.bis.Probes != 0 || w.bis.Iterations != 0 {
		t.Fatal("Reinit kept counters")
	}
	// The recycled bisector must solve a fresh problem correctly.
	e := g2.AddEdge(0, 1, 0)
	w.bis.AddRateEdge(e, 42) // 42 bytes/sec, 42 bytes → 1 second
	got, err := w.bis.MinTime()
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("recycled bisector MinTime = %v, want 1", got)
	}
}

// TestWarmStartLeavesUsableFlow ensures the flow left on the graph after
// MinTime routes exactly the demand (the property flownet's metric
// accessors rely on).
func TestWarmStartLeavesUsableFlow(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		w := buildLayered(seed, healthy, 1)
		if _, err := w.bis.MinTime(); err != nil {
			t.Fatal(err)
		}
		delivered := 0.0
		for _, e := range w.bis.fixedEdges {
			u, _ := w.g.Endpoints(e)
			if u != w.bis.S { // demand edges into the sink
				delivered += w.g.Flow(e)
			}
		}
		if math.Abs(delivered-w.bis.Demand) > relEps(w.bis.Demand)+Eps {
			t.Fatalf("seed %d: flow delivers %.6g of %.6g demand",
				seed, delivered, w.bis.Demand)
		}
	}
}

// TestMinTimeCountsSolves pins the work counters on a two-cut network:
// the t = 0 solve binds the source cut, whose Newton step lands on a
// horizon the demand cut still binds; the second step is exact.
func TestMinTimeCountsSolves(t *testing.T) {
	g := New(3)
	b := NewTimeBisector(g, 0, 2, 100)
	b.AddRateEdge(g.AddEdge(0, 1, 0), 100) // source cut: T ≥ 1
	b.AddRateEdge(g.AddEdge(1, 2, 0), 10)  // demand cut: T ≥ 10
	got, err := b.MinTime()
	if err != nil || got != 10 {
		t.Fatalf("MinTime = (%v, %v), want (10, nil)", got, err)
	}
	if b.Probes != 3 || b.Iterations != 2 {
		t.Fatalf("solves %d, Newton steps %d; want 3 and 2", b.Probes, b.Iterations)
	}
}
