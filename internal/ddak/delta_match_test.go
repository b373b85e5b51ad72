package ddak_test

import (
	"math"
	"math/rand"
	"testing"

	"moment/internal/ddak"
	"moment/internal/gnn"
	"moment/internal/graph"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// matchSeeds is how many seeded instances TestDeltaMatchesOracle replays.
const matchSeeds = 3000

// seededDelta is one delta re-solve to replay against the oracle.
type seededDelta struct {
	items, drifted []ddak.Item
	bins, after    []ddak.Bin // before and after the drift
	pool           int
	scale          float64
}

// newSeededDelta draws 20–2000 items with integral sizes 1–8 over two GPU
// bins, one CPU bin and two SSD bins; a swap, rotate or rescale drift;
// sometimes a shrunk GPU bin and sometimes traffic caps. Every third seed
// carries a block of items with equal hotness and size, so density ties
// meet the bin boundaries and the eviction order.
func newSeededDelta(seed int64) seededDelta {
	r := rand.New(rand.NewSource(seed))
	n := 20 + r.Intn(1981)
	items := make([]ddak.Item, n)
	var total float64
	for i := range items {
		items[i] = ddak.Item{Hot: 1 / math.Pow(float64(i+1), 0.5+r.Float64()), Bytes: float64(1 + r.Intn(8))}
	}
	if seed%3 == 0 {
		start, k := r.Intn(n), 2+r.Intn(n/4+1)
		for i := start; i < start+k && i < n; i++ {
			items[i] = items[start]
		}
	}
	r.Shuffle(n, func(i, j int) { items[i], items[j] = items[j], items[i] })
	for _, it := range items {
		total += it.Bytes
	}
	bins := []ddak.Bin{
		{Name: "g0", Tier: ddak.TierGPU, Capacity: total * (0.01 + 0.05*r.Float64()), Traffic: 100 + 900*r.Float64()},
		{Name: "g1", Tier: ddak.TierGPU, Capacity: total * (0.01 + 0.05*r.Float64()), Traffic: 100 + 900*r.Float64()},
		{Name: "c", Tier: ddak.TierCPU, Capacity: total * (0.1 + 0.2*r.Float64()), Traffic: 50 + 500*r.Float64()},
		{Name: "s0", Tier: ddak.TierSSD, Capacity: total * 0.75, Traffic: 10 + 100*r.Float64()},
		{Name: "s1", Tier: ddak.TierSSD, Capacity: total * 0.75, Traffic: 10 + 100*r.Float64()},
	}
	d := seededDelta{items: items, bins: bins, pool: 1 + r.Intn(100)}
	if r.Intn(2) == 0 {
		d.scale = 1 + 255*r.Float64()
	}
	d.after = append([]ddak.Bin(nil), bins...)
	if r.Intn(3) == 0 {
		d.after[r.Intn(2)].Capacity *= 0.3 + 0.6*r.Float64()
	}
	d.drifted = append([]ddak.Item(nil), items...)
	mag := 1 + r.Intn(n)
	switch seed % 3 {
	case 0: // random swaps
		for k := 0; k < mag; k++ {
			i, j := r.Intn(n), r.Intn(n)
			d.drifted[i].Hot, d.drifted[j].Hot = d.drifted[j].Hot, d.drifted[i].Hot
		}
	case 1: // rotate hotness by mag
		for i := range d.drifted {
			d.drifted[i].Hot = items[(i+mag)%n].Hot
		}
	case 2: // rescale a prefix
		for i := 0; i < mag; i++ {
			d.drifted[i].Hot *= r.Float64()
		}
	}
	return d
}

// driftRowInstance is the drift bench row's DDAK instance: machine B,
// classic layout C, IG with GraphSAGE, partitioned caches, 2000 rank
// buckets.
func driftRowInstance(tb testing.TB) *trainsim.DeltaInstance {
	tb.Helper()
	m := topology.MachineB()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := graph.DatasetByName("IG")
	if err != nil {
		tb.Fatal(err)
	}
	in, err := trainsim.DriftDeltaInstance(trainsim.Config{
		Machine:         m,
		Placement:       p,
		Workload:        trainsim.Workload{Dataset: d, Model: gnn.KindSAGE},
		Cache:           trainsim.CachePartitioned,
		VirtualVertices: 2000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// TestDeltaMatchesOracle holds PlaceItemsDelta's sorted-window repair to
// the rescan-and-resort oracle bit for bit — layout, accounting, pools and
// migration bill — on seeded instances and on the drift bench row's
// instance under every drift kind.
func TestDeltaMatchesOracle(t *testing.T) {
	t.Run("seeded", func(t *testing.T) {
		replayed, fellBack := 0, 0
		for seed := int64(0); seed < matchSeeds; seed++ {
			d := newSeededDelta(seed)
			prev, err := ddak.PlaceItems(d.items, d.bins, d.pool, d.scale)
			if err != nil {
				continue
			}
			got, gotErr := ddak.PlaceItemsDelta(d.items, prev, d.drifted, d.after, d.pool, d.scale, ddak.DeltaOptions{})
			want, wantErr := ddak.PlaceItemsDeltaOracle(d.items, prev, d.drifted, d.after, d.pool, d.scale, ddak.DeltaOptions{})
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("seed %d: error %v, oracle error %v", seed, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if diff := ddak.DeltaMismatch(got, want); diff != "" {
				t.Fatalf("seed %d (%d items): %s", seed, len(d.items), diff)
			}
			replayed++
			if got.FellBack {
				fellBack++
			}
		}
		if replayed < matchSeeds*9/10 {
			t.Fatalf("only %d of %d seeded instances were feasible", replayed, matchSeeds)
		}
		if fellBack == 0 || fellBack == replayed {
			t.Fatalf("%d of %d replays fell back: both paths must be covered", fellBack, replayed)
		}
	})

	in := driftRowInstance(t)
	for _, kind := range []trainsim.DriftKind{trainsim.DriftRotate, trainsim.DriftFlip, trainsim.DriftOscillate, trainsim.DriftShuffle} {
		t.Run("drift-row/"+kind.String(), func(t *testing.T) {
			s := trainsim.DriftSchedule{Every: 1, Kind: kind, Mag: 0.2, Seed: 42}
			rng := rand.New(rand.NewSource(s.Seed))
			items := in.Items
			prev, err := ddak.PlaceItems(items, in.Bins, in.PoolN, in.TrafficScale)
			if err != nil {
				t.Fatal(err)
			}
			// Chained events, as the adaptive loop replans from its last
			// delta layout.
			for ev := 0; ev < 3; ev++ {
				hot := make([]float64, len(items))
				for i, it := range items {
					hot[i] = it.Hot
				}
				s.Apply(hot, rng, ev)
				drifted := append([]ddak.Item(nil), items...)
				for i := range drifted {
					drifted[i].Hot = hot[i]
				}
				got, err := ddak.PlaceItemsDelta(items, prev, drifted, in.Bins, in.PoolN, in.TrafficScale, ddak.DeltaOptions{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ddak.PlaceItemsDeltaOracle(items, prev, drifted, in.Bins, in.PoolN, in.TrafficScale, ddak.DeltaOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if diff := ddak.DeltaMismatch(got, want); diff != "" {
					t.Fatalf("event %d (%d items): %s", ev, len(items), diff)
				}
				t.Logf("event %d: %d items, %d moved, fell back %v", ev, len(items), got.MovedItems, got.FellBack)
				items, prev = drifted, got.Assignment
			}
		})
	}
}

// BenchmarkPlaceItemsDelta re-solves the drift bench row's instance after
// one shuffle event at magnitude 0.2, the drift shape whose repair pass
// evicts the most.
func BenchmarkPlaceItemsDelta(b *testing.B) {
	in := driftRowInstance(b)
	prev, err := ddak.PlaceItems(in.Items, in.Bins, in.PoolN, in.TrafficScale)
	if err != nil {
		b.Fatal(err)
	}
	s := trainsim.DriftSchedule{Every: 1, Kind: trainsim.DriftShuffle, Mag: 0.2, Seed: 42}
	hot := make([]float64, len(in.Items))
	for i, it := range in.Items {
		hot[i] = it.Hot
	}
	s.Apply(hot, rand.New(rand.NewSource(s.Seed)), 0)
	drifted := append([]ddak.Item(nil), in.Items...)
	for i := range drifted {
		drifted[i].Hot = hot[i]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddak.PlaceItemsDelta(in.Items, prev, drifted, in.Bins, in.PoolN, in.TrafficScale, ddak.DeltaOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
