package ddak

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// densityOrderOracle is densityOrder on sort.SliceStable.
func densityOrderOracle(items []Item) []int32 {
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := items[order[i]], items[order[j]]
		return a.Hot*b.Bytes > b.Hot*a.Bytes
	})
	return order
}

// placeItemsDeltaOracle is the reference delta re-solve for
// PlaceItemsDelta: its repair pass rescans a bin's whole resident list for
// every eviction query (evictable) and re-sorts that list on every
// eviction (evict). TestDeltaMatchesOracle and FuzzPlaceItemsDelta hold
// PlaceItemsDelta's sorted windows to its results field for field.
func placeItemsDeltaOracle(prevItems []Item, prev *ItemAssignment, items []Item, bins []Bin, poolN int, trafficScale float64, opt DeltaOptions) (*DeltaResult, error) {
	if prev == nil {
		return nil, fmt.Errorf("ddak: delta re-solve needs a previous assignment")
	}
	if err := checkItems(items, bins); err != nil {
		return nil, err
	}
	if len(prevItems) != len(items) {
		return nil, fmt.Errorf("ddak: delta item count changed: %d -> %d", len(prevItems), len(items))
	}
	if len(prev.Of) != len(prevItems) {
		return nil, fmt.Errorf("ddak: previous assignment covers %d items, not %d", len(prev.Of), len(prevItems))
	}
	if len(bins) != len(prev.Bins) {
		return nil, fmt.Errorf("ddak: delta bin count changed: %d -> %d", len(prev.Bins), len(bins))
	}
	for i := range bins {
		if bins[i].Tier != prev.Bins[i].Tier {
			return nil, fmt.Errorf("ddak: bin %d tier changed %s -> %s", i, prev.Bins[i].Tier, bins[i].Tier)
		}
	}
	var totalBytes float64
	for i := range items {
		if items[i].Bytes != prevItems[i].Bytes {
			return nil, fmt.Errorf("ddak: item %d bytes changed %.0f -> %.0f (delta handles hotness drift only)",
				i, prevItems[i].Bytes, items[i].Bytes)
		}
		totalBytes += items[i].Bytes
	}
	maxFrac := opt.MaxMoveFrac
	if maxFrac <= 0 {
		maxFrac = 0.5
	}
	o := opt.Observer
	sp := o.Begin("ddak_delta")
	sp.SetInt("items", len(items))
	defer sp.End()

	oldOrder := densityOrderOracle(prevItems)
	newOrder := densityOrderOracle(items)

	a := &ItemAssignment{
		Bins:   append([]Bin(nil), bins...),
		Of:     make([]int32, len(items)),
		Used:   make([]float64, len(bins)),
		Access: make([]float64, len(bins)),
	}
	free := make([]float64, len(bins))
	for i, b := range bins {
		free[i] = b.Capacity
	}
	for i := range a.Of {
		a.Of[i] = -1
	}
	residents := make([][]int32, len(bins))
	place := func(v int32, bin int) {
		it := items[v]
		a.Of[v] = int32(bin)
		a.Used[bin] += it.Bytes
		a.Access[bin] += it.Hot
		free[bin] -= it.Bytes
		residents[bin] = append(residents[bin], v)
	}
	// denser reports whether item x has strictly higher access density
	// than item y (cross-multiplied, no division).
	denser := func(x, y int32) bool {
		return items[x].Hot*items[y].Bytes > items[y].Hot*items[x].Bytes
	}

	// Tentative pass: new rank r inherits old rank r's bin. Deferred
	// items stay in rank order, so the repair pass below is hot-first.
	var deferred []int32
	for r, v := range newOrder {
		bin := prev.Of[oldOrder[r]]
		if int(bin) < len(bins) && bin >= 0 && free[bin] >= items[v].Bytes {
			place(v, int(bin))
		} else {
			deferred = append(deferred, v)
		}
	}

	// Repair pass: same tiered minimum-priority fill as PlaceItems,
	// traffic caps honored until no uncapped bin can take the item. A
	// deferred item that finds no room in a tier may evict strictly
	// colder (lower-density) residents to make space before spilling to
	// the next tier — without this, a hot item whose byte size outgrew
	// its rank's bin would strand on SSD behind the colder items the
	// tentative pass already seated, and the layout quality would not
	// track a full re-solve. Evictees rejoin the queue; density strictly
	// decreases along any eviction chain, so the repair terminates.
	priority := func(i int) float64 {
		b := a.Bins[i]
		fill := 0.0
		if b.Capacity > 0 {
			fill = a.Used[i] / b.Capacity
		}
		if b.Traffic <= 0 {
			return math.Inf(1)
		}
		return (a.Access[i] / b.Traffic) * fill
	}
	capped := func(i int) bool {
		if trafficScale <= 0 {
			return false
		}
		return a.Access[i]*trafficScale >= a.Bins[i].Traffic
	}
	// evictable returns the bytes bin i could free for item v by evicting
	// strictly colder residents.
	evictable := func(i int, v int32) float64 {
		sum := 0.0
		for _, w := range residents[i] {
			if denser(v, w) {
				sum += items[w].Bytes
			}
		}
		return sum
	}
	evict := func(bin int, v int32, need float64) []int32 {
		// Coldest first, so the evicted set is minimal in mass.
		sort.SliceStable(residents[bin], func(i, j int) bool {
			return denser(residents[bin][j], residents[bin][i])
		})
		var out []int32
		kept := residents[bin][:0]
		for _, w := range residents[bin] {
			if free[bin] < need && denser(v, w) {
				a.Of[w] = -1
				a.Used[bin] -= items[w].Bytes
				a.Access[bin] -= items[w].Hot
				free[bin] += items[w].Bytes
				out = append(out, w)
				continue
			}
			kept = append(kept, w)
		}
		residents[bin] = kept
		return out
	}
	fallBack := false
	for qi := 0; qi < len(deferred); qi++ {
		if len(deferred) > 8*len(items) {
			// Eviction churn: the repair is thrashing, a full re-solve
			// is cheaper and strictly better. (Chains shorten by density
			// each step so this is a belt-and-braces bound, not an
			// expected path.)
			fallBack = true
			break
		}
		v := deferred[qi]
		need := items[v].Bytes
		bin := -1
		for _, tier := range []Tier{TierGPU, TierCPU, TierSSD} {
			inTier := func(i int) bool { return a.Bins[i].Tier == tier }
			tierOf := func(i int) Tier { return a.Bins[i].Tier }
			// Free space first, honoring traffic caps.
			bin = pickBin(len(a.Bins),
				func(i int) bool { return inTier(i) && free[i] >= need && !capped(i) },
				priority, tierOf)
			if bin >= 0 {
				break
			}
			// Then eviction of strictly colder residents.
			bin = pickBin(len(a.Bins),
				func(i int) bool { return inTier(i) && free[i]+evictable(i, v) >= need },
				priority, tierOf)
			if bin >= 0 {
				for _, w := range evict(bin, v, need) {
					// Re-queue the evictee in density position so the
					// remaining repair stays hot-first.
					at := len(deferred)
					for k := qi + 1; k < len(deferred); k++ {
						if denser(w, deferred[k]) {
							at = k
							break
						}
					}
					deferred = append(deferred, 0)
					copy(deferred[at+1:], deferred[at:])
					deferred[at] = w
				}
				break
			}
		}
		if bin < 0 {
			// Caps blocked everything: capacity alone governs now, still
			// preferring the fastest tier with room (as PlaceItems does).
			for _, tier := range []Tier{TierGPU, TierCPU, TierSSD} {
				bin = pickBin(len(a.Bins),
					func(i int) bool { return a.Bins[i].Tier == tier && free[i] >= need },
					priority,
					func(i int) Tier { return a.Bins[i].Tier })
				if bin >= 0 {
					break
				}
			}
		}
		if bin < 0 {
			return nil, fmt.Errorf("ddak: delta repair: no bin can hold item %d (%.0f bytes)", v, need)
		}
		place(v, bin)
		a.Pools++
	}

	// Promotion pass: when the new top ranks shrank in bytes, the
	// tentative map leaves fast bins underfilled — and no deferred item
	// exists to claim the space. A full re-solve would fill every cache
	// bin to its capacity (or traffic cap) with the densest items, so
	// the delta must too or its hit rate detaches from the oracle's.
	// One density-ordered walk per cache tier: each item currently on a
	// strictly slower tier takes target-tier free space if it fits and
	// the bin is uncapped. GPU first, then CPU (which by then also owns
	// the space GPU promotions vacated). Skipped when nothing changed:
	// the full solve's pooling leaves fittable riders on slow tiers, and
	// "promoting" those on an undrifted input would break the delta's
	// no-drift-is-a-no-op contract.
	sameBins := true
	for i := range bins {
		if bins[i] != prev.Bins[i] {
			sameBins = false
			break
		}
	}
	preMoved, _ := diffMoves(prev, a, items)
	if !fallBack && (preMoved > 0 || !sameBins) {
		unplace := func(v int32) {
			bin := a.Of[v]
			a.Of[v] = -1
			a.Used[bin] -= items[v].Bytes
			a.Access[bin] -= items[v].Hot
			free[bin] += items[v].Bytes
			for k, w := range residents[bin] {
				if w == v {
					residents[bin] = append(residents[bin][:k], residents[bin][k+1:]...)
					break
				}
			}
		}
		for _, target := range []Tier{TierGPU, TierCPU} {
			for _, v := range newOrder {
				cur := a.Of[v]
				if cur < 0 || a.Bins[cur].Tier <= target {
					continue
				}
				need := items[v].Bytes
				bin := pickBin(len(a.Bins),
					func(i int) bool {
						return a.Bins[i].Tier == target && free[i] >= need && !capped(i)
					},
					priority,
					func(i int) Tier { return a.Bins[i].Tier })
				if bin < 0 {
					continue
				}
				unplace(v)
				place(v, bin)
				a.Pools++
			}
		}
	}

	moved, movedBytes := 0, 0.0
	if !fallBack {
		moved, movedBytes = diffMoves(prev, a, items)
	}
	if fallBack || movedBytes > maxFrac*totalBytes {
		// The structural delta would move too much — a full re-solve is
		// at least as good a layout for the same (or larger) bill, and
		// the caller budgeted for it.
		full, err := PlaceItemsObserved(items, bins, poolN, trafficScale, o)
		if err != nil {
			return nil, err
		}
		fm, fb := diffMoves(prev, full, items)
		if o != nil {
			o.Counter("ddak_delta_fallbacks_total").Add(1)
			o.Counter("ddak_delta_moved_items_total").Add(float64(fm))
		}
		sp.SetInt("moved", fm)
		return &DeltaResult{Assignment: full, MovedItems: fm, MovedBytes: fb, FellBack: true}, nil
	}
	if CheckItems != nil {
		if err := CheckItems(a, items); err != nil {
			return nil, fmt.Errorf("ddak: delta self-check failed: %w", err)
		}
	}
	if o != nil {
		o.Counter("ddak_delta_solves_total").Add(1)
		o.Counter("ddak_delta_moved_items_total").Add(float64(moved))
	}
	sp.SetInt("moved", moved)
	return &DeltaResult{Assignment: a, MovedItems: moved, MovedBytes: movedBytes}, nil
}

// deltaMismatch describes the first field in which got differs from want,
// or returns "" when they are equal bit for bit: the layout, its
// accounting, the pool count and the migration bill.
func deltaMismatch(got, want *DeltaResult) string {
	if got.FellBack != want.FellBack || got.MovedItems != want.MovedItems ||
		math.Float64bits(got.MovedBytes) != math.Float64bits(want.MovedBytes) {
		return fmt.Sprintf("bill: got fellBack=%v moved=%d/%v, want fellBack=%v moved=%d/%v",
			got.FellBack, got.MovedItems, got.MovedBytes, want.FellBack, want.MovedItems, want.MovedBytes)
	}
	g, w := got.Assignment, want.Assignment
	if g.Pools != w.Pools {
		return fmt.Sprintf("pools: got %d, want %d", g.Pools, w.Pools)
	}
	if !slices.Equal(g.Bins, w.Bins) {
		return fmt.Sprintf("bins: got %+v, want %+v", g.Bins, w.Bins)
	}
	if len(g.Of) != len(w.Of) {
		return fmt.Sprintf("covers %d items, want %d", len(g.Of), len(w.Of))
	}
	for v := range g.Of {
		if g.Of[v] != w.Of[v] {
			return fmt.Sprintf("item %d: got bin %d, want %d", v, g.Of[v], w.Of[v])
		}
	}
	for b := range w.Used {
		if math.Float64bits(g.Used[b]) != math.Float64bits(w.Used[b]) ||
			math.Float64bits(g.Access[b]) != math.Float64bits(w.Access[b]) {
			return fmt.Sprintf("bin %d accounting: got used=%v access=%v, want used=%v access=%v",
				b, g.Used[b], g.Access[b], w.Used[b], w.Access[b])
		}
	}
	return ""
}
