package maxflow

import (
	"math"
	"testing"
)

// FuzzTimeBisector checks the two contracts MinTime rests on, over
// fuzz-generated two-layer networks (source → rate edges → mid nodes →
// fixed byte budgets → sink):
//
//  1. feasibility is monotone in the horizon — if all demand fits in t
//     seconds it fits in any longer horizon;
//  2. the returned minimum time sits on the boundary: feasible, within
//     1e-12 relative of the bisection oracle's final bracket, and reached
//     in at most 8 solves (checkMinTime).
func FuzzTimeBisector(f *testing.F) {
	f.Add([]byte{1, 10, 100}, uint8(50))
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6}, uint8(200))
	f.Add([]byte{8, 255, 1, 128, 7, 90, 13, 60, 2, 2, 2, 40, 80, 160, 240, 3, 9}, uint8(120))
	f.Add([]byte{2, 0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, probeByte uint8) {
		if len(data) == 0 {
			t.Skip()
		}
		nMid := 1 + int(data[0])%4
		byteAt := func(k int) float64 {
			if len(data) == 1 {
				return 0
			}
			return float64(data[1+k%(len(data)-1)])
		}
		g := New(2 + nMid)
		s, sink := 0, 1
		b := NewTimeBisector(g, s, sink, 0)
		totalFixed := 0.0
		for i := 0; i < nMid; i++ {
			mid := 2 + i
			rate := 1 + byteAt(2*i) // >= 1 B/s so every budget eventually drains
			fixed := 1 + byteAt(2*i+1)
			b.AddRateEdge(g.AddEdge(s, mid, 0), rate)
			b.AddFixedEdge(g.AddEdge(mid, sink, 0), fixed)
			totalFixed += fixed
		}
		// Demand below the fixed-budget sum keeps the instance feasible at
		// some horizon; the interesting question is where the boundary is.
		b.Demand = totalFixed * 0.9
		min, err := checkMinTime(t, "fuzz", b, Dinic)
		if err != nil {
			t.Fatalf("feasible-by-construction instance failed: %v", err)
		}
		if min <= 0 || math.IsInf(min, 1) || math.IsNaN(min) {
			t.Fatalf("MinTime = %v for positive demand %v", min, b.Demand)
		}
		// Monotonicity at a fuzz-chosen probe point.
		probe := min * (0.5 + float64(probeByte)/128)
		if b.Feasible(probe) && !b.Feasible(2*probe) {
			t.Fatalf("feasibility not monotone: ok at %v, not at %v", probe, 2*probe)
		}
	})
}
