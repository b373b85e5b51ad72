package flownet

import (
	"math"
	"testing"

	"moment/internal/topology"
)

// TestBuildReuseMatchesBuild rebuilds the same machine/placement/demand
// combinations through one scratch Network and checks every solve agrees
// with a fresh Build — the scratch must carry no state between occupants.
func TestBuildReuseMatchesBuild(t *testing.T) {
	type combo struct {
		m *topology.Machine
		l topology.ClassicLayout
	}
	combos := []combo{
		{topology.MachineA(), topology.LayoutA},
		{topology.MachineB(), topology.LayoutC},
		{topology.MachineA(), topology.LayoutB},
		{topology.MachineB(), topology.LayoutD},
		{topology.MachineA(), topology.LayoutA}, // revisit after larger machine
	}
	var scratch *Network
	for i, c := range combos {
		d := demandA(c.m.NumGPUs)
		p, err := topology.ClassicPlacement(c.m, c.l)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := BuildReuse(c.m, p, d, scratch)
		if err != nil {
			t.Fatalf("combo %d: BuildReuse: %v", i, err)
		}
		if scratch != nil && reused != scratch {
			t.Fatalf("combo %d: BuildReuse allocated a new Network despite scratch", i)
		}
		scratch = reused
		fresh := build(t, c.m, c.l, d)
		tr, tf := epochTime(t, reused), epochTime(t, fresh)
		if math.Abs(tr-tf) > 1e-3*tf {
			t.Fatalf("combo %d: reused solve %v, fresh %v", i, tr, tf)
		}
		// Metrics read the same flow.
		br, _ := reused.Traffic()
		bf, _ := fresh.Traffic()
		var sr, sf float64
		for i := range br.SSD {
			sr += br.SSD[i]
			sf += bf.SSD[i]
		}
		if math.Abs(sr-sf) > 1 {
			t.Fatalf("combo %d: SSD traffic %v reused vs %v fresh", i, sr, sf)
		}
	}
}

// TestBuildReuseAfterError ensures a scratch that went through a failed
// build (validation error) is still accepted and produces correct results.
func TestBuildReuseAfterError(t *testing.T) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutA)
	if err != nil {
		t.Fatal(err)
	}
	d := demandA(m.NumGPUs)
	scratch, err := BuildReuse(m, p, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Demand{PerGPU: []float64{1}} // wrong GPU count
	if _, err := BuildReuse(m, p, bad, scratch); err == nil {
		t.Fatal("expected demand-shape error")
	}
	n, err := BuildReuse(m, p, d, scratch)
	if err != nil {
		t.Fatalf("reuse after error: %v", err)
	}
	want := epochTime(t, build(t, m, topology.LayoutA, d))
	if got := epochTime(t, n); math.Abs(got-want) > 1e-3*want {
		t.Fatalf("solve %v after failed build, want %v", got, want)
	}
}

// TestPatchDemandMatchesRebuild reprices a placement for new demands by
// rebuilding into its own network (BuildReuse, the one repricing path) and
// checks each solve equals a from-scratch Build of the new demand.
func TestPatchDemandMatchesRebuild(t *testing.T) {
	m := topology.MachineB()
	n := build(t, m, topology.LayoutC, demandA(m.NumGPUs))
	if _, err := n.Solve(); err != nil {
		t.Fatal(err)
	}
	for _, factor := range []float64{1.5, 0.4} {
		d2 := demandA(m.NumGPUs)
		for i := range d2.PerGPU {
			d2.PerGPU[i] *= factor
			d2.HBMPeer[i] *= factor
		}
		for k := range d2.DRAM {
			d2.DRAM[k] *= factor
		}
		d2.SSDTotal *= factor
		repriced := reprice(t, n, d2)
		if got, want := epochTime(t, repriced), epochTime(t, build(t, m, topology.LayoutC, d2)); got != want {
			t.Fatalf("factor %v: repriced solve %v, rebuilt %v", factor, got, want)
		}
	}
}

// reprice rebuilds n for demand d through BuildReuse and checks the
// network was reused and left unsolved.
func reprice(t *testing.T, n *Network, d *Demand) *Network {
	t.Helper()
	r, err := BuildReuse(n.Machine, n.Placement, d, n)
	if err != nil {
		t.Fatal(err)
	}
	if r != n {
		t.Fatal("BuildReuse allocated a new Network despite scratch")
	}
	if r.SolvedHorizon() != 0 {
		t.Fatal("repriced network still marked solved")
	}
	return r
}

// TestPatchDemandRejectsStructuralChanges reprices one network through
// BuildReuse with incompatible demands (GPU count, unknown socket,
// undersupply), which must be rejected, and with demands that change the
// network's structure (HBM peer serving off, pinned SSD budgets), which
// must solve like a fresh Build. Afterwards the network still solves the
// original demand.
func TestPatchDemandRejectsStructuralChanges(t *testing.T) {
	m := topology.MachineA()
	base := demandA(m.NumGPUs)
	n := build(t, m, topology.LayoutA, base)
	for name, d := range map[string]*Demand{
		"gpu-count": {PerGPU: []float64{1, 2}},
		"bad-socket": {PerGPU: base.PerGPU, HBMPeer: base.HBMPeer,
			DRAM: map[string]float64{"rc9": 1}, SSDTotal: base.SSDTotal},
		"undersupply": {PerGPU: base.PerGPU, HBMPeer: base.HBMPeer, SSDTotal: 1},
	} {
		if _, err := BuildReuse(m, n.Placement, d, n); err == nil {
			t.Errorf("%s: incompatible demand accepted", name)
		}
	}
	per := make([]float64, m.NumSSDs)
	for i := range per {
		per[i] = base.SSDTotal / float64(m.NumSSDs)
	}
	for name, d := range map[string]*Demand{
		"hbm-toggle":  {PerGPU: base.PerGPU, DRAM: base.DRAM, SSDTotal: base.SSDTotal + sum(base.HBMPeer)},
		"ssd-pinning": {PerGPU: base.PerGPU, HBMPeer: base.HBMPeer, DRAM: base.DRAM, SSDPer: per},
	} {
		got := epochTime(t, reprice(t, n, d))
		if want := epochTime(t, build(t, m, topology.LayoutA, d)); got != want {
			t.Errorf("%s: repriced solve %v, rebuilt %v", name, got, want)
		}
	}
	want := epochTime(t, build(t, m, topology.LayoutA, base))
	if got := epochTime(t, reprice(t, n, base)); got != want {
		t.Fatalf("solve %v after structural repricing, want %v", got, want)
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// TestPatchDemandPinnedSSDs reprices pinned per-SSD budgets (the shape a
// fault-triggered re-bin produces) through BuildReuse.
func TestPatchDemandPinnedSSDs(t *testing.T) {
	m := topology.MachineA()
	base := demandA(m.NumGPUs)
	per := make([]float64, m.NumSSDs)
	for i := range per {
		per[i] = base.SSDTotal / float64(m.NumSSDs)
	}
	d := &Demand{PerGPU: base.PerGPU, HBMPeer: base.HBMPeer, DRAM: base.DRAM, SSDPer: per}
	n := build(t, m, topology.LayoutA, d)

	skew := make([]float64, m.NumSSDs)
	copy(skew, per)
	if m.NumSSDs >= 2 {
		skew[0] += per[1] / 2
		skew[1] -= per[1] / 2
	}
	d2 := &Demand{PerGPU: base.PerGPU, HBMPeer: base.HBMPeer, DRAM: base.DRAM, SSDPer: skew}
	got := epochTime(t, reprice(t, n, d2))
	if want := epochTime(t, build(t, m, topology.LayoutA, d2)); got != want {
		t.Fatalf("repriced pinned solve %v, rebuilt %v", got, want)
	}
}

// TestDemandFingerprint checks the equality/inequality contract: equal
// demands collide, any budget or structural change separates.
func TestDemandFingerprint(t *testing.T) {
	base := func() *Demand { return demandA(4) }
	fp := base().Fingerprint()
	if fp != base().Fingerprint() {
		t.Fatal("equal demands fingerprint differently")
	}
	mutations := map[string]func(*Demand){
		"per-gpu":    func(d *Demand) { d.PerGPU[2]++ },
		"hbm":        func(d *Demand) { d.HBMPeer[0]++ },
		"hbm-nil":    func(d *Demand) { d.HBMPeer = nil },
		"dram-value": func(d *Demand) { d.DRAM["rc0"]++ },
		"dram-key":   func(d *Demand) { delete(d.DRAM, "rc1"); d.DRAM["rc2"] = 25 * gb },
		"ssd-total":  func(d *Demand) { d.SSDTotal++ },
		"ssd-pinned": func(d *Demand) { d.SSDPer = []float64{d.SSDTotal}; d.SSDTotal = 0 },
	}
	for name, mut := range mutations {
		d := base()
		// deep-copy the map demandA shares nothing across calls except DRAM literals
		dram := map[string]float64{}
		for k, v := range d.DRAM {
			dram[k] = v
		}
		d.DRAM = dram
		mut(d)
		if d.Fingerprint() == fp {
			t.Errorf("%s: mutation did not change fingerprint", name)
		}
	}
	// Map iteration order must not matter.
	a := base()
	a.DRAM = map[string]float64{"rc0": 1, "rc1": 2, "rc2": 3}
	b := base()
	b.DRAM = map[string]float64{"rc2": 3, "rc1": 2, "rc0": 1}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("DRAM map order changed fingerprint")
	}
}

// TestBuildReuseAllocs bounds steady-state allocations of the arena path:
// after warm-up, rebuilding the same-shaped network must stay far below a
// fresh Build (which allocates the graph, maps, and slices every time).
func TestBuildReuseAllocs(t *testing.T) {
	m := topology.MachineA()
	p, err := topology.ClassicPlacement(m, topology.LayoutA)
	if err != nil {
		t.Fatal(err)
	}
	d := demandA(m.NumGPUs)
	scratch, err := BuildReuse(m, p, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	reuse := testing.AllocsPerRun(100, func() {
		if _, err := BuildReuse(m, p, d, scratch); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(100, func() {
		if _, err := Build(m, p, d); err != nil {
			t.Fatal(err)
		}
	})
	if reuse > fresh/2 {
		t.Errorf("BuildReuse allocates %.0f/run vs fresh %.0f/run; want < half", reuse, fresh)
	}
}

// TestRepeatedSolveAllocs pins the allocation-free repeated solve: once a
// BuildReuse'd network has solved, solving it again — every max-flow solve
// and Newton step of the min-time search — allocates nothing.
func TestRepeatedSolveAllocs(t *testing.T) {
	m := topology.MachineB()
	p, err := topology.ClassicPlacement(m, topology.LayoutC)
	if err != nil {
		t.Fatal(err)
	}
	n, err := BuildReuse(m, p, demandA(m.NumGPUs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Solve(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := n.Solve(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("repeated Solve allocates %.1f times per run, want 0", avg)
	}
}
