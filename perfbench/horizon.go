package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"moment/internal/faults"
	"moment/internal/gnn"
	"moment/internal/obs"
	"moment/internal/topology"
	"moment/internal/trainsim"
)

// horizon: a closed loop over a seeded sequence of long-horizon
// simulations — what a momentsim -drift/-epochs user waits for. Drift
// horizons run the adaptive loop (monitor, detector, DDAK delta re-solves);
// fault horizons run the delta-cached multi-epoch sweep. Neither runs a
// placement search, so this is the control on which a max-flow change must
// not move, and where a DDAK or adaptive change must show.

const (
	horizonTailQ = 0.9 // op_ms tail percentile
	// horizonSimSet is how many leading horizons sim_epoch_s averages over.
	horizonSimSet = 20
	// driftBuckets is the drift bench row's rank-bucket resolution.
	driftBuckets = 2000
	// horizonRepeatChecks and faultDiffChecks size the output checks.
	horizonRepeatChecks = 2
	faultDiffChecks     = 3
)

// horizonSlots is one cycle of the horizon stream: 3 fault horizons (the
// cheapest per epoch), 5 drift horizons that mostly trip the detector
// without moving data, and 2 shuffle horizons that pay for DDAK delta
// re-solves. Each slot fixes its machine, drift period and magnitude; the
// seed varies the dataset order, model, drift seed and fault events. The
// groups cost about the same within and differ widely between, and their
// sizes put the median in the middle of the drift group and the p90 in the
// middle of the shuffle group, so neither quantile sits on a boundary
// between two kinds of horizon.
var horizonSlots = []horizonSlot{
	{Kind: "faults", Machine: "A"},
	{Kind: "rotate", Every: 100, Mag: 0.1},
	{Kind: "shuffle", Every: 100, Mag: 0.2},
	{Kind: "flip", Every: 100, Mag: 0.1},
	{Kind: "faults", Machine: "B"},
	{Kind: "oscillate", Every: 100, Mag: 0.1},
	{Kind: "rotate", Every: 100, Mag: 0.2},
	{Kind: "shuffle", Every: 100, Mag: 0.2},
	{Kind: "flip", Every: 100, Mag: 0.2},
	{Kind: "faults", Machine: "A"},
}

// horizonSlot is one position of the cycle.
type horizonSlot struct {
	Kind    string // "faults" or a drift shape
	Machine string // fault horizons; drift horizons run on machine B
	Every   int
	Mag     float64
}

var driftKinds = map[string]trainsim.DriftKind{
	"rotate": trainsim.DriftRotate, "flip": trainsim.DriftFlip,
	"oscillate": trainsim.DriftOscillate, "shuffle": trainsim.DriftShuffle,
}

// faultAt is one fault event with times in units of the nominal epoch.
type faultAt struct {
	Kind            string // "throttle", "burst", "straggle" or "kill"
	Target          int
	At, Factor, For float64
}

// horizonSpec is one long-horizon simulation.
type horizonSpec struct {
	Slot    string // "faults" or a drift shape
	Machine string // "A" or "B"
	Dataset string
	Model   gnn.ModelKind
	Epochs  int
	Drift   trainsim.DriftSchedule // drift horizons
	Faults  []faultAt              // fault horizons
}

// horizonGen yields the seeded horizon stream.
type horizonGen struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newHorizonGen(seed int64) *horizonGen {
	return &horizonGen{rng: rand.New(rand.NewSource(seed))}
}

func (g *horizonGen) next() horizonSpec {
	i := g.n % len(horizonSlots)
	if i == 0 {
		g.perm = g.rng.Perm(len(horizonSlots))
	}
	g.n++
	slot := horizonSlots[i]
	h := horizonSpec{
		Slot:    slot.Kind,
		Dataset: datasetNames[g.perm[i]%len(datasetNames)],
	}
	if h.Slot == "faults" {
		// The long-sim bench row's shape: a throttle, an error burst, a
		// straggler and one fail-stop, placed at seeded epochs.
		h.Machine = slot.Machine
		h.Model = gnn.KindSAGE
		h.Epochs = 1000
		ssds := g.rng.Perm(8)
		h.Faults = []faultAt{
			{Kind: "throttle", Target: ssds[0], At: 1 + g.rng.Float64(), Factor: 0.3 + 0.4*g.rng.Float64(), For: 0.5 + g.rng.Float64()},
			{Kind: "burst", Target: ssds[1], At: 3 + g.rng.Float64(), Factor: 0.1 + 0.3*g.rng.Float64(), For: 0.5},
			{Kind: "straggle", Target: g.rng.Intn(4), At: 5 + g.rng.Float64(), Factor: 0.5 + 0.3*g.rng.Float64(), For: 0.4},
			{Kind: "kill", Target: ssds[2], At: 7 + g.rng.Float64()},
		}
		return h
	}
	h.Machine = "B"
	h.Model = modelKinds[g.rng.Intn(len(modelKinds))]
	h.Epochs = 300
	h.Drift = trainsim.DriftSchedule{Kind: driftKinds[h.Slot], Every: slot.Every, Mag: slot.Mag,
		Seed: g.rng.Int63n(1 << 30)}
	return h
}

// horizonEnv is what the horizon workload sets up before timing.
type horizonEnv struct {
	machines   map[string]*topology.Machine
	placements map[string]*topology.Placement
	nominal    map[string]float64 // machine/dataset -> healthy SAGE epoch, s
	gen        *horizonGen
}

func setupHorizon(seed int64) (*horizonEnv, error) {
	env := &horizonEnv{
		machines:   map[string]*topology.Machine{},
		placements: map[string]*topology.Placement{},
		nominal:    map[string]float64{},
		gen:        newHorizonGen(seed),
	}
	for _, name := range []string{"A", "B"} {
		m, err := machineByName(name)
		if err != nil {
			return nil, err
		}
		p, err := topology.ClassicPlacement(m, topology.LayoutC)
		if err != nil {
			return nil, err
		}
		env.machines[name], env.placements[name] = m, p
		// Fault events are placed in units of the healthy epoch.
		for _, ds := range datasetNames {
			r, err := trainsim.SimulateEpoch(trainsim.Config{Machine: m, Placement: p,
				Workload: trainsim.Workload{Dataset: mustDataset(ds), Model: gnn.KindSAGE}})
			if err != nil {
				return nil, err
			}
			if r.OOM != "" {
				return nil, fmt.Errorf("nominal epoch %s/%s: %s", name, ds, r.OOM)
			}
			env.nominal[name+"/"+ds] = r.EpochTime.Sec()
		}
	}
	return env, nil
}

func (env *horizonEnv) config(h horizonSpec) trainsim.Config {
	cfg := trainsim.Config{
		Machine:   env.machines[h.Machine],
		Placement: env.placements[h.Machine],
		Workload:  trainsim.Workload{Dataset: mustDataset(h.Dataset), Model: h.Model},
	}
	if h.Slot != "faults" {
		cfg.Cache = trainsim.CachePartitioned
		cfg.VirtualVertices = driftBuckets
		return cfg
	}
	ep := env.nominal[h.Machine+"/"+h.Dataset]
	s := &faults.Schedule{Seed: int64(h.Epochs)}
	for _, f := range h.Faults {
		var ev faults.Event
		switch f.Kind {
		case "throttle":
			ev = faults.ThrottleSSD(f.Target, f.At*ep, f.Factor, f.For*ep)
		case "burst":
			ev = faults.Burst(f.Target, f.At*ep, f.Factor, f.For*ep)
		case "straggle":
			ev = faults.Straggle(f.Target, f.At*ep, f.Factor, f.For*ep)
		default:
			ev = faults.Kill(f.Target, f.At*ep)
		}
		s.Events = append(s.Events, ev)
	}
	cfg.Faults = s
	return cfg
}

// horizonOutcome is what a horizon is checked and traced on. It holds
// figures only, so keeping one per horizon does not hold on to reports.
type horizonOutcome struct {
	meanEpoch  float64 // simulated seconds per epoch
	total      float64 // simulated seconds of the whole horizon
	movedBytes float64 // drift migration bill
	drift      bool
	trips      int
	replans    int
	resims     int // epochs priced by a fresh fabric simulation
	cacheHits  int // epochs served from memory
}

// simulate runs one horizon through its public entry point; o (nil when
// untraced) receives the program's spans and counters.
func (env *horizonEnv) simulate(h horizonSpec, o *obs.Observer) (horizonOutcome, error) {
	cfg := env.config(h)
	cfg.Observer = o
	if h.Slot == "faults" {
		r, err := trainsim.SimulateEpochs(cfg, trainsim.SweepOptions{Epochs: h.Epochs})
		if err != nil {
			return horizonOutcome{}, err
		}
		return horizonOutcome{meanEpoch: r.Total.Sec() / float64(r.Epochs), total: r.Total.Sec(),
			resims: r.Resims, cacheHits: r.CacheHits}, nil
	}
	r, err := trainsim.SimulateDriftEpochs(cfg, trainsim.DriftOptions{Epochs: h.Epochs, Schedule: h.Drift})
	if err != nil {
		return horizonOutcome{}, err
	}
	return horizonOutcome{meanEpoch: r.MeanEpoch, total: r.Total.Sec(), movedBytes: r.MovedBytes, drift: true,
		trips: r.Trips, replans: r.Replans, resims: r.Resims, cacheHits: r.CacheHits}, nil
}

func runHorizon(rc runConfig) (*result, error) {
	env, setupS, err := timeSetup(func() (*horizonEnv, error) { return setupHorizon(rc.seed) }, func(*horizonEnv) {})
	if err != nil {
		return nil, err
	}
	// The warm-up simulates its own stream, so the timed stream of a seed
	// is the same whatever the warm-up reached.
	warm := newHorizonGen(^rc.seed)
	if err := warmUp(func() error { _, err := env.simulate(warm.next(), nil); return err }); err != nil {
		return nil, err
	}
	res := newResult()
	if rc.trace {
		return res, traceHorizon(rc, env, res)
	}
	var (
		specs   []horizonSpec
		outs    []horizonOutcome
		simEp   []float64
		epochs  int
		elapsed time.Duration
		// One window is one cycle of the stream, about 1.5 s; latency
		// samples are wall ms per simulated epoch, per horizon.
		w = windowed{per: len(horizonSlots), q: horizonTailQ}
	)
	deadline := time.Duration(rc.seconds * float64(time.Second))
	stopRSS := sampleRSS()
	a0 := allocBytes()
	for elapsed < deadline || (res.Failed == 0 && (w.short() || len(simEp) < horizonSimSet)) {
		h := env.gen.next()
		t0 := time.Now()
		out, err := env.simulate(h, nil)
		dt := time.Since(t0)
		elapsed += dt
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("horizon %d (%+v): %v", len(specs), h, err)
			continue
		}
		specs = append(specs, h)
		outs = append(outs, out)
		epochs += h.Epochs
		w.add(dt, h.Epochs, ms(dt)/float64(h.Epochs))
		if len(simEp) < horizonSimSet {
			simEp = append(simEp, out.meanEpoch)
		}
	}
	allocs := allocBytes() - a0
	rss := stopRSS()
	ws, err := w.stats()
	if err != nil {
		return nil, err
	}
	if err := setEndToEnd(res, map[string]float64{
		"setup_s":         setupS,
		"rss_mb":          rss,
		"alloc_mb_per_op": float64(allocs) / float64(epochs) / (1 << 20),
		"ops_per_s":       ws.perSec,
		"op_ms_p50":       ws.p50,
		"op_ms_tail":      ws.tail,
		"sim_epoch_s":     geomean(simEp),
	}); err != nil {
		return nil, err
	}
	res.info["op"] = "one simulated epoch; op_ms is per horizon, wall ms per simulated epoch"
	res.info["horizons"] = len(specs)
	res.info["epochs"] = epochs
	res.info["windows"] = ws.windows
	res.info["windows_kept"] = ws.kept
	res.info["horizons_per_window"] = w.per
	res.info["tail_quantile"] = horizonTailQ
	moved := 0.0
	for _, o := range outs[:len(simEp)] {
		moved += o.movedBytes
	}
	res.info["moved_gib_first_horizons"] = moved / (1 << 30)

	checkHorizons(env, specs, outs, res)
	return res, nil
}

// checkHorizons runs the horizon output checks, outside the timed region:
// finite positive epochs everywhere, identical results when a horizon runs
// again, delta-cached fault horizons equal to full re-simulation, and the
// adaptive loop within 5% of the from-scratch oracle on the drift bench
// row's reference horizon.
func checkHorizons(env *horizonEnv, specs []horizonSpec, outs []horizonOutcome, res *result) {
	for i, o := range outs {
		if !(o.meanEpoch > 0) || math.IsInf(o.meanEpoch, 0) {
			res.fail("horizon %d: mean epoch %v", i, o.meanEpoch)
		}
	}
	for i := 0; i < horizonRepeatChecks && i < len(specs); i++ {
		again, err := env.simulate(specs[i], nil)
		if err != nil {
			res.fail("re-run of horizon %d: %v", i, err)
			continue
		}
		if again.meanEpoch != outs[i].meanEpoch || again.movedBytes != outs[i].movedBytes {
			res.fail("horizon %d run twice differs: %v/%v vs %v/%v", i,
				outs[i].meanEpoch, outs[i].movedBytes, again.meanEpoch, again.movedBytes)
		}
	}
	checked := 0
	for i, h := range specs {
		if h.Slot != "faults" || checked == faultDiffChecks {
			continue
		}
		checked++
		full, err := trainsim.SimulateEpochs(env.config(h), trainsim.SweepOptions{Epochs: h.Epochs, NoDeltaCache: true})
		if err != nil {
			res.fail("full re-simulation of horizon %d: %v", i, err)
			continue
		}
		if d := outs[i].total; math.Abs(d-full.Total.Sec()) > 1e-6*full.Total.Sec() {
			res.fail("horizon %d: delta-cached total %.9gs != full re-simulation %.9gs", i, d, full.Total.Sec())
		}
	}
	res.info["checked_fault_differentials"] = checked

	// The drift bench row's reference horizon (experiments.DriftRecord).
	ref := horizonSpec{Slot: "shuffle", Machine: "B", Dataset: "IG", Model: gnn.KindSAGE, Epochs: 200,
		Drift: trainsim.DriftSchedule{Every: 100, Kind: trainsim.DriftShuffle, Mag: 0.2, Seed: 42}}
	cfg := env.config(ref)
	ad, err := trainsim.SimulateDriftEpochs(cfg, trainsim.DriftOptions{Epochs: ref.Epochs, Schedule: ref.Drift})
	if err != nil {
		res.fail("reference horizon: %v", err)
		return
	}
	or, err := trainsim.SimulateDriftEpochs(cfg, trainsim.DriftOptions{Epochs: ref.Epochs, Schedule: ref.Drift, Oracle: true})
	if err != nil {
		res.fail("reference oracle horizon: %v", err)
		return
	}
	if ratio := ad.MeanEpoch / or.MeanEpoch; ratio > 1.05 {
		res.fail("reference horizon: adaptive mean epoch %.4gs is %.1f%% over the oracle's %.4gs",
			ad.MeanEpoch, (ratio-1)*100, or.MeanEpoch)
	}
	res.info["reference_adaptive_over_oracle"] = ad.MeanEpoch / or.MeanEpoch
}

// traceHorizon is the traced run: every horizon runs untraced (the
// reference time) and traced, in alternating order. The traced run wraps
// the public call in a benchmark span and attaches an observer, from which
// the program's own spans (ddak_delta, ddak, simnet.run) and counters are
// read.
func traceHorizon(rc runConfig, env *horizonEnv, res *result) error {
	l := newLedger()
	var (
		untraced, traced      []float64
		driftN, faultN        float64
		trips, replans, moved float64
		resims, hits          float64
		ctr                   = map[string]float64{}
	)
	deadline := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; time.Since(start) < deadline || i < 2*len(horizonSlots); i++ {
		h := env.gen.next()
		var tu time.Duration
		plain := func() error {
			t0 := time.Now()
			_, err := env.simulate(h, nil)
			tu = time.Since(t0)
			return err
		}
		if i%2 == 0 {
			if err := plain(); err != nil {
				return err
			}
		}
		o := obs.New()
		name := "trainsim.drift_horizon"
		if h.Slot == "faults" {
			name = "trainsim.fault_horizon"
		}
		var out horizonOutcome
		t0 := time.Now()
		err := l.span(name, func() (err error) {
			out, err = env.simulate(h, o)
			return err
		})
		tt := time.Since(t0)
		if err != nil {
			return err
		}
		if i%2 == 1 {
			if err := plain(); err != nil {
				return err
			}
		}
		untraced = append(untraced, ms(tu)/float64(h.Epochs))
		traced = append(traced, ms(tt)/float64(h.Epochs))
		res.Attempted++

		spans, err := programSpans(o)
		if err != nil {
			return err
		}
		for _, s := range []string{"ddak_delta", "ddak", "simnet.run"} {
			for _, d := range spans[s] {
				l.add(s, d)
			}
		}
		addCounters(ctr, counters(o))
		resims += float64(out.resims)
		hits += float64(out.cacheHits)
		if out.drift {
			driftN++
			trips += float64(out.trips)
			replans += float64(out.replans)
			moved += out.movedBytes
		} else {
			faultN++
		}
	}
	horizons := float64(len(untraced))
	m := map[string]float64{
		"trainsim.drift_horizon_ms":   l.median("trainsim.drift_horizon"),
		"trainsim.fault_horizon_ms":   l.median("trainsim.fault_horizon"),
		"trainsim.resim_frac":         frac(resims, resims+hits),
		"simnet.run_ms":               l.median("simnet.run"),
		"maxflow.solves_per_plan":     ctr["maxflow_solves_total"] / horizons,
		"faults.injected_per_op":      frac(ctr["faults_injected_total"], faultN),
		"ddak.place_ms":               l.median("ddak"),
		"ddak.delta_ms":               l.median("ddak_delta"),
		"ddak.delta_frac":             frac(l.sum("ddak_delta"), l.sum("trainsim.drift_horizon")),
		"ddak.delta_moved_items":      frac(ctr["ddak_delta_moved_items_total"], driftN),
		"ddak.moved_gib":              frac(moved/(1<<30), driftN),
		"adaptive.trips":              frac(trips, driftN),
		"adaptive.replans":            frac(replans, driftN),
		"adaptive.replan_commit_frac": frac(replans, trips),
		"bench.trace_overhead_frac":   median(traced)/median(untraced) - 1,
	}
	setLayerMetrics(res, m)
	res.info["op"] = "one simulated epoch"
	res.info["horizons"] = len(untraced)
	return nil
}
