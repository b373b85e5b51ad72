package trainsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"moment/internal/adaptive"
	"moment/internal/ddak"
	"moment/internal/obs"
	"moment/internal/units"
)

// This file implements the long-horizon workload-drift harness: simulating
// thousands of back-to-back epochs while the access distribution shifts on
// a seeded schedule (the dynamic-workload scenario the paper defers in §5).
// Planning runs once; each drift event then perturbs the live hotness and
// the closed adaptive loop — Monitor EWMA → DriftDetector → incremental
// DDAK re-solve with migration billing — chases it. An oracle mode replans
// from scratch at every drift event with perfect knowledge of the new
// distribution, giving the differential the drift tests assert against:
// the adaptive loop must land within a few percent of the oracle's epoch
// time while migrating a fraction of its bytes.

// DriftKind selects how a drift event perturbs the hotness distribution.
type DriftKind int

const (
	// DriftNone leaves the distribution untouched (control scenario).
	DriftNone DriftKind = iota
	// DriftRotate shifts hotness by ⌈mag·n⌉ ranks each event — a gradual
	// moving hot set (new content going viral, old content cooling).
	DriftRotate
	// DriftFlip exchanges the hotness of the top ⌈mag·n/2⌉ ranks with the
	// bottom ranks — a sudden regime change.
	DriftFlip
	// DriftOscillate alternates a DriftRotate forward and back, returning
	// to the base distribution every second event — the thrash scenario a
	// detector cooldown and payback billing must survive.
	DriftOscillate
	// DriftShuffle applies ⌈mag·n⌉ seeded random hotness swaps per event.
	DriftShuffle
)

var driftKindNames = map[DriftKind]string{
	DriftNone:      "none",
	DriftRotate:    "rotate",
	DriftFlip:      "flip",
	DriftOscillate: "oscillate",
	DriftShuffle:   "shuffle",
}

// String names the kind as the spec grammar spells it.
func (k DriftKind) String() string {
	if s, ok := driftKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// DriftSchedule describes a deterministic hotness-drift process.
type DriftSchedule struct {
	// Every is the event period in epochs (0 disables drift).
	Every int
	// Kind selects the perturbation applied at each event.
	Kind DriftKind
	// Mag in (0,1] scales the perturbation (fraction of ranks involved).
	Mag float64
	// Seed drives DriftShuffle's random swaps.
	Seed int64
}

// Empty reports a schedule that never fires.
func (s DriftSchedule) Empty() bool {
	return s.Every <= 0 || s.Kind == DriftNone
}

// Validate rejects schedules SimulateDriftEpochs cannot run.
func (s DriftSchedule) Validate() error {
	if s.Every < 0 {
		return fmt.Errorf("trainsim: negative drift period %d", s.Every)
	}
	if _, ok := driftKindNames[s.Kind]; !ok {
		return fmt.Errorf("trainsim: unknown drift kind %d", int(s.Kind))
	}
	if math.IsNaN(s.Mag) || !s.Empty() && (s.Mag <= 0 || s.Mag > 1) {
		return fmt.Errorf("trainsim: drift magnitude %v out of (0,1]", s.Mag)
	}
	return nil
}

// ParseDriftSpec decodes the command-line drift grammar, semicolon-
// separated key=value clauses mirroring the faults spec:
//
//	every=100;kind=shuffle;mag=0.2;seed=7
//
// kind is one of none|rotate|flip|oscillate|shuffle. mag defaults to 0.2
// and seed to 0. FormatDriftSpec is the inverse.
func ParseDriftSpec(spec string) (DriftSchedule, error) {
	s := DriftSchedule{Mag: 0.2}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return DriftSchedule{}, fmt.Errorf("trainsim: drift clause %q is not key=value", clause)
		}
		var err error
		switch key {
		case "every":
			s.Every, err = strconv.Atoi(val)
		case "kind":
			found := false
			for k, name := range driftKindNames {
				if name == val {
					s.Kind = k
					found = true
					break
				}
			}
			if !found {
				err = fmt.Errorf("unknown kind %q", val)
			}
		case "mag":
			s.Mag, err = strconv.ParseFloat(val, 64)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return DriftSchedule{}, fmt.Errorf("trainsim: drift clause %q: %v", clause, err)
		}
	}
	if err := s.Validate(); err != nil {
		return DriftSchedule{}, err
	}
	return s, nil
}

// FormatDriftSpec renders a schedule in the ParseDriftSpec grammar.
func FormatDriftSpec(s DriftSchedule) string {
	return fmt.Sprintf("every=%d;kind=%s;mag=%g;seed=%d", s.Every, s.Kind, s.Mag, s.Seed)
}

// DriftOptions tunes SimulateDriftEpochs.
type DriftOptions struct {
	// Epochs is the horizon length (default 1).
	Epochs int
	// Schedule is the hotness-drift process to chase.
	Schedule DriftSchedule
	// Oracle replaces the adaptive loop with a from-scratch full re-plan
	// at every drift event, fed the true post-event distribution — the
	// upper bound on layout quality and on migration traffic.
	Oracle bool
	// DeltaBudget is the incremental re-solve's MaxMoveFrac (default 0.5;
	// negative forces full re-solves on the adaptive path too).
	DeltaBudget float64
	// PaybackEpochs bills adaptive migrations against their projected
	// per-epoch savings (see adaptive.Replanner): a move is only taken if
	// the fast-tier bytes it saves repay its bill within the window. The
	// default is half the drift period — a migration should pay for
	// itself before the distribution likely shifts again. Negative
	// disables billing (every triggered replan commits).
	PaybackEpochs float64
	// HalfLifeEpochs is the monitor's EWMA half-life (default 2).
	HalfLifeEpochs float64
	// TVTrip and TripAfter configure the detector (defaults 0.05 and 1);
	// Cooldown suppresses re-trips for that many epochs after a replan
	// (default 3, enough for the EWMA to converge onto a new regime).
	TVTrip    float64
	TripAfter int
	Cooldown  int
	// MigrationBW is the fabric bandwidth migrations are billed at, in
	// bytes/second (default 8e9); the stall lands on the replan epoch.
	MigrationBW float64
}

// DriftReport aggregates a drift-horizon run.
type DriftReport struct {
	// Epochs is the number of epochs simulated; Oracle echoes the mode.
	Epochs int
	Oracle bool
	// Total is the horizon wall-clock including migration stalls.
	Total units.Duration
	// EpochTimes holds each epoch's duration in seconds (stalls included).
	EpochTimes []float64
	// MeanEpoch is Total/Epochs in seconds.
	MeanEpoch float64
	// DriftEvents counts schedule firings; Trips counts detector trips
	// (zero in oracle mode — the oracle needs no detector).
	DriftEvents int
	Trips       int
	// Replans counts committed re-placements; Delta/Full split them by
	// solver, and Skipped counts payback-rejected migrations.
	Replans     int
	DeltaSolves int
	FullSolves  int
	Skipped     int
	// MovedBytes is the total migration bill; StallSeconds its time cost.
	MovedBytes   float64
	StallSeconds float64
	// Resims counts epochs priced by a fresh fabric simulation; CacheHits
	// counts epochs served by the (assignment, hotness) memo.
	Resims    int
	CacheHits int
	// FinalHitFast is the fast-tier (GPU+CPU) hit rate of the final layout
	// under the final live distribution.
	FinalHitFast float64
}

// Apply perturbs hot in place for event number ev (0-based); rng carries
// DriftShuffle's swaps from one event to the next.
func (s DriftSchedule) Apply(hot []float64, rng *rand.Rand, ev int) {
	n := len(hot)
	if n < 2 {
		return
	}
	k := int(s.Mag*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	switch s.Kind {
	case DriftRotate:
		rotateHot(hot, k)
	case DriftFlip:
		half := k / 2
		if half < 1 {
			half = 1
		}
		for i := 0; i < half && i < n-1-i; i++ {
			hot[i], hot[n-1-i] = hot[n-1-i], hot[i]
		}
	case DriftOscillate:
		if ev%2 == 0 {
			rotateHot(hot, k)
		} else {
			rotateHot(hot, n-k) // inverse rotation: back to base
		}
	case DriftShuffle:
		for i := 0; i < k; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			hot[a], hot[b] = hot[b], hot[a]
		}
	}
}

// rotateHot shifts hot left by k in place.
func rotateHot(hot []float64, k int) {
	n := len(hot)
	k %= n
	if k == 0 {
		return
	}
	tmp := make([]float64, k)
	copy(tmp, hot[:k])
	copy(hot, hot[k:])
	copy(hot[n-k:], tmp)
}

// oracleBins re-derives the bin traffic budgets for a drifted distribution
// — the from-scratch planning pipeline restated over the fixed topology:
// the provisional greedy tier fill (which access mass the GPU, CPU, and
// SSD tiers each capture) is recomputed density-first over the live
// hotness, and every bin's Traffic budget is rescaled by its tier's mass
// ratio. The topology-driven fair shares within a tier are unchanged by
// drift, so rescaling reproduces what planning from scratch would budget.
func oracleBins(es *epochSetup, live []float64) []ddak.Bin {
	order := make([]int, len(live))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		return live[ia]*es.placeItems[ib].Bytes > live[ib]*es.placeItems[ia].Bytes
	})
	var gpuCap, cpuCap float64
	for _, b := range es.bins {
		switch b.Tier {
		case ddak.TierGPU:
			gpuCap += b.Capacity
		case ddak.TierCPU:
			cpuCap += b.Capacity
		}
	}
	var gpuMass, cpuMass float64
	remG, remC := gpuCap, cpuCap
	for _, i := range order {
		by := es.placeItems[i].Bytes
		switch {
		case remG >= by:
			remG -= by
			gpuMass += live[i]
		case remC >= by:
			remC -= by
			cpuMass += live[i]
		}
	}
	ssdMass := 1 - gpuMass - cpuMass
	if ssdMass < 0 {
		ssdMass = 0
	}
	bins := append([]ddak.Bin(nil), es.bins...)
	for bi := range bins {
		var newM, oldM float64
		switch bins[bi].Tier {
		case ddak.TierGPU:
			newM, oldM = gpuMass, es.pl.gpuMass
		case ddak.TierCPU:
			newM, oldM = cpuMass, es.pl.cpuMass
		default:
			newM, oldM = ssdMass, es.pl.ssdMass
		}
		if oldM > 1e-12 {
			bins[bi].Traffic *= newM / oldM
		}
	}
	return bins
}

// servedSig fingerprints a per-bin served-bytes vector (the only fabric
// input that changes across a drift horizon) so epochs with identical
// traffic are priced from memory.
func servedSig(served []float64) string {
	var b strings.Builder
	for _, v := range served {
		fmt.Fprintf(&b, "%.6g;", v)
	}
	return b.String()
}

// checkDriftConfig rejects configurations the drift harness cannot run.
func checkDriftConfig(cfg Config) error {
	if cfg.Policy != PolicyDDAK {
		return fmt.Errorf("trainsim: drift simulation requires PolicyDDAK")
	}
	if cfg.Cache != CachePartitioned {
		return fmt.Errorf("trainsim: drift simulation requires CachePartitioned")
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		return fmt.Errorf("trainsim: drift simulation does not compose with fault schedules")
	}
	return nil
}

// DeltaInstance is the DDAK problem the adaptive drift loop re-solves
// incrementally: the placed items at their planned hotness and the bins
// with their fabric-fair traffic budgets, as SimulateDriftEpochs hands
// them to its Replanner. It lets ddak.PlaceItemsDelta be tested and
// benchmarked on a real machine's instance outside the loop.
type DeltaInstance struct {
	Items []ddak.Item
	Bins  []ddak.Bin
	PoolN int
	// TrafficScale is the bytes fetched per epoch (ddak's trafficScale).
	TrafficScale float64
}

// DriftDeltaInstance plans cfg as SimulateDriftEpochs does and returns the
// instance its delta re-solves start from.
func DriftDeltaInstance(cfg Config) (*DeltaInstance, error) {
	if err := checkDriftConfig(cfg); err != nil {
		return nil, err
	}
	es, oom, err := placeAndSpecs(cfg, obs.Active(cfg.Observer), nil)
	if err != nil {
		return nil, err
	}
	if oom != nil {
		return nil, fmt.Errorf("trainsim: drift configuration cannot run: %s", oom.OOM)
	}
	return &DeltaInstance{
		Items:        es.placeItems,
		Bins:         es.bins,
		PoolN:        es.cfg.PoolN,
		TrafficScale: es.pl.fetchEpoch,
	}, nil
}

// SimulateDriftEpochs simulates opt.Epochs back-to-back epochs while
// opt.Schedule perturbs the live hotness distribution, closing the adaptive
// loop around the layout (or replaying the from-scratch oracle when
// opt.Oracle is set). It requires the fully DDAK-managed configuration —
// PolicyDDAK with partitioned GPU caches — because that is the regime where
// the layout, and therefore drift, is entirely placement-driven.
func SimulateDriftEpochs(cfg Config, opt DriftOptions) (*DriftReport, error) {
	if err := opt.Schedule.Validate(); err != nil {
		return nil, err
	}
	if err := checkDriftConfig(cfg); err != nil {
		return nil, err
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 1
	}
	if opt.DeltaBudget == 0 {
		opt.DeltaBudget = 0.5
	}
	if opt.PaybackEpochs == 0 && !opt.Schedule.Empty() {
		opt.PaybackEpochs = float64(opt.Schedule.Every) / 2
	}
	if opt.PaybackEpochs < 0 {
		opt.PaybackEpochs = 0
	}
	if opt.HalfLifeEpochs <= 0 {
		opt.HalfLifeEpochs = 2
	}
	if opt.TVTrip <= 0 {
		opt.TVTrip = 0.05
	}
	if opt.TripAfter <= 0 {
		opt.TripAfter = 1
	}
	if opt.Cooldown == 0 {
		opt.Cooldown = 3
	}
	if opt.MigrationBW <= 0 {
		opt.MigrationBW = 8e9
	}

	o := obs.Active(cfg.Observer)
	sp := o.Begin("trainsim.drift")
	if cfg.Machine != nil {
		sp.SetStr("machine", cfg.Machine.Name)
	}
	sp.SetInt("epochs", opt.Epochs)
	sp.SetStr("schedule", FormatDriftSpec(opt.Schedule))
	defer sp.End()

	es, oom, err := placeAndSpecs(cfg, o, sp)
	if err != nil {
		return nil, err
	}
	if oom != nil {
		return nil, fmt.Errorf("trainsim: drift configuration cannot run: %s", oom.OOM)
	}
	cfg = es.cfg
	m := cfg.Machine

	n := len(es.placeItems)
	itemBytes := make([]float64, n)
	live := make([]float64, n)
	for i, it := range es.placeItems {
		itemBytes[i] = it.Bytes
		live[i] = it.Hot
	}
	assign := es.assign

	// Adaptive-loop state (unused in oracle mode).
	var (
		mon  *adaptive.Monitor
		det  *adaptive.DriftDetector
		repl *adaptive.Replanner
		ref  []float64 // distribution the current layout was planned for
	)
	if !opt.Oracle {
		mon, err = adaptive.NewMonitor(n, opt.HalfLifeEpochs)
		if err != nil {
			return nil, err
		}
		det = &adaptive.DriftDetector{
			TVTrip:    opt.TVTrip,
			TripAfter: opt.TripAfter,
			Cooldown:  opt.Cooldown,
			Observer:  o,
		}
		// Threshold is bypassed (the detector decides; replans go through
		// Replan directly), so any valid value works.
		repl, err = adaptive.NewReplanner(live, itemBytes, es.bins, cfg.PoolN, es.pl.fetchEpoch, 0.5)
		if err != nil {
			return nil, err
		}
		if opt.DeltaBudget > 0 {
			repl.DeltaBudget = opt.DeltaBudget
		}
		repl.PaybackEpochs = opt.PaybackEpochs
		repl.Observer = o
		assign = repl.Current()
		ref = append([]float64(nil), live...)
	}
	oracleItems := append([]ddak.Item(nil), es.placeItems...)

	rng := rand.New(rand.NewSource(opt.Schedule.Seed))
	rep := &DriftReport{
		Epochs:     opt.Epochs,
		Oracle:     opt.Oracle,
		EpochTimes: make([]float64, 0, opt.Epochs),
	}

	// ioOf prices one epoch's I/O for the layout in force under the live
	// distribution, memoized on the served-bytes vector: between drift
	// events and replans nothing the fabric sees changes.
	ioCache := map[string]float64{}
	served := make([]float64, len(es.bins))
	ioOf := func(a *ddak.ItemAssignment, hot []float64) (float64, error) {
		for b := range served {
			served[b] = 0
		}
		for i, b := range a.Of {
			served[b] += hot[i] * es.fabricScale
		}
		sig := servedSig(served)
		if io, ok := ioCache[sig]; ok {
			rep.CacheHits++
			return io, nil
		}
		specs := buildFlowSpecs(cfg, es.pl, served, es.gpuBin, es.dramBin, es.ssdBin0)
		fab, err := NewFabric(m, cfg.Placement)
		if err != nil {
			return 0, err
		}
		if err := addFlows(fab, specs); err != nil {
			return 0, err
		}
		run, err := fab.Net.Run()
		if err != nil {
			return 0, err
		}
		rep.Resims++
		ioCache[sig] = run.Makespan
		return run.Makespan, nil
	}

	total := 0.0
	est := make([]float64, 0, n)
	for e := 0; e < opt.Epochs; e++ {
		drifted := false
		if !opt.Schedule.Empty() && e > 0 && e%opt.Schedule.Every == 0 {
			opt.Schedule.Apply(live, rng, rep.DriftEvents)
			rep.DriftEvents++
			drifted = true
			if o.FlightEnabled() {
				o.Event(obs.Event{Kind: obs.EvDrift, Name: "shift",
					Reason: opt.Schedule.Kind.String(), V1: float64(e)})
			}
		}

		stall := 0.0
		if opt.Oracle {
			if drifted {
				// Perfect knowledge: full re-solve onto the true new
				// distribution the moment it changes.
				for i := range oracleItems {
					oracleItems[i].Hot = live[i]
				}
				next, err := ddak.PlaceItemsObserved(oracleItems, oracleBins(es, live), cfg.PoolN, es.pl.fetchEpoch, o)
				if err != nil {
					return nil, fmt.Errorf("trainsim: oracle re-plan at epoch %d: %w", e, err)
				}
				moved := 0.0
				for i := range next.Of {
					if next.Of[i] != assign.Of[i] {
						moved += itemBytes[i]
					}
				}
				assign = next
				rep.Replans++
				rep.FullSolves++
				rep.MovedBytes += moved
				stall = moved / opt.MigrationBW
			}
		} else {
			// The closed loop: observe the epoch's traffic, let the EWMA
			// estimate converge, check for drift, re-solve incrementally.
			if err := mon.ObserveWeights(live); err != nil {
				return nil, err
			}
			mon.Tick()
			est = mon.HotnessInto(est)
			sig, err := det.Check(ref, est)
			if err != nil {
				return nil, err
			}
			if sig.Tripped {
				rep.Trips++
				mig, err := repl.Replan(est)
				if err != nil {
					return nil, fmt.Errorf("trainsim: adaptive re-plan at epoch %d: %w", e, err)
				}
				if mig.Skipped {
					// The migration cannot pay for itself: accept the
					// drifted distribution as the new reference so the
					// detector re-arms for further drift instead of
					// re-tripping on the same shift every cooldown.
					rep.Skipped++
					ref = append(ref[:0], est...)
				}
				if mig.Triggered {
					assign = mig.Assignment
					ref = append(ref[:0], est...)
					rep.Replans++
					if mig.Incremental {
						rep.DeltaSolves++
					} else {
						rep.FullSolves++
					}
					rep.MovedBytes += mig.MovedBytes
					stall = mig.MovedBytes / opt.MigrationBW
				}
				det.Reset()
			}
		}

		io, err := ioOf(assign, live)
		if err != nil {
			return nil, fmt.Errorf("trainsim: drift epoch %d: %w", e, err)
		}
		dur := es.epochOf(io, es.computeTime) + stall
		rep.EpochTimes = append(rep.EpochTimes, dur)
		rep.StallSeconds += stall
		total += dur
	}
	rep.Total = units.Seconds(total)
	rep.MeanEpoch = total / float64(opt.Epochs)
	if hit, err := adaptive.HitRate(assign, live); err == nil {
		rep.FinalHitFast = hit
	}

	sp.SetFloat("total_seconds", total)
	sp.SetInt("drift_events", rep.DriftEvents)
	sp.SetInt("replans", rep.Replans)
	o.Counter("trainsim_drift_epochs_total").Add(float64(opt.Epochs))
	o.Counter("trainsim_drift_events_total").Add(float64(rep.DriftEvents))
	o.Counter("trainsim_drift_replans_total").Add(float64(rep.Replans))
	o.Gauge("trainsim_drift_moved_bytes").Set(rep.MovedBytes)
	o.Gauge("trainsim_drift_mean_epoch_seconds").Set(rep.MeanEpoch)
	return rep, nil
}
