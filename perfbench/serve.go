package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moment/internal/server"
	"moment/internal/topology"
)

// serve-zipf: two callers in a closed loop, then an open loop at a fixed
// offered rate, against an in-process momentd with the default
// server.Config over loopback HTTP. Problem
// popularity is zipf-skewed over a universe four times the default
// 256-entry plan cache, so the tail evicts: hits load admission, the plan
// cache and JSON, misses load the planner. A planner speedup should move
// the tail and leave the median alone; a serving change the reverse.

const (
	// serveTailQ is the op_ms_tail percentile of the closed loop. Its
	// ~2000 requests keep about 20 beyond a p99, which sits among the
	// serial explain runs and spread 28% across ten seeds; the p95 sits
	// among plan-cache misses and keeps about 100 beyond.
	serveTailQ = 0.95
	// closedRate is what the closed loop's schedule offers: far above what
	// two callers complete, so both are always busy.
	closedRate = 400.0
	// serveRate and openFor shape the open-loop phase. At 20/s the planner
	// runs about a sixth of the time, so most cache hits find an idle core.
	serveRate     = 20.0
	openFor       = 10 * time.Second
	serveWarm     = 128  // most popular problems planned before measuring
	serveUniverse = 1024 // distinct problems
	serveTenants  = 40
	serveZipfS    = 1.2 // problem popularity skew
	tenantZipfS   = 1.3
	faultSpecs    = 8 // distinct fault schedules
	spinWindow    = 2 * time.Millisecond
	serveCheckMax = 20 // responses re-checked by an identical request
	// serveSimSet is how many distinct healthy problems sim_epoch_s
	// averages over: the first ones of the closed loop's schedule, so the
	// figure repeats exactly for a seed.
	serveSimSet = 256
)

// request is one scheduled request of an open-loop phase.
type request struct {
	Due     time.Duration // offset from the phase start
	Problem int           // index into the universe
	Faults  int           // index into the machine shape's fault specs, -1 for none
	Explain bool
	Tenant  int
}

// serveUniverseGen builds the seeded problem universe and fault specs.
// Every problem plans machine B, so every miss costs about the same and
// the tail percentile does not sit on the boundary between a cheap and a
// costly machine; odd ranks send B as spec text, which momentd parses and
// canonicalizes to the same machine.
func serveUniverseGen(seed int64) ([]server.PlanRequest, []string) {
	rng := rand.New(rand.NewSource(seed))
	spec := topology.FormatSpec(topology.MachineB())
	seen := map[string]bool{}
	var out []server.PlanRequest
	for len(out) < serveUniverse {
		// Problem k has popularity rank k; dataset, model and fanouts
		// rotate with the rank (every 48 ranks hold each combination
		// once), so every seed's popular head has the same mix and only
		// the batch size is drawn.
		k := len(out)
		nd, nm := len(datasetNames), len(modelKinds)
		req := server.PlanRequest{Workload: server.WorkloadSpec{
			Dataset:   datasetNames[k%nd],
			Model:     strings.ToLower(modelKinds[k/nd%nm].String()),
			BatchSize: 2000 + 250*rng.Intn(41),
			Fanouts:   fanoutSets[k/(nd*nm)%len(fanoutSets)],
		}}
		key := fmt.Sprintf("%+v", req.Workload)
		if seen[key] {
			continue
		}
		seen[key] = true
		if k%2 == 1 {
			req.MachineSpec = spec
		} else {
			req.Machine = "B"
		}
		out = append(out, req)
	}
	var specs []string
	for i := 0; i < faultSpecs; i++ {
		specs = append(specs, faultSpec(rng, 8, 4))
	}
	return out, specs
}

// schedule generates the open-loop schedule of one phase: arrivals evenly
// spaced at rate per second for d, zipf-skewed problems and tenants, every
// 50th request an explain and every 25th a fault schedule. Popularity is
// drawn with a golden-ratio sequence through the zipf CDF rather than
// independently, so every phase touches the tail — and misses — in the
// same proportion; with independent draws the miss share, and with it
// every latency figure, moved 20% between seeds. The same (seed, phase)
// gives the same schedule.
func schedule(seed int64, phase int, rate float64, d time.Duration) []request {
	rng := rand.New(rand.NewSource(seed*1000 + int64(phase)))
	tz := rand.NewZipf(rng, tenantZipfS, 1, serveTenants-1)
	cdf := zipfCDF(serveUniverse, serveZipfS)
	u := rng.Float64()
	out := make([]request, int(d.Seconds()*rate))
	for i := range out {
		u = math.Mod(u+goldenStep, 1)
		r := request{
			Due:     time.Duration(float64(i) / rate * float64(time.Second)),
			Problem: sort.SearchFloat64s(cdf, u),
			Faults:  -1,
			Tenant:  int(tz.Uint64()),
		}
		switch {
		case i%50 == 25:
			r.Explain = true
		case i%25 == 7:
			r.Faults = rng.Intn(faultSpecs)
		}
		out[i] = r
	}
	return out
}

// goldenStep is the fractional part of the golden ratio: stepping by it
// fills [0,1) more evenly than independent draws do.
var goldenStep = (math.Sqrt(5) - 1) / 2

// zipfCDF is the cumulative distribution of popularity ranks 0..n-1 with
// P(k) proportional to (1+k)^-s, the law rand.Zipf draws from.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(1+float64(k), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// warmup is one request for each of the serveWarm most popular
// problems, all due at once.
func warmup() []request {
	out := make([]request, serveWarm)
	for i := range out {
		out[i] = request{Problem: i, Faults: -1}
	}
	return out
}

// outcome is what the client saw for one request. Times are offsets from
// the phase start.
type outcome struct {
	Due, Sent, Done time.Duration
	Status          int // 0 on a transport error
	Err             string

	Cached, Coalesced bool
	PlanMS            float64
	Placement         string
	PredictedIO       float64
	EpochSec          float64
}

// latencyMS is the request's latency from its due time; a failed request
// counts as missing every limit.
func (o outcome) latencyMS() float64 {
	if o.Status != http.StatusOK {
		return math.Inf(1)
	}
	return ms(o.Done - o.Due)
}

func (o outcome) lagMS() float64 { return ms(o.Sent - o.Due) }

// serveEnv is the in-process momentd and its loopback client.
type serveEnv struct {
	srv      *server.Server
	hs       *http.Server
	served   chan struct{} // closed when hs.Serve returns
	url      string
	client   *http.Client
	universe []server.PlanRequest
	faults   []string
	workers  int
}

func setupServe(seed int64) (*serveEnv, error) {
	universe, specs := serveUniverseGen(seed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	env := &serveEnv{
		srv:      server.New(server.Config{}),
		served:   make(chan struct{}),
		url:      "http://" + ln.Addr().String(),
		universe: universe,
		faults:   specs,
		workers:  workers,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
	}
	env.hs = &http.Server{Handler: env.srv}
	go func() {
		defer close(env.served)
		_ = env.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := env.client.Get(env.url + "/healthz")
	if err != nil {
		env.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		env.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return env, nil
}

// close stops the HTTP server, drains momentd and waits for both.
func (env *serveEnv) close() {
	env.client.CloseIdleConnections()
	_ = env.hs.Close()
	<-env.served
	_ = env.srv.Close()
}

// body renders request r's JSON body.
func (env *serveEnv) body(r request) ([]byte, error) {
	req := env.universe[r.Problem]
	req.Tenant = fmt.Sprintf("tenant-%02d", r.Tenant)
	if r.Faults >= 0 {
		req.Faults = env.faults[r.Faults]
	}
	return json.Marshal(req)
}

// key identifies the planning problem of r: its problem and fault schedule
// (tenants and endpoints share plans).
func (r request) key() string { return fmt.Sprintf("%d/%d", r.Problem, r.Faults) }

// do sends one request and decodes what the checks need.
func (env *serveEnv) do(ctx context.Context, r request) outcome {
	var o outcome
	b, err := env.body(r)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	path := "/v1/plan"
	if r.Explain {
		path = "/v1/explain"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, env.url+path, bytes.NewReader(b))
	if err != nil {
		o.Err = err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := env.client.Do(req)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	o.Status = resp.StatusCode
	if o.Status != http.StatusOK {
		o.Err = strings.TrimSpace(string(data))
		return o
	}
	if r.Explain {
		var er server.ExplainResponse
		if err := json.Unmarshal(data, &er); err != nil {
			o.Status, o.Err = 0, err.Error()
			return o
		}
		o.Placement = placementKey(er.Placement)
		o.PredictedIO, o.EpochSec = er.PredictedIOSec, er.EpochSec
		return o
	}
	var pr server.PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		o.Status, o.Err = 0, err.Error()
		return o
	}
	o.Cached, o.Coalesced, o.PlanMS = pr.CachedPlan, pr.Coalesced, pr.PlanMS
	o.Placement = placementKey(pr.Placement)
	o.PredictedIO, o.EpochSec = pr.PredictedIOSec, pr.Epoch.EpochSec
	return o
}

func placementKey(p server.PlacementOut) string {
	return strings.Join(p.GPUAt, ",") + "|" + strings.Join(p.SSDAt, ",")
}

// openLoop sends reqs on their schedule from env.workers client
// goroutines. A request is sent at its due time or, when every worker is
// busy, as soon as one frees up; its latency counts from the due time, so
// a stall charges every request queued behind it.
func (env *serveEnv) openLoop(reqs []request, stop time.Duration) []outcome {
	return runOpenLoop(reqs, env.workers, stop, func(r request) outcome { return env.do(context.Background(), r) })
}

// runOpenLoop is the open-loop load generator: workers goroutines take
// requests in schedule order, wait for each one's due time, send it with
// send, and stamp the outcome relative to the phase start. With stop > 0 no request
// is sent after stop; the outcomes returned are those of the requests
// sent, a prefix of reqs.
func runOpenLoop(reqs []request, workers int, stop time.Duration, send func(request) outcome) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || (stop > 0 && time.Since(start) >= stop) {
					return
				}
				r := reqs[i]
				// Sleep to just before the due time, then yield until it:
				// a timer alone can wake a millisecond late, which would
				// read as latency on every cache hit.
				if wait := r.Due - time.Since(start) - spinWindow; wait > 0 {
					time.Sleep(wait)
				}
				for time.Since(start) < r.Due {
					runtime.Gosched()
				}
				sent := time.Since(start)
				o := send(r)
				o.Due, o.Sent, o.Done = r.Due, sent, time.Since(start)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	sent := 0
	for sent < len(out) && out[sent].Done > 0 {
		sent++
	}
	return out[:sent]
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	n, failed int
	lat       []float64 // from due time, +Inf for failures
	lagP50    float64
	lagP99    float64
}

func summarize(outs []outcome) phaseStats {
	st := phaseStats{n: len(outs)}
	var lags []float64
	for _, o := range outs {
		if o.Status != http.StatusOK {
			st.failed++
		}
		st.lat = append(st.lat, o.latencyMS())
		lags = append(lags, o.lagMS())
	}
	st.lagP50 = quantile(lags, 0.5)
	st.lagP99 = quantile(lags, 0.99)
	return st
}

func runServeZipf(rc runConfig) (*result, error) {
	env, setupS, err := timeSetup(func() (*serveEnv, error) { return setupServe(rc.seed) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := newResult()

	// Warm-up plans the most popular problems once, so the measured phases
	// see the plan cache near its steady state; not measured.
	env.openLoop(warmup(), 0)

	// The measured phase is a closed loop: two callers, each sending its
	// next request as soon as its reply arrives (the schedule is offered
	// far faster than momentd can answer, so neither ever waits for a due
	// time). Latency counts from the send.
	before := counters(env.srv.Observer())
	stopRSS := sampleRSS()
	a0 := allocBytes()
	creqs := schedule(rc.seed, 1, closedRate, time.Duration(rc.seconds*float64(time.Second)))
	couts := env.openLoop(creqs, time.Duration(rc.seconds*float64(time.Second)))
	allocs := allocBytes() - a0
	rss := stopRSS()
	after := counters(env.srv.Observer())
	creqs = creqs[:len(couts)]
	var (
		lat  []float64
		ok   int
		last time.Duration
	)
	for _, o := range couts {
		if o.Status == http.StatusOK {
			ok++
			lat = append(lat, ms(o.Done-o.Sent))
		} else {
			lat = append(lat, math.Inf(1))
		}
		if o.Done > last {
			last = o.Done
		}
	}

	// The open-loop phase offers serveRate on a schedule and times each
	// request from its due time, so a stall is charged to every request
	// queued behind it; it is reported on the info line.
	oreqs := schedule(rc.seed, 2, serveRate, openFor)
	oouts := env.openLoop(oreqs, 0)
	st := summarize(oouts)

	reqs, outs := append(creqs, oreqs...), append(couts, oouts...)
	res.Attempted = len(outs)
	for _, o := range outs {
		if o.Status != http.StatusOK {
			res.Failed++
		}
	}
	if rc.trace {
		t0 := time.Now()
		l := newLedger()
		m := serveLayerMetrics(creqs, couts, before, after, l)
		m["bench.generator_lag_ms_p99"] = st.lagP99
		total := 0.0
		for _, v := range lat {
			if !math.IsInf(v, 1) {
				total += v
			}
		}
		m["bench.trace_overhead_frac"] = frac(ms(time.Since(t0)), total)
		setLayerMetrics(res, m)
		res.info["op"] = "one HTTP request"
		res.info["requests"] = len(couts)
		checkServe(env, reqs, outs, res)
		return res, nil
	}

	pTail, err := tail(lat, serveTailQ)
	if err != nil {
		return nil, err
	}
	simEpoch, simProblems := servedEpochGeomean(creqs, couts, serveSimSet)
	if err := setEndToEnd(res, map[string]float64{
		"setup_s":         setupS,
		"rss_mb":          rss,
		"alloc_mb_per_op": float64(allocs) / float64(len(couts)) / (1 << 20),
		"ops_per_s":       float64(ok) / last.Seconds(),
		"op_ms_p50":       median(lat),
		"op_ms_tail":      pTail,
		"sim_epoch_s":     simEpoch,
	}); err != nil {
		return nil, err
	}
	res.info["op"] = "one HTTP request, two callers in a closed loop"
	res.info["requests"] = len(couts)
	res.info["tail_quantile"] = serveTailQ
	res.info["sim_epoch_problems"] = simProblems
	if p99, err := tail(lat, 0.99); err == nil && !math.IsInf(p99, 1) {
		res.info["serve_ms_p99"] = p99
	}
	res.info["open_loop_rps"] = serveRate
	res.info["open_loop_ms_p50"] = median(st.lat)
	res.info["open_loop_ms_p95"] = quantile(st.lat, 0.95)
	res.info["generator_lag_ms_p50"] = st.lagP50
	res.info["generator_lag_ms_p99"] = st.lagP99
	checkServe(env, reqs, outs, res)
	return res, nil
}

// servedEpochGeomean is the geometric mean simulated epoch over the first
// max distinct healthy problems, in schedule order, that the closed loop
// planned, and how many that was. The closed loop serves far more than max
// distinct problems, so the set, a property of the seed and the plans,
// repeats exactly for a seed.
func servedEpochGeomean(reqs []request, outs []outcome, max int) (float64, int) {
	seen := map[string]bool{}
	var eps []float64
	for i, r := range reqs {
		if len(eps) == max {
			break
		}
		if r.Faults >= 0 || outs[i].Status != http.StatusOK || seen[r.key()] {
			continue
		}
		seen[r.key()] = true
		eps = append(eps, outs[i].EpochSec)
	}
	return geomean(eps), len(eps)
}

// checkServe runs the serve-zipf output checks, outside the timed region:
// every failed request was already counted; every 200 response for a
// problem must carry the same placement and predicted I/O, and a sample of
// problems is requested once more after the load to confirm it.
func checkServe(env *serveEnv, reqs []request, outs []outcome, res *result) {
	type answer struct {
		placement string
		io        float64
	}
	first := map[string]answer{}
	firstReq := map[string]request{}
	for i, o := range outs {
		if o.Status != http.StatusOK {
			res.fail("request %d (%s): status %d: %s", i, reqs[i].key(), o.Status, o.Err)
			continue
		}
		a := answer{o.Placement, o.PredictedIO}
		k := reqs[i].key()
		if prev, ok := first[k]; !ok {
			first[k], firstReq[k] = a, reqs[i]
		} else if prev != a {
			res.fail("problem %s answered %+v, earlier %+v", k, a, prev)
		}
		if !(o.PredictedIO > 0) {
			res.fail("request %d (%s): predicted I/O %v", i, k, o.PredictedIO)
		}
	}
	checked := 0
	for k, r := range firstReq {
		if checked == serveCheckMax {
			break
		}
		checked++
		r.Explain = false
		o := env.do(context.Background(), r)
		if o.Status != http.StatusOK {
			res.fail("re-check of %s: status %d: %s", k, o.Status, o.Err)
			continue
		}
		if a := (answer{o.Placement, o.PredictedIO}); a != first[k] {
			res.fail("re-check of %s answered %+v, load phase %+v", k, a, first[k])
		}
	}
	res.info["distinct_problems"] = len(first)
	res.info["rechecked"] = checked
}

// serveLayerMetrics derives the serving-layer metrics from the responses
// (latency from send, by how the server answered) and from the counters
// momentd exports on its observer.
func serveLayerMetrics(reqs []request, outs []outcome, before, after map[string]float64, l *ledger) map[string]float64 {
	var waits []float64
	for i, o := range outs {
		if o.Status != http.StatusOK {
			continue
		}
		sendMS := ms(o.Done - o.Sent)
		switch {
		case reqs[i].Explain:
			l.add("server.explain", sendMS)
		case o.Cached:
			l.add("server.hit", sendMS)
		case o.Coalesced:
			l.add("server.coalesced", sendMS)
		default:
			l.add("server.miss", sendMS)
			waits = append(waits, math.Max(0, sendMS-o.PlanMS))
		}
	}
	d := func(name string) float64 { return after[name] - before[name] }
	hits, misses := d("momentd_plan_cache_hits_total"), d("momentd_plan_cache_misses_total")
	runs := d("momentd_planner_runs_total") + d("momentd_explain_total")
	cands := d("placement_candidates_scored_total")
	solves := d("maxflow_solves_total")
	return map[string]float64{
		"server.plan_cache_hit_frac":        frac(hits, hits+misses),
		"server.coalesced_frac":             frac(d("momentd_coalesced_total"), hits+misses),
		"server.shed_frac":                  frac(d("momentd_shed_total"), hits+misses),
		"server.wait_ms_mean":               mean(waits),
		"server.hit_ms_p50":                 l.median("server.hit"),
		"server.miss_ms_p50":                l.median("server.miss"),
		"server.explain_ms_p50":             l.median("server.explain"),
		"placement.score_cache_hit_frac":    frac(d("placement_cache_hits_total"), d("placement_cache_hits_total")+d("placement_cache_misses_total")),
		"placement.candidates_evaluated":    frac(cands, runs),
		"maxflow.solves_per_plan":           frac(solves, runs),
		"maxflow.solves_per_candidate":      frac(solves, cands),
		"maxflow.augmenting_paths_per_plan": frac(d("maxflow_augmenting_paths_total"), runs),
		"maxflow.warm_abort_frac":           frac(d("maxflow_warm_aborts_total"), d("maxflow_warm_starts_total")),
		"faults.injected_per_op":            frac(d("faults_injected_total"), runs),
	}
}
