package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64) ([]planProblem, []horizonSpec) {
		pg, hg := newPlanGen(seed), newHorizonGen(seed)
		var ps []planProblem
		var hs []horizonSpec
		for i := 0; i < 3*len(planSlots); i++ {
			ps = append(ps, pg.next())
		}
		for i := 0; i < 3*len(horizonSlots); i++ {
			hs = append(hs, hg.next())
		}
		return ps, hs
	}
	p1, h1 := draw(7)
	p2, h2 := draw(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(h1, h2) {
		t.Fatal("seed 7 drew two different streams")
	}
	p3, h3 := draw(8)
	if reflect.DeepEqual(p1, p3) || reflect.DeepEqual(h1, h3) {
		t.Fatal("seeds 7 and 8 drew the same stream")
	}
	seen := map[string]bool{}
	for _, p := range p1 {
		if seen[p.key()] {
			t.Fatalf("problem %s drawn twice", p.key())
		}
		seen[p.key()] = true
	}

	u1, f1 := serveUniverseGen(7)
	u2, f2 := serveUniverseGen(7)
	if !reflect.DeepEqual(u1, u2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("seed 7 drew two different serving universes")
	}
	s1 := schedule(7, 1, 50, 10*time.Second)
	s2 := schedule(7, 1, 50, 10*time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("seed 7 drew two different open-loop schedules")
	}
	if reflect.DeepEqual(s1, schedule(8, 1, 50, 10*time.Second)) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].Due < s1[i-1].Due {
			t.Fatalf("schedule not in due order at %d", i)
		}
	}
}

func TestScheduleMix(t *testing.T) {
	reqs := schedule(3, 1, 40, 50*time.Second)
	if len(reqs) != 2000 {
		t.Fatalf("%d requests, want 2000", len(reqs))
	}
	var explain, faulted, head int
	for _, r := range reqs {
		if r.Explain {
			explain++
		}
		if r.Faults >= 0 {
			faulted++
		}
		if r.Problem < serveWarm {
			head++
		}
	}
	if explain != 40 || faulted != 80 {
		t.Errorf("%d explain and %d faulted requests, want 40 and 80", explain, faulted)
	}
	// Every phase hits the popular head in the proportion the zipf law
	// gives it, to within a request or two.
	want := zipfCDF(serveUniverse, serveZipfS)[serveWarm-1] * float64(len(reqs))
	if math.Abs(float64(head)-want) > 3 {
		t.Errorf("%d requests for the %d most popular problems, want %.1f", head, serveWarm, want)
	}
}

func TestStreamsBalanceModelsAndFanouts(t *testing.T) {
	// Over 12 cycles every shape has drawn a multiple of 12 problems, so
	// each model and each fanout set has exactly its share.
	g := newPlanGen(5)
	type cell struct{ shape, what string }
	count := map[cell]int{}
	shapes := map[string]int{}
	for i := 0; i < 12*len(planSlots); i++ {
		p := g.next()
		shape := p.Machine
		if p.Nodes > 0 {
			shape = "cluster"
		}
		shapes[shape]++
		count[cell{shape, p.Model.String()}]++
		count[cell{shape, fmt.Sprint(p.Fanouts)}]++
	}
	for shape, n := range shapes {
		for _, m := range modelKinds {
			if got := count[cell{shape, m.String()}]; got != n/len(modelKinds) {
				t.Errorf("%s: %d of %d problems use %v, want %d", shape, got, n, m, n/len(modelKinds))
			}
		}
		for _, f := range fanoutSets {
			if got := count[cell{shape, fmt.Sprint(f)}]; got != n/len(fanoutSets) {
				t.Errorf("%s: %d of %d problems use fanouts %v, want %d", shape, got, n, f, n/len(fanoutSets))
			}
		}
	}

	// Every 48 popularity ranks of the serving universe hold each
	// dataset, model and fanout combination once.
	u, _ := serveUniverseGen(5)
	for start := 0; start+48 <= len(u); start += 48 {
		seen := map[string]bool{}
		for _, r := range u[start : start+48] {
			seen[fmt.Sprint(r.Workload.Dataset, r.Workload.Model, r.Workload.Fanouts)] = true
		}
		if len(seen) != 48 {
			t.Fatalf("ranks %d-%d hold %d combinations, want 48", start, start+47, len(seen))
		}
	}
}

func TestWindowsDropSlowestAndFastest(t *testing.T) {
	// Eight windows of ten 10 ms operations; a burst triples window 2 and
	// window 5 runs at half the time. Trimming a quarter at each end drops
	// those two and the next fastest and slowest, which tie at 10 ms.
	w := windowed{per: 10, q: 0.5}
	for i := 0; i < 8; i++ {
		d := 10 * time.Millisecond
		switch i {
		case 2:
			d *= 3
		case 5:
			d /= 2
		}
		for j := 0; j < w.per; j++ {
			w.add(d, 3, ms(d))
			// Mid-window the run goes on; from the second window on, the
			// kept windows hold the 20 samples a median needs.
			if want := j < w.per-1 || i == 0; w.short() != want {
				t.Fatalf("window %d op %d: short() = %v", i, j, !want)
			}
		}
	}
	ws, err := w.stats()
	if err != nil {
		t.Fatal(err)
	}
	if ws.windows != 8 || ws.kept != 4 {
		t.Fatalf("kept %d of %d windows, want 4 of 8", ws.kept, ws.windows)
	}
	if ws.p50 != 10 || ws.tail != 10 {
		t.Errorf("p50 %v ms, tail %v ms, want 10 and 10", ws.p50, ws.tail)
	}
	if want := 300.0; math.Abs(ws.perSec-want) > 1e-9 {
		t.Errorf("%v units/s, want %v", ws.perSec, want)
	}
	// Too few kept samples for the tail keeps the run going.
	short := windowed{per: 2, q: 0.95}
	for i := 0; i < 40; i++ {
		short.add(time.Millisecond, 1, 1)
	}
	if !short.short() {
		t.Error("40 samples, 24 of them kept, are enough for a p95")
	}
}

func TestSampleRSSStops(t *testing.T) {
	stop := sampleRSS()
	time.Sleep(3 * rssEvery)
	if mb := stop(); !(mb > 0) {
		t.Fatalf("median resident set %v MiB", mb)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, q := range []float64{planTailQ, serveTailQ, horizonTailQ} {
		n := samplesFor(q)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, err := tail(xs, q); err != nil {
			t.Errorf("p%g of %d samples: %v", q*100, n, err)
		}
		if beyond := float64(n) * (1 - q); beyond < minBeyond-1e-9 {
			t.Errorf("samplesFor(%g) = %d keeps %.2f beyond", q, n, beyond)
		}
		if _, err := tail(xs[:n-1], q); err == nil {
			t.Errorf("p%g of %d samples accepted with fewer than %d beyond", q*100, n-1, minBeyond)
		}
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", got)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	// One worker; the first request stalls for 60ms. The requests due
	// behind it are sent late, and their latency must include the wait.
	reqs := []request{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 20 * time.Millisecond}}
	stall := 60 * time.Millisecond
	outs := runOpenLoop(reqs, 1, 0, func(r request) outcome {
		if r.Due == 0 {
			time.Sleep(stall)
		}
		return outcome{Status: http.StatusOK}
	})
	for i, o := range outs {
		if o.Due != reqs[i].Due {
			t.Fatalf("request %d: due %v, want %v", i, o.Due, reqs[i].Due)
		}
		if o.Sent < o.Due || o.Done < o.Sent {
			t.Fatalf("request %d: due %v sent %v done %v out of order", i, o.Due, o.Sent, o.Done)
		}
	}
	for i := 1; i < len(outs); i++ {
		want := ms(stall - reqs[i].Due)
		if got := outs[i].latencyMS(); got < want {
			t.Errorf("request %d: latency %.1fms, want >= %.1fms (from due time)", i, got, want)
		}
		if got := outs[i].lagMS(); got < want {
			t.Errorf("request %d: generator lag %.1fms, want >= %.1fms", i, got, want)
		}
	}
}

func TestFailuresCountAgainstAttempted(t *testing.T) {
	reqs := []request{{Problem: 1, Faults: -1}, {Problem: 2, Faults: -1}, {Problem: 3, Faults: -1}}
	outs := []outcome{
		{Status: http.StatusOK, Done: time.Millisecond, Placement: "p", PredictedIO: 1},
		{Status: http.StatusTooManyRequests, Done: time.Millisecond, Err: "shed"},
		{Status: 0, Err: "connection refused"},
	}
	st := summarize(outs)
	if st.n != 3 || st.failed != 2 {
		t.Fatalf("summarize: %d attempted, %d failed; want 3 and 2", st.n, st.failed)
	}
	if !math.IsInf(st.lat[1], 1) || !math.IsInf(st.lat[2], 1) {
		t.Fatalf("failed requests must miss every latency limit, got %v", st.lat)
	}
	if q := quantile(st.lat, 0.5); !math.IsInf(q, 1) {
		t.Fatalf("p50 with 2 of 3 failed = %v, want +Inf", q)
	}
	res := newResult()
	checkServe(&serveEnv{}, reqs[1:], outs[1:], res)
	if res.Correct {
		t.Fatal("a non-200 response passed the output checks")
	}
}

func TestOpenLoopStopsSendingAtDeadline(t *testing.T) {
	reqs := make([]request, 100)
	for i := range reqs {
		reqs[i].Due = time.Duration(i) * time.Millisecond
	}
	outs := runOpenLoop(reqs, 2, 20*time.Millisecond, func(request) outcome {
		time.Sleep(5 * time.Millisecond)
		return outcome{Status: http.StatusOK}
	})
	if len(outs) == 0 || len(outs) >= len(reqs) {
		t.Fatalf("%d of %d requests sent before a 20ms stop", len(outs), len(reqs))
	}
	for i, o := range outs {
		if o.Sent >= 20*time.Millisecond+time.Millisecond || o.Done == 0 {
			t.Errorf("request %d sent at %v, done at %v", i, o.Sent, o.Done)
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"plan-cold", "serve-zipf", "horizon"}) {
		t.Errorf("workloads %v", names)
	}
	for _, w := range names {
		if workloads[w] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m.name] = m.unit
	}
	if len(doc.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(doc.EndToEnd), len(want))
	}
	for _, m := range doc.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end %s [%s] not reported with that unit", m.Name, m.Unit)
		}
	}
}
