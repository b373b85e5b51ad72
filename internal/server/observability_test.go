package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"moment/internal/obs"
)

// flightDump mirrors the /debug/flight wire document.
type flightDump struct {
	Dropped uint64 `json:"dropped"`
	Events  []struct {
		Seq     uint64  `json:"seq"`
		AtSec   float64 `json:"at_sec"`
		Kind    string  `json:"kind"`
		Name    string  `json:"name"`
		Subject string  `json:"subject"`
		Reason  string  `json:"reason"`
		V1      float64 `json:"v1"`
		V2      float64 `json:"v2"`
	} `json:"events"`
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestFlightAndPprofEndpoints: with FlightEvents configured, request
// handling lands admission and cache events on the ring and /debug/flight
// serves them; /debug/pprof/ serves runtime profiles off the private mux.
func TestFlightAndPprofEndpoints(t *testing.T) {
	s := newTestServer(t, Config{FlightEvents: 64}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := planBody(t, 4000)
	if code, _, _ := postPlan(t, ts, body, nil); code != http.StatusOK {
		t.Fatalf("first plan: code %d", code)
	}
	if code, pr, _ := postPlan(t, ts, body, nil); code != http.StatusOK || !pr.CachedPlan {
		t.Fatalf("second plan: code %d cached %v, want cache hit", code, pr != nil && pr.CachedPlan)
	}

	code, raw := getBody(t, ts, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight: code %d", code)
	}
	var dump flightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("bad flight dump %q: %v", raw, err)
	}
	want := map[string]bool{"admitted": false, "hit": false, "miss": false}
	for _, ev := range dump.Events {
		switch {
		case ev.Kind == "admission" && ev.Name == "admitted":
			want["admitted"] = true
		case ev.Kind == "cache" && ev.Reason == "hit":
			want["hit"] = true
		case ev.Kind == "cache" && ev.Reason == "miss":
			want["miss"] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("flight dump missing %q event; got %d events", name, len(dump.Events))
		}
	}

	code, raw = getBody(t, ts, "/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK || !strings.Contains(string(raw), "goroutine") {
		t.Errorf("/debug/pprof/goroutine: code %d body %.60q", code, raw)
	}
}

// TestFlightDisabledEndpoint: without FlightEvents the endpoint still
// answers, with the empty dump.
func TestFlightDisabledEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, raw := getBody(t, ts, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight: code %d", code)
	}
	var dump flightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Dropped != 0 || len(dump.Events) != 0 {
		t.Errorf("disabled recorder dumped %d events", len(dump.Events))
	}
}

// TestDefaultWatchdogRules pins the default rule set: a shed storm, queue
// saturation at 90% of the queue, and an epoch-time regression.
func TestDefaultWatchdogRules(t *testing.T) {
	rules := DefaultWatchdogRules(Config{QueueDepth: 40})
	want := []struct{ name, series string }{
		{"shed-storm", "momentd_shed_total"},
		{"queue-saturated", "momentd_queue_depth"},
		{"epoch-regress", "trainsim_epoch_seconds"},
	}
	if len(rules) != len(want) {
		t.Fatalf("%d default rules, want %d: %+v", len(rules), len(want), rules)
	}
	for i, w := range want {
		if rules[i].Name != w.name || rules[i].Series != w.series {
			t.Errorf("rule %d = %s on %s, want %s on %s", i, rules[i].Name, rules[i].Series, w.name, w.series)
		}
	}
	if rules[1].Max != 36 {
		t.Errorf("queue-saturated max %v, want 36 (90%% of QueueDepth 40)", rules[1].Max)
	}
}

// TestWatchdogShedStorm is the watchdog end-to-end: block the single
// worker, fill the one queue slot, shed a deterministic burst past the
// rule's delta bound, and assert that exactly one diagnostics bundle
// appears — containing flight events that span the trigger (the sheds
// leading in, then the trip itself) — with repeat trips suppressed by the
// cooldown.
func TestWatchdogShedStorm(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	t.Cleanup(unblock)

	cfg := Config{
		Workers:          1,
		QueueDepth:       1,
		FlightEvents:     256,
		WatchdogDir:      dir,
		WatchdogInterval: time.Hour, // checks driven by hand below
		WatchdogCooldown: time.Hour,
		WatchdogRules: []obs.Rule{
			{Name: "shed-storm", Series: "momentd_shed_total", Kind: obs.RuleDeltaMax, Max: 5},
		},
	}
	s := newTestServer(t, cfg, func(ctx context.Context, cr *canonReq) (*planResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return fakeResult(cr.name), nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the worker, then the queue slot, with two distinct problems.
	// Strictly in that order: the worker releases the queue slot before it
	// marks itself inflight, so waiting for inflight==1 guarantees the
	// second request lands in the queue instead of racing the first into
	// the single slot and shedding.
	var wg sync.WaitGroup
	occupy := func(batch int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/plan", "application/json",
				bytes.NewReader(planBody(t, batch)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	occupy(1000)
	waitCounter(t, s.obs.Gauge("momentd_inflight_runs"), 1)
	occupy(1001)
	waitCounter(t, s.obs.Gauge("momentd_queue_depth"), 1)

	// Six distinct requests now shed deterministically on queue_full —
	// one past the rule's Max of 5.
	for i := 0; i < 6; i++ {
		code, _, hdr := postPlan(t, ts, planBody(t, 2000+i), nil)
		if code != http.StatusTooManyRequests {
			t.Fatalf("storm request %d: code %d, want 429", i, code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Errorf("storm request %d: no Retry-After", i)
		}
	}

	trip, err := s.watchdog.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if trip == nil || trip.Rule != "shed-storm" {
		t.Fatalf("trip = %+v, want shed-storm", trip)
	}
	if trip.Value != 6 || trip.Limit != 5 {
		t.Errorf("trip value/limit = %v/%v, want 6/5", trip.Value, trip.Limit)
	}
	if trip.Bundle == "" {
		t.Fatal("trip produced no bundle")
	}

	// A second storm inside the cooldown: the trip counter moves but no
	// second bundle lands.
	for i := 0; i < 6; i++ {
		if code, _, _ := postPlan(t, ts, planBody(t, 3000+i), nil); code != http.StatusTooManyRequests {
			t.Fatalf("second storm request %d: code %d, want 429", i, code)
		}
	}
	if trip2, err := s.watchdog.Check(); err != nil || trip2 != nil {
		t.Fatalf("second check = %+v, %v; want cooldown suppression", trip2, err)
	}
	if got := s.obs.Counter("watchdog_trips_total", obs.L("rule", "shed-storm")).Value(); got != 2 {
		t.Errorf("watchdog_trips_total = %v, want 2 (cooldown still counts)", got)
	}

	// Unblock the workers and drain (the drain path runs one final check).
	unblock()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("bundles = %v, want exactly one", names)
	}
	name := entries[0].Name()
	if !strings.HasPrefix(name, "bundle-001-") || !strings.HasSuffix(name, "-shed-storm") {
		t.Errorf("bundle dir %q, want bundle-001-<stamp>-shed-storm", name)
	}
	bundle := filepath.Join(dir, name)
	for _, f := range []string{"trip.json", "flight.json", "metrics.prom", "goroutines.txt", "heap.txt"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}

	// trip.json round-trips and matches the returned trip.
	rawTrip, err := os.ReadFile(filepath.Join(bundle, "trip.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk obs.Trip
	if err := json.Unmarshal(rawTrip, &onDisk); err != nil {
		t.Fatalf("bad trip.json %q: %v", rawTrip, err)
	}
	if onDisk.Rule != "shed-storm" || onDisk.Value != 6 {
		t.Errorf("trip.json = %+v", onDisk)
	}

	// flight.json spans the trigger: shed events lead in, the watchdog
	// trip follows them.
	rawFlight, err := os.ReadFile(filepath.Join(bundle, "flight.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(rawFlight, &dump); err != nil {
		t.Fatalf("bad flight.json: %v", err)
	}
	var lastShed, tripSeq uint64
	sheds := 0
	for _, ev := range dump.Events {
		switch {
		case ev.Kind == "admission" && ev.Name == "shed":
			sheds++
			lastShed = ev.Seq
		case ev.Kind == "watchdog" && ev.Name == "trip":
			if tripSeq == 0 {
				tripSeq = ev.Seq
			}
		}
	}
	if sheds < 6 {
		t.Errorf("flight.json holds %d shed events, want >= 6", sheds)
	}
	if tripSeq == 0 {
		t.Fatal("flight.json holds no watchdog trip event")
	}
	if tripSeq < lastShed {
		t.Errorf("trip event (seq %d) precedes sheds (last seq %d): bundle does not span the trigger",
			tripSeq, lastShed)
	}
}

// TestExplainDeterministic: two identical /v1/explain requests return
// byte-identical bodies — the endpoint's contract — and the trail carries
// the expected stages.
func TestExplainDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("real planner runs in -short mode")
	}
	// The stubbed s.plan is irrelevant here: /v1/explain always runs the
	// real planner (serially, uncached) to produce a faithful trail.
	s := newTestServer(t, Config{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := planBody(t, 4000)
	post := func() []byte {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain: code %d body %s", resp.StatusCode, raw)
		}
		return raw
	}
	b1, b2 := post(), post()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("explain responses differ:\n--- first\n%s\n--- second\n%s", b1, b2)
	}

	var er ExplainResponse
	if err := json.Unmarshal(b1, &er); err != nil {
		t.Fatal(err)
	}
	if er.Machine != "B" || !strings.HasPrefix(er.Key, "plan-") {
		t.Errorf("machine=%q key=%q", er.Machine, er.Key)
	}
	if er.PredictedIOSec <= 0 || er.EpochSec <= 0 || er.Evaluated <= 0 {
		t.Errorf("missing plan outputs: %+v", er)
	}
	stages := map[string]int{}
	for _, st := range er.Steps {
		stages[st.Stage]++
	}
	for _, want := range []string{"score", "bisect", "search", "result", "ddak", "plan"} {
		if stages[want] == 0 {
			t.Errorf("trail has no %q steps (stages: %v)", want, stages)
		}
	}
	if er.Rendered == "" || !strings.Contains(er.Rendered, "result") {
		t.Errorf("rendered trail missing result line: %q", er.Rendered)
	}

	// Method guard.
	resp, err := ts.Client().Get(ts.URL + "/v1/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/explain: code %d, want 405", resp.StatusCode)
	}
}

// TestTraceSpanLimit: the server bounds its observer's span log; the
// spans dropped show in /debug/trace and on /metrics.
func TestTraceSpanLimit(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < traceSpans+6; i++ {
		s.Observer().Begin("planner-span").End()
	}
	code, raw := getBody(t, ts, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: code %d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]uint64 `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bad trace %q: %v", raw, err)
	}
	if len(doc.TraceEvents) != traceSpans || doc.OtherData["dropped_spans"] != 6 {
		t.Errorf("trace has %d spans and otherData %v, want %d and dropped_spans 6",
			len(doc.TraceEvents), doc.OtherData, traceSpans)
	}
	_, raw = getBody(t, ts, "/metrics")
	if !strings.Contains(string(raw), "obs_trace_spans_dropped_total 6") {
		t.Errorf("/metrics lacks obs_trace_spans_dropped_total 6:\n%s", raw)
	}
}
