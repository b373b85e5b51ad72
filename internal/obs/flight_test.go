package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderBasics(t *testing.T) {
	r := NewFlightRecorder(8)
	if got := r.Len(); got != 0 {
		t.Fatalf("empty ring Len = %d, want 0", got)
	}
	r.Record(Event{Kind: EvAdmission, Name: "shed", Subject: "tenant-a", Reason: "queue-full", V1: 1})
	r.Record(Event{Kind: EvCache, Name: "plan-cache-hit", Subject: "tenant-a"})
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("Events = %+v, want seq 1,2", evs)
	}
	if evs[0].Name != "shed" || evs[0].Reason != "queue-full" {
		t.Fatalf("first event = %+v", evs[0])
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(4) // power of two already
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: EvSpan, Name: "s"})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len after wrap = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	want := uint64(7)
	for _, ev := range evs {
		if ev.Seq != want {
			t.Fatalf("got seq %d, want %d (events %+v)", ev.Seq, want, evs)
		}
		want++
	}
}

func TestFlightRecorderSizeRounding(t *testing.T) {
	r := NewFlightRecorder(5)
	if len(r.slots) != 8 {
		t.Fatalf("size 5 rounds to %d slots, want 8", len(r.slots))
	}
	r = NewFlightRecorder(0)
	if len(r.slots) != 4096 {
		t.Fatalf("size 0 defaults to %d slots, want 4096", len(r.slots))
	}
}

func TestFlightRecorderLabelCaps(t *testing.T) {
	r := NewFlightRecorder(4096)
	// Subjects cap at 128 distinct values, reasons at 64.
	for i := 0; i < 200; i++ {
		r.Record(Event{Name: "e", Subject: "s" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Reason: "r" + string(rune('0'+i%10)) + string(rune('a'+i/10))})
	}
	subjects, reasons := map[string]bool{}, map[string]bool{}
	for _, ev := range r.Events() {
		subjects[ev.Subject] = true
		reasons[ev.Reason] = true
	}
	if !subjects[Overflow] {
		t.Fatalf("expected overflow subject after 200 distinct values; got %d subjects", len(subjects))
	}
	if !reasons[Overflow] {
		t.Fatalf("expected overflow reason after 200 distinct values; got %d reasons", len(reasons))
	}
	if len(subjects) > 129 { // 128 kept + overflow
		t.Fatalf("subject cardinality %d exceeds cap", len(subjects))
	}
	if len(reasons) > 65 {
		t.Fatalf("reason cardinality %d exceeds cap", len(reasons))
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Kind: EvCache, Name: "hit"})
			}
		}()
	}
	// Concurrent reader: dumps must not block or corrupt.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Events()
			r.WriteJSON(&bytes.Buffer{})
		}
	}()
	wg.Wait()
	if got := r.next.Load(); got != 4000 {
		t.Fatalf("recorded %d events, want 4000", got)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("ring holds %d events, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestFlightRecorderWriteJSON(t *testing.T) {
	r := NewFlightRecorder(8)
	r.Record(Event{Kind: EvWatchdog, Name: "trip", Subject: "shed-storm", Reason: "momentd_shed_total", V1: 12, V2: 1})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Seq     uint64  `json:"seq"`
			Kind    string  `json:"kind"`
			Name    string  `json:"name"`
			Subject string  `json:"subject"`
			V1      float64 `json:"v1"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(dump.Events) != 1 || dump.Events[0].Kind != "watchdog" || dump.Events[0].V1 != 12 {
		t.Fatalf("dump = %+v", dump)
	}

	// Nil recorder still writes a well-formed empty dump.
	buf.Reset()
	var nilr *FlightRecorder
	if err := nilr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"events": []`) {
		t.Fatalf("nil dump = %s", buf.String())
	}
}

func TestNilFlightRecorderNoops(t *testing.T) {
	var r *FlightRecorder
	r.Record(Event{Name: "x"})
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should report empty")
	}
}

func TestObserverFlightWiring(t *testing.T) {
	o := New()
	if o.FlightEnabled() {
		t.Fatal("flight enabled before EnableFlight")
	}
	if o.Flight() != nil {
		t.Fatal("Flight() non-nil before EnableFlight")
	}
	o.Event(Event{Name: "dropped-on-floor"}) // must not panic

	r := o.EnableFlight(16)
	if r == nil || !o.FlightEnabled() || o.Flight() != r {
		t.Fatal("EnableFlight wiring broken")
	}
	if again := o.EnableFlight(32); again != r {
		t.Fatal("EnableFlight not idempotent")
	}
	o.Event(Event{Kind: EvAdmission, Name: "admit"})
	if r.Len() != 1 {
		t.Fatalf("ring Len = %d, want 1", r.Len())
	}

	// Span completions mirror onto the ring.
	sp := o.Begin("solve")
	sp.End()
	evs := r.Events()
	if len(evs) != 2 || evs[1].Kind != EvSpan || evs[1].Name != "solve" {
		t.Fatalf("span event missing: %+v", evs)
	}

	// Nil observer paths.
	var nilo *Observer
	nilo.Event(Event{Name: "x"})
	if nilo.EnableFlight(8) != nil || nilo.Flight() != nil || nilo.FlightEnabled() {
		t.Fatal("nil observer flight methods should no-op")
	}
}

func TestDisabledFlightZeroAllocs(t *testing.T) {
	var r *FlightRecorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(Event{Kind: EvCache, Name: "hit", Subject: "t", Reason: "warm", V1: 1, V2: 2})
	})
	if allocs != 0 {
		t.Fatalf("nil FlightRecorder.Record allocates %v/op, want 0", allocs)
	}
	var o *Observer
	allocs = testing.AllocsPerRun(100, func() {
		o.Event(Event{Kind: EvCache, Name: "hit"})
	})
	if allocs != 0 {
		t.Fatalf("nil Observer.Event allocates %v/op, want 0", allocs)
	}
	enabled := New() // enabled observer without a recorder: still zero
	allocs = testing.AllocsPerRun(100, func() {
		enabled.Event(Event{Kind: EvCache, Name: "hit"})
	})
	if allocs != 0 {
		t.Fatalf("recorder-less Observer.Event allocates %v/op, want 0", allocs)
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EvSpan: "span", EvAdmission: "admission", EvFault: "fault",
		EvCache: "cache", EvWatchdog: "watchdog", EvDrain: "drain",
		EvDrift: "drift", EventKind(200): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	r := NewFlightRecorder(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(Event{Kind: EvCache, Name: "hit", Subject: "tenant", Reason: "warm"})
	}
}
