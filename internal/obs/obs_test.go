package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledObserverIsNoop(t *testing.T) {
	var o *Observer
	sp := o.Begin("x")
	if sp != nil {
		t.Fatal("disabled Begin returned non-nil span")
	}
	sp.SetInt("k", 1)
	sp.SetStr("s", "v")
	sp.SetFloat("f", 2.5)
	sp.Child("c").End()
	sp.Fork("f").End()
	sp.End()
	o.Counter("c").Add(3)
	o.Counter("c").Inc()
	o.Gauge("g").Set(1)
	o.Histogram("h").Observe(1)
	o.Logf("nothing %d", 1)
	if o.In(nil) != nil {
		t.Error("nil observer In(nil) should stay nil")
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("disabled trace is not valid JSON: %v", err)
	}
}

func TestDisabledSpanZeroAllocs(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := o.Begin("hot")
		sp.SetInt("iterations", 12)
		sp.SetFloat("seconds", 0.5)
		child := sp.Child("inner")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

func TestDisabledMetricsZeroAllocs(t *testing.T) {
	var o *Observer
	c := o.Counter("c") // handle fetched once, as hot paths do
	g := o.Gauge("g")
	h := o.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled metric path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan measures the instrumented-but-unobserved hot path:
// with a nil observer the whole span lifecycle must stay at 0 allocs/op.
func BenchmarkDisabledSpan(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.Begin("hot")
		sp.SetInt("iterations", i)
		sp.Child("inner").End()
		sp.End()
	}
}

func BenchmarkDisabledMetrics(b *testing.B) {
	var o *Observer
	c := o.Counter("c")
	g := o.Gauge("g")
	h := o.Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		g.Set(float64(i))
		h.Observe(1)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	o := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.Begin("hot")
		sp.SetInt("iterations", i)
		sp.End()
	}
}

func TestSpanHierarchyAndTraceJSON(t *testing.T) {
	o := New()
	root := o.Begin("search")
	root.SetStr("machine", "B")
	enum := root.Child("enumerate")
	time.Sleep(time.Millisecond)
	enum.SetInt("candidates", 42)
	enum.End()
	work := root.Fork("maxflow-score")
	work.End()
	root.End()

	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %d has phase %q, want X", i, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %d has negative ts/dur: %+v", i, ev)
		}
		byName[ev.Name] = i
	}
	rootEv := doc.TraceEvents[byName["search"]]
	enumEv := doc.TraceEvents[byName["enumerate"]]
	forkEv := doc.TraceEvents[byName["maxflow-score"]]
	if enumEv.Tid != rootEv.Tid {
		t.Error("Child span should share the parent's track")
	}
	if forkEv.Tid == rootEv.Tid {
		t.Error("Fork span should get its own track")
	}
	// Time containment: the child nests inside the root.
	if enumEv.Ts < rootEv.Ts || enumEv.Ts+enumEv.Dur > rootEv.Ts+rootEv.Dur+1 {
		t.Errorf("child [%f,%f] not contained in root [%f,%f]",
			enumEv.Ts, enumEv.Ts+enumEv.Dur, rootEv.Ts, rootEv.Ts+rootEv.Dur)
	}
	if got := enumEv.Args["candidates"]; got != 42.0 {
		t.Errorf("child args = %v, want candidates=42", enumEv.Args)
	}
	if got := rootEv.Args["machine"]; got != "B" {
		t.Errorf("root args = %v, want machine=B", rootEv.Args)
	}
}

func TestScopedObserverNestsUnderSpan(t *testing.T) {
	o := New()
	root := o.Begin("epoch")
	scoped := o.In(root)
	child := scoped.Begin("ddak")
	child.End()
	root.End()
	names := o.Tracer().SpanNames()
	if names["ddak"] != 1 || names["epoch"] != 1 {
		t.Fatalf("span names = %v", names)
	}
	// Scoping through a nil span must not disable the observer.
	if o.In(nil) != o {
		t.Error("In(nil) should return the observer unchanged")
	}
}

func TestConcurrentSpansAndMetrics(t *testing.T) {
	o := New()
	root := o.Begin("root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := root.Fork("work")
				o.Counter("ops_total").Inc()
				o.Gauge("last").Set(float64(j))
				o.Histogram("lat").Observe(float64(j) * 1e-4)
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if got := o.Counter("ops_total").Value(); got != 1600 {
		t.Errorf("ops_total = %v, want 1600", got)
	}
	if got := o.Histogram("lat").Count(); got != 1600 {
		t.Errorf("lat count = %v, want 1600", got)
	}
	if got := o.Tracer().Len(); got != 1601 {
		t.Errorf("span count = %d, want 1601", got)
	}
}

func TestLoggerInjectableWriter(t *testing.T) {
	var buf bytes.Buffer
	o := New()
	o.Logf("discarded before routing %d", 1)
	o.SetLogOutput(&buf)
	o.Logf("hello %s", "world")
	if got := buf.String(); got != "hello world\n" {
		t.Errorf("log output = %q", got)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("log line missing trailing newline")
	}
	// nil logger and nil observer paths.
	var l *Logger
	l.Printf("nope")
	l.SetOutput(&buf)
	var no *Observer
	no.SetLogOutput(&buf)
	no.Logf("nope")
}

func TestDefaultObserverFallback(t *testing.T) {
	if Default() != nil {
		t.Fatal("default observer should start nil")
	}
	o := New()
	SetDefault(o)
	defer SetDefault(nil)
	if Active(nil) != o {
		t.Error("Active(nil) should return the default")
	}
	other := New()
	if Active(other) != other {
		t.Error("explicit observer should win over the default")
	}
}

// TestLimitTraceKeepsNewest: a bounded span log keeps the newest spans,
// counts every overwritten one on the _total counter, and reports the
// count in the trace document; an unbounded log reports none.
func TestLimitTraceKeepsNewest(t *testing.T) {
	o := New()
	o.Begin("early").End()
	o.Begin("early").End()
	o.LimitTrace(3) // trims the log to its newest spans on the spot
	for _, name := range []string{"a", "b", "c", "d"} {
		o.Begin(name).End()
	}
	if got := o.Tracer().Len(); got != 3 {
		t.Fatalf("bounded log holds %d spans, want 3", got)
	}
	names := o.Tracer().SpanNames()
	if names["b"] != 1 || names["c"] != 1 || names["d"] != 1 {
		t.Errorf("kept spans %v, want the newest three b, c, d", names)
	}
	if got := o.Counter("obs_trace_spans_dropped_total").Value(); got != 3 {
		t.Errorf("obs_trace_spans_dropped_total = %v, want 3", got)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]uint64 `json:"otherData"`
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.OtherData["dropped_spans"] != 3 {
		t.Errorf("trace has %d events and otherData %v, want 3 and dropped_spans 3",
			len(doc.TraceEvents), doc.OtherData)
	}

	buf.Reset()
	u := New()
	u.Begin("a").End()
	if err := u.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("otherData")) {
		t.Errorf("unbounded trace reports drops: %s", buf.Bytes())
	}
	var disabled *Observer
	disabled.LimitTrace(3) // nil-safe
}
