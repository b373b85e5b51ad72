package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects completed spans and exports them as Chrome trace-event
// JSON. It is safe for concurrent use: spans may be begun and ended from
// any goroutine. Chrome's trace model nests events on the same track
// (pid/tid pair) by time containment, so sequential children created with
// Span.Child render nested under their parent, while concurrent work
// should use Span.Fork (or a fresh Begin) to get its own track.
type Tracer struct {
	start   time.Time
	nextTID atomic.Int64
	flight  atomic.Pointer[FlightRecorder] // mirrors span completions

	mu     sync.Mutex
	events []spanEvent
	// A positive limit bounds events to the newest limit spans: once full,
	// each completed span overwrites the oldest at slot next.
	limit      int
	next       int
	dropped    uint64
	droppedCtr *Counter
}

// SetLimit bounds the span log to the newest n completed spans, so a
// long-running process keeps a fixed trace window instead of every span it
// ever ended. Each span dropped to make room is counted on dropped
// (nil-safe) and in the trace document. n <= 0 keeps every span, the
// default. Nil-safe on a nil tracer.
func (t *Tracer) SetLimit(n int, dropped *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Unroll an earlier ring oldest first, then keep the newest n.
	events := append(slices.Clone(t.events[t.next:]), t.events[:t.next]...)
	if drop := len(events) - n; n > 0 && drop > 0 {
		events = events[drop:]
		t.dropped += uint64(drop)
		dropped.Add(float64(drop))
	}
	t.events, t.limit, t.next, t.droppedCtr = events, n, 0, dropped
}

// SetFlight mirrors every subsequent span completion onto r as an EvSpan
// flight event (nil detaches). Nil-safe on a nil tracer.
func (t *Tracer) SetFlight(r *FlightRecorder) {
	if t == nil {
		return
	}
	t.flight.Store(r)
}

type spanEvent struct {
	name  string
	tid   int64
	start time.Duration // since tracer start
	dur   time.Duration
	attrs []Attr
}

// Attr is one span attribute. Values are either numeric or string; typed
// constructors avoid interface boxing on the disabled path.
type Attr struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Str: value} }

// Int builds a numeric attribute from an int.
func Int(key string, value int) Attr {
	return Attr{Key: key, Num: float64(value), IsNum: true}
}

// F64 builds a numeric attribute from a float64.
func F64(key string, value float64) Attr {
	return Attr{Key: key, Num: value, IsNum: true}
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// Span is one in-flight traced operation. The nil span (what a disabled
// observer hands out) ignores every call without allocating.
type Span struct {
	tracer *Tracer
	name   string
	tid    int64
	start  time.Duration
	attrs  []Attr
}

// Begin opens a root span on a fresh track.
func (t *Tracer) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer: t,
		name:   name,
		tid:    t.nextTID.Add(1),
		start:  time.Since(t.start),
	}
}

// Child opens a sub-span on the same track; it renders nested under the
// receiver as long as it ends before the receiver does.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer: s.tracer,
		name:   name,
		tid:    s.tid,
		start:  time.Since(s.tracer.start),
	}
}

// Fork opens a sub-span on a new track, for work that runs concurrently
// with the receiver (e.g. a scoring worker inside a search span).
func (s *Span) Fork(name string) *Span {
	if s == nil {
		return nil
	}
	sp := s.tracer.Begin(name)
	return sp
}

// SetStr attaches a string attribute. No-op (and alloc-free) on nil spans.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Str(key, value))
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, value int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Int(key, value))
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, value float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, F64(key, value))
}

// End completes the span and records it on the tracer. Ending a span twice
// records it twice; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	ev := spanEvent{
		name:  s.name,
		tid:   s.tid,
		start: s.start,
		dur:   time.Since(s.tracer.start) - s.start,
		attrs: s.attrs,
	}
	t := s.tracer
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.events[t.next] = ev
		t.next = (t.next + 1) % t.limit
		t.dropped++
		t.droppedCtr.Inc()
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
	if r := t.flight.Load(); r != nil {
		r.Record(Event{Kind: EvSpan, Name: s.name, V1: ev.dur.Seconds()})
	}
}

// Len reports the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// chromeEvent is one trace_event entry ("X" = complete event, timestamps
// and durations in microseconds), the format Perfetto and chrome://tracing
// ingest directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// OtherData is the format's free-form metadata; a bounded log reports
	// its dropped_spans there.
	OtherData map[string]uint64 `json:"otherData,omitempty"`
}

// WriteTrace exports every completed span as Chrome trace-event JSON.
// Events are sorted by start time; in-flight (un-Ended) spans are omitted.
// A bounded log (SetLimit) exports the spans it kept and its drop count.
func (t *Tracer) WriteTrace(w io.Writer) error {
	t.mu.Lock()
	events := make([]spanEvent, len(t.events))
	copy(events, t.events)
	var other map[string]uint64
	if t.limit > 0 {
		other = map[string]uint64{"dropped_spans": t.dropped}
	}
	t.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].start < events[j].start })

	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(events)), DisplayTimeUnit: "ms", OtherData: other}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.name,
			Ph:   "X",
			Ts:   float64(ev.start) / float64(time.Microsecond),
			Dur:  float64(ev.dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  ev.tid,
		}
		if len(ev.attrs) > 0 {
			ce.Args = make(map[string]any, len(ev.attrs))
			for _, a := range ev.attrs {
				if a.IsNum {
					ce.Args[a.Key] = a.Num
				} else {
					ce.Args[a.Key] = a.Str
				}
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SpanNames returns the multiset of completed span names, for tests and
// trace summaries.
func (t *Tracer) SpanNames() map[string]int {
	out := map[string]int{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range t.events {
		out[ev.name]++
	}
	return out
}
