// Package obs is Moment's dependency-free observability layer: a
// hierarchical span tracer exporting Chrome trace_event JSON (viewable in
// Perfetto or chrome://tracing), a metrics registry (counters, gauges,
// histograms) with Prometheus-text and JSON exposition, and an injectable
// leveled logger so library code never writes to stdout unconditionally.
//
// The layer is built around a nil-receiver fast path: a nil *Observer (the
// disabled state) makes every call a no-op with zero allocations, so hot
// paths — max-flow solves, DDAK pool steps, candidate scoring — can be
// instrumented unconditionally. Enabling costs one span allocation per
// Begin and atomic adds per metric update.
//
//	o := obs.New()
//	sp := o.Begin("placement.search")
//	o.Counter("candidates_scored_total").Add(float64(n))
//	sp.End()
//	o.WriteTrace(f)       // Chrome trace-event JSON
//	o.WritePrometheus(os.Stdout)
//
// Spans nest two ways: Child keeps the parent's track (sequential work,
// rendered nested by time containment), Fork opens a new track (concurrent
// work, e.g. one per placement-search worker). Observer.In(span) scopes an
// observer so subsequent Begin calls become children of span, which lets a
// caller thread hierarchy through packages that only accept an *Observer.
package obs

import (
	"io"
	"sync/atomic"
)

// Observer bundles a tracer, a metrics registry, a logger and (optionally)
// a flight recorder. The zero value and the nil pointer are both valid,
// fully disabled observers.
type Observer struct {
	tracer   *Tracer
	metrics  *Registry
	logger   *Logger
	recorder *FlightRecorder // nil until EnableFlight
	parent   *Span           // non-nil for scoped observers created by In
}

// New returns an enabled observer with a fresh tracer and registry and a
// discarding logger (route it with SetLogOutput).
func New() *Observer {
	return &Observer{tracer: NewTracer(), metrics: NewRegistry(), logger: NewLogger(nil)}
}

// Tracer returns the observer's tracer (nil when disabled).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Metrics returns the observer's registry (nil when disabled).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Begin opens a span. Scoped observers (see In) open a child of their
// scope span; otherwise the span starts a new track. Nil-safe: returns a
// nil span, whose methods are all no-ops, without allocating.
func (o *Observer) Begin(name string) *Span {
	if o == nil || o.tracer == nil {
		return nil
	}
	if o.parent != nil {
		return o.parent.Child(name)
	}
	return o.tracer.Begin(name)
}

// In returns a copy of the observer scoped under span: its Begin calls
// produce children of span. Nil observer or nil span pass through
// unchanged (a nil span leaves the observer unscoped rather than silently
// disabling metrics).
func (o *Observer) In(span *Span) *Observer {
	if o == nil || span == nil {
		return o
	}
	scoped := *o
	scoped.parent = span
	return &scoped
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a disabled observer returns a nil counter whose methods no-op.
func (o *Observer) Counter(name string, labels ...Label) *Counter {
	if o == nil || o.metrics == nil {
		return nil
	}
	return o.metrics.Counter(name, labels...)
}

// Gauge returns the named gauge, creating it on first use.
func (o *Observer) Gauge(name string, labels ...Label) *Gauge {
	if o == nil || o.metrics == nil {
		return nil
	}
	return o.metrics.Gauge(name, labels...)
}

// Histogram returns the named histogram, creating it on first use.
func (o *Observer) Histogram(name string, labels ...Label) *Histogram {
	if o == nil || o.metrics == nil {
		return nil
	}
	return o.metrics.Histogram(name, labels...)
}

// LimitTrace bounds the tracer to its newest `spans` completed spans (see
// Tracer.SetLimit) and counts the spans it drops on
// obs_trace_spans_dropped_total. Long-running servers set it; one-shot
// commands keep every span. Call before sharing the observer across
// goroutines.
func (o *Observer) LimitTrace(spans int) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.SetLimit(spans, o.Counter("obs_trace_spans_dropped_total"))
}

// EnableFlight attaches a flight recorder holding the most recent `size`
// events (see NewFlightRecorder for defaults) and points the tracer at it so
// span completions land on the ring too. Idempotent: a second call returns
// the existing recorder. Call before sharing the observer across goroutines.
func (o *Observer) EnableFlight(size int) *FlightRecorder {
	if o == nil {
		return nil
	}
	if o.recorder == nil {
		o.recorder = NewFlightRecorder(size)
		o.tracer.SetFlight(o.recorder)
	}
	return o.recorder
}

// Flight returns the attached flight recorder, or nil when disabled.
func (o *Observer) Flight() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.recorder
}

// FlightEnabled reports whether a flight recorder is attached. Call sites
// that must build event strings (fmt.Sprintf) check this first so the
// disabled path stays alloc-free.
func (o *Observer) FlightEnabled() bool {
	return o != nil && o.recorder != nil
}

// Event records ev on the flight recorder. No-op (and alloc-free: ev is a
// value copy) when the observer or recorder is disabled.
func (o *Observer) Event(ev Event) {
	if o == nil {
		return
	}
	o.recorder.Record(ev)
}

// Logf writes one formatted diagnostic line through the observer's logger.
// Disabled observers and loggers without an output discard it.
func (o *Observer) Logf(format string, args ...any) {
	if o == nil {
		return
	}
	o.logger.Printf(format, args...)
}

// SetLogOutput routes the observer's diagnostic log to w (nil discards).
func (o *Observer) SetLogOutput(w io.Writer) {
	if o == nil || o.logger == nil {
		return
	}
	o.logger.SetOutput(w)
}

// WriteTrace writes the collected spans as Chrome trace-event JSON.
func (o *Observer) WriteTrace(w io.Writer) error {
	if o == nil || o.tracer == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	return o.tracer.WriteTrace(w)
}

// WritePrometheus writes the registry in Prometheus text exposition format.
func (o *Observer) WritePrometheus(w io.Writer) error {
	if o == nil || o.metrics == nil {
		return nil
	}
	return o.metrics.WritePrometheus(w)
}

// WriteMetricsJSON writes the registry as a JSON document.
func (o *Observer) WriteMetricsJSON(w io.Writer) error {
	if o == nil || o.metrics == nil {
		_, err := io.WriteString(w, "{}")
		return err
	}
	return o.metrics.WriteJSON(w)
}

// defaultObserver is the process-wide fallback used by entry points whose
// callers did not inject an observer (e.g. experiments regenerated through
// momentbench). It stays nil — fully disabled — unless SetDefault is
// called, so the fallback costs one atomic load.
var defaultObserver atomic.Pointer[Observer]

// SetDefault installs the process-wide fallback observer (nil disables).
func SetDefault(o *Observer) { defaultObserver.Store(o) }

// Default returns the process-wide fallback observer, or nil.
func Default() *Observer { return defaultObserver.Load() }

// Active returns o when non-nil, the process default otherwise. Library
// entry points call this once so explicit injection wins over the global.
func Active(o *Observer) *Observer {
	if o != nil {
		return o
	}
	return Default()
}
