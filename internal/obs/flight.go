package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the forensic third of the obs layer (traces →
// metrics → flight/explain): a fixed-size ring of structured wide events —
// span completions, admission decisions, fault transitions, cache hits and
// misses, drift events — cheap enough to leave on in production and dumped
// as JSON on demand (/debug/flight, obsflag -flight, watchdog bundles).
// Aggregate counters say *that* a shed storm happened; the flight ring says
// what the last few thousand decisions leading into it were.

// EventKind classifies a flight-recorder event.
type EventKind uint8

const (
	// EvSpan is a completed trace span (recorded automatically by the
	// tracer once a recorder is attached).
	EvSpan EventKind = iota
	// EvAdmission is an admission-control decision (admit, coalesce, shed).
	EvAdmission
	// EvFault is a hardware-fault transition entering a simulation.
	EvFault
	// EvCache is a cache hit or miss (plan cache, score cache, layouts).
	EvCache
	// EvWatchdog is an anomaly-watchdog rule trip.
	EvWatchdog
	// EvDrain is a lifecycle transition (drain begin/end, flush).
	EvDrain
	// EvDrift is a workload-drift event: a detector trip, an incremental
	// re-solve, or a scheduled hotness shift entering a simulation.
	EvDrift
)

var eventKindNames = [...]string{
	EvSpan:      "span",
	EvAdmission: "admission",
	EvFault:     "fault",
	EvCache:     "cache",
	EvWatchdog:  "watchdog",
	EvDrain:     "drain",
	EvDrift:     "drift",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one wide flight-recorder event. Fields are flat scalars so a
// recorded event is a value copy — no per-event allocation. Subject and
// Reason pass through the recorder's LabelCap, so caller-controlled values
// (tenants, error strings) cannot balloon the ring's keyspace.
type Event struct {
	At      time.Duration // since recorder start; stamped by Record
	Seq     uint64        // 1-based global order; stamped by Record
	Kind    EventKind
	Name    string  // what happened, e.g. "shed", "plan-cache-hit"
	Subject string  // who/what it happened to (tenant, candidate, device)
	Reason  string  // why (shed reason, error class)
	V1, V2  float64 // kind-specific scalars (seconds, counts, ...)
}

// FlightRecorder is a fixed-size, lock-light ring of Events. Writers claim
// a slot with one atomic add and take only that slot's mutex — writers on
// different slots never contend, and readers (Events, WriteJSON) lock one
// slot at a time, so a dump cannot stall recording. A nil *FlightRecorder
// ignores Record without allocating, which is the disabled state every
// instrumented call site relies on.
type FlightRecorder struct {
	start    time.Time
	next     atomic.Uint64
	mask     uint64
	subjects *LabelCap
	reasons  *LabelCap
	slots    []flightSlot
}

type flightSlot struct {
	mu sync.Mutex
	ev Event // Seq == 0 means never written
}

// NewFlightRecorder returns a ring holding the most recent `size` events
// (rounded up to a power of two; size <= 0 defaults to 4096).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = 4096
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{
		start:    time.Now(),
		mask:     uint64(n - 1),
		subjects: NewLabelCap(128),
		reasons:  NewLabelCap(64),
		slots:    make([]flightSlot, n),
	}
}

// Record stamps ev with a sequence number and relative timestamp and writes
// it into the ring, overwriting the oldest event once full. Safe for
// concurrent use; no-op on a nil recorder.
func (r *FlightRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	ev.Seq = r.next.Add(1)
	ev.At = time.Since(r.start)
	ev.Subject = r.subjects.Get(ev.Subject)
	ev.Reason = r.reasons.Get(ev.Reason)
	s := &r.slots[(ev.Seq-1)&r.mask]
	s.mu.Lock()
	s.ev = ev
	s.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Dropped reports how many events have been overwritten by newer ones.
func (r *FlightRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n <= uint64(len(r.slots)) {
		return 0
	}
	return n - uint64(len(r.slots))
}

// Events returns a snapshot of the ring in sequence order (oldest first).
// Slots are read one at a time, so an in-flight writer delays the snapshot
// by at most one slot copy.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// flightEventJSON is the wire form of one event.
type flightEventJSON struct {
	Seq     uint64  `json:"seq"`
	AtSec   float64 `json:"at_sec"`
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Subject string  `json:"subject,omitempty"`
	Reason  string  `json:"reason,omitempty"`
	V1      float64 `json:"v1,omitempty"`
	V2      float64 `json:"v2,omitempty"`
}

type flightDumpJSON struct {
	Dropped uint64            `json:"dropped"`
	Events  []flightEventJSON `json:"events"`
}

// WriteJSON dumps the ring as a JSON document: {"dropped":N,"events":[...]}
// with events oldest-first. A nil recorder writes an empty dump, so dump
// endpoints work whether or not flight recording is enabled.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	dump := flightDumpJSON{Events: []flightEventJSON{}}
	if r != nil {
		dump.Dropped = r.Dropped()
		for _, ev := range r.Events() {
			dump.Events = append(dump.Events, flightEventJSON{
				Seq:     ev.Seq,
				AtSec:   ev.At.Seconds(),
				Kind:    ev.Kind.String(),
				Name:    ev.Name,
				Subject: ev.Subject,
				Reason:  ev.Reason,
				V1:      ev.V1,
				V2:      ev.V2,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
