package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"time"

	"moment/internal/obs"
)

// ledger records the benchmark's own spans: one per call into a module's
// public function, kept in memory and summarized when the run ends. The
// program is not instrumented further; what it already exports through an
// obs.Observer is read with counters and programSpans.
type ledger struct {
	spans map[string][]float64 // span name -> durations in ms
}

func newLedger() *ledger { return &ledger{spans: map[string][]float64{}} }

// span times f under name.
func (l *ledger) span(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.add(name, ms(time.Since(t0)))
	return err
}

func (l *ledger) add(name string, v float64) { l.spans[name] = append(l.spans[name], v) }

func (l *ledger) median(name string) float64 {
	if len(l.spans[name]) == 0 {
		return 0
	}
	return median(l.spans[name])
}

func (l *ledger) sum(name string) float64 {
	s := 0.0
	for _, v := range l.spans[name] {
		s += v
	}
	return s
}

// counters sums an observer's metric series by name, across label sets
// (histograms contribute their _count and _sum series).
func counters(o *obs.Observer) map[string]float64 {
	out := map[string]float64{}
	for series, v := range o.Metrics().Snapshot() {
		name, _, _ := strings.Cut(series, "{")
		if i := strings.Index(series, "}"); i >= 0 {
			name += series[i+1:]
		}
		out[name] += v
	}
	return out
}

// addCounters accumulates src into dst.
func addCounters(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// programSpans returns the durations, in ms, of the spans the program
// itself recorded on o's tracer, grouped by span name.
func programSpans(o *obs.Observer) (map[string][]float64, error) {
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"` // microseconds
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, ev := range doc.TraceEvents {
		out[ev.Name] = append(out[ev.Name], ev.Dur/1000)
	}
	return out, nil
}
