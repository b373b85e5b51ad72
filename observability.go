package moment

import (
	"moment/internal/core"
	"moment/internal/obs"
)

// Observability types, re-exported from the internal obs package so callers
// can trace and meter the planner without importing internals.
type (
	// Observer collects spans (Chrome trace-event JSON) and metrics
	// (counters, gauges, histograms with Prometheus-text and JSON
	// exposition). A nil *Observer is fully disabled at zero cost.
	Observer = obs.Observer

	// Explain is a plan-provenance trail: the search and layout stages
	// append one step per decision (candidate pruned and why, cache
	// verdicts, bisector effort, final score breakdown), and the trail
	// renders deterministically for a fixed request. Attach one via
	// SearchOptions.Explain; nil costs nothing.
	Explain = obs.Explain
)

// NewExplain returns an empty provenance trail for SearchOptions.Explain.
func NewExplain() *Explain { return obs.NewExplain() }

// NewObserver returns an enabled observer. Pass it via WithObserver (or the
// Observer fields on SearchOptions / SimConfig), then export with
// Observer.WriteTrace, WritePrometheus, or WriteMetricsJSON.
func NewObserver() *Observer { return obs.New() }

// SetDefaultObserver installs a process-wide fallback observer used by any
// planner entry point whose caller did not inject one (nil disables). Use
// it to instrument code paths — like the experiment generators — that do
// not thread options.
func SetDefaultObserver(o *Observer) { obs.SetDefault(o) }

// Option customizes an Optimize run.
type Option func(*core.Input)

// WithObserver routes the run's spans and metrics — placement enumeration
// and pruning, max-flow scoring, DDAK bin fills, the simulated epoch — to o.
func WithObserver(o *Observer) Option {
	return func(in *core.Input) { in.Observer = o }
}
