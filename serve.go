package moment

// Serving-layer re-exports: the planner-as-a-service daemon (momentd), its
// request/response schema, the shared observability exposition handlers,
// and the multi-tenant load-test harness.

import (
	"net/http"

	"moment/internal/server"
	"moment/internal/server/loadtest"
)

type (
	// PlanServer is the multi-tenant planning service: an http.Handler
	// with request coalescing, a cross-tenant plan cache, admission
	// control and live /metrics. Construct with NewPlanServer; drain with
	// its Drain/Close methods before exit.
	PlanServer = server.Server
	// PlanServerConfig tunes worker pool, queue bound, tenant quotas,
	// cache sizes and deadlines (zero value = defaults).
	PlanServerConfig = server.Config
	// PlanRequest / PlanResponse are the JSON schema of POST /v1/plan;
	// WorkloadSpec and SearchSpec are their nested sections.
	PlanRequest  = server.PlanRequest
	PlanResponse = server.PlanResponse
	WorkloadSpec = server.WorkloadSpec
	SearchSpec   = server.SearchSpec
	// ExplainResponse is the JSON schema of POST /v1/explain: the plan
	// provenance trail for one request, byte-deterministic for a fixed
	// problem.
	ExplainResponse = server.ExplainResponse

	// LoadTestConfig / LoadTestRecord drive and report the synthetic
	// multi-tenant load harness.
	LoadTestConfig = loadtest.Config
	LoadTestRecord = loadtest.Record
)

// NewPlanServer starts a planning service (workers are live on return).
func NewPlanServer(cfg PlanServerConfig) *PlanServer { return server.New(cfg) }

// RunLoadTest drives a zipf-skewed synthetic tenant mix against a fresh
// in-process PlanServer and reports coalescing/shedding/latency accounting.
func RunLoadTest(cfg LoadTestConfig) (*LoadTestRecord, error) { return loadtest.Run(cfg) }

// ObsMux bundles /metrics, /debug/trace, /debug/flight, /debug/pprof/ and
// /healthz for processes that want exposition without the planning service
// (obsflag -listen uses it, so one-shot CLI runs and momentd share one
// exposition code path).
func ObsMux(o *Observer) *http.ServeMux { return server.ObsMux(o) }
