// Package service turns the batch synthesis engine into a long-running,
// multi-tenant daemon: trace-synthesis jobs arrive over HTTP, are admitted
// through a bounded queue with per-tenant round-robin fairness, and run
// against warm per-DSL-config sketch corpora (corpus.Registry) that
// persist across restarts as versioned snapshots. The paper offloads this
// search to a Ray cluster; here the cluster substrate is one process that
// never throws its enumeration work away.
//
// The job API is versioned: every wire type in this file is part of the
// /api/v1 contract. Backward-incompatible changes (removing or renaming a
// JSON field, changing a state string) require a new prefix; purely
// additive fields may ship within v1.
package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// APIVersion and APIPrefix name the current job-API contract. Handlers
// are mounted under APIPrefix on the shared observability mux.
const (
	APIVersion = "v1"
	APIPrefix  = "/api/v1"
)

// Job-parameter defaults, identical to cmd/abagnale's flag defaults so a
// spec that sets nothing but a trace gets the same answer through the
// daemon as through the CLI (daemon-vs-CLI determinism is test-pinned).
const (
	// DefaultBudget matches abagnale -budget.
	DefaultBudget = 120000
	// DefaultMinSegment matches abagnale -min-segment.
	DefaultMinSegment = 16
	// DefaultSeed matches abagnale -seed.
	DefaultSeed = 1
	// DefaultMetric matches abagnale -metric.
	DefaultMetric = "dtw"
	// DefaultTenant is the fairness key of specs that declare none.
	DefaultTenant = "anonymous"
)

// JobSpec is a trace-synthesis request — the POST /api/v1/jobs body.
// Exactly one of TraceB64 and TracePath must be set. Zero values select
// the documented defaults, which match the abagnale CLI flag defaults.
type JobSpec struct {
	// DSL is the sub-DSL to search (reno|cubic|delay|vegas). Empty defers
	// to HintCCA's family, then to "vegas" (the broadest), like the CLI.
	DSL string `json:"dsl,omitempty"`
	// HintCCA picks the sub-DSL from this CCA's family when DSL is empty.
	HintCCA string `json:"hint_cca,omitempty"`
	// Metric is the distance metric (dtw|euclidean|manhattan|frechet).
	Metric string `json:"metric,omitempty"`
	// Budget bounds the concrete handlers scored (abagnale -budget).
	Budget int `json:"budget,omitempty"`
	// MinSegment is the minimum ACK samples per trace segment.
	MinSegment int `json:"min_segment,omitempty"`
	// Seed drives all sampling; jobs are reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Tenant is the fairness key: queued jobs are dequeued round-robin
	// across tenants, so one tenant's backlog cannot starve another's.
	// The X-Abagnale-Tenant request header overrides an empty field.
	Tenant string `json:"tenant,omitempty"`
	// TraceB64 is the pcap capture, base64-encoded (standard encoding) —
	// the upload path. Elided from status echoes.
	TraceB64 string `json:"trace_b64,omitempty"`
	// TracePath is a daemon-readable pcap path — the reference path for
	// co-located clients and tests.
	TracePath string `json:"trace_path,omitempty"`
	// Name labels the job on the live Board (/runs) and in the result.
	// Empty defaults to the trace path, then the job ID.
	Name string `json:"name,omitempty"`
}

// withDefaults resolves the spec's zero values to the documented
// defaults.
func (s JobSpec) withDefaults() JobSpec {
	if s.Metric == "" {
		s.Metric = DefaultMetric
	}
	if s.Budget == 0 {
		s.Budget = DefaultBudget
	}
	if s.MinSegment == 0 {
		s.MinSegment = DefaultMinSegment
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.Name == "" {
		s.Name = s.TracePath
	}
	return s
}

// validate rejects specs that cannot run. Parameter errors surface as
// HTTP 400 at submission, never as a failed job.
func (s JobSpec) validate() error {
	if s.TraceB64 == "" && s.TracePath == "" {
		return errors.New("one of trace_b64 or trace_path is required")
	}
	if s.TraceB64 != "" && s.TracePath != "" {
		return errors.New("trace_b64 and trace_path are mutually exclusive")
	}
	if s.Budget < 0 {
		return fmt.Errorf("budget is negative (%d)", s.Budget)
	}
	if s.MinSegment < 0 {
		return fmt.Errorf("min_segment is negative (%d)", s.MinSegment)
	}
	return nil
}

// JobState is a job's lifecycle stage.
type JobState string

// Job lifecycle: queued → running → done | failed. These strings are part
// of the v1 contract.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobStatus is the GET /api/v1/jobs/{id} body (and the 202 body of a
// successful submission).
type JobStatus struct {
	// ID is the daemon-assigned job identifier.
	ID string `json:"id"`
	// APIVersion tags the contract this status was rendered under.
	APIVersion string `json:"api_version"`
	// State is the lifecycle stage.
	State JobState `json:"state"`
	// Tenant is the fairness key the job was admitted under.
	Tenant string `json:"tenant"`
	// QueuePosition is the job's 1-based position within its tenant's
	// FIFO while queued (0 once it leaves the queue).
	QueuePosition int `json:"queue_position,omitempty"`
	// Spec echoes the submitted spec with trace_b64 elided (it may be
	// megabytes).
	Spec JobSpec `json:"spec"`
	// SubmittedAt/StartedAt/FinishedAt trace the job's lifecycle.
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Error is the failure, when State is failed.
	Error string `json:"error,omitempty"`
}

// Synthesis is the deterministic portion of a job's outcome: for a fixed
// spec and trace it is identical across daemon restarts, warm or cold
// corpus, and between the daemon and the CLI — the property the
// warm-start and determinism tests pin byte-for-byte.
type Synthesis struct {
	// Handler is the synthesized cwnd-on-ACK expression (simplified).
	Handler string `json:"handler"`
	// Sketch is the sketch the handler was concretized from.
	Sketch string `json:"sketch"`
	// Distance is the handler's summed distance over all segments.
	Distance core.ReportFloat `json:"distance"`
	// Segments is how many trace segments the search scored against.
	Segments int `json:"segments"`
	// Iterations, HandlersScored and Interrupted summarize the search.
	Iterations     int  `json:"iterations"`
	HandlersScored int  `json:"handlers_scored"`
	Interrupted    bool `json:"interrupted,omitempty"`
}

// JobResult is the GET /api/v1/jobs/{id}/result body of a completed job.
type JobResult struct {
	// ID and Name identify the job; APIVersion tags the contract.
	ID         string `json:"id"`
	APIVersion string `json:"api_version"`
	Name       string `json:"name,omitempty"`
	// Synthesis is the deterministic outcome.
	Synthesis Synthesis `json:"synthesis"`
	// DurationSec is the job's wall-clock run time (excluded from
	// Synthesis so determinism stays byte-comparable).
	DurationSec float64 `json:"duration_sec"`
}

// APIIndex is the GET /api/v1/ body: a self-describing endpoint list.
type APIIndex struct {
	Version   string            `json:"version"`
	Endpoints map[string]string `json:"endpoints"`
}
