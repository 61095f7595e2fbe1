package corpus

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Job is one trace to synthesize a handler for.
type Job struct {
	// Name identifies the trace in the batch report (typically the pcap
	// path or the CCA label).
	Name string
	// Segments is the trace's segment set, as produced by trace.Analyze
	// and optionally thinned by trace.SelectDiverse.
	Segments []*trace.Segment
}

// RunOptions configures a batch run.
type RunOptions struct {
	// Jobs is the number of traces synthesized concurrently (default
	// GOMAXPROCS). Total CPU is bounded separately by the shared gate, so
	// raising Jobs above it only overlaps scheduling, not work.
	Jobs int
	// Core is the per-trace synthesis configuration. Sketches, Programs,
	// Gate and Obs are overwritten by the engine; every other field
	// (budgets, metric, seed) applies to each trace identically — the
	// batch answer for a trace matches a standalone core.Synthesize with
	// these options.
	Core core.Options
	// Corpus, when set, is the shared sketch space; it must have been
	// built with the same DSL, BucketCap and ScanBudget as Core (after
	// defaulting). When nil the engine builds one from Core.
	Corpus *SketchCorpus
	// Procs caps the batch's total scoring concurrency (the shared CPU
	// gate). Default GOMAXPROCS.
	Procs int
	// Obs receives engine and corpus instruments and is passed to every
	// trace job. Default: Core.Obs, else a private registry (the report
	// needs the corpus counters).
	Obs *obs.Registry
}

// TraceResult is one trace's synthesis outcome, in input order.
type TraceResult struct {
	Name     string
	Handler  string
	Sketch   string
	Distance float64
	Stats    core.SearchStats
	Duration time.Duration
	// Err is the trace's own failure (empty sketch space, cancellation);
	// it does not abort the rest of the batch.
	Err error
}

// BatchResult aggregates a batch run.
type BatchResult struct {
	Traces []TraceResult
	// Wall is the whole batch's wall-clock time.
	Wall time.Duration
	// Corpus snapshots the corpus.* counters at the end of the run.
	Corpus map[string]int64
	// Interrupted reports that the context was cancelled; per-trace rows
	// carry whatever best-so-far their runs salvaged.
	Interrupted bool
}

// Run synthesizes a handler for every job, sharing one sketch corpus and
// one CPU gate across all of them: at most opts.Jobs traces are in flight,
// and across those, at most GOMAXPROCS scoring workers execute at once —
// two-level scheduling with no oversubscription. Cancelling ctx stops the
// batch promptly; finished and in-flight traces report their best-so-far.
//
// Results are deterministic and independent of scheduling: every trace
// sees the same enumeration prefixes (the corpus serves identical Take
// prefixes no matter which job forces them) and runs with the same seed,
// so a batch answer equals the standalone single-trace answer.
func Run(ctx context.Context, jobs []Job, opts RunOptions) (*BatchResult, error) {
	if opts.Jobs < 1 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	reg := opts.Obs
	if reg == nil {
		reg = opts.Core.Obs
	}
	if reg == nil {
		reg = obs.New()
	}
	base := opts.Core
	base.Obs = reg
	if base.BucketCap <= 0 {
		base.BucketCap = core.DefaultBucketCap
	}
	if base.ScanBudget <= 0 {
		base.ScanBudget = core.DefaultScanBudget
	}
	c := opts.Corpus
	if c == nil {
		var err error
		c, err = New(Options{
			DSL:        base.DSL,
			BucketCap:  base.BucketCap,
			ScanBudget: base.ScanBudget,
			Obs:        reg,
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()
	}
	base.Sketches = c
	base.Programs = c

	procs := opts.Procs
	if procs < 1 {
		procs = runtime.GOMAXPROCS(0)
	}
	gate := core.NewGate(procs)
	jsem := make(chan struct{}, opts.Jobs)

	// Register every job on the live board up front so /runs shows the
	// whole batch — queued jobs included — from the first request.
	for _, job := range jobs {
		reg.Board().Start(job.Name, int64(base.MaxHandlers)).SetPhase("queued")
	}

	start := time.Now()
	res := &BatchResult{Traces: make([]TraceResult, len(jobs))}
	var wg sync.WaitGroup
	for i, job := range jobs {
		if ctx.Err() != nil {
			res.Traces[i] = TraceResult{Name: job.Name, Err: ctx.Err()}
			reg.Board().Start(job.Name, 0).Finish(ctx.Err())
			continue
		}
		jsem <- struct{}{}
		wg.Add(1)
		go func(i int, job Job) {
			defer wg.Done()
			defer func() { <-jsem }()
			o := base
			o.Gate = gate
			o.RunName = job.Name
			jsp := reg.StartSpan("corpus.job").SetAttr("trace", job.Name)
			t0 := time.Now()
			r, err := core.Synthesize(ctx, job.Segments, o)
			jsp.End()
			tr := TraceResult{Name: job.Name, Duration: time.Since(t0), Err: err}
			if r != nil {
				tr.Handler = r.Handler.String()
				tr.Sketch = r.Sketch.String()
				tr.Distance = r.Distance
				tr.Stats = r.Stats
			}
			res.Traces[i] = tr
		}(i, job)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Corpus = c.Counters()
	res.Interrupted = ctx.Err() != nil
	for i := range res.Traces {
		res.Interrupted = res.Interrupted || res.Traces[i].Stats.Interrupted
	}
	return res, nil
}

// Report is the JSON shape of a batch run, emitted by cmd/abagnale's batch
// mode.
type Report struct {
	Jobs        int              `json:"jobs"`
	WallSec     float64          `json:"wall_sec"`
	Interrupted bool             `json:"interrupted,omitempty"`
	Corpus      map[string]int64 `json:"corpus"`
	Traces      []TraceReport    `json:"traces"`
}

// TraceReport is one trace's row in the batch report.
type TraceReport struct {
	Name           string           `json:"name"`
	Handler        string           `json:"handler,omitempty"`
	Sketch         string           `json:"sketch,omitempty"`
	Distance       core.ReportFloat `json:"distance"`
	Iterations     int              `json:"iterations"`
	HandlersScored int              `json:"handlers_scored"`
	Interrupted    bool             `json:"interrupted,omitempty"`
	DurationSec    float64          `json:"duration_sec"`
	Error          string           `json:"error,omitempty"`
}

// Report converts the batch result into its JSON form. jobs is the
// concurrency the batch ran with (recorded for reproducibility).
func (b *BatchResult) Report(jobs int) *Report {
	rep := &Report{
		Jobs:        jobs,
		WallSec:     b.Wall.Seconds(),
		Interrupted: b.Interrupted,
		Corpus:      b.Corpus,
		Traces:      make([]TraceReport, len(b.Traces)),
	}
	for i, t := range b.Traces {
		tr := TraceReport{
			Name:           t.Name,
			Handler:        t.Handler,
			Sketch:         t.Sketch,
			Distance:       core.ReportFloat(t.Distance),
			Iterations:     len(t.Stats.Iterations),
			HandlersScored: t.Stats.HandlersScored,
			Interrupted:    t.Stats.Interrupted,
			DurationSec:    t.Duration.Seconds(),
		}
		if t.Err != nil {
			tr.Error = t.Err.Error()
		}
		rep.Traces[i] = tr
	}
	return rep
}
