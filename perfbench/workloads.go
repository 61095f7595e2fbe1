package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

// opResult is one op's outcome: a trace synthesized, and classified first
// on paper_cold.
type opResult struct {
	Input string
	// Latency is the op's own wall time, pcap open to answer, and CPU the
	// process CPU seconds over the same interval.
	Latency, CPU float64
	Err          error

	// Synthesis answer and what its output check needs.
	Handler  string
	Distance float64
	winner   *dsl.Node
	segs     []*trace.Segment
	funnel   core.Funnel

	// Classification answer (paper_cold): the label and the nearest
	// reference's distance. Truth is the capture's CCA.
	Label, Truth string
	Nearest      float64

	Segments int
	// PeakRSS is the resident-set peak during the op, in MB, where the
	// workload resets the peak before each op; 0 otherwise.
	PeakRSS float64
	// Spans timed around calls into the program.
	AnalyzeS, SynthesizeS, ClassifyS float64
}

// workload is one benchmark workload over a generated input set.
type workload interface {
	// setup does the workload's set-up; the harness times it. The registry
	// is nil outside traced runs.
	setup(reg *obs.Registry) error
	// round runs one op per op input, in manifest order, and returns the
	// results. Each op is timed on its own; the timers cover only the
	// workload's calls into the program, not the memory resets before
	// them. reg is nil outside the traced phase.
	round(reg *obs.Registry) []opResult
}

// newWorkload builds the manifest's workload and returns it with its op
// inputs, whose File fields are paths under dir.
func newWorkload(m *manifest, dir string) (workload, []input, error) {
	var ops, lib []input
	for _, in := range m.Inputs {
		in.File = filepath.Join(dir, in.File)
		if in.Role == roleLibrary {
			lib = append(lib, in)
		} else {
			ops = append(ops, in)
		}
	}
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("manifest lists no op inputs")
	}
	switch m.Workload {
	case "paper_cold":
		return &paperCold{ops: ops, lib: lib, x: trace.NewExtractor()}, ops, nil
	case "batch_warm":
		return &batchWarm{ops: ops, x: trace.NewExtractor()}, ops, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", m.Workload)
}

// procs is the measuring process's thread budget: its GOMAXPROCS, the
// search's Workers and the corpus's Jobs and Procs. One thread keeps a run
// from depending on a second shared core. With two, the time and CPU
// figures of runs of the same code spread by up to 41%: a stall on either
// core holds up the other at the search's barriers, and an idle core runs
// GC mark work that is charged to the process.
const procs = 1

// searchOptions is the program's default synthesis configuration at the
// quick experiment budget: no pruning, scoring or sharding option is set.
func searchOptions(d *dsl.DSL) core.Options {
	return core.Options{
		DSL:         d,
		MaxHandlers: quick.MaxHandlers,
		ScanBudget:  quick.ScanBudget,
		Seed:        quick.Seed,
		Workers:     procs,
	}
}

// analyze is the ingest every op starts with: decode and analyze the
// capture, then cut it into between-loss segments.
func analyze(x *trace.Extractor, path string) (*trace.Trace, []*trace.Segment, float64, error) {
	t0 := time.Now()
	tr, err := x.AnalyzeFile(path)
	if err != nil {
		return nil, nil, time.Since(t0).Seconds(), err
	}
	segs := tr.Split(quick.MinSegment)
	el := time.Since(t0).Seconds()
	if len(segs) == 0 {
		return tr, nil, el, fmt.Errorf("%s: no segments", filepath.Base(path))
	}
	return tr, segs, el, nil
}

// paperCold runs Table 2's pipeline on one capture per op, as the paper's
// §3.3 does: analyze it, classify it against the reference library, then
// synthesize a handler with per-run enumeration, as abagnale does for a
// single trace. The search runs in the capture's CCA's sub-DSL
// (expr.DSLHint), so an op's work does not hang on the classifier's answer.
type paperCold struct {
	ops, lib []input
	x        *trace.Extractor
	cl       *classify.Classifier
	dsls     map[string]*dsl.DSL
}

// setup ingests and calibrates the classifier's reference library and
// resolves the ops' sub-DSLs.
func (w *paperCold) setup(*obs.Registry) error {
	cl := classify.New(nil)
	for _, in := range w.lib {
		tr, err := w.x.AnalyzeFile(in.File)
		if err != nil {
			return err
		}
		cl.Add(in.Key, in.CCA, tr)
	}
	cl.Calibrate(1.5)
	dsls := map[string]*dsl.DSL{}
	for _, in := range w.ops {
		d, err := dsl.Named(in.DSL)
		if err != nil {
			return err
		}
		dsls[in.DSL] = d
	}
	w.cl, w.dsls = cl, dsls
	return nil
}

func (w *paperCold) round(reg *obs.Registry) []opResult {
	out := make([]opResult, len(w.ops))
	for i, in := range w.ops {
		r := opResult{Input: filepath.Base(in.File), Truth: in.CCA}
		// Each op starts from a heap returned to the OS, so its peak does
		// not depend on what the previous op left unscavenged.
		debug.FreeOSMemory()
		resetPeakRSS()
		c0 := cpuSeconds()
		t0 := time.Now()
		tr, segs, an, err := analyze(w.x, in.File)
		r.AnalyzeS = an
		if err == nil {
			t1 := time.Now()
			var cls classify.Result
			cls, err = w.cl.Classify(in.Key, tr)
			r.ClassifyS = time.Since(t1).Seconds()
			if err == nil {
				r.Label, r.Nearest = cls.Label, cls.Nearest[0].Distance
			}
		}
		if err == nil {
			opts := searchOptions(w.dsls[in.DSL])
			opts.Obs = reg
			t1 := time.Now()
			var res *core.Result
			res, err = core.Synthesize(context.Background(), segs, opts)
			r.SynthesizeS = time.Since(t1).Seconds()
			if err == nil {
				r.Handler, r.Distance, r.winner, r.funnel = res.Handler.String(), res.Distance, res.Handler, res.Stats.Funnel
			}
		}
		r.Latency, r.CPU = time.Since(t0).Seconds(), cpuSeconds()-c0
		r.PeakRSS = peakRSSMB()
		r.Err, r.segs, r.Segments = err, segs, len(segs)
		out[i] = r
	}
	return out
}

// batchWarm synthesizes each capture of a round through corpus.Run over
// one sketch corpus the set-up built and prewarmed, so every trace after
// the first reuses the corpus's sketches and compiled programs.
type batchWarm struct {
	ops []input
	x   *trace.Extractor
	d   *dsl.DSL
	c   *corpus.SketchCorpus
}

func (w *batchWarm) setup(reg *obs.Registry) error {
	if w.c != nil {
		w.c.Close()
	}
	w.d = dsl.Reno()
	c, err := corpus.New(corpus.Options{DSL: w.d, ScanBudget: quick.ScanBudget, Obs: reg})
	if err != nil {
		return err
	}
	c.Prewarm(context.Background(), procs)
	w.c = c
	return nil
}

// round runs one corpus.Run per trace, each timed with the trace's
// analysis as one op: a batch of one job per call, so every trace gets a
// timer of its own and its best over the rounds.
func (w *batchWarm) round(reg *obs.Registry) []opResult {
	out := make([]opResult, len(w.ops))
	// The round starts from a heap returned to the OS, so its peak is what
	// the round itself needed.
	debug.FreeOSMemory()
	resetPeakRSS()
	for i, in := range w.ops {
		r := opResult{Input: filepath.Base(in.File), Truth: in.CCA}
		c0 := cpuSeconds()
		t0 := time.Now()
		_, segs, an, err := analyze(w.x, in.File)
		r.AnalyzeS = an
		var t corpus.TraceResult
		if err == nil {
			t1 := time.Now()
			var res *corpus.BatchResult
			res, err = corpus.Run(context.Background(), []corpus.Job{{Name: r.Input, Segments: segs}}, corpus.RunOptions{
				Jobs:   procs,
				Procs:  procs,
				Corpus: w.c,
				Core:   searchOptions(w.d),
				Obs:    reg,
			})
			r.SynthesizeS = time.Since(t1).Seconds()
			if err == nil {
				t = res.Traces[0]
				err = t.Err
			}
		}
		r.Latency, r.CPU = time.Since(t0).Seconds(), cpuSeconds()-c0
		if err == nil {
			r.Handler, r.Distance, r.funnel = t.Handler, t.Distance, t.Stats.Funnel
			r.winner, err = dsl.Parse(t.Handler)
		}
		r.Err, r.segs, r.Segments = err, segs, len(segs)
		out[i] = r
	}
	return out
}

// check applies an op's output check: the op must have succeeded, and
// its synthesis answer must be reproduced bit for bit by a fresh scorer.
func check(r *opResult) error {
	if r.Err != nil {
		return r.Err
	}
	if r.winner == nil {
		return fmt.Errorf("%s: no handler", r.Input)
	}
	d, _ := replay.NewScorer(r.segs, dist.DTW{}).Score(r.winner, math.Inf(1))
	if math.Float64bits(d) != math.Float64bits(r.Distance) {
		return fmt.Errorf("%s: reported distance %v, fresh scorer %v for %s", r.Input, r.Distance, d, r.Handler)
	}
	return nil
}
