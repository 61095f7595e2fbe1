package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/replay"
)

// TestFastPathMatchesExact is the fast path's central promise: with
// pruning, early abandoning, and the memo cache all live (the default),
// Synthesize must return bit-for-bit the same result as exact scoring for
// a fixed seed — same handler, same distance bits, same per-iteration
// bucket rankings.
func TestFastPathMatchesExact(t *testing.T) {
	segs := segmentsFor(t, "reno")
	for _, seed := range []int64{1, 7, 42} {
		opts := quickOpts(dsl.Reno())
		opts.Seed = seed

		fast, err := Synthesize(context.Background(), segs, opts)
		if err != nil {
			t.Fatalf("seed %d fast: %v", seed, err)
		}
		exact, err := synthesize(context.Background(), segs, opts, scoringMode{exact: true})
		if err != nil {
			t.Fatalf("seed %d exact: %v", seed, err)
		}
		if fast.Handler.Key() != exact.Handler.Key() {
			t.Errorf("seed %d: fast handler %q != exact handler %q", seed, fast.Handler, exact.Handler)
		}
		if math.Float64bits(fast.Distance) != math.Float64bits(exact.Distance) {
			t.Errorf("seed %d: fast distance %v != exact distance %v", seed, fast.Distance, exact.Distance)
		}
		if !reflect.DeepEqual(stripPruneTelemetry(fast.Stats), stripPruneTelemetry(exact.Stats)) {
			t.Errorf("seed %d: search trajectories diverged:\nfast:  %+v\nexact: %+v",
				seed, fast.Stats, exact.Stats)
		}
		for _, b := range exact.Stats.Buckets {
			if b.Pruned != 0 {
				t.Errorf("seed %d: exact scoring reported %d pruned candidates in bucket %v", seed, b.Pruned, b.Ops)
			}
			if p := b.Funnel.Pruned(); p != 0 {
				t.Errorf("seed %d: exact funnel reported %d pruned candidates in bucket %v", seed, p, b.Ops)
			}
		}
		for _, res := range []*Result{fast, exact} {
			if !res.Stats.Funnel.Reconciles() {
				t.Errorf("seed %d: run funnel does not reconcile: %+v", seed, res.Stats.Funnel)
			}
			for _, b := range res.Stats.Buckets {
				if !b.Funnel.Reconciles() {
					t.Errorf("seed %d: bucket %v funnel does not reconcile: %+v", seed, b.Ops, b.Funnel)
				}
				if b.Funnel.Pruned() != b.Pruned {
					t.Errorf("seed %d: bucket %v funnel pruned %d != Pruned %d",
						seed, b.Ops, b.Funnel.Pruned(), b.Pruned)
				}
			}
		}
		// NewBest is mode-invariant: an improving candidate is never pruned
		// (the cutoff equals the running best), so both modes see the same
		// improvements even though their pruning stages differ.
		if fast.Stats.Funnel.NewBest != exact.Stats.Funnel.NewBest {
			t.Errorf("seed %d: fast NewBest %d != exact NewBest %d",
				seed, fast.Stats.Funnel.NewBest, exact.Stats.Funnel.NewBest)
		}
	}
}

// stripPruneTelemetry zeroes the per-bucket telemetry that is allowed to
// differ between the fast path and exact scoring: Pruned and the funnel's
// stage split both describe where candidates were settled inexactly, which
// by construction never happens under exact scoring. The funnel keeps its
// mode-invariant fields — Enumerated, NewBest, Bind rejections — so a
// count drift there still fails the DeepEqual. Every other field —
// rankings, budgets, trajectories — must still match bit-for-bit.
func stripPruneTelemetry(s SearchStats) SearchStats {
	s.Buckets = append([]BucketStats(nil), s.Buckets...)
	s.Funnel = normalizeFunnel(s.Funnel)
	for i := range s.Buckets {
		s.Buckets[i].Pruned = 0
		s.Buckets[i].Funnel = normalizeFunnel(s.Buckets[i].Funnel)
	}
	return s
}

// normalizeFunnel keeps only the funnel fields that must agree between the
// fast path and exact scoring. The stage split (cache vs lower bound vs
// abandon vs fully scored, and the cells they cost) is mode-dependent by
// design; Bind rejections happen before any scoring, so they stay.
func normalizeFunnel(f Funnel) Funnel {
	return Funnel{
		Enumerated: f.Enumerated,
		NewBest:    f.NewBest,
		Stages: [NumFunnelStages]StageCost{
			FunnelRejected: {Candidates: f.Stages[FunnelRejected].Candidates},
		},
	}
}

// TestFastPathCacheAndPruningCounters checks the instruments: a default
// run must record memo-cache hits (duplicate canonical handlers are common
// across sketches), nonzero metric-level pruning work, and — since replay
// moved to the register VM — compiled programs with prologue-column reuse
// across each sketch's completions.
func TestFastPathCacheAndPruningCounters(t *testing.T) {
	segs := segmentsFor(t, "reno")
	reg := obs.New()
	dist.Observe(reg)
	defer dist.Observe(nil)
	replay.Observe(reg)
	defer replay.Observe(nil)
	dsl.Observe(reg)
	defer dsl.Observe(nil)
	opts := quickOpts(dsl.Reno())
	opts.Obs = reg
	if _, err := Synthesize(context.Background(), segs, opts); err != nil {
		t.Fatal(err)
	}
	rep := reg.Report()
	if rep.Counters["core.score_cache_hits"] == 0 {
		t.Error("no score-cache hits recorded")
	}
	if rep.Counters["core.score_cache_misses"] == 0 {
		t.Error("no score-cache misses recorded")
	}
	if rep.Counters["dist.lb_prunes"]+rep.Counters["dist.early_abandons"] == 0 {
		t.Error("metric kernels never pruned or abandoned")
	}
	if rep.Counters["dsl.progs_compiled"] == 0 {
		t.Error("no register programs compiled")
	}
	if rep.Counters["replay.prologue_hits"] == 0 {
		t.Error("no prologue-cache hits on an end-to-end run")
	}
	if rep.Counters["replay.prologue_hits"] <= rep.Counters["replay.prologue_misses"] {
		t.Errorf("prologue hits (%d) not dominating misses (%d): completions are not sharing hoisted columns",
			rep.Counters["replay.prologue_hits"], rep.Counters["replay.prologue_misses"])
	}
	if rep.Counters["replay.instrs_executed"] == 0 {
		t.Error("no VM instructions recorded")
	}
}

// TestFastPathReducesDTWCells pins the acceptance criterion: the fast path
// must at least halve DTW cells per handler scored relative to exact
// scoring.
func TestFastPathReducesDTWCells(t *testing.T) {
	segs := segmentsFor(t, "reno")
	cellsPerHandler := func(exactScoring bool) float64 {
		reg := obs.New()
		dist.Observe(reg)
		defer dist.Observe(nil)
		opts := quickOpts(dsl.Reno())
		opts.Obs = reg
		res, err := synthesize(context.Background(), segs, opts, scoringMode{exact: exactScoring})
		if err != nil {
			t.Fatal(err)
		}
		rep := reg.Report()
		return float64(rep.Counters["dist.dtw_cells"]) / float64(res.Stats.HandlersScored)
	}
	exact := cellsPerHandler(true)
	fast := cellsPerHandler(false)
	t.Logf("dtw cells/handler: exact %.0f, fast %.0f (%.1fx)", exact, fast, exact/fast)
	if !(fast*2 <= exact) {
		t.Errorf("fast path cells/handler %.0f not at least 2x below exact %.0f", fast, exact)
	}
}

// TestIterationReportEncodesNonFinite: a run cancelled during its first
// iteration records +Inf bucket scores; the JSON report must render them as
// null instead of failing to encode (which silently lost the whole report).
func TestIterationReportEncodesNonFinite(t *testing.T) {
	rep := iterationReport(IterationStats{
		Index:   1,
		Ranking: []BucketRank{{Ops: dsl.OpSet(0).With(dsl.OpAdd), Score: math.Inf(1)}},
	}, math.Inf(1))
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report with +Inf scores failed to encode: %v", err)
	}
	if !strings.Contains(string(raw), `"best_distance":null`) {
		t.Errorf("non-finite best distance not rendered as null: %s", raw)
	}
}

// TestSynthesizeCancelledContext: a context cancelled before any scoring
// yields ctx.Err() — there is no best-so-far to report.
func TestSynthesizeCancelledContext(t *testing.T) {
	segs := segmentsFor(t, "reno")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Synthesize(ctx, segs, quickOpts(dsl.Reno()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("result = %+v, want nil", res)
	}
}

// cancelOnIteration is a progress sink target that cancels a context the
// first time an iteration line is emitted — a deterministic way to interrupt
// a run mid-search without racing on wall-clock.
type cancelOnIteration struct{ cancel context.CancelFunc }

func (c *cancelOnIteration) Write(p []byte) (int, error) {
	c.cancel()
	return len(p), nil
}

// TestSynthesizeMidRunCancel: cancelling after the first iteration must stop
// the loop gracefully — Stats.Interrupted set, best-so-far handler returned,
// no error.
func TestSynthesizeMidRunCancel(t *testing.T) {
	segs := segmentsFor(t, "reno")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := obs.New()
	reg.Attach(obs.NewProgressSink(&cancelOnIteration{cancel: cancel}))
	opts := quickOpts(dsl.Reno())
	opts.Obs = reg
	res, err := Synthesize(ctx, segs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Interrupted {
		t.Error("Stats.Interrupted not set")
	}
	if res.Handler == nil || math.IsInf(res.Distance, 1) {
		t.Errorf("no usable best-so-far handler: %+v", res)
	}
	if got := len(res.Stats.Iterations); got != 1 {
		t.Errorf("ran %d iterations after first-iteration cancel, want 1", got)
	}
}
