package core

import (
	"math"
	"time"

	"repro/internal/dsl"
	"repro/internal/replay"
)

// laneResult is one completion's settled score, buffered until every lane
// of the sketch has finished so accounting can fold in assignment order.
type laneResult struct {
	d      float64
	exact  bool
	scored bool // false for completions that failed to bind
}

// laneScratch is one scoring worker's reusable state for the lane-batched
// scoreSketch path: the pending batch (assignment indices, cache keys,
// constant vectors, per-lane cutoffs) plus the buffers one flush fills.
// Everything is reused across sketches; the steady state allocates only
// what scoring itself requires.
type laneScratch struct {
	results []laneResult
	idx     []int       // assignment index per pending lane
	keys    []uint64    // handler cache key per pending lane
	valsK   [][]float64 // constant vector per pending lane
	cutoffs []float64
	ds      []float64
	exacts  []bool
	outs    []replay.CandidateOutcome
}

func newLaneScratch() *laneScratch {
	w := replay.Lanes
	return &laneScratch{
		idx:     make([]int, 0, w),
		keys:    make([]uint64, 0, w),
		valsK:   make([][]float64, 0, w),
		cutoffs: make([]float64, 0, w),
		ds:      make([]float64, w),
		exacts:  make([]bool, w),
		outs:    make([]replay.CandidateOutcome, w),
	}
}

// reset sizes the per-assignment result buffer for a new sketch and clears
// the pending batch.
func (s *laneScratch) reset(n int) []laneResult {
	if cap(s.results) < n {
		s.results = make([]laneResult, n)
	}
	s.results = s.results[:n]
	for i := range s.results {
		s.results[i] = laneResult{}
	}
	s.idx = s.idx[:0]
	s.keys = s.keys[:0]
	s.valsK = s.valsK[:0]
	s.cutoffs = s.cutoffs[:0]
	return s.results
}

// enqueue adds one completion to the pending batch.
func (s *laneScratch) enqueue(ai int, key uint64, vals []float64, cutoff float64) {
	s.idx = append(s.idx, ai)
	s.keys = append(s.keys, key)
	s.valsK = append(s.valsK, vals)
	s.cutoffs = append(s.cutoffs, cutoff)
}

// hasKey reports whether the pending batch already carries a lane with this
// cache key.
func (s *laneScratch) hasKey(key uint64) bool {
	for _, k := range s.keys {
		if k == key {
			return true
		}
	}
	return false
}

// flushLanes scores the pending batch through the lane kernel and folds
// each lane into the worker funnel, the memo cache, and the
// per-assignment results. The latency histogram, when registered, gets
// one sample per batch; the clock reads are skipped entirely otherwise.
func (r *runState) flushLanes(cs *replay.CompiledSketch, scr *laneScratch, fl *Funnel) {
	k := len(scr.idx)
	if k == 0 {
		return
	}
	ds, exacts, outs := scr.ds[:k], scr.exacts[:k], scr.outs[:k]
	if r.hScore == nil {
		cs.ScoreBatchDetail(scr.valsK, scr.cutoffs, ds, exacts, outs)
	} else {
		t0 := time.Now()
		cs.ScoreBatchDetail(scr.valsK, scr.cutoffs, ds, exacts, outs)
		r.hScore.Observe(time.Since(t0).Seconds())
	}
	for l := 0; l < k; l++ {
		fl.observe(&outs[l])
		if !r.mode.exact {
			r.cache.put(scr.keys[l], ds[l], exacts[l])
		}
		scr.results[scr.idx[l]] = laneResult{d: ds[l], exact: exacts[l], scored: true}
	}
	scr.idx = scr.idx[:0]
	scr.keys = scr.keys[:0]
	scr.valsK = scr.valsK[:0]
	scr.cutoffs = scr.cutoffs[:0]
}

// scoreSketch concretizes a sketch's holes from the constant pool and
// returns the best handler, its distance (with its exactness flag), and
// the number of handlers evaluated. Completions — a bound sketch's one
// empty completion included — are packed the run's lane width wide
// (replay.Lanes in production) and scored through the lane kernel. Each
// candidate's fate lands in fl (the worker's funnel); scr is the worker's
// reusable lane state. Sampling is deterministic per (sketch, seed).
//
// The pruning cutoff is fixed for the whole sketch at entry (the bucket's
// best; +Inf in exact mode) rather than tightened by exact
// results mid-sketch: every completion then scores under the same cutoff
// no matter which lanes it shares a batch with, which is what makes the
// search's result independent of the lane width. An abandoned candidate's
// true score still provably cannot improve the bucket (its running total
// reached the cutoff, which is at most the bucket best), so exactness —
// and fl.NewBest, counted in assignment order during the final fold — is
// unchanged from exact scoring.
func (r *runState) scoreSketch(sk *dsl.Node, scorer *replay.Scorer, setID uint64, bucketBest float64, fl *Funnel, scr *laneScratch) (*dsl.Node, float64, bool, int) {
	holes := sk.Holes()
	// One register program per sketch: every completion below executes it
	// with patched constants and shares its hoisted prologue columns.
	cs := scorer.CompileSketch(sk)
	cut := bucketBest
	if r.mode.exact {
		cut = math.Inf(1) // no pruning
	}
	pool := r.opts.DSL.Constants
	assignments := completions(sk, pool, holes, r.opts.MaxCompletions, r.opts.Seed)
	r.cCompletions.Add(int64(len(assignments)))
	results := scr.reset(len(assignments))
	for ai, vals := range assignments {
		if r.mode.exact {
			// Validation without binding: completions emits pool values for
			// exactly the sketch's holes, and Bind fails only on a length
			// mismatch — the check is equivalent, and the bound tree (unused
			// without the memo cache) is not allocated until a winner is
			// known.
			if len(vals) != holes {
				fl.count(FunnelRejected)
				continue
			}
			scr.enqueue(ai, 0, vals, math.Inf(1))
		} else {
			h, err := bindHandler(sk, holes, vals)
			if err != nil {
				fl.count(FunnelRejected)
				continue
			}
			key := handlerKey(h, setID)
			if scr.hasKey(key) {
				// A canonical duplicate of a lane already in the pending
				// batch: flush so that lane's score lands in the cache first,
				// and the duplicate settles below exactly as it would have
				// at width 1.
				r.flushLanes(cs, scr, fl)
			}
			if e, ok := r.cache.get(key); ok {
				if e.exact {
					r.cCacheHits.Inc()
					fl.count(FunnelCanonicalDup)
					results[ai] = laneResult{d: e.d, exact: true, scored: true}
					continue
				}
				if e.d >= cut {
					r.cCacheHits.Inc()
					fl.count(FunnelCacheLB)
					results[ai] = laneResult{d: e.d, exact: false, scored: true}
					continue
				}
			}
			r.cCacheMisses.Inc()
			scr.enqueue(ai, key, vals, cut)
		}
		if len(scr.idx) == r.mode.width {
			r.flushLanes(cs, scr, fl)
		}
	}
	r.flushLanes(cs, scr, fl)

	// Accounting folds in assignment order once every lane has settled, so
	// NewBest and the sketch best do not depend on the lane width.
	bestD := math.Inf(1)
	bestExact := false
	bestIdx := -1
	runBest := bucketBest
	for ai := range results {
		res := &results[ai]
		if !res.scored {
			continue
		}
		if res.exact && res.d < runBest {
			runBest = res.d
			fl.NewBest++
		}
		if res.d < bestD {
			bestD, bestIdx, bestExact = res.d, ai, res.exact
		}
	}
	var bestH *dsl.Node
	if bestIdx >= 0 {
		// Only the winning assignment needs its tree materialized.
		bestH, _ = bindHandler(sk, holes, assignments[bestIdx])
	}
	return bestH, bestD, bestExact, len(assignments)
}

// bindHandler is sk.Bind(vals), except that a sketch without holes is
// returned as is: it already is the handler, and its canonical key is
// memoized, where a copy would rebuild it.
func bindHandler(sk *dsl.Node, holes int, vals []float64) (*dsl.Node, error) {
	if holes == 0 && len(vals) == 0 {
		return sk, nil
	}
	return sk.Bind(vals)
}
