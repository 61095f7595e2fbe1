package replay

import (
	"math"

	"repro/internal/dist"
	"repro/internal/dsl"
)

// Lanes is the batch width of the lane-batched scoring path: how many
// constant-pool completions of one sketch core packs into one
// ScoreBatchDetail call through the K-wide VM (dsl.EvalSeriesBatchFrom)
// and the multi-series distance kernel
// (dist.PreparedDistanceWithinGridBatch). A build-time constant so the lane
// loops compile with a fixed upper bound; the occupancy counters
// (replay.batches_executed, replay.lanes_filled) report how full the lanes
// run in practice.
const Lanes = 8

// boundChunks is how many pieces phase 1 replays a segment in when the
// partial LB_Keogh bound applies: after each piece the grid points it
// completed are resampled and their envelope terms folded in, so a lane
// whose bound reaches its cutoff stops at most a piece after it could.
const boundChunks = 16

// boundStep is one piece of a segment's phase-1 replay: replay up to row
// rows, then resample (and bound) up to grid point grid.
type boundStep struct{ rows, grid int }

// batchScratch is one worker's reusable buffers for ScoreBatchDetail. The
// per-lane slabs are indexed by the lane's position in the call (lane
// l's segment-si grid is grids[(l*nseg+si)*ResampleN:]); the compacted
// vectors (live, valsC, cwC, outsC) hold only the lanes still replaying.
// Everything is slab-reused across calls — the steady state allocates
// nothing.
type batchScratch struct {
	values []float64 // replayed values: lane l, segment i at l*valSpan+valOff[i]
	grids  []float64 // resampled candidates, one ResampleN grid per (lane, segment)
	bounds []float64 // per-(lane, segment) lower bounds from phase 1
	needs  []float64 // per-lane phase-2 running-total requirements, nseg+1 each
	lbDone []float64 // per-lane sum of completed segments' bounds
	raw    []float64 // per-lane LB_Keogh sum of the current segment
	totals []float64 // per-lane running sum of exact segment distances
	segCut []float64 // per-lane segment sub-cutoffs

	live  []int
	valsC [][]float64 // compacted constant vectors for the VM
	cwC   []float64   // compacted windows carried between pieces
	outsC [][]float64 // compacted replay outputs
	rows  []int
	oks   []bool

	laneGrid [][]float64
	cutsC    []float64
	laneDs   []float64 // measure results, one per live lane
	laneOuts []dist.Outcome

	bex   *dsl.BatchExec
	exec  *dsl.Exec // scalar VM for single-lane pieces
	bdist *dist.BatchScratch
	dist  *dist.Scratch // single-lane metric (K=1, empty segments, Series path)
}

func newBatchScratch() *batchScratch {
	return &batchScratch{
		bex:   dsl.NewBatchExec(),
		exec:  dsl.NewExec(),
		bdist: dist.NewBatchScratch(),
		dist:  dist.NewScratch(),
	}
}

// ScoreBatch scores K = len(valsK) completions of the sketch in one
// lane-batched pass, without provenance. See ScoreBatchDetail.
func (cs *CompiledSketch) ScoreBatch(valsK [][]float64, cutoffs []float64, ds []float64, exacts []bool) {
	cs.ScoreBatchDetail(valsK, cutoffs, ds, exacts, nil)
}

// ScoreBatchDetail scores K = len(valsK) completions of the sketch in one
// lane-batched pass — the scorer's only scoring path — in two phases:
//
//  1. Bound. Every lane replays the segments on the K-wide VM, in pieces.
//     After each piece the grid points it completed are resampled and,
//     under DTW, their LB_Keogh terms added to a running bound; at the end
//     of a segment the segment's best grid bound (dist.GridBound) joins
//     the sum over completed segments. A lane leaves the batch as soon as
//     that bound reaches its cutoff (stage StageLBKeogh, Row the VM row it
//     stopped at) or its window diverges (+Inf, exact).
//  2. Measure. The surviving lanes run the metric kernel segment by
//     segment over the grids phase 1 kept. Segment i's sub-cutoff is the
//     cutoff less the running exact total and less the bounds of the
//     segments still to come, each step rounded up so it never undercuts.
//
// A lane whose true total is below its cutoff is therefore never settled
// early, and its distance is bit-identical to an unbounded score: the
// kernels compute the same cells in the same order and the per-segment
// distances are summed in segment order. A settled lane reports a lower
// bound on its total that is >= its cutoff. Each lane follows rules that
// depend only on its own completion and cutoff — the piece boundaries are
// fixed per segment — so lane l's results (ds[l], exacts[l], and outs[l]
// when outs is non-nil, including its ledger offer) do not depend on which
// lanes share its batch. cutoffs, ds, and exacts must have at least K
// entries; outs may be nil (no provenance, no ledger traffic) or have at
// least K entries.
func (cs *CompiledSketch) ScoreBatchDetail(valsK [][]float64, cutoffs []float64, ds []float64, exacts []bool, outs []CandidateOutcome) {
	if len(valsK) == 0 {
		return
	}
	cBatches.Load().Inc()
	cLanes.Load().Add(int64(len(valsK)))
	cs.scoreSegments(0, len(cs.s.segs), valsK, cutoffs, ds, exacts, outs)
}

// scoreSegments runs both phases over segments [first, end).
func (cs *CompiledSketch) scoreSegments(first, end int, valsK [][]float64, cutoffs []float64, ds []float64, exacts []bool, outs []CandidateOutcome) {
	s := cs.s
	sc := s.pool.Get().(*batchScratch)
	defer s.pool.Put(sc)
	k, nseg := len(valsK), end-first
	if span := k * s.valSpan; cap(sc.values) < span {
		sc.values = make([]float64, span)
	}
	if need := k * nseg * dist.ResampleN; cap(sc.grids) < need {
		sc.grids = make([]float64, need)
	}
	r := &laneRun{
		cs: cs, sc: sc, valsK: valsK, cutoffs: cutoffs, ds: ds, exacts: exacts, outs: outs,
		first: first, end: end, nseg: nseg,
		bounds: grow(&sc.bounds, k*nseg),
		lbDone: grow(&sc.lbDone, k),
		raw:    grow(&sc.raw, k),
		totals: grow(&sc.totals, k),
	}
	live := sc.live[:0]
	for l := 0; l < k; l++ {
		r.lbDone[l], r.raw[l], r.totals[l] = 0, 0, 0
		live = append(live, l)
		if outs != nil {
			outs[l].reset()
		}
	}
	for i := first; i < end && len(live) > 0; i++ {
		live = r.bound(i, live)
	}
	live = r.measure(live)
	for _, l := range live {
		r.settle(l, r.totals[l], true, dist.StageFull, end-1, 0)
	}
	sc.live = live
}

// laneRun is one scoreSegments call's state. It lives on the caller's
// stack: only its slices point into the worker's scratch, so the caller's
// lane vectors never escape.
type laneRun struct {
	cs      *CompiledSketch
	sc      *batchScratch
	valsK   [][]float64
	cutoffs []float64
	ds      []float64
	exacts  []bool
	outs    []CandidateOutcome

	first, end, nseg int
	bounds, lbDone   []float64
	raw, totals      []float64
}

// bounded reports whether lane l has a finite cutoff to settle against;
// an infinite (or NaN) cutoff lane is scored exactly and pays for no
// bounds.
func (r *laneRun) bounded(l int) bool { return r.cutoffs[l] < math.Inf(1) }

// grid is lane l's resampled candidate on segment i.
func (r *laneRun) grid(l, i int) []float64 {
	at := (l*r.nseg + i - r.first) * dist.ResampleN
	return r.sc.grids[at : at+dist.ResampleN]
}

// note appends one segment outcome to lane l's provenance.
func (r *laneRun) note(l int, o dist.Outcome) {
	if r.outs == nil {
		return
	}
	out := &r.outs[l]
	out.Segments = append(out.Segments, o)
	out.Cells += o.Cells
	out.Saved += o.Saved
}

// settle records lane l's final value.
func (r *laneRun) settle(l int, d float64, exact bool, stage dist.Stage, seg, row int) {
	r.ds[l], r.exacts[l] = d, exact
	if r.outs != nil {
		r.outs[l].settle(d, exact, stage, seg, row)
		r.cs.offer(r.valsK[l], &r.outs[l])
	}
}

// settleBound settles lane l in phase 1: its bound b reached its cutoff
// after row rows of segment i.
func (r *laneRun) settleBound(l, i, rows int, b float64) {
	s := r.cs.s
	cSkipped.Load().Add(int64(s.rowSum[r.end] - s.rowSum[i] - rows))
	r.note(l, s.prepared[i].BoundSettle())
	r.settle(l, b, false, dist.StageLBKeogh, i, rows)
}

// bound is phase 1 on segment i: replay the live lanes piece by piece,
// resample the grid points each piece completes, fold the lanes' bounds,
// and drop the lanes that diverge or whose bound reaches the cutoff. It
// returns the lanes still live.
func (r *laneRun) bound(i int, live []int) []int {
	cs, s, sc := r.cs, r.cs.s, r.sc
	si := i - r.first
	n := s.cols[i].N
	bounded := false
	for _, l := range live {
		r.bounds[l*r.nseg+si] = 0
		bounded = bounded || r.bounded(l)
	}
	if n == 0 {
		return live // phase 2 settles empty segments per lane
	}
	nl := len(live)
	cReplays.Load().Add(int64(nl))
	if nl > 1 {
		// prologue below books one hit or miss for the segment; the other
		// nl-1 lanes of this batch reuse the same hoisted columns, so hits
		// count replays, not calls.
		cProHits.Load().Add(int64(nl - 1))
	}
	pro := cs.prologue(i)
	valsC, cwC, outsC := sc.valsC[:0], sc.cwC[:0], sc.outsC[:0]
	for _, l := range live {
		at := l*s.valSpan + s.valOff[i]
		valsC = append(valsC, r.valsK[l])
		cwC = append(cwC, s.cwnd0[i])
		outsC = append(outsC, sc.values[at:at+n])
	}
	rows, oks := grow(&sc.rows, nl), grow(&sc.oks, nl)
	res, p := s.res[i], s.prepared[i]
	whole := [1]boundStep{{n, dist.ResampleN}}
	steps := whole[:]
	partial := bounded && s.steps[i] != nil
	if partial {
		steps = s.steps[i]
	}
	prog := cs.e.prog
	lo, hi, mss := minCwndPkts*s.mss[i], maxCwndPkts*s.mss[i], s.mss[i]
	from, g0 := 0, 0
	for _, st := range steps {
		if nl == 1 {
			// Single live lane: the scalar VM is the K=1 specialization — the
			// lane-major kernel's per-op lane loops cost more than they
			// amortize at width 1, and both are pinned bit-identical to the
			// AST oracle, so the switch is invisible.
			rows[0], cwC[0], oks[0] = prog.EvalSeriesFrom(s.cols[i], pro, valsC[0], from, st.rows, cwC[0], lo, hi, mss, outsC[0], sc.exec)
		} else {
			prog.EvalSeriesBatchFrom(s.cols[i], pro, valsC, from, st.rows, cwC, lo, hi, mss, outsC, rows, oks, sc.bex)
		}
		var done int64
		for j := 0; j < nl; j++ {
			done += int64(rows[j] - from)
		}
		cInstrs.Load().Add(done * int64(prog.SuffixLen()))
		w := 0
		for j, l := range live {
			if !oks[j] {
				cDiverged.Load().Inc()
				r.note(l, dist.Outcome{})
				if r.outs != nil {
					r.outs[l].Diverged = true
				}
				r.settle(l, math.Inf(1), true, dist.StageFull, i, 0)
				continue
			}
			if res != nil {
				g := r.grid(l, i)
				res.IntoRange(outsC[j], g, g0, st.grid)
				if partial && r.bounded(l) {
					r.raw[l] = p.KeoghTerms(g, g0, st.grid, r.raw[l])
					if b := r.lbDone[l] + p.KeoghBound(r.raw[l]); b >= r.cutoffs[l] {
						r.settleBound(l, i, st.rows, b)
						continue
					}
				}
			}
			live[w], valsC[w], cwC[w], outsC[w] = l, valsC[j], cwC[j], outsC[j]
			w++
		}
		live, valsC, cwC, outsC, nl = live[:w], valsC[:w], cwC[:w], outsC[:w], w
		if nl == 0 {
			break
		}
		from, g0 = st.rows, st.grid
	}
	sc.valsC, sc.cwC, sc.outsC = valsC, cwC, outsC
	if res == nil {
		return live // the Series path has no grid bound
	}
	w := 0
	for _, l := range live {
		if r.bounded(l) {
			// A bounded lane on a grid segment with an envelope took the
			// partial path, so raw holds the whole grid's LB_Keogh sum.
			b := dist.GridBound(s.metric, p, r.grid(l, i), r.raw[l])
			r.raw[l] = 0
			r.bounds[l*r.nseg+si] = b
			r.lbDone[l] += b
			if r.lbDone[l] >= r.cutoffs[l] {
				r.settleBound(l, i, n, r.lbDone[l])
				continue
			}
		}
		live[w] = l
		w++
	}
	return live[:w]
}

// measure is phase 2: the metric kernel runs segment by segment for the
// lanes phase 1 left, each segment under the cutoff less the running exact
// total and the bounds of the segments after it. It returns the lanes
// that finished exact.
func (r *laneRun) measure(live []int) []int {
	if len(live) == 0 {
		return live
	}
	sc, nseg := r.sc, r.nseg
	needs := grow(&sc.needs, len(r.valsK)*(nseg+1))
	segCut := grow(&sc.segCut, len(r.valsK))
	for _, l := range live {
		// need[j] is what the running total after j segments must reach for
		// the total plus the bounds of segments j.. to reach the cutoff.
		// Each step rounds up by a ulp, as the sub-cutoff does, so that a
		// total reaching need[j] provably reaches the cutoff.
		need := needs[l*(nseg+1) : (l+1)*(nseg+1)]
		need[nseg] = r.cutoffs[l]
		for j := nseg - 1; j >= 1; j-- {
			need[j] = math.Nextafter(need[j+1]-r.bounds[l*nseg+j], math.Inf(1))
		}
	}
	for si := 0; si < nseg && len(live) > 0; si++ {
		i := r.first + si
		for _, l := range live {
			// The sub-cutoff over-approximates need-total by a ulp so a
			// segment is never abandoned when the true total is < cutoff.
			segCut[l] = math.Nextafter(needs[l*(nseg+1)+si+1]-r.totals[l], math.Inf(1))
		}
		segDs, segOuts := r.segment(i, live, segCut)
		w := 0
		for j, l := range live {
			d, o := segDs[j], segOuts[j]
			r.note(l, o)
			if !o.Exact() {
				r.settle(l, r.withRest(l, si, r.totals[l]+d), false, o.Stage, i, o.Row)
				continue
			}
			r.totals[l] += d
			t := r.totals[l]
			if math.IsInf(t, 1) {
				r.settle(l, t, true, dist.StageFull, i, 0)
				continue
			}
			if si < nseg-1 && (t >= r.cutoffs[l] || t >= needs[l*(nseg+1)+si+1]) {
				// Cross-segment abandon: the running sum of exact segment
				// distances, with the bounds still to come, reaches the cutoff.
				r.settle(l, r.withRest(l, si, t), false, dist.StageAbandon, i, 0)
				continue
			}
			live[w] = l
			w++
		}
		live = live[:w]
	}
	return live
}

// withRest adds to t, in segment order, lane l's bounds on the segments
// after segment offset si: the lane's reported lower bound when it
// settles there.
func (r *laneRun) withRest(l, si int, t float64) float64 {
	for _, b := range r.bounds[l*r.nseg+si+1 : (l+1)*r.nseg] {
		t += b
	}
	return t
}

// segment measures the live lanes' kept series for segment i against the
// prepared segment, lane l = live[j] under segCut[l]. Lane j's distance
// and stage outcome come back at index j of the returned slices, which
// belong to the scratch and stay valid until its next use.
func (r *laneRun) segment(i int, live []int, segCut []float64) ([]float64, []dist.Outcome) {
	s, sc := r.cs.s, r.sc
	nl := len(live)
	laneDs := grow(&sc.laneDs, nl)
	laneOuts := growOutcomes(&sc.laneOuts, nl)
	n := s.cols[i].N
	switch {
	case n == 0:
		// Empty segments settle per lane: for the built-in metrics to +Inf
		// immediately, and a generic metric's fallback sees one call per
		// lane.
		for j, l := range live {
			laneDs[j], laneOuts[j] = dist.PreparedDistanceDetail(s.metric, s.prepared[i], dist.Series{}, segCut[l], sc.dist)
		}
	case s.res[i] != nil:
		// Grid fast path: hand the lanes' grids to the multi-series kernel
		// at once.
		laneGrid, cutsC := sc.laneGrid[:0], sc.cutsC[:0]
		for _, l := range live {
			laneGrid = append(laneGrid, r.grid(l, i))
			cutsC = append(cutsC, segCut[l])
		}
		sc.laneGrid, sc.cutsC = laneGrid, cutsC
		if nl == 1 {
			// The K=1 specialization on the metric side.
			laneDs[0], laneOuts[0] = dist.PreparedDistanceDetailGrid(s.metric, s.prepared[i], laneGrid[0], cutsC[0], sc.dist)
		} else {
			dist.PreparedDistanceWithinGridBatch(s.metric, s.prepared[i], laneGrid, cutsC, laneDs, laneOuts, sc.bdist)
		}
	default:
		// Unsorted time grids (or non-grid metrics) keep the validating
		// Series path, lane by lane.
		for j, l := range live {
			at := l*s.valSpan + s.valOff[i]
			synth := dist.Series{Times: s.times[i], Values: sc.values[at : at+n]}
			laneDs[j], laneOuts[j] = dist.PreparedDistanceDetail(s.metric, s.prepared[i], synth, segCut[l], sc.dist)
		}
	}
	return laneDs, laneOuts
}

// boundSteps is segment i's phase-1 piece schedule under the partial
// bound: boundChunks pieces of equal grid share, each ending at the first
// row that completes its grid points, the last at the segment's end (so
// every row is replayed and a divergence anywhere is seen).
func boundSteps(res *dist.Resampler, n int) []boundStep {
	steps := make([]boundStep, 0, boundChunks)
	for c := 1; c <= boundChunks; c++ {
		g := c * dist.ResampleN / boundChunks
		rows := res.Rows(g)
		if c == boundChunks {
			rows = n
		}
		if len(steps) > 0 && steps[len(steps)-1].rows == rows {
			steps[len(steps)-1].grid = g
			continue
		}
		steps = append(steps, boundStep{rows, g})
	}
	return steps
}

// grow resizes *buf to n entries, reusing its backing array.
func grow[T int | bool | float64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growOutcomes is grow for dist.Outcome slices.
func growOutcomes(buf *[]dist.Outcome, n int) []dist.Outcome {
	if cap(*buf) < n {
		*buf = make([]dist.Outcome, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
