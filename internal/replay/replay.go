// Package replay executes candidate cwnd-on-ACK handlers against the event
// stream of a collected trace segment (§3.1 of the paper): for every ACK in
// the segment, the handler receives the observed congestion signals plus
// its own evolving window state, and produces the next window. The
// resulting synthesized CWND series is what the distance metric compares
// with the observed series.
package replay

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Package-level observability hooks. Replay sits below core's Options
// plumbing (metrics are free functions), so instruments are installed
// process-wide; the atomic pointers make installation safe against
// concurrent replays, and a nil counter (no registry installed) no-ops.
var (
	cReplays   atomic.Pointer[obs.Counter]
	cDiverged  atomic.Pointer[obs.Counter]
	cProHits   atomic.Pointer[obs.Counter]
	cProMisses atomic.Pointer[obs.Counter]
	cInstrs    atomic.Pointer[obs.Counter]
	cBatches   atomic.Pointer[obs.Counter]
	cLanes     atomic.Pointer[obs.Counter]
	cSkipped   atomic.Pointer[obs.Counter]
)

// Observe routes the package's instruments to the registry:
//
//	counters  replay.replays (handler replays executed),
//	          replay.diverged (replays aborted on non-finite windows),
//	          replay.prologue_hits / replay.prologue_misses (reuse of
//	          hoisted per-(sketch, segment) prologue columns),
//	          replay.instrs_executed (VM instructions run by EvalSeries),
//	          replay.rows_skipped (VM rows that lanes settled by the
//	          replay-time bound did not replay, over the segments of their
//	          batch),
//	          replay.batches_executed / replay.lanes_filled (lane-batched
//	          scoring calls and the candidates they carried — occupancy is
//	          lanes_filled / (batches_executed * Lanes))
//
// Passing nil uninstalls them. Process-wide; call once at tool startup.
func Observe(r *obs.Registry) {
	cReplays.Store(r.Counter("replay.replays"))
	cDiverged.Store(r.Counter("replay.diverged"))
	cProHits.Store(r.Counter("replay.prologue_hits"))
	cProMisses.Store(r.Counter("replay.prologue_misses"))
	cInstrs.Store(r.Counter("replay.instrs_executed"))
	cBatches.Store(r.Counter("replay.batches_executed"))
	cLanes.Store(r.Counter("replay.lanes_filled"))
	cSkipped.Store(r.Counter("replay.rows_skipped"))
}

// Window guards: a handler may compute nonsense transiently; the replay
// clamps rather than aborts so that near-miss candidates stay comparable,
// and only aborts on non-finite values.
const (
	minCwndPkts = 1.0
	maxCwndPkts = 1 << 20
)

// ErrDiverged reports that the handler produced a non-finite window.
var ErrDiverged = errors.New("replay: handler diverged (non-finite window)")

// Envs precomputes the per-ACK evaluation environments of a segment for
// the AST evaluator (closed-loop replay). The Cwnd field is a placeholder —
// the replay overwrites it with the handler's own evolving state at each
// step.
func Envs(seg *trace.Segment) []dsl.Env {
	envs := make([]dsl.Env, len(seg.Samples))
	segMin := segmentMinRTT(seg)
	for i, s := range seg.Samples {
		envs[i] = dsl.Env{
			MSS:           seg.MSS,
			Acked:         s.Acked,
			TimeSinceLoss: s.TimeSinceLoss.Seconds(),
			RTT:           effectiveRTT(&s, segMin),
			MinRTT:        s.MinRTT.Seconds(),
			MaxRTT:        s.MaxRTT.Seconds(),
			AckRate:       s.AckRate,
			RTTGradient:   s.RTTGradient,
			WMax:          s.WMax,
		}
	}
	return envs
}

// effectiveRTT returns the RTT a handler sees at one sample. Not every ACK
// carries a fresh RTT measurement, and on the first samples of a capture
// even the running minimum may still be zero; the chain RTT → MinRTT →
// segment-wide minimum keeps `rtt` (and so rtts-since-loss) from dividing
// by zero and spuriously diverging a handler with Inf.
func effectiveRTT(s *trace.Sample, segMin float64) float64 {
	if rtt := s.RTT.Seconds(); rtt != 0 {
		return rtt
	}
	if min := s.MinRTT.Seconds(); min != 0 {
		return min
	}
	return segMin
}

// segmentMinRTT is the last resort of the effectiveRTT chain: the smallest
// positive RTT (or, failing that, MinRTT) anywhere in the segment. Zero
// only when the segment carries no RTT information at all.
func segmentMinRTT(seg *trace.Segment) float64 {
	min := 0.0
	for i := range seg.Samples {
		for _, v := range [2]float64{seg.Samples[i].RTT.Seconds(), seg.Samples[i].MinRTT.Seconds()} {
			if v > 0 && (min == 0 || v < min) {
				min = v
			}
		}
	}
	return min
}

// Synthesize replays the handler over the segment and returns the
// synthesized CWND series in MSS units on the segment's time grid. The
// handler must be fully bound (no holes). It runs on the register VM —
// the same compile, prologue and EvalSeries steps the Scorer takes — so a
// plotted series is exactly the one that was scored.
func Synthesize(h *dsl.Node, seg *trace.Segment) (dist.Series, error) {
	cReplays.Load().Inc()
	n := len(seg.Samples)
	s := dist.Series{
		Times:  make([]float64, n),
		Values: make([]float64, n),
	}
	if n == 0 {
		return s, nil
	}
	for i := range seg.Samples {
		s.Times[i] = seg.Samples[i].Time.Seconds()
	}
	cols := NewCols(seg)
	prog := dsl.CompileProgram(h)
	mss := seg.MSS
	if _, ok := prog.EvalSeries(cols, prog.RunPrologue(cols), nil,
		startWindow(seg), minCwndPkts*mss, maxCwndPkts*mss, mss, s.Values, nil); !ok {
		cDiverged.Load().Inc()
		return dist.Series{}, ErrDiverged
	}
	return s, nil
}

// startWindow is the window a replay starts from: the first observed
// window, at least one MSS, like the paper's simulation, which continues
// from the trace's state.
func startWindow(seg *trace.Segment) float64 {
	return math.Max(seg.Samples[0].Cwnd, seg.MSS)
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}
