package replay

import (
	"sync"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/trace"
)

// Scorer scores candidate handlers against a fixed segment set. It is
// built once per segment set and owns everything that is invariant across
// candidates: the segments' signals as structure-of-arrays columns, the
// sample time grids, the observed series resampled onto the metric grid,
// and (for DTW) the LB_Keogh envelopes. Handlers execute on the register
// VM (dsl.CompileProgram): programs are cached keyed on the expression's
// canonical form, and each program's window-free prologue columns are
// computed once per (sketch, segment) and reused by every completion —
// see CompileSketch. Every score, single or batched, runs through the lane
// kernel (CompiledSketch.ScoreBatchDetail); per-call buffers come from a
// sync.Pool, so concurrent scoring workers neither allocate per call nor
// contend.
//
// Score is threshold-aware: segments accumulate into a running total and
// both the per-segment metric kernels and the cross-segment sum abandon
// once the total is provably >= the cutoff. The exactness flag — not a
// comparison against cutoff — tells the caller which case occurred.
type Scorer struct {
	metric   dist.Metric
	segs     []*trace.Segment
	cols     []*dsl.Cols
	times    [][]float64
	cwnd0    []float64
	mss      []float64
	prepared []*dist.PreparedSeries
	res      []*dist.Resampler // per-segment grid schedules (nil: Series path)
	pool     sync.Pool         // *batchScratch

	mu    sync.Mutex
	progs map[string]*compiledEntry

	// progSrc, when set, supplies compiled programs shared beyond this
	// scorer's lifetime (a batch corpus); see WithPrograms.
	progSrc ProgramSource

	// ledger, when set, samples candidates scored with provenance;
	// ledgerTag salts the sample priority (core passes the segment-set
	// fingerprint so the same candidate re-scored in a later iteration is
	// a distinct ledger event). See WithLedger.
	ledger    *Ledger
	ledgerTag uint64
}

// ProgramSource supplies compiled register programs keyed by the
// expression's canonical form. A source shared across scorers (and across
// synthesis runs — corpus.SketchCorpus implements this) amortizes
// compilation over a whole trace batch; implementations must be safe for
// concurrent use and must return a program equivalent to
// dsl.CompileProgram(sk).
type ProgramSource interface {
	Program(key string, sk *dsl.Node) *dsl.Program
}

// progCacheCap bounds the compiled-program cache. A synthesis iteration
// scores a few hundred sketches; one cached entry holds a program plus its
// per-segment prologue columns, so the cap keeps the worst case small
// while still covering every live sketch of an iteration.
const progCacheCap = 512

// compiledEntry is one cached program with its lazily-filled per-segment
// prologues. Entries are never mutated after eviction, so a CompiledSketch
// holding one stays valid even if the cache drops it. key and src identify
// the sketch for ledger sampling (the key doubles as the priority-hash
// input; src renders the entry lazily on acceptance).
type compiledEntry struct {
	prog *dsl.Program
	key  string
	src  *dsl.Node
	mu   sync.Mutex
	pros []*dsl.Prologue
}

// NewScorer prepares a scorer for the segment set under the metric (nil
// means DTW, matching core's default).
func NewScorer(segs []*trace.Segment, m dist.Metric) *Scorer {
	if m == nil {
		m = dist.DTW{}
	}
	s := &Scorer{
		metric:   m,
		segs:     segs,
		cols:     make([]*dsl.Cols, len(segs)),
		times:    make([][]float64, len(segs)),
		cwnd0:    make([]float64, len(segs)),
		mss:      make([]float64, len(segs)),
		prepared: make([]*dist.PreparedSeries, len(segs)),
		res:      make([]*dist.Resampler, len(segs)),
		progs:    make(map[string]*compiledEntry),
	}
	// The grid fast path hands pre-resampled candidates straight to the
	// built-in metric kernels; other metrics keep the validating Series path.
	gridOK := false
	switch m.(type) {
	case dist.DTW, dist.Euclidean, dist.Manhattan, dist.Frechet:
		gridOK = true
	}
	for i, seg := range segs {
		s.cols[i] = NewCols(seg)
		times := make([]float64, len(seg.Samples))
		for j := range seg.Samples {
			times[j] = seg.Samples[j].Time.Seconds()
		}
		s.times[i] = times
		if len(seg.Samples) > 0 {
			s.cwnd0[i] = startWindow(seg)
		}
		s.mss[i] = seg.MSS
		s.prepared[i] = dist.Prepare(m, seg.Series())
		if gridOK && len(times) > 0 {
			s.res[i] = dist.NewResampler(times) // nil when times are unsorted
		}
	}
	s.pool.New = func() any { return newBatchScratch() }
	return s
}

// WithPrograms routes CompileSketch through a shared program source; the
// scorer still keeps its own per-segment prologue state, which is what
// makes cross-trace program sharing safe (prologues depend on the segment
// set). A nil source is a no-op. Returns the scorer for chaining.
func (s *Scorer) WithPrograms(ps ProgramSource) *Scorer {
	s.progSrc = ps
	return s
}

// WithLedger attaches a candidate ledger: every completion scored through
// ScoreBatchDetail with CandidateOutcomes is offered to it under the
// ledger's deterministic sampling policy. tag salts the sample priority —
// callers scoring the same candidates in distinct rounds (core's
// refinement iterations) pass a round fingerprint so rounds sample
// independently. A nil ledger is a no-op. Returns the scorer for chaining.
func (s *Scorer) WithLedger(l *Ledger, tag uint64) *Scorer {
	s.ledger = l
	s.ledgerTag = tag
	return s
}

// Metric returns the metric the scorer was built with.
func (s *Scorer) Metric() dist.Metric { return s.metric }

// Segments returns the segment set the scorer was built over.
func (s *Scorer) Segments() []*trace.Segment { return s.segs }

// CompiledSketch is a sketch (or bound handler) compiled against one
// Scorer: the register program plus the scorer's cached per-segment
// prologue columns. Completions of the sketch are scored by patching their
// constants into the program's pool — no recompilation, no redundant
// window-free arithmetic. Safe for concurrent use.
type CompiledSketch struct {
	s *Scorer
	e *compiledEntry
}

// CompileSketch compiles the expression for this scorer's segment set,
// reusing a cached program when the same canonical form was seen before.
// vals passed to Score/SegmentScore later fill the sketch's holes in Bind
// order (nil for a fully bound expression).
func (s *Scorer) CompileSketch(sk *dsl.Node) *CompiledSketch {
	key := sk.Key()
	s.mu.Lock()
	e, ok := s.progs[key]
	if !ok {
		if len(s.progs) >= progCacheCap {
			for k := range s.progs { // drop an arbitrary entry
				delete(s.progs, k)
				break
			}
		}
		prog := (*dsl.Program)(nil)
		if s.progSrc != nil {
			prog = s.progSrc.Program(key, sk)
		}
		if prog == nil {
			prog = dsl.CompileProgram(sk)
		}
		e = &compiledEntry{
			prog: prog,
			key:  key,
			src:  sk,
			pros: make([]*dsl.Prologue, len(s.segs)),
		}
		s.progs[key] = e
	}
	s.mu.Unlock()
	return &CompiledSketch{s: s, e: e}
}

// Score sums the handler's per-segment distances — the same value as the
// deprecated TotalDistance — abandoning once the running total is provably
// >= cutoff. The second result reports exactness: true means the value is
// exactly the full sum; false means the computation stopped early and the
// value is a lower bound on the full sum (and, up to one rounding ulp, >=
// cutoff — rely on the flag, not a comparison). Score is safe for
// concurrent use.
func (s *Scorer) Score(h *dsl.Node, cutoff float64) (float64, bool) {
	return s.CompileSketch(h).Score(nil, cutoff)
}

// SegmentScore scores the handler against segment i alone, under the same
// contract as Score. Callers needing per-segment distances (Figure 4's
// per-segment breakdown) use this instead of re-preparing the segment.
// The compiled program is cached, so repeated calls with the same handler
// do not recompile.
func (s *Scorer) SegmentScore(h *dsl.Node, i int, cutoff float64) (float64, bool) {
	return s.CompileSketch(h).SegmentScore(nil, i, cutoff)
}

// CandidateOutcome is the provenance of one scored candidate: how each
// segment settled, which stage ended the computation, and the total DP cell
// cost. A caller-owned value is reused across candidates (Segments keeps
// its capacity); it is only valid until the next ScoreBatchDetail call
// with the same value.
type CandidateOutcome struct {
	// Distance and Exact restate the candidate's distance and exactness.
	Distance float64
	Exact    bool
	// Diverged reports the replay aborted on a non-finite window (the
	// distance is +Inf, exactly).
	Diverged bool
	// Stage is the cascade rung that settled the candidate: StageFull for
	// an exact score, the pruning stage otherwise. A candidate abandoned
	// because the cross-segment running total reached the cutoff reports
	// StageAbandon with Row 0.
	Stage dist.Stage
	// Segment is the index of the segment on which the candidate settled
	// (the last segment scored); Row is the DP row within it (see
	// dist.Outcome.Row).
	Segment int
	Row     int
	// Cells and Saved total the DP cell cost over all segments scored.
	Cells int
	Saved int
	// Segments holds the per-segment stage outcomes, one per segment
	// scored before settling.
	Segments []dist.Outcome
}

// reset clears the outcome for a new candidate, keeping Segments capacity.
func (co *CandidateOutcome) reset() {
	*co = CandidateOutcome{Segments: co.Segments[:0]}
}

// settle records the final value once scoring stops.
func (co *CandidateOutcome) settle(d float64, exact bool, stage dist.Stage, seg, row int) {
	co.Distance = d
	co.Exact = exact
	co.Stage = stage
	co.Segment = seg
	co.Row = row
}

// Score scores one completion of the sketch (vals in Bind order; nil for a
// bound expression) under the Scorer.Score contract: a one-lane
// ScoreBatchDetail.
func (cs *CompiledSketch) Score(vals []float64, cutoff float64) (float64, bool) {
	var d [1]float64
	var exact [1]bool
	cs.ScoreBatchDetail([][]float64{vals}, []float64{cutoff}, d[:], exact[:], nil)
	return d[0], exact[0]
}

// SegmentScore scores one completion against segment i alone, under the
// same contract as Score: the lane kernel's per-segment step for one lane.
func (cs *CompiledSketch) SegmentScore(vals []float64, i int, cutoff float64) (float64, bool) {
	sc := cs.s.pool.Get().(*batchScratch)
	defer cs.s.pool.Put(sc)
	ds, outs, _ := cs.segmentLanes(i, []int{0}, [][]float64{vals}, []float64{cutoff}, sc)
	return ds[0], outs[0].Exact()
}

// prologue returns segment i's hoisted output columns, computing them on
// first use. Every hit counted is a (sketch, segment) replay whose
// window-free arithmetic was skipped entirely.
func (cs *CompiledSketch) prologue(i int) *dsl.Prologue {
	e := cs.e
	e.mu.Lock()
	p := e.pros[i]
	if p == nil {
		p = e.prog.RunPrologue(cs.s.cols[i])
		e.pros[i] = p
		e.mu.Unlock()
		cProMisses.Load().Inc()
		cInstrs.Load().Add(int64(e.prog.PrologueLen()) * int64(cs.s.cols[i].N))
		return p
	}
	e.mu.Unlock()
	cProHits.Load().Inc()
	return p
}
