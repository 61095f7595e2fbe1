package core

import (
	"repro/internal/dist"
	"repro/internal/replay"
)

// FunnelStage is one rung of the search's elimination funnel. The stages
// partition every enumerated candidate: a candidate is rejected at Bind,
// settled by the memo cache (as a canonical duplicate or by a dominating
// lower-bound entry), pruned by a metric lower bound, abandoned
// mid-computation, diverged during replay, or fully scored — exactly one
// of these per candidate, which is what makes the funnel reconcile.
type FunnelStage int

const (
	// FunnelRejected: the constant assignment failed to bind.
	FunnelRejected FunnelStage = iota
	// FunnelCanonicalDup: an exact memo entry settled the candidate — a
	// duplicate canonical handler already scored this iteration.
	FunnelCanonicalDup
	// FunnelCacheLB: a memoized lower bound >= the cutoff settled it.
	FunnelCacheLB
	// FunnelLBKim / FunnelLBKeogh: a metric lower bound pruned it before
	// any DP work.
	FunnelLBKim
	FunnelLBKeogh
	// FunnelAbandoned: the metric DP (or the cross-segment running sum)
	// abandoned it mid-computation.
	FunnelAbandoned
	// FunnelDiverged: the replay produced a non-finite window; the score
	// is exactly +Inf.
	FunnelDiverged
	// FunnelFullyScored: the full distance was computed.
	FunnelFullyScored

	// NumFunnelStages bounds FunnelStage values.
	NumFunnelStages
)

// String names the stage the way reports and /metrics render it.
func (s FunnelStage) String() string {
	switch s {
	case FunnelRejected:
		return "rejected"
	case FunnelCanonicalDup:
		return "canonical_dup"
	case FunnelCacheLB:
		return "cache_lb"
	case FunnelLBKim:
		return "lb_kim"
	case FunnelLBKeogh:
		return "lb_keogh"
	case FunnelAbandoned:
		return "abandoned"
	case FunnelDiverged:
		return "diverged"
	case FunnelFullyScored:
		return "fully_scored"
	}
	return "unknown"
}

// StageCost is one funnel stage's tally: how many candidates settled there
// and the DTW-cell cost attributed to them (cells the stage computed, cells
// its settling saved relative to full passes).
type StageCost struct {
	Candidates int   `json:"candidates"`
	Cells      int64 `json:"cells"`
	CellsSaved int64 `json:"cells_saved"`
}

// add folds another tally in.
func (c *StageCost) add(o StageCost) {
	c.Candidates += o.Candidates
	c.Cells += o.Cells
	c.CellsSaved += o.CellsSaved
}

// Funnel is the per-bucket (and, summed, per-run) elimination funnel:
// where enumerated candidates died and what the cascade's stages cost.
// NewBest counts candidates that improved their bucket's running best —
// it is an overlay, not a stage (a new best is also fully scored or a
// canonical dup).
type Funnel struct {
	// Enumerated counts candidates considered (completions attempted,
	// Bind failures included). It always equals the sum of the stage
	// candidate counts — see Reconciles.
	Enumerated int `json:"enumerated"`
	// Stages indexes StageCost by FunnelStage.
	Stages [NumFunnelStages]StageCost `json:"stages"`
	// NewBest counts candidates that improved the bucket-best running
	// minimum at the time they were scored.
	NewBest int `json:"new_best"`
}

// count tallies a candidate settled at stage with no metric work.
func (f *Funnel) count(stage FunnelStage) {
	f.Enumerated++
	f.Stages[stage].Candidates++
}

// observe tallies a scored candidate from its replay outcome.
func (f *Funnel) observe(co *replay.CandidateOutcome) {
	stage := FunnelFullyScored
	switch {
	case co.Diverged:
		stage = FunnelDiverged
	case co.Exact:
	default:
		switch co.Stage {
		case dist.StageLBKim:
			stage = FunnelLBKim
		case dist.StageLBKeogh:
			stage = FunnelLBKeogh
		default:
			stage = FunnelAbandoned
		}
	}
	f.Enumerated++
	c := &f.Stages[stage]
	c.Candidates++
	c.Cells += int64(co.Cells)
	c.CellsSaved += int64(co.Saved)
}

// Merge folds another funnel in. Merge is associative and commutative
// (every field is a sum), so scoring workers' partial funnels combine in
// any grouping or order.
func (f *Funnel) Merge(o Funnel) {
	f.Enumerated += o.Enumerated
	f.NewBest += o.NewBest
	for i := range f.Stages {
		f.Stages[i].add(o.Stages[i])
	}
}

// Pruned counts candidates settled inexactly — by a dominating cache
// entry, a lower bound, or abandonment. Equals BucketStats.Pruned.
func (f *Funnel) Pruned() int {
	return f.Stages[FunnelCacheLB].Candidates +
		f.Stages[FunnelLBKim].Candidates +
		f.Stages[FunnelLBKeogh].Candidates +
		f.Stages[FunnelAbandoned].Candidates
}

// Reconciles reports the funnel's accounting invariant: every enumerated
// candidate settled in exactly one stage.
func (f *Funnel) Reconciles() bool {
	sum := 0
	for i := range f.Stages {
		sum += f.Stages[i].Candidates
	}
	return sum == f.Enumerated
}

// FunnelStageReport is one stage row of a rendered funnel, with the share
// of enumerated candidates that settled there.
type FunnelStageReport struct {
	Stage      string  `json:"stage"`
	Candidates int     `json:"candidates"`
	Share      float64 `json:"share"`
	Cells      int64   `json:"cells"`
	CellsSaved int64   `json:"cells_saved"`
}

// FunnelReport is the JSON shape of one funnel (stage rows in cascade
// order), used by the run report, /runs/{name}/funnel, and funneldiff.
type FunnelReport struct {
	Enumerated int                 `json:"enumerated"`
	NewBest    int                 `json:"new_best"`
	Stages     []FunnelStageReport `json:"stages"`
}

// Report renders the funnel.
func (f *Funnel) Report() FunnelReport {
	rep := FunnelReport{
		Enumerated: f.Enumerated,
		NewBest:    f.NewBest,
		Stages:     make([]FunnelStageReport, NumFunnelStages),
	}
	for i := range f.Stages {
		c := f.Stages[i]
		share := 0.0
		if f.Enumerated > 0 {
			share = float64(c.Candidates) / float64(f.Enumerated)
		}
		rep.Stages[i] = FunnelStageReport{
			Stage:      FunnelStage(i).String(),
			Candidates: c.Candidates,
			Share:      share,
			Cells:      c.Cells,
			CellsSaved: c.CellsSaved,
		}
	}
	return rep
}

// BucketFunnelReport is one bucket's funnel in a RunFunnelReport.
type BucketFunnelReport struct {
	Ops    string       `json:"ops"`
	Funnel FunnelReport `json:"funnel"`
}

// RunFunnelReport is the run-level provenance summary: the aggregate
// funnel, per-bucket funnels (best-first), and the winning handler. It is
// the "core.funnel" obs record, the /runs/{name}/funnel payload, and
// funneldiff's input.
type RunFunnelReport struct {
	Run      string               `json:"run,omitempty"`
	Handler  string               `json:"handler,omitempty"`
	Distance ReportFloat          `json:"distance"`
	Total    FunnelReport         `json:"total"`
	Buckets  []BucketFunnelReport `json:"buckets"`
}

// NewRunFunnelReport assembles a RunFunnelReport from final search stats —
// the CLI's -funnel output, equivalent to the run's "core.funnel" obs
// record (Stats.Buckets are already best-first and carry their funnels).
func NewRunFunnelReport(run, handler string, distance float64, s SearchStats) RunFunnelReport {
	rep := RunFunnelReport{
		Run:      run,
		Handler:  handler,
		Distance: ReportFloat(distance),
		Total:    s.Funnel.Report(),
		Buckets:  make([]BucketFunnelReport, len(s.Buckets)),
	}
	for i, b := range s.Buckets {
		rep.Buckets[i] = BucketFunnelReport{Ops: b.Ops.String(), Funnel: b.Funnel.Report()}
	}
	return rep
}

// funnelCounterNames maps each stage to its registry counter, resolved
// once per run (bulk-added per bucket-worker per iteration so the scoring
// hot path never touches an atomic per candidate).
func funnelCounterName(s FunnelStage) string {
	return "core.funnel_" + s.String()
}
