package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/replay"
)

// randFunnel fills a funnel with bounded random tallies.
func randFunnel(rng *rand.Rand) Funnel {
	var f Funnel
	for i := range f.Stages {
		f.Stages[i] = StageCost{
			Candidates: rng.Intn(1000),
			Cells:      int64(rng.Intn(100000)),
			CellsSaved: int64(rng.Intn(100000)),
		}
		f.Enumerated += f.Stages[i].Candidates
	}
	f.NewBest = rng.Intn(50)
	return f
}

// TestFunnelMergeAssociativeCommutative pins the algebra sharded workers
// rely on: partial funnels can be combined in any grouping or order.
func TestFunnelMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a, b, c := randFunnel(rng), randFunnel(rng), randFunnel(rng)

		// (a+b)+c == a+(b+c)
		left := a
		left.Merge(b)
		left.Merge(c)
		bc := b
		bc.Merge(c)
		right := a
		right.Merge(bc)
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("trial %d: Merge not associative:\n(a+b)+c = %+v\na+(b+c) = %+v", trial, left, right)
		}

		// a+b == b+a
		ab := a
		ab.Merge(b)
		ba := b
		ba.Merge(a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("trial %d: Merge not commutative:\na+b = %+v\nb+a = %+v", trial, ab, ba)
		}
	}
}

// TestFunnelMergeIdentity: merging a zero funnel changes nothing, and a
// merge of reconciling funnels reconciles.
func TestFunnelMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := randFunnel(rng)
	got := f
	got.Merge(Funnel{})
	if !reflect.DeepEqual(got, f) {
		t.Errorf("zero merge changed the funnel: %+v != %+v", got, f)
	}
	g := randFunnel(rng)
	if !f.Reconciles() || !g.Reconciles() {
		t.Fatal("randFunnel should reconcile by construction")
	}
	f.Merge(g)
	if !f.Reconciles() {
		t.Errorf("merge of reconciling funnels does not reconcile: %+v", f)
	}
}

// TestFunnelCountObservePruned exercises the tallying paths directly:
// count and observe keep the partition invariant, and Pruned matches the
// inexact stages.
func TestFunnelCountObservePruned(t *testing.T) {
	var f Funnel
	f.count(FunnelRejected)
	f.count(FunnelCanonicalDup)
	f.count(FunnelCacheLB)
	f.observe(&replay.CandidateOutcome{Exact: true, Cells: 100})
	f.observe(&replay.CandidateOutcome{Diverged: true})
	f.observe(&replay.CandidateOutcome{Stage: 1, Saved: 500}) // dist.StageLBKim
	f.observe(&replay.CandidateOutcome{Stage: 3, Cells: 40, Saved: 60})
	if f.Enumerated != 7 {
		t.Errorf("Enumerated = %d, want 7", f.Enumerated)
	}
	if !f.Reconciles() {
		t.Errorf("funnel does not reconcile: %+v", f)
	}
	if got := f.Pruned(); got != 3 { // cache_lb + lb_kim + abandoned
		t.Errorf("Pruned = %d, want 3", got)
	}
	if f.Stages[FunnelFullyScored].Cells != 100 {
		t.Errorf("fully-scored cells = %d, want 100", f.Stages[FunnelFullyScored].Cells)
	}
	if f.Stages[FunnelLBKim].CellsSaved != 500 {
		t.Errorf("lb_kim cells saved = %d, want 500", f.Stages[FunnelLBKim].CellsSaved)
	}
}

// TestFunnelReportShares: Report renders one row per stage with shares
// summing to 1 for a reconciling funnel.
func TestFunnelReportShares(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randFunnel(rng)
	rep := f.Report()
	if len(rep.Stages) != int(NumFunnelStages) {
		t.Fatalf("report has %d stages, want %d", len(rep.Stages), NumFunnelStages)
	}
	sum := 0.0
	for _, s := range rep.Stages {
		sum += s.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("stage shares sum to %v, want 1", sum)
	}
}

// TestRunFunnelReconciles drives real searches in both scoring modes and
// checks the acceptance invariant end to end: per-bucket stage counts sum
// to candidates considered, the run funnel is the bucket sum, and the
// report builder agrees with the stats.
func TestRunFunnelReconciles(t *testing.T) {
	segs := segmentsFor(t, "reno")
	for _, exact := range []bool{false, true} {
		opts := quickOpts(dsl.Reno())
		opts.ExactScoring = exact
		res, err := Synthesize(context.Background(), segs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Funnel.Enumerated == 0 {
			t.Fatalf("exact=%v: empty run funnel", exact)
		}
		if !res.Stats.Funnel.Reconciles() {
			t.Errorf("exact=%v: run funnel does not reconcile: %+v", exact, res.Stats.Funnel)
		}
		var sum Funnel
		for _, b := range res.Stats.Buckets {
			if !b.Funnel.Reconciles() {
				t.Errorf("exact=%v: bucket %v does not reconcile: %+v", exact, b.Ops, b.Funnel)
			}
			sum.Merge(b.Funnel)
		}
		if !reflect.DeepEqual(sum, res.Stats.Funnel) {
			t.Errorf("exact=%v: run funnel != sum of bucket funnels:\nrun: %+v\nsum: %+v",
				exact, res.Stats.Funnel, sum)
		}
		if exact {
			if p := res.Stats.Funnel.Pruned(); p != 0 {
				t.Errorf("exact scoring pruned %d candidates", p)
			}
		}
		rep := NewRunFunnelReport("t", res.Handler.String(), res.Distance, res.Stats)
		if rep.Total.Enumerated != res.Stats.Funnel.Enumerated {
			t.Errorf("report enumerated %d != stats %d", rep.Total.Enumerated, res.Stats.Funnel.Enumerated)
		}
		if len(rep.Buckets) != len(res.Stats.Buckets) {
			t.Errorf("report has %d buckets, stats %d", len(rep.Buckets), len(res.Stats.Buckets))
		}
	}
}

// TestSynthesizeLedger: a run with a ledger samples real candidates,
// deterministically for a fixed seed.
func TestSynthesizeLedger(t *testing.T) {
	segs := segmentsFor(t, "reno")
	run := func() []replay.LedgerEntry {
		opts := quickOpts(dsl.Reno())
		opts.Ledger = replay.NewLedger(64, opts.Seed)
		if _, err := Synthesize(context.Background(), segs, opts); err != nil {
			t.Fatal(err)
		}
		return opts.Ledger.Entries()
	}
	a := run()
	b := run()
	if len(a) == 0 {
		t.Fatal("ledger sampled no candidates")
	}
	if len(a) > 64 {
		t.Fatalf("ledger overflowed its capacity: %d", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("ledger not deterministic across identical runs:\na: %+v\nb: %+v", a[:3], b[:3])
	}
	for _, e := range a {
		if e.Sketch == "" || e.Handler == "" || e.Stage == "" {
			t.Fatalf("incomplete ledger entry: %+v", e)
		}
	}
}
