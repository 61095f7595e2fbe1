package replay

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
)

// batchLaneCases is a lane mix covering every settle path: the true
// handler family (exact full score), slow/fast constants (abandon at
// different stages under tight cutoffs), zero and negative factors, and a
// NaN constant (diverges on the first row).
var batchLaneCases = [][]float64{
	{1}, {0.5}, {0.1}, {0}, {-4}, {math.NaN()}, {8}, {0.25}, {1e6}, {2},
}

// TestScoreBatchDetailMatchesScalar is the scorer-level width oracle: for
// every metric, lane width, and cutoff regime, each lane of
// ScoreBatchDetail — value, exactness flag, and full CandidateOutcome —
// must equal a one-lane ScoreBatchDetail of the same completion bit for
// bit.
func TestScoreBatchDetailMatchesScalar(t *testing.T) {
	segs := renoSegments(t)
	sk := dsl.MustParse("cwnd + c1*reno-inc")
	for _, m := range dist.Metrics() {
		sc := NewScorer(segs, m)
		cs := sc.CompileSketch(sk)
		exact, _ := cs.Score([]float64{1}, math.Inf(1))
		for _, k := range []int{1, 3, Lanes, len(batchLaneCases)} {
			valsK := batchLaneCases[:k]
			for _, cutoff := range []float64{math.Inf(1), exact * 4, exact * 1.0001, exact, exact / 2, 0} {
				cutoffs := make([]float64, k)
				for l := range cutoffs {
					// Stagger per-lane cutoffs so lanes settle on different
					// segments within one batch.
					cutoffs[l] = cutoff * (1 + 0.3*float64(l%3))
				}
				ds := make([]float64, k)
				exacts := make([]bool, k)
				outs := make([]CandidateOutcome, k)
				cs.ScoreBatchDetail(valsK, cutoffs, ds, exacts, outs)
				var want CandidateOutcome
				for l := 0; l < k; l++ {
					wd, we := scoreOne(cs, valsK[l], cutoffs[l], &want)
					if math.Float64bits(ds[l]) != math.Float64bits(wd) || exacts[l] != we {
						t.Fatalf("%s k=%d cutoff=%v lane %d: batch (%v,%v) != scalar (%v,%v)",
							m.Name(), k, cutoffs[l], l, ds[l], exacts[l], wd, we)
					}
					if !reflect.DeepEqual(outs[l], want) {
						t.Fatalf("%s k=%d cutoff=%v lane %d: outcome\nbatch  %+v\nscalar %+v",
							m.Name(), k, cutoffs[l], l, outs[l], want)
					}
				}
			}
		}
	}
}

// TestScoreBatchNilOutcomes: the provenance-free entry point returns the
// same values as the detailed one.
func TestScoreBatchNilOutcomes(t *testing.T) {
	segs := renoSegments(t)
	cs := NewScorer(segs, dist.DTW{}).CompileSketch(dsl.MustParse("cwnd + c1*reno-inc"))
	k := Lanes
	cutoffs := make([]float64, k)
	for l := range cutoffs {
		cutoffs[l] = math.Inf(1)
	}
	ds1 := make([]float64, k)
	ex1 := make([]bool, k)
	cs.ScoreBatch(batchLaneCases[:k], cutoffs, ds1, ex1)
	ds2 := make([]float64, k)
	ex2 := make([]bool, k)
	outs := make([]CandidateOutcome, k)
	cs.ScoreBatchDetail(batchLaneCases[:k], cutoffs, ds2, ex2, outs)
	for l := 0; l < k; l++ {
		if math.Float64bits(ds1[l]) != math.Float64bits(ds2[l]) || ex1[l] != ex2[l] {
			t.Fatalf("lane %d: ScoreBatch (%v,%v) != ScoreBatchDetail (%v,%v)", l, ds1[l], ex1[l], ds2[l], ex2[l])
		}
	}
}

// TestScoreBatchLedgerMatchesScalar: a ledger fed by batched scoring must
// dump byte-identical JSONL to one fed by one-lane scoring of the same
// candidates — the sample is a pure function of the candidate set.
func TestScoreBatchLedgerMatchesScalar(t *testing.T) {
	segs := renoSegments(t)
	sk := dsl.MustParse("cwnd + c1*reno-inc")
	// No NaN lane here: a NaN constant cannot be rendered in the JSONL
	// Consts field (and the search never emits one from its finite pools).
	laneCases := [][]float64{{1}, {0.5}, {0.1}, {0}, {-4}, {8}, {0.25}, {1e6}, {2}}
	dump := func(batch bool) []byte {
		led := NewLedger(64, 7)
		sc := NewScorer(segs, dist.DTW{}).WithLedger(led, 99)
		cs := sc.CompileSketch(sk)
		k := len(laneCases)
		cutoffs := make([]float64, k)
		for l := range cutoffs {
			cutoffs[l] = 50
		}
		if batch {
			ds := make([]float64, k)
			exacts := make([]bool, k)
			outs := make([]CandidateOutcome, k)
			cs.ScoreBatchDetail(laneCases, cutoffs, ds, exacts, outs)
		} else {
			var co CandidateOutcome
			for l := 0; l < k; l++ {
				scoreOne(cs, laneCases[l], cutoffs[l], &co)
			}
		}
		var buf bytes.Buffer
		if err := led.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	scalar, batched := dump(false), dump(true)
	if len(scalar) == 0 {
		t.Fatal("scalar ledger dump is empty")
	}
	if !bytes.Equal(scalar, batched) {
		t.Errorf("ledger dumps differ:\nscalar:\n%s\nbatch:\n%s", scalar, batched)
	}
}

// TestScoreBatchCounters pins the occupancy instruments: one batch call
// with k lanes is one batches_executed and k lanes_filled.
func TestScoreBatchCounters(t *testing.T) {
	segs := renoSegments(t)
	reg := obs.New()
	Observe(reg)
	defer Observe(nil)
	cs := NewScorer(segs, dist.DTW{}).CompileSketch(dsl.MustParse("cwnd + c1*reno-inc"))
	cutoffs := []float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	ds := make([]float64, 3)
	exacts := make([]bool, 3)
	cs.ScoreBatchDetail(batchLaneCases[:3], cutoffs, ds, exacts, nil)
	cs.ScoreBatchDetail(batchLaneCases[:2], cutoffs[:2], ds[:2], exacts[:2], nil)
	rep := reg.Report()
	if got := rep.Counters["replay.batches_executed"]; got != 2 {
		t.Errorf("batches_executed = %d, want 2", got)
	}
	if got := rep.Counters["replay.lanes_filled"]; got != 5 {
		t.Errorf("lanes_filled = %d, want 5", got)
	}
}

// TestScoreBatchSteadyStateAllocs: after warmup, batched scoring must not
// allocate — the slab-reuse promise of the pooled batch scratch.
func TestScoreBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool bypass its caches, so the zero-alloc steady state is not observable")
	}
	segs := renoSegments(t)
	cs := NewScorer(segs, dist.DTW{}).CompileSketch(dsl.MustParse("cwnd + c1*reno-inc"))
	k := Lanes
	valsK := batchLaneCases[:k]
	cutoffs := make([]float64, k)
	for l := range cutoffs {
		cutoffs[l] = math.Inf(1)
	}
	ds := make([]float64, k)
	exacts := make([]bool, k)
	outs := make([]CandidateOutcome, k)
	cs.ScoreBatchDetail(valsK, cutoffs, ds, exacts, outs) // warm the scratch pool
	avg := testing.AllocsPerRun(20, func() {
		cs.ScoreBatchDetail(valsK, cutoffs, ds, exacts, outs)
	})
	if avg > 0 {
		t.Errorf("steady-state ScoreBatchDetail allocates %.1f/op, want 0", avg)
	}
}
