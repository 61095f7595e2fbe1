package replay

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/trace"
)

// boundSketches are the sketches FuzzScoreBatchBounds completes: a
// Reno-family increment, a two-hole affine window, and a division that
// diverges for a zero constant.
var boundSketches = []string{
	"cwnd + c1*reno-inc",
	"c1*cwnd + c2*mss",
	"cwnd + mss/c1",
}

// boundConsts is the pool lane constants are drawn from: the true Reno
// factor, near misses, runaways, zero, a negative and a NaN (which
// diverges on the first row).
var boundConsts = []float64{1, 0.5, 0.9, 1.1, 2, 0.1, 8, 0, -4, 1e6, math.NaN(), 0.25}

var (
	boundSegsOnce sync.Once
	boundSegs     []*trace.Segment
)

// fuzzSegments returns the Reno segments, simulated once per process.
func fuzzSegments(t *testing.T) []*trace.Segment {
	boundSegsOnce.Do(func() { boundSegs = renoSegments(t) })
	return boundSegs
}

// boundOracle is the reference total for one completion: the AST oracle
// replay measured with the metric's plain Distance, summed in segment
// order.
func boundOracle(t *testing.T, sk *dsl.Node, vals []float64, segs []*trace.Segment, m dist.Metric) float64 {
	t.Helper()
	h, err := sk.Bind(vals)
	if err != nil {
		t.Fatalf("Bind(%v): %v", vals, err)
	}
	return oracleTotal(h, segs, m)
}

// checkBoundLanes scores valsK under cutoffs at full width and one lane
// at a time, and checks every lane against the oracle: exact lanes equal
// it bit for bit; inexact lanes report a lower bound on it, and it is at
// least their cutoff; and both widths agree on every result and outcome.
func checkBoundLanes(t *testing.T, cs *CompiledSketch, sk *dsl.Node, segs []*trace.Segment, m dist.Metric, valsK [][]float64, cutoffs []float64) {
	t.Helper()
	k := len(valsK)
	ds := make([]float64, k)
	exacts := make([]bool, k)
	outs := make([]CandidateOutcome, k)
	cs.ScoreBatchDetail(valsK, cutoffs, ds, exacts, outs)
	var one CandidateOutcome
	for l := 0; l < k; l++ {
		want := boundOracle(t, sk, valsK[l], segs, m)
		if exacts[l] {
			if math.Float64bits(ds[l]) != math.Float64bits(want) {
				t.Fatalf("%s %v cutoff %v: exact %v != oracle %v", m.Name(), valsK[l], cutoffs[l], ds[l], want)
			}
		} else {
			if !(ds[l] <= want) {
				t.Fatalf("%s %v cutoff %v: bound %v above oracle %v", m.Name(), valsK[l], cutoffs[l], ds[l], want)
			}
			if !(want >= cutoffs[l]) {
				t.Fatalf("%s %v cutoff %v: settled early, but oracle %v is below the cutoff", m.Name(), valsK[l], cutoffs[l], want)
			}
		}
		d1, e1 := scoreOne(cs, valsK[l], cutoffs[l], &one)
		if math.Float64bits(d1) != math.Float64bits(ds[l]) || e1 != exacts[l] {
			t.Fatalf("%s %v cutoff %v: width 1 (%v,%v) != width %d (%v,%v)", m.Name(), valsK[l], cutoffs[l], d1, e1, k, ds[l], exacts[l])
		}
		if !reflect.DeepEqual(one, outs[l]) {
			t.Fatalf("%s %v cutoff %v: outcome\nwidth 1 %+v\nwidth %d %+v", m.Name(), valsK[l], cutoffs[l], one, k, outs[l])
		}
	}
}

// FuzzScoreBatchBounds drives the two-phase lane kernel with random
// completions of a few sketches, random segment subsets, every metric,
// and per-lane cutoffs that are +Inf, 0, or near the lane's true total —
// the region where a rounding slip in the bounds would show.
func FuzzScoreBatchBounds(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0xffff), uint64(0x0123456789abcdef), uint64(0x0202020202020202), int16(0))
	f.Add(uint8(1), uint8(0), uint16(0x0005), uint64(0xfedcba9876543210), uint64(0x0303030303030303), int16(-3))
	f.Add(uint8(2), uint8(1), uint16(0x00f0), uint64(0x1111222233334444), uint64(0x0102030401020304), int16(7))
	f.Add(uint8(0), uint8(2), uint16(0x0101), uint64(0x5555aaaa5555aaaa), uint64(0x0404040404040404), int16(1))
	f.Add(uint8(1), uint8(3), uint16(0x8001), uint64(0x0a0b0c0d0e0f0001), uint64(0x0501050105010501), int16(-1))
	f.Fuzz(func(t *testing.T, skIdx, mIdx uint8, mask uint16, constSeed, cutSeed uint64, nudge int16) {
		all := fuzzSegments(t)
		var segs []*trace.Segment
		for i, seg := range all {
			if mask&(1<<(i%16)) != 0 {
				segs = append(segs, seg)
			}
		}
		if len(segs) == 0 {
			segs = all[:1]
		}
		metrics := dist.Metrics()
		m := metrics[int(mIdx)%len(metrics)]
		sk := dsl.MustParse(boundSketches[int(skIdx)%len(boundSketches)])
		cs := NewScorer(segs, m).CompileSketch(sk)
		holes := sk.Holes()

		valsK := make([][]float64, Lanes)
		cutoffs := make([]float64, Lanes)
		seed := constSeed
		for l := range valsK {
			valsK[l] = make([]float64, holes)
			for h := range valsK[l] {
				valsK[l][h] = boundConsts[seed%uint64(len(boundConsts))]
				seed = seed*6364136223846793005 + 1442695040888963407
			}
			total := boundOracle(t, sk, valsK[l], segs, m)
			switch mode := (cutSeed >> (8 * l)) & 0xff; mode % 6 {
			case 0:
				cutoffs[l] = math.Inf(1)
			case 1:
				cutoffs[l] = 0
			case 2:
				// A few ulps either side of the true total.
				c := total
				for s := int(nudge) % 8; s != 0; {
					if s > 0 {
						c = math.Nextafter(c, math.Inf(1))
						s--
					} else {
						c = math.Nextafter(c, math.Inf(-1))
						s++
					}
				}
				cutoffs[l] = c
			case 3:
				cutoffs[l] = total * (1 + float64(nudge)*1e-6)
			default:
				cutoffs[l] = total * float64(mode) / 255
			}
		}
		checkBoundLanes(t, cs, sk, segs, m, valsK, cutoffs)
	})
}

// TestBoundSettlesMidSegment: a runaway handler under a tight cutoff is
// settled by the partial LB_Keogh bound inside the first segment — before
// the segment's last row — and the rows it never replayed are counted.
func TestBoundSettlesMidSegment(t *testing.T) {
	segs := renoSegments(t)
	reg := obs.New()
	Observe(reg)
	defer Observe(nil)
	sc := NewScorer(segs, dist.DTW{})
	sk := dsl.MustParse("cwnd + c1*reno-inc")
	cs := sc.CompileSketch(sk)
	vals := []float64{1e6}
	want := boundOracle(t, sk, vals, segs, dist.DTW{})
	cutoff := want * 1e-3
	var co CandidateOutcome
	d, exact := scoreOne(cs, vals, cutoff, &co)
	if exact || co.Stage != dist.StageLBKeogh || co.Segment != 0 {
		t.Fatalf("settle = (%v, exact %v, %v, segment %d), want a segment-0 lb_keogh settle", d, exact, co.Stage, co.Segment)
	}
	if n := len(segs[0].Samples); co.Row <= 0 || co.Row >= n {
		t.Fatalf("settled at row %d, want inside segment 0's %d rows", co.Row, n)
	}
	if !(d >= cutoff && d <= want) {
		t.Fatalf("bound %v outside [cutoff %v, total %v]", d, cutoff, want)
	}
	if co.Cells != 0 || len(co.Segments) != 1 {
		t.Fatalf("phase-1 settle ran the kernel: %+v", co)
	}
	rows := 0
	for _, seg := range segs {
		rows += len(seg.Samples)
	}
	if got := reg.Report().Counters["replay.rows_skipped"]; got != int64(rows-co.Row) {
		t.Errorf("rows_skipped = %d, want %d", got, rows-co.Row)
	}
	checkBoundLanes(t, cs, sk, segs, dist.DTW{}, [][]float64{vals}, []float64{cutoff})
}

// TestLaterBoundsAbandonEarlierSegment: a lane whose bounds stay under the
// cutoff reaches phase 2, and its first segment's exact distance alone is
// below the cutoff — so only the bounds of the later segments can settle
// it on segment 0.
func TestLaterBoundsAbandonEarlierSegment(t *testing.T) {
	segs := renoSegments(t)
	m := dist.DTW{}
	sc := NewScorer(segs, m)
	sk := dsl.MustParse("cwnd + c1*reno-inc")
	cs := sc.CompileSketch(sk)
	for _, c1 := range []float64{0.5, 0.25, 2, 0.1, 8} {
		vals := []float64{c1}
		h, err := sk.Bind(vals)
		if err != nil {
			t.Fatal(err)
		}
		// Per-segment exact distances and the phase-1 bounds.
		d0, _ := cs.SegmentScore(vals, 0, math.Inf(1))
		var sumB, restB float64
		for i, seg := range segs {
			synth, err := astSynthesize(h, seg)
			if err != nil {
				t.Fatal(err)
			}
			g := make([]float64, dist.ResampleN)
			sc.res[i].Into(synth.Values, g)
			p := sc.prepared[i]
			b := dist.GridBound(m, p, g, p.KeoghTerms(g, 0, dist.ResampleN, 0))
			sumB += b
			if i > 0 {
				restB += b
			}
		}
		// Put the cutoff above both the bound sum and d0, but below d0 plus
		// the later bounds.
		lo := math.Max(sumB, d0)
		cutoff := lo + (d0+restB-lo)/2
		if !(lo < cutoff*(1-1e-9) && d0+restB > cutoff*(1+1e-9)) {
			continue
		}
		reg := obs.New()
		Observe(reg)
		var co CandidateOutcome
		d, exact := scoreOne(cs, vals, cutoff, &co)
		Observe(nil)
		if exact || co.Segment != 0 || len(co.Segments) != 1 || co.Stage == dist.StageFull {
			t.Fatalf("c1=%v: settle = (%v, exact %v, %+v), want a settle on segment 0", c1, d, exact, co)
		}
		if skipped := reg.Report().Counters["replay.rows_skipped"]; skipped != 0 {
			t.Fatalf("c1=%v: phase 1 settled the lane (%d rows skipped), want phase 2", c1, skipped)
		}
		t.Logf("c1=%v: d0 %v, later bounds %v, cutoff %v: settled %v at %v row %d", c1, d0, restB, cutoff, d, co.Stage, co.Row)
		checkBoundLanes(t, cs, sk, segs, m, [][]float64{vals}, []float64{cutoff})
		return
	}
	t.Fatal("no completion leaves room between its bound sum and d0 plus the later bounds; the case tests nothing")
}
