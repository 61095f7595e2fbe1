package replay

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dsl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// renoSegments builds real trace segments from a Reno simulation.
func renoSegments(t *testing.T) []*trace.Segment {
	t.Helper()
	res, err := sim.Run(sim.Config{
		CCA:       "reno",
		Bandwidth: 10e6 / 8,
		RTT:       40 * time.Millisecond,
		Duration:  30 * time.Second,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.AnalyzeRecords(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	segs := tr.Split(16)
	if len(segs) < 2 {
		t.Fatalf("only %d segments", len(segs))
	}
	return segs
}

func TestSynthesizeRenoHandlerTracksTrace(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd + reno-inc")
	sc := NewScorer(segs, dist.DTW{})
	// The true-family handler should be close; an absurd handler far.
	good, _ := sc.Score(h, math.Inf(1))
	bad, _ := sc.Score(dsl.MustParse("mss"), math.Inf(1))
	if !(good < bad) {
		t.Errorf("reno handler distance %.2f not below constant-window distance %.2f", good, bad)
	}
	crazy, _ := sc.Score(dsl.MustParse("cwnd + cwnd"), math.Inf(1))
	if !(good < crazy) {
		t.Errorf("reno handler distance %.2f not below doubling handler %.2f", good, crazy)
	}
}

func TestSynthesizeSeriesShape(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd + 0.7*reno-inc")
	s, err := Synthesize(h, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(segs[0].Samples) {
		t.Fatalf("series length %d != %d samples", s.Len(), len(segs[0].Samples))
	}
	// Reno-style growth: values non-decreasing within a loss-free segment.
	for i := 1; i < s.Len(); i++ {
		if s.Values[i] < s.Values[i-1]-1e-9 {
			t.Fatalf("reno replay decreased at %d: %v -> %v", i, s.Values[i-1], s.Values[i])
		}
	}
}

func TestSynthesizeStartsFromObservedWindow(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd") // identity handler holds the initial window
	s, err := Synthesize(h, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := segs[0].Samples[0].Cwnd / segs[0].MSS
	for _, v := range s.Values {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("identity handler drifted: %v vs %v", v, want)
		}
	}
}

func TestDivergingHandler(t *testing.T) {
	segs := renoSegments(t)
	// acked - acked = 0 in the denominator: immediate division blowup.
	h := dsl.MustParse("cwnd/(acked - acked)")
	if _, err := Synthesize(h, segs[0]); err == nil {
		t.Error("divide-by-zero handler did not diverge")
	}
	sc := NewScorer(segs, dist.DTW{})
	if d, _ := sc.SegmentScore(h, 0, math.Inf(1)); !math.IsInf(d, 1) {
		t.Errorf("diverging handler distance = %v, want +Inf", d)
	}
	if d, _ := sc.Score(h, math.Inf(1)); !math.IsInf(d, 1) {
		t.Errorf("diverging handler total = %v, want +Inf", d)
	}
}

func TestClampPreventsExplosion(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd*cwnd/mss") // super-exponential growth
	s, err := Synthesize(h, segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Values {
		if v > maxCwndPkts || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("clamp failed: %v", v)
		}
	}
}

func TestEnvsFallBackRTT(t *testing.T) {
	seg := &trace.Segment{MSS: 1448, Samples: []trace.Sample{
		{Time: 0, Cwnd: 2 * 1448, Acked: 1448, MinRTT: 40 * time.Millisecond},
	}}
	envs := Envs(seg)
	if envs[0].RTT != 0.040 {
		t.Errorf("zero RTT not backfilled from MinRTT: %v", envs[0].RTT)
	}
}

// TestEnvsFallBackSegmentMinRTT: on the first samples of a capture even
// MinRTT can still be zero; the fallback chain must reach the segment-wide
// minimum so rtts-since-loss does not divide by zero and spuriously
// diverge a handler.
func TestEnvsFallBackSegmentMinRTT(t *testing.T) {
	seg := &trace.Segment{MSS: 1448, Samples: []trace.Sample{
		{Time: 0, Cwnd: 2 * 1448, Acked: 1448, TimeSinceLoss: time.Second},
		{Time: time.Millisecond, Cwnd: 2 * 1448, Acked: 1448, RTT: 50 * time.Millisecond,
			MinRTT: 40 * time.Millisecond, TimeSinceLoss: time.Second},
	}}
	envs := Envs(seg)
	if envs[0].RTT != 0.040 {
		t.Errorf("RTT-less first sample = %v, want segment minimum 0.040", envs[0].RTT)
	}
	h := dsl.MustParse("cwnd + mss*rtts-since-loss")
	if _, err := Synthesize(h, seg); err != nil {
		t.Errorf("rtts-since-loss diverged on RTT-less first sample: %v", err)
	}
	// The columnar layout must see the same fallback.
	cols := NewCols(seg)
	for i := range seg.Samples {
		if cols.Sig[dsl.SigRTT][i] != envs[i].RTT {
			t.Errorf("cols RTT[%d] = %v != env RTT %v", i, cols.Sig[dsl.SigRTT][i], envs[i].RTT)
		}
	}
}

func TestBetterConstantScoresBetter(t *testing.T) {
	// On a Reno trace, the handler with Reno's true increment (1.0x)
	// should beat a far-off constant (0.1x) — the property Figure 3's
	// constant-error sweep relies on.
	segs := renoSegments(t)
	sc := NewScorer(segs, dist.DTW{})
	right, _ := sc.Score(dsl.MustParse("cwnd + reno-inc"), math.Inf(1))
	wrong, _ := sc.Score(dsl.MustParse("cwnd + 0.1*reno-inc"), math.Inf(1))
	if !(right < wrong) {
		t.Errorf("true constant %.2f not better than 0.1x %.2f", right, wrong)
	}
}

func TestClosedLoopRenoTracksTrace(t *testing.T) {
	segs := renoSegments(t)
	m := dist.DTW{}
	good := ClosedLoopTotalDistance(dsl.MustParse("cwnd + reno-inc"), segs, m)
	bad := ClosedLoopTotalDistance(dsl.MustParse("cwnd + cwnd"), segs, m)
	if !(good < bad) {
		t.Errorf("closed-loop reno %.2f not better than doubling %.2f", good, bad)
	}
}

func TestClosedLoopAckClocking(t *testing.T) {
	// A handler holding a window half the observed one must see roughly
	// half the acked bytes per step under closed-loop replay; its Reno
	// growth is therefore slower than under open-loop replay.
	segs := renoSegments(t)
	seg := segs[0]
	h := dsl.MustParse("cwnd + 2*reno-inc")
	open, err := Synthesize(h, seg)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := SynthesizeClosedLoop(h, seg)
	if err != nil {
		t.Fatal(err)
	}
	if open.Len() != closed.Len() {
		t.Fatal("length mismatch")
	}
	// Both replays start at the same window.
	if open.Values[0] != closed.Values[0] {
		t.Errorf("starting windows differ: %v vs %v", open.Values[0], closed.Values[0])
	}
}

func TestClosedLoopDivergenceHandling(t *testing.T) {
	segs := renoSegments(t)
	h := dsl.MustParse("cwnd/(acked - acked)")
	if d := ClosedLoopDistance(h, segs[0], dist.DTW{}); !math.IsInf(d, 1) {
		t.Errorf("diverging handler closed-loop distance = %v", d)
	}
}

func TestClosedLoopIdentityHolds(t *testing.T) {
	segs := renoSegments(t)
	s, err := SynthesizeClosedLoop(dsl.Cwnd(), segs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := s.Values[0]
	for _, v := range s.Values {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("identity handler drifted under closed loop")
		}
	}
}

func TestClosedLoopCannotOutpaceBottleneck(t *testing.T) {
	// Even an aggressive handler's ack-clocked deliveries are bounded by
	// the observed per-step acked bytes; its window growth per step is
	// therefore bounded by the open-loop replay of the same handler.
	segs := renoSegments(t)
	seg := segs[0]
	h := dsl.MustParse("cwnd + 2*reno-inc")
	open, _ := Synthesize(h, seg)
	closed, _ := SynthesizeClosedLoop(h, seg)
	for i := range open.Values {
		if closed.Values[i] > open.Values[i]+1e-9 {
			t.Fatalf("closed-loop exceeded open-loop at %d: %v > %v", i, closed.Values[i], open.Values[i])
		}
	}
}

// astSynthesize is the oracle Synthesize is pinned against: the handler's
// AST (Node.Eval) replayed over Envs, starting from the first observed
// window raised to one MSS, with replay's Min/Max clamp and divergence
// rule.
func astSynthesize(h *dsl.Node, seg *trace.Segment) (dist.Series, error) {
	envs := Envs(seg)
	s := dist.Series{
		Times:  make([]float64, len(envs)),
		Values: make([]float64, len(envs)),
	}
	mss := seg.MSS
	cwnd := seg.Samples[0].Cwnd
	if cwnd < mss {
		cwnd = mss
	}
	for i := range envs {
		env := envs[i]
		env.Cwnd = cwnd
		v, err := h.Eval(&env)
		if err != nil {
			return dist.Series{}, ErrDiverged
		}
		cwnd = math.Min(math.Max(v, minCwndPkts*mss), maxCwndPkts*mss)
		s.Times[i] = seg.Samples[i].Time.Seconds()
		s.Values[i] = cwnd / mss
	}
	return s, nil
}

// synthCase is one Synthesize-vs-oracle case; check, when set, asserts
// what the case is there to exercise, so agreement cannot be vacuous.
type synthCase struct {
	name    string
	handler string
	seg     *trace.Segment
	check   func(t *testing.T, s dist.Series, err error)
}

// handSegment builds a segment of n samples 1 ms apart with the given RTT
// fields (0 leaves a sample without an RTT measurement).
func handSegment(n int, cwnd0 float64, rtt, minRTT func(i int) time.Duration) *trace.Segment {
	seg := &trace.Segment{MSS: 1448}
	for i := 0; i < n; i++ {
		seg.Samples = append(seg.Samples, trace.Sample{
			Time:          time.Duration(i) * time.Millisecond,
			Cwnd:          cwnd0,
			Acked:         1448,
			RTT:           rtt(i),
			MinRTT:        minRTT(i),
			TimeSinceLoss: time.Second + time.Duration(i)*time.Millisecond,
			AckRate:       1e6,
		})
	}
	return seg
}

// TestSynthesizeMatchesASTOracle pins Synthesize, which runs on the
// register VM, to the AST oracle bit for bit — Times, Values and the
// divergence error — on real segments and on hand-built ones that reach
// the clamp bounds, the RTT fallback chain, divergence, and a first
// window below one MSS.
func TestSynthesizeMatchesASTOracle(t *testing.T) {
	segs := renoSegments(t)
	ms := func(v int) func(int) time.Duration {
		return func(int) time.Duration { return time.Duration(v) * time.Millisecond }
	}
	hitsValue := func(want float64) func(*testing.T, dist.Series, error) {
		return func(t *testing.T, s dist.Series, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range s.Values {
				if v == want {
					return
				}
			}
			t.Errorf("series never reaches %v: %v", want, s.Values)
		}
	}
	// firstValues checks the leading rows of a series exactly; the RTT
	// cases use handlers whose increment is exactly one MSS only when the
	// fallback chain hands them the intended RTT.
	firstValues := func(want ...float64) func(*testing.T, dist.Series, error) {
		return func(t *testing.T, s dist.Series, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if s.Values[i] != w {
					t.Errorf("row %d = %v, want %v (series %v)", i, s.Values[i], w, s.Values)
				}
			}
		}
	}
	cases := []synthCase{
		{name: "diverges", handler: "cwnd/(acked - acked)", seg: segs[0],
			check: func(t *testing.T, _ dist.Series, err error) {
				if !errors.Is(err, ErrDiverged) {
					t.Errorf("error = %v, want ErrDiverged", err)
				}
			}},
		{name: "clamps at minCwndPkts", handler: "cwnd - 4*mss", seg: segs[0],
			check: hitsValue(minCwndPkts)},
		{name: "clamps at maxCwndPkts", handler: "cwnd*cwnd", seg: segs[0],
			check: hitsValue(maxCwndPkts)},
		// No sample has an RTT and each row's MinRTT differs from the
		// segment minimum (40 ms), so rtt/min-rtt is exactly 1 only if
		// every row falls back to its own MinRTT.
		{name: "RTT falls back to MinRTT", handler: "cwnd + mss*(rtt/min-rtt)",
			seg: handSegment(6, 10*1448, ms(0), func(i int) time.Duration {
				return time.Duration(40+i) * time.Millisecond
			}),
			check: firstValues(11, 12, 13, 14, 15, 16)},
		// The first three rows carry neither RTT nor MinRTT; the segment
		// minimum over RTT and MinRTT is 40 ms (not the 50 ms smallest
		// RTT), so those rows add exactly one MSS each.
		{name: "RTT falls back to the segment minimum", handler: "cwnd + mss*(0.04/rtt)",
			seg: handSegment(6, 10*1448, func(i int) time.Duration {
				if i < 3 {
					return 0
				}
				return 50 * time.Millisecond
			}, func(i int) time.Duration {
				if i < 3 {
					return 0
				}
				return 40 * time.Millisecond
			}),
			check: firstValues(11, 12, 13)},
		{name: "first window below MSS", handler: "cwnd",
			seg: handSegment(4, 700, ms(40), ms(40)),
			check: func(t *testing.T, s dist.Series, err error) {
				if err != nil || s.Values[0] != 1 {
					t.Errorf("identity from a sub-MSS window = %v, %v; want 1 MSS", s.Values, err)
				}
			}},
	}
	for _, src := range scorerHandlers {
		for i, seg := range segs[:2] {
			cases = append(cases, synthCase{name: src + " segment " + string(rune('0'+i)), handler: src, seg: seg})
		}
	}
	for _, c := range cases {
		h := dsl.MustParse(c.handler)
		got, err := Synthesize(h, c.seg)
		want, werr := astSynthesize(h, c.seg)
		if !errors.Is(err, werr) && err != werr {
			t.Errorf("%s: error %v, oracle %v", c.name, err, werr)
			continue
		}
		if len(got.Times) != len(want.Times) || len(got.Values) != len(want.Values) {
			t.Errorf("%s: lengths %d/%d, oracle %d/%d", c.name, len(got.Times), len(got.Values), len(want.Times), len(want.Values))
			continue
		}
		for i := range want.Values {
			if math.Float64bits(got.Times[i]) != math.Float64bits(want.Times[i]) ||
				math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Errorf("%s row %d: (%v, %v), oracle (%v, %v)", c.name, i,
					got.Times[i], got.Values[i], want.Times[i], want.Values[i])
				break
			}
		}
		if c.check != nil {
			t.Run(c.name, func(t *testing.T) { c.check(t, got, err) })
		}
	}
}
