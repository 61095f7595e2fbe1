package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ramp builds a series v(t) = slope*t + off over [0, 10) with n points.
func ramp(n int, slope, off float64) Series {
	s := Series{Times: make([]float64, n), Values: make([]float64, n)}
	for i := 0; i < n; i++ {
		t := 10 * float64(i) / float64(n)
		s.Times[i] = t
		s.Values[i] = slope*t + off
	}
	return s
}

// sawtooth builds an AIMD-like pattern with the given phase offset.
func sawtooth(n int, period, phase float64) Series {
	s := Series{Times: make([]float64, n), Values: make([]float64, n)}
	for i := 0; i < n; i++ {
		t := 10 * float64(i) / float64(n)
		s.Times[i] = t
		frac := math.Mod(t+phase, period) / period
		s.Values[i] = 10 + 10*frac
	}
	return s
}

func TestIdentityDistanceIsZero(t *testing.T) {
	s := sawtooth(300, 2, 0)
	for _, m := range Metrics() {
		if d := m.Distance(s, s); d != 0 {
			t.Errorf("%s(s, s) = %v, want 0", m.Name(), d)
		}
	}
}

func TestSymmetry(t *testing.T) {
	a, b := sawtooth(300, 2, 0), ramp(250, 1.5, 3)
	for _, m := range Metrics() {
		d1, d2 := m.Distance(a, b), m.Distance(b, a)
		if math.Abs(d1-d2) > 1e-9 {
			t.Errorf("%s not symmetric: %v vs %v", m.Name(), d1, d2)
		}
	}
}

func TestDistanceGrowsWithSeparation(t *testing.T) {
	base := ramp(200, 1, 0)
	for _, m := range Metrics() {
		d1 := m.Distance(base, ramp(200, 1, 1))
		d5 := m.Distance(base, ramp(200, 1, 5))
		if !(d5 > d1) {
			t.Errorf("%s: offset-5 (%v) not further than offset-1 (%v)", m.Name(), d5, d1)
		}
	}
}

func TestDTWToleratesPhaseShiftBetterThanEuclidean(t *testing.T) {
	// Identical sawtooths, quarter-period out of phase: DTW can re-align,
	// Euclidean cannot.
	a := sawtooth(400, 2, 0)
	b := sawtooth(400, 2, 0.5)
	dtwD := DTW{}.Distance(a, b)
	eucD := Euclidean{}.Distance(a, b)
	if !(dtwD < eucD/2) {
		t.Errorf("DTW (%v) not clearly smaller than Euclidean (%v) under phase shift", dtwD, eucD)
	}
}

func TestDTWBandWideningNeverIncreasesDistance(t *testing.T) {
	a := sawtooth(300, 2, 0)
	b := sawtooth(300, 3, 0.7)
	prev := math.Inf(1)
	for _, band := range []int{5, 20, 60, 200} {
		d := DTW{Band: band}.Distance(a, b)
		if d > prev+1e-9 {
			t.Errorf("band %d distance %v > narrower band %v", band, d, prev)
		}
		prev = d
	}
}

func TestResample(t *testing.T) {
	s := Series{Times: []float64{0, 1, 2}, Values: []float64{0, 10, 20}}
	out := Resample(s, 5)
	want := []float64{0, 5, 10, 15, 20}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Fatalf("Resample = %v, want %v", out, want)
		}
	}
}

func TestResampleDegenerate(t *testing.T) {
	if out := Resample(Series{}, 4); out[0] != 0 || len(out) != 4 {
		t.Errorf("empty series resample = %v", out)
	}
	one := Series{Times: []float64{3}, Values: []float64{7}}
	for _, v := range Resample(one, 4) {
		if v != 7 {
			t.Errorf("single-point resample produced %v", v)
		}
	}
	same := Series{Times: []float64{1, 1}, Values: []float64{4, 9}}
	out := Resample(same, 3)
	for _, v := range out {
		if v != 4 {
			t.Errorf("zero-span resample = %v, want all 4", out)
		}
	}
}

// TestResamplerMatchesResampleInto pins the precomputed-schedule fast path:
// for any sorted time vector, Resampler.Into must reproduce resampleInto
// bit for bit — including zero-span intervals and degenerate vectors — and
// the grid-input distance entry point must match the Series one exactly.
func TestResamplerMatchesResampleInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	timeSets := [][]float64{
		{},
		{3},
		{1, 1},
		{0, 1, 2, 3, 4},
		{0, 0, 0.5, 0.5, 2, 2, 2, 7},
	}
	jitter := make([]float64, 300)
	tv := 0.0
	for i := range jitter {
		tv += rng.Float64()
		if rng.Intn(5) == 0 && i > 0 {
			tv = jitter[i-1] // repeated timestamps
		}
		jitter[i] = tv
	}
	timeSets = append(timeSets, jitter)
	ref := Prepare(DTW{}, ramp(100, 1.2, 3))
	for ti, times := range timeSets {
		r := NewResampler(times)
		if r == nil {
			t.Fatalf("times[%d]: NewResampler returned nil for sorted times", ti)
		}
		values := make([]float64, len(times))
		for i := range values {
			values[i] = rng.Float64()*50 - 10
		}
		s := Series{Times: times, Values: values}
		want := make([]float64, ResampleN)
		resampleInto(s, want)
		got := make([]float64, ResampleN)
		r.Into(values, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("times[%d] grid[%d]: Into %v != resampleInto %v", ti, i, got[i], want[i])
			}
		}
		// Piece by piece, as a series still being produced is resampled:
		// each range reads only values[:Rows(to)], so NaN past it must not
		// reach the grid.
		pieces := make([]float64, ResampleN)
		for from := 0; from < ResampleN; from += 37 {
			to := min(from+37, ResampleN)
			if r.Rows(to) < r.Rows(from) || r.Rows(to) > len(values) {
				t.Fatalf("times[%d]: Rows(%d) = %d out of order or range", ti, to, r.Rows(to))
			}
			known := append([]float64(nil), values...)
			for i := r.Rows(to); i < len(known); i++ {
				known[i] = math.NaN()
			}
			r.IntoRange(known, pieces, from, to)
		}
		for i := range want {
			if math.Float64bits(pieces[i]) != math.Float64bits(want[i]) {
				t.Fatalf("times[%d] grid[%d]: IntoRange pieces %v != resampleInto %v", ti, i, pieces[i], want[i])
			}
		}
		if len(times) == 0 {
			continue
		}
		for _, m := range Metrics() {
			for _, cutoff := range []float64{math.Inf(1), 5, 0.5} {
				dS, eS := PreparedDistanceWithin(m, ref, s, cutoff, nil)
				dG, eG := PreparedDistanceWithinGrid(m, ref, got, cutoff, nil)
				if math.Float64bits(dS) != math.Float64bits(dG) || eS != eG {
					t.Errorf("times[%d] %s cutoff %v: series (%v,%v) != grid (%v,%v)",
						ti, m.Name(), cutoff, dS, eS, dG, eG)
				}
			}
		}
	}
	if r := NewResampler([]float64{2, 1}); r != nil {
		t.Error("NewResampler accepted unsorted times")
	}
}

func TestMalformedSeriesGivesInf(t *testing.T) {
	good := ramp(100, 1, 0)
	bad := Series{Times: []float64{1, 0}, Values: []float64{1, 2}} // unsorted
	mismatch := Series{Times: []float64{1}, Values: []float64{1, 2}}
	var empty Series
	nan := Series{Times: []float64{0, 1}, Values: []float64{1, math.NaN()}}
	for _, m := range Metrics() {
		for name, s := range map[string]Series{"unsorted": bad, "mismatch": mismatch, "empty": empty, "nan": nan} {
			if d := m.Distance(good, s); !math.IsInf(d, 1) {
				t.Errorf("%s(%s) = %v, want +Inf", m.Name(), name, d)
			}
		}
	}
}

func TestFrechetIsMaxNorm(t *testing.T) {
	// Constant curves at distance 3 everywhere: Fréchet = 3, Manhattan = 3.
	a := ramp(50, 0, 0)
	b := ramp(50, 0, 3)
	if d := (Frechet{}).Distance(a, b); math.Abs(d-3) > 1e-9 {
		t.Errorf("Frechet = %v, want 3", d)
	}
	// One spike: Fréchet sees the max, Manhattan averages it away.
	spiky := ramp(50, 0, 0)
	spiky.Values[25] = 50
	f := (Frechet{}).Distance(a, spiky)
	man := (Manhattan{}).Distance(a, spiky)
	if !(f > 10*man) {
		t.Errorf("Frechet (%v) should dwarf Manhattan (%v) on a spike", f, man)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"dtw", "euclidean", "manhattan", "frechet"} {
		m, err := ByName(name)
		if err != nil || m.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ByName("cosine"); err == nil {
		t.Error("ByName accepted unknown metric")
	}
	if len(Names()) != 4 {
		t.Errorf("Names() = %v", Names())
	}
}

// Property: all metrics are non-negative and zero on identical inputs, for
// random well-formed series.
func TestQuickMetricAxioms(t *testing.T) {
	f := func(seed int64, n1, n2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) Series {
			s := Series{Times: make([]float64, n), Values: make([]float64, n)}
			tv := 0.0
			for i := 0; i < n; i++ {
				tv += rng.Float64()
				s.Times[i] = tv
				s.Values[i] = rng.Float64() * 100
			}
			return s
		}
		a := mk(int(n1%50) + 2)
		b := mk(int(n2%50) + 2)
		for _, m := range Metrics() {
			if d := m.Distance(a, b); d < 0 || math.IsNaN(d) {
				return false
			}
			if d := m.Distance(a, a); d != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: DTW is upper-bounded by the Manhattan distance (the diagonal
// path is one admissible warping).
func TestQuickDTWUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Series {
			n := 30 + rng.Intn(100)
			s := Series{Times: make([]float64, n), Values: make([]float64, n)}
			tv := 0.0
			for i := 0; i < n; i++ {
				tv += 0.1 + rng.Float64()
				s.Times[i] = tv
				s.Values[i] = rng.Float64() * 40
			}
			return s
		}
		a, b := mk(), mk()
		dtw := DTW{Band: ResampleN}.Distance(a, b)
		man := Manhattan{}.Distance(a, b)
		// DTW normalizes by len(x)+len(y) = 2n, Manhattan by n; the
		// diagonal path costs exactly n*man, so dtw <= man/2 + eps.
		return dtw <= man/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
