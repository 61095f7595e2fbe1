// Package dist implements the trace-distance metrics Abagnale's optimization
// formulation is built on (§4.3 of the paper): Dynamic Time Warping (the
// primary metric, most tolerant to constant error), Euclidean, Manhattan and
// discrete Fréchet distances over congestion-window time series.
//
// Series are (time, value) pairs on arbitrary grids; every metric first
// resamples both inputs onto a common uniform grid. Values are compared in
// their native scale (packets of CWND) — the metrics must stay sensitive to
// multiplicative constant error, which is exactly what Figure 3 evaluates.
package dist

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// Package-level observability hooks, installed process-wide (metrics are
// stateless values, so there is no per-run object to hang a registry on).
// Nil counters (no registry installed) no-op.
var (
	cDTWCalls      atomic.Pointer[obs.Counter]
	cDTWCells      atomic.Pointer[obs.Counter]
	cLBPrunes      atomic.Pointer[obs.Counter]
	cEarlyAbandons atomic.Pointer[obs.Counter]
)

// Observe routes the package's instruments to the registry:
//
//	counters  dist.dtw_calls (DTW distance computations),
//	          dist.dtw_cells (DTW dynamic-programming cells filled —
//	          the metric's actual work, proportional to band width),
//	          dist.lb_prunes (bounded computations settled by a lower
//	          bound — LB_Kim/LB_Keogh — before any DP work),
//	          dist.early_abandons (bounded computations abandoned
//	          mid-scan once the running value proved >= the cutoff)
//
// Passing nil uninstalls them. Call once at tool startup.
func Observe(r *obs.Registry) {
	cDTWCalls.Store(r.Counter("dist.dtw_calls"))
	cDTWCells.Store(r.Counter("dist.dtw_cells"))
	cLBPrunes.Store(r.Counter("dist.lb_prunes"))
	cEarlyAbandons.Store(r.Counter("dist.early_abandons"))
}

// Series is a time series of observations at increasing times.
type Series struct {
	// Times are sample times in seconds, non-decreasing.
	Times []float64
	// Values are the observations (CWND in MSS units, by convention).
	Values []float64
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.Values) }

// validate reports whether the series is well-formed.
func (s Series) validate() error {
	if len(s.Times) != len(s.Values) {
		return fmt.Errorf("dist: %d times but %d values", len(s.Times), len(s.Values))
	}
	for i := 1; i < len(s.Times); i++ {
		if s.Times[i] < s.Times[i-1] {
			return fmt.Errorf("dist: times not sorted at %d", i)
		}
	}
	return nil
}

// ResampleN is the uniform grid size every metric maps series onto.
const ResampleN = 200

// Resample linearly interpolates the series onto n uniformly spaced points
// spanning its time range. A series with fewer than 2 points yields a
// constant (or zero) vector.
func Resample(s Series, n int) []float64 {
	out := make([]float64, n)
	resampleInto(s, out)
	return out
}

// resampleInto is Resample writing into a caller-provided buffer, for
// scoring loops that reuse scratch space across candidates.
func resampleInto(s Series, out []float64) {
	n := len(out)
	if len(s.Values) == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	if len(s.Values) == 1 || s.Times[len(s.Times)-1] <= s.Times[0] {
		for i := range out {
			out[i] = s.Values[0]
		}
		return
	}
	t0, t1 := s.Times[0], s.Times[len(s.Times)-1]
	j := 0
	for i := 0; i < n; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(n-1)
		for j < len(s.Times)-2 && s.Times[j+1] < t {
			j++
		}
		// Interpolate between points j and j+1.
		ta, tb := s.Times[j], s.Times[j+1]
		va, vb := s.Values[j], s.Values[j+1]
		if tb <= ta {
			out[i] = va
			continue
		}
		frac := (t - ta) / (tb - ta)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		out[i] = va + frac*(vb-va)
	}
}

// Resampler precomputes the interpolation schedule resampleInto derives
// from a series' time vector. Scoring loops replay many candidate value
// series over one segment's fixed sample times, so the left sample index
// and fraction for each grid point can be computed once per segment and
// reused; Into then produces bit-for-bit the values resampleInto would for
// Series{Times: times, Values: values}.
type Resampler struct {
	idx   []int32
	frac  []float64 // < 0: copy values[idx] verbatim (zero-span interval)
	n     int       // required len(values)
	bcast bool      // degenerate times: broadcast values[0] (or 0 when empty)
}

// NewResampler builds the schedule for a fixed, non-decreasing time vector.
// It returns nil for unsorted times — such series always score +Inf, so
// callers fall back to the validating Series path.
func NewResampler(times []float64) *Resampler {
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			return nil
		}
	}
	r := &Resampler{n: len(times)}
	if len(times) <= 1 || times[len(times)-1] <= times[0] {
		r.bcast = true
		return r
	}
	r.idx = make([]int32, ResampleN)
	r.frac = make([]float64, ResampleN)
	t0, t1 := times[0], times[len(times)-1]
	j := 0
	for i := 0; i < ResampleN; i++ {
		t := t0 + (t1-t0)*float64(i)/float64(ResampleN-1)
		for j < len(times)-2 && times[j+1] < t {
			j++
		}
		r.idx[i] = int32(j)
		ta, tb := times[j], times[j+1]
		if tb <= ta {
			r.frac[i] = -1
			continue
		}
		frac := (t - ta) / (tb - ta)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		r.frac[i] = frac
	}
	return r
}

// Into resamples values — observed at the schedule's times — onto out.
// len(values) must match the time vector the Resampler was built from and
// len(out) must be ResampleN.
func (r *Resampler) Into(values, out []float64) {
	r.IntoRange(values, out, 0, ResampleN)
}

// IntoRange is Into restricted to grid points [from, to): it writes only
// out[from:to], each point bit-identical to Into's, and reads only
// values[:r.Rows(to)]. A series still being produced can thus be resampled
// piece by piece as its leading values become known.
func (r *Resampler) IntoRange(values, out []float64, from, to int) {
	if len(values) != r.n || len(out) != ResampleN {
		panic("dist: Resampler length mismatch")
	}
	if r.bcast {
		v := 0.0
		if r.n > 0 {
			v = values[0]
		}
		for i := from; i < to; i++ {
			out[i] = v
		}
		return
	}
	idx, frac := r.idx[from:to], r.frac[from:to]
	dst := out[from:to][:len(idx)]
	for i := range dst {
		j := idx[i]
		f := frac[i]
		va := values[j]
		if f < 0 {
			dst[i] = va
			continue
		}
		dst[i] = va + f*(values[j+1]-va)
	}
}

// Rows is how many leading values grid points [0, g) read: once that many
// values of a series are known, IntoRange can fill those points. It is
// non-decreasing in g, and Rows(ResampleN) <= len(values).
func (r *Resampler) Rows(g int) int {
	if g <= 0 || r.n == 0 {
		return 0
	}
	if r.bcast {
		return 1
	}
	if r.frac[g-1] < 0 {
		return int(r.idx[g-1]) + 1
	}
	return int(r.idx[g-1]) + 2
}

// Metric measures how far apart two congestion-window traces are. Lower is
// closer. Implementations return +Inf for malformed input or series
// containing non-finite values.
type Metric interface {
	// Name returns the metric's short identifier.
	Name() string
	// Distance computes the metric between two series.
	Distance(a, b Series) float64
}

// finite reports whether all values are finite.
func finite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// prepare resamples both series onto the common grid, returning ok=false
// when either input is unusable.
func prepare(a, b Series) (x, y []float64, ok bool) {
	if a.validate() != nil || b.validate() != nil || a.Len() == 0 || b.Len() == 0 {
		return nil, nil, false
	}
	x = Resample(a, ResampleN)
	y = Resample(b, ResampleN)
	if !finite(x) || !finite(y) {
		return nil, nil, false
	}
	return x, y, true
}

// DTW is the Dynamic Time Warping distance with a Sakoe-Chiba band. Being
// alignment-based, it corrects for temporal shifts between curves — the
// property that makes it the most tolerant of the four metrics to error in
// handler constants (Figure 3), at a higher computational cost.
type DTW struct {
	// Band is the Sakoe-Chiba band half-width in grid points; 0 means
	// ResampleN/10.
	Band int
}

// Name implements Metric.
func (DTW) Name() string { return "dtw" }

// Distance implements Metric.
func (d DTW) Distance(a, b Series) float64 {
	x, y, ok := prepare(a, b)
	if !ok {
		return math.Inf(1)
	}
	band := d.Band
	if band <= 0 {
		band = ResampleN / 10
	}
	prev := make([]float64, len(y)+1)
	cur := make([]float64, len(y)+1)
	v, _ := dtwWithin(x, y, nil, band, math.Inf(1), prev, cur, 0)
	return v
}

// Euclidean is the point-wise L2 distance on the resampled grid, normalized
// by sqrt(n). Cheap, but unforgiving of temporal shifts.
type Euclidean struct{}

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Distance implements Metric.
func (Euclidean) Distance(a, b Series) float64 {
	x, y, ok := prepare(a, b)
	if !ok {
		return math.Inf(1)
	}
	v, _ := euclideanWithin(x, y, math.Inf(1))
	return v
}

// Manhattan is the point-wise mean absolute difference on the resampled
// grid — the area between the curves.
type Manhattan struct{}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Distance implements Metric.
func (Manhattan) Distance(a, b Series) float64 {
	x, y, ok := prepare(a, b)
	if !ok {
		return math.Inf(1)
	}
	v, _ := manhattanWithin(x, y, math.Inf(1))
	return v
}

// Frechet is the discrete Fréchet distance: the minimax "dog leash" length
// over monotone traversals of both curves.
type Frechet struct{}

// Name implements Metric.
func (Frechet) Name() string { return "frechet" }

// Distance implements Metric.
func (Frechet) Distance(a, b Series) float64 {
	x, y, ok := prepare(a, b)
	if !ok {
		return math.Inf(1)
	}
	prev := make([]float64, len(y))
	cur := make([]float64, len(y))
	v, _ := frechetWithin(x, y, math.Inf(1), prev, cur)
	return v
}

// Metrics returns one instance of every metric, DTW first (the default).
func Metrics() []Metric {
	return []Metric{DTW{}, Euclidean{}, Manhattan{}, Frechet{}}
}

// ByName returns the named metric.
func ByName(name string) (Metric, error) {
	for _, m := range Metrics() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("dist: unknown metric %q", name)
}

// Names returns the metric names, sorted.
func Names() []string {
	var names []string
	for _, m := range Metrics() {
		names = append(names, m.Name())
	}
	sort.Strings(names)
	return names
}
