// Threshold-aware ("bounded") variants of the four metrics. The search in
// internal/core only cares whether a candidate beats the best distance seen
// so far; once a computation can prove its result is >= that cutoff, the
// rest of the work is wasted. This file implements the classic time-series
// pruning toolkit — cascading lower bounds (LB_Kim endpoints, LB_Keogh
// envelopes) and early abandoning — behind a small extension interface, so
// scoring loops can hand their best-so-far down into the metric kernels.
//
// Exactness contract: every bounded computation returns either the exact
// distance, or a value that is both >= cutoff and a lower bound on the
// exact distance. Callers that receive a value < cutoff may rely on it
// bit-for-bit equaling Metric.Distance; the plain Distance methods share
// these kernels (with cutoff=+Inf) so the two paths cannot drift apart.
package dist

import "math"

// BoundedMetric extends Metric with a threshold-aware distance: once the
// true distance is provably >= cutoff the computation may stop early and
// return any lower bound of the true distance that is >= cutoff. A result
// < cutoff is the exact distance. All four built-in metrics implement it.
type BoundedMetric interface {
	Metric
	// DistanceWithin computes Distance(a, b), but may abandon early with
	// a value >= cutoff once the result is provably >= cutoff.
	DistanceWithin(a, b Series, cutoff float64) float64
}

// DistanceWithin dispatches to m's bounded implementation when it has one,
// falling back to the full Distance for plain metrics. The result obeys
// the BoundedMetric contract either way.
func DistanceWithin(m Metric, a, b Series, cutoff float64) float64 {
	if bm, ok := m.(BoundedMetric); ok {
		return bm.DistanceWithin(a, b, cutoff)
	}
	return m.Distance(a, b)
}

// DistanceWithin implements BoundedMetric.
func (d DTW) DistanceWithin(a, b Series, cutoff float64) float64 {
	v, _ := PreparedDistanceWithin(d, Prepare(d, a), b, cutoff, NewScratch())
	return v
}

// DistanceWithin implements BoundedMetric.
func (e Euclidean) DistanceWithin(a, b Series, cutoff float64) float64 {
	v, _ := PreparedDistanceWithin(e, Prepare(e, a), b, cutoff, NewScratch())
	return v
}

// DistanceWithin implements BoundedMetric.
func (mn Manhattan) DistanceWithin(a, b Series, cutoff float64) float64 {
	v, _ := PreparedDistanceWithin(mn, Prepare(mn, a), b, cutoff, NewScratch())
	return v
}

// DistanceWithin implements BoundedMetric.
func (f Frechet) DistanceWithin(a, b Series, cutoff float64) float64 {
	v, _ := PreparedDistanceWithin(f, Prepare(f, a), b, cutoff, NewScratch())
	return v
}

// Envelope is the running min/max of a grid over a sliding +-band window —
// the LB_Keogh envelope. Any banded warping path matches grid point j of
// the other series against some point of this series within the window, so
// sum_j max(y[j]-Upper[j], Lower[j]-y[j], 0) lower-bounds the raw DTW cost.
type Envelope struct {
	Lower []float64
	Upper []float64
}

// NewEnvelope computes the +-band sliding-window envelope of xs in O(n)
// using monotonic index deques.
func NewEnvelope(xs []float64, band int) *Envelope {
	n := len(xs)
	if band < 0 {
		band = 0
	}
	e := &Envelope{Lower: make([]float64, n), Upper: make([]float64, n)}
	up := make([]int, 0, n) // indices of decreasing values (front = window max)
	lo := make([]int, 0, n) // indices of increasing values (front = window min)
	j := 0
	for i := 0; i < n; i++ {
		hi := i + band
		if hi > n-1 {
			hi = n - 1
		}
		for ; j <= hi; j++ {
			for len(up) > 0 && xs[up[len(up)-1]] <= xs[j] {
				up = up[:len(up)-1]
			}
			up = append(up, j)
			for len(lo) > 0 && xs[lo[len(lo)-1]] >= xs[j] {
				lo = lo[:len(lo)-1]
			}
			lo = append(lo, j)
		}
		low := i - band
		for up[0] < low {
			up = up[1:]
		}
		for lo[0] < low {
			lo = lo[1:]
		}
		e.Upper[i] = xs[up[0]]
		e.Lower[i] = xs[lo[0]]
	}
	return e
}

// PreparedSeries is one side of a distance computation, resampled (and for
// DTW, enveloped) once so it can be scored against many candidates.
type PreparedSeries struct {
	src  Series
	grid []float64
	env  *Envelope
	band int
	ok   bool
	// fullCells is the banded DP cell count of a full pass against a
	// ResampleN-point candidate (DTW only) — the baseline Outcome.Saved is
	// measured against.
	fullCells int
}

// Grid exposes the resampled grid (nil when the series was unusable).
func (p *PreparedSeries) Grid() []float64 { return p.grid }

// Prepare validates and resamples s onto the common grid. When m is DTW it
// additionally precomputes the LB_Keogh envelope for m's band. A malformed
// or non-finite series yields a PreparedSeries that scores +Inf against
// everything, mirroring Metric.Distance.
func Prepare(m Metric, s Series) *PreparedSeries {
	p := &PreparedSeries{src: s}
	if s.validate() != nil || s.Len() == 0 {
		return p
	}
	p.grid = Resample(s, ResampleN)
	if !finite(p.grid) {
		p.grid = nil
		return p
	}
	p.ok = true
	if d, isDTW := m.(DTW); isDTW {
		p.band = d.Band
		if p.band <= 0 {
			p.band = ResampleN / 10
		}
		p.env = NewEnvelope(p.grid, p.band)
		p.fullCells = bandCells(len(p.grid), ResampleN, p.band)
	}
	return p
}

// Scratch holds the per-computation buffers (candidate resample grid, DP
// rows) so scoring loops can reuse them across calls instead of allocating.
// A Scratch must not be used concurrently.
type Scratch struct {
	grid []float64
	prev []float64
	cur  []float64
}

// NewScratch returns buffers sized for the common resample grid.
func NewScratch() *Scratch {
	return &Scratch{
		grid: make([]float64, ResampleN),
		prev: make([]float64, ResampleN+1),
		cur:  make([]float64, ResampleN+1),
	}
}

func (sc *Scratch) rows(n int) (prev, cur []float64) {
	if cap(sc.prev) < n {
		sc.prev = make([]float64, n)
		sc.cur = make([]float64, n)
	}
	return sc.prev[:n], sc.cur[:n]
}

// PreparedDistanceWithin scores candidate b against a prepared series under
// the BoundedMetric contract, reusing sc's buffers. The second result
// reports exactness: true means the value is exactly m.Distance(a, b);
// false means it is a lower bound that is >= cutoff. Unknown metric types
// fall back to their own Distance/DistanceWithin on the original series.
func PreparedDistanceWithin(m Metric, p *PreparedSeries, b Series, cutoff float64, sc *Scratch) (float64, bool) {
	v, o := PreparedDistanceDetail(m, p, b, cutoff, sc)
	return v, o.Exact()
}

// PreparedDistanceDetail is PreparedDistanceWithin returning the structured
// Outcome instead of a bare exactness flag: which cascade stage settled the
// computation and its cell cost. Outcome.Exact() equals the boolean the
// Within form returns.
func PreparedDistanceDetail(m Metric, p *PreparedSeries, b Series, cutoff float64, sc *Scratch) (float64, Outcome) {
	switch m.(type) {
	case DTW, Euclidean, Manhattan, Frechet:
	default:
		if bm, ok := m.(BoundedMetric); ok {
			v := bm.DistanceWithin(p.src, b, cutoff)
			if v < cutoff {
				return v, Outcome{Stage: StageFull}
			}
			return v, Outcome{Stage: StageAbandon}
		}
		return m.Distance(p.src, b), Outcome{}
	}
	if !p.ok || b.validate() != nil || b.Len() == 0 {
		return math.Inf(1), Outcome{}
	}
	if sc == nil {
		sc = NewScratch()
	}
	y := sc.grid[:ResampleN]
	resampleInto(b, y)
	return gridDistanceWithin(m, p, y, cutoff, sc)
}

// PreparedDistanceWithinGrid is PreparedDistanceWithin for a candidate that
// is already on the common resample grid (via Resampler.Into), skipping the
// per-call time-vector validation and interpolation merge. It supports only
// the four built-in metrics (the generic fallback needs the original
// series) and obeys the same exactness contract.
func PreparedDistanceWithinGrid(m Metric, p *PreparedSeries, y []float64, cutoff float64, sc *Scratch) (float64, bool) {
	v, o := PreparedDistanceDetailGrid(m, p, y, cutoff, sc)
	return v, o.Exact()
}

// PreparedDistanceDetailGrid is PreparedDistanceWithinGrid with the
// structured Outcome, under the PreparedDistanceDetail contract.
func PreparedDistanceDetailGrid(m Metric, p *PreparedSeries, y []float64, cutoff float64, sc *Scratch) (float64, Outcome) {
	switch m.(type) {
	case DTW, Euclidean, Manhattan, Frechet:
	default:
		panic("dist: PreparedDistanceWithinGrid requires a built-in metric")
	}
	if !p.ok || len(y) != ResampleN {
		return math.Inf(1), Outcome{}
	}
	if sc == nil {
		sc = NewScratch()
	}
	return gridDistanceWithin(m, p, y, cutoff, sc)
}

// gridDistanceWithin dispatches a resampled candidate to the metric kernels.
func gridDistanceWithin(m Metric, p *PreparedSeries, y []float64, cutoff float64, sc *Scratch) (float64, Outcome) {
	if !finite(y) {
		return math.Inf(1), Outcome{}
	}
	x := p.grid
	switch m := m.(type) {
	case DTW:
		band := p.band
		if band <= 0 {
			band = m.Band
		}
		prev, cur := sc.rows(len(y) + 1)
		return dtwWithin(x, y, p.env, band, cutoff, prev, cur, p.fullCells)
	case Euclidean:
		return euclideanWithin(x, y, cutoff)
	case Manhattan:
		return manhattanWithin(x, y, cutoff)
	default: // Frechet
		prev, cur := sc.rows(len(y) + 1)
		return frechetWithin(x, y, cutoff, prev[:len(y)], cur[:len(y)])
	}
}

// lbKeoghSafety deflates the LB_Keogh sum by a hair before comparing it to
// the cutoff. The envelope bound is exact in real arithmetic but its
// floating-point sum is accumulated in a different order than the DTW DP's;
// the 1e-12 relative margin dwarfs the ~n*eps worst-case discrepancy and
// keeps a 1-ulp rounding difference from ever pruning a candidate whose
// true distance is a hair under the cutoff.
const lbKeoghSafety = 1 - 1e-12

// dtwWithin is the banded DTW kernel shared by DTW.Distance (cutoff=+Inf)
// and the bounded path. With a finite cutoff it first tries the LB_Kim
// endpoint bound, then the LB_Keogh envelope bound (when env covers y's
// grid), then runs the DP with per-row early abandoning: every banded
// warping path crosses every row, so the row minimum lower-bounds the final
// accumulated cost. Returns the value plus the Outcome that settled it;
// fullCells (a full pass's DP cell count, 0 when unknown) prices the
// Outcome's Saved field without an extra loop here.
func dtwWithin(x, y []float64, env *Envelope, band int, cutoff float64, prev, cur []float64, fullCells int) (float64, Outcome) {
	n, m := len(x), len(y)
	norm := float64(n + m)
	cDTWCalls.Load().Inc()
	if cutoff <= 0 {
		// Distances are non-negative: 0 is a lower bound >= cutoff.
		return 0, Outcome{Stage: StageAbandon, Saved: fullCells}
	}
	if band <= 0 {
		band = ResampleN / 10
	}
	abandon := !math.IsInf(cutoff, 1)
	if abandon && n > 0 && m > 0 {
		// LB_Kim: the first and last grid points are matched by every
		// warping path (once each when the path has more than one cell).
		var lbKim float64
		if n+m > 2 {
			lbKim = math.Abs(x[0]-y[0]) + math.Abs(x[n-1]-y[m-1])
		} else {
			lbKim = math.Abs(x[0] - y[0])
		}
		if lbKim/norm >= cutoff {
			cLBPrunes.Load().Inc()
			return lbKim / norm, Outcome{Stage: StageLBKim, Saved: fullCells}
		}
		if env != nil && n == m && len(env.Lower) == m {
			var s float64
			for j := 0; j < m; j++ {
				v := y[j]
				if v > env.Upper[j] {
					s += v - env.Upper[j]
				} else if v < env.Lower[j] {
					s += env.Lower[j] - v
				}
			}
			lbk := s * lbKeoghSafety
			if lbk/norm >= cutoff {
				cLBPrunes.Load().Inc()
				return lbk / norm, Outcome{Stage: StageLBKeogh, Saved: fullCells}
			}
		}
	}
	inf := math.Inf(1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	cells := 0
	for i := 1; i <= n; i++ {
		lo, hi := i-band, i+band
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		cells += hi - lo + 1
		// Each row writes only its band [lo, hi], and rows i and i+1 read at
		// most one cell either side of it, so clearing the two edge slots
		// stands in for wiping the whole row.
		cur[lo-1] = inf
		if hi < m {
			cur[hi+1] = inf
		}
		rowMin := inf
		xv := x[i-1]
		pj1 := prev[lo-1] // prev[j-1], carried across iterations
		cj1 := inf        // cur[j-1], likewise (cur[lo-1] == inf)
		// Equal-length band views let the compiler drop the bounds checks.
		cc := cur[lo : hi+1]
		py := prev[lo : hi+1][:len(cc)]
		yy := y[lo-1 : hi][:len(cc)]
		for k := range cc {
			pj := py[k]
			best := pj // insertion
			if pj1 < best {
				best = pj1 // match
			}
			if cj1 < best {
				best = cj1 // deletion
			}
			v := math.Abs(xv-yy[k]) + best
			cc[k] = v
			cj1 = v
			pj1 = pj
			if v < rowMin {
				rowMin = v
			}
		}
		if abandon && rowMin/norm >= cutoff {
			cDTWCells.Load().Add(int64(cells))
			cEarlyAbandons.Load().Inc()
			saved := fullCells - cells
			if saved < 0 {
				saved = 0
			}
			return rowMin / norm, Outcome{Stage: StageAbandon, Row: i, Cells: cells, Saved: saved}
		}
		prev, cur = cur, prev
	}
	cDTWCells.Load().Add(int64(cells))
	return prev[m] / norm, Outcome{Stage: StageFull, Cells: cells}
}

// euclideanWithin accumulates squared differences with running-sum
// abandoning. The raw-units threshold is only a cheap filter; the
// authoritative comparison happens in final (normalized, sqrt'd) units so
// unit conversion can never flip an exact result into a pruned one.
func euclideanWithin(x, y []float64, cutoff float64) (float64, Outcome) {
	n := len(x)
	if cutoff <= 0 {
		return 0, Outcome{Stage: StageAbandon, Saved: n}
	}
	raw := cutoff * cutoff * float64(n)
	var sum float64
	last := n - 1
	for i := 0; i < n; i++ {
		d := x[i] - y[i]
		sum += d * d
		if sum >= raw && i < last {
			part := math.Sqrt(sum / float64(n))
			if part >= cutoff {
				cEarlyAbandons.Load().Inc()
				return part, Outcome{Stage: StageAbandon, Row: i + 1, Cells: i + 1, Saved: n - i - 1}
			}
		}
	}
	return math.Sqrt(sum / float64(n)), Outcome{Stage: StageFull, Cells: n}
}

// manhattanWithin accumulates absolute differences with running-sum
// abandoning, confirming in final units like euclideanWithin.
func manhattanWithin(x, y []float64, cutoff float64) (float64, Outcome) {
	n := len(x)
	if cutoff <= 0 {
		return 0, Outcome{Stage: StageAbandon, Saved: n}
	}
	raw := cutoff * float64(n)
	var sum float64
	last := n - 1
	for i := 0; i < n; i++ {
		sum += math.Abs(x[i] - y[i])
		if sum >= raw && i < last {
			part := sum / float64(n)
			if part >= cutoff {
				cEarlyAbandons.Load().Inc()
				return part, Outcome{Stage: StageAbandon, Row: i + 1, Cells: i + 1, Saved: n - i - 1}
			}
		}
	}
	return sum / float64(n), Outcome{Stage: StageFull, Cells: n}
}

// frechetWithin is the discrete Fréchet kernel shared by Frechet.Distance
// (cutoff=+Inf) and the bounded path. The DP value at any cell on the
// optimal traversal is <= the final minimax value and every traversal
// crosses every row, so the row minimum is a valid lower bound; the
// endpoint costs are as well (minimax includes both ends).
func frechetWithin(x, y []float64, cutoff float64, prev, cur []float64) (float64, Outcome) {
	n, m := len(x), len(y)
	if cutoff <= 0 {
		return 0, Outcome{Stage: StageAbandon, Saved: n * m}
	}
	abandon := !math.IsInf(cutoff, 1)
	if abandon && n > 0 && m > 0 {
		lb := math.Abs(x[0] - y[0])
		if e := math.Abs(x[n-1] - y[m-1]); e > lb {
			lb = e
		}
		if lb >= cutoff {
			cLBPrunes.Load().Inc()
			return lb, Outcome{Stage: StageLBKim, Saved: n * m}
		}
	}
	inf := math.Inf(1)
	for i := 0; i < n; i++ {
		rowMin := inf
		for j := 0; j < m; j++ {
			d := math.Abs(x[i] - y[j])
			switch {
			case i == 0 && j == 0:
				cur[j] = d
			case i == 0:
				cur[j] = math.Max(cur[j-1], d)
			case j == 0:
				cur[j] = math.Max(prev[j], d)
			default:
				cur[j] = math.Max(math.Min(math.Min(prev[j], prev[j-1]), cur[j-1]), d)
			}
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if abandon && rowMin >= cutoff {
			cEarlyAbandons.Load().Inc()
			return rowMin, Outcome{Stage: StageAbandon, Row: i + 1, Cells: (i + 1) * m, Saved: (n - i - 1) * m}
		}
		prev, cur = cur, prev
	}
	return prev[m-1], Outcome{Stage: StageFull, Cells: n * m}
}

// Replay-time bounds. The scorer in internal/replay produces a candidate's
// grid piece by piece while it replays the handler, and sums per-segment
// lower bounds over a whole segment set before any kernel runs (DESIGN.md
// §4c). The helpers below give it those bounds with the kernels' own
// arithmetic, so a candidate they settle is one the kernels would have
// settled no later.

// HasKeogh reports whether p carries an LB_Keogh envelope over the common
// grid — a usable series prepared for DTW — which KeoghTerms needs.
func (p *PreparedSeries) HasKeogh() bool {
	return p.env != nil && len(p.env.Lower) == ResampleN
}

// KeoghTerms adds the LB_Keogh terms of candidate grid points [from, to)
// to raw, in grid order, and returns the sum. Every term is non-negative,
// so each prefix of the sum already bounds the DTW distance (KeoghBound),
// and summing the whole grid piecewise in order gives the same value as
// the kernel's one pass. p must have an envelope (HasKeogh).
func (p *PreparedSeries) KeoghTerms(y []float64, from, to int, raw float64) float64 {
	lower := p.env.Lower[from:to]
	upper := p.env.Upper[from:to][:len(lower)]
	yy := y[from:to][:len(lower)]
	for j, v := range yy {
		if v > upper[j] {
			raw += v - upper[j]
		} else if v < lower[j] {
			raw += lower[j] - v
		}
	}
	return raw
}

// KeoghBound turns a KeoghTerms sum into a lower bound on the DTW distance,
// with the kernel's safety margin and normalization.
func (p *PreparedSeries) KeoghBound(raw float64) float64 {
	return raw * lbKeoghSafety / float64(len(p.grid)+ResampleN)
}

// GridBound is a lower bound on m's distance from p to the complete
// candidate grid y, from the grid alone: for DTW the larger of LB_Kim and
// KeoghBound(raw), raw being the KeoghTerms sum over the whole grid (0
// without an envelope); for Fréchet its endpoint bound; for Euclidean and
// Manhattan the distance itself, since its one pass costs no more than a
// bound would. It is 0 when p is unusable (the kernel then settles the
// candidate) and for metrics other than the four built-ins.
func GridBound(m Metric, p *PreparedSeries, y []float64, raw float64) float64 {
	if !p.ok || len(y) != ResampleN {
		return 0
	}
	x := p.grid
	n, last := len(x), len(y)-1
	switch m.(type) {
	case DTW:
		kim := (math.Abs(x[0]-y[0]) + math.Abs(x[n-1]-y[last])) / float64(n+len(y))
		if p.env == nil {
			return kim
		}
		return math.Max(kim, p.KeoghBound(raw))
	case Euclidean:
		d, _ := euclideanWithin(x, y, math.Inf(1))
		return d
	case Manhattan:
		d, _ := manhattanWithin(x, y, math.Inf(1))
		return d
	case Frechet:
		return math.Max(math.Abs(x[0]-y[0]), math.Abs(x[n-1]-y[last]))
	}
	return 0
}

// BoundSettle records one computation settled by a replay-time bound
// before any kernel ran, counting it as the kernels count their own
// lower-bound prunes (a DTW computation and an LB prune), and returns its
// Outcome: StageLBKeogh, with a full pass's cells saved.
func (p *PreparedSeries) BoundSettle() Outcome {
	if p.env != nil {
		cDTWCalls.Load().Inc()
	}
	cLBPrunes.Load().Inc()
	return Outcome{Stage: StageLBKeogh, Saved: p.fullCells}
}
