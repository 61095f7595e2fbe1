// Package obs is the repository's observability layer: a concurrency-safe
// metrics registry (counters, gauges, histograms), hierarchical timed spans,
// and pluggable sinks (human-readable progress, JSONL event stream, an
// end-of-run JSON report). It has no dependencies beyond the standard
// library and is designed around one invariant: when observability is off,
// instrumented code pays almost nothing.
//
// The disabled fast path is the nil receiver. A nil *Registry hands out nil
// metric handles and nil spans, and every method on every type no-ops on a
// nil receiver — so call sites never branch themselves:
//
//	var reg *obs.Registry // nil: observability off
//	c := reg.Counter("core.handlers_scored")
//	c.Add(17)                          // a predictable-branch no-op
//	sp := reg.StartSpan("core.score")  // nil span
//	defer sp.End()                     // no-op
//
// With a live registry, counters and gauges update via atomics (no locks on
// the hot path); spans cost two time.Now calls plus an atomic phase
// accumulation; events reach sinks only when sinks are attached.
//
// Metric names are dotted lowercase ("package.metric"). The conventional
// instrument names emitted by this repository are documented on the
// packages that emit them (core, enum, replay, dist, sim).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the root of one run's instruments: metrics, spans, records
// and sinks. The zero value is not usable; call New. A nil *Registry is the
// disabled mode — every method no-ops.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   map[string]*phaseStat
	records  map[string][]any
	recOrder []string

	// sinks is a copy-on-write []Sink kept in an atomic.Value so the
	// emit path never takes the registry lock.
	sinks  atomic.Value
	spanID atomic.Uint64

	// flight is the optional always-on flight recorder (EnableFlight);
	// nil means span/metric/record paths skip the note at the cost of one
	// predictable branch.
	flight atomic.Pointer[FlightRecorder]
	// board is the live run board, created lazily by Board().
	board *Board
}

// New returns an empty registry whose clock starts now.
func New() *Registry {
	r := &Registry{
		start:    time.Now(),
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		phases:   map[string]*phaseStat{},
		records:  map[string][]any{},
	}
	r.sinks.Store([]Sink(nil))
	return r
}

// Attach adds a sink. Sinks receive every subsequent event; attach them
// before the instrumented run starts.
func (r *Registry) Attach(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.sinks.Load().([]Sink)
	next := make([]Sink, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = s
	r.sinks.Store(next)
}

// Close closes every attached sink, returning the first error.
func (r *Registry) Close() error {
	if r == nil {
		return nil
	}
	var first error
	for _, s := range r.sinks.Load().([]Sink) {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// EnableFlight attaches a flight recorder retaining the last capacity
// events (DefaultFlightEvents when capacity <= 0) and returns it. Span
// ends, metric updates and records note into it from then on. Enabling is
// idempotent: an existing recorder is kept.
func (r *Registry) EnableFlight(capacity int) *FlightRecorder {
	if r == nil {
		return nil
	}
	if f := r.flight.Load(); f != nil {
		return f
	}
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	f := NewFlightRecorder(capacity)
	if !r.flight.CompareAndSwap(nil, f) {
		return r.flight.Load()
	}
	return f
}

// Flight returns the registry's flight recorder (nil when not enabled; a
// nil recorder no-ops, so callers may Note unconditionally).
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}

// flightNote appends to the flight recorder when one is enabled.
func (r *Registry) flightNote(kind, name string, v float64) {
	if r == nil {
		return
	}
	r.flight.Load().Note(kind, name, v)
}

// hasSinks reports whether emitting an event would reach anyone.
func (r *Registry) hasSinks() bool {
	return r != nil && len(r.sinks.Load().([]Sink)) > 0
}

// emit fans an event out to every sink.
func (r *Registry) emit(ev Event) {
	for _, s := range r.sinks.Load().([]Sink) {
		s.Emit(ev)
	}
}

// since returns seconds since the registry's start.
func (r *Registry) since() float64 { return time.Since(r.start).Seconds() }

// --- Counter ------------------------------------------------------------

// Counter is a monotonically increasing int64. Methods on a nil *Counter
// no-op, so handles from a nil registry are free to use.
type Counter struct {
	v atomic.Int64
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterValues snapshots every counter whose name starts with prefix
// (every counter when prefix is empty). Batch reports use it to embed one
// subsystem's counters — e.g. the corpus cache hit rates — without
// dragging in the whole Report. A nil registry returns nil.
func (r *Registry) CounterValues(prefix string) map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64)
	for name, c := range r.counters {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out[name] = c.Value()
		}
	}
	return out
}

// --- Gauge --------------------------------------------------------------

// Gauge is a float64 that can be set, or raised towards a maximum. Methods
// on a nil *Gauge no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Gauge returns the named gauge, creating it on first use (initial value 0).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram ----------------------------------------------------------

// histBuckets is the fixed number of base-2 exponential buckets. Bucket i
// (i >= 1) covers [2^(i-33), 2^(i-32)); bucket 0 holds non-positive values
// and underflow. The range spans roughly 1e-10 .. 2e9, plenty for both
// durations in seconds and raw counts.
const histBuckets = 64

// Histogram accumulates float64 observations into exponential buckets with
// lock-free updates. Methods on a nil *Histogram no-op.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		h.minBits.Store(math.Float64bits(math.Inf(1)))
		h.maxBits.Store(math.Float64bits(math.Inf(-1)))
		r.hists[name] = h
	}
	return h
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	idx := math.Ilogb(v) + 33
	if idx < 0 {
		return 0
	}
	if idx > histBuckets-1 {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper returns the upper bound of bucket i, used for quantile
// estimates.
func bucketUpper(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Ldexp(1, i-32)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	casFloat(&h.sumBits, func(cur float64) float64 { return cur + v })
	casFloat(&h.minBits, func(cur float64) float64 { return math.Min(cur, v) })
	casFloat(&h.maxBits, func(cur float64) float64 { return math.Max(cur, v) })
	h.buckets[bucketOf(v)].Add(1)
}

// casFloat applies f to the float64 stored in bits until the swap wins.
func casFloat(bits *atomic.Uint64, f func(float64) float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(f(math.Float64frombits(old)))
		if next == old || bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistStats is a histogram summary. Quantiles are upper-bound estimates
// from the exponential buckets (within a factor of 2 of the true value).
type HistStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Stats summarizes the histogram (zero value on a nil handle).
func (h *Histogram) Stats() HistStats {
	if h == nil {
		return HistStats{}
	}
	s := HistStats{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	if s.Count == 0 {
		return HistStats{}
	}
	s.Mean = s.Sum / float64(s.Count)
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	s.P50 = h.quantile(0.50, s.Count)
	s.P90 = h.quantile(0.90, s.Count)
	s.P99 = h.quantile(0.99, s.Count)
	return s
}

// quantile estimates the q-th quantile from the bucket counts.
func (h *Histogram) quantile(q float64, total int64) float64 {
	target := int64(math.Ceil(q * float64(total)))
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			return bucketUpper(i)
		}
	}
	return math.Float64frombits(h.maxBits.Load())
}

// --- Phase accounting ---------------------------------------------------

// phaseStat aggregates the wall-clock spent under one span name.
type phaseStat struct {
	count   atomic.Int64
	totalNS atomic.Int64
}

// phase returns (creating if needed) the aggregate for a span name.
func (r *Registry) phase(name string) *phaseStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.phases[name]
	if !ok {
		p = &phaseStat{}
		r.phases[name] = p
	}
	return p
}

// --- Records ------------------------------------------------------------

// Record retains a structured payload under a name (appended in order) and
// emits it to sinks as a "record" event. Records surface in the final
// report — core uses them for per-iteration search detail. Payloads must be
// JSON-marshalable.
func (r *Registry) Record(name string, payload any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.records[name]; !ok {
		r.recOrder = append(r.recOrder, name)
	}
	r.records[name] = append(r.records[name], payload)
	r.mu.Unlock()
	r.flightNote("record", name, 0)
	if r.hasSinks() {
		r.emit(Event{T: r.since(), Kind: KindRecord, Name: name, Data: payload})
	}
}

// Records returns the retained payloads for a name (nil when absent).
func (r *Registry) Records(name string) []any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records[name]
}

// counterNames returns sorted counter names (for deterministic reports).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
