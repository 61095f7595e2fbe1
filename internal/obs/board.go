package obs

import (
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Board is the live view of a run (or batch of runs): one Run entry per
// synthesis job, updated with lock-free atomics from the search hot path
// and snapshotted by the /runs endpoints. A nil *Board (from a nil
// registry) hands out nil Runs, and every method no-ops on nil receivers.
type Board struct {
	mu    sync.Mutex
	order []string
	runs  map[string]*Run
}

// Board returns the registry's live run board, creating it on first use.
// A nil registry returns a nil board.
func (r *Registry) Board() *Board {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.board == nil {
		r.board = &Board{runs: map[string]*Run{}}
	}
	return r.board
}

// Run is one job's live state. All fields update atomically so scoring
// workers publish without locks; snapshots are read-mostly.
type Run struct {
	name     string
	start    time.Time
	budget   atomic.Int64
	phase    atomic.Pointer[string]
	iter     atomic.Int64
	handlers atomic.Int64
	bestBits atomic.Uint64
	bestExpr atomic.Pointer[string]
	done     atomic.Bool
	errMsg   atomic.Pointer[string]
	endNS    atomic.Int64
	funnel   atomic.Pointer[any]
}

// SetFunnel publishes the run's latest provenance funnel (an opaque,
// JSON-marshalable value — obs never imports the core types). Served by
// /runs/{name}/funnel.
func (r *Run) SetFunnel(v any) {
	if r == nil {
		return
	}
	r.funnel.Store(&v)
}

// Funnel returns the latest published funnel, if any.
func (r *Run) Funnel() (any, bool) {
	if r == nil {
		return nil, false
	}
	p := r.funnel.Load()
	if p == nil {
		return nil, false
	}
	return *p, true
}

// Start returns the named run entry, creating it (phase "starting", best
// +Inf) when new. Re-starting an existing name reuses the entry — the
// batch engine registers jobs as "queued" before the core search adopts
// them — and updates its budget when one is given.
func (b *Board) Start(name string, budget int64) *Run {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	run, ok := b.runs[name]
	if !ok {
		run = &Run{name: name, start: time.Now()}
		run.bestBits.Store(math.Float64bits(math.Inf(1)))
		phase := "starting"
		run.phase.Store(&phase)
		b.runs[name] = run
		b.order = append(b.order, name)
	}
	if budget > 0 {
		run.budget.Store(budget)
	}
	return run
}

// SetPhase labels what the run is doing right now.
func (r *Run) SetPhase(phase string) {
	if r == nil {
		return
	}
	r.phase.Store(&phase)
}

// SetIteration publishes the current refinement iteration (1-based).
func (r *Run) SetIteration(n int) {
	if r == nil {
		return
	}
	r.iter.Store(int64(n))
}

// AddHandlers adds n to the run's scored-candidate count — the live
// counter candidates/sec and the ETA derive from.
func (r *Run) AddHandlers(n int) {
	if r == nil || n == 0 {
		return
	}
	r.handlers.Add(int64(n))
}

// SetBest publishes a best-so-far improvement: the distance and the
// handler expression it belongs to.
func (r *Run) SetBest(distance float64, handler string) {
	if r == nil {
		return
	}
	r.bestBits.Store(math.Float64bits(distance))
	r.bestExpr.Store(&handler)
}

// Finish marks the run done (recording the failure, when there was one).
func (r *Run) Finish(err error) {
	if r == nil {
		return
	}
	if err != nil {
		msg := err.Error()
		r.errMsg.Store(&msg)
		r.SetPhase("failed")
	} else {
		r.SetPhase("done")
	}
	r.endNS.Store(time.Since(r.start).Nanoseconds())
	r.done.Store(true)
}

// RunSnapshot is the JSON shape of one live run, served by /runs.
// BestDistance is null until the run scores its first viable handler.
// ETASec extrapolates the remaining candidate budget at the observed
// scoring rate; it is absent once the run is done or before any candidate
// has been scored.
type RunSnapshot struct {
	Name             string   `json:"name"`
	Phase            string   `json:"phase"`
	Iteration        int      `json:"iteration"`
	HandlersScored   int64    `json:"handlers_scored"`
	Budget           int64    `json:"budget,omitempty"`
	BestDistance     *float64 `json:"best_distance"`
	BestHandler      string   `json:"best_handler,omitempty"`
	CandidatesPerSec float64  `json:"candidates_per_sec"`
	ETASec           *float64 `json:"eta_sec,omitempty"`
	ElapsedSec       float64  `json:"elapsed_sec"`
	Done             bool     `json:"done"`
	Error            string   `json:"error,omitempty"`
}

// snapshot renders the run's current state.
func (r *Run) snapshot() RunSnapshot {
	s := RunSnapshot{
		Name:           r.name,
		Iteration:      int(r.iter.Load()),
		HandlersScored: r.handlers.Load(),
		Budget:         r.budget.Load(),
		Done:           r.done.Load(),
	}
	if p := r.phase.Load(); p != nil {
		s.Phase = *p
	}
	if e := r.errMsg.Load(); e != nil {
		s.Error = *e
	}
	if h := r.bestExpr.Load(); h != nil {
		s.BestHandler = *h
	}
	if d := math.Float64frombits(r.bestBits.Load()); !math.IsInf(d, 0) && !math.IsNaN(d) {
		s.BestDistance = &d
	}
	elapsed := time.Since(r.start).Seconds()
	if s.Done {
		elapsed = time.Duration(r.endNS.Load()).Seconds()
	}
	s.ElapsedSec = elapsed
	if elapsed > 0 && s.HandlersScored > 0 {
		s.CandidatesPerSec = float64(s.HandlersScored) / elapsed
		if !s.Done && s.Budget > s.HandlersScored {
			eta := float64(s.Budget-s.HandlersScored) / s.CandidatesPerSec
			s.ETASec = &eta
		}
	}
	return s
}

// Snapshots renders every run in registration order.
func (b *Board) Snapshots() []RunSnapshot {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]RunSnapshot, 0, len(b.order))
	for _, name := range b.order {
		out = append(out, b.runs[name].snapshot())
	}
	return out
}

// Get returns the snapshot for name, matching either the full registered
// name or its final path element (so /runs/reno-01.pcap finds the job
// registered as traces/reno-01.pcap).
func (b *Board) Get(name string) (RunSnapshot, bool) {
	if run := b.find(name); run != nil {
		return run.snapshot(), true
	}
	return RunSnapshot{}, false
}

// FunnelOf returns the latest funnel published by the named run, with the
// same full-or-base-name matching as Get. The second result is false when
// the run is unknown or has not published a funnel yet.
func (b *Board) FunnelOf(name string) (any, bool) {
	run := b.find(name)
	if run == nil {
		return nil, false
	}
	return run.Funnel()
}

// find resolves a run by full registered name or final path element.
func (b *Board) find(name string) *Run {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if run, ok := b.runs[name]; ok {
		return run
	}
	for _, full := range b.order {
		if filepath.Base(full) == name {
			return b.runs[full]
		}
	}
	return nil
}
