package replay

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Ledger is a deterministic bottom-k sample of scored candidates: each
// candidate gets a priority from a keyed hash of its identity (sketch
// canonical key, completion constants, round tag, ledger seed), and the
// ledger keeps the k smallest priorities seen. Unlike a classic reservoir,
// the sample is a pure function of the candidate set — independent of
// scoring order and worker count — so two runs of the same seed dump
// byte-identical ledgers no matter how the scheduler interleaved them.
// (Priority ties between distinct candidates are first-come; with a 64-bit
// hash they are vanishingly unlikely.)
//
// Offer is cheap enough for scoring hot paths: one hash plus an atomic
// threshold check; the lock is only taken for candidates that actually
// enter the sample.
type Ledger struct {
	cap  int
	salt uint64

	// threshold caches the current max kept priority (valid once full) so
	// losing candidates are rejected without the lock.
	threshold atomic.Uint64
	full      atomic.Bool

	mu    sync.Mutex
	items ledgerHeap
}

// NewLedger returns a ledger keeping the capacity lowest-priority
// candidates (default 256 when capacity <= 0). seed keys the priority hash:
// the same seed samples the same candidates.
func NewLedger(capacity int, seed int64) *Ledger {
	if capacity <= 0 {
		capacity = 256
	}
	l := &Ledger{cap: capacity, salt: uint64(seed) * 0x9e3779b97f4a7c15}
	l.threshold.Store(math.MaxUint64)
	return l
}

// LedgerEntry is one sampled candidate as it appears in the JSONL dump.
type LedgerEntry struct {
	// Sketch is the canonical sketch expression; Handler is the bound
	// completion (equal to Sketch when there were no holes).
	Sketch  string    `json:"sketch"`
	Handler string    `json:"handler"`
	Consts  []float64 `json:"consts,omitempty"`
	// Distance is the candidate's score (null when non-finite) and Exact
	// whether it is the full sum or a pruned lower bound.
	Distance jsonFloat `json:"distance"`
	Exact    bool      `json:"exact"`
	Diverged bool      `json:"diverged,omitempty"`
	// Stage is the cascade rung that settled the candidate; Segment/Row
	// locate where. Segments holds the per-segment stage outcomes in
	// scoring order ("full", "lb_kim", "lb_keogh", "abandon").
	Stage      string   `json:"stage"`
	Segment    int      `json:"segment"`
	Row        int      `json:"row,omitempty"`
	Cells      int      `json:"cells"`
	CellsSaved int      `json:"cells_saved"`
	Segments   []string `json:"segments"`
}

// jsonFloat marshals non-finite values as null (a diverged candidate's
// distance is +Inf, which encoding/json rejects).
type jsonFloat float64

// MarshalJSON renders NaN/±Inf as null and everything else as a number.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// ledgerItem pairs an entry with its sample priority.
type ledgerItem struct {
	pri   uint64
	entry LedgerEntry
}

// ledgerHeap is a max-heap on priority: the root is the first candidate to
// evict when a lower priority arrives.
type ledgerHeap []ledgerItem

func (h ledgerHeap) Len() int           { return len(h) }
func (h ledgerHeap) Less(i, j int) bool { return h[i].pri > h[j].pri }
func (h ledgerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ledgerHeap) Push(x any)        { *h = append(*h, x.(ledgerItem)) }
func (h *ledgerHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h ledgerHeap) root() uint64       { return h[0].pri }
func (h ledgerHeap) sorted() []ledgerItem {
	out := append([]ledgerItem(nil), h...)
	sort.Slice(out, func(i, j int) bool { return out[i].pri < out[j].pri })
	return out
}

// priority hashes a candidate's identity under the ledger's salt.
func (l *Ledger) priority(tag uint64, key string, vals []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], l.salt)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], tag)
	h.Write(buf[:])
	io.WriteString(h, key)
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// offer decides whether the candidate enters the sample; build is only
// invoked on acceptance, so rejected candidates never pay for rendering
// expression strings.
//
// Priorities key candidate identity, so a re-offer of a sampled candidate
// (the same completion settling again in a later pass) updates its row
// instead of duplicating it, keeping the lexicographically smaller JSON
// encoding, so a sample is a deterministic function of the offered
// candidate set.
func (l *Ledger) offer(pri uint64, build func() LedgerEntry) {
	if l == nil {
		return
	}
	if l.full.Load() && pri > l.threshold.Load() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.items {
		if l.items[i].pri != pri {
			continue
		}
		e := build()
		cur, err1 := json.Marshal(l.items[i].entry)
		inc, err2 := json.Marshal(e)
		if err1 == nil && err2 == nil && bytes.Compare(inc, cur) < 0 {
			l.items[i].entry = e
		}
		return
	}
	if len(l.items) >= l.cap {
		if pri >= l.items.root() {
			return
		}
		l.items[0] = ledgerItem{pri: pri, entry: build()}
		heap.Fix(&l.items, 0)
	} else {
		heap.Push(&l.items, ledgerItem{pri: pri, entry: build()})
	}
	if len(l.items) >= l.cap {
		l.threshold.Store(l.items.root())
		l.full.Store(true)
	}
}

// Len returns the number of sampled candidates.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Entries returns the sampled candidates in priority order (the dump
// order) — deterministic for a fixed seed and candidate set.
func (l *Ledger) Entries() []LedgerEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	items := l.items.sorted()
	l.mu.Unlock()
	out := make([]LedgerEntry, len(items))
	for i, it := range items {
		out[i] = it.entry
	}
	return out
}

// WriteJSONL dumps the sample as one JSON object per line, in priority
// order.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range l.Entries() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// offer routes a settled candidate outcome to the scorer's ledger.
func (cs *CompiledSketch) offer(vals []float64, out *CandidateOutcome) {
	l := cs.s.ledger
	if l == nil {
		return
	}
	pri := l.priority(cs.s.ledgerTag, cs.e.key, vals)
	l.offer(pri, func() LedgerEntry { return newLedgerEntry(cs, vals, out) })
}

// newLedgerEntry renders an accepted candidate. Strings are built here, on
// the rare acceptance path, not per offer.
func newLedgerEntry(cs *CompiledSketch, vals []float64, out *CandidateOutcome) LedgerEntry {
	sketch := cs.e.src.String()
	handler := sketch
	if len(vals) > 0 {
		if bound, err := cs.e.src.Bind(vals); err == nil {
			handler = bound.String()
		}
	}
	e := LedgerEntry{
		Sketch:     sketch,
		Handler:    handler,
		Consts:     append([]float64(nil), vals...),
		Distance:   jsonFloat(out.Distance),
		Exact:      out.Exact,
		Diverged:   out.Diverged,
		Stage:      stageLabel(out),
		Segment:    out.Segment,
		Row:        out.Row,
		Cells:      out.Cells,
		CellsSaved: out.Saved,
		Segments:   make([]string, len(out.Segments)),
	}
	for i, o := range out.Segments {
		e.Segments[i] = o.Stage.String()
	}
	return e
}

// stageLabel names the candidate-level settling stage, folding replay
// divergence in (a diverged candidate's metric outcome is vacuous).
func stageLabel(out *CandidateOutcome) string {
	if out.Diverged {
		return "diverged"
	}
	return out.Stage.String()
}
