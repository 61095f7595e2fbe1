// Package enum enumerates the sketch search space (§4.1 of the paper): all
// canonical, type-correct and (optionally) unit-correct expression trees of
// a sub-DSL up to a depth and size bound. It stands in for the paper's
// Z3-based enumerator — where the paper iteratively queries an SMT solver
// and blocks previous solutions, this package generates the identical set
// directly, lazily, and in a deterministic order.
//
// The search space is partitioned into buckets keyed by the exact set of
// operators a sketch uses — the bucket discriminator the paper found to
// best preserve behavioral similarity (§4.4, option 2).
package enum

import (
	"iter"
	"sort"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// Enumerator generates the sketch space of one sub-DSL.
type Enumerator struct {
	// D is the sub-DSL whose space is enumerated.
	D *dsl.DSL
	// Obs, when set, receives the enumerator's instruments:
	//
	//	counters  enum.candidates (every candidate root constructed —
	//	          the scan-budget currency), enum.sketches (admissible
	//	          sketches yielded), enum.scan_budget_exhausted
	//	          (enumerations cut short by their scan budget)
	//
	// Nil disables instrumentation.
	Obs *obs.Registry
}

// New returns an enumerator for the sub-DSL.
func New(d *dsl.DSL) *Enumerator { return &Enumerator{D: d} }

// All yields every admissible sketch: canonical per dsl.IsCanonical,
// within the DSL's depth/size budget, and producing bytes under the unit
// checker when the DSL enables it.
func (e *Enumerator) All() iter.Seq[*dsl.Node] {
	return func(yield func(*dsl.Node) bool) {
		e.enumerate(fullOpSet(e.D), false, 0, yield)
	}
}

// Bucket yields the sketches whose operator set is exactly ops.
func (e *Enumerator) Bucket(ops dsl.OpSet) iter.Seq[*dsl.Node] {
	return e.BucketLimited(ops, 0)
}

// BucketLimited is Bucket with a scan budget: enumeration gives up after
// scanLimit candidate roots have been constructed (whether or not they
// belong to the bucket). A zero limit scans exhaustively. The limit is the
// in-process analogue of the paper's per-run wall-clock timeout: highly
// selective buckets deep in a large DSL stop consuming time once their
// budget is spent.
func (e *Enumerator) BucketLimited(ops dsl.OpSet, scanLimit int) iter.Seq[*dsl.Node] {
	return func(yield func(*dsl.Node) bool) {
		e.enumerate(ops, true, scanLimit, yield)
	}
}

// enumerate runs the generator with allowed as the operator superset;
// when exact is set, only sketches whose operator set is exactly allowed
// are yielded. Generation proceeds by iterative deepening — all depth-1
// sketches, then depth-2, ... — so samples drawn from a bucket's prefix
// are the simplest members of that bucket, mirroring the small-model-first
// order of the paper's SMT enumeration.
//
// The scan budget is tied to the actual generation work: every candidate
// root the generator constructs counts, including ones a later stage
// re-emits or the unit checker rejects — otherwise a deep DSL stage could
// grind indefinitely without ever consuming budget.
func (e *Enumerator) enumerate(allowed dsl.OpSet, exact bool, scanLimit int, yield func(*dsl.Node) bool) {
	budget := e.D.MaxNodes
	if budget <= 0 {
		budget = 1 << 20
	}
	g := newGen(e.D, allowed, scanLimit, e.Obs.Counter("enum.candidates"))
	defer func() {
		g.flush()
		if g.budgetHit {
			e.Obs.Counter("enum.scan_budget_exhausted").Inc()
		}
	}()
	st := &stage{
		bucket: allowed, exact: exact,
		sketches: e.Obs.Counter("enum.sketches"), yield: yield,
	}
	for st.depth = 1; st.depth <= e.D.MaxDepth; st.depth++ {
		if !g.genNum(st.depth, budget, st, nil) {
			return
		}
	}
}

// Count exhaustively counts the admissible sketch space (§6.1 reports this
// for the Reno DSL at depth 3).
func (e *Enumerator) Count() int {
	n := 0
	for range e.All() {
		n++
	}
	return n
}

// fullOpSet returns the DSL's operator universe (Gt folded into Lt).
func fullOpSet(d *dsl.DSL) dsl.OpSet {
	var s dsl.OpSet
	for _, op := range d.NumOps {
		s = s.With(op)
	}
	for _, op := range d.BoolOps {
		if op == dsl.OpGt {
			op = dsl.OpLt
		}
		s = s.With(op)
	}
	return s
}

// Buckets returns every feasible bucket key: subsets of the operator
// universe in which conditionals and predicates appear together (a bool
// operator only ever occurs under a cond, and a cond requires a predicate).
// The empty set (single-leaf sketches) is included. Keys are returned in a
// deterministic order.
func (e *Enumerator) Buckets() []dsl.OpSet {
	universe := []dsl.Op{}
	for _, op := range e.D.NumOps {
		universe = append(universe, op)
	}
	boolOps := []dsl.Op{}
	for _, op := range e.D.BoolOps {
		if op == dsl.OpGt {
			op = dsl.OpLt
		}
		boolOps = append(boolOps, op)
	}
	// Split cond out of the numeric universe: its presence is tied to the
	// bool ops.
	numOps := []dsl.Op{}
	hasCond := false
	for _, op := range universe {
		if op == dsl.OpCond {
			hasCond = true
			continue
		}
		numOps = append(numOps, op)
	}

	var keys []dsl.OpSet
	for mask := 0; mask < 1<<len(numOps); mask++ {
		var base dsl.OpSet
		for i, op := range numOps {
			if mask&(1<<i) != 0 {
				base = base.With(op)
			}
		}
		keys = append(keys, base)
		if !hasCond {
			continue
		}
		for bmask := 1; bmask < 1<<len(boolOps); bmask++ {
			s := base.With(dsl.OpCond)
			for i, op := range boolOps {
				if bmask&(1<<i) != 0 {
					s = s.With(op)
				}
			}
			keys = append(keys, s)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// term is one generated tree together with the attributes the
// enumerator filters on. A candidate's attributes are folded from its
// children's in O(1), so no check walks the tree.
type term struct {
	n     *dsl.Node
	depth int
	size  int
	ops   dsl.OpSet
	unit  dsl.UnitAttr // zero when the DSL does not check units
}

// stage is one iterative-deepening stage: the filter its roots must pass
// and the consumer of the survivors.
type stage struct {
	depth    int       // roots of any other depth were emitted at another stage
	bucket   dsl.OpSet // with exact, the operator set a root must have
	exact    bool
	sketches *obs.Counter
	yield    func(*dsl.Node) bool
}

// fits reports whether a root with attributes t has the stage's depth and
// operator set — the tests that reject most candidates, run before the
// root's unit is even folded.
func (st *stage) fits(t *term) bool {
	return t.depth == st.depth && (!st.exact || t.ops == st.bucket)
}

// bank memoizes one child generator — genNum or genBool at one depth and
// node budget — for one enumeration. It is recorded the first time a
// parent needs it and replayed from then on: its trees in generation order,
// and for each the number of candidate roots the generator charged since
// the previous tree (before), plus the charges after the last one (tail).
// Replaying spends exactly those charges between the same trees, so the
// scan budget runs out at the same candidate as regenerating would.
//
// A bank whose recording would push the enumeration past maxBanked trees
// is streamed instead: every replay regenerates it, which spends the same
// charges between the same trees without holding them.
type bank struct {
	key       bankKey
	terms     []*term
	before    []int
	tail      int
	pending   int // while recording: charges since the last recorded tree
	total     int // while recording: charges recorded so far
	streaming bool
}

// bankKey identifies a child generator call.
type bankKey struct {
	pred   bool // genBool rather than genNum
	depth  int
	budget int
}

// maxBanked bounds the trees one enumeration holds in banks (about 170
// bytes each). Quick-scale enumerations stay far below it; an unbudgeted
// enumeration of a deep DSL would otherwise bank millions. A variable
// only so tests can force every bank to stream.
var maxBanked = 1 << 15

// gen is the bottom-up generator of one enumeration. Children are
// canonical by construction, so each candidate node needs only the local
// canonicality check. When limit > 0, every constructed candidate —
// canonical or not — counts against it, so the budget bounds the
// generator's actual work; spent reports how much has been used.
//
// While a bank is being recorded (rec != nil), charges go to the bank
// instead of the budget. A recording stops once it holds more charges than
// the budget had left when it began (recCap): no replay can get past that
// point, because the budget only shrinks.
type gen struct {
	dsl        *dsl.DSL
	allowed    dsl.OpSet
	limit      int
	spent      int
	candidates *obs.Counter // nil no-op when unobserved
	uncounted  int          // charges not yet added to candidates
	budgetHit  bool
	leaves     []term // built once per enumeration
	banks      map[bankKey]*bank
	banked     int // trees held in banks
	rec        *bank
	recCap     int // charges the recording may hold; < 0: unlimited
}

// newGen prepares a generator and its leaves: cwnd, then the DSL's
// signals, macros and a constant hole, in that order.
func newGen(d *dsl.DSL, allowed dsl.OpSet, limit int, candidates *obs.Counter) *gen {
	g := &gen{
		dsl: d, allowed: allowed, limit: limit, candidates: candidates,
		banks: make(map[bankKey]*bank),
	}
	leaf := func(n *dsl.Node) {
		t := term{n: n, depth: 1, size: 1}
		if d.UnitCheck {
			t.unit = dsl.LeafUnits(n)
		}
		g.leaves = append(g.leaves, t)
	}
	leaf(dsl.Cwnd())
	for _, s := range d.Signals {
		leaf(dsl.Sig(s))
	}
	for _, m := range d.Macros {
		leaf(dsl.Mac(m))
	}
	leaf(dsl.Hole())
	return g
}

// spend charges k constructed candidate roots, one at a time in effect:
// it reports false when the budget runs out within them (or, while
// recording, when the recording reaches its cap).
func (g *gen) spend(k int) bool {
	if k == 0 {
		return true
	}
	if r := g.rec; r != nil {
		r.pending += k
		r.total += k
		return g.recCap < 0 || r.total <= g.recCap
	}
	if g.limit > 0 && g.spent+k > g.limit {
		// The charge that crosses the limit is the last one made.
		g.uncounted += g.limit - g.spent + 1
		g.spent = g.limit + 1
		g.budgetHit = true
		return false
	}
	g.uncounted += k
	g.spent += k
	return true
}

// flush publishes the charges made since the last flush to the
// enum.candidates counter. An atomic add per candidate would cost more
// than the candidate; flushing before every yield and when the
// enumeration ends keeps the counter exact whenever a consumer can look.
func (g *gen) flush() {
	g.candidates.Add(int64(g.uncounted))
	g.uncounted = 0
}

// bank returns the bank of a child generator call, recording it first if
// this enumeration has not needed it before.
func (g *gen) bank(pred bool, d, budget int) *bank {
	// A tree of depth d has at most 1+3+...+3^(d-1) nodes, so every budget
	// above that generates the same trees with the same charges: clamp the
	// key to share one bank. (The sum stops growing once it reaches the
	// budget, so a deep DSL cannot overflow it.)
	maxSize := 0
	for i, w := 0, 1; i < d && maxSize < budget; i, w = i+1, w*3 {
		maxSize += w
	}
	k := bankKey{pred, d, min(budget, maxSize)}
	if b := g.banks[k]; b != nil {
		return b
	}
	b := &bank{key: k}
	g.banks[k] = b
	outer, outerCap := g.rec, g.recCap
	if outer == nil {
		g.recCap = -1
		if g.limit > 0 {
			g.recCap = g.limit - g.spent
		}
	}
	g.rec = b
	g.generate(k, func(t *term) bool {
		if g.banked >= maxBanked {
			b.streaming = true
			return false
		}
		g.banked++
		b.terms = append(b.terms, t)
		b.before = append(b.before, b.pending)
		b.pending = 0
		return true
	})
	g.rec, g.recCap = outer, outerCap
	b.tail = b.pending
	if b.streaming {
		g.banked -= len(b.terms)
		b.terms, b.before, b.tail = nil, nil, 0
	}
	return b
}

// generate runs the child generator call k, handing each tree to out.
func (g *gen) generate(k bankKey, out func(*term) bool) bool {
	if k.pred {
		return g.genBool(k.depth, k.budget, out)
	}
	return g.genNum(k.depth, k.budget, nil, out)
}

// replay spends a bank's recorded charges and hands each of its trees to
// fn, in generation order; it reports false when the budget or fn stops.
func (g *gen) replay(b *bank, fn func(*term) bool) bool {
	if b.streaming {
		return g.generate(b.key, fn)
	}
	for i, t := range b.terms {
		if !g.spend(b.before[i]) || !fn(t) {
			return false
		}
	}
	return g.spend(b.tail)
}

// hasOp reports whether the operator may be used.
func (g *gen) hasOp(op dsl.Op) bool {
	// The DSL must contain it and the bucket superset must allow it.
	in := false
	for _, o := range g.dsl.NumOps {
		if o == op {
			in = true
		}
	}
	for _, o := range g.dsl.BoolOps {
		if o == op {
			in = true
		}
	}
	return in && g.allowed.Has(opKeyOf(op))
}

// opKeyOf folds Gt into Lt for bucket membership.
func opKeyOf(op dsl.Op) dsl.Op {
	if op == dsl.OpGt {
		return dsl.OpLt
	}
	return op
}

// emit charges one constructed candidate root op(kids) and passes it on
// if it survives. At a stage root (st != nil) the stage's filter runs
// first, on attributes folded from the children; only a survivor is built
// — on the stack — for the local canonicality check, and only a kept
// sketch is copied to the heap. Below the root (st == nil) a canonical
// candidate is allocated once and handed to out.
func (g *gen) emit(st *stage, out func(*term) bool, op dsl.Op, kids ...*term) bool {
	if !g.spend(1) {
		return false
	}
	t := term{size: 1}
	var units [3]dsl.UnitAttr
	var nodes [3]*dsl.Node
	for i, k := range kids {
		t.depth = max(t.depth, k.depth)
		t.size += k.size
		t.ops |= k.ops
		units[i] = k.unit
		nodes[i] = k.n
	}
	t.depth++
	t.ops = t.ops.With(opKeyOf(op))
	if st != nil && !st.fits(&t) {
		return true
	}
	if g.dsl.UnitCheck {
		t.unit = dsl.OpUnits(op, units[:len(kids)]...)
		if st != nil && !t.unit.HandlerOK() {
			return true
		}
	}
	n := dsl.Node{Op: op, Kids: nodes[:len(kids)]}
	if !dsl.CanonicalAt(&n) {
		return true
	}
	if st != nil {
		kept := &dsl.Node{Op: op, Kids: make([]*dsl.Node, len(kids))}
		for i, k := range n.Kids {
			kept.Kids[i] = k.Clone()
		}
		return g.keep(st, kept)
	}
	b := &termBlock{term: t, node: dsl.Node{Op: op}, kids: nodes}
	b.node.Kids = b.kids[:len(kids)]
	b.term.n = &b.node
	return out(&b.term)
}

// keep hands a sketch that passed every check to the stage's consumer.
func (g *gen) keep(st *stage, sk *dsl.Node) bool {
	g.flush()
	st.sketches.Inc()
	return st.yield(sk)
}

// termBlock allocates an inner term together with its node and the node's
// operand array.
type termBlock struct {
	term term
	node dsl.Node
	kids [3]*dsl.Node
}

// genNum generates all canonical numeric trees with depth <= d and size <=
// budget, each structurally distinct tree exactly once: through the stage
// filter to the stage's consumer when st is set, else to out. Children
// come from banks. It returns false when the budget or a consumer stops
// the enumeration.
func (g *gen) genNum(d, budget int, st *stage, out func(*term) bool) bool {
	if d < 1 || budget < 1 {
		return true
	}
	// Leaves.
	for i := range g.leaves {
		l := &g.leaves[i]
		switch {
		case st == nil:
			if !out(l) {
				return false
			}
		case st.fits(l) && (!g.dsl.UnitCheck || l.unit.HandlerOK()):
			if !g.keep(st, l.n.Clone()) {
				return false
			}
		}
	}
	if d < 2 || budget < 2 {
		return true
	}

	// Unary operators.
	for _, op := range []dsl.Op{dsl.OpCube, dsl.OpCbrt} {
		if !g.hasOp(op) {
			continue
		}
		ok := g.replay(g.bank(false, d-1, budget-1), func(k *term) bool {
			return g.emit(st, out, op, k)
		})
		if !ok {
			return false
		}
	}

	if budget < 3 {
		return true
	}
	// Binary operators.
	for _, op := range []dsl.Op{dsl.OpAdd, dsl.OpSub, dsl.OpMul, dsl.OpDiv} {
		if !g.hasOp(op) {
			continue
		}
		ok := g.replay(g.bank(false, d-1, budget-2), func(a *term) bool {
			return g.replay(g.bank(false, d-1, budget-1-a.size), func(b *term) bool {
				return g.emit(st, out, op, a, b)
			})
		})
		if !ok {
			return false
		}
	}

	// Conditionals.
	if g.hasOp(dsl.OpCond) && d >= 3 && budget >= 5 {
		ok := g.replay(g.bank(true, d-1, budget-3), func(cond *term) bool {
			return g.replay(g.bank(false, d-1, budget-1-cond.size-1), func(then *term) bool {
				return g.replay(g.bank(false, d-1, budget-1-cond.size-then.size), func(els *term) bool {
					return g.emit(st, out, dsl.OpCond, cond, then, els)
				})
			})
		})
		if !ok {
			return false
		}
	}
	return true
}

// genBool generates all canonical predicates with depth <= d and size <=
// budget, handing each to out.
func (g *gen) genBool(d, budget int, out func(*term) bool) bool {
	if d < 2 || budget < 3 {
		return true
	}
	for _, op := range []dsl.Op{dsl.OpLt, dsl.OpModEq} {
		if !g.hasOp(op) {
			continue
		}
		ok := g.replay(g.bank(false, d-1, budget-2), func(a *term) bool {
			return g.replay(g.bank(false, d-1, budget-1-a.size), func(b *term) bool {
				return g.emit(nil, out, op, a, b)
			})
		})
		if !ok {
			return false
		}
	}
	return true
}
