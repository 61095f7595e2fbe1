package dsl

// Register-machine handler programs: the only production evaluator.
// CompileProgram flattens an expression tree into a linear instruction
// slice over a register file with a constant pool:
//
//   - common subexpressions are value-numbered away (macros expand into
//     ordinary arithmetic, so `reno-inc` and a hand-written
//     `acked*mss/cwnd` share instructions);
//   - unbound holes become addressable pool slots, so the hundreds of
//     completions of one sketch re-execute the same Program with patched
//     constants instead of recompiling;
//   - instructions are partitioned into a *prologue* that depends on
//     neither the evolving window nor any hole — evaluable once per
//     (sketch, segment) as whole columns — and a *suffix* re-executed per
//     ACK with the window feedback (see EvalSeries / RunPrologue).
//
// Semantics are bit-identical to Node.Eval, the AST evaluator that serves
// as the test oracle: the same IEEE operations in the same per-element
// order, NaN poisoning through comparisons and conditionals, and the same
// final non-finite check (FuzzProgramVsEval pins EvalSeries against it,
// FuzzEvalSeriesBatchVsScalar pins every lane of EvalSeriesBatch).

import (
	"math"
	"sync/atomic"

	"repro/internal/obs"
)

// cProgs counts compiled programs; see Observe.
var cProgs atomic.Pointer[obs.Counter]

var nan = math.NaN()

// Observe routes the package's instruments to the registry:
//
//	counters  dsl.progs_compiled (register-VM programs built)
//
// Passing nil uninstalls them. Process-wide; call once at tool startup.
func Observe(r *obs.Registry) {
	cProgs.Store(r.Counter("dsl.progs_compiled"))
}

// progOp is a VM opcode.
type progOp uint8

const (
	pCwnd  progOp = iota // dst = current window
	pCol                 // dst = signal column a at the current row
	pConst               // dst = pool[a]
	pAdd                 // dst = r[a] + r[b]
	pSub                 // dst = r[a] - r[b]
	pMul                 // dst = r[a] * r[b]
	pDiv                 // dst = r[a] / r[b]
	pCube                // dst = r[a]^3
	pCbrt                // dst = cbrt(r[a])
	pLt                  // dst = r[a] < r[b] as 1/0, NaN-poisoned
	pGt                  // dst = r[a] > r[b] as 1/0, NaN-poisoned
	pModEq               // dst = r[a] % r[b] == 0 as 1/0, NaN-poisoned
	pSel                 // dst = r[a] poisoned ? NaN : r[a] != 0 ? r[b] : r[c]

	// Fused pairs (see fuseSuffix): dst = r[a] <op1> (r[b] <op2> r[c]),
	// computed as the same two individually rounded IEEE operations the
	// unfused pair performed — one dispatch instead of two in the per-ACK
	// suffix loop.
	pAddRMul // dst = r[a] + (r[b] * r[c])
	pAddRDiv // dst = r[a] + (r[b] / r[c])
	pSubRMul // dst = r[a] - (r[b] * r[c])
	pSubRDiv // dst = r[a] - (r[b] / r[c])
	pMulRMul // dst = r[a] * (r[b] * r[c])
	pMulRDiv // dst = r[a] * (r[b] / r[c])
	pDivRMul // dst = r[a] / (r[b] * r[c])
	pDivRDiv // dst = r[a] / (r[b] / r[c])
)

// inst is one three-address instruction. For pConst, a is a pool slot; for
// pCol, a is a Signal; otherwise a/b/c are registers.
type inst struct {
	op           progOp
	dst, a, b, c uint16
}

// numSignals sizes the Cols array; signals are dense from SigMSS.
const numSignals = int(SigWMax) + 1

// Cols is the structure-of-arrays layout of a segment's per-ACK signals:
// one column per Signal, each of length N. Replay code builds one Cols per
// segment (replacing a slice of 80-byte Env structs) so the VM touches
// only the columns a program actually reads.
type Cols struct {
	N   int
	Sig [numSignals][]float64
}

// Program is a compiled handler or sketch. Instructions are laid out as
// [consts | prologue | suffix]: constant loads first (executed once per
// series evaluation, after patching), then the cwnd/hole-independent
// prologue (evaluated columnar, once per segment, by RunPrologue), then
// the cwnd/hole-dependent suffix (re-executed per ACK by EvalSeries).
// Register r is written by instruction r exactly once; programs are
// immutable and safe for concurrent use.
type Program struct {
	insts  []inst
	nConst int // insts[:nConst] are pConst loads
	nPro   int // insts[nConst:nPro] are the columnar prologue
	pool   []float64
	holes  []uint16 // pool slots of unbound holes, in Bind (left-to-right) order
	liveIn []uint16 // prologue registers the suffix (or the result) reads
	out    uint16   // register holding the handler's value
}

// Prologue holds the cached per-segment output columns of a program's
// prologue registers (one column per liveIn entry). A Prologue is only
// valid for the Cols it was computed from; it is immutable after
// RunPrologue and safe for concurrent use.
type Prologue struct {
	cols [][]float64
}

// Holes returns the number of patchable constant slots (the sketch's
// unbound holes, in Bind order).
func (p *Program) Holes() int { return len(p.holes) }

// NumInsts returns the total instruction count.
func (p *Program) NumInsts() int { return len(p.insts) }

// PrologueLen returns the number of columnar prologue instructions — the
// per-row work RunPrologue performs once per (sketch, segment).
func (p *Program) PrologueLen() int { return p.nPro - p.nConst }

// SuffixLen returns the number of per-ACK suffix instructions — the only
// work EvalSeries repeats for every completion of the sketch.
func (p *Program) SuffixLen() int { return len(p.insts) - p.nPro }

// Exec is reusable per-call scratch for EvalSeries: the register file
// and the patched copy of the constant pool. An Exec must not be used
// concurrently but may be shared across programs (buffers grow on demand).
type Exec struct {
	regs []float64
	pool []float64
}

// NewExec returns empty scratch; buffers are sized on first use.
func NewExec() *Exec { return &Exec{} }

// patchedPool copies the template pool into ex and fills the hole slots
// with vals (left-to-right). A nil vals leaves holes NaN, so evaluating an
// unpatched sketch reports ok=false — mirroring Node.Eval on a sketch.
func (p *Program) patchedPool(vals []float64, ex *Exec) []float64 {
	if cap(ex.pool) < len(p.pool) {
		ex.pool = make([]float64, len(p.pool))
	}
	pool := ex.pool[:len(p.pool)]
	copy(pool, p.pool)
	for i, slot := range p.holes {
		if i < len(vals) {
			pool[slot] = vals[i]
		}
	}
	return pool
}

// progCompiler builds the flat instruction list with value numbering.
type progCompiler struct {
	insts   []inst
	varying []bool // register depends on cwnd or on a hole
	pool    []float64
	holes   []uint16
	memo    map[inst]uint16   // (op, operands) -> register, dst zeroed
	consts  map[uint64]uint16 // Float64bits -> pool slot
}

// CompileProgram flattens a (bound or sketch) expression into a Program.
func CompileProgram(n *Node) *Program {
	c := &progCompiler{
		memo:   make(map[inst]uint16),
		consts: make(map[uint64]uint16),
	}
	out := c.num(n)
	cProgs.Load().Inc()
	return c.finalize(out)
}

// emit appends (or value-numbers away) one instruction whose register
// dependence is v.
func (c *progCompiler) emit(in inst, v bool) uint16 {
	if r, ok := c.memo[in]; ok {
		return r
	}
	r := uint16(len(c.insts))
	c.memo[in] = r
	in.dst = r
	c.insts = append(c.insts, in)
	c.varying = append(c.varying, v)
	return r
}

// constReg returns the register of a bound constant, sharing pool slots
// between equal values (keyed by bits, so -0 and NaN stay distinct).
func (c *progCompiler) constReg(v float64) uint16 {
	bits := math.Float64bits(v)
	slot, ok := c.consts[bits]
	if !ok {
		slot = uint16(len(c.pool))
		c.pool = append(c.pool, v)
		c.consts[bits] = slot
	}
	return c.emit(inst{op: pConst, a: slot}, false)
}

// holeReg allocates a fresh patchable pool slot (holes never share).
func (c *progCompiler) holeReg() uint16 {
	slot := uint16(len(c.pool))
	c.pool = append(c.pool, math.NaN())
	c.holes = append(c.holes, slot)
	// Bypass the memo: every hole is distinct even though the instruction
	// bytes repeat.
	r := uint16(len(c.insts))
	c.insts = append(c.insts, inst{op: pConst, dst: r, a: slot})
	c.varying = append(c.varying, true)
	return r
}

func (c *progCompiler) col(s Signal) uint16 {
	return c.emit(inst{op: pCol, a: uint16(s)}, false)
}

func (c *progCompiler) bin(op progOp, a, b uint16) uint16 {
	return c.emit(inst{op: op, a: a, b: b}, c.varying[a] || c.varying[b])
}

func (c *progCompiler) un(op progOp, a uint16) uint16 {
	return c.emit(inst{op: op, a: a}, c.varying[a])
}

// num compiles a numeric expression, mirroring Node.eval: anything the
// AST evaluator maps to NaN (invalid ops, bool ops in numeric position,
// unknown signals/macros) becomes a NaN constant here.
func (c *progCompiler) num(n *Node) uint16 {
	switch n.Op {
	case OpCwnd:
		return c.emit(inst{op: pCwnd}, true)
	case OpSignal:
		if int(n.Sig) < 0 || int(n.Sig) >= numSignals {
			return c.constReg(math.NaN())
		}
		return c.col(n.Sig)
	case OpMacro:
		// Macros expand to the exact arithmetic of Env.macro (same
		// operations, same association), so they CSE against spelled-out
		// equivalents and their cwnd-free parts hoist into the prologue.
		switch n.Mac {
		case MacroRenoInc:
			return c.bin(pDiv, c.bin(pMul, c.col(SigAcked), c.col(SigMSS)), c.emit(inst{op: pCwnd}, true))
		case MacroVegasDiff:
			diff := c.bin(pSub, c.col(SigRTT), c.col(SigMinRTT))
			return c.bin(pDiv, c.bin(pMul, diff, c.col(SigAckRate)), c.col(SigMSS))
		case MacroHTCPDiff:
			diff := c.bin(pSub, c.col(SigRTT), c.col(SigMinRTT))
			return c.bin(pDiv, diff, c.col(SigMaxRTT))
		case MacroRTTsSinceLoss:
			return c.bin(pDiv, c.col(SigTimeSinceLoss), c.col(SigRTT))
		}
		return c.constReg(math.NaN())
	case OpConst:
		if !n.Bound {
			return c.holeReg()
		}
		return c.constReg(n.Value)
	case OpAdd:
		return c.bin(pAdd, c.num(n.Kids[0]), c.num(n.Kids[1]))
	case OpSub:
		return c.bin(pSub, c.num(n.Kids[0]), c.num(n.Kids[1]))
	case OpMul:
		return c.bin(pMul, c.num(n.Kids[0]), c.num(n.Kids[1]))
	case OpDiv:
		return c.bin(pDiv, c.num(n.Kids[0]), c.num(n.Kids[1]))
	case OpCond:
		cond := n.Kids[0]
		var cr uint16
		if cond.Op.IsBool() {
			var op progOp
			switch cond.Op {
			case OpLt:
				op = pLt
			case OpGt:
				op = pGt
			default:
				op = pModEq
			}
			cr = c.bin(op, c.num(cond.Kids[0]), c.num(cond.Kids[1]))
		} else {
			// A non-boolean predicate always fails evaluation in
			// Node.evalBool; poison the select.
			cr = c.constReg(math.NaN())
		}
		t, f := c.num(n.Kids[1]), c.num(n.Kids[2])
		in := inst{op: pSel, a: cr, b: t, c: f}
		return c.emit(in, c.varying[cr] || c.varying[t] || c.varying[f])
	case OpCube:
		return c.un(pCube, c.num(n.Kids[0]))
	case OpCbrt:
		return c.un(pCbrt, c.num(n.Kids[0]))
	default:
		// OpInvalid and bool operators in numeric position: Node.eval
		// yields NaN.
		return c.constReg(math.NaN())
	}
}

// regOperands reports which of a/b/c are register references for op.
func regOperands(op progOp) int {
	switch op {
	case pCwnd, pCol, pConst:
		return 0
	case pCube, pCbrt:
		return 1
	case pSel, pAddRMul, pAddRDiv, pSubRMul, pSubRDiv, pMulRMul, pMulRDiv, pDivRMul, pDivRDiv:
		return 3
	default:
		return 2
	}
}

// fuseOp maps an (outer, inner) arithmetic pair to its fused opcode.
func fuseOp(outer, inner progOp) (progOp, bool) {
	switch outer {
	case pAdd:
		switch inner {
		case pMul:
			return pAddRMul, true
		case pDiv:
			return pAddRDiv, true
		}
	case pSub:
		switch inner {
		case pMul:
			return pSubRMul, true
		case pDiv:
			return pSubRDiv, true
		}
	case pMul:
		switch inner {
		case pMul:
			return pMulRMul, true
		case pDiv:
			return pMulRDiv, true
		}
	case pDiv:
		switch inner {
		case pMul:
			return pDivRMul, true
		case pDiv:
			return pDivRDiv, true
		}
	}
	return 0, false
}

// finalize reorders the instruction list into [consts | prologue | suffix]
// and computes the live-in set. The emitted list is topologically ordered;
// constants have no operands and prologue instructions only consume
// constants or other prologue registers (a hole's consumers are varying by
// construction), so the stable three-way partition preserves validity.
func (c *progCompiler) finalize(out uint16) *Program {
	n := len(c.insts)
	remap := make([]uint16, n)
	order := make([]uint16, 0, n)
	for i, in := range c.insts {
		if in.op == pConst {
			remap[i] = uint16(len(order))
			order = append(order, uint16(i))
		}
	}
	nConst := len(order)
	for i := range c.insts {
		if c.insts[i].op != pConst && !c.varying[i] {
			remap[i] = uint16(len(order))
			order = append(order, uint16(i))
		}
	}
	nPro := len(order)
	// The (unique, CSE'd) pCwnd leads the suffix so EvalSeries can hoist
	// the window store out of the dispatch loop; it has no operands, so
	// moving it ahead of its partition peers preserves topological order.
	for i := range c.insts {
		if c.insts[i].op == pCwnd {
			remap[i] = uint16(len(order))
			order = append(order, uint16(i))
		}
	}
	for i := range c.insts {
		if c.insts[i].op != pConst && c.insts[i].op != pCwnd && c.varying[i] {
			remap[i] = uint16(len(order))
			order = append(order, uint16(i))
		}
	}
	insts := make([]inst, n)
	for newIdx, oldIdx := range order {
		in := c.insts[oldIdx]
		in.dst = uint16(newIdx)
		switch regOperands(in.op) {
		case 3:
			in.c = remap[in.c]
			fallthrough
		case 2:
			in.b = remap[in.b]
			fallthrough
		case 1:
			in.a = remap[in.a]
		}
		insts[newIdx] = in
	}
	insts, outReg := fuseSuffix(insts, nPro, remap[out])
	p := &Program{
		insts:  insts,
		nConst: nConst,
		nPro:   nPro,
		pool:   c.pool,
		holes:  c.holes,
		out:    outReg,
	}
	// Live-in: prologue registers read by the suffix, plus the result when
	// the whole computation lives in the prologue.
	seen := make(map[uint16]bool)
	addLive := func(r uint16) {
		if int(r) >= nConst && int(r) < nPro && !seen[r] {
			seen[r] = true
			p.liveIn = append(p.liveIn, r)
		}
	}
	for _, in := range insts[nPro:] {
		switch regOperands(in.op) {
		case 3:
			addLive(in.c)
			fallthrough
		case 2:
			addLive(in.b)
			fallthrough
		case 1:
			addLive(in.a)
		}
	}
	addLive(p.out)
	return p
}

// fuseSuffix peepholes the per-ACK suffix: a pMul/pDiv whose result is
// consumed exactly once, as the right operand of another suffix arithmetic
// instruction, collapses into that consumer as a fused opcode. The fused
// instruction performs the identical two IEEE operations (each individually
// rounded — see the float64 conversions in the interpreters, which forbid
// FMA contraction), so results stay bit-identical while the dominant
// `cwnd + c*inc` handler shapes halve their dispatch count. Registers are
// renumbered to restore the reg==index invariant; insts before nPro are
// never touched, so nConst/nPro remain valid.
func fuseSuffix(insts []inst, nPro int, out uint16) ([]inst, uint16) {
	n := len(insts)
	use := make([]int, n)
	for _, in := range insts {
		switch regOperands(in.op) {
		case 3:
			use[in.c]++
			fallthrough
		case 2:
			use[in.b]++
			fallthrough
		case 1:
			use[in.a]++
		}
	}
	use[out]++
	dead := make([]bool, n)
	fusedAny := false
	for y := nPro; y < n; y++ {
		in := insts[y]
		if regOperands(in.op) != 2 {
			continue
		}
		xb := int(in.b)
		if xb < nPro || use[xb] != 1 || uint16(xb) == out {
			continue
		}
		fop, ok := fuseOp(in.op, insts[xb].op)
		if !ok {
			continue
		}
		x := insts[xb]
		insts[y] = inst{op: fop, dst: in.dst, a: in.a, b: x.a, c: x.b}
		dead[xb] = true
		fusedAny = true
	}
	if !fusedAny {
		return insts, out
	}
	remap := make([]uint16, n)
	packed := insts[:0]
	for i, in := range insts {
		if dead[i] {
			continue
		}
		r := uint16(len(packed))
		remap[i] = r
		in.dst = r
		packed = append(packed, in)
	}
	for i := range packed {
		in := &packed[i]
		switch regOperands(in.op) {
		case 3:
			in.c = remap[in.c]
			fallthrough
		case 2:
			in.b = remap[in.b]
			fallthrough
		case 1:
			in.a = remap[in.a]
		}
	}
	return packed, remap[out]
}

// RunPrologue evaluates the prologue columnar over a segment's columns and
// returns the live-in output columns — the part of the program every
// completion of the sketch shares. Columns that are plain signal loads
// alias cols (no copy); constants referenced by the prologue broadcast
// from the template pool (holes can never reach the prologue).
func (p *Program) RunPrologue(cols *Cols) *Prologue {
	n := cols.N
	bufs := make([][]float64, p.nPro)
	// getCol materializes a constant register's broadcast column on first
	// use; prologue registers are filled in instruction order below.
	getCol := func(r uint16) []float64 {
		if bufs[r] == nil {
			col := make([]float64, n)
			v := p.pool[p.insts[r].a]
			for i := range col {
				col[i] = v
			}
			bufs[r] = col
		}
		return bufs[r]
	}
	for idx := p.nConst; idx < p.nPro; idx++ {
		in := p.insts[idx]
		if in.op == pCol {
			bufs[idx] = cols.Sig[in.a]
			continue
		}
		dst := make([]float64, n)
		switch in.op {
		case pAdd:
			a, b := getCol(in.a), getCol(in.b)
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
		case pSub:
			a, b := getCol(in.a), getCol(in.b)
			for i := range dst {
				dst[i] = a[i] - b[i]
			}
		case pMul:
			a, b := getCol(in.a), getCol(in.b)
			for i := range dst {
				dst[i] = a[i] * b[i]
			}
		case pDiv:
			a, b := getCol(in.a), getCol(in.b)
			for i := range dst {
				dst[i] = a[i] / b[i]
			}
		case pCube:
			a := getCol(in.a)
			for i := range dst {
				v := a[i]
				dst[i] = v * v * v
			}
		case pCbrt:
			a := getCol(in.a)
			for i := range dst {
				dst[i] = math.Cbrt(a[i])
			}
		case pLt:
			a, b := getCol(in.a), getCol(in.b)
			for i := range dst {
				dst[i] = ltStep(a[i], b[i])
			}
		case pGt:
			a, b := getCol(in.a), getCol(in.b)
			for i := range dst {
				dst[i] = gtStep(a[i], b[i])
			}
		case pModEq:
			a, b := getCol(in.a), getCol(in.b)
			for i := range dst {
				dst[i] = modEqStep(a[i], b[i])
			}
		case pSel:
			cond, t, f := getCol(in.a), getCol(in.b), getCol(in.c)
			for i := range dst {
				dst[i] = selStep(cond[i], t[i], f[i])
			}
		}
		bufs[idx] = dst
	}
	pro := &Prologue{cols: make([][]float64, len(p.liveIn))}
	for k, r := range p.liveIn {
		pro.cols[k] = getCol(r)
	}
	return pro
}

// Boolean steps encode the NaN-poisoned predicates as 1/0/NaN, matching
// Node.evalBool: a poisoned predicate (NaN operand, zero modulus) makes the
// enclosing conditional evaluate to NaN.

func ltStep(x, y float64) float64 {
	if x != x || y != y {
		return nan
	}
	if x < y {
		return 1
	}
	return 0
}

func gtStep(x, y float64) float64 {
	if x != x || y != y {
		return nan
	}
	if x > y {
		return 1
	}
	return 0
}

func modEqStep(x, y float64) float64 {
	if x != x || y != y || y == 0 {
		return nan
	}
	r := math.Abs(math.Mod(x, y))
	ay := math.Abs(y)
	if r <= modEqTolerance*ay || r >= (1-modEqTolerance)*ay {
		return 1
	}
	return 0
}

func selStep(c, t, f float64) float64 {
	if c != c {
		return nan
	}
	if c != 0 {
		return t
	}
	return f
}

// EvalSeries replays the program over every row of a segment with window
// feedback, writing the synthesized window (divided by mss, the series
// unit) into out[:cols.N]. vals patches the sketch's holes (nil for a
// fully bound program); pro must come from RunPrologue on the same cols
// (computed on the fly when nil); cwnd0 seeds the window and lo/hi are the
// replay clamp bounds. It returns the number of rows completed and
// ok=false when the handler produced a non-finite window — the same
// divergence rule, clamp arithmetic, and evaluation order as a Node.Eval
// replay, inlined into one dispatch loop.
func (p *Program) EvalSeries(cols *Cols, pro *Prologue, vals []float64, cwnd0, lo, hi, mss float64, out []float64, ex *Exec) (int, bool) {
	rows, _, ok := p.EvalSeriesFrom(cols, pro, vals, 0, cols.N, cwnd0, lo, hi, mss, out, ex)
	return rows, ok
}

// EvalSeriesFrom is EvalSeries resumed mid-segment: it replays rows
// [from, to) starting from window cwnd — the window the rows before from
// left behind — and writes out[from:to]. It returns the row reached (to,
// or the row that diverged), the window after the last completed row, and
// ok. Replaying a segment in consecutive pieces, each resuming from the
// window the previous one returned, is bit-identical to one EvalSeries
// call: the window is the only state a row hands to the next.
func (p *Program) EvalSeriesFrom(cols *Cols, pro *Prologue, vals []float64, from, to int, cwnd, lo, hi, mss float64, out []float64, ex *Exec) (int, float64, bool) {
	if ex == nil {
		ex = NewExec()
	}
	if pro == nil {
		pro = p.RunPrologue(cols)
	}
	// One spare slot past the register file gives the per-row window store
	// an unconditional target even when the program never reads cwnd.
	if cap(ex.regs) < len(p.insts)+1 {
		ex.regs = make([]float64, len(p.insts)+1)
	}
	regs := ex.regs[:len(p.insts)+1]
	pool := p.patchedPool(vals, ex)
	for _, in := range p.insts[:p.nConst] {
		regs[in.dst] = pool[in.a]
	}
	body := p.insts[p.nPro:]
	cwndReg := len(p.insts) // the spare slot
	if len(body) > 0 && body[0].op == pCwnd {
		// finalize orders the (unique) pCwnd first in the suffix; write its
		// register directly each row instead of dispatching on it.
		cwndReg = int(body[0].dst)
		body = body[1:]
	}
	live := p.liveIn
	proCols := pro.cols
	for i := from; i < to; i++ {
		regs[cwndReg] = cwnd
		for k, r := range live {
			regs[r] = proCols[k][i]
		}
		for _, in := range body {
			switch in.op {
			case pAdd:
				regs[in.dst] = regs[in.a] + regs[in.b]
			case pSub:
				regs[in.dst] = regs[in.a] - regs[in.b]
			case pMul:
				regs[in.dst] = regs[in.a] * regs[in.b]
			case pDiv:
				regs[in.dst] = regs[in.a] / regs[in.b]
			case pAddRMul:
				// float64() rounds the inner product explicitly, keeping the
				// compiler from contracting a + b*c into an FMA.
				regs[in.dst] = regs[in.a] + float64(regs[in.b]*regs[in.c])
			case pAddRDiv:
				regs[in.dst] = regs[in.a] + regs[in.b]/regs[in.c]
			case pSubRMul:
				regs[in.dst] = regs[in.a] - float64(regs[in.b]*regs[in.c])
			case pSubRDiv:
				regs[in.dst] = regs[in.a] - regs[in.b]/regs[in.c]
			case pMulRMul:
				regs[in.dst] = regs[in.a] * (regs[in.b] * regs[in.c])
			case pMulRDiv:
				regs[in.dst] = regs[in.a] * (regs[in.b] / regs[in.c])
			case pDivRMul:
				regs[in.dst] = regs[in.a] / (regs[in.b] * regs[in.c])
			case pDivRDiv:
				regs[in.dst] = regs[in.a] / (regs[in.b] / regs[in.c])
			case pCube:
				v := regs[in.a]
				regs[in.dst] = v * v * v
			case pCbrt:
				regs[in.dst] = math.Cbrt(regs[in.a])
			case pLt:
				regs[in.dst] = ltStep(regs[in.a], regs[in.b])
			case pGt:
				regs[in.dst] = gtStep(regs[in.a], regs[in.b])
			case pModEq:
				regs[in.dst] = modEqStep(regs[in.a], regs[in.b])
			case pSel:
				regs[in.dst] = selStep(regs[in.a], regs[in.b], regs[in.c])
			case pCwnd:
				regs[in.dst] = cwnd
			case pCol:
				regs[in.dst] = cols.Sig[in.a][i]
			case pConst:
				regs[in.dst] = pool[in.a]
			}
		}
		v := regs[p.out]
		// v-v is zero exactly when v is finite (NaN and ±Inf both yield NaN),
		// folding the IsNaN/IsInf pair into one test.
		if v-v != 0 {
			return i, cwnd, false
		}
		// Same clamp as replay — Min(Max(v, lo), hi) — in branch form, which
		// is bit-identical for finite v and positive finite lo <= hi (replay's
		// bounds) without the math.Min/Max call overhead.
		if v < lo {
			v = lo
		} else if v > hi {
			v = hi
		}
		cwnd = v
		out[i] = cwnd / mss
	}
	return to, cwnd, true
}
