package dsl

import "math"

// Lane-batched VM execution. EvalSeries replays one constant-pool
// completion per call; when the search scores K completions of the same
// sketch, the per-ACK dispatch loop (opcode switch, prologue broadcast,
// divergence check) repeats K times over identical instructions.
// EvalSeriesBatch amortizes it: the register file becomes lane-major
// ([reg][lane] structure-of-arrays, regs[r*K+l]), each instruction
// dispatches once per row and executes as a plain K-wide Go loop the
// compiler can vectorize, and the shared prologue columns broadcast once
// into all lanes. Divergence and clamping are per-lane: a lane that
// produces a non-finite window is masked out (its row/ok result records
// where, exactly like EvalSeries' early return) while the surviving lanes
// keep running. Per lane the arithmetic is the same IEEE operations in
// the same order as EvalSeries, so results are bit-identical lane by lane
// (FuzzEvalSeriesBatchVsScalar pins this).

// BatchExec is reusable scratch for EvalSeriesBatch: the lane-major
// register file, the K patched constant pools, and the per-lane liveness
// mask. A BatchExec must not be used concurrently but may be shared
// across programs and lane widths (buffers grow on demand).
type BatchExec struct {
	regs  []float64 // (len(insts)+1) * K, lane-major: register r, lane l at [r*K+l]
	pool  []float64 // len(pool) * K, lane-major
	alive []bool
	cwnds []float64 // per-lane seed windows for EvalSeriesBatch
}

// NewBatchExec returns empty scratch; buffers are sized on first use.
func NewBatchExec() *BatchExec { return &BatchExec{} }

// patchedPoolBatch builds the lane-major patched pool: slot s of lane l at
// pool[s*K+l]. Template values broadcast across lanes; each lane's vals
// fill its hole slots (a short or nil vals leaves NaN, as in patchedPool).
func (p *Program) patchedPoolBatch(valsK [][]float64, ex *BatchExec) []float64 {
	k := len(valsK)
	need := len(p.pool) * k
	if cap(ex.pool) < need {
		ex.pool = make([]float64, need)
	}
	pool := ex.pool[:need]
	for s, v := range p.pool {
		row := pool[s*k : s*k+k]
		for l := range row {
			row[l] = v
		}
	}
	for i, slot := range p.holes {
		row := pool[int(slot)*k : int(slot)*k+k]
		for l, vals := range valsK {
			if i < len(vals) {
				row[l] = vals[i]
			}
		}
	}
	return pool
}

// EvalSeriesBatch replays the program over every row of a segment for
// K = len(valsK) lanes at once, each lane being one constant-pool
// completion with its own window feedback. Lane l's synthesized window
// (divided by mss) lands in outs[l][:rows[l]]; rows[l] and oks[l] report
// exactly what EvalSeries(cols, pro, valsK[l], ...) would have returned —
// rows completed and whether the lane stayed finite. outs, rows, and oks
// must each have at least K entries; pro must come from RunPrologue on
// the same cols (computed on the fly when nil). A lane that diverges at
// row i leaves outs[l][i:] untouched and stops paying for further rows;
// the batch returns as soon as every lane is dead.
func (p *Program) EvalSeriesBatch(cols *Cols, pro *Prologue, valsK [][]float64, cwnd0, lo, hi, mss float64, outs [][]float64, rows []int, oks []bool, ex *BatchExec) {
	k := len(valsK)
	if k == 0 {
		return
	}
	if ex == nil {
		ex = NewBatchExec()
	}
	if cap(ex.cwnds) < k {
		ex.cwnds = make([]float64, k)
	}
	cwnds := ex.cwnds[:k]
	for l := range cwnds {
		cwnds[l] = cwnd0
	}
	p.EvalSeriesBatchFrom(cols, pro, valsK, 0, cols.N, cwnds, lo, hi, mss, outs, rows, oks, ex)
}

// EvalSeriesBatchFrom is EvalSeriesBatch resumed mid-segment, the batch
// form of EvalSeriesFrom: every lane replays rows [from, to) starting
// from window cwnds[l] and writes outs[l][from:to]. On return cwnds[l]
// holds lane l's window after its last completed row, rows[l] the row it
// reached (to, or the row that diverged) and oks[l] whether it stayed
// finite. The caller passes only live lanes; between calls it may drop
// lanes and compact the rest (valsK, cwnds and outs move together), since
// the window is all a lane carries from one row to the next.
func (p *Program) EvalSeriesBatchFrom(cols *Cols, pro *Prologue, valsK [][]float64, from, to int, cwnds []float64, lo, hi, mss float64, outs [][]float64, rows []int, oks []bool, ex *BatchExec) {
	k := len(valsK)
	if k == 0 {
		return
	}
	if ex == nil {
		ex = NewBatchExec()
	}
	if pro == nil {
		pro = p.RunPrologue(cols)
	}
	// As in EvalSeries, one spare register row past the file gives the
	// per-row window store an unconditional target even when the program
	// never reads cwnd.
	need := (len(p.insts) + 1) * k
	if cap(ex.regs) < need {
		ex.regs = make([]float64, need)
	}
	regs := ex.regs[:need]
	pool := p.patchedPoolBatch(valsK, ex)
	for _, in := range p.insts[:p.nConst] {
		copy(regs[int(in.dst)*k:int(in.dst)*k+k], pool[int(in.a)*k:int(in.a)*k+k])
	}
	if cap(ex.alive) < k {
		ex.alive = make([]bool, k)
	}
	alive := ex.alive[:k]
	for l := range alive {
		alive[l] = true
	}
	nAlive := k
	body := p.insts[p.nPro:]
	cwndReg := len(p.insts) // the spare row
	if len(body) > 0 && body[0].op == pCwnd {
		cwndReg = int(body[0].dst)
		body = body[1:]
	}
	cw := regs[cwndReg*k : cwndReg*k+k]
	copy(cw, cwnds[:k])
	live := p.liveIn
	proCols := pro.cols
	for i := from; i < to; i++ {
		for c, r := range live {
			v := proCols[c][i]
			row := regs[int(r)*k : int(r)*k+k]
			for l := range row {
				row[l] = v
			}
		}
		for _, in := range body {
			dst := regs[int(in.dst)*k : int(in.dst)*k+k]
			switch in.op {
			case pAdd:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] + b[l]
				}
			case pSub:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] - b[l]
				}
			case pMul:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] * b[l]
				}
			case pDiv:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] / b[l]
				}
			case pAddRMul:
				// float64() rounds the inner product explicitly, keeping the
				// compiler from contracting a + b*c into an FMA (same rule as
				// the scalar interpreters).
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] + float64(b[l]*c[l])
				}
			case pAddRDiv:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] + b[l]/c[l]
				}
			case pSubRMul:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] - float64(b[l]*c[l])
				}
			case pSubRDiv:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] - b[l]/c[l]
				}
			case pMulRMul:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] * (b[l] * c[l])
				}
			case pMulRDiv:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] * (b[l] / c[l])
				}
			case pDivRMul:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] / (b[l] * c[l])
				}
			case pDivRDiv:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = a[l] / (b[l] / c[l])
				}
			case pCube:
				a := regs[int(in.a)*k:][:len(dst)]
				for l := range dst {
					v := a[l]
					dst[l] = v * v * v
				}
			case pCbrt:
				a := regs[int(in.a)*k:][:len(dst)]
				for l := range dst {
					dst[l] = math.Cbrt(a[l])
				}
			case pLt:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				for l := range dst {
					dst[l] = ltStep(a[l], b[l])
				}
			case pGt:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				for l := range dst {
					dst[l] = gtStep(a[l], b[l])
				}
			case pModEq:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				for l := range dst {
					dst[l] = modEqStep(a[l], b[l])
				}
			case pSel:
				a := regs[int(in.a)*k:][:len(dst)]
				b := regs[int(in.b)*k:][:len(dst)]
				c := regs[int(in.c)*k:][:len(dst)]
				for l := range dst {
					dst[l] = selStep(a[l], b[l], c[l])
				}
			case pCwnd:
				copy(dst, cw)
			case pCol:
				v := cols.Sig[in.a][i]
				for l := range dst {
					dst[l] = v
				}
			case pConst:
				copy(dst, pool[int(in.a)*k:int(in.a)*k+k])
			}
		}
		outRow := regs[int(p.out)*k : int(p.out)*k+k]
		for l := 0; l < k; l++ {
			if !alive[l] {
				continue
			}
			v := outRow[l]
			// v-v is zero exactly when v is finite, as in EvalSeries. Dead
			// lanes keep computing harmlessly (IEEE arithmetic never traps);
			// only the finalize step is masked.
			if v-v != 0 {
				alive[l] = false
				rows[l] = i
				oks[l] = false
				cwnds[l] = cw[l]
				nAlive--
				continue
			}
			if v < lo {
				v = lo
			} else if v > hi {
				v = hi
			}
			cw[l] = v
			outs[l][i] = v / mss
		}
		if nAlive == 0 {
			return
		}
	}
	for l := 0; l < k; l++ {
		if alive[l] {
			rows[l] = to
			oks[l] = true
			cwnds[l] = cw[l]
		}
	}
}
