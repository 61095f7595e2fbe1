package dsl

import (
	"math"
	"testing"
)

// batchCols builds a synthetic segment spanning the regimes that matter
// for divergence and clamping (zero ack-rate rows poison divisions).
func batchCols(rows int) *Cols {
	const mss = 1448.0
	cols := &Cols{N: rows}
	for s := range cols.Sig {
		cols.Sig[s] = make([]float64, rows)
	}
	for i := 0; i < rows; i++ {
		e := env()
		e.Acked = mss * float64(1+i%3)
		e.RTT = 0.040 + 0.001*float64(i)
		e.TimeSinceLoss = 0.1 * float64(i)
		if i%17 == 11 {
			e.AckRate = 0
		}
		for s := SigMSS; s <= SigWMax; s++ {
			cols.Sig[s][i] = e.signal(s)
		}
	}
	return cols
}

// checkBatchVsScalar runs EvalSeriesBatch on valsK and requires every
// lane — rows completed, ok flag, and output prefix — to bit-match the AST
// oracle's replay of the same completion (n bound to that lane's
// constants), and the scalar EvalSeries of the lane to match it too.
func checkBatchVsScalar(t *testing.T, n *Node, cols *Cols, valsK [][]float64, label string) {
	t.Helper()
	const mss = 1448.0
	lo, hi := mss, float64(1<<20)*mss
	k := len(valsK)
	p := CompileProgram(n)
	pro := p.RunPrologue(cols)

	outs := make([][]float64, k)
	rows := make([]int, k)
	oks := make([]bool, k)
	for l := range outs {
		outs[l] = make([]float64, cols.N)
	}
	p.EvalSeriesBatch(cols, pro, valsK, 20*mss, lo, hi, mss, outs, rows, oks, NewBatchExec())

	ex := NewExec()
	want := make([]float64, cols.N)
	scalar := make([]float64, cols.N)
	for l := 0; l < k; l++ {
		bound, err := n.Bind(valsK[l])
		if err != nil {
			t.Fatalf("%s lane %d: Bind: %v", label, l, err)
		}
		wr, wok := astSeries(bound, cols, 20*mss, lo, hi, mss, want)
		sr, sok := p.EvalSeries(cols, pro, valsK[l], 20*mss, lo, hi, mss, scalar, ex)
		if rows[l] != wr || oks[l] != wok || sr != wr || sok != wok {
			t.Fatalf("%s lane %d/%d: batch = (%d,%v), scalar = (%d,%v), AST = (%d,%v)",
				label, l, k, rows[l], oks[l], sr, sok, wr, wok)
		}
		for i := 0; i < wr; i++ {
			w := math.Float64bits(want[i])
			if math.Float64bits(outs[l][i]) != w || math.Float64bits(scalar[i]) != w {
				t.Fatalf("%s lane %d/%d row %d: batch %x, scalar %x, AST %x", label, l, k, i,
					math.Float64bits(outs[l][i]), math.Float64bits(scalar[i]), w)
			}
		}
	}
}

// TestEvalSeriesBatchMatchesScalar pins the lane-batched VM and EvalSeries
// against the AST oracle for the Table 2 handlers, diverging handlers, and sketches
// with per-lane constants, across lane widths including partial batches.
func TestEvalSeriesBatchMatchesScalar(t *testing.T) {
	cols := batchCols(40)
	exprs := append([]string{}, table2Exprs...)
	exprs = append(exprs, "cwnd - 2*mss", "cwnd/0", "cwnd + rtt-gradient*ack-rate")
	for _, src := range exprs {
		n := MustParse(src)
		for _, k := range []int{1, 2, 8, 16} {
			valsK := make([][]float64, k)
			checkBatchVsScalar(t, n, cols, valsK, src)
		}
	}

	// Sketch with one hole: lanes carry different constants, including ones
	// that diverge at different rows (negative factors drive cwnd to the lo
	// clamp; huge ones to hi; NaN poisons immediately).
	sk := MustParse("cwnd + c1*reno-inc")
	valsK := [][]float64{{1}, {0.5}, {-10}, {math.NaN()}, {1e300}, {0}, {math.Inf(1)}, {2}}
	for _, k := range []int{1, 3, 8} {
		checkBatchVsScalar(t, sk, cols, valsK[:k], "cwnd + c1*reno-inc")
	}

	// Two-hole conditional sketch.
	sk2 := MustParse("cwnd + ({vegas-diff < c1} ? c2*reno-inc : 0)")
	vals2 := [][]float64{{0, 1}, {1e-3, 0.5}, {math.Inf(-1), 2}, {5, math.NaN()}}
	checkBatchVsScalar(t, sk2, cols, vals2, "cond sketch")
}

// TestEvalSeriesFromPiecesMatchWhole pins the resumable VM: replaying a
// segment in pieces, each resuming from the windows the last one left and
// dropping and compacting the lanes that diverged, reproduces a whole-
// segment replay bit for bit, in the batch and the scalar forms.
func TestEvalSeriesFromPiecesMatchWhole(t *testing.T) {
	const mss = 1448.0
	lo, hi := mss, float64(1<<20)*mss
	cols := batchCols(40)
	sk := MustParse("cwnd + c1*reno-inc")
	p := CompileProgram(sk)
	pro := p.RunPrologue(cols)
	valsK := [][]float64{{1}, {0.5}, {math.NaN()}, {-10}, {1e300}, {math.Inf(1)}, {2}, {0}}
	k := len(valsK)
	wantOuts := make([][]float64, k)
	for l := range wantOuts {
		wantOuts[l] = make([]float64, cols.N)
	}
	wantRows, wantOKs := make([]int, k), make([]bool, k)
	p.EvalSeriesBatch(cols, pro, valsK, 20*mss, lo, hi, mss, wantOuts, wantRows, wantOKs, nil)

	cuts := []int{0, 1, 7, 8, 23, cols.N}
	gotOuts := make([][]float64, k)
	gotRows, gotOKs := make([]int, k), make([]bool, k)
	live := make([]int, k)
	cws := make([]float64, k)
	for l := range live {
		live[l], cws[l] = l, 20*mss
		gotOuts[l] = make([]float64, cols.N)
		gotRows[l], gotOKs[l] = cols.N, true
	}
	ex := NewBatchExec()
	for c := 1; c < len(cuts) && len(live) > 0; c++ {
		vals := make([][]float64, len(live))
		outs := make([][]float64, len(live))
		for j, l := range live {
			vals[j], outs[j] = valsK[l], gotOuts[l]
		}
		rows, oks := make([]int, len(live)), make([]bool, len(live))
		p.EvalSeriesBatchFrom(cols, pro, vals, cuts[c-1], cuts[c], cws[:len(live)], lo, hi, mss, outs, rows, oks, ex)
		w := 0
		for j, l := range live {
			if !oks[j] {
				gotRows[l], gotOKs[l] = rows[j], false
				continue
			}
			if rows[j] != cuts[c] {
				t.Fatalf("lane %d piece %d: reached row %d, want %d", l, c, rows[j], cuts[c])
			}
			live[w], cws[w] = l, cws[j]
			w++
		}
		live = live[:w]
	}
	ex1 := NewExec()
	for l := 0; l < k; l++ {
		if gotRows[l] != wantRows[l] || gotOKs[l] != wantOKs[l] {
			t.Fatalf("lane %d: pieces (%d,%v), whole (%d,%v)", l, gotRows[l], gotOKs[l], wantRows[l], wantOKs[l])
		}
		scalar := make([]float64, cols.N)
		cw, row, ok := 20*mss, 0, true
		for c := 1; c < len(cuts) && ok; c++ {
			row, cw, ok = p.EvalSeriesFrom(cols, pro, valsK[l], cuts[c-1], cuts[c], cw, lo, hi, mss, scalar, ex1)
		}
		if row != wantRows[l] || ok != wantOKs[l] {
			t.Fatalf("lane %d: scalar pieces (%d,%v), whole (%d,%v)", l, row, ok, wantRows[l], wantOKs[l])
		}
		for i := 0; i < wantRows[l]; i++ {
			w := math.Float64bits(wantOuts[l][i])
			if math.Float64bits(gotOuts[l][i]) != w || math.Float64bits(scalar[i]) != w {
				t.Fatalf("lane %d row %d: batch pieces %v, scalar pieces %v, whole %v", l, i, gotOuts[l][i], scalar[i], wantOuts[l][i])
			}
		}
	}
}

// TestEvalSeriesBatchZeroLanes: a zero-width batch is a no-op.
func TestEvalSeriesBatchZeroLanes(t *testing.T) {
	cols := batchCols(8)
	p := CompileProgram(MustParse("cwnd + reno-inc"))
	p.EvalSeriesBatch(cols, nil, nil, 20*1448, 1448, 1448*(1<<20), 1448, nil, nil, nil, nil)
}

// FuzzEvalSeriesBatchVsScalar is the batch path's exactness oracle: for
// arbitrary programs, lane widths, and per-lane constants, every lane of
// EvalSeriesBatch (and the scalar EvalSeries of the same completion) must
// bit-match a Node.Eval replay of that completion — rows completed,
// divergence flag, and output series.
func FuzzEvalSeriesBatchVsScalar(f *testing.F) {
	f.Add([]byte("reno"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{6, 2, 1, 0, 3, 1, 2, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{8, 3, 200, 100, 50, 25, 12, 6, 3, 1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	cols := batchCols(24)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fz{data: data}
		n := genNode(fr, 0)
		k := 1 + int(fr.byte()%16)
		valsK := make([][]float64, k)
		for l := range valsK {
			vals := make([]float64, n.Holes())
			for i := range vals {
				vals[i] = fr.f64()
			}
			valsK[l] = vals
		}
		checkBatchVsScalar(t, n, cols, valsK, n.String())
	})
}
