package dsl

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

// progEnvs is a grid of evaluation environments spanning the regimes that
// matter for bit-exactness: the nominal env, zeros that poison divisions,
// RTT == MinRTT (vegas-diff 0), and non-finite signals.
func progEnvs() []*Env {
	nominal := env()
	zeroCwnd := env()
	zeroCwnd.Cwnd = 0
	zeroRTT := env()
	zeroRTT.RTT, zeroRTT.MinRTT, zeroRTT.MaxRTT = 0, 0, 0
	flatRTT := env()
	flatRTT.RTT = flatRTT.MinRTT
	nanSig := env()
	nanSig.AckRate = math.NaN()
	infSig := env()
	infSig.WMax = math.Inf(1)
	tiny := &Env{Cwnd: 1, MSS: 1, Acked: 1, RTT: 1e-9, MinRTT: 1e-9, MaxRTT: 1e-9, AckRate: 1}
	return []*Env{nominal, zeroCwnd, zeroRTT, flatRTT, nanSig, infSig, tiny}
}

// evalRow evaluates p at one environment through the production entry
// point: a one-row EvalSeries seeded with e.Cwnd, with the clamp opened
// to [-Inf, +Inf] and mss 1, so the row's output is the handler's raw
// value.
func evalRow(p *Program, e *Env, vals []float64) (float64, bool) {
	cols := &Cols{N: 1}
	for s := SigMSS; s <= SigWMax; s++ {
		cols.Sig[s] = []float64{e.signal(s)}
	}
	var out [1]float64
	_, ok := p.EvalSeries(cols, nil, vals, e.Cwnd, math.Inf(-1), math.Inf(1), 1, out[:], nil)
	return out[0], ok
}

// rowEnv is the environment Node.Eval sees at row i of cols with the
// given window.
func rowEnv(cols *Cols, i int, cwnd float64) *Env {
	return &Env{
		Cwnd:          cwnd,
		MSS:           cols.Sig[SigMSS][i],
		Acked:         cols.Sig[SigAcked][i],
		TimeSinceLoss: cols.Sig[SigTimeSinceLoss][i],
		RTT:           cols.Sig[SigRTT][i],
		MinRTT:        cols.Sig[SigMinRTT][i],
		MaxRTT:        cols.Sig[SigMaxRTT][i],
		AckRate:       cols.Sig[SigAckRate][i],
		RTTGradient:   cols.Sig[SigRTTGradient][i],
		WMax:          cols.Sig[SigWMax][i],
	}
}

// astSeries is the oracle replay EvalSeries is pinned against: Node.Eval
// per row with window feedback, replay's Min/Max clamp, and the output in
// mss units. It returns the rows completed and ok=false on the first
// non-finite window, like EvalSeries.
func astSeries(n *Node, cols *Cols, cwnd0, lo, hi, mss float64, out []float64) (int, bool) {
	cwnd := cwnd0
	for i := 0; i < cols.N; i++ {
		v, err := n.Eval(rowEnv(cols, i, cwnd))
		if err != nil {
			return i, false
		}
		cwnd = math.Min(math.Max(v, lo), hi)
		out[i] = cwnd / mss
	}
	return cols.N, true
}

// agree checks the register VM against the AST oracle: bit-identical
// (value, ok) at one env.
func agree(t *testing.T, n *Node, e *Env, label string) {
	t.Helper()
	ev, errEv := n.Eval(e)
	okEv := errEv == nil
	pv, okP := evalRow(CompileProgram(n), e, nil)
	if okEv != okP {
		t.Fatalf("%s: ok mismatch: Eval %v, Program %v", label, okEv, okP)
	}
	if okEv && math.Float64bits(ev) != math.Float64bits(pv) {
		t.Fatalf("%s: value mismatch: Eval %x, Program %x",
			label, math.Float64bits(ev), math.Float64bits(pv))
	}
}

func TestProgramMatchesEvalOnTable2(t *testing.T) {
	for _, src := range table2Exprs {
		n := MustParse(src)
		for i, e := range progEnvs() {
			agree(t, n, e, src+" env#"+string(rune('0'+i)))
		}
	}
}

// TestProgramHolePatching: evaluating a sketch's program with patched
// constants must bit-match compiling the Bind-bound tree — the property
// that lets the Scorer reuse one program across all completions.
func TestProgramHolePatching(t *testing.T) {
	sketches := []string{
		"cwnd + c1*reno-inc",
		"cwnd + ({vegas-diff < c1} ? c2*reno-inc : 0)",
		"c1*mss + c2*mss",
		"{rtts-since-loss % c1 = 0} ? c2*cwnd : mss",
	}
	valSets := [][]float64{{0.7, 2}, {1, 0.5}, {0, 0}, {-3, 8}, {math.Pi, 1e-3}}
	for _, src := range sketches {
		sk := MustParse(src)
		ps := CompileProgram(sk)
		for _, vals := range valSets {
			vals := vals[:sk.Holes()]
			bound, err := sk.Bind(vals)
			if err != nil {
				t.Fatalf("Bind(%q, %v): %v", src, vals, err)
			}
			pb := CompileProgram(bound)
			for _, e := range progEnvs() {
				agree(t, bound, e, src)
				v1, ok1 := evalRow(ps, e, vals)
				v2, ok2 := evalRow(pb, e, nil)
				if ok1 != ok2 || (ok1 && math.Float64bits(v1) != math.Float64bits(v2)) {
					t.Fatalf("%q vals %v: patched (%v,%v) != bound (%v,%v)", src, vals, v1, ok1, v2, ok2)
				}
			}
		}
		// An unpatched sketch must fail evaluation, like Node.Eval.
		if _, ok := evalRow(ps, env(), nil); ok {
			t.Errorf("%q: unpatched sketch evaluated ok", src)
		}
	}
}

// TestProgramHoisting sanity-checks the partition: in `cwnd + c1*reno-inc`
// the acked*mss product is window-free but reno-inc's division is not, so
// both the prologue and the suffix must be non-empty, and the hole count
// must match the sketch's.
func TestProgramHoisting(t *testing.T) {
	p := CompileProgram(MustParse("cwnd + c1*reno-inc"))
	if p.Holes() != 1 {
		t.Errorf("Holes = %d, want 1", p.Holes())
	}
	if p.PrologueLen() == 0 {
		t.Errorf("no instructions hoisted into the prologue")
	}
	if p.SuffixLen() == 0 {
		t.Errorf("empty per-ACK suffix")
	}
	if p.PrologueLen()+p.SuffixLen() >= p.NumInsts() {
		t.Errorf("constant section empty: prologue %d + suffix %d vs total %d",
			p.PrologueLen(), p.SuffixLen(), p.NumInsts())
	}

	// A window-free handler hoists everything: the suffix is empty and the
	// result is a prologue (or constant) register.
	flat := CompileProgram(MustParse("2*mss"))
	if flat.SuffixLen() != 0 {
		t.Errorf("window-free handler has %d suffix instructions", flat.SuffixLen())
	}
}

// TestProgramEvalSeries replays programs over a synthetic segment and
// compares against the AST oracle replay with the same clamp and
// divergence rules.
func TestProgramEvalSeries(t *testing.T) {
	const mss = 1448.0
	lo, hi := mss, float64(1<<20)*mss
	const rows = 40
	cols := &Cols{N: rows}
	for s := range cols.Sig {
		cols.Sig[s] = make([]float64, rows)
	}
	for i := 0; i < rows; i++ {
		e := env()
		e.Acked = mss * float64(1+i%3)
		e.RTT = 0.040 + 0.001*float64(i)
		e.TimeSinceLoss = 0.1 * float64(i)
		if i == 25 {
			e.AckRate = 0 // exercises divisions by zero downstream
		}
		for s := SigMSS; s <= SigWMax; s++ {
			cols.Sig[s][i] = e.signal(s)
		}
	}
	exprs := append([]string{}, table2Exprs...)
	exprs = append(exprs, "cwnd - 2*mss", "cwnd/0", "cwnd + rtt-gradient*ack-rate")
	for _, src := range exprs {
		n := MustParse(src)
		wantOut := make([]float64, rows)
		wantRows, wantOK := astSeries(n, cols, 20*mss, lo, hi, mss, wantOut)

		p := CompileProgram(n)
		gotOut := make([]float64, rows)
		pro := p.RunPrologue(cols)
		gotRows, gotOK := p.EvalSeries(cols, pro, nil, 20*mss, lo, hi, mss, gotOut, NewExec())
		if gotRows != wantRows || gotOK != wantOK {
			t.Errorf("%q: EvalSeries = (%d,%v), want (%d,%v)", src, gotRows, gotOK, wantRows, wantOK)
			continue
		}
		for i := 0; i < wantRows; i++ {
			if math.Float64bits(gotOut[i]) != math.Float64bits(wantOut[i]) {
				t.Errorf("%q row %d: VM %v != AST %v", src, i, gotOut[i], wantOut[i])
				break
			}
		}
		// nil prologue and nil Exec must behave identically.
		gotOut2 := make([]float64, rows)
		r2, ok2 := p.EvalSeries(cols, nil, nil, 20*mss, lo, hi, mss, gotOut2, nil)
		if r2 != wantRows || ok2 != wantOK {
			t.Errorf("%q: EvalSeries(nil pro) = (%d,%v), want (%d,%v)", src, r2, ok2, wantRows, wantOK)
		}
	}
}

// evalCorpus exercises every operator, signal and macro.
var evalCorpus = []string{
	"cwnd",
	"mss",
	"acked",
	"time-since-loss",
	"rtt",
	"min-rtt",
	"max-rtt",
	"ack-rate",
	"rtt-gradient",
	"wmax",
	"reno-inc",
	"vegas-diff",
	"htcp-diff",
	"rtts-since-loss",
	"cwnd + 0.7*reno-inc",
	"cwnd - mss",
	"cwnd/rtt*min-rtt",
	"cube(time-since-loss) + cbrt(wmax)",
	"{vegas-diff < 1} ? cwnd + mss : cwnd - mss",
	"{vegas-diff > 5} ? mss : cwnd",
	"min-rtt*ack-rate*({rtts-since-loss % 8 = 0} ? 2.6 : 2.05)",
	"wmax + cube(11*time-since-loss - cbrt(0.3*wmax))",
	"{cwnd % 2.7 = 0} ? 2.05*cwnd : mss",
}

// randEnv builds a random but physically-plausible environment.
func randEnv(rng *rand.Rand) *Env {
	minRTT := 0.01 + rng.Float64()*0.1
	return &Env{
		Cwnd:          1448 * (1 + rng.Float64()*100),
		MSS:           1448,
		Acked:         1448 * rng.Float64() * 4,
		TimeSinceLoss: rng.Float64() * 20,
		RTT:           minRTT + rng.Float64()*0.1,
		MinRTT:        minRTT,
		MaxRTT:        minRTT + 0.1 + rng.Float64()*0.1,
		AckRate:       1e4 + rng.Float64()*3e6,
		RTTGradient:   (rng.Float64() - 0.5) * 2,
		WMax:          1448 * (1 + rng.Float64()*100),
	}
}

// Property: the compiled register program agrees exactly with Eval on
// every corpus expression over random environments — both value and
// error behavior.
func TestQuickCompileMatchesEval(t *testing.T) {
	nodes := make([]*Node, len(evalCorpus))
	for i, src := range evalCorpus {
		nodes[i] = MustParse(src)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env := randEnv(rng)
		for _, n := range nodes {
			ev, everr := n.Eval(env)
			pv, ok := evalRow(CompileProgram(n), env, nil)
			if (everr == nil) != ok {
				return false
			}
			if everr == nil && math.Float64bits(ev) != math.Float64bits(pv) {
				// Identical operation order: must match bit-for-bit.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCompileGuards: a compiled program reports divisions and moduli by
// zero as evaluation failures, like Eval.
func TestCompileGuards(t *testing.T) {
	e := env()
	e.Cwnd = 0
	if _, ok := evalRow(CompileProgram(MustParse("cwnd + reno-inc")), e, nil); ok {
		t.Error("compiled division by zero not caught")
	}
	if _, ok := evalRow(CompileProgram(MustParse("{cwnd % 0 = 0} ? 1 : 2")), env(), nil); ok {
		t.Error("compiled modulo by zero not caught")
	}
}

func BenchmarkEvalInterpreted(b *testing.B) {
	n := MustParse("cwnd + reno-inc*({vegas-diff < 0.7} ? 0.35 : 0.16)")
	e := env()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Eval(e); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompileNonFinitePropagation(t *testing.T) {
	// Inner NaN must poison the whole expression, same as Eval.
	e := env()
	e.RTT = math.NaN()
	n := MustParse("cwnd + rtt*ack-rate")
	_, everr := n.Eval(e)
	_, ok := evalRow(CompileProgram(n), e, nil)
	if (everr == nil) != ok {
		t.Errorf("NaN propagation differs: eval err=%v compiled ok=%v", everr, ok)
	}
}

func TestObserveProgsCompiled(t *testing.T) {
	reg := obs.New()
	Observe(reg)
	defer Observe(nil)
	CompileProgram(MustParse("cwnd + reno-inc"))
	CompileProgram(MustParse("mss"))
	if got := reg.Report().Counters["dsl.progs_compiled"]; got != 2 {
		t.Errorf("dsl.progs_compiled = %d, want 2", got)
	}
}

// fz drains fuzz bytes; exhausted input yields zeros so every prefix is a
// valid program description.
type fz struct {
	data []byte
	i    int
}

func (f *fz) byte() byte {
	if f.i >= len(f.data) {
		return 0
	}
	b := f.data[f.i]
	f.i++
	return b
}

func (f *fz) f64() float64 {
	switch f.byte() % 4 {
	case 0: // small non-negative halves, including 0
		return float64(f.byte()%16) / 2
	case 1: // small negatives
		return -float64(f.byte() % 8)
	case 2: // raw bits: subnormals, NaN, Inf all possible
		var buf [8]byte
		for i := range buf {
			buf[i] = f.byte()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	default: // byte-ish magnitudes scaled to MSS units
		return float64(f.byte()) * 1448
	}
}

// genNode builds a structurally valid expression (booleans only in
// conditional predicates, as Parse guarantees).
func genNode(f *fz, depth int) *Node {
	leaf := func() *Node {
		switch f.byte() % 5 {
		case 0:
			return Cwnd()
		case 1:
			return Sig(Signal(f.byte() % 9))
		case 2:
			return Mac(Macro(f.byte() % 4))
		case 3:
			return Hole()
		default:
			return Lit(f.f64())
		}
	}
	if depth >= 4 {
		return leaf()
	}
	switch f.byte() % 9 {
	case 0:
		return Add(genNode(f, depth+1), genNode(f, depth+1))
	case 1:
		return Sub(genNode(f, depth+1), genNode(f, depth+1))
	case 2:
		return Mul(genNode(f, depth+1), genNode(f, depth+1))
	case 3:
		return Div(genNode(f, depth+1), genNode(f, depth+1))
	case 4:
		return Cube(genNode(f, depth+1))
	case 5:
		return Cbrt(genNode(f, depth+1))
	case 6, 7:
		var pred *Node
		a, b := genNode(f, depth+1), genNode(f, depth+1)
		switch f.byte() % 3 {
		case 0:
			pred = Lt(a, b)
		case 1:
			pred = Gt(a, b)
		default:
			pred = ModEq(a, b)
		}
		return Cond(pred, genNode(f, depth+1), genNode(f, depth+1))
	default:
		return leaf()
	}
}

// FuzzProgramVsEval is the register VM's exactness oracle: for arbitrary
// expressions and environments, a one-row EvalSeries must bit-match
// Node.Eval — value, ok flag, and NaN propagation — both directly and
// through the sketch-patching path.
func FuzzProgramVsEval(f *testing.F) {
	f.Add([]byte("reno"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{6, 2, 1, 0, 3, 1, 2, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{8, 3, 200, 100, 50, 25, 12, 6, 3, 1, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fz{data: data}
		n := genNode(fr, 0)
		e := &Env{
			Cwnd:          fr.f64(),
			MSS:           fr.f64(),
			Acked:         fr.f64(),
			TimeSinceLoss: fr.f64(),
			RTT:           fr.f64(),
			MinRTT:        fr.f64(),
			MaxRTT:        fr.f64(),
			AckRate:       fr.f64(),
			RTTGradient:   fr.f64(),
			WMax:          fr.f64(),
		}
		agree(t, n, e, n.String())
		if h := n.Holes(); h > 0 {
			vals := make([]float64, h)
			for i := range vals {
				vals[i] = fr.f64()
			}
			bound, err := n.Bind(vals)
			if err != nil {
				t.Fatalf("Bind: %v", err)
			}
			agree(t, bound, e, bound.String())
			v1, ok1 := evalRow(CompileProgram(n), e, vals)
			v2, ok2 := evalRow(CompileProgram(bound), e, nil)
			if ok1 != ok2 || (ok1 && math.Float64bits(v1) != math.Float64bits(v2)) {
				t.Fatalf("%s: patched (%v,%v) != bound (%v,%v)", n, v1, ok1, v2, ok2)
			}
		}
	})
}
