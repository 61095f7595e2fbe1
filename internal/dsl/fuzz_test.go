package dsl

import "testing"

// parseSeeds is FuzzParse's seed corpus.
func parseSeeds() []string {
	return append(append([]string{}, table2Exprs...),
		"c1*mss + c2", "((((", "cwnd ? 1 : 2", "-{x}", "1e309")
}

// FuzzParse feeds arbitrary strings to the expression parser: it must
// never panic, and anything it accepts must render and re-parse to a
// structurally identical tree.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		rendered := n.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("rendering of accepted %q -> %q does not re-parse: %v", src, rendered, err)
		}
		if !n.Equal(back) {
			t.Fatalf("round trip changed %q: %q vs %q", src, n, back)
		}
		// Simplify must not panic on any accepted expression and must not
		// grow it.
		s := Simplify(n)
		if s.Size() > n.Size() {
			t.Fatalf("Simplify grew %q -> %q", n, s)
		}
	})
}

// foldUnits folds the per-node unit rule bottom-up the way the enumerator
// does: each node's attribute from its operands' attributes alone.
func foldUnits(n *Node) UnitAttr {
	if n.Op.IsLeaf() {
		return LeafUnits(n)
	}
	kids := make([]UnitAttr, len(n.Kids))
	for i, k := range n.Kids {
		kids[i] = foldUnits(k)
	}
	return OpUnits(n.Op, kids...)
}

// FuzzUnitRule checks that the bottom-up fold of the per-node unit rule,
// which the enumerator uses, and the recursive UnitOf/CheckHandlerUnits,
// which report errors, accept and reject the same expressions and agree
// on the unit.
func FuzzUnitRule(f *testing.F) {
	for _, src := range parseSeeds() {
		f.Add(src)
	}
	// One seed per rule: products, cube and cube root, sums, branches,
	// comparisons, and predicates where numbers belong.
	for _, src := range []string{
		"cwnd*cwnd*cwnd*cwnd", "cube(ack-rate)", "cbrt(cwnd)", "cbrt(cube(rtt))",
		"cwnd + rtt", "{cwnd < mss} ? cwnd : rtt", "{cwnd < rtt} ? cwnd : mss",
		"({cwnd < mss})*mss", "cwnd + ({rtt < c1})", "c1*rtt", "rtt",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		fold := foldUnits(n)
		fu, ok := fold.Unit()
		u, err := UnitOf(n)
		if ok != (err == nil) {
			t.Fatalf("%q: fold accepts=%v, UnitOf error %v", src, ok, err)
		}
		if ok && fu != u {
			t.Fatalf("%q: fold unit %v, UnitOf %v", src, fu, u)
		}
		if herr := CheckHandlerUnits(n); fold.HandlerOK() != (herr == nil) {
			t.Fatalf("%q: fold handler-ok=%v, CheckHandlerUnits %v", src, fold.HandlerOK(), herr)
		}
	})
}

// TestUnitErrorReasons pins the user-facing ErrUnits text, which is
// rendered from the rule's fault only on the error path.
func TestUnitErrorReasons(t *testing.T) {
	for src, want := range map[string]string{
		"cwnd*cwnd*cwnd*cwnd":       `dsl: unit error at "cwnd*cwnd*cwnd*cwnd": exponent out of range`,
		"cwnd + cbrt(cwnd)":         `dsl: unit error at "cbrt(cwnd)": cube root of non-cubic dimension`,
		"{cwnd < mss} ? cwnd : rtt": `dsl: unit error at "{cwnd < mss} ? cwnd : rtt": branches bytes^1 and sec^1`,
		"({cwnd < mss})*mss":        `dsl: unit error at "cwnd < mss": boolean where number expected`,
		"{cwnd < rtt} ? cwnd : mss": `dsl: unit error at "cwnd < rtt": comparing bytes^1 and sec^1`,
		"rtt":                       `dsl: unit error at "rtt": handler produces sec^1, want bytes`,
	} {
		err := CheckHandlerUnits(MustParse(src))
		if err == nil || err.Error() != want {
			t.Errorf("CheckHandlerUnits(%q) = %v, want %s", src, err, want)
		}
		if _, ok := err.(*ErrUnits); !ok {
			t.Errorf("CheckHandlerUnits(%q) returned %T, want *ErrUnits", src, err)
		}
	}
}
