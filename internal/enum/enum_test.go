package enum

import (
	"testing"

	"repro/internal/dsl"
)

func TestRenoSpaceIsFiniteAndClean(t *testing.T) {
	e := New(dsl.Reno())
	seen := map[string]bool{}
	n := 0
	for sk := range e.All() {
		n++
		key := sk.Key()
		if seen[key] {
			t.Fatalf("duplicate sketch %q", sk)
		}
		seen[key] = true
		if !dsl.IsCanonical(sk) {
			t.Fatalf("non-canonical sketch emitted: %q", sk)
		}
		if err := dsl.CheckHandlerUnits(sk); err != nil {
			t.Fatalf("unit-violating sketch emitted: %q (%v)", sk, err)
		}
		if err := e.D.Admits(sk); err != nil {
			t.Fatalf("out-of-DSL sketch emitted: %q (%v)", sk, err)
		}
		if n > 2_000_000 {
			t.Fatal("runaway enumeration")
		}
	}
	// The paper prunes the Reno-DSL depth-3 space to 1,617 sketches; our
	// canonicalization differs in detail, but the space must be the same
	// order of magnitude.
	if n < 100 || n > 100000 {
		t.Errorf("Reno depth-3 space = %d sketches, out of plausible range", n)
	}
	t.Logf("Reno-DSL depth-3 viable sketches: %d", n)
}

func TestCountMatchesAll(t *testing.T) {
	e := New(dsl.Reno())
	n := 0
	for range e.All() {
		n++
	}
	if got := e.Count(); got != n {
		t.Errorf("Count() = %d, iteration = %d", got, n)
	}
}

func TestEnumerationIsDeterministic(t *testing.T) {
	e := New(dsl.Reno())
	var first, second []string
	i := 0
	for sk := range e.All() {
		first = append(first, sk.String())
		if i++; i >= 500 {
			break
		}
	}
	i = 0
	for sk := range e.All() {
		second = append(second, sk.String())
		if i++; i >= 500 {
			break
		}
	}
	for j := range first {
		if first[j] != second[j] {
			t.Fatalf("order differs at %d: %q vs %q", j, first[j], second[j])
		}
	}
}

func TestBucketsPartitionTheSpace(t *testing.T) {
	e := New(dsl.Reno())
	total := e.Count()
	keys := e.Buckets()
	if len(keys) < 10 {
		t.Fatalf("only %d buckets", len(keys))
	}
	sum := 0
	for _, key := range keys {
		for sk := range e.Bucket(key) {
			if sk.Ops() != key {
				t.Fatalf("sketch %q (ops %v) in bucket %v", sk, sk.Ops(), key)
			}
			sum++
		}
	}
	if sum != total {
		t.Errorf("buckets sum to %d sketches, space has %d", sum, total)
	}
	t.Logf("Reno-DSL: %d sketches across %d bucket keys", total, len(keys))
}

func TestBucketKeysUniqueAndFeasible(t *testing.T) {
	e := New(dsl.Vegas())
	keys := e.Buckets()
	seen := map[dsl.OpSet]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate bucket key %v", k)
		}
		seen[k] = true
		// Cond and predicates come together.
		hasBool := k.Has(dsl.OpLt) || k.Has(dsl.OpModEq)
		if k.Has(dsl.OpCond) != hasBool {
			t.Errorf("infeasible bucket key %v", k)
		}
	}
}

func TestEmptyBucketHoldsLeaves(t *testing.T) {
	e := New(dsl.Reno())
	var leaves []*dsl.Node
	for sk := range e.Bucket(dsl.OpSet(0)) {
		leaves = append(leaves, sk)
		if sk.Size() != 1 {
			t.Errorf("empty bucket contains compound %q", sk)
		}
	}
	// cwnd is the only unit-correct leaf (bytes); mss and acked too.
	if len(leaves) < 2 {
		t.Errorf("empty bucket has %d sketches", len(leaves))
	}
}

func TestRenoSketchIsEnumerated(t *testing.T) {
	// The canonical Reno sketch cwnd + c*reno-inc must be in the space.
	want := dsl.MustParse("cwnd + c1*reno-inc")
	e := New(dsl.Reno())
	found := false
	for sk := range e.All() {
		if sk.Equal(want) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("space does not contain %q", want)
	}
}

func TestBucketOfRenoSketch(t *testing.T) {
	want := dsl.MustParse("cwnd + c1*reno-inc")
	e := New(dsl.Reno())
	found := false
	for sk := range e.Bucket(want.Ops()) {
		if sk.Equal(want) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("bucket %v does not contain %q", want.Ops(), want)
	}
}

func TestEarlyStop(t *testing.T) {
	e := New(dsl.Vegas())
	n := 0
	for range e.All() {
		n++
		if n >= 10 {
			break
		}
	}
	if n != 10 {
		t.Errorf("early stop yielded %d", n)
	}
}

func TestCubicDSLSkipsUnitCheck(t *testing.T) {
	// cwnd + cube(time-since-loss) violates units but the cubic DSL
	// disables the checker, so the shape must appear.
	want := dsl.MustParse("cwnd + cube(time-since-loss)")
	e := New(dsl.Cubic())
	found := false
	n := 0
	for sk := range e.All() {
		if sk.Equal(want) {
			found = true
			break
		}
		if n++; n > 3_000_000 {
			break
		}
	}
	if !found {
		t.Errorf("cubic space does not contain %q", want)
	}
}

func TestVegasSketchReachable(t *testing.T) {
	want := dsl.MustParse("cwnd + ({vegas-diff < c1} ? c2*reno-inc : c3)")
	e := New(dsl.Vegas())
	if err := e.D.Admits(want); err != nil {
		t.Fatalf("vegas DSL rejects target: %v", err)
	}
	found := false
	n := 0
	for sk := range e.Bucket(want.Ops()) {
		if sk.Equal(want) {
			found = true
			break
		}
		if n++; n > 5_000_000 {
			t.Log("bucket larger than probe budget; giving up search")
			break
		}
	}
	if !found {
		t.Errorf("vegas bucket %v does not contain %q within budget", want.Ops(), want)
	}
}

func TestMaxNodesBudgetRespected(t *testing.T) {
	d := dsl.Reno()
	d.MaxNodes = 5
	e := New(d)
	for sk := range e.All() {
		if sk.Size() > 5 {
			t.Fatalf("sketch %q exceeds node budget", sk)
		}
	}
}

func BenchmarkEnumerateReno(b *testing.B) {
	e := New(dsl.Reno())
	for i := 0; i < b.N; i++ {
		n := 0
		for range e.All() {
			n++
		}
	}
}

// TestStreamedBanksGiveTheSameStream caps the trees an enumeration may
// bank, so that every bank (cap 0) or every bank past the first few (cap
// 64) streams — regenerates its trees on each use, the way the generator
// worked before banks — and checks that the yield stream and the
// scan-budget spend of every bucket equal the fully banked run's, which
// TestEnumerationStreamGolden pins.
func TestStreamedBanksGiveTheSameStream(t *testing.T) {
	for _, d := range []*dsl.DSL{dsl.Reno(), dsl.Vegas(), dsl.Delay()} {
		banked := digestStream(d)
		for _, limit := range []int{0, 64} {
			func() {
				defer func(n int) { maxBanked = n }(maxBanked)
				maxBanked = limit
				got := digestStream(d)
				if got.hash != banked.hash || got.sketches != banked.sketches ||
					bucketCandidateHash(got.perBucket) != bucketCandidateHash(banked.perBucket) ||
					got.exhausted != banked.exhausted {
					t.Errorf("%s, at most %d banked trees: stream %+v, want %+v", d.Name, limit, got, banked)
				}
			}()
		}
	}
}
