package corpus

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// encodeSnapshot gob-encodes a hand-built snapshot carrying the current
// version and opts' config hash, so only its sketches can be wrong.
func encodeSnapshot(t testing.TB, opts Options, buckets ...snapshotBucket) []byte {
	t.Helper()
	var buf bytes.Buffer
	sf := snapshotFile{
		Version: SnapshotVersion,
		Config:  opts.ConfigHash(),
		DSLName: opts.DSL.Name,
		Buckets: buckets,
	}
	if err := gob.NewEncoder(&buf).Encode(&sf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadSnapshotRejectsMalformedSketches pins the loader's validation of
// decoded sketches: each malformed tree is an error (never a panic, never
// a silent load), and Registry.Get falls back to a cold build over it.
func TestLoadSnapshotRejectsMalformedSketches(t *testing.T) {
	opts := snapOpts(nil)
	add := dsl.OpSet(0).With(dsl.OpAdd)
	leaves := dsl.OpSet(0)
	cases := []struct {
		name string
		ops  dsl.OpSet
		sk   *dsl.Node
	}{
		{"binary op without operands", add, &dsl.Node{Op: dsl.OpAdd}},
		{"binary op with one operand", add, &dsl.Node{Op: dsl.OpAdd, Kids: []*dsl.Node{dsl.Cwnd()}}},
		{"unknown op", leaves, &dsl.Node{Op: dsl.Op(99)}},
		{"invalid op", leaves, &dsl.Node{Op: dsl.OpInvalid}},
		{"leaf with an operand", leaves, &dsl.Node{Op: dsl.OpCwnd, Kids: []*dsl.Node{dsl.Hole()}}},
		{"cond with two operands", dsl.OpSet(0).With(dsl.OpCond).With(dsl.OpLt),
			&dsl.Node{Op: dsl.OpCond, Kids: []*dsl.Node{dsl.Lt(dsl.Cwnd(), dsl.Hole()), dsl.Cwnd()}}},
		{"comparison with three operands", dsl.OpSet(0).With(dsl.OpCond).With(dsl.OpLt),
			dsl.Cond(&dsl.Node{Op: dsl.OpLt, Kids: []*dsl.Node{dsl.Cwnd(), dsl.Hole(), dsl.Hole()}}, dsl.Cwnd(), dsl.Hole())},
		{"operator outside the DSL", leaves, dsl.Sig(dsl.SigRTT)},
		{"too deep for the DSL", add, dsl.Add(dsl.Add(dsl.Add(dsl.Cwnd(), dsl.Hole()), dsl.Hole()), dsl.Hole())},
		{"stored under another bucket", dsl.OpSet(0).With(dsl.OpMul), dsl.Add(dsl.Cwnd(), dsl.Hole())},
	}
	space, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	space.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if space.buckets[tc.ops] == nil {
				t.Fatalf("bucket %s is not in the DSL's space; the case would not reach sketch checks", tc.ops)
			}
			snap := encodeSnapshot(t, opts, snapshotBucket{Ops: tc.ops, Sketches: []*dsl.Node{tc.sk}})
			if c, err := LoadSnapshot(bytes.NewReader(snap), opts); err == nil {
				c.Close()
				t.Fatal("malformed sketch loaded without error")
			}

			dir := t.TempDir()
			reg := NewRegistry(dir, obs.New())
			defer reg.Close()
			if err := os.WriteFile(reg.snapshotPath(opts), snap, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Get(opts); err != nil {
				t.Fatalf("Registry.Get over a malformed snapshot: %v", err)
			}
			if got := reg.obsv.CounterValues("corpus.")["corpus.registry_builds"]; got != 1 {
				t.Errorf("corpus.registry_builds = %d, want a cold build", got)
			}
		})
	}

	// Control: the same shape well-formed loads.
	ok := encodeSnapshot(t, opts, snapshotBucket{Ops: add, Sketches: []*dsl.Node{dsl.Add(dsl.Cwnd(), dsl.Hole())}})
	c, err := LoadSnapshot(bytes.NewReader(ok), opts)
	if err != nil {
		t.Fatalf("well-formed sketch rejected: %v", err)
	}
	c.Close()
}

// FuzzLoadSnapshot feeds arbitrary bytes to the snapshot loader, seeded
// with a real Reno snapshot and truncated and bit-flipped copies of it.
// The invariant: an error or a corpus whose every sketch is well-formed,
// never a panic.
func FuzzLoadSnapshot(f *testing.F) {
	opts := snapOpts(nil)
	c, err := New(opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, ops := range c.Buckets() {
		c.Take(ops, 4, 0, 0)
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	c.Close()
	snap := buf.Bytes()
	f.Add(snap)
	for _, n := range []int{0, 1, len(snap) / 4, len(snap) / 2, len(snap) - 1} {
		f.Add(snap[:n])
	}
	for _, at := range []int{len(snap) / 3, len(snap) / 2, 2 * len(snap) / 3, len(snap) - 2} {
		flipped := bytes.Clone(snap)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadSnapshot(bytes.NewReader(data), opts)
		if err != nil {
			return
		}
		defer c.Close()
		for ops, b := range c.buckets {
			for _, sk := range b.cache {
				if err := checkSketch(opts.DSL, ops, sk); err != nil {
					t.Fatalf("loaded an invalid sketch: %v", err)
				}
			}
		}
	})
}
