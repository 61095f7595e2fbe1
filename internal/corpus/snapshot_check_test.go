package corpus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// encodeSnapshot encodes a hand-built snapshot carrying the current
// version, opts' config hash and a valid checksum, so only its sketches
// can be wrong.
func encodeSnapshot(t testing.TB, opts Options, buckets ...snapshotBucket) []byte {
	t.Helper()
	var buf bytes.Buffer
	sf := snapshotFile{
		Version: SnapshotVersion,
		Config:  opts.ConfigHash(),
		DSLName: opts.DSL.Name,
		Buckets: buckets,
	}
	if err := writeSnapshotFile(&buf, &sf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reframe returns data with its first four bytes replaced by the checksum
// of the rest, so a corrupted payload gets past the checksum to the
// decoder and the sketch checks.
func reframe(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := bytes.Clone(data)
	binary.BigEndian.PutUint32(out, crc32.Checksum(out[4:], snapshotCRC))
	return out
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

// TestLoadSnapshotRejectsBucketShape: a bucket stored twice, or holding
// more sketches than the corpus cap allows, is rejected even when every
// sketch in it is well-formed: no corpus ever writes either shape.
func TestLoadSnapshotRejectsBucketShape(t *testing.T) {
	opts := snapOpts(nil)
	add := dsl.OpSet(0).With(dsl.OpAdd)
	sk := dsl.Add(dsl.Cwnd(), dsl.Hole())
	over := make([]*dsl.Node, opts.BucketCap+1)
	for i := range over {
		over[i] = sk
	}
	for name, buckets := range map[string][]snapshotBucket{
		"bucket stored twice": {{Ops: add, Sketches: []*dsl.Node{sk}}, {Ops: add, Sketches: []*dsl.Node{sk}}},
		"bucket over the cap": {{Ops: add, Sketches: over}},
	} {
		snap := encodeSnapshot(t, opts, buckets...)
		if c, err := LoadSnapshot(bytes.NewReader(snap), opts); err == nil {
			c.Close()
			t.Errorf("%s: loaded without error", name)
		}
	}
	// Control: exactly the cap loads.
	snap := encodeSnapshot(t, opts, snapshotBucket{Ops: add, Sketches: over[:opts.BucketCap]})
	c, err := LoadSnapshot(bytes.NewReader(snap), opts)
	if err != nil {
		t.Fatalf("bucket at the cap rejected: %v", err)
	}
	c.Close()
}

// FuzzLoadSnapshot feeds arbitrary bytes to the snapshot loader, seeded
// with a real Reno snapshot and truncated and bit-flipped copies of it.
// Each input is loaded as it is and again with its checksum recomputed,
// so mutations also reach the decoder and the sketch checks. The
// invariant: an error or a corpus whose every sketch is well-formed,
// never a panic.
//
// Inputs are multi-kilobyte gob streams that the minimizer cannot shrink
// (cutting any byte breaks the stream), so a time-bounded run spends up to
// -fuzzminimizetime (60 s by default) on every new interesting input
// without counting an exec; bound runs by count (-fuzztime 300x, as
// `make fuzz-smoke` does) or pass a short -fuzzminimizetime.
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
		for _, in := range [][]byte{data, reframe(data)} {
			c, err := LoadSnapshot(bytes.NewReader(in), opts)
			if err != nil {
				continue
			}
			for ops, b := range c.buckets {
				for _, sk := range b.cache {
					if err := checkSketch(opts.DSL, ops, sk); err != nil {
						t.Fatalf("loaded an invalid sketch: %v", err)
					}
				}
			}
			c.Close()
		}
	})
}

// TestSnapshotBitFlips flips every bit of a small Reno snapshot, one at a
// time. Each flipped file must either fail to load or restore a corpus
// whose every bucket serves the same Take output as the original; a flip
// that loads a different sketch space would make a warm daemon search a
// different space than a cold one.
func TestSnapshotBitFlips(t *testing.T) {
	opts := snapOpts(nil)
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 4
	type prefix struct {
		keys      []string
		exhausted bool
	}
	want := map[dsl.OpSet]prefix{}
	for _, ops := range c.Buckets() {
		sks, ex := c.Take(ops, n, 0, 0)
		p := prefix{exhausted: ex}
		for _, sk := range sks {
			p.keys = append(p.keys, sk.Key())
		}
		want[ops] = p
	}
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	loaded, changed := 0, 0
	for bit := 0; bit < 8*len(snap); bit++ {
		flipped := bytes.Clone(snap)
		flipped[bit/8] ^= 1 << (bit % 8)
		warm, err := LoadSnapshot(bytes.NewReader(flipped), opts)
		if err != nil {
			continue
		}
		loaded++
		for _, ops := range warm.Buckets() {
			sks, ex := warm.Take(ops, n, 0, 0)
			got := prefix{exhausted: ex}
			for _, sk := range sks {
				got.keys = append(got.keys, sk.Key())
			}
			if fmt.Sprint(got) != fmt.Sprint(want[ops]) {
				if changed == 0 {
					t.Errorf("flipping bit %d loads bucket %s as %v, want %v", bit, ops, got.keys, want[ops].keys)
				}
				changed++
				break
			}
		}
		warm.Close()
	}
	if changed > 0 {
		t.Errorf("%d of %d single-bit flips of a %d-byte snapshot loaded a different sketch space (%d loaded)",
			changed, 8*len(snap), len(snap), loaded)
	}
}
