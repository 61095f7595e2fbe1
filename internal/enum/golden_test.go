package enum

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// quickScanBudget is the per-bucket scan budget of a quick search
// (core's and corpus's quick configurations use the same value).
const quickScanBudget = 30000

// streamDigest summarizes the bucket-by-bucket enumeration stream of one
// DSL at the quick scan budget: an FNV-64a over every yielded sketch's
// Key() and a bucket separator, the candidate roots charged per bucket,
// and how many buckets ran into their scan budget.
type streamDigest struct {
	sketches  int
	hash      string
	perBucket []int64 // enum.candidates per bucket, in Buckets() order
	exhausted int     // buckets cut short by the scan budget
}

func digestStream(d *dsl.DSL) streamDigest {
	h := fnv.New64a()
	var out streamDigest
	for _, ops := range New(d).Buckets() {
		reg := obs.New()
		e := &Enumerator{D: d, Obs: reg}
		for sk := range e.BucketLimited(ops, quickScanBudget) {
			h.Write([]byte(sk.Key()))
			h.Write([]byte{0x00})
			out.sketches++
		}
		h.Write([]byte{0x01})
		out.perBucket = append(out.perBucket, reg.Counter("enum.candidates").Value())
		if reg.Counter("enum.scan_budget_exhausted").Value() > 0 {
			out.exhausted++
		}
	}
	out.hash = fmt.Sprintf("%016x", h.Sum64())
	return out
}

// bucketCandidateHash folds the per-bucket candidate counts into one
// FNV-64a so every bucket's scan-budget spend is pinned, not just the sum.
func bucketCandidateHash(counts []int64) string {
	h := fnv.New64a()
	for _, c := range counts {
		fmt.Fprintf(h, "%d,", c)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestEnumerationStreamGolden pins the exact yield stream and scan-budget
// spend of the enumerator: which sketches every bucket yields, in which
// order, how many candidate roots each bucket charges, and which buckets
// exhaust their budget. Corpus snapshots, the perfbench answers and the
// Table 2 goldens all depend on this stream, so any change to it must be
// deliberate (and bump corpus.SnapshotVersion).
func TestEnumerationStreamGolden(t *testing.T) {
	cases := []struct {
		name       string
		d          *dsl.DSL
		sketches   int
		hash       string
		candidates int64
		bucketHash string
		exhausted  int
	}{
		{"reno", dsl.Reno(), 20968, "286d08c42f3e30f0", 1560238, "970b604d6c7688a3", 47},
		{"vegas", dsl.Vegas(), 7997, "59f33f9a78189979", 1890063, "90fdded90fd1c027", 63},
		{"delay", dsl.Delay(), 8398, "39014431c2d45f07", 1890063, "90fdded90fd1c027", 63},
		{"cubic", dsl.Cubic(), 301937, "d93a4f7d791e15e0", 7562508, "da77f07ed8129d12", 252},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := digestStream(tc.d)
			var total int64
			for _, c := range got.perBucket {
				total += c
			}
			if got.sketches != tc.sketches || got.hash != tc.hash {
				t.Errorf("stream: %d sketches, hash %s; want %d, %s", got.sketches, got.hash, tc.sketches, tc.hash)
			}
			if total != tc.candidates {
				t.Errorf("candidates: %d, want %d", total, tc.candidates)
			}
			if bh := bucketCandidateHash(got.perBucket); bh != tc.bucketHash {
				t.Errorf("per-bucket candidate hash: %s, want %s", bh, tc.bucketHash)
			}
			if got.exhausted != tc.exhausted {
				t.Errorf("exhausted buckets: %d, want %d", got.exhausted, tc.exhausted)
			}
		})
	}
	// The unbudgeted All() stream of the Reno DSL.
	t.Run("reno-all", func(t *testing.T) {
		reg := obs.New()
		e := &Enumerator{D: dsl.Reno(), Obs: reg}
		h := fnv.New64a()
		n := 0
		for sk := range e.All() {
			h.Write([]byte(sk.Key()))
			h.Write([]byte{0x00})
			n++
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		const wantN, wantHash, wantCandidates = 45348, "3aed8bbb7313ba2c", 1083987
		if n != wantN || got != wantHash {
			t.Errorf("All(): %d sketches, hash %s; want %d, %s", n, got, wantN, wantHash)
		}
		if c := reg.Counter("enum.candidates").Value(); c != wantCandidates {
			t.Errorf("All(): %d candidates, want %d", c, wantCandidates)
		}
	})
}
