package corpus

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/obs"
)

// snapOpts is a corpus config small enough to prewarm in a unit test.
func snapOpts(obsv *obs.Registry) Options {
	return Options{DSL: dsl.Reno(), BucketCap: 64, ScanBudget: 20000, Obs: obsv}
}

// TestSnapshotRoundTrip pins the warm-start property at the corpus layer:
// a corpus restored from a snapshot serves byte-identical Take prefixes
// for every bucket while performing zero candidate enumeration of its own.
func TestSnapshotRoundTrip(t *testing.T) {
	cold, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cold.Prewarm(context.Background(), 4)

	var buf bytes.Buffer
	if err := cold.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	warmReg := obs.New()
	warm, err := LoadSnapshot(&buf, snapOpts(warmReg))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	if warm.ConfigHash() != cold.ConfigHash() {
		t.Fatalf("config hash drifted on load: %s != %s", warm.ConfigHash(), cold.ConfigHash())
	}
	for _, ops := range cold.Buckets() {
		want, wantEx := cold.Take(ops, 64, 0, 0)
		got, gotEx := warm.Take(ops, 64, 0, 0)
		if len(got) != len(want) || gotEx != wantEx {
			t.Fatalf("bucket %s: warm Take %d sketches (exhausted %t), cold %d (%t)",
				ops, len(got), gotEx, len(want), wantEx)
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("bucket %s: warm sketch %d = %s, cold %s", ops, i, got[i].Key(), want[i].Key())
			}
		}
	}
	if got := warmReg.CounterValues("enum.")["enum.candidates"]; got != 0 {
		t.Errorf("warm corpus enumerated %d candidates, want 0", got)
	}
	if got := warmReg.CounterValues("corpus.")["corpus.snapshot_sketches_loaded"]; got == 0 {
		t.Error("corpus.snapshot_sketches_loaded not counted")
	}
}

// TestSnapshotResumeBeyondPrefix checks a snapshot taken before the space
// was fully materialized: a warm Take larger than the restored prefix
// resumes the deterministic enumerator and still matches a cold corpus.
func TestSnapshotResumeBeyondPrefix(t *testing.T) {
	opts := snapOpts(nil)
	partial, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	buckets := partial.Buckets()
	// Materialize a short prefix of every bucket, then snapshot mid-way.
	for _, ops := range buckets {
		partial.Take(ops, 8, 0, 0)
	}
	var buf bytes.Buffer
	if err := partial.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	warm, err := LoadSnapshot(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	cold, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, ops := range buckets {
		want, wantEx := cold.Take(ops, 32, 0, 0)
		got, gotEx := warm.Take(ops, 32, 0, 0)
		if len(got) != len(want) || gotEx != wantEx {
			t.Fatalf("bucket %s: resumed Take %d (exhausted %t), cold %d (%t)",
				ops, len(got), gotEx, len(want), wantEx)
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("bucket %s: resumed sketch %d diverges from cold enumeration", ops, i)
			}
		}
	}
}

// TestSnapshotRejectsMismatch pins the versioning rules: a wrong format
// version or a different DSL config must be rejected at load.
func TestSnapshotRejectsMismatch(t *testing.T) {
	c, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Take(c.Buckets()[0], 4, 0, 0)
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Different DSL → config hash mismatch.
	other := snapOpts(nil)
	other.DSL = dsl.Cubic()
	if _, err := LoadSnapshot(bytes.NewReader(snap), other); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Errorf("config mismatch not rejected: %v", err)
	}
	// Different bounds → config hash mismatch too.
	widened := snapOpts(nil)
	widened.BucketCap = 128
	if _, err := LoadSnapshot(bytes.NewReader(snap), widened); err == nil {
		t.Error("bucket-cap mismatch not rejected")
	}
	// Wrong format version.
	var vbuf bytes.Buffer
	if err := writeSnapshotFile(&vbuf, &snapshotFile{Version: SnapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(&vbuf, snapOpts(nil)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
}

// TestRegistryWarmStart exercises the registry tiering: build + save on
// the first process, snapshot load (zero enumeration) on the second,
// in-memory hit within one process.
func TestRegistryWarmStart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DSL: dsl.Reno(), BucketCap: 64, ScanBudget: 20000}

	reg1 := obs.New()
	r1 := NewRegistry(dir, reg1)
	c1, err := r1.Prewarm(context.Background(), opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reg1.CounterValues("corpus.")["corpus.registry_builds"] != 1 {
		t.Error("first Get did not build")
	}
	again, err := r1.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if again != c1 {
		t.Error("second Get did not serve the warm in-memory corpus")
	}
	if reg1.CounterValues("corpus.")["corpus.registry_hits"] != 1 {
		t.Error("registry hit not counted")
	}
	files, err := filepath.Glob(filepath.Join(dir, "reno-*.snapshot"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot file not written: %v %v", files, err)
	}
	if fi, err := os.Stat(files[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file empty: %v", err)
	}
	r1.Close()

	// "Restart": a fresh registry over the same directory loads instead of
	// enumerating.
	reg2 := obs.New()
	r2 := NewRegistry(dir, reg2)
	defer r2.Close()
	c2, err := r2.Get(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.CounterValues("corpus.")["corpus.registry_snapshot_loads"]; got != 1 {
		t.Errorf("registry_snapshot_loads = %d, want 1", got)
	}
	for _, ops := range c2.Buckets() {
		c2.Take(ops, 64, 0, 0)
	}
	if got := reg2.CounterValues("enum.")["enum.candidates"]; got != 0 {
		t.Errorf("warm-started registry enumerated %d candidates, want 0", got)
	}
}

// TestSaveSnapshotCrashSafe pins the atomic-save contract: a save never
// leaves its own temp file behind, an abandoned temp from a crashed writer
// is swept once it ages out, and a concurrent writer's fresh temp in a
// shared snapshot dir is left alone.
func TestSaveSnapshotCrashSafe(t *testing.T) {
	c, err := New(snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Prewarm(context.Background(), 4)

	dir := t.TempDir()
	// A crashed writer's abandoned temp (aged out) and a live concurrent
	// writer's fresh one.
	stale := filepath.Join(dir, ".snapshot-stale")
	fresh := filepath.Join(dir, ".snapshot-fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "reno-test.snapshot")
	if err := c.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp not swept")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp of a concurrent writer was removed")
	}
	os.Remove(fresh)
	temps, err := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
	if err != nil || len(temps) != 0 {
		t.Errorf("save left temps behind: %v", temps)
	}

	// The saved file is a complete, loadable snapshot serving the same
	// space.
	warm, err := LoadSnapshotFile(path, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.ConfigHash() != c.ConfigHash() {
		t.Errorf("loaded snapshot hash %s, want %s", warm.ConfigHash(), c.ConfigHash())
	}

	// Saving over an existing snapshot replaces it atomically (same
	// content, no error, still loadable).
	if err := c.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path, snapOpts(nil)); err != nil {
		t.Fatal(err)
	}
}
