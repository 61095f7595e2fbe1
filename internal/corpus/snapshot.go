package corpus

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dsl"
)

// Corpus snapshots persist the enumerated, canonicalized sketch space to
// disk so a daemon restart is a load, not a re-enumeration: a warm start
// from a snapshot performs zero candidate constructions (enum.candidates
// stays 0) and serves byte-identical Take prefixes, so a job repeated
// across a restart returns the identical handler and distance.
//
// Format: a gob stream of snapshotFile — a version tag, the DSL-config
// hash the corpus was built under, and per bucket the materialized sketch
// prefix plus its exhaustion flag. Sketch trees gob-encode directly
// (dsl.Node has only exported fields; the unexported canonical-key memo is
// recomputed at load). Compiled register programs are NOT serialized:
// dsl.CompileProgram is deterministic and microseconds per sketch, so the
// loader recompiles the persisted sketches into the program cache, which
// is both smaller on disk and immune to VM-encoding drift across builds.
//
// Versioning rules: SnapshotVersion bumps whenever the gob shape, the
// enumeration order, canonicalization, or anything else that decides which
// sketches exist (or their order) changes; a snapshot with a different
// version or a different config hash is rejected at load and the caller
// falls back to enumeration. Snapshots are written atomically
// (temp + rename), so a crashed writer never leaves a torn file behind.

// SnapshotVersion tags the on-disk format. Bump on any change to the gob
// shape or to enumeration/canonicalization order.
const SnapshotVersion = 1

// snapshotFile is the gob-encoded snapshot shape.
type snapshotFile struct {
	Version int
	Config  string
	DSLName string
	Buckets []snapshotBucket
}

// snapshotBucket is one bucket's persisted enumeration state.
type snapshotBucket struct {
	Ops       dsl.OpSet
	Sketches  []*dsl.Node
	Exhausted bool
}

// ConfigHash fingerprints everything that decides which sketch space a
// corpus holds: the full DSL definition (name alone is not enough — tests
// and ablations override depth/node budgets) and the corpus's
// materialization bounds. Two Options with equal hashes produce corpora
// that serve identical Take prefixes; snapshots are keyed by this hash.
func (o Options) ConfigHash() string {
	if o.BucketCap == 0 {
		o.BucketCap = core.DefaultBucketCap
	}
	if o.ScanBudget == 0 {
		o.ScanBudget = core.DefaultScanBudget
	}
	d := o.DSL
	h := fnv.New64a()
	fmt.Fprintf(h, "dsl=%s|depth=%d|nodes=%d|unit=%t|", d.Name, d.MaxDepth, d.MaxNodes, d.UnitCheck)
	for _, s := range d.Signals {
		fmt.Fprintf(h, "s%d,", int(s))
	}
	for _, m := range d.Macros {
		fmt.Fprintf(h, "m%d,", int(m))
	}
	for _, op := range d.NumOps {
		fmt.Fprintf(h, "n%d,", int(op))
	}
	for _, op := range d.BoolOps {
		fmt.Fprintf(h, "b%d,", int(op))
	}
	for _, c := range d.Constants {
		fmt.Fprintf(h, "k%g,", c)
	}
	fmt.Fprintf(h, "|cap=%d|scan=%d", o.BucketCap, o.ScanBudget)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ConfigHash returns the hash of the configuration the corpus was built
// with — the snapshot key.
func (c *SketchCorpus) ConfigHash() string { return c.cfgHash }

// WriteSnapshot serializes the corpus's materialized sketch space to w.
// Safe to call while jobs are running: each bucket is copied under its
// lock, so the snapshot is a consistent per-bucket prefix (entries are
// immutable once published).
func (c *SketchCorpus) WriteSnapshot(w io.Writer) error {
	sf := snapshotFile{
		Version: SnapshotVersion,
		Config:  c.cfgHash,
		DSLName: c.d.Name,
	}
	for _, ops := range c.keys {
		b := c.buckets[ops]
		b.mu.Lock()
		sketches := append([]*dsl.Node(nil), b.cache...)
		exhausted := b.exhausted
		b.mu.Unlock()
		if len(sketches) == 0 && !exhausted {
			continue // never touched; nothing to restore
		}
		sf.Buckets = append(sf.Buckets, snapshotBucket{
			Ops:       ops,
			Sketches:  sketches,
			Exhausted: exhausted,
		})
	}
	sort.Slice(sf.Buckets, func(i, j int) bool { return sf.Buckets[i].Ops < sf.Buckets[j].Ops })
	return gob.NewEncoder(w).Encode(&sf)
}

// SaveSnapshot writes the snapshot to path atomically and durably: a temp
// file in the same directory, fsync'd before the rename and with the
// directory fsync'd after, so a process killed at any instant leaves
// either the old snapshot or the complete new one, never a torn gob, even
// across a host crash that drops dirty page-cache state. Parent
// directories are created as needed, and stale temp files abandoned by
// crashed writers are swept (age-gated, so a concurrent writer's
// in-flight temp in a shared snapshot dir is never touched).
func (c *SketchCorpus) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sweepStaleTemps(dir)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	if err := c.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Durability of the rename itself: fsync the directory so the new
	// entry survives a crash. Best-effort — some filesystems reject
	// directory fsync, and the rename already guarantees atomicity.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// staleTempAge is how old an abandoned .snapshot-* temp must be before the
// sweeper removes it. Generous enough that no live writer — even one
// serializing a huge corpus on a loaded host — holds a temp this long.
const staleTempAge = time.Hour

// sweepStaleTemps garbage-collects temp files left behind by writers that
// died between CreateTemp and Rename. Shared snapshot dirs can have
// several concurrent writers (daemons, batch runs), so only temps
// older than staleTempAge are removed; a freshly created temp always
// belongs to someone.
func sweepStaleTemps(dir string) {
	matches, err := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && time.Since(fi.ModTime()) > staleTempAge {
			os.Remove(m)
		}
	}
}

// LoadSnapshot builds a corpus for opts and restores the sketch space from
// the gob stream. The snapshot must carry the current SnapshotVersion and
// the exact ConfigHash of opts, and every sketch must be well-formed,
// admitted by the DSL and stored under the bucket of its own operators;
// anything else is an error (callers fall back to a cold New). Restored sketches have their canonical keys
// memoized and their register programs compiled into the program cache, so
// a subsequent run performs zero enumeration (a bucket saved
// non-exhausted resumes its enumerator only if a Take outgrows the
// restored prefix).
func LoadSnapshot(r io.Reader, opts Options) (*SketchCorpus, error) {
	var sf snapshotFile
	if err := gob.NewDecoder(r).Decode(&sf); err != nil {
		return nil, fmt.Errorf("corpus: decoding snapshot: %w", err)
	}
	if sf.Version != SnapshotVersion {
		return nil, fmt.Errorf("corpus: snapshot version %d, want %d", sf.Version, SnapshotVersion)
	}
	c, err := New(opts)
	if err != nil {
		return nil, err
	}
	if sf.Config != c.cfgHash {
		return nil, fmt.Errorf("corpus: snapshot config %s does not match %s (DSL %s)",
			sf.Config, c.cfgHash, opts.DSL.Name)
	}
	loaded := 0
	for _, sb := range sf.Buckets {
		b := c.buckets[sb.Ops]
		if b == nil {
			return nil, fmt.Errorf("corpus: snapshot bucket %s not in the %s DSL's space", sb.Ops, opts.DSL.Name)
		}
		for i, sk := range sb.Sketches {
			if err := checkSketch(opts.DSL, sb.Ops, sk); err != nil {
				return nil, fmt.Errorf("corpus: snapshot bucket %s sketch %d: %w", sb.Ops, i, err)
			}
			// Recompute the canonical key (the unexported memo does not
			// survive gob) before publication, exactly like Take, and warm
			// the compiled-program cache from it.
			c.Program(sk.Key(), sk)
		}
		b.cache = sb.Sketches
		b.loaded = len(sb.Sketches)
		b.exhausted = sb.Exhausted
		loaded += len(sb.Sketches)
	}
	c.obsv.Counter("corpus.snapshot_sketches_loaded").Add(int64(loaded))
	return c, nil
}

// checkSketch validates one decoded sketch before the loader keys or
// compiles it. A snapshot file is a trust boundary: gob decodes an
// operator with missing operands or an Op no DSL defines without
// complaint, and the first would panic the compiler while the second
// would silently join the corpus.
func checkSketch(d *dsl.DSL, ops dsl.OpSet, sk *dsl.Node) error {
	if err := checkShape(sk, d.MaxDepth); err != nil {
		return err
	}
	if err := d.Admits(sk); err != nil {
		return err
	}
	if got := sk.Ops(); got != ops {
		return fmt.Errorf("sketch %s uses operators %s, not its bucket's", sk, got)
	}
	return nil
}

// checkShape checks every node's Op and operand count. It stops at the
// DSL's depth bound, so a hostile tree is rejected before the recursive
// Node methods (Depth, Key, String) ever walk it.
func checkShape(n *dsl.Node, depth int) error {
	if n == nil {
		return fmt.Errorf("nil node")
	}
	if depth < 1 {
		return fmt.Errorf("sketch deeper than the DSL allows")
	}
	want, ok := n.Op.Arity()
	if !ok {
		return fmt.Errorf("unknown operator %v", n.Op)
	}
	if len(n.Kids) != want {
		return fmt.Errorf("operator %q has %d operands, want %d", n.Op, len(n.Kids), want)
	}
	for _, k := range n.Kids {
		if err := checkShape(k, depth-1); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshotFile is LoadSnapshot over a file.
func LoadSnapshotFile(path string, opts Options) (*SketchCorpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f, opts)
}
