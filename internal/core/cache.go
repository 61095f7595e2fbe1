package core

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"repro/internal/dsl"
)

// scoreCacheCap bounds the memo cache; at ~50 bytes per entry the default
// stays in the tens of megabytes even when MaxHandlers is at the paper's
// 300k budget.
const scoreCacheCap = 1 << 18

// cacheEntry is a memoized score. exact entries hold the true distance;
// inexact entries hold a lower bound (the value an abandoned computation
// returned) and may only settle a lookup whose cutoff they already exceed.
type cacheEntry struct {
	d     float64
	exact bool
}

// scoreCache memoizes handler scores across the scoring workers of a run.
// Duplicate completions — different sketches or assignments canonicalizing
// to the same expression — are scored once per segment set and served from
// memory afterwards. Exact hits return the true distance, so cache timing
// can never change what the search keeps; lower-bound entries only ever
// answer "provably worse than your cutoff", which is equally trajectory-
// neutral (see scoreSketch).
type scoreCache struct {
	mu  sync.Mutex
	m   map[uint64]cacheEntry
	cap int
}

func newScoreCache(capn int) *scoreCache {
	if capn <= 0 {
		capn = scoreCacheCap
	}
	return &scoreCache{m: make(map[uint64]cacheEntry), cap: capn}
}

func (c *scoreCache) get(k uint64) (cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	return e, ok
}

// put records a score. Exact values always win over lower bounds; between
// two lower bounds the larger (tighter) one is kept. When full, one
// arbitrary entry is evicted per insert, keeping the map bounded without
// bookkeeping on the hit path.
func (c *scoreCache) put(k uint64, d float64, exact bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.m[k]; ok {
		if cur.exact || (!exact && cur.d >= d) {
			return
		}
	} else if len(c.m) >= c.cap {
		for victim := range c.m {
			delete(c.m, victim)
			break
		}
	}
	c.m[k] = cacheEntry{d: d, exact: exact}
}

// handlerKey is FNV-64a over the handler's canonical serialization
// (dsl.Node.Key) plus the segment-set ID, so a score memoized for one
// iteration's segment subset can never answer for another's. Keys are
// 64-bit hashes, not the canonical strings themselves: at the default
// budget the birthday-collision probability is ~1e-9, far below the
// search's other sources of approximation.
func handlerKey(h *dsl.Node, setID uint64) uint64 {
	hash := fnv.New64a()
	hash.Write([]byte(h.Key()))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], setID)
	hash.Write(buf[:])
	return hash.Sum64()
}
