package core

import (
	"strconv"
	"sync"
	"sync/atomic"

	"lpltsp/internal/graph"
	"lpltsp/internal/labeling"
	"lpltsp/internal/lru"
	"lpltsp/internal/tsp"
)

// DefaultCacheCapacity is the solve cache's default entry budget. An
// entry holds one Result (labeling + tour + provenance, O(n) ints) — not
// the distance matrix — so the cache's footprint stays linear in the
// cached instances' sizes.
const DefaultCacheCapacity = 512

// SolveCache is a sharded LRU (internal/lru: its geometry, shard hash
// and consistent snapshots) memoizing verified solve results, fronted
// by a singleflight layer (singleflight.go) that coalesces concurrent
// identical requests into one underlying solve, and optionally backed by
// a pluggable L2 cache (l2.go) consulted on L1 miss before solving.
//
// The process-wide default instance serves every Solve/SolveBatch/
// Portfolio call whose Options carry no explicit cache; an isolated
// instance (NewSolveCache, Options.Cache) gives one serving node its own
// L1 + singleflight state — the multi-node in-process cluster harness in
// internal/bench runs one per backend, exactly like one per OS process.
//
// Memory model: entries are stored as deep copies (labeling and tour
// slices cloned) and handed out as deep copies, so a cached Result never
// shares mutable state with any caller — hits are safe under concurrent
// SolveBatch workers and -race. A stored Result is immutable from the
// moment it enters a shard (put replaces the entry's pointer, never
// mutates it), which is what lets get() take its deep copy outside the
// shard lock: the critical section is a map lookup plus an LRU pointer
// move. The immutable provenance (Plan, Stats) is shared between copies
// by design.
type SolveCache struct {
	// gen is the current shard generation; reset and capacity changes
	// swap in a fresh one atomically instead of locking readers out.
	gen       atomic.Pointer[cacheGen]
	resetMu   sync.Mutex
	flights   flightTable
	coalesced atomic.Int64

	// l2 is the optional second cache tier (SetL2); flight leaders
	// consult it on L1 miss before solving locally. The counters below
	// classify those consults for CacheStats.
	l2          atomic.Pointer[l2Box]
	l2Served    atomic.Int64
	l2PeerHits  atomic.Int64
	l2Fallbacks atomic.Int64
}

// l2Box wraps the interface value so it can ride in an atomic.Pointer
// (interfaces are two words; pointers are one).
type l2Box struct{ l2 L2Cache }

// cacheGen is one generation of the L1: a sharded LRU (internal/lru)
// whose per-shard counters are plain ints mutated under the shard lock,
// so a stats() sweep reads an internally consistent (hits, misses,
// evictions, entries) tuple.
type cacheGen = lru.Sharded[*Result, cacheCounters]

type cacheCounters struct{ hits, misses, evictions int64 }

// NewSolveCache returns an isolated cache + singleflight instance with
// the given total entry budget. Pass it via Options.Cache (or
// service.Config.Cache) to give one serving node its own L1 and
// singleflight state, independent of the process-wide default.
func NewSolveCache(capacity int) *SolveCache {
	c := &SolveCache{}
	c.gen.Store(lru.New[*Result, cacheCounters](capacity))
	return c
}

// SetL2 installs (or, with nil, removes) the second cache tier behind
// this instance: on an L1 miss the leading flight consults l2 before
// solving locally, so a cluster of nodes can serve one hot instance from
// the single node that owns it. See the L2Cache contract in l2.go.
func (c *SolveCache) SetL2(l2 L2Cache) {
	if l2 == nil {
		c.l2.Store(nil)
		return
	}
	c.l2.Store(&l2Box{l2: l2})
}

func (c *SolveCache) loadL2() L2Cache {
	if b := c.l2.Load(); b != nil {
		return b.l2
	}
	return nil
}

// Stats returns a consistent snapshot of this instance's counters.
func (c *SolveCache) Stats() CacheStats { return c.stats() }

// Reset empties the cache and zeroes its counters, keeping the current
// capacity (read under resetMu, so a concurrent SetCapacity cannot race
// it). The installed L2, if any, stays.
func (c *SolveCache) Reset() {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	c.resetLocked(c.gen.Load().Cap())
}

// SetCapacity resets the cache with a new entry budget (≤ 0 disables
// caching on this instance).
func (c *SolveCache) SetCapacity(capacity int) {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	c.resetLocked(capacity)
}

// resetLocked swaps in an empty generation and zeroes every counter. The
// caller holds resetMu.
func (c *SolveCache) resetLocked(capacity int) {
	c.gen.Store(lru.New[*Result, cacheCounters](capacity))
	c.coalesced.Store(0)
	c.l2Served.Store(0)
	c.l2PeerHits.Store(0)
	c.l2Fallbacks.Store(0)
}

var defaultSolveCache = NewSolveCache(DefaultCacheCapacity)

// copyResult clones the slices a caller could mutate; everything else is
// immutable after the solve.
func copyResult(r *Result) *Result {
	cp := *r
	if r.Labeling != nil {
		cp.Labeling = append(labeling.Labeling(nil), r.Labeling...)
	}
	if r.Tour != nil {
		cp.Tour = append(tsp.Tour(nil), r.Tour...)
	}
	return &cp
}

func (c *SolveCache) get(key string) (*Result, bool) { return c.lookup(key, false) }

// getRecounted is get for a caller that has already counted a miss for
// this key (the under-flight-lock re-lookup in solveCoalesced): a hit
// here converts that provisional miss into a hit, so every request still
// counts exactly one hit or miss; a second miss stays the single miss
// already recorded.
func (c *SolveCache) getRecounted(key string) (*Result, bool) { return c.lookup(key, true) }

func (c *SolveCache) lookup(key string, recount bool) (*Result, bool) {
	sh := c.gen.Load().Shard(key)
	sh.Lock()
	res, ok := sh.Get(key)
	switch {
	case ok:
		sh.Counters.hits++
		if recount && sh.Counters.misses > 0 { // the provisional miss may predate a reset
			sh.Counters.misses--
		}
	case !recount:
		sh.Counters.misses++
	}
	sh.Unlock()
	if !ok {
		return nil, false
	}
	// Deep copy outside the lock: stored results are immutable.
	cp := copyResult(res)
	cp.CacheHit = true
	cp.Coalesced = false
	return cp, true
}

func (c *SolveCache) put(key string, res *Result) {
	sh := c.gen.Load().Shard(key)
	if sh.Cap() <= 0 {
		return
	}
	stored := copyResult(res)
	stored.CacheHit = false
	stored.Coalesced = false
	sh.Lock()
	sh.Counters.evictions += int64(sh.Add(key, stored))
	sh.Unlock()
}

// stats reads the shard counters under one all-shards Snapshot, so the
// hit rate derived from it can never mix a hit count from one moment
// with a miss count from another.
func (c *SolveCache) stats() CacheStats {
	var st CacheStats
	c.gen.Load().Snapshot(func(sh *lru.Shard[*Result, cacheCounters]) {
		st.Hits += sh.Counters.hits
		st.Misses += sh.Counters.misses
		st.Evictions += sh.Counters.evictions
		st.Entries += int64(sh.Len())
	})
	st.Coalesced = c.coalesced.Load()
	st.L2Served = c.l2Served.Load()
	st.L2PeerHits = c.l2PeerHits.Load()
	st.L2Fallbacks = c.l2Fallbacks.Load()
	return st
}

// CacheStats is a consistent snapshot of the solve cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions, Entries int64
	// Coalesced counts requests served by joining an in-flight identical
	// solve (the singleflight layer) rather than by an LRU hit: the
	// request never reached a solver, so it is cache-tier work saved
	// before the first result even landed in the LRU.
	Coalesced int64
	// L2Served counts flights whose result came from the L2 tier (the
	// owning peer answered — from its own cache or by solving) instead of
	// a local solve; L2PeerHits is the subset the peer served from its L1
	// without solving. L2Fallbacks counts consults that errored — either
	// unhandled (the flight fell back to a local solve) or handled (the
	// L2 failed the flight outright). All zero when no L2 is installed.
	L2Served, L2PeerHits, L2Fallbacks int64
}

// SolveCacheStats returns the current counters of the process-wide solve
// cache consulted by Solve, SolveBatch, and Portfolio.
func SolveCacheStats() CacheStats { return defaultSolveCache.stats() }

// ResetSolveCache empties the solve cache and zeroes its counters,
// keeping the current capacity. Intended for tests and benchmarks.
func ResetSolveCache() { defaultSolveCache.Reset() }

// SetSolveCacheCapacity resets the cache with a new entry budget
// (capacity ≤ 0 disables caching entirely). The budget is divided across
// the LRU shards, so per-shard eviction keeps the total entry count
// within capacity; budgets below the shard count use one shard.
func SetSolveCacheCapacity(capacity int) { defaultSolveCache.SetCapacity(capacity) }

// cacheKeyFor builds the canonical instance fingerprint: the graph's
// 128-bit structural hash (plus n and m, so a hash collision must also
// collide on size to matter), the constraint vector, and every option
// that can change the produced result — forced method, pinned engine,
// portfolio roster, and chained-heuristic tuning. Deadlines are excluded:
// truncated results are never cached, and a completed solve does not
// depend on how much budget was left. Built with strconv appends into
// one buffer — this runs on every cacheable request, where the fmt-based
// builder it replaced was a measurable slice of the hit path.
func cacheKeyFor(g *graph.Graph, p labeling.Vector, opts *Options) string {
	h1, h2 := g.Fingerprint()
	b := make([]byte, 0, 128)
	b = strconv.AppendUint(b, h1, 16)
	b = append(b, '.')
	b = strconv.AppendUint(b, h2, 16)
	b = append(b, ":n"...)
	b = strconv.AppendInt(b, int64(g.N()), 10)
	b = append(b, ":m"...)
	b = strconv.AppendInt(b, int64(g.M()), 10)
	b = append(b, ":p"...)
	for _, x := range p {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(x), 10)
	}
	if opts != nil {
		if opts.Method != "" {
			b = append(b, ":M"...)
			b = append(b, opts.Method...)
		}
		if opts.Algorithm != "" {
			b = append(b, ":a"...)
			b = append(b, opts.Algorithm...)
		}
		for _, e := range opts.Engines {
			b = append(b, ":e"...)
			b = append(b, e...)
		}
		if opts.Chained != nil {
			b = append(b, ":c"...)
			b = strconv.AppendInt(b, int64(opts.Chained.Restarts), 10)
			b = append(b, '.')
			b = strconv.AppendInt(b, int64(opts.Chained.Kicks), 10)
			b = append(b, '.')
			b = strconv.AppendUint(b, opts.Chained.Seed, 10)
		}
	}
	return string(b)
}

// cacheable reports whether this solve participates in the cache: caching
// must be on (Options.NoCache unset) and the result verified
// (Options.Verify — only labelings that were re-checked against the
// definition are worth trusting across requests).
func cacheable(opts *Options) bool {
	return opts != nil && opts.Verify && !opts.NoCache
}
