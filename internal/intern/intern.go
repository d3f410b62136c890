// Package intern holds the graph intern store behind lplserve's
// /v1/graphs endpoint: a bounded, sharded LRU keyed by the graph's
// 128-bit structural fingerprint. A client submits a graph once, gets
// its ref back, and every later /v1/solve or /v1/batch request that
// names the ref skips body parsing, graph construction, and fingerprint
// hashing entirely — the stored *graph.Graph is handed out as-is.
//
// That hand-out is safe because Put normalizes the graph and forces its
// derived views (CSR layout, fingerprint memo) before the graph becomes
// visible to any other goroutine: from then on every operation a solve
// performs on it is a pure read, so one interned graph can back any
// number of concurrent solves without copying. Callers must not mutate
// a graph obtained from Get.
//
// The store is an internal/lru Sharded: its shard geometry, capacity
// split and all-shards-locked consistent stats are that package's.
package intern

import (
	"strconv"

	"lpltsp/internal/graph"
	"lpltsp/internal/lru"
)

// DefaultCapacity is the default entry budget of a store. An entry is
// one normalized graph (O(n+m) int32s), so the footprint is linear in
// the interned instances' sizes.
const DefaultCapacity = 1024

// Store is a bounded, sharded LRU of interned graphs keyed by
// fingerprint ref. The zero value is not usable; call NewStore.
type Store struct {
	lru *lru.Sharded[*graph.Graph, counters]
}

// counters are one shard's, mutated under its lock.
type counters struct{ puts, dups, hits, misses, evictions int64 }

// NewStore returns a store with the given total entry budget, divided
// across the LRU shards (per-shard eviction keeps the total within
// capacity). Capacity ≤ 0 disables interning: Put still returns refs
// (the fingerprint is a pure function of the graph) but nothing is
// retained, so every Get misses.
func NewStore(capacity int) *Store {
	return &Store{lru: lru.New[*graph.Graph, counters](capacity)}
}

// Ref is the wire form of a graph's identity: the 128-bit structural
// fingerprint as 32 lowercase hex digits. Equal graphs (same n, same
// normalized adjacency) always produce the same ref.
func Ref(g *graph.Graph) string {
	h1, h2 := g.Fingerprint()
	var b [32]byte
	hex16(b[:16], h1)
	hex16(b[16:], h2)
	return string(b[:])
}

func hex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// ValidRef reports whether ref has the shape Put returns: exactly 32
// lowercase hex digits. Malformed refs can be rejected as bad requests
// before touching the store.
func ValidRef(ref string) bool {
	if len(ref) != 32 {
		return false
	}
	for i := 0; i < len(ref); i++ {
		c := ref[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put interns g and returns its ref. The graph is normalized and its
// CSR view and fingerprint are forced here, before publication, so
// readers obtained via Get never race a lazy build. Put is idempotent:
// re-interning an equal graph returns the same ref, refreshes its LRU
// position, and keeps the first stored copy.
func (s *Store) Put(g *graph.Graph) string {
	g.Normalize()
	_ = g.MaxDegree() // force the lazy CSR view pre-publication
	ref := Ref(g)     // forces the fingerprint memo
	sh := s.lru.Shard(ref)
	sh.Lock()
	defer sh.Unlock()
	sh.Counters.puts++
	if _, ok := sh.Get(ref); ok {
		sh.Counters.dups++
		return ref
	}
	sh.Counters.evictions += int64(sh.Add(ref, g))
	return ref
}

// Get returns the interned graph for ref, or (nil, false) if it was
// never interned or has been evicted. The returned graph is shared and
// must be treated as read-only.
func (s *Store) Get(ref string) (*graph.Graph, bool) {
	sh := s.lru.Shard(ref)
	sh.Lock()
	defer sh.Unlock()
	g, ok := sh.Get(ref)
	if !ok {
		sh.Counters.misses++
		return nil, false
	}
	sh.Counters.hits++
	return g, true
}

// Len returns the current number of interned graphs.
func (s *Store) Len() int { return int(s.Stats().Entries) }

// Stats is a consistent snapshot of a store's counters. Puts counts
// every Put call; Reinterned is the subset that found the graph already
// present. Hits/Misses count Get outcomes.
type Stats struct {
	Entries    int64 `json:"entries"`
	Capacity   int64 `json:"capacity"`
	Puts       int64 `json:"puts"`
	Reinterned int64 `json:"reinterned"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
}

// Stats reads every counter under one all-shards snapshot, so it can
// never mix counts from different moments.
func (s *Store) Stats() Stats {
	st := Stats{Capacity: int64(s.lru.Cap())}
	s.lru.Snapshot(func(sh *lru.Shard[*graph.Graph, counters]) {
		st.Entries += int64(sh.Len())
		st.Puts += sh.Counters.puts
		st.Reinterned += sh.Counters.dups
		st.Hits += sh.Counters.hits
		st.Misses += sh.Counters.misses
		st.Evictions += sh.Counters.evictions
	})
	return st
}

// String renders a ref-like debug identity for error messages.
func (st Stats) String() string {
	return "intern{entries=" + strconv.FormatInt(st.Entries, 10) +
		"/" + strconv.FormatInt(st.Capacity, 10) +
		" hits=" + strconv.FormatInt(st.Hits, 10) +
		" misses=" + strconv.FormatInt(st.Misses, 10) +
		" evictions=" + strconv.FormatInt(st.Evictions, 10) + "}"
}
