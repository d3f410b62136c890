// Package lru is the bounded, sharded LRU behind the serving tier's
// three stores: the solve cache (internal/core), the graph intern store
// (internal/intern) and the poison-instance quarantine (internal/fault).
//
// A Sharded splits its entry budget over ShardCount independently
// locked shards, so concurrent requests serialize only against requests
// whose keys hash (FNV-1a, Hash) to the same shard. Budgets smaller than
// the shard count collapse to one shard, which is then an exact classic
// LRU of the whole budget; a budget ≤ 0 retains nothing.
//
// The package owns the geometry, the map and the recency list; callers
// own value semantics and counters. Each shard carries a caller-typed
// counter block C that is read and written only under the shard lock,
// and Snapshot locks every shard (in index order) before visiting any,
// so counters summed across shards form one consistent snapshot.
package lru

import (
	"iter"
	"sync"
)

// ShardCount is the number of shards of a Sharded whose budget is at
// least that many entries. A power of two, so a mask of the hash picks
// the shard.
const ShardCount = 1 << 4

// Hash is FNV-1a over key: the shard-selection hash of every Sharded
// (and of any other table that shards by the same keys).
func Hash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	return h
}

// Sharded is a bounded LRU of V values keyed by string, split into
// independently locked shards that each keep a C counter block.
type Sharded[V, C any] struct {
	shards []*Shard[V, C]
	mask   uint64
	cap    int
}

// New returns a Sharded with the given total entry budget, divided
// across the shards (per-shard eviction keeps the total within it).
func New[V, C any](capacity int) *Sharded[V, C] {
	n := ShardCount
	if capacity < ShardCount {
		n = 1
	}
	s := &Sharded[V, C]{shards: make([]*Shard[V, C], n), mask: uint64(n - 1), cap: capacity}
	base, rem := 0, 0
	if capacity > 0 {
		base, rem = capacity/n, capacity%n
	}
	for i := range s.shards {
		sh := &Shard[V, C]{cap: base, m: map[string]*node[V]{}}
		if i < rem {
			sh.cap++
		}
		sh.root.next, sh.root.prev = &sh.root, &sh.root
		s.shards[i] = sh
	}
	return s
}

// Cap returns the total entry budget New was given.
func (s *Sharded[V, C]) Cap() int { return s.cap }

// Shard returns the shard owning key.
func (s *Sharded[V, C]) Shard(key string) *Shard[V, C] {
	return s.shards[Hash(key)&s.mask]
}

// Shards returns the shards in index order. The slice must not be
// modified.
func (s *Sharded[V, C]) Shards() []*Shard[V, C] { return s.shards }

// Snapshot locks every shard in index order, calls fn on each while all
// are held, then unlocks them. Callers that hold at most one shard lock
// at a time cannot deadlock against it.
func (s *Sharded[V, C]) Snapshot(fn func(*Shard[V, C])) {
	for _, sh := range s.shards {
		sh.Lock()
	}
	for _, sh := range s.shards {
		fn(sh)
	}
	for _, sh := range s.shards {
		sh.Unlock()
	}
}

// Shard is one independently locked LRU: a map over an intrusive
// recency list whose front is the most recently used entry. Every
// method other than the Mutex's and Cap requires the caller to hold
// the lock.
type Shard[V, C any] struct {
	sync.Mutex
	cap  int
	m    map[string]*node[V]
	root node[V] // sentinel: root.next is the front, root.prev the back

	// Counters is the caller's counter block, guarded by the shard lock.
	Counters C
}

type node[V any] struct {
	key        string
	val        V
	prev, next *node[V]
}

// Cap returns the shard's entry quota (≤ 0: the shard retains nothing).
func (sh *Shard[V, C]) Cap() int { return sh.cap }

// Len returns the number of entries held.
func (sh *Shard[V, C]) Len() int { return len(sh.m) }

// Get returns key's value and marks it most recently used.
func (sh *Shard[V, C]) Get(key string) (V, bool) {
	n, ok := sh.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	sh.moveToFront(n)
	return n.val, true
}

// Peek returns key's value without touching its recency.
func (sh *Shard[V, C]) Peek(key string) (V, bool) {
	n, ok := sh.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Add stores val under key as the most recently used entry, replacing
// any value already there, then evicts from the back until the shard is
// within its quota, returning how many entries that evicted. A shard
// with quota ≤ 0 stores nothing.
func (sh *Shard[V, C]) Add(key string, val V) (evicted int) {
	if n, ok := sh.m[key]; ok {
		n.val = val
		sh.moveToFront(n)
		return 0
	}
	if sh.cap <= 0 {
		return 0
	}
	n := &node[V]{key: key, val: val}
	sh.m[key] = n
	sh.insertFront(n)
	for len(sh.m) > sh.cap {
		back := sh.root.prev
		sh.unlink(back)
		delete(sh.m, back.key)
		evicted++
	}
	return evicted
}

// Remove deletes key, reporting whether it was present.
func (sh *Shard[V, C]) Remove(key string) bool {
	n, ok := sh.m[key]
	if ok {
		sh.unlink(n)
		delete(sh.m, key)
	}
	return ok
}

// All yields the entries from most to least recently used. The shard
// must not be modified during the iteration.
func (sh *Shard[V, C]) All() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for n := sh.root.next; n != &sh.root; n = n.next {
			if !yield(n.key, n.val) {
				return
			}
		}
	}
}

func (sh *Shard[V, C]) moveToFront(n *node[V]) {
	if sh.root.next == n {
		return
	}
	sh.unlink(n)
	sh.insertFront(n)
}

func (sh *Shard[V, C]) insertFront(n *node[V]) {
	n.prev, n.next = &sh.root, sh.root.next
	n.next.prev = n
	sh.root.next = n
}

func (sh *Shard[V, C]) unlink(n *node[V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}
