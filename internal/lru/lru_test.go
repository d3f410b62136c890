package lru

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"lpltsp/internal/rng"
)

func TestHashIsFNV1a(t *testing.T) {
	for _, key := range []string{"", "a", "key-17", "0123456789abcdef0123456789abcdef"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := Hash(key), h.Sum64(); got != want {
			t.Fatalf("Hash(%q) = %#x, want FNV-1a %#x", key, got, want)
		}
	}
}

func TestShardGeometry(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, total int }{
		{-3, 1, 0}, {0, 1, 0}, {1, 1, 1}, {5, 1, 5}, {15, 1, 15},
		{16, 16, 16}, {20, 16, 20}, {64, 16, 64}, {1000, 16, 1000},
	} {
		s := New[int, struct{}](tc.capacity)
		if s.Cap() != tc.capacity || len(s.Shards()) != tc.shards {
			t.Fatalf("New(%d): cap %d, %d shards; want %d shards", tc.capacity, s.Cap(), len(s.Shards()), tc.shards)
		}
		total, lo, hi := 0, tc.capacity, 0
		for _, sh := range s.Shards() {
			total += sh.Cap()
			lo, hi = min(lo, sh.Cap()), max(hi, sh.Cap())
		}
		if total != tc.total || (tc.capacity > 0 && hi-lo > 1) {
			t.Fatalf("New(%d): quotas sum to %d (spread %d..%d), want %d split evenly", tc.capacity, total, lo, hi, tc.total)
		}
	}
}

// modelLRU is a textbook LRU of one shard's quota: a slice, front =
// most recently used.
type modelLRU struct {
	cap  int
	keys []string
	vals map[string]int
}

func (m *modelLRU) index(key string) int {
	for i, k := range m.keys {
		if k == key {
			return i
		}
	}
	return -1
}

func (m *modelLRU) toFront(i int) {
	key := m.keys[i]
	copy(m.keys[1:i+1], m.keys[:i])
	m.keys[0] = key
}

func (m *modelLRU) get(key string) (int, bool) {
	i := m.index(key)
	if i < 0 {
		return 0, false
	}
	m.toFront(i)
	return m.vals[key], true
}

func (m *modelLRU) peek(key string) (int, bool) {
	v, ok := m.vals[key]
	return v, ok
}

func (m *modelLRU) add(key string, val int) (evicted int) {
	if i := m.index(key); i >= 0 {
		m.vals[key] = val
		m.toFront(i)
		return 0
	}
	if m.cap <= 0 {
		return 0
	}
	m.keys = append([]string{key}, m.keys...)
	m.vals[key] = val
	for len(m.keys) > m.cap {
		delete(m.vals, m.keys[len(m.keys)-1])
		m.keys = m.keys[:len(m.keys)-1]
		evicted++
	}
	return evicted
}

func (m *modelLRU) remove(key string) bool {
	i := m.index(key)
	if i < 0 {
		return false
	}
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	delete(m.vals, key)
	return true
}

// TestShardedMatchesModel drives a Sharded and one model LRU per shard
// through a long random mix of Get, Peek, Add (insert and replace) and
// Remove, and requires every return value to agree and every shard to
// hold the model's entries in the model's recency order after each op.
// Capacity 0 retains nothing, 5 is one shard (a classic LRU of the
// whole budget), 64 is 16 shards of 4.
func TestShardedMatchesModel(t *testing.T) {
	for _, capacity := range []int{0, 5, 64} {
		t.Run(fmt.Sprint("cap=", capacity), func(t *testing.T) {
			s := New[int, struct{}](capacity)
			models := make([]*modelLRU, len(s.Shards()))
			for i, sh := range s.Shards() {
				models[i] = &modelLRU{cap: sh.Cap(), vals: map[string]int{}}
			}
			r := rng.New(uint64(capacity) + 77)
			keys := 2*capacity + 8
			var evictions int
			for op := 0; op < 20000; op++ {
				key := fmt.Sprint("k", r.Intn(keys))
				idx := Hash(key) & uint64(len(models)-1)
				sh, m := s.Shard(key), models[idx]
				if sh != s.Shards()[idx] {
					t.Fatalf("op %d: %s routed to the wrong shard", op, key)
				}
				sh.Lock()
				switch r.Intn(4) {
				case 0:
					v, ok := sh.Get(key)
					if mv, mok := m.get(key); v != mv || ok != mok {
						t.Fatalf("op %d: Get(%s) = %d,%v, model %d,%v", op, key, v, ok, mv, mok)
					}
				case 1:
					v, ok := sh.Peek(key)
					if mv, mok := m.peek(key); v != mv || ok != mok {
						t.Fatalf("op %d: Peek(%s) = %d,%v, model %d,%v", op, key, v, ok, mv, mok)
					}
				case 2:
					ok := sh.Remove(key)
					if mok := m.remove(key); ok != mok {
						t.Fatalf("op %d: Remove(%s) = %v, model %v", op, key, ok, mok)
					}
				default:
					n := sh.Add(key, op)
					if mn := m.add(key, op); n != mn {
						t.Fatalf("op %d: Add(%s) evicted %d, model %d", op, key, n, mn)
					}
					evictions += n
				}
				var got []string
				for k, v := range sh.All() {
					if v != m.vals[k] {
						t.Fatalf("op %d: %s holds %d, model %d", op, k, v, m.vals[k])
					}
					got = append(got, k)
				}
				if sh.Len() != len(m.keys) || fmt.Sprint(got) != fmt.Sprint(m.keys) {
					t.Fatalf("op %d: shard %d holds %v (len %d), model %v", op, idx, got, sh.Len(), m.keys)
				}
				sh.Unlock()
			}
			if capacity > 0 && evictions == 0 {
				t.Fatal("the key range never forced an eviction")
			}
		})
	}
}

// TestShardedConcurrentSnapshot hammers a Sharded from many goroutines
// with counters kept in the shards' counter blocks, while another
// goroutine takes snapshots. Every snapshot must hold all shard locks
// while it reads any shard, and see each get counted exactly once as a
// hit or a miss and no shard over quota; at the end the counters must
// reconcile exactly with what the workers did. Run under -race in CI.
func TestShardedConcurrentSnapshot(t *testing.T) {
	type counters struct{ gets, hits, misses, inserts, evictions int64 }
	const (
		capacity = 64
		workers  = 8
		opsEach  = 4000
		keys     = 200
	)
	s := New[int, counters](capacity)
	sum := func() counters {
		var c counters
		s.Snapshot(func(sh *Shard[int, counters]) {
			for i, o := range s.Shards() {
				if o.TryLock() {
					o.Unlock()
					t.Errorf("snapshot reads a shard while shard %d is unlocked", i)
				}
			}
			if sh.Len() > sh.Cap() {
				t.Errorf("shard holds %d entries over its quota %d", sh.Len(), sh.Cap())
			}
			c.gets += sh.Counters.gets
			c.hits += sh.Counters.hits
			c.misses += sh.Counters.misses
			c.inserts += sh.Counters.inserts
			c.evictions += sh.Counters.evictions
		})
		return c
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snapshots sync.WaitGroup
	snapshots.Add(1)
	go func() {
		defer snapshots.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c := sum(); c.hits+c.misses != c.gets {
				t.Errorf("torn snapshot: %d hits + %d misses != %d gets", c.hits, c.misses, c.gets)
				return
			}
		}
	}()
	gets := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			for i := 0; i < opsEach; i++ {
				key := fmt.Sprint("k", r.Intn(keys))
				sh := s.Shard(key)
				sh.Lock()
				if r.Intn(2) == 0 {
					gets[w]++
					sh.Counters.gets++
					if _, ok := sh.Get(key); ok {
						sh.Counters.hits++
					} else {
						sh.Counters.misses++
					}
				} else {
					if _, ok := sh.Peek(key); !ok {
						sh.Counters.inserts++
					}
					sh.Counters.evictions += int64(sh.Add(key, i))
				}
				sh.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapshots.Wait()

	c := sum()
	var wantGets int64
	for _, g := range gets {
		wantGets += g
	}
	var entries int64
	for _, sh := range s.Shards() {
		sh.Lock()
		entries += int64(sh.Len())
		sh.Unlock()
	}
	if c.gets != wantGets || c.hits+c.misses != wantGets {
		t.Fatalf("gets %d (hits %d + misses %d), workers did %d", c.gets, c.hits, c.misses, wantGets)
	}
	if entries+c.evictions != c.inserts {
		t.Fatalf("entries %d + evictions %d != inserts %d", entries, c.evictions, c.inserts)
	}
	if entries > capacity {
		t.Fatalf("%d entries over capacity %d", entries, capacity)
	}
}
