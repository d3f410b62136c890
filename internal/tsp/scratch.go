package tsp

import (
	"context"
	"sync"
	"weak"

	"lpltsp/internal/dsu"
)

// Hot-path scratch pooling. Every engine leaf routine (neighbor-list
// construction, 2-opt queues, Or-opt/3-opt segment buffers, greedy edge
// sweeps, the Held–Karp DP layers, branch-and-bound node state) draws its
// working buffers from the package-level pools below instead of allocating
// per call. Batch workers and portfolio racers therefore converge on a
// small steady-state set of buffers: after warm-up, solving an instance
// allocates only its result tour. Pools hand out single structs (not raw
// slices), so Get/Put never re-boxes slice headers.
//
// Invariant: pooled buffers are always fully (re)initialized by their
// consumer before use; nothing relies on pooled contents.

// twoOptScratch backs twoOptPathFast: position index, don't-look bits, the
// wake queue, and the flat neighbor lists.
type twoOptScratch struct {
	pos      []int32
	queue    []int32
	inQueue  []bool
	dontLook []bool
	nbr      []int32 // flat neighbor lists, stride kk
	bucket   []int32 // neighbor-bucketing scratch (compact instances)
	start    []int32 // per-class bucket offsets (compact instances)
}

var twoOptPool = sync.Pool{New: func() any { return new(twoOptScratch) }}

func getTwoOptScratch(n, kk, classes int) *twoOptScratch {
	sc := twoOptPool.Get().(*twoOptScratch)
	if cap(sc.pos) < n {
		sc.pos = make([]int32, n)
		sc.queue = make([]int32, n)
		sc.inQueue = make([]bool, n)
		sc.dontLook = make([]bool, n)
	}
	sc.pos = sc.pos[:n]
	sc.queue = sc.queue[:n]
	sc.inQueue = sc.inQueue[:n]
	sc.dontLook = sc.dontLook[:n]
	if nb := classes * kk; cap(sc.bucket) < nb {
		sc.bucket = make([]int32, nb)
	}
	if cap(sc.nbr) < n*kk {
		sc.nbr = make([]int32, n*kk)
	}
	sc.nbr = sc.nbr[:n*kk]
	if cap(sc.start) < classes+1 {
		sc.start = make([]int32, classes+1)
	}
	sc.start = sc.start[:classes+1]
	return sc
}

func putTwoOptScratch(sc *twoOptScratch) { twoOptPool.Put(sc) }

// segScratch backs the segment-rebuilding moves (Or-opt relocation,
// double-bridge kicks, 3-opt reconnection): one n-sized rebuild buffer and
// two small segment buffers.
type segScratch struct {
	rest []int
	segB []int
	segC []int
}

var segPool = sync.Pool{New: func() any { return new(segScratch) }}

func getSegScratch(n int) *segScratch {
	sc := segPool.Get().(*segScratch)
	if cap(sc.rest) < n {
		sc.rest = make([]int, n)
		sc.segB = make([]int, n)
		sc.segC = make([]int, n)
	}
	sc.rest = sc.rest[:n]
	sc.segB = sc.segB[:n]
	sc.segC = sc.segC[:n]
	return sc
}

func putSegScratch(sc *segScratch) { segPool.Put(sc) }

// visitedScratch backs nearest-neighbor construction.
type visitedScratch struct{ visited []bool }

var visitedPool = sync.Pool{New: func() any { return new(visitedScratch) }}

func getVisited(n int) *visitedScratch {
	sc := visitedPool.Get().(*visitedScratch)
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
	}
	sc.visited = sc.visited[:n]
	for i := range sc.visited {
		sc.visited[i] = false
	}
	return sc
}

func putVisited(sc *visitedScratch) { visitedPool.Put(sc) }

// greedyEdge is the edge record of GreedyEdgePath's sweep. uv packs
// (u << 32) | v so the (weight, u, v) tie-break is a two-field compare.
type greedyEdge struct {
	w  int64
	uv uint64
}

func (e greedyEdge) split() (u, v int) { return int(e.uv >> 32), int(uint32(e.uv)) }

func packUV(u, v int) uint64 { return uint64(u)<<32 | uint64(uint32(v)) }

// greedyScratch backs GreedyEdgePath: the edge list (n(n-1)/2 entries, by
// far the largest heuristic allocation), degree counters, path adjacency,
// and counting-sort offsets for compact instances.
type greedyScratch struct {
	edges []greedyEdge
	deg   []int8
	adj   [][2]int32
	cnt   []int32
	d     dsu.DSU
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

func getGreedyScratch(n, classes int) *greedyScratch {
	sc := greedyPool.Get().(*greedyScratch)
	ne := n * (n - 1) / 2
	if cap(sc.edges) < ne {
		sc.edges = make([]greedyEdge, ne)
	}
	sc.edges = sc.edges[:ne]
	if cap(sc.deg) < n {
		sc.deg = make([]int8, n)
		sc.adj = make([][2]int32, n)
	}
	sc.deg = sc.deg[:n]
	sc.adj = sc.adj[:n]
	for i := 0; i < n; i++ {
		sc.deg[i] = 0
		sc.adj[i] = [2]int32{-1, -1}
	}
	if cap(sc.cnt) < classes+1 {
		sc.cnt = make([]int32, classes+1)
	}
	sc.cnt = sc.cnt[:classes+1]
	for i := range sc.cnt {
		sc.cnt[i] = 0
	}
	sc.d.Reset(n)
	return sc
}

func putGreedyScratch(sc *greedyScratch) { greedyPool.Put(sc) }

// hkScratch backs the Held–Karp DP (heldkarp.go): one int32 slab holding
// every subset layer up to depth ⌈m/2⌉ (Σ_{k≤⌈m/2⌉} C(m,k)·k·4 B, the
// dominant allocation of exact solves: about 384 MiB at m = 24), the int32
// weight matrix, and the per-chunk results of a parallel pass, next to
// the state of the solve that holds it. Pooling these is what makes
// steady-state exact batch solving allocation-free; the pool is
// GC-clearable, so a one-off large solve does not pin its table forever.
type hkScratch struct {
	slab  []int32 // the table of the current solve: small or big.cells
	small []int32 // pooled table, at most hkPoolMaxSlab entries
	big   *hkSlab // held from hkBig while the table is larger
	w32   []int32
	parts []hkPart
	wg    sync.WaitGroup

	ctx             context.Context
	m, h            int             // kernel vertices, DP depth ⌈m/2⌉
	off             [hkMaxM + 2]int // layer k occupies slab[off[k]:off[k+1]]
	joinIn, joinOut int             // join takes S ⊇ joinIn with S ∩ joinOut = ∅
}

// hkPart is one chunk's result of a parallel pass: whether it finished,
// and for the join the cheapest split it saw (first-half mask, index of u
// in it, index of v in its complement).
type hkPart struct {
	ok         bool
	cost       int32
	mask, u, v int
}

var hkPool = sync.Pool{New: func() any { return new(hkScratch) }}

// hkPoolMaxSlab caps the slab a pooled scratch keeps (16M entries,
// 64 MiB: every table up to m = 21). sync.Pool keeps a scratch per P, so
// pooling the m = 22–25 tables would keep several of them resident at
// once. They live in hkBig instead.
const hkPoolMaxSlab = 1 << 24

// hkSlab is a table over hkPoolMaxSlab.
type hkSlab struct{ cells []int32 }

// hkBig holds the last large table, weakly: the next large solve reuses
// it unless a GC has reclaimed it in between. It is allocated for
// m = HeldKarpMaxN at least, so a run of growing solves fills one table
// instead of leaving a trail of smaller ones (pages a smaller table does
// not reach are never touched, so they take no memory).
var hkBig struct {
	sync.Mutex
	slab weak.Pointer[hkSlab]
}

// hkMaxPathSlab is the free-path table at n = HeldKarpMaxN.
var hkMaxPathSlab = func() (words int) {
	for k := 1; k <= (HeldKarpMaxN+1)/2; k++ {
		words += hkBinom[HeldKarpMaxN][k] * k
	}
	return words
}()

func getHKScratch(ctx context.Context, m int) *hkScratch {
	sc := hkPool.Get().(*hkScratch)
	sc.ctx, sc.m, sc.h = ctx, m, (m+1)/2
	for k := 1; k <= sc.h; k++ {
		sc.off[k+1] = sc.off[k] + hkBinom[m][k]*k
	}
	size := sc.off[sc.h+1]
	switch {
	case size > hkPoolMaxSlab:
		hkBig.Lock()
		sc.big = hkBig.slab.Value()
		hkBig.slab = weak.Pointer[hkSlab]{}
		hkBig.Unlock()
		if sc.big == nil || cap(sc.big.cells) < size {
			sc.big = &hkSlab{make([]int32, max(size, hkMaxPathSlab))}
		}
		sc.slab = sc.big.cells[:size]
	default:
		if cap(sc.small) < size {
			sc.small = make([]int32, size)
		}
		sc.slab = sc.small[:size]
	}
	if cap(sc.w32) < m*m {
		sc.w32 = make([]int32, m*m)
	}
	sc.w32 = sc.w32[:m*m]
	return sc
}

func putHKScratch(sc *hkScratch) {
	if b := sc.big; b != nil {
		hkBig.Lock()
		if idle := hkBig.slab.Value(); idle == nil || cap(idle.cells) < cap(b.cells) {
			hkBig.slab = weak.Make(b)
		}
		hkBig.Unlock()
		sc.big = nil
	}
	sc.ctx, sc.slab = nil, nil
	hkPool.Put(sc)
}
