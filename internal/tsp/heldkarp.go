package tsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
)

// Held–Karp exact dynamic programming over vertex subsets: O(2ⁿ·n²) time.
// This is the algorithm behind Corollary 1 of the paper: via the
// reduction, L(p)-LABELING on diameter-≤k graphs is solved exactly in
// O(2ⁿ·n²).
//
// dp[S][v] is the cost of the cheapest path that covers exactly S and ends
// at v ∈ S. Path TSP is symmetric, so the DP runs only to depth
// h = ⌈n/2⌉: every Hamiltonian path splits after its h-th vertex into a
// path over some S (|S| = h) ending at u and the reverse of a path over
// V∖S ending at v, and the optimum is the join
//
//	min over |S| = h, u ∈ S, v ∉ S of dp[S][u] + w(u,v) + dp[V∖S][v].
//
// For even n every split would appear twice (as S and as V∖S), so the
// join takes only the S that contain vertex n−1.
//
// Layout. Layer k (all S with |S| = k) is stored contiguously in colex
// rank order, with one int32 per v ∈ S in increasing vertex order:
// C(n,k)·k entries. Gosper's hack enumerates a layer in exactly this
// order, and the rank of S∖{b_j} comes in O(1) per j from prefix and
// suffix sums of binomials over S's bits, so each relaxation reads one
// dense (k−1)-wide row. The table is Σ_{k≤⌈n/2⌉} C(n,k)·k·4 B, about
// 384 MiB at n = 24. There is no parent table: the tour is rebuilt by
// finding, at each step back, the u with dp[S∖v][u] + w(u,v) = dp[S][v].
//
// One kernel serves every objective. Fixed endpoints s and t seed the DP
// only at {s} and {t} (every other start stays at inf), and the join takes
// the S with s ∈ S, t ∉ S. The cycle is the fixed-endpoint path from
// vertex 0 to a copy of it (n+1 vertices).
//
// Each layer, and the join, is split across GOMAXPROCS workers (passes of
// fewer than 64 sets run serially). Workers write disjoint rows and check
// for cancellation every hkCtxStride sets.

// HeldKarpMaxN bounds the instance size accepted by the exact DP. The
// table takes Σ_{k≤⌈n/2⌉} C(n,k)·k·4 B, about 384 MiB at n = 24 (the
// cycle objective runs on n+1 vertices: about 930 MiB). The bound stays
// at 24 although memory would now allow one or two more vertices: the
// exact engine sends n > HeldKarpMaxN to branch and bound, which solves
// the reduction's n = 25–26 instances in milliseconds where the DP would
// take seconds.
const HeldKarpMaxN = 24

// hkMaxM is the largest vertex count the kernel runs on (the cycle adds
// a copy of vertex 0).
const hkMaxM = HeldKarpMaxN + 1

// hkInf marks a (set, end) pair no admissible path reaches. Weights are
// bounded so that every real path costs less (see loadWeights), and one
// weight added to hkInf cannot overflow int32.
const hkInf = int32(math.MaxInt32 / 2)

// hkBinom[a][b] = C(a, b) (0 for b > a).
var hkBinom = func() (c [hkMaxM + 1][hkMaxM + 1]int) {
	for a := range c {
		c[a][0] = 1
		for b := 1; b <= a; b++ {
			c[a][b] = c[a-1][b-1] + c[a-1][b]
		}
	}
	return c
}()

// HeldKarpPath solves METRIC PATH TSP with free endpoints exactly.
// It returns an optimal Hamiltonian path and its cost.
func HeldKarpPath(ins *Instance) (Tour, int64, error) {
	return heldKarp(context.Background(), ins, -1, -1, false)
}

// HeldKarpPathContext is HeldKarpPath with cooperative cancellation: the DP
// checks ctx between and within layers and during the final join, and
// returns ctx.Err() when cancelled (the DP has no meaningful incumbent
// before completion).
func HeldKarpPathContext(ctx context.Context, ins *Instance) (Tour, int64, error) {
	return heldKarp(ctx, ins, -1, -1, false)
}

// HeldKarpPathBetween solves PATH TSP with fixed endpoints s and t, which
// must be distinct vertices of ins. The returned path runs from s to t.
func HeldKarpPathBetween(ins *Instance, s, t int) (Tour, int64, error) {
	if s < 0 || s >= ins.n || t < 0 || t >= ins.n {
		return nil, 0, fmt.Errorf("tsp: path endpoints (%d, %d) out of range [0, %d)", s, t, ins.n)
	}
	if s == t {
		return nil, 0, fmt.Errorf("tsp: path endpoints must differ")
	}
	return heldKarp(context.Background(), ins, s, t, false)
}

// HeldKarpCycle solves TSP (Hamiltonian cycle) exactly. The tour starts at
// vertex 0.
func HeldKarpCycle(ins *Instance) (Tour, int64, error) {
	return heldKarp(context.Background(), ins, -1, -1, true)
}

// heldKarp solves the path between s and t (both -1 for free endpoints),
// or the cycle, on ins.
func heldKarp(ctx context.Context, ins *Instance, s, t int, cycle bool) (Tour, int64, error) {
	n := ins.n
	if n > HeldKarpMaxN {
		return nil, 0, fmt.Errorf("tsp: Held–Karp limited to n <= %d, got %d", HeldKarpMaxN, n)
	}
	if n <= 1 {
		return identity(n), 0, nil
	}
	m := n
	if cycle {
		m, s, t = n+1, 0, n
	}
	if canceled(ctx) {
		return nil, 0, ctx.Err()
	}
	sc := getHKScratch(ctx, m)
	defer putHKScratch(sc)
	if err := sc.loadWeights(ins); err != nil {
		return nil, 0, err
	}
	tour, cost, err := sc.solve(s, t)
	if err != nil {
		return nil, 0, err
	}
	return tour[:n], int64(cost), nil
}

// loadWeights fills w32 for the m kernel vertices; vertex n (present for
// the cycle only) is a copy of vertex 0. Every weight must lie in
// [0, (hkInf−1)/(m−1)], so that a path of m−1 edges costs less than hkInf.
func (sc *hkScratch) loadWeights(ins *Instance) error {
	n, m := ins.n, sc.m
	limit := int64(hkInf-1) / int64(m-1)
	for i := 0; i < m; i++ {
		row := sc.w32[i*m : (i+1)*m]
		for j := range row {
			w := ins.Weight(i%n, j%n)
			if w < 0 || w > limit {
				return fmt.Errorf("tsp: weight %d outside Held–Karp int32 range [0, %d] on %d vertices", w, limit, m)
			}
			row[j] = int32(w)
		}
	}
	return nil
}

// solve runs the layers up to h, the join, and the reconstruction. It
// returns ctx.Err() if a pass was cancelled; a cancellation that lands
// after the join does not discard the optimum.
func (sc *hkScratch) solve(s, t int) (Tour, int32, error) {
	m, h := sc.m, sc.h
	sc.joinIn, sc.joinOut = 0, 0
	if s >= 0 {
		sc.joinIn, sc.joinOut = 1<<uint(s), 1<<uint(t)
	} else if m%2 == 0 {
		sc.joinIn = 1 << uint(m-1)
	}
	// Layer 1: {v} has colex rank v and a one-entry row.
	seeds := sc.layer(1)
	for v := range seeds {
		seeds[v] = 0
		if s >= 0 && v != s && v != t {
			seeds[v] = hkInf
		}
	}
	for k := 2; k <= h; k++ {
		if canceled(sc.ctx) || !sc.parallel(k, hkBinom[m][k]) {
			return nil, 0, sc.ctx.Err()
		}
	}
	if canceled(sc.ctx) || !sc.parallel(0, hkBinom[m][h]) {
		return nil, 0, sc.ctx.Err()
	}
	best := hkPart{cost: hkInf}
	for _, p := range sc.parts {
		if p.cost < best.cost {
			best = p
		}
	}
	if best.cost >= hkInf {
		return nil, 0, fmt.Errorf("tsp: no feasible tour (unexpected for complete instance)")
	}
	tour := make(Tour, m)
	comp := (1<<uint(m) - 1) &^ best.mask
	if !sc.rebuild(best.mask, best.u, tour, h-1, -1) || !sc.rebuild(comp, best.v, tour, h, 1) {
		return nil, 0, errors.New("tsp: Held–Karp tour reconstruction failed (internal error)")
	}
	return tour, best.cost, nil
}

// layer returns the rows of layer k (k ≥ 1).
func (sc *hkScratch) layer(k int) []int32 {
	return sc.slab[sc.off[k]:sc.off[k+1]]
}

// parallel runs pass k (a layer relaxation for k ≥ 2, the join for k = 0)
// over the total sets of its layer, split into GOMAXPROCS chunks, and
// reports whether every chunk completed (false = cancelled). Chunk 0 runs
// on the calling goroutine; the others go to helper goroutines through
// hkJobs.
func (sc *hkScratch) parallel(k, total int) bool {
	workers := runtime.GOMAXPROCS(0)
	if total < 64 || workers <= 1 {
		workers = 1
	}
	chunk := (total + workers - 1) / workers
	nchunks := (total + chunk - 1) / chunk
	if cap(sc.parts) < nchunks {
		sc.parts = make([]hkPart, nchunks)
	}
	sc.parts = sc.parts[:nchunks]
	for c := 1; c < nchunks; c++ {
		sc.wg.Add(1)
		go hkHelper()
		hkJobs <- hkJob{sc, k, c, c * chunk, min(total, (c+1)*chunk)}
	}
	sc.run(k, 0, 0, min(total, chunk))
	sc.wg.Wait()
	for _, p := range sc.parts {
		if !p.ok {
			return false
		}
	}
	return true
}

// hkJob is one chunk of a parallel pass.
type hkJob struct {
	sc           *hkScratch
	k, c, lo, hi int
}

// hkJobs hands chunks to helper goroutines. Each helper runs exactly one
// job, whichever solve it came from; passing the job through a channel
// instead of a closure keeps the spawn allocation-free. The buffer lets a
// solve hand out its chunks and start on its own without waiting for the
// helpers to be scheduled; 64 covers GOMAXPROCS−1 sends from several
// solves at once, and past it a send only waits for a helper.
var hkJobs = make(chan hkJob, 64)

func hkHelper() {
	j := <-hkJobs
	j.sc.run(j.k, j.c, j.lo, j.hi)
	j.sc.wg.Done()
}

func (sc *hkScratch) run(k, c, lo, hi int) {
	p := &sc.parts[c]
	*p = hkPart{cost: hkInf}
	if k == 0 {
		p.ok = sc.join(lo, hi, p)
	} else {
		p.ok = sc.relax(k, lo, hi)
	}
}

// hkCtxStride is how many sets a worker handles between cancellation
// checks (a set costs O(k²), so this is well under a millisecond).
const hkCtxStride = 4096

// relax fills the rows of layer k for colex ranks [lo, hi):
// dp[S][v] = min over u ∈ S∖{v} of dp[S∖{v}][u] + w(u,v). It reports
// whether it finished (false = cancelled).
func (sc *hkScratch) relax(k, lo, hi int) bool {
	m, w32 := sc.m, sc.w32
	prev, cur := sc.layer(k-1), sc.layer(k)
	var b, rk [hkMaxM]int
	mask := unrankColex(lo, k)
	for r := lo; r < hi; r, mask = r+1, nextColex(mask) {
		if (r-lo)%hkCtxStride == 0 && canceled(sc.ctx) {
			return false
		}
		row := cur[r*k : r*k+k]
		setBits(mask, b[:k])
		// rk[j] = rank of S∖{b_j}: elements below b_j keep their index
		// i (term C(b_i, i+1)), elements above it move down one (C(b_i, i)).
		acc := 0
		for j := k - 1; j >= 0; j-- {
			rk[j] = acc
			acc += hkBinom[b[j]][j]
		}
		acc = 0
		for j := 0; j < k; j++ {
			rk[j] += acc
			acc += hkBinom[b[j]][j+1]
		}
		for j := range row {
			p := rk[j] * (k - 1)
			pr := prev[p : p+k-1]
			wv := w32[b[j]*m : b[j]*m+m]
			best := hkInf
			for i := 0; i < j; i++ {
				if c := pr[i] + wv[b[i]]; c < best {
					best = c
				}
			}
			for i := j; i < k-1; i++ {
				if c := pr[i] + wv[b[i+1]]; c < best {
					best = c
				}
			}
			row[j] = best
		}
	}
	return true
}

// join scans the layer-h sets of colex ranks [lo, hi) that qualify as
// first halves and records in p the cheapest split, taking the first
// minimum in (rank, v, u) order so the result does not depend on the
// chunking.
func (sc *hkScratch) join(lo, hi int, p *hkPart) bool {
	m, h, w32 := sc.m, sc.h, sc.w32
	g := m - h
	first, second := sc.layer(h), sc.layer(g)
	full := 1<<uint(m) - 1
	var b, cb [hkMaxM]int
	mask := unrankColex(lo, h)
	for r := lo; r < hi; r, mask = r+1, nextColex(mask) {
		if (r-lo)%hkCtxStride == 0 && canceled(sc.ctx) {
			return false
		}
		if mask&sc.joinIn != sc.joinIn || mask&sc.joinOut != 0 {
			continue
		}
		srow := first[r*h : r*h+h]
		setBits(mask, b[:h])
		comp := full &^ mask
		setBits(comp, cb[:g])
		cr := colexRank(cb[:g]) * g
		crow := second[cr : cr+g]
		for jc, dv := range crow {
			if dv >= hkInf {
				continue
			}
			wv := w32[cb[jc]*m : cb[jc]*m+m]
			mu, ui := hkInf, 0
			for i, du := range srow {
				if c := du + wv[b[i]]; c < mu {
					mu, ui = c, i
				}
			}
			if mu < hkInf && mu+dv < p.cost {
				p.cost, p.mask, p.u, p.v = mu+dv, mask, ui, jc
			}
		}
	}
	return true
}

// rebuild writes the half path that ends at the j-th vertex of mask into
// tour, starting at index pos and moving by step toward its first vertex.
func (sc *hkScratch) rebuild(mask, j int, tour Tour, pos, step int) bool {
	var b [hkMaxM]int
	for k := bits.OnesCount(uint(mask)); ; k-- {
		setBits(mask, b[:k])
		v := b[j]
		tour[pos] = v
		pos += step
		if k == 1 {
			return true
		}
		want := sc.layer(k)[colexRank(b[:k])*k+j]
		mask &^= 1 << uint(v)
		copy(b[j:k-1], b[j+1:k])
		pr := colexRank(b[:k-1]) * (k - 1)
		prow := sc.layer(k - 1)[pr : pr+k-1]
		wv := sc.w32[v*sc.m:]
		j = -1
		for i, c := range prow {
			if c < hkInf && c+wv[b[i]] == want {
				j = i
				break
			}
		}
		if j < 0 {
			return false
		}
	}
}

// setBits writes the len(b) lowest set bits of mask into b, ascending.
func setBits(mask int, b []int) {
	for i := range b {
		b[i] = bits.TrailingZeros(uint(mask))
		mask &= mask - 1
	}
}

// colexRank is the rank of the ascending set b among the sets of its
// size: Σ C(b_i, i+1).
func colexRank(b []int) int {
	r := 0
	for i, v := range b {
		r += hkBinom[v][i+1]
	}
	return r
}

// unrankColex returns the k-set of colex rank r as a bit mask.
func unrankColex(r, k int) int {
	mask := 0
	v := hkMaxM - 1
	for i := k; i >= 1; i-- {
		for hkBinom[v][i] > r {
			v--
		}
		mask |= 1 << uint(v)
		r -= hkBinom[v][i]
		v--
	}
	return mask
}

// nextColex is Gosper's hack: the next larger mask with the same popcount,
// which is the next set in colex order. The hack's division by the lowest
// set bit is a shift here.
func nextColex(x int) int {
	r := x + x&-x
	return (r^x)>>(2+uint(bits.TrailingZeros(uint(x)))) | r
}
