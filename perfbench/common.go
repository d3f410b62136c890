package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"lpltsp"
	"lpltsp/internal/labeling"
	"lpltsp/internal/rng"
)

// instance is one generated labeling problem. Its graph is a pure function
// of (workload seed, instance index); the program only ever sees the graph
// and p.
type instance struct {
	id string
	g  *lpltsp.Graph
	p  lpltsp.Vector

	lb       int // certified lower bound on λ_p(g); -1 until computed
	verified [][]int
	exact    int // span of the first answer claiming optimality; -1 if none
}

// shape names one instance class: size, diameter horizon k of the
// generator, edge density and the constraint vector.
type shape struct {
	n     int
	k     int
	extra float64
	p     lpltsp.Vector
}

// mix derives a child seed; splitmix keeps neighbouring indices unrelated.
func mix(seed uint64, idx int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newInstance(seed uint64, idx int, s shape) *instance {
	g := lpltsp.RandomSmallDiameter(mix(seed, idx), s.n, s.k, s.extra)
	return &instance{id: fmt.Sprintf("i%d", idx), g: g, p: s.p, lb: -1, exact: -1}
}

// withP is the same graph under another constraint vector (a distinct
// cache key for the solver).
func (in *instance) withP(p lpltsp.Vector, id string) *instance {
	return &instance{id: id, g: in.g, p: p, lb: -1, exact: -1}
}

// lowerBound is the instance's certificate: the larger of the reduction's
// path bound and the clique bound of Gᵏ. Computed off the clock.
func (in *instance) lowerBound() int {
	if in.lb < 0 {
		in.lb = labeling.PathLowerBound(in.g.N(), in.p)
		if c := labeling.CliqueLowerBound(in.g, in.p); c > in.lb {
			in.lb = c
		}
	}
	return in.lb
}

// answer is one operation's outcome as the caller saw it.
type answer struct {
	in     *instance
	span   int
	lab    []int
	exact  bool
	winner string
	lat    time.Duration
	err    error
}

// checker is the correctness gate every answer passes through after the
// clock stops: a Verify-clean labeling, a span equal to its largest label,
// a span at or above the instance's lower bound, and exact claims that
// agree with each other and with any direct exact solve.
type checker struct {
	mu                sync.Mutex
	attempted, failed int
	proven            int
	msgs              []string
}

// fail counts one failed operation; the caller holds c.mu or is the only
// goroutine using c.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// check gates one answer and reports whether it passed. Safe for
// concurrent use.
func (c *checker) check(a *answer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if a.err != nil {
		c.fail("%s: %v", a.in.id, a.err)
		return false
	}
	in := a.in
	if len(a.lab) != in.g.N() {
		c.fail("%s: labeling has %d labels for %d vertices", in.id, len(a.lab), in.g.N())
		return false
	}
	if !in.seen(a.lab) {
		if err := lpltsp.Verify(in.g, in.p, a.lab); err != nil {
			c.fail("%s: %v", in.id, err)
			return false
		}
		in.verified = append(in.verified, append([]int(nil), a.lab...))
	}
	if s := lpltsp.Labeling(a.lab).Span(); s != a.span {
		c.fail("%s: reported span %d but labels span %d", in.id, a.span, s)
		return false
	}
	lb := in.lowerBound()
	if a.span < lb {
		c.fail("%s: span %d below lower bound %d", in.id, a.span, lb)
		return false
	}
	if in.exact >= 0 && a.span < in.exact {
		c.fail("%s: span %d beats the claimed optimum %d", in.id, a.span, in.exact)
		return false
	}
	if a.exact {
		if in.exact >= 0 && in.exact != a.span {
			c.fail("%s: exact claims disagree (%d vs %d)", in.id, in.exact, a.span)
			return false
		}
		in.exact = a.span
	}
	if a.exact || a.span == lb {
		c.proven++
	}
	return true
}

// checkOptimum compares an instance's exact claims against an optimum
// computed directly by an exact TSP engine.
func (c *checker) checkOptimum(in *instance, opt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if in.exact >= 0 && in.exact != opt {
		c.fail("%s: claimed optimum %d but the direct exact solve gives %d", in.id, in.exact, opt)
	}
}

func (in *instance) seen(lab []int) bool {
	for _, v := range in.verified {
		if equalInts(v, lab) {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// closedLoop runs ops 0, 1, … on `clients` goroutines, each taking the
// next op only once its previous one is done. Ops come in rounds of
// `round`: a new round starts only while its projected end stays within
// the budget, and at most `limit` ops run. It returns how many ran and
// how long they took.
func closedLoop(clients, round, limit int, budget time.Duration, do func(client, op int)) (int, time.Duration) {
	var mu sync.Mutex
	next := 0
	start := time.Now()
	grab := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= limit {
			return -1
		}
		if next%round == 0 && next > 0 {
			el := time.Since(start)
			if el+el/time.Duration(next/round) > budget {
				limit = next
				return -1
			}
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := grab(); i >= 0; i = grab() {
				do(c, i)
			}
		}()
	}
	wg.Wait()
	return next, time.Since(start)
}

// tailLadder is the fixed set of percentiles the tail is read from.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// tail returns the highest ladder percentile, up to maxQ, with at least
// 10 samples beyond it, and its value.
func tail(sorted []time.Duration, maxQ float64) (float64, time.Duration) {
	n := len(sorted)
	for _, q := range tailLadder {
		if q > maxQ {
			continue
		}
		idx := int(math.Ceil(q/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return q, sorted[idx]
		}
	}
	if n == 0 {
		return 0, 0
	}
	return 50, sorted[(n-1)/2]
}

// tailWindow is the fewest samples a tail window holds: the fewest at
// which p90 has 10 samples beyond it. Higher percentiles of the cheap
// serving ops are set by the host's scheduling stalls on a small VM and
// did not repeat run to run.
const tailWindow = 100

// latencyTail reads the tail of a latency sample, in the order the ops
// ran, over consecutive windows of at least tailWindow samples (one
// window when the sample is smaller): each window's tail is its highest
// ladder percentile, up to maxQ, with at least 10 samples beyond it, and
// the result is the median over windows, so a stall of the machine that
// spoils one window does not set it.
func latencyTail(lats []time.Duration, maxQ float64) (q float64, t time.Duration, windows int) {
	windows = max(len(lats)/tailWindow, 1)
	var tails []time.Duration
	for i := 0; i < windows; i++ {
		var wt time.Duration
		q, wt = tail(sortDurations(lats[i*len(lats)/windows:(i+1)*len(lats)/windows]), maxQ)
		tails = append(tails, wt)
	}
	return q, median(tails), windows
}

func sortDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := sortDurations(d)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

func medianF(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf}
}

func (z zipf) sample(r *rng.RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
