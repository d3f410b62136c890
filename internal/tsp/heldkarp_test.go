package tsp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lpltsp/internal/graph"
	"lpltsp/internal/rng"
)

// refHeldKarp is the plain Held–Karp relaxation over a full mask×n table,
// cost only: the oracle for the half-depth kernel past brute-force sizes.
// It returns, for each v, the cheapest Hamiltonian path that ends at v
// and starts at s (anywhere for s < 0).
func refHeldKarp(ins *Instance, s int) []int64 {
	n := ins.n
	const inf = int64(1) << 60
	dp := make([]int64, n<<uint(n))
	for i := range dp {
		dp[i] = inf
	}
	for v := 0; v < n; v++ {
		if s < 0 || v == s {
			dp[(1<<uint(v))*n+v] = 0
		}
	}
	w := ins.Densify().w
	full := 1<<uint(n) - 1
	for mask := 1; mask < full; mask++ {
		for vs := mask; vs != 0; vs &= vs - 1 {
			v := bits.TrailingZeros(uint(vs))
			c := dp[mask*n+v]
			if c == inf {
				continue
			}
			for us := full &^ mask; us != 0; us &= us - 1 {
				u := bits.TrailingZeros(uint(us))
				next := (mask|1<<uint(u))*n + u
				dp[next] = min(dp[next], c+w[v*n+u])
			}
		}
	}
	return dp[full*n:]
}

// reducedInstance is the reduction's instance for L(1,2,2)-labeling a
// random diameter-≤3 graph: Weight(u,v) = p[dist(u,v)−1].
func reducedInstance(r *rng.RNG, n int) *Instance {
	g := graph.RandomSmallDiameter(r, n, 3, 0.1)
	return NewClassInstance(n, g.AllPairsDistances().Data(), []int64{1, 2, 2})
}

func TestHeldKarpMatchesReferenceDP(t *testing.T) {
	r := rng.New(12)
	for n := 3; n <= 16; n++ {
		compact, _ := classInstancePair(r, n, 3)
		for _, fam := range []struct {
			name string
			ins  *Instance
		}{
			{"dense", randomInstance(r, n, 40)},
			{"compact", compact},
			{"reduced", reducedInstance(r, n)},
		} {
			ins := fam.ins
			s, e := r.Intn(n), r.Intn(n-1)
			if e >= s {
				e++
			}
			// A cycle costs the same from every start, so the DP from s
			// answers both the s–e path and the cycle.
			free, fromS := refHeldKarp(ins, -1), refHeldKarp(ins, s)
			wantPath, wantCycle := slices.Min(free), int64(math.MaxInt64)
			for v, c := range fromS {
				wantCycle = min(wantCycle, c+ins.Weight(v, s))
			}
			for _, obj := range []string{"path", "between", "cycle"} {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, fam.name, obj), func(t *testing.T) {
					var (
						tour Tour
						cost int64
						err  error
						want int64
						got  int64
					)
					switch obj {
					case "path":
						tour, cost, err = HeldKarpPath(ins)
						want, got = wantPath, ins.PathCost(tour)
					case "between":
						tour, cost, err = HeldKarpPathBetween(ins, s, e)
						want, got = fromS[e], ins.PathCost(tour)
						if err == nil && (tour[0] != s || tour[n-1] != e) {
							t.Fatalf("path %v does not run from %d to %d", tour, s, e)
						}
					case "cycle":
						tour, cost, err = HeldKarpCycle(ins)
						want, got = wantCycle, ins.CycleCost(tour)
					}
					if err != nil {
						t.Fatal(err)
					}
					if err := ins.ValidateTour(tour); err != nil {
						t.Fatal(err)
					}
					if got != cost {
						t.Fatalf("reported cost %d, tour costs %d", cost, got)
					}
					if cost != want {
						t.Fatalf("cost %d, reference DP %d", cost, want)
					}
				})
			}
		}
	}
}

func TestHeldKarpPathBetweenValidatesEndpoints(t *testing.T) {
	ins := randomInstance(rng.New(5), 6, 10)
	for _, tc := range []struct {
		s, t int
		ok   bool
	}{
		{0, 5, true},
		{4, 1, true},
		{6, 1, false},
		{1, 6, false},
		{-1, 2, false},
		{2, -1, false},
		{-1, -1, false},
		{3, 3, false},
	} {
		tour, _, err := HeldKarpPathBetween(ins, tc.s, tc.t)
		if (err == nil) != tc.ok {
			t.Fatalf("s=%d t=%d: err = %v, want ok=%v", tc.s, tc.t, err, tc.ok)
		}
		if tc.ok && (tour[0] != tc.s || tour[len(tour)-1] != tc.t) {
			t.Fatalf("s=%d t=%d: path %v has the wrong endpoints", tc.s, tc.t, tour)
		}
	}
}

// countdownCtx is cancelled by the at-th call of Done, so a test can
// cancel the DP at a chosen cancellation check. It records which checks
// the final join made and counts the checks made after the cancelling one.
type countdownCtx struct {
	context.Context
	mu        sync.Mutex
	calls, at int
	joinCalls []int // indices of the checks made by the join
	firedAt   time.Time
	after     int
	done      chan struct{}
}

func newCountdownCtx(at int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} {
	pcs := make([]uintptr, 8)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	inJoin := false
	for more := true; more && !inJoin; {
		var f runtime.Frame
		f, more = frames.Next()
		inJoin = strings.HasSuffix(f.Function, "(*hkScratch).join")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if inJoin {
		c.joinCalls = append(c.joinCalls, c.calls)
	}
	switch {
	case c.at > 0 && c.calls == c.at:
		c.firedAt = time.Now()
		close(c.done)
	case c.at > 0 && c.calls > c.at:
		c.after++
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestHeldKarpCancelDuringJoin cancels at a check the final join makes
// and wants ctx.Err() back after at most one more check per worker.
func TestHeldKarpCancelDuringJoin(t *testing.T) {
	ins := engineTestInstance(7, 18)
	dry := newCountdownCtx(0)
	if _, _, err := HeldKarpPathContext(dry, ins); err != nil {
		t.Fatal(err)
	}
	// The layers run before the join and make the same checks every time,
	// so the join's middle check has the same index in the next solve.
	if len(dry.joinCalls) < 2 {
		t.Fatalf("the join made %d cancellation checks over C(18,9) sets", len(dry.joinCalls))
	}
	ctx := newCountdownCtx(dry.joinCalls[len(dry.joinCalls)/2])
	_, _, err := HeldKarpPathContext(ctx, ins)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !slices.Contains(ctx.joinCalls, ctx.at) {
		t.Fatalf("check %d that cancelled was not made by the join (join checks %v)", ctx.at, ctx.joinCalls)
	}
	if took := time.Since(ctx.firedAt); took > 2*time.Second {
		t.Fatalf("returned %v after cancellation", took)
	}
	if max := runtime.GOMAXPROCS(0); ctx.after > max {
		t.Fatalf("%d checks after cancellation, want at most one per worker (%d)", ctx.after, max)
	}
}

// TestHeldKarpConcurrentSolves runs solves of several sizes from several
// goroutines at once; they share the scratch pool and the helper
// goroutines' job channel, and each must get its own optimum.
func TestHeldKarpConcurrentSolves(t *testing.T) {
	r := rng.New(21)
	var inss []*Instance
	var want []int64
	for n := 9; n <= 15; n++ {
		ins := randomInstance(r, n, 9)
		_, c, err := HeldKarpCycle(ins)
		if err != nil {
			t.Fatal(err)
		}
		inss, want = append(inss, ins), append(want, c)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * len(inss) {
				k := (i + g) % len(inss)
				tour, c, err := HeldKarpCycle(inss[k])
				if err == nil {
					err = inss[k].ValidateTour(tour)
				}
				if err != nil || c != want[k] || inss[k].CycleCost(tour) != c {
					t.Errorf("goroutine %d, n=%d: cost %d (want %d), err %v", g, inss[k].N(), c, want[k], err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHeldKarpWeightRange: weights are accepted up to the largest value
// whose Hamiltonian paths still fit the int32 table, and rejected past it
// or below zero instead of overflowing.
func TestHeldKarpWeightRange(t *testing.T) {
	const n = 5
	limit := int64(hkInf-1) / (n - 1)
	for _, tc := range []struct {
		w  int64
		ok bool
	}{{limit, true}, {limit + 1, false}, {math.MaxInt32 / 4, false}, {-1, false}} {
		ins := NewInstance(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ins.SetWeight(i, j, tc.w)
			}
		}
		_, cost, err := HeldKarpPath(ins)
		if (err == nil) != tc.ok {
			t.Fatalf("w=%d: err = %v, want ok=%v", tc.w, err, tc.ok)
		}
		if tc.ok && cost != (n-1)*tc.w {
			t.Fatalf("w=%d: cost %d, want %d", tc.w, cost, (n-1)*tc.w)
		}
	}
}
