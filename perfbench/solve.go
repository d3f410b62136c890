package main

import (
	"context"
	"time"

	"lpltsp"
	"lpltsp/internal/core"
	"lpltsp/internal/tsp"
)

// solveWorkload drives the library entry point lpltsp.SolveContext with
// default options from closed-loop clients over a stream of distinct
// instances. The stream is cut into rounds: a round is a fixed list of
// instance shapes, and a run measures whole rounds, so every run sees the
// same mix whatever its length.
type solveWorkload struct {
	seed      uint64
	clients   int
	round     []shape
	warm      []shape // cheap shapes solved once during set-up
	maxRounds int
	tailMax   float64

	insts []*instance
}

// solveCold: n≈64–512 on the heuristic side of the planner, half of the
// shapes hard for the engines (p=(1,2,2) on sparse graphs: the path must
// follow graph edges), half easy (p=(1,1,2,2): lower bound reachable).
func solveCold(seed uint64, tiny bool) *solveWorkload {
	// Largest first, so both clients meet the cheap n=64 ops together at
	// the end of a round. Solve time follows n closely, so the percentiles
	// are read where one size class is large: p80 in the middle of the six
	// n=256 ops, p50 in the upper middle of the 22 n=64 ops. On the edge
	// between two classes the order statistic moved 0.28 (IQR/median over
	// 10 seeds) on a 2-vCPU VM.
	sizes := []int{512, 256, 256, 256, 128}
	for i := 0; i < 11; i++ {
		sizes = append(sizes, 64)
	}
	if tiny {
		sizes = []int{64}
	}
	var round []shape
	for _, n := range sizes {
		round = append(round,
			shape{n: n, k: 3, extra: 3 / float64(n), p: lpltsp.Vector{1, 2, 2}},
			shape{n: n, k: 4, extra: 2 / float64(n), p: lpltsp.Vector{1, 1, 2, 2}})
	}
	// A run fits three to five rounds (96 to 160 ops): p80 is the highest
	// percentile with 10 samples beyond it at three, and stays at about
	// three quarters of the way up the n=256 ops at every count.
	return &solveWorkload{seed: seed, clients: clients(), round: round, warm: round[len(round)-2:],
		maxRounds: 16, tailMax: 80}
}

// solveExact: n=14–34 on both sides of tsp.HeldKarpMaxN, so the default
// planner runs Held–Karp (n ≤ 24) or branch and bound (25 ≤ n ≤ 36).
// The cheap shapes come first; the n=19–24 Held–Karp band closes every
// round. One client: a Held–Karp table at n=24 is 2 GiB.
//
// A run fits one round of 66 ops: p80, capped so that a faster program
// fitting more rounds is read at the same percentile, lands on Held–Karp
// at n=17–18. The band is 6 ops of 66 and never reaches the tail; it is
// most of a round's time, so it shows in throughput_ops_s, and its tables
// in peak_rss_mb.
func solveExact(seed uint64, tiny bool) *solveWorkload {
	reps, hkLo, hkHi, bnbHi, band := 4, 14, 18, 34, 24
	if tiny {
		reps, hkLo, hkHi, bnbHi, band = 1, 14, 15, 26, 18
	}
	var round []shape
	for rep := 0; rep < reps; rep++ {
		for n := hkLo; n <= hkHi; n++ {
			round = append(round, shape{n: n, k: 3, extra: 0.1, p: lpltsp.Vector{1, 2, 2}})
		}
		for n := 25; n <= bnbHi; n++ {
			round = append(round, shape{n: n, k: 3, extra: 0.3, p: lpltsp.Vector{2, 1, 1}})
		}
	}
	for n := hkHi + 1; n <= band; n++ {
		round = append(round, shape{n: n, k: 3, extra: 0.1, p: lpltsp.Vector{1, 2, 2}})
	}
	return &solveWorkload{seed: seed, clients: 1, round: round,
		warm: []shape{round[0], round[hkHi-hkLo+1]}, maxRounds: 6, tailMax: 80}
}

func (w *solveWorkload) setup() error {
	lpltsp.ResetCache()
	w.insts = make([]*instance, 0, w.maxRounds*len(w.round))
	for i := 0; i < w.maxRounds*len(w.round); i++ {
		w.insts = append(w.insts, newInstance(w.seed, i, w.round[i%len(w.round)]))
	}
	// Warm the engines' pools and registries on instances outside the
	// measured stream, leaving the cache empty.
	for j, s := range w.warm {
		warm := newInstance(w.seed, -1-j, s)
		if _, err := lpltsp.SolveContext(context.Background(), warm.g, warm.p, &lpltsp.Options{Verify: true, NoCache: true}); err != nil {
			return err
		}
	}
	return nil
}

func (w *solveWorkload) close() {}

func solveOne(in *instance) *answer {
	t0 := time.Now()
	res, err := lpltsp.SolveContext(context.Background(), in.g, in.p, nil)
	a := &answer{in: in, lat: time.Since(t0), err: err}
	if err == nil {
		a.span, a.lab, a.exact, a.winner = res.Span, res.Labeling, res.Exact, string(res.Winner)
	}
	return a
}

// measure runs the closed loop over whole rounds of the stream.
func (w *solveWorkload) measure(budget time.Duration, chk *checker) (*e2eRun, error) {
	answers := make([]*answer, len(w.insts))
	n, elapsed := closedLoop(w.clients, len(w.round), len(w.insts), budget, func(_, i int) {
		answers[i] = solveOne(w.insts[i])
	})
	run := &e2eRun{elapsed: elapsed, ops: n, tailMax: w.tailMax}
	for i, a := range answers[:n] {
		if chk.check(a) {
			run.ok++
			run.lats = append(run.lats, a.lat)
		}
		if i < len(w.round) {
			run.fixedSpans = append(run.fixedSpans, a.span)
		}
	}
	return run, nil
}

// trace replays round 0: a traced pass of the end-to-end call, paired
// untraced and traced calls for the tracing overhead, then every instance
// through each layer's public function in pipeline order.
func (w *solveWorkload) trace(tr *tracer, chk *checker, out map[string]float64) ([]map[string]any, error) {
	ctx := context.Background()
	round := w.insts[:len(w.round)]

	lpltsp.ResetCache()
	cache0 := lpltsp.CacheStats()
	mem0 := readMem()
	answers := make([]*answer, len(round))
	for j, in := range round {
		root := tr.begin(in.id, -1, "op")
		tr.call(in.id, root, "e2e.solve", func() { answers[j] = solveOne(in) })
		tr.end(root)
	}
	mem1 := readMem()
	cache1 := lpltsp.CacheStats()
	for _, a := range answers {
		chk.check(a)
	}
	out["trace.overhead_pct"] = overhead(tr, answers)
	mem1.sub(mem0).report(out, len(round))
	cacheDelta(out, cache0, cache1)

	winners := map[string]float64{}
	costs := map[string][]float64{}
	var bnbNodes []float64
	for j, in := range round {
		req := in.id
		root := tr.begin(req, -1, "replay")
		tr.call(req, root, "core.cache_hit", func() { solveOne(in) })
		tr.call(req, root, "graph.apsp", func() { in.g.AllPairsDistances() })
		tr.call(req, root, "core.plan", func() { core.Explain(ctx, in.g, in.p, nil) })
		var red *core.Reduction
		var err error
		tr.call(req, root, "core.reduce", func() { red, err = core.ReduceContext(ctx, in.g, in.p) })
		if err != nil {
			tr.end(root)
			return nil, err
		}
		switch {
		case in.g.N() <= tsp.BnBMaxN:
			err = exactReplay(tr, req, root, in, red, chk, &bnbNodes)
		default:
			tr.call(req, root, "core.portfolio", func() { _, err = core.Portfolio(ctx, in.g, in.p) })
			for _, e := range heuristicEngines {
				var st tsp.Stats
				tr.call(req, root, "tsp."+e.metric, func() { _, st, err = tsp.SolveContext(ctx, red.Instance, e.algo, nil) })
				if err == nil {
					costs[e.metric] = append(costs[e.metric], float64(st.Cost))
				}
			}
			winners[answers[j].winner]++
		}
		if err != nil {
			tr.end(root)
			return nil, err
		}
		tr.call(req, root, "labeling.verify", func() { err = lpltsp.Verify(in.g, in.p, answers[j].lab) })
		tr.end(root)
		if err != nil {
			chk.fail("%s: %v", in.id, err)
		}
	}
	for _, e := range heuristicEngines {
		out["tsp.portfolio_winner."+e.metric] = winners[string(e.algo)]
		out["tsp."+e.metric+"_cost"] = meanF(costs[e.metric])
	}
	if len(bnbNodes) > 0 {
		out["tsp.bnb_nodes"] = medianF(bnbNodes)
	}
	return nil, nil
}

// overhead solves the instances the traced pass answered within 100 ms
// again, each twice untraced and twice traced in ABBA order with the cache
// off, and returns the median traced-over-untraced time ratio, minus 1, in
// percent.
func overhead(tr *tracer, answers []*answer) float64 {
	opts := &lpltsp.Options{Verify: true, NoCache: true}
	plain := func(in *instance) time.Duration {
		t0 := time.Now()
		lpltsp.SolveContext(context.Background(), in.g, in.p, opts)
		return time.Since(t0)
	}
	traced := func(in *instance) time.Duration {
		t0 := time.Now()
		root := tr.begin(in.id, -1, "op")
		tr.call(in.id, root, "e2e.solve", func() { lpltsp.SolveContext(context.Background(), in.g, in.p, opts) })
		tr.end(root)
		return time.Since(t0)
	}
	var ratios []float64
	for j, a := range answers {
		if a.lat > 100*time.Millisecond {
			continue
		}
		var p, t time.Duration
		if j%2 == 0 {
			p += plain(a.in)
			t += traced(a.in) + traced(a.in)
			p += plain(a.in)
		} else {
			t += traced(a.in)
			p += plain(a.in) + plain(a.in)
			t += traced(a.in)
		}
		ratios = append(ratios, float64(t)/float64(p))
	}
	return (medianF(ratios) - 1) * 100
}

// heuristicEngines is the default portfolio roster beyond BnBMaxN, with
// the metric name each engine reports under.
var heuristicEngines = []struct {
	algo   tsp.Algorithm
	metric string
}{
	{tsp.AlgoChained, "chained"},
	{tsp.AlgoTwoOpt, "twoopt"},
	{tsp.AlgoChristofides, "christofides"},
	{tsp.AlgoNearestNeighbor, "nn"},
}

// exactReplay solves the reduced instance with the exact engine the
// planner would pick (Held–Karp up to tsp.HeldKarpMaxN, branch and bound
// up to tsp.BnBMaxN), called directly, and checks the instance's exact
// claims against it.
func exactReplay(tr *tracer, req string, root int, in *instance, red *core.Reduction, chk *checker, bnbNodes *[]float64) error {
	algo, span := tsp.AlgoHeldKarp, "tsp.heldkarp"
	if in.g.N() > tsp.HeldKarpMaxN {
		algo, span = tsp.AlgoBnB, "tsp.bnb"
	}
	var st tsp.Stats
	var err error
	tr.call(req, root, span, func() { _, st, err = tsp.SolveContext(context.Background(), red.Instance, algo, nil) })
	if err != nil {
		return err
	}
	chk.checkOptimum(in, int(st.Cost))
	if algo == tsp.AlgoBnB && bnbNodes != nil {
		*bnbNodes = append(*bnbNodes, float64(st.Nodes))
	}
	return nil
}

func meanF(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
