package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"lpltsp"
	"lpltsp/internal/cluster"
	"lpltsp/internal/core"
	"lpltsp/internal/intern"
	"lpltsp/internal/rng"
	"lpltsp/internal/service"
)

// cluster-mixed: a router and two backends in one process over
// cluster.HandlerDoer, each backend the other's peer-fill L2. The working
// set is larger than one node's solve cache; half of the requests go
// through the router, half straight to a random backend, which forces
// peer fills (LPR1 frames) and evictions. Solves take well under a
// millisecond, so the cluster layer dominates.
//
// Each node runs as lplserve -peers does (fill timeout, breakers) but with
// one worker per client: with a single worker per node, two direct
// requests that each need a peer fill from the other node hold both
// nodes' only slots and wait on each other until the fill timeout.
const (
	clusterBackends   = 2
	clusterNodeCache  = 128
	clusterWorkingSet = 320
	clusterRound      = 1024
	clusterMaxRounds  = 200
	clusterRingSeed   = 2023
)

type clusterNode struct {
	name     string
	srv      *service.Server
	cache    *core.SolveCache
	breakers *cluster.BreakerSet
}

type clusterMixed struct {
	seed   uint64
	size   int
	round  int
	ws     []*instance
	refs   []string
	bodies [][]byte
	nodes  []clusterNode
	rt     *cluster.Router
	warm   []*answer
}

func newClusterMixed(seed uint64, tiny bool) *clusterMixed {
	w := &clusterMixed{seed: seed, size: clusterWorkingSet, round: clusterRound}
	if tiny {
		w.size, w.round = 80, 128
	}
	return w
}

// clusterShape: n=8–13, exact by Held–Karp in well under a millisecond.
func clusterShape(i int) shape {
	n := 8 + i%6
	if i%2 == 0 {
		return shape{n: n, k: 3, extra: 0.15, p: lpltsp.Vector{1, 2, 2}}
	}
	return shape{n: n, k: 4, extra: 0.2, p: lpltsp.Vector{2, 1, 1, 1}}
}

func (w *clusterMixed) setup() error {
	w.nodes = make([]clusterNode, clusterBackends)
	backends := make([]cluster.Backend, clusterBackends)
	for i := range w.nodes {
		c := core.NewSolveCache(clusterNodeCache)
		srv := service.NewServer(&service.Config{Cache: c, Workers: clients()})
		w.nodes[i] = clusterNode{name: fmt.Sprintf("b%d", i), srv: srv, cache: c, breakers: cluster.NewBreakerSet(cluster.BreakerConfig{})}
		backends[i] = cluster.Backend{Name: w.nodes[i].name, Doer: cluster.HandlerDoer{Handler: w.nodes[i].srv}}
	}
	ring := cluster.RingConfig{Seed: clusterRingSeed}
	for i := range w.nodes {
		pf, err := cluster.NewPeerFill(w.nodes[i].name, backends, ring)
		if err != nil {
			return err
		}
		pf.SetBreakers(w.nodes[i].breakers)
		pf.SetFillTimeout(cluster.DefaultFillTimeout)
		w.nodes[i].cache.SetL2(pf)
	}
	rt, err := cluster.NewRouter(backends, ring)
	if err != nil {
		return err
	}
	w.rt = rt

	w.ws = make([]*instance, w.size)
	w.refs = make([]string, w.size)
	w.bodies = make([][]byte, w.size)
	w.warm = make([]*answer, w.size)
	for i := range w.ws {
		in := newInstance(w.seed, i, clusterShape(i))
		w.ws[i] = in
		// Every backend holds every graph, so a direct graphRef request
		// resolves wherever it lands.
		frame := lpltsp.AppendGraphBinary(nil, in.g)
		for _, nd := range w.nodes {
			status, body := serveInProcess(nd.srv, "/v1/graphs", lpltsp.GraphBinaryContentType, frame)
			if status != http.StatusOK {
				return fmt.Errorf("intern %s at %s: status %d: %s", in.id, nd.name, status, body)
			}
			var gr lpltsp.GraphsResponse
			if err := json.Unmarshal(body, &gr); err != nil {
				return err
			}
			w.refs[i] = gr.GraphRef
		}
		w.bodies[i], _ = json.Marshal(lpltsp.SolveRequest{GraphRef: w.refs[i], P: in.p}) // cannot fail
	}
	// Warm through the router: each answer lands in its owner's cache and
	// is the fixed instance set span_mean is taken over.
	return parallel(len(w.ws), clients(), func(i int) error {
		status, body := serveInProcess(w.rt, "/v1/solve", "application/json", w.bodies[i])
		w.warm[i] = decodeAnswer(w.ws[i], status, body, nil)
		return w.warm[i].err
	})
}

func (w *clusterMixed) close() {}

// serveInProcess runs one request through a handler with no socket.
func serveInProcess(h http.Handler, path, ctype string, body []byte) (int, []byte) {
	req, _ := http.NewRequest(http.MethodPost, "http://bench"+path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	var rec bodyWriter
	h.ServeHTTP(&rec, req)
	return rec.status, rec.buf.Bytes()
}

type bodyWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (b *bodyWriter) Header() http.Header {
	if b.h == nil {
		b.h = http.Header{}
	}
	return b.h
}

func (b *bodyWriter) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

func (b *bodyWriter) WriteHeader(s int) { b.status = s }

// target draws op i: its graph (uniform over the working set) and where
// it is sent (even ops: the router; odd ops: a random backend).
func (w *clusterMixed) target(i int) (int, http.Handler) {
	r := rng.New(mix(w.seed, 1<<31+i))
	g := r.Intn(len(w.ws))
	if i%2 == 0 {
		return g, w.rt
	}
	return g, w.nodes[r.Intn(len(w.nodes))].srv
}

func (w *clusterMixed) op(i int) *answer {
	g, h := w.target(i)
	t0 := time.Now()
	status, body := serveInProcess(h, "/v1/solve", "application/json", w.bodies[g])
	lat := time.Since(t0)
	a := decodeAnswer(w.ws[g], status, body, nil)
	a.lat = lat
	return a
}

// measure runs closed-loop clients over whole rounds of ops, as the solve
// workloads do; answers are checked as they arrive and not kept.
func (w *clusterMixed) measure(budget time.Duration, chk *checker) (*e2eRun, error) {
	run := &e2eRun{}
	for _, a := range w.warm {
		chk.check(a)
		run.fixedSpans = append(run.fixedSpans, a.span)
	}
	lats := make([][]time.Duration, clients())
	run.ops, run.elapsed = closedLoop(clients(), w.round, w.round*clusterMaxRounds, budget, func(c, i int) {
		if a := w.op(i); chk.check(a) {
			lats[c] = append(lats[c], a.lat)
		}
	})
	for _, l := range lats {
		run.lats = append(run.lats, l...)
	}
	run.ok = len(run.lats)
	return run, nil
}

// counters snapshots what the cluster layer counts.
type clusterCounters struct {
	cache                 core.CacheStats
	router                cluster.RouterStats
	trips                 int64
	solved                []int64
	internHits, internMis int64
}

func (w *clusterMixed) counters() clusterCounters {
	var c clusterCounters
	for _, nd := range w.nodes {
		st := nd.cache.Stats()
		c.cache.Hits += st.Hits
		c.cache.Misses += st.Misses
		c.cache.Evictions += st.Evictions
		c.cache.Coalesced += st.Coalesced
		c.cache.L2Served += st.L2Served
		c.cache.L2Fallbacks += st.L2Fallbacks
		c.trips += nd.breakers.Stats().Trips
		status, body := serveInProcessGet(nd.srv, "/v1/stats")
		var s lpltsp.StatsResponse
		if status == http.StatusOK && json.Unmarshal(body, &s) == nil {
			c.solved = append(c.solved, s.Solved)
			c.internHits += s.Graphs.Hits
			c.internMis += s.Graphs.Misses
		}
	}
	c.router = w.rt.Stats()
	c.trips += c.router.Breakers.Trips
	return c
}

func serveInProcessGet(h http.Handler, path string) (int, []byte) {
	req, _ := http.NewRequest(http.MethodGet, "http://bench"+path, nil)
	var rec bodyWriter
	h.ServeHTTP(&rec, req)
	return rec.status, rec.buf.Bytes()
}

func (w *clusterMixed) trace(tr *tracer, chk *checker, out map[string]float64) ([]map[string]any, error) {
	ctx := context.Background()
	// One pass tracing every other pair of ops (ops alternate between the
	// router and a backend, so each group holds both): the tracing
	// overhead is the traced ops' median latency over the untraced ones'.
	const passOps = 1024
	for _, a := range w.warm {
		chk.check(a)
	}
	var lats [2][]time.Duration
	c0, mem0 := w.counters(), readMem()
	for i := 0; i < passOps; i++ {
		var a *answer
		group := i / 2 % 2
		if group == 1 {
			a = w.op(i)
		} else {
			req := fmt.Sprintf("op%d", i)
			root := tr.begin(req, -1, "op")
			tr.call(req, root, "e2e.request", func() { a = w.op(i) })
			tr.end(root)
		}
		if chk.check(a) {
			lats[group] = append(lats[group], a.lat)
		}
	}
	mem1, c1 := readMem(), w.counters()
	out["trace.overhead_pct"] = (float64(median(lats[0]))/float64(median(lats[1])) - 1) * 100
	mem1.sub(mem0).report(out, passOps)
	cacheDelta(out, c0.cache, c1.cache)
	out["cluster.l2_served"] = float64(c1.cache.L2Served - c0.cache.L2Served)
	out["cluster.l2_fallbacks"] = float64(c1.cache.L2Fallbacks - c0.cache.L2Fallbacks)
	out["cluster.retries"] = float64(c1.router.Retries - c0.router.Retries)
	out["cluster.hedges"] = float64(c1.router.Hedged - c0.router.Hedged)
	out["cluster.hedge_wins"] = float64(c1.router.HedgeWins - c0.router.HedgeWins)
	out["cluster.breaker_trips"] = float64(c1.trips - c0.trips)
	if len(c1.solved) == clusterBackends && len(c0.solved) == clusterBackends {
		lo, hi := c1.solved[0]-c0.solved[0], c1.solved[1]-c0.solved[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 0 {
			out["cluster.balance"] = float64(lo) / float64(hi)
		}
	}
	if h, m := c1.internHits-c0.internHits, c1.internMis-c0.internMis; h+m > 0 {
		out["intern.hit_ratio"] = float64(h) / float64(h+m)
	}

	// Router hop and peer fill on a slice of the working set small enough
	// to stay resident in both caches: warm it at its owners, then time
	// the router and the non-owner, whose L1 misses and is filled from
	// the owner, each against a direct request to the owner.
	const hop = 64
	for _, nd := range w.nodes {
		nd.cache.Reset()
	}
	byName := map[string]*service.Server{}
	for _, nd := range w.nodes {
		byName[nd.name] = nd.srv
	}
	for i := 0; i < hop; i++ {
		serveInProcess(w.rt, "/v1/solve", "application/json", w.bodies[i])
	}
	ring := w.rt.Ring()
	for i := 0; i < hop; i++ {
		req := "hop-" + w.ws[i].id
		root := tr.begin(req, -1, "replay")
		owner := ring.Owner(w.refs[i])
		other := w.nodes[0].srv
		if owner == w.nodes[0].name {
			other = w.nodes[1].srv
		}
		var s1, s2, s3 int
		tr.call(req, root, "cluster.router", func() { s1, _ = serveInProcess(w.rt, "/v1/solve", "application/json", w.bodies[i]) })
		tr.call(req, root, "cluster.owner", func() { s2, _ = serveInProcess(byName[owner], "/v1/solve", "application/json", w.bodies[i]) })
		tr.call(req, root, "cluster.nonowner", func() { s3, _ = serveInProcess(other, "/v1/solve", "application/json", w.bodies[i]) })
		tr.end(root)
		if s1 != http.StatusOK || s2 != http.StatusOK || s3 != http.StatusOK {
			chk.fail("%s: hop replay statuses %d/%d/%d", w.ws[i].id, s1, s2, s3)
		}
	}
	self := tr.selfTimes()
	out["cluster.router_hop_us"] = us(median(self["cluster.router"]) - median(self["cluster.owner"]))
	out["cluster.peer_fill_us"] = us(median(self["cluster.nonowner"]) - median(self["cluster.owner"]))

	// Layer replays and the exact cross-check over the whole working set.
	store := intern.NewStore(intern.DefaultCapacity)
	for i, in := range w.ws {
		req := "ws-" + in.id
		root := tr.begin(req, -1, "replay")
		var ref string
		tr.call(req, root, "intern.put", func() { ref = store.Put(in.g) })
		tr.call(req, root, "intern.get", func() { store.Get(ref) })
		tr.call(req, root, "graph.apsp", func() { in.g.AllPairsDistances() })
		tr.call(req, root, "core.plan", func() { core.Explain(ctx, in.g, in.p, nil) })
		var red *core.Reduction
		var err error
		tr.call(req, root, "core.reduce", func() { red, err = core.ReduceContext(ctx, in.g, in.p) })
		if err != nil {
			return nil, err
		}
		if err := exactReplay(tr, req, root, in, red, chk, nil); err != nil {
			return nil, err
		}
		tr.call(req, root, "labeling.verify", func() { err = lpltsp.Verify(in.g, in.p, w.warm[i].lab) })
		tr.end(root)
		if err != nil {
			chk.fail("%s: %v", in.id, err)
		}
	}
	return nil, nil
}
