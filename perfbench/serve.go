package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lpltsp"
	"lpltsp/internal/core"
	"lpltsp/internal/graph"
	"lpltsp/internal/intern"
	"lpltsp/internal/rng"
)

// serve-hot: loopback HTTP into an in-process lplserve handler from one
// generator holding at most two connections. The end-to-end metrics come
// from a closed loop over the connections; the traced run adds open-loop
// passes at fixed rates. The working set fits the default solve cache
// (512 entries) and intern store (1024 entries) and is warmed during
// set-up.
const (
	serveWorkingSet = 256
	// serveRound is the closed loop's round of ops.
	serveRound     = 1000
	serveMaxRounds = 1000
	// serveRefRate is the open-loop rate of the traced pass; serveRates
	// are the fixed rates with a record each.
	serveRefRate = 1000.0
	// lateLimit marks an open-loop rate whose generator fell behind its
	// schedule (median lateness of its sends above the limit): its
	// numbers are invalid, not slow. Short stalls of the whole process
	// show in the late tail and in the latencies, which count from the
	// due time.
	lateLimit = time.Millisecond
)

var serveRates = []float64{500, serveRefRate, 2000}

// Op mix: graphRef bodies, full JSON graphs, LPG1 binary frames, and known
// graphRefs under a new p (intern hit, cache miss, APSP recomputed). The
// shares, like the Zipf exponent below, are chosen, not measured: no
// traffic record exists to take them from.
const (
	shareRef  = 0.82
	shareJSON = 0.08
	shareBin  = 0.08
)

type opKind int

const (
	kindRef opKind = iota
	kindJSON
	kindBinary
	kindNewP
)

var kindNames = []string{"graphref", "json", "binary", "newp"}

type serveHot struct {
	seed uint64
	size int
	ws   []*instance
	zipf zipf
	refs []string
	// Pre-encoded bodies per working-set graph.
	graphJSON, bodyRef, bodyJSON, bodyBin [][]byte
	warm                                  []*answer

	h      http.Handler
	srv    *http.Server
	url    string
	client *http.Client
	newP   atomic.Int64
	nextOp atomic.Int64
}

func newServeHot(seed uint64, tiny bool) *serveHot {
	w := &serveHot{seed: seed, size: serveWorkingSet}
	if tiny {
		w.size = 32
	}
	return w
}

// serveShape: n=12, exact by Held–Karp in about a millisecond, so a
// cache miss costs a few socket round trips. One size keeps the cost of
// the new-p misses the same for every seed: at a 2% share they stay
// beyond the windowed p90, at 5% they set it (0.24 ms became 0.65–0.9 ms
// on a 2-vCPU VM).
func serveShape(i int) shape {
	if i%2 == 0 {
		return shape{n: 12, k: 3, extra: 0.15, p: lpltsp.Vector{1, 2, 2}}
	}
	return shape{n: 12, k: 4, extra: 0.2, p: lpltsp.Vector{2, 1, 1, 1}}
}

func (w *serveHot) setup() error {
	lpltsp.ResetCache()
	w.ws = make([]*instance, w.size)
	for i := range w.ws {
		w.ws[i] = newInstance(w.seed, i, serveShape(i))
	}
	// Graph i has popularity rank i.
	w.zipf = newZipf(w.size, 1.0)

	w.h = lpltsp.NewServeHandler(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.h}
	go w.srv.Serve(ln)
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients(), MaxIdleConns: clients(),
		DisableCompression: true,
	}}

	W := len(w.ws)
	w.refs = make([]string, W)
	w.graphJSON = make([][]byte, W)
	w.bodyRef = make([][]byte, W)
	w.bodyJSON = make([][]byte, W)
	w.bodyBin = make([][]byte, W)
	w.warm = make([]*answer, W)
	err = parallel(W, clients(), func(i int) error {
		in := w.ws[i]
		gj, err := in.g.MarshalJSON()
		if err != nil {
			return err
		}
		w.graphJSON[i] = gj
		status, body, err := w.post("/v1/graphs", "application/json", gj)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("intern %s: status %d: %v %s", in.id, status, err, body)
		}
		var gr lpltsp.GraphsResponse
		if err := json.Unmarshal(body, &gr); err != nil {
			return err
		}
		w.refs[i] = gr.GraphRef
		// Marshalling a request built here cannot fail.
		w.bodyRef[i], _ = json.Marshal(lpltsp.SolveRequest{GraphRef: gr.GraphRef, P: in.p})
		w.bodyJSON[i], _ = json.Marshal(lpltsp.SolveRequest{Graph: in.g, P: in.p})
		env, _ := json.Marshal(lpltsp.SolveRequest{P: in.p})
		w.bodyBin[i] = append(lpltsp.AppendGraphBinary(nil, in.g), env...)
		// Warm the cache: the working set's answers are the fixed
		// instance set span_mean is taken over.
		status, body, err = w.post("/v1/solve", "application/json", w.bodyRef[i])
		w.warm[i] = decodeAnswer(in, status, body, err)
		return w.warm[i].err
	})
	return err
}

func (w *serveHot) close() {
	if w.srv != nil {
		w.srv.Close()
		w.client.CloseIdleConnections()
		w.srv = nil
	}
}

func (w *serveHot) post(path, ctype string, body []byte) (int, []byte, error) {
	resp, err := w.client.Post(w.url+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// parallel runs f(0..n-1) on `workers` goroutines and returns the first
// error.
func parallel(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	var first error
	var once sync.Once
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := f(i); err != nil {
					once.Do(func() { first = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// servedOp is one request: its instance, its latency from the due time,
// and what came back. Bodies are decoded and checked after the clock
// stops.
type servedOp struct {
	in     *instance
	lat    time.Duration
	status int
	body   []byte
	err    error
}

// pick draws op i of the run: its kind from the mix and its graph from
// the Zipf popularity over the working set.
func (w *serveHot) pick(i int64) (opKind, int) {
	r := rng.New(mix(w.seed, int(1<<30+i)))
	u := r.Float64()
	g := w.zipf.sample(r)
	switch {
	case u < shareRef:
		return kindRef, g
	case u < shareRef+shareJSON:
		return kindJSON, g
	case u < shareRef+shareJSON+shareBin:
		return kindBinary, g
	}
	return kindNewP, g
}

// do sends the next op of the run; latency runs from its due time.
func (w *serveHot) do(due time.Time) *servedOp {
	kind, g := w.pick(w.nextOp.Add(1) - 1)
	op := &servedOp{in: w.ws[g]}
	ctype, body := "application/json", w.bodyRef[g]
	switch kind {
	case kindJSON:
		body = w.bodyJSON[g]
	case kindBinary:
		ctype, body = lpltsp.GraphBinaryContentType, w.bodyBin[g]
	case kindNewP:
		c := int(w.newP.Add(1)) + 1
		p := op.in.p.Scale(c)
		op.in = op.in.withP(p, fmt.Sprintf("%s×%d", op.in.id, c))
		body, _ = json.Marshal(lpltsp.SolveRequest{GraphRef: w.refs[g], P: p}) // cannot fail
	}
	op.status, op.body, op.err = w.post("/v1/solve", ctype, body)
	op.lat = time.Since(due)
	return op
}

// rungResult is one fixed-rate open-loop pass.
type rungResult struct {
	rate float64
	ops  int
	lats []time.Duration // successful, checked ops
	// byParity splits lats by the op's parity: in a traced pass only the
	// even ops are traced.
	byParity  [2][]time.Duration
	late      []time.Duration
	pending   int
	failed    int
	tailQ     float64
	tail, p50 time.Duration
	lateTail  time.Duration
	valid     bool
}

// openLoop offers `rate` requests per second for d: a dispatcher releases
// each request at its due time to the connection workers, whatever the
// state of earlier requests. Requests the workers have not started by the
// end of the window are the backlog. Answers are checked after the pass.
// With a tracer, every other op is traced.
func (w *serveHot) openLoop(rate float64, d time.Duration, tr *tracer, chk *checker) *rungResult {
	n := max(int(rate*d.Seconds()), 1)
	rr := &rungResult{rate: rate, ops: n, late: make([]time.Duration, n)}
	ops := make([]*servedOp, n)
	queue := make(chan int, n) // one slot per send: the dispatcher never blocks
	var started atomic.Int64
	start := time.Now()
	dueOf := func(j int) time.Time { return start.Add(time.Duration(float64(j) / rate * float64(time.Second))) }
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				started.Add(1)
				if tr == nil || j%2 == 1 {
					ops[j] = w.do(dueOf(j))
					continue
				}
				req := fmt.Sprintf("r%.0f-%d", rate, j)
				root := tr.begin(req, -1, "op")
				tr.call(req, root, "socket.roundtrip", func() { ops[j] = w.do(dueOf(j)) })
				tr.end(root)
			}
		}()
	}
	for j := 0; j < n; j++ {
		due := dueOf(j)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		rr.late[j] = time.Since(due)
		queue <- j
	}
	if wait := time.Until(start.Add(d)); wait > 0 {
		time.Sleep(wait)
	}
	rr.pending = n - int(started.Load())
	close(queue)
	wg.Wait()

	for j, op := range ops {
		if chk.check(op.answer()) {
			rr.lats = append(rr.lats, op.lat)
			rr.byParity[j%2] = append(rr.byParity[j%2], op.lat)
		} else {
			rr.failed++
		}
	}
	rr.tailQ, rr.tail = tail(sortDurations(rr.lats), 100)
	rr.p50 = median(rr.lats)
	_, rr.lateTail = tail(sortDurations(rr.late), 100)
	rr.valid = median(rr.late) <= lateLimit
	return rr
}

func (rr *rungResult) record(traced bool) map[string]any {
	return map[string]any{"record": "rate", "offered_rps": rr.rate, "ops": rr.ops, "traced_half": traced,
		"p50_ms": ms(rr.p50), "tail_ms": ms(rr.tail), "tail_percentile": rr.tailQ, "samples": len(rr.lats),
		"failed": rr.failed, "backlog": rr.pending, "late_tail_ms": ms(rr.lateTail), "valid": rr.valid}
}

// measure takes the end-to-end metrics from a closed loop over the
// connections (each sends its next request once the previous one has
// answered), in whole rounds of serveRound ops, for the whole budget. The
// open-loop passes run in the traced run only: on a 2-vCPU VM their
// due-time latencies moved with the host's contention (a stall delays
// every request due during it) far beyond any usable bound.
func (w *serveHot) measure(budget time.Duration, chk *checker) (*e2eRun, error) {
	run := &e2eRun{}
	for _, a := range w.warm {
		chk.check(a)
		run.fixedSpans = append(run.fixedSpans, a.span)
	}
	lats := make([][]time.Duration, clients())
	run.ops, run.elapsed = closedLoop(clients(), serveRound, serveRound*serveMaxRounds, budget, func(c, _ int) {
		if op := w.do(time.Now()); chk.check(op.answer()) {
			lats[c] = append(lats[c], op.lat)
		}
	})
	for _, l := range lats {
		run.lats = append(run.lats, l...)
	}
	run.ok = len(run.lats)
	return run, nil
}

func (op *servedOp) answer() *answer { return decodeAnswer(op.in, op.status, op.body, op.err) }

// decodeAnswer turns a /v1/solve response into an answer.
func decodeAnswer(in *instance, status int, body []byte, err error) *answer {
	a := &answer{in: in, err: err}
	if err != nil {
		return a
	}
	var resp lpltsp.SolveResponse
	if jerr := json.Unmarshal(body, &resp); jerr != nil {
		a.err = fmt.Errorf("status %d: undecodable body: %v", status, jerr)
		return a
	}
	if status != http.StatusOK {
		a.err = fmt.Errorf("status %d: %s", status, resp.Error)
		return a
	}
	a.span, a.lab, a.exact, a.winner = resp.Span, resp.Labeling, resp.Exact, resp.Winner
	return a
}

// trace: a pass at the reference rate tracing every other op (tracing
// overhead; cache, intern and runtime counters), untraced passes at the
// other fixed rates (records only), then each working-set instance
// replayed through every layer in pipeline order.
func (w *serveHot) trace(tr *tracer, chk *checker, out map[string]float64) ([]map[string]any, error) {
	ctx := context.Background()
	const passDur, fixedDur = 4 * time.Second, 2 * time.Second
	for _, a := range w.warm {
		chk.check(a)
	}
	st0, err := w.stats()
	if err != nil {
		return nil, err
	}
	cache0, mem0 := lpltsp.CacheStats(), readMem()
	traced := w.openLoop(serveRefRate, passDur, tr, chk)
	mem1, cache1 := readMem(), lpltsp.CacheStats()
	st1, err := w.stats()
	if err != nil {
		return nil, err
	}
	out["trace.overhead_pct"] = (float64(median(traced.byParity[0]))/float64(median(traced.byParity[1])) - 1) * 100
	out["loadgen.late_tail_ms"] = ms(traced.lateTail)
	mem1.sub(mem0).report(out, traced.ops)
	cacheDelta(out, cache0, cache1)
	if h, m := st1.Graphs.Hits-st0.Graphs.Hits, st1.Graphs.Misses-st0.Graphs.Misses; h+m > 0 {
		out["intern.hit_ratio"] = float64(h) / float64(h+m)
	}
	out["service.rejected"] = float64(st1.Rejected - st0.Rejected)
	out["service.shed"] = float64(st1.Sched.Sheds - st0.Sched.Sheds)
	var records []map[string]any
	for _, rate := range serveRates {
		if rate == serveRefRate {
			records = append(records, traced.record(true))
		} else {
			records = append(records, w.openLoop(rate, fixedDur, nil, chk).record(false))
		}
	}

	store := intern.NewStore(intern.DefaultCapacity)
	var bnbNodes []float64
	for i, in := range w.ws {
		req := "ws-" + in.id
		root := tr.begin(req, -1, "replay")
		var g lpltsp.Graph
		tr.call(req, root, "graph.decode_json", func() { err = g.UnmarshalJSON(w.graphJSON[i]) })
		if err != nil {
			return nil, err
		}
		var gb *lpltsp.Graph
		tr.call(req, root, "graph.decode_binary", func() { gb, _, err = lpltsp.DecodeGraphBinary(w.bodyBin[i]) })
		if err != nil {
			return nil, err
		}
		tr.call(req, root, "graph.fingerprint", func() { gb.Fingerprint() })
		var ref string
		tr.call(req, root, "intern.put", func() { ref = store.Put(&g) })
		tr.call(req, root, "intern.get", func() { store.Get(ref) })
		tr.call(req, root, "graph.apsp", func() { in.g.AllPairsDistances() })
		tr.call(req, root, "core.plan", func() { core.Explain(ctx, in.g, in.p, nil) })
		var red *core.Reduction
		tr.call(req, root, "core.reduce", func() { red, err = core.ReduceContext(ctx, in.g, in.p) })
		if err != nil {
			return nil, err
		}
		tr.call(req, root, "core.cache_hit", func() { lpltsp.SolveContext(ctx, in.g, in.p, nil) })
		if err := exactReplay(tr, req, root, in, red, chk, &bnbNodes); err != nil {
			return nil, err
		}
		tr.call(req, root, "labeling.verify", func() { err = lpltsp.Verify(in.g, in.p, w.warm[i].lab) })
		if err != nil {
			chk.fail("%s: %v", in.id, err)
		}
		for k, body := range [][]byte{w.bodyRef[i], w.bodyJSON[i], w.bodyBin[i]} {
			hreq := newSolveRequest(body, opKind(k))
			var rec discardWriter
			tr.call(req, root, "service.handler."+kindNames[k], func() { w.h.ServeHTTP(&rec, hreq) })
			if rec.status != http.StatusOK {
				chk.fail("%s: in-process %s solve: status %d", in.id, kindNames[k], rec.status)
			}
		}
		tr.call(req, root, "socket.graphref", func() { _, _, err = w.post("/v1/solve", "application/json", w.bodyRef[i]) })
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	if len(bnbNodes) > 0 {
		out["tsp.bnb_nodes"] = medianF(bnbNodes)
	}

	// Allocation counts, on their own loops so nothing else allocates.
	m0 := readMem()
	for i := range w.ws {
		var g lpltsp.Graph
		g.UnmarshalJSON(w.graphJSON[i])
	}
	out["graph.decode_allocs"] = float64(readMem().sub(m0).mallocs) / float64(len(w.ws))
	reqs := make([]*http.Request, len(w.ws))
	for i := range reqs {
		reqs[i] = newSolveRequest(w.bodyRef[i], kindRef)
	}
	var rec discardWriter
	m0 = readMem()
	for _, r := range reqs {
		w.h.ServeHTTP(&rec, r)
	}
	out["service.allocs_per_req"] = float64(readMem().sub(m0).mallocs) / float64(len(reqs))

	self := tr.selfTimes()
	out["socket.overhead_us"] = us(median(self["socket.graphref"]) - median(self["service.handler.graphref"]))
	return records, nil
}

func (w *serveHot) stats() (*lpltsp.StatsResponse, error) {
	resp, err := w.client.Get(w.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st lpltsp.StatsResponse
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}

func newSolveRequest(body []byte, kind opKind) *http.Request {
	r, _ := http.NewRequest(http.MethodPost, "http://bench/v1/solve", bytes.NewReader(body))
	if kind == kindBinary {
		r.Header.Set("Content-Type", graph.BinaryContentType)
	} else {
		r.Header.Set("Content-Type", "application/json")
	}
	return r
}

// discardWriter is a minimal in-process ResponseWriter keeping only the
// status.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}

func (d *discardWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return len(p), nil
}

func (d *discardWriter) WriteHeader(s int) { d.status = s }
