// Command lplbench regenerates the experiment tables E1–E12 of DESIGN.md
// §3 — the measurable form of every theorem, corollary, proposition, and
// figure in the paper — and prints them to stdout. With -load it instead
// boots a live lplserve handler in-process and measures its concurrent
// solve throughput (the serving-core harness behind BENCH_PR5.json).
//
// Usage:
//
//	lplbench                 # all experiments, full scale
//	lplbench -only E4,E5     # a subset
//	lplbench -scale 1        # reduced sweeps (fast smoke run)
//	lplbench -load -clients 16 -requests 5000   # serving-core load run
//	lplbench -load -graphref                    # interned-graph traffic
//	lplbench -load -wire binary                 # binary graph frames
//	lplbench -load -chaos -rate 0.02            # fault-injected chaos run
//	lplbench -cluster -out BENCH_PR8.json       # 1/2/4-backend scaling ladder
//	lplbench -cluster -chaos -out BENCH_PR10.json  # self-healing kill/stall/revive pass
//	lplbench -deadline -out BENCH_PR9.json      # FIFO-vs-EDF mixed-deadline duel
//
// Load mode prints bytes-on-the-wire per request alongside req/s and
// p50/p95/p99 latency, so the wire-format modes can be compared
// directly. Chaos mode instead arms the deterministic fault injector
// (panics, stalls, context leaks, alloc spikes) plus the quarantine and
// watchdog, drives mixed retrying traffic including a poison instance,
// and reports whether every containment invariant held; it exits
// non-zero on a violation. Cluster mode boots router + 1/2/4 live
// backends in-process (each with its own cache and peer-fill L2),
// measures scaling on floor-bound distinct traffic plus the router's
// own overhead on hot cached traffic, and with -out writes the
// machine-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lpltsp/internal/bench"
	"lpltsp/internal/core"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 2023, "experiment seed")
		trials    = flag.Int("trials", 0, "trials per parameter point (0 = experiment default)")
		scale     = flag.Int("scale", 0, "0 = full sweeps, 1 = reduced")
		only      = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4,A2)")
		ablations = flag.Bool("ablations", false, "also run the ablation tables A1–A4")

		load     = flag.Bool("load", false, "drive a live in-process lplserve handler instead of the experiment tables")
		clients  = flag.Int("clients", 16, "load mode: concurrent client loops")
		requests = flag.Int("requests", 2048, "load mode: total solve requests")
		distinct = flag.Int("distinct", 16, "load mode: distinct instances the requests cycle over")
		loadN    = flag.Int("n", 64, "load mode: vertices per generated instance")
		graphRef = flag.Bool("graphref", false, "load mode: intern instances once via /v1/graphs and send graphRef solves")
		wire     = flag.String("wire", "json", "load mode: solve-body transport, json or binary")
		chaos    = flag.Bool("chaos", false, "load mode: arm the fault injector and run the containment harness instead")
		rate     = flag.Float64("rate", 0.02, "chaos mode: per-visit fault probability")

		clusterLadder = flag.Bool("cluster", false, "run the 1/2/4-backend cluster scaling ladder instead")
		floor         = flag.Duration("floor", 0, "cluster mode: modeled per-solve service time (0 = ladder default)")
		deadline      = flag.Bool("deadline", false, "run the FIFO-vs-EDF mixed-deadline comparison instead")
		workers       = flag.Int("workers", 0, "deadline mode: solver workers per server (0 = harness default)")
		out           = flag.String("out", "", "cluster/deadline mode: also write the JSON report to this file")
	)
	flag.Parse()

	if *clusterLadder && *chaos {
		cc := bench.ClusterChaosConfig{Seed: *seed, Floor: *floor, NetRate: *rate}
		// Cluster-chaos scale defaults live in the harness; only explicitly
		// set flags override them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				cc.Clients = *clients
			case "distinct":
				cc.Distinct = *distinct
			case "n":
				cc.N = *loadN
			}
		})
		rep, err := bench.RunClusterChaos(cc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: cluster chaos failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		if *out != "" {
			data, err := json.MarshalIndent(clusterChaosJSON(rep), "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "lplbench: marshal report: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "lplbench: write %s: %v\n", *out, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		if len(rep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	if *clusterLadder {
		cfg := bench.LadderConfig{Seed: *seed, Floor: *floor}
		// Ladder scale defaults differ from load mode's; only explicitly
		// set flags override them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				cfg.Clients = *clients
			case "distinct":
				cfg.Distinct = *distinct
			case "n":
				cfg.N = *loadN
			}
		})
		rep, err := bench.RunClusterLadder(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: cluster ladder failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		if *out != "" {
			data, err := json.MarshalIndent(ladderJSON(rep), "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "lplbench: marshal report: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "lplbench: write %s: %v\n", *out, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		return
	}

	if *deadline {
		core.ResetSolveCache()
		core.ResetMethodCounts()
		dc := bench.DeadlineConfig{Seed: *seed, Workers: *workers}
		// Deadline-mode scale defaults live in the harness; only explicitly
		// set flags override them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				dc.Clients = *clients
			case "requests":
				dc.Requests = *requests
			}
		})
		cmp, err := bench.RunDeadlineComparison(dc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: deadline run failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(cmp.FIFO.String())
		fmt.Print(cmp.EDF.String())
		fmt.Printf("edf vs fifo: miss rate %.3f -> %.3f (drop %.3f), useful work %+.1f%%, tight hit rate %+.1f pts\n",
			cmp.FIFO.MissRate, cmp.EDF.MissRate, cmp.MissRateDrop,
			100*cmp.UsefulWorkGain, 100*cmp.TightHitRateGain)
		if *out != "" {
			data, err := json.MarshalIndent(cmp, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "lplbench: marshal report: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "lplbench: write %s: %v\n", *out, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		return
	}

	if *load && *chaos {
		core.ResetSolveCache()
		core.ResetMethodCounts()
		// Chaos has its own scale defaults (100 clients, 1500 ops); the
		// load-mode flag defaults only apply when explicitly set.
		cc := bench.ChaosConfig{Distinct: *distinct, N: *loadN, Seed: *seed, Rate: *rate}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "clients":
				cc.Clients = *clients
			case "requests":
				cc.Requests = *requests
			}
		})
		rep, err := bench.RunChaos(cc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: chaos run failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		if len(rep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	if *load {
		core.ResetSolveCache()
		core.ResetMethodCounts()
		rep, err := bench.RunLoad(bench.LoadConfig{
			Clients:  *clients,
			Requests: *requests,
			Distinct: *distinct,
			N:        *loadN,
			Seed:     *seed,
			GraphRef: *graphRef,
			Wire:     *wire,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "lplbench: load run failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.String())
		return
	}

	cfg := bench.Config{Seed: *seed, Trials: *trials, Scale: *scale}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	tables := bench.All(cfg)
	if *ablations || anyAblation(want) {
		tables = append(tables, bench.Ablations(cfg)...)
	}
	printed := 0
	for _, tab := range tables {
		if len(want) > 0 && !want[tab.ID] {
			continue
		}
		tab.Fprint(os.Stdout)
		printed++
	}
	if printed == 0 {
		fmt.Fprintln(os.Stderr, "lplbench: no experiments matched -only")
		os.Exit(1)
	}
}

// clusterChaosJSON renders the BENCH_PR10.json document from one
// self-healing chaos pass.
func clusterChaosJSON(rep *bench.ClusterChaosReport) any {
	methodology := fmt.Sprintf(
		"lplbench -cluster -chaos: bench.RunClusterChaos boots %d live lplserve backends (own cache, "+
			"intern store, and peer-fill L2 each) behind cluster.Router with the full self-healing stack "+
			"armed — an active /readyz prober driving ring membership, per-backend circuit breakers on the "+
			"router and every peer-fill link, SRE-style retry-budgeted successor walks with per-attempt "+
			"timeouts, and adaptive-p95 hedged solve sends — then drives %d concurrent clients of mixed "+
			"solve/batch traffic with per-request deadlines while seeded network faults (drop/delay/"+
			"flaky-503, rate %.3f) run on every link. Mid-run the harness KILLS the busiest-owner backend "+
			"and STALLS the runner-up, waits for the prober to eject both, verifies the killed backend "+
			"receives ZERO router sends after in-flight traffic settles, revives both, and verifies the "+
			"ring reconverges, the victim receives traffic again, and throughput recovers to >=80%% of the "+
			"pre-fault phase. Every response is validated against the wire contract; seed %d makes the "+
			"network fault sequence reproducible.",
		rep.Backends, rep.Clients, rep.NetRate, rep.Seed)
	verdict := "PASS"
	if len(rep.Violations) > 0 {
		verdict = "FAIL"
	}
	acceptance := fmt.Sprintf(
		"%s: %d ops, %d malformed responses, %d deadline violations; victims ejected in %v; %d sends to "+
			"the killed backend after settle (want 0) and %d after revival (want >0); throughput %.0f "+
			"req/s pre-fault vs %.0f req/s post-revival (%.2fx, floor 0.8x).",
		verdict, rep.Ops, rep.Malformed, rep.DeadlineViolations, rep.TimeToEject.Round(time.Millisecond),
		rep.DrainSends, rep.RevivalSends, rep.PreFaultThroughput, rep.PostRevivalThroughput, rep.Reconverged)
	byStatus := map[string]int64{}
	for s, n := range rep.ByStatus {
		byStatus[fmt.Sprintf("%d", s)] = n
	}
	return map[string]any{
		"pr":    10,
		"title": "Self-healing cluster: health-probed membership, circuit breakers, hedged/budgeted retries, and network-level chaos",
		"machine": fmt.Sprintf("%d logical CPU (GOMAXPROCS=%d), %s/%s, %s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version()),
		"methodology": methodology,
		"run": map[string]any{
			"backends":              rep.Backends,
			"clients":               rep.Clients,
			"seed":                  rep.Seed,
			"netRate":               rep.NetRate,
			"elapsedMs":             float64(rep.Elapsed) / float64(time.Millisecond),
			"ops":                   rep.Ops,
			"byStatus":              byStatus,
			"malformed":             rep.Malformed,
			"deadlineViolations":    rep.DeadlineViolations,
			"victimKill":            rep.VictimKill,
			"victimStall":           rep.VictimStall,
			"timeToEjectMs":         float64(rep.TimeToEject) / float64(time.Millisecond),
			"drainSends":            rep.DrainSends,
			"revivalSends":          rep.RevivalSends,
			"preFaultThroughput":    rep.PreFaultThroughput,
			"postRevivalThroughput": rep.PostRevivalThroughput,
			"reconverged":           rep.Reconverged,
			"netInjected":           rep.NetInjected,
			"routerStats":           rep.Router,
			"violations":            rep.Violations,
		},
		"acceptance": acceptance,
	}
}

func anyAblation(want map[string]bool) bool {
	for id := range want {
		if strings.HasPrefix(id, "A") {
			return true
		}
	}
	return false
}

// ladderRun is the machine-readable form of one cluster run.
type ladderRun struct {
	Mode       string           `json:"mode"`
	Backends   int              `json:"backends"`
	Workers    int              `json:"workersPerBackend"`
	Requests   int              `json:"requests"`
	Distinct   int              `json:"distinct"`
	FloorMs    float64          `json:"floorMs"`
	Errors     int              `json:"errors"`
	ElapsedMs  float64          `json:"elapsedMs"`
	ReqPerSec  float64          `json:"reqPerSec"`
	P50Us      float64          `json:"p50Us"`
	P95Us      float64          `json:"p95Us"`
	P99Us      float64          `json:"p99Us"`
	PerBackend map[string]int64 `json:"perBackendSolved"`
}

func toLadderRun(r *bench.ClusterReport) ladderRun {
	return ladderRun{
		Mode:       r.Mode,
		Backends:   r.Backends,
		Workers:    r.Workers,
		Requests:   r.Requests,
		Distinct:   r.Distinct,
		FloorMs:    float64(r.Floor) / float64(time.Millisecond),
		Errors:     r.Errors,
		ElapsedMs:  float64(r.Elapsed) / float64(time.Millisecond),
		ReqPerSec:  r.Throughput,
		P50Us:      float64(r.P50) / float64(time.Microsecond),
		P95Us:      float64(r.P95) / float64(time.Microsecond),
		P99Us:      float64(r.P99) / float64(time.Microsecond),
		PerBackend: r.PerBackendSolved,
	}
}

// ladderJSON renders the BENCH_PR8.json document from a ladder run.
func ladderJSON(rep *bench.LadderReport) any {
	cfg := rep.Config
	methodology := fmt.Sprintf(
		"lplbench -cluster: bench.RunClusterLadder boots router + N live lplserve handlers in one process "+
			"(no sockets; each backend has its OWN core.SolveCache, intern store, singleflight domain, and "+
			"cluster.PeerFill L2 — the same isolation N OS processes would have) and drives POST /v1/solve "+
			"graphRef traffic through cluster.Router with %d concurrent clients. Scaling runs: %d distinct "+
			"n=%d instances, each interned through the router and then solved exactly once, with every solve "+
			"pinned to the registered bench-floor method, which holds its node's single solver slot "+
			"(Workers=1) for %v of wall time. This box has %d logical CPU(s) (GOMAXPROCS=%d), shared by "+
			"every in-process backend, so horizontal scaling of CPU-bound work cannot be expressed here; the "+
			"floor models per-node service capacity instead, and what the ladder measures is the cluster layer's actual contribution — independent "+
			"per-node capacity under graphRef-affine routing, bounded by the busiest owner's key share "+
			"(perBackendSolved gives the realized balance). Overhead pair: the same ladder with floor=0 and "+
			"%d hot requests cycling %d cached instances, once against the backend handler directly and once "+
			"through the router — every request a cache hit, so the difference is purely the router's "+
			"fingerprint-extraction + forwarding cost.",
		cfg.Clients, cfg.Distinct, cfg.N, cfg.Floor, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cfg.HotRequests, cfg.HotDistinct)
	verdict := "PASS"
	if rep.Scaling2 < 1.7 || rep.Scaling4 < 3.0 {
		verdict = "FAIL"
	}
	acceptance := fmt.Sprintf(
		"%s: cacheable graphRef traffic scales %.2fx at 2 backends (floor >= 1.7x) and %.2fx at 4 backends "+
			"(floor >= 3.0x) vs 1 backend through the same router. Honest overhead: on floor-0 hot cached "+
			"traffic one backend serves %.0f req/s direct vs %.0f req/s through the router = %.2fx slower "+
			"per request for the routing hop; the scaling runs pay that same hop in every configuration "+
			"including the 1-backend baseline, so the ratios above are router-to-router comparisons. "+
			"Cluster-wide singleflight is proven separately by TestClusterWideSingleflight "+
			"(internal/cluster): a 32-client herd across 4 backends for one hot key performs exactly 1 "+
			"engine solve, every client 200 with identical verified spans.",
		verdict, rep.Scaling2, rep.Scaling4,
		rep.HotDirect.Throughput, rep.HotRouted.Throughput, rep.RouterOverhead)
	runs := []ladderRun{}
	for _, r := range rep.Scale {
		runs = append(runs, toLadderRun(r))
	}
	return map[string]any{
		"pr":    8,
		"title": "Scale out past one process: consistent-hash graph routing, a two-tier cache with peer fill, and cluster-wide singleflight",
		"machine": fmt.Sprintf("%d logical CPU (GOMAXPROCS=%d), %s/%s, %s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version()),
		"methodology": methodology,
		"scaling": map[string]any{
			"runs":      runs,
			"scaling2x": rep.Scaling2,
			"scaling4x": rep.Scaling4,
		},
		"routerOverhead": map[string]any{
			"hotDirect": toLadderRun(rep.HotDirect),
			"hotRouted": toLadderRun(rep.HotRouted),
			"overheadX": rep.RouterOverhead,
			"note":      "how many times slower one request gets by crossing the router (floor-0 hot cache hits; buffered in-process forwarding)",
		},
		"acceptance": acceptance,
	}
}
