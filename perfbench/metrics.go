package main

import (
	"fmt"
	"sort"
)

// metricDef is one reported metric: its unit and which direction is
// better. BENCHMARK.json lists the same names; the self-test keeps the two
// in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"span_mean", "label", "lower"},
	{"exact_share", "ratio", "higher"},
	{"ok_share", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"sustained_rps", "1/s", "higher"},
}

// perLayer are the single-layer metrics, reported by the traced run
// (--trace 1). A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"graph.decode_json_us", "us", "lower"},
	{"graph.decode_binary_us", "us", "lower"},
	{"graph.decode_allocs", "count", "lower"},
	{"graph.fingerprint_us", "us", "lower"},
	{"graph.apsp_us", "us", "lower"},
	{"intern.put_us", "us", "lower"},
	{"intern.get_us", "us", "lower"},
	{"intern.hit_ratio", "ratio", "higher"},
	{"core.plan_us", "us", "lower"},
	{"core.reduce_us", "us", "lower"},
	{"core.cache_hit_us", "us", "lower"},
	{"core.cache.hit_ratio", "ratio", "higher"},
	{"core.cache.evictions", "count", "lower"},
	{"core.cache.coalesced", "count", "higher"},
	{"core.portfolio_ms", "ms", "lower"},
	{"tsp.chained_ms", "ms", "lower"},
	{"tsp.twoopt_ms", "ms", "lower"},
	{"tsp.christofides_ms", "ms", "lower"},
	{"tsp.nn_ms", "ms", "lower"},
	{"tsp.chained_cost", "label", "lower"},
	{"tsp.twoopt_cost", "label", "lower"},
	{"tsp.christofides_cost", "label", "lower"},
	{"tsp.nn_cost", "label", "lower"},
	{"tsp.portfolio_winner.chained", "count", "higher"},
	{"tsp.portfolio_winner.twoopt", "count", "higher"},
	{"tsp.portfolio_winner.christofides", "count", "higher"},
	{"tsp.portfolio_winner.nn", "count", "higher"},
	{"tsp.heldkarp_ms", "ms", "lower"},
	{"tsp.bnb_ms", "ms", "lower"},
	{"tsp.bnb_nodes", "count", "lower"},
	{"labeling.verify_us", "us", "lower"},
	{"service.handler_us.graphref", "us", "lower"},
	{"service.handler_us.json", "us", "lower"},
	{"service.handler_us.binary", "us", "lower"},
	{"service.allocs_per_req", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.shed", "count", "lower"},
	{"socket.overhead_us", "us", "lower"},
	{"cluster.router_hop_us", "us", "lower"},
	{"cluster.peer_fill_us", "us", "lower"},
	{"cluster.l2_served", "count", "higher"},
	{"cluster.l2_fallbacks", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.hedge_wins", "count", "higher"},
	{"cluster.breaker_trips", "count", "lower"},
	{"cluster.balance", "ratio", "higher"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"loadgen.late_tail_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.glue_us", "us", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish turns a workload's raw numbers into the reported metric map:
// every name of the chosen list, each with its unit. An end-to-end metric
// a workload failed to produce is an error; a per-layer one is 0.
func finish(defs []metricDef, got map[string]float64, strict bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v, ok := got[d.name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range got {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("unregistered metrics %v", extra)
	}
	return out, nil
}
