package main

import "strings"

// perLayer lists every per-layer metric, as BENCHMARK.json does. A traced
// run reports each of them; one whose layer does no work on the workload
// (core on wire-churn, transport on sim-paper, ...) reads 0.
var perLayer = []struct{ name, unit, better string }{
	{"workload.generate_s", "s", "lower"},
	{"workload.events_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.parallel_speedup", "ratio", "higher"},
	{"core.push_ns", "ns", "lower"},
	{"core.request_ns", "ns", "lower"},
	{"core.push_stored_ratio", "ratio", "higher"},
	{"match.match_ns", "ns", "lower"},
	{"match.subscribe_ns", "ns", "lower"},
	{"match.unsubscribe_ns", "ns", "lower"},
	{"broker.fanout_ns_per_notification", "ns", "lower"},
	{"broker.fetch_ns", "ns", "lower"},
	{"broker.publish_us_p50", "us", "lower"},
	{"broker.publish_us_p99", "us", "lower"},
	{"proxy.request_us_p50", "us", "lower"},
	{"proxy.request_us_p99", "us", "lower"},
	{"proxy.request_hit_ns", "ns", "lower"},
	{"proxy.request_miss_ns", "ns", "lower"},
	{"proxy.hit_ratio", "ratio", "higher"},
	{"proxy.decision_mismatches", "count", "lower"},
	{"transport.publish_ack_us", "us", "lower"},
	{"transport.ack_to_deliver_us", "us", "lower"},
	{"transport.deliver_us_p50", "us", "lower"},
	{"transport.deliver_us_p99", "us", "lower"},
	{"transport.fetch_us_p50", "us", "lower"},
	{"transport.fetch_us_p99", "us", "lower"},
	{"transport.churn_us_p50", "us", "lower"},
	{"transport.churn_us_p99", "us", "lower"},
	{"transport.reads_per_notification", "count", "lower"},
	{"transport.bytes_per_notification", "B", "lower"},
	{"journal.write_us", "us", "lower"},
	{"journal.sync_us", "us", "lower"},
	{"journal.appends_per_sync", "ratio", "higher"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"bench.tracing_overhead", "ratio", "lower"},
}

func init() {
	// sim.run_s.<strategy>, one per catalog strategy, GD* written GDstar.
	for _, name := range []string{"GD*", "SUB", "SG1", "SG2", "SR", "DM", "DC-FP", "DC-AP", "DC-LAP", "LRU", "GDS", "LFU-DA"} {
		perLayer = append(perLayer, struct{ name, unit, better string }{
			"sim.run_s." + strings.ReplaceAll(name, "*", "star"), "s", "lower"})
	}
}

// completeLayers adds every per-layer metric the workload did not
// measure, at 0.
func completeLayers(rep *report) {
	for _, l := range perLayer {
		if _, ok := rep.metrics[l.name]; !ok {
			rep.set(l.name, 0, l.unit)
		}
	}
}
