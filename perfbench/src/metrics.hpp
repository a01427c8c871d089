// The benchmark's metric catalog: every name it reports, with its unit.
// A run prints exactly the end-to-end list (--trace 0) or exactly the
// per-layer list (--trace 1), in this order; README.md defines each.
//
// End-to-end metrics are the ones that repeat within a tenth from run to
// run on a shared virtual machine. The serving speed metrics did not
// (README.md, "Steadiness"), so they are reported with the per-layer
// metrics, which carry no bound, until a quieter host shows them steady.
#pragma once

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

inline constexpr MetricSpec kPerLayer[] = {
    // Serving speed, measured end to end on the untraced stack.
    {"throughput_rps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"rate_at_slo_rps", "1/s"},
    {"server_cpu_us_per_req", "us"},
    // exact_hits: the zero-copy wire-cache path.
    {"service.wire_find_ns", "ns"},
    {"net.fastpath_ratio", "ratio"},
    {"obs.stage.wire_fastpath_ns", "ns"},
    {"net.frame_copy_ns", "ns"},
    {"net.header_ns", "ns"},
    // shared_problems: the full hit path.
    {"net.decode_ns", "ns"},
    {"sched.instance_build_ns", "ns"},
    {"service.fingerprint_ns", "ns"},
    {"service.cache_find_ns", "ns"},
    {"service.remap_ns", "ns"},
    {"net.encode_ns", "ns"},
    {"service.cache_exact_ratio", "ratio"},
    {"service.cache_iso_ratio", "ratio"},
    // fresh_solves: solvers, the CPM kernel and the write side.
    {"sched.solve_ns.cg", "ns"},
    {"sched.solve_ns.gain3", "ns"},
    {"sched.iterations", "count"},
    {"dag.flatdag_build_ns", "ns"},
    {"dag.cpm_eval_ns", "ns"},
    {"service.cache_insert_ns", "ns"},
    {"service.wire_insert_ns", "ns"},
    {"persist.append_ns", "ns"},
    {"persist.journal_bytes_per_insert", "bytes"},
    {"service.cache_miss_ratio", "ratio"},
    // The production tracer's stage aggregates (all workloads).
    {"obs.stage.queue_wait_ns", "ns"},
    {"obs.stage.decode_ns", "ns"},
    {"obs.stage.cache_lookup_ns", "ns"},
    {"obs.stage.solve_ns", "ns"},
    {"obs.stage.persist_append_ns", "ns"},
    // Reported on every workload.
    {"net.request_bytes", "bytes"},
    {"net.response_bytes", "bytes"},
    {"service.wire_hit_ratio", "ratio"},
    {"gen.late_p99_ms", "ms"},
    {"gen.cpu_util", "ratio"},
    {"gen.latency_samples", "count"},
    {"host.calib_ns", "ns"},
    {"obs.trace_overhead_pct", "%"},
    {"bench.replay_self_us", "us"},
    {"bench.unattributed_us", "us"},
};

}  // namespace perfbench
