//! The metric table: every name the benchmark may print, with its unit and
//! direction. `BENCHMARK.json` lists the `EndToEnd` and `PerLayer` rows and
//! a unit test keeps the two in step. `Workload` rows are end-to-end
//! metrics that exist on some workloads only; they are printed and written
//! to `out/` wherever they apply but are not in `BENCHMARK.json`, whose
//! contract wants every listed metric from every workload.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    EndToEnd,
    Workload,
    PerLayer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
}

const fn m(name: &'static str, unit: &'static str, better: Better, class: Class) -> Metric {
    Metric {
        name,
        unit,
        better,
        class,
    }
}

use Better::{Higher, Lower};
use Class::{EndToEnd, PerLayer, Workload};

pub const METRICS: &[Metric] = &[
    m("setup_s", "s", Lower, EndToEnd),
    m("peak_rss_mb", "MB", Lower, EndToEnd),
    m("ticks_per_s", "1/s", Higher, EndToEnd),
    m("requests_per_s", "1/s", Higher, EndToEnd),
    m("run_p50_us", "us", Lower, EndToEnd),
    m("run_p90_us", "us", Lower, Workload),
    m("fail_ratio", "ratio", Lower, Workload),
    m("sw_ticks_per_s", "1/s", Higher, Workload),
    m("hw_ticks_per_s", "1/s", Higher, Workload),
    m("time_to_hw_ms", "ms", Lower, Workload),
    m("edit_to_hw_ms", "ms", Lower, Workload),
    m("virt_time_to_hw_s", "virt_s", Lower, Workload),
    m("virt_edit_to_hw_s", "virt_s", Lower, Workload),
    m("eval_p50_us", "us", Lower, Workload),
    m("eval_p90_us", "us", Lower, Workload),
    m("verilog.parse_us", "us", Lower, PerLayer),
    m("verilog.typecheck_us", "us", Lower, PerLayer),
    m("verilog.src_bytes", "bytes", Lower, PerLayer),
    m("sim.elaborate_us", "us", Lower, PerLayer),
    m("sim.sw_compile_us", "us", Lower, PerLayer),
    m("sim.program_ops", "count", Lower, PerLayer),
    m("sim.tick_ns", "ns", Lower, PerLayer),
    m("netlist.synthesize_ms", "ms", Lower, PerLayer),
    m("netlist.cells", "count", Lower, PerLayer),
    m("netlist.levels", "count", Lower, PerLayer),
    m("netlist.sim_build_ms", "ms", Lower, PerLayer),
    m("netlist.cycle_ns", "ns", Lower, PerLayer),
    m("netlist.batch64_lane_cycle_ns", "ns", Lower, PerLayer),
    m("netlist.batch1_cycle_ns", "ns", Lower, PerLayer),
    m("fpga.compile_ms", "ms", Lower, PerLayer),
    m("fpga.place_ms", "ms", Lower, PerLayer),
    m("fpga.modeled_compile_s", "virt_s", Lower, PerLayer),
    m("fpga.fifo_op_ns", "ns", Lower, PerLayer),
    m("fpga.lease_grants", "count", Higher, PerLayer),
    m("fpga.revocations", "count", Lower, PerLayer),
    m("fpga.revocations_suppressed", "count", Lower, PerLayer),
    m("core.eval_us", "us", Lower, PerLayer),
    m("core.eval_unattributed_us", "us", Lower, PerLayer),
    m("core.sw_tick_ns", "ns", Lower, PerLayer),
    m("core.sw_overhead_x", "x", Lower, PerLayer),
    m("core.hw_tick_ns", "ns", Lower, PerLayer),
    m("core.hw_overhead_x", "x", Lower, PerLayer),
    m("core.compile_wait_ms", "ms", Lower, PerLayer),
    m("core.migrate_ms", "ms", Lower, PerLayer),
    m("core.time_to_hw_ms", "ms", Lower, PerLayer),
    m("core.virt_time_to_hw_s", "virt_s", Lower, PerLayer),
    m("core.virt_edit_to_hw_s", "virt_s", Lower, PerLayer),
    m("core.cache_hits", "count", Higher, PerLayer),
    m("core.cache_misses", "count", Lower, PerLayer),
    m("serve.json_parse_us", "us", Lower, PerLayer),
    m("serve.json_encode_us", "us", Lower, PerLayer),
    m("serve.handle_line_eval_us", "us", Lower, PerLayer),
    m("serve.handle_line_run_us", "us", Lower, PerLayer),
    m("serve.dispatch_us", "us", Lower, PerLayer),
    m("serve.wire_us", "us", Lower, PerLayer),
    m("serve.eval_p99_us", "us", Lower, PerLayer),
    m("serve.run_p99_us", "us", Lower, PerLayer),
    m("serve.steals", "count", Lower, PerLayer),
    m("serve.promotions", "count", Higher, PerLayer),
    m("serve.explain_coverage_pct", "%", Higher, PerLayer),
    m("durable.append_us", "us", Lower, PerLayer),
    m("durable.journal_cost_us", "us", Lower, PerLayer),
    m("durable.journal_bytes_per_req", "bytes", Lower, PerLayer),
    m("durable.recover_ms", "ms", Lower, PerLayer),
    m("durable.store_load_ms", "ms", Lower, PerLayer),
    m("trace.plane_cost_pct", "%", Lower, PerLayer),
    m("trace.emit_ns", "ns", Lower, PerLayer),
    m("bench.trace_overhead_pct", "%", Lower, PerLayer),
    m("bench.eval_attributed_pct", "%", Higher, PerLayer),
    m("bench.time_to_hw_attributed_pct", "%", Higher, PerLayer),
    m("bench.loadavg_at_start", "load", Lower, PerLayer),
];

pub fn lookup(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
}
