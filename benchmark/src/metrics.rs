//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names in the same order; a unit test
//! holds the two together.

/// A metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: "higher",
    }
}

/// The five end-to-end metrics, the same on every workload.
pub const END_TO_END: [Decl; 5] = [
    lower("latency_ms_p50", "ms"),
    higher("throughput_per_s", "1/s"),
    lower("cpu_ms_per_op", "ms"),
    lower("rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// The per-layer metrics of the traced pass, grouped as in the README's
/// layer → end-to-end table.
pub const PER_LAYER: [Decl; 67] = [
    // set-up → setup_s
    lower("grid.build_ms", "ms"),
    lower("powerflow.solve_ms", "ms"),
    lower("dse.decompose_ms", "ms"),
    lower("dse.estimator_build_ms", "ms"),
    lower("partition.kway_us", "us"),
    lower("stream.deploy_ms", "ms"),
    lower("stream.deploy_unattributed_ms", "ms"),
    lower("contingency.dc_setup_ms", "ms"),
    // feeder → ingest
    lower("estimation.telemetry_us", "us"),
    lower("stream.wire.encode_us", "us"),
    lower("stream.wire.decode_us", "us"),
    lower("stream.wire.frame_bytes", "count"),
    lower("medici.send_recv_us", "us"),
    lower("stream.ingest.push_pop_us", "us"),
    // solve
    lower("dse.step1_ms", "ms"),
    lower("dse.exchange_us", "us"),
    lower("dse.step2_ms", "ms"),
    lower("dse.aggregate_us", "us"),
    lower("sparsela.symbolic_us", "us"),
    lower("sparsela.factor_us", "us"),
    lower("sparsela.refactor_us", "us"),
    lower("sparsela.solve_us", "us"),
    lower("sparsela.round_us", "us"),
    lower("sparsela.l_nnz", "count"),
    lower("estimation.gn_iterations_per_frame", "count"),
    higher("sparsela.batch_occupancy", "ratio"),
    higher("stream.refactor_reuse_share", "ratio"),
    higher("stream.solve_share", "ratio"),
    // robust path
    lower("estimation.chi2_gate_us", "us"),
    lower("estimation.lnr_ms", "ms"),
    lower("estimation.restore_us", "us"),
    lower("stream.suspect_share", "ratio"),
    higher("stream.restored_share", "ratio"),
    lower("stream.degraded_share", "ratio"),
    // publish → reader
    lower("stream.store.publish_us", "us"),
    lower("stream.store.load_ns", "ns"),
    lower("serve.tail_lag_us", "us"),
    lower("serve.encode_full_us", "us"),
    lower("serve.encode_delta_us", "us"),
    lower("serve.decode_us", "us"),
    lower("serve.delta_full_ratio", "ratio"),
    lower("serve.bytes_encoded_per_epoch", "count"),
    lower("serve.publish_us", "us"),
    lower("serve.tcp_delivery_us", "us"),
    lower("serve.inproc_delivery_ns", "ns"),
    // cycle closure
    lower("stream.cycle_replay_ms", "ms"),
    lower("stream.unattributed_ms", "ms"),
    // screening
    lower("contingency.bridge_gate_us", "us"),
    lower("contingency.dc_screen_us", "us"),
    lower("contingency.ac_confirm_ms", "ms"),
    lower("contingency.suspect_share", "ratio"),
    lower("contingency.violated", "count"),
    lower("contingency.sweep_unattributed_ms", "ms"),
    // prototype
    lower("core.step1_ms", "ms"),
    lower("core.exchange_ms", "ms"),
    lower("core.step2_ms", "ms"),
    lower("core.exchanged_bytes", "count"),
    lower("medici.relay_us", "us"),
    lower("partition.repartition_us", "us"),
    lower("sparsela.pcg_iterations_per_solve", "count"),
    lower("cluster.redistribution_plan_us", "us"),
    lower("mpilite.dpcg_ms", "ms"),
    // harness
    lower("harness.latency_ms_p90", "ms"),
    lower("harness.latency_ms_p99", "ms"),
    lower("harness.generator_cpu_share", "ratio"),
    lower("harness.trace_overhead_share", "ratio"),
    lower("harness.steal_share", "ratio"),
];
