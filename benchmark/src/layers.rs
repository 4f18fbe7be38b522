//! The traced pass: per-layer metrics from the pass's own report and the
//! component replay of the layers the workload enters.
//!
//! The driver's contract has every declared per-layer metric on every
//! `--trace 1` result line. A workload measures the groups of the layers
//! it runs — the stream workloads no contingency sweep, `fanout118` no
//! solve — and prints 0 for the rest: no work done there, no time spent.

use std::path::Path;

use pgse_serve::{DeliveryMode, SubscriptionFilter};

use crate::json::{Metric, RunResult};
use crate::metrics::PER_LAYER;
use crate::replay::{Replay, ReplayValues};
use crate::spans::Tracer;
use crate::stats::{self, median, supported_tail, timed_latencies};
use crate::workloads::fanout::{self, FanoutDetail, N_READERS};
use crate::workloads::proto::ProtoDetail;
use crate::workloads::screen::ScreenDetail;
use crate::workloads::stream::StreamDetail;
use crate::workloads::{run, setup, Detail, Pass, Workload};

/// Epochs of the one-reader pass that times a stream's socket hop.
const TCP_HOP_EPOCHS: usize = 400;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn p50(pass: &Pass) -> f64 {
    median(&timed_latencies(&pass.events))
}

/// Runs `w` at a quarter of `n_events` without and with harness spans and
/// replays the layers it enters; writes the spans to `trace_path`.
/// Returns the result line (every per-layer metric, in catalogue order)
/// and the correctness-gate violations of both passes.
///
/// # Errors
/// A one-line description when a set-up step fails or the trace file
/// cannot be written.
pub fn traced_run(
    w: Workload,
    n_events: usize,
    seed: u64,
    trace_path: &Path,
) -> Result<(RunResult, Vec<String>), String> {
    let n = (n_events / 4).max(Workload::MIN_EVENTS);
    let off = Tracer::off();
    let untraced = run(setup(w, n, seed, &off)?, n, &off);
    let tracer = Tracer::on();
    let traced = run(setup(w, n, seed, &tracer)?, n, &tracer);
    tracer
        .write_json(trace_path, w.name())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let mut replay = Replay::new(w, seed)?;
    replay.grid_set_up();
    match &untraced.detail {
        Detail::Stream(stream) => {
            replay.dse_set_up();
            replay.stream_deploy()?;
            replay.feeder_to_ingest()?;
            replay.solve()?;
            if w == Workload::Faults118 {
                replay.robust_path()?;
            }
            replay.store_and_tail()?;
            replay.serve()?;
            // The stream's socket hop alone: its one All/Delta reader.
            let one_reader = |_, _| (SubscriptionFilter::All, DeliveryMode::Delta);
            let hop = fanout::run(
                fanout::setup_readers(seed, 1, one_reader, &off)?,
                TCP_HOP_EPOCHS,
                &off,
            );
            replay
                .values
                .insert("serve.tcp_delivery_us", 1e3 * p50(&hop));
            stream_layers(&mut replay.values, stream, p50(&untraced));
        }
        Detail::Proto(proto) => {
            replay.dse_set_up();
            replay.prototype()?;
            proto_layers(&mut replay.values, proto);
        }
        Detail::Screen(screen) => {
            replay.screening()?;
            screen_layers(&mut replay.values, screen);
        }
        Detail::Fanout(fanout) => {
            replay.serve()?;
            fanout_layers(&mut replay.values, fanout, p50(&untraced));
        }
    }
    let mut values = replay.values;

    let lat = timed_latencies(&untraced.events);
    values.insert("harness.latency_ms_p90", supported_tail(&lat, &[0.90]).1);
    values.insert(
        "harness.latency_ms_p99",
        supported_tail(&lat, &[0.90, 0.99]).1,
    );
    values.insert(
        "harness.generator_cpu_share",
        untraced.harness_cpu_s / stats::timed_cpu_seconds(&untraced.events),
    );
    values.insert(
        "harness.trace_overhead_share",
        p50(&traced) / p50(&untraced) - 1.0,
    );

    // What the hypervisor took from the untraced pass: how far to trust
    // this run's times.
    let all_blocks = stats::blocks(&untraced.events, stats::n_cpus());
    let wall_s: f64 = all_blocks.iter().map(|b| b.wall_s).sum();
    values.insert(
        "harness.steal_share",
        all_blocks
            .iter()
            .map(|b| b.steal_share * b.wall_s)
            .sum::<f64>()
            / wall_s,
    );

    if let Some(unknown) = values
        .keys()
        .find(|k| !PER_LAYER.iter().any(|d| d.name == **k))
    {
        return Err(format!("{unknown} is measured but not in the catalogue"));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|decl| {
            (
                decl.name.to_string(),
                Metric {
                    // 0: a layer the workload does not enter.
                    value: values.get(decl.name).copied().unwrap_or(0.0),
                    unit: decl.unit.to_string(),
                },
            )
        })
        .collect();

    let mut problems = untraced.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    eprintln!(
        "{}: {} spans written to {}, {} of {} per-layer metrics measured",
        w.name(),
        tracer.len(),
        trace_path.display(),
        values.len(),
        PER_LAYER.len(),
    );
    let result = RunResult {
        correct: problems.is_empty(),
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
    };
    Ok((result, problems))
}

/// Counts of the stream pass and the cycle closure: the replayed hops of
/// one frame summed, and what of the measured cycle they leave
/// unexplained.
fn stream_layers(v: &mut ReplayValues, s: &StreamDetail, cycle_p50_ms: f64) {
    let r = &s.report;
    let n_areas = r.area_symbolic_builds.len() as u64;
    v.insert(
        "estimation.gn_iterations_per_frame",
        ratio(r.gn_iterations, r.frames_published),
    );
    v.insert(
        "sparsela.batch_occupancy",
        ratio(r.batched_lanes, r.gain_solves),
    );
    v.insert(
        "stream.refactor_reuse_share",
        ratio(r.refactor_reuse, r.refactor_reuse + r.refactor_full),
    );
    v.insert(
        "stream.solve_share",
        r.solve_nanos as f64 / r.elapsed.as_nanos().max(1) as f64,
    );
    v.insert(
        "stream.suspect_share",
        ratio(r.suspect_frames, r.area_frames_solved),
    );
    v.insert(
        "stream.restored_share",
        ratio(r.frames_restored, r.area_frames_solved),
    );
    v.insert(
        "stream.degraded_share",
        ratio(r.degraded_area_rounds, r.rounds * n_areas),
    );

    // The hops one frame of the lockstep stream passes through, in order.
    // Per-area hops were replayed for all areas at once; the medici hop
    // per send, so it counts once per area.
    let cycle_ms = (v["estimation.telemetry_us"]
        + v["stream.wire.encode_us"]
        + v["medici.send_recv_us"] * n_areas as f64
        + v["stream.wire.decode_us"]
        + v["stream.ingest.push_pop_us"]
        + v["dse.exchange_us"]
        + v["dse.aggregate_us"]
        + v["stream.store.publish_us"]
        + v["serve.tail_lag_us"]
        + v["serve.encode_delta_us"]
        + v["serve.tcp_delivery_us"]
        + v["serve.decode_us"])
        / 1e3
        + v["dse.step1_ms"]
        + v["dse.step2_ms"];
    v.insert("stream.cycle_replay_ms", cycle_ms);
    v.insert("stream.unattributed_ms", cycle_p50_ms - cycle_ms);
}

fn proto_layers(v: &mut ReplayValues, p: &ProtoDetail) {
    let per_frame_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / p.frames.max(1) as f64;
    v.insert("core.step1_ms", per_frame_ms(p.step1));
    v.insert("core.exchange_ms", per_frame_ms(p.exchange));
    v.insert("core.step2_ms", per_frame_ms(p.step2));
    v.insert("core.exchanged_bytes", ratio(p.exchanged_bytes, p.frames));
    v.insert(
        "sparsela.pcg_iterations_per_solve",
        ratio(p.pcg_iterations, p.pcg_solves),
    );
}

fn screen_layers(v: &mut ReplayValues, s: &ScreenDetail) {
    v.insert("contingency.suspect_share", ratio(s.suspects, s.screened));
    v.insert("contingency.violated", s.violated_per_cycle as f64);
    // Sweep wall time no worker's case work covers: the bridge gate, the
    // DC set-up, thread start and the serial tally.
    v.insert(
        "contingency.sweep_unattributed_ms",
        s.wall_ns.saturating_sub(s.busiest_worker_ns) as f64 / 1e6 / s.sweeps.max(1) as f64,
    );
}

fn fanout_layers(v: &mut ReplayValues, f: &FanoutDetail, fanout_p50_ms: f64) {
    v.insert(
        "serve.bytes_encoded_per_epoch",
        ratio(f.serve.bytes_encoded, f.epochs),
    );
    // One delivery of the 64 a fan-out completes.
    v.insert(
        "serve.tcp_delivery_us",
        fanout_p50_ms * 1e3 / N_READERS as f64,
    );
}
