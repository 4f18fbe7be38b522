//! `proto118`: the paper's own artifact, one `run_frame` after another.
//!
//! The only workload that runs `partition` (per-frame repartition),
//! `cluster`, the medici store-and-forward pipelines and PCG. ROADMAP
//! item 2 will re-express the prototype over a new round engine; this is
//! the floor it has to hold.

use std::time::{Duration, Instant};

use pgse_core::{PrototypeConfig, SystemPrototype};
use pgse_estimation::synthetic::NoiseProcess;
use pgse_grid::cases::ieee118_like;

use super::{Detail, Meter, Pass};
use crate::spans::{Tracer, NO_PARENT};

/// Model-time spacing of the frames: a SCADA scan cadence.
const FRAME_INTERVAL_S: f64 = 4.0;
/// Accuracy gate on every frame's aggregated voltage magnitudes (p.u.).
const VM_RMSE_BOUND: f64 = 5e-3;

/// The deployed prototype.
pub struct ProtoReady {
    proto: SystemPrototype,
}

impl std::fmt::Debug for ProtoReady {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtoReady").finish_non_exhaustive()
    }
}

/// Sums over the frames of one prototype pass, from `FrameReport`.
#[derive(Debug, Default)]
pub struct ProtoDetail {
    pub frames: u64,
    pub step1: Duration,
    pub exchange: Duration,
    pub step2: Duration,
    pub exchanged_bytes: u64,
    pub pcg_solves: u64,
    pub pcg_iterations: u64,
}

/// Deploys the prototype on IEEE-118 with the paper's configuration; the
/// seed drives the telemetry noise of every frame.
///
/// # Errors
/// When the power flow or the middleware deployment fails.
pub fn setup(seed: u64, tracer: &Tracer) -> Result<ProtoReady, String> {
    let root = tracer.begin("setup", NO_PARENT, 0);
    let net = tracer.scoped("grid.build", root.id(), 0, ieee118_like);
    let config = PrototypeConfig {
        noise: NoiseProcess {
            seed,
            ..NoiseProcess::default()
        },
        ..PrototypeConfig::default()
    };
    let proto = tracer
        .scoped("core.deploy", root.id(), 0, || {
            SystemPrototype::deploy(net, config)
        })
        .map_err(|e| format!("prototype did not deploy: {e}"))?;
    root.end();
    Ok(ProtoReady { proto })
}

/// Runs `n_frames` frames back to back.
pub fn run(ready: ProtoReady, n_frames: usize, tracer: &Tracer) -> Pass {
    let mut proto = ready.proto;
    let mut problems = Vec::new();
    let mut detail = ProtoDetail::default();
    let mut failed = 0u64;
    let root = tracer.begin("run", NO_PARENT, 0);
    let mut meter = Meter::new(n_frames);
    for i in 0..n_frames {
        let t0 = Instant::now();
        let out = tracer.scoped("core.run_frame", root.id(), i as u64, || {
            proto.run_frame(i as f64 * FRAME_INTERVAL_S)
        });
        meter.record(1, t0.elapsed().as_secs_f64() * 1e3);
        match out {
            Ok(r) => {
                detail.frames += 1;
                detail.step1 += r.step1_time;
                detail.exchange += r.exchange_time;
                detail.step2 += r.step2_time;
                detail.exchanged_bytes += r.exchanged_bytes;
                if !r.exchange_healthy() {
                    failed += 1;
                    problems.push(format!("frame {i}: exchange was not healthy"));
                } else if r.vm_rmse > VM_RMSE_BOUND || r.vm_rmse.is_nan() {
                    problems.push(format!(
                        "frame {i}: vm rmse {:.2e} over the bound",
                        r.vm_rmse
                    ));
                }
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("frame {i} failed: {e}"));
            }
        }
    }
    let (events, harness_cpu_s) = meter.finish();
    root.end();
    let obs = proto.obs_report();
    detail.pcg_solves = obs.total_counter("pcg.solves");
    detail.pcg_iterations = obs.total_counter("pcg.iterations");
    problems.truncate(8);
    Pass {
        events,
        attempted: n_frames as u64,
        failed,
        problems,
        harness_cpu_s,
        detail: Detail::Proto(detail),
    }
}
