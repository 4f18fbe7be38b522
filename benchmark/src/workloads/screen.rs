//! `screen118`: full N-1 sweeps of the streaming contingency engine.
//!
//! `contingency`, `powerflow::solve_warm` and the rank-1 `UpdatedFactor`
//! do all the work; the streaming layers do none. The base state cycles
//! through eight seeded perturbations of the solved operating point, so a
//! sweep that memoised its previous answer could not win.

use std::time::Instant;

use pgse_grid::cases::ieee118_like;
use pgse_powerflow::{solve, PfOptions};
use pgse_stream::scenarios::EpochWatch;
use pgse_stream::{ScenarioConfig, ScenarioEngine, SystemSnapshot};

use super::{unit, Detail, Meter, Pass};
use crate::spans::{Tracer, NO_PARENT};

/// Distinct base states the sweeps cycle through.
pub const N_BASES: usize = 8;
/// Size of the seeded perturbation, p.u. and radians — about what one
/// estimation frame moves the state by.
const PERTURBATION: f64 = 1e-3;

/// No newer epoch ever supersedes a sweep: every sweep runs to the end.
struct Never;

impl EpochWatch for Never {
    fn latest_epoch(&self) -> Option<u64> {
        None
    }
}

/// The engine and the base states it sweeps.
#[derive(Debug)]
pub struct ScreenReady {
    engine: ScenarioEngine,
    bases: Vec<SystemSnapshot>,
}

/// Sums over the sweeps of one screening pass, from `ScenarioReport`.
#[derive(Debug, Default)]
pub struct ScreenDetail {
    pub sweeps: u64,
    pub enumerated: u64,
    pub screened: u64,
    pub suspects: u64,
    /// Violations over the first cycle through the bases.
    pub violated_per_cycle: u64,
    /// Engine-measured wall time of all sweeps.
    pub wall_ns: u64,
    /// Per sweep, the busiest worker's measured case time, summed.
    pub busiest_worker_ns: u64,
}

/// Solves the IEEE-118 base case and derives the seeded base states.
///
/// # Errors
/// When the base power flow does not converge.
pub fn setup(seed: u64, tracer: &Tracer) -> Result<ScreenReady, String> {
    let root = tracer.begin("setup", NO_PARENT, 0);
    let net = tracer.scoped("grid.build", root.id(), 0, ieee118_like);
    let pf = tracer
        .scoped("powerflow.solve", root.id(), 0, || {
            solve(&net, &PfOptions::default())
        })
        .map_err(|e| format!("base power flow failed: {e}"))?;
    let mut state = seed ^ 0x5c4e_e118;
    let bases = (0..N_BASES)
        .map(|k| SystemSnapshot {
            epoch: k as u64,
            frame_seq: k as u64,
            dt_seconds: 0.0,
            vm: pf
                .vm
                .iter()
                .map(|v| v + PERTURBATION * unit(&mut state))
                .collect(),
            va: pf
                .va
                .iter()
                .map(|a| a + PERTURBATION * unit(&mut state))
                .collect(),
            degraded_areas: Vec::new(),
        })
        .collect();
    let engine = tracer.scoped("scenarios.engine_new", root.id(), 0, || {
        ScenarioEngine::new(
            net,
            ScenarioConfig {
                n_workers: 2,
                ..ScenarioConfig::default()
            },
        )
    });
    root.end();
    Ok(ScreenReady { engine, bases })
}

/// Runs `n_sweeps` full sweeps, one after the other.
pub fn run(ready: ScreenReady, n_sweeps: usize, tracer: &Tracer) -> Pass {
    let ScreenReady { engine, bases } = ready;
    let mut problems = Vec::new();
    let mut detail = ScreenDetail::default();
    // Verdict counts of each base's first sweep; later sweeps of the same
    // base must repeat them exactly.
    let mut first: Vec<Option<(usize, usize, usize)>> = vec![None; bases.len()];
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let root = tracer.begin("run", NO_PARENT, 0);
    let mut meter = Meter::new(n_sweeps);
    for i in 0..n_sweeps {
        let k = i % bases.len();
        let t0 = Instant::now();
        let r = tracer.scoped("scenarios.sweep", root.id(), i as u64, || {
            engine.sweep(&bases[k], &Never)
        });
        meter.record(r.screened as u64, t0.elapsed().as_secs_f64() * 1e3);
        attempted += r.screened as u64;
        failed += r.shed_stale as u64;
        if !r.identity_holds() || r.shed_stale != 0 {
            problems.push(format!("sweep {i}: accounting identity open or cases shed"));
        }
        let verdicts = (r.suspects, r.cleared, r.violated);
        match first[k] {
            None => {
                first[k] = Some(verdicts);
                detail.violated_per_cycle += r.violated as u64;
            }
            Some(f) if f != verdicts => problems.push(format!(
                "sweep {i}: base {k} gave (suspects, cleared, violated) {verdicts:?}, first gave {f:?}"
            )),
            Some(_) => {}
        }
        detail.sweeps += 1;
        detail.enumerated += r.enumerated as u64;
        detail.screened += r.screened as u64;
        detail.suspects += r.suspects as u64;
        detail.wall_ns += r.wall_ns;
        detail.busiest_worker_ns += r.busy_ns_per_worker.iter().copied().max().unwrap_or(0);
    }
    let (events, harness_cpu_s) = meter.finish();
    root.end();
    problems.truncate(8);
    Pass {
        events,
        attempted,
        failed,
        problems,
        harness_cpu_s,
        detail: Detail::Screen(detail),
    }
}
