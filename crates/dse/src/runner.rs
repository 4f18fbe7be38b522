//! The DSE cycle, its in-process exchange, and the centralized baseline.
//!
//! [`run_cycle`] is the one algorithm of a time frame: telemetry and
//! Step 1, then per round the pseudo-measurement exchange and Step 2, then
//! aggregation. It reaches the outside through the [`Exchange`] seam. This
//! crate's implementation runs every area in one process (rayon across
//! subsystems, losses from a [`DropPlan`]), which keeps the accuracy
//! comparisons (DSE vs centralized) cheap to script; `pgse-core`'s runs
//! the areas on its cluster fleet and delivers through MeDICi.

use std::time::{Duration, Instant};

use rayon::prelude::*;

use pgse_estimation::jacobian::StateSpace;
use pgse_estimation::measurement::MeasurementSet;
use pgse_estimation::synthetic::TelemetryPlan;
use pgse_estimation::wls::{SolveCache, StateEstimate, WlsError, WlsEstimator, WlsOptions};
use pgse_grid::Network;
use pgse_obs::SpanGuard;
use pgse_powerflow::PfSolution;

use crate::decomposition::{decompose, Decomposition, DecompositionOptions};
use crate::estimator::{AreaEstimator, AreaSolution};
use crate::pseudo::{wire_len, PseudoMeasurement};

/// Options of a DSE cycle.
#[derive(Debug, Clone, Copy)]
pub struct DseOptions {
    /// Telemetry noise level `x` for this time frame.
    pub noise_level: f64,
    /// RNG seed for the frame's telemetry.
    pub seed: u64,
    /// Step-2 exchange rounds (the paper bounds useful rounds by the
    /// decomposition diameter).
    pub rounds: usize,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions { noise_level: 1.0, seed: 1, rounds: 1 }
    }
}

/// One neighbour batch that failed to arrive in time for Step 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissedExchange {
    /// Exchange round (0-based).
    pub round: usize,
    /// Area whose pseudo measurements were lost.
    pub from_area: usize,
    /// Area that proceeded without them.
    pub to_area: usize,
}

/// Accuracy penalty of a degraded run relative to a healthy one, both
/// scored against the same reference profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationDelta {
    /// `degraded vm RMSE − healthy vm RMSE` (p.u.).
    pub vm: f64,
    /// `degraded va RMSE − healthy va RMSE` (radians).
    pub va: f64,
}

/// The outcome of one DSE cycle.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Step-1 per-area solutions.
    pub step1: Vec<AreaSolution>,
    /// Final per-area solutions (after the Step-2 rounds).
    pub final_areas: Vec<AreaSolution>,
    /// Aggregated system-wide voltage magnitudes.
    pub vm: Vec<f64>,
    /// Aggregated system-wide voltage angles.
    pub va: Vec<f64>,
    /// Wall time of Step 1 (all areas).
    pub step1_time: Duration,
    /// Wall time of the exchange + Step 2 rounds.
    pub step2_time: Duration,
    /// Serialized pseudo-measurement bytes exchanged over all rounds (the
    /// "only the pseudo measurements" volume the paper credits DSE with).
    pub exchanged_bytes: u64,
    /// Step-1 Gauss–Newton iteration counts per area (feeds `Ni` fitting).
    pub step1_iterations: Vec<usize>,
    /// Neighbour batches that never arrived, in the order the exchange
    /// reported them, round by round. Empty on a healthy run.
    pub missed_exchanges: Vec<MissedExchange>,
    /// Areas that ran at least one Step-2 round on an empty inbox and
    /// therefore kept their current solution for that round (sorted,
    /// deduplicated).
    pub degraded_areas: Vec<usize>,
}

impl DseReport {
    /// RMS voltage-magnitude error against a reference profile.
    pub fn vm_rmse(&self, truth: &[f64]) -> f64 {
        rmse(&self.vm, truth)
    }

    /// RMS angle error against a reference profile (radians).
    pub fn va_rmse(&self, truth: &[f64]) -> f64 {
        rmse(&self.va, truth)
    }

    /// Accuracy delta of `self` (typically a degraded run) versus
    /// `healthy`, both measured against `truth_vm`/`truth_va`.
    pub fn degradation_vs(
        &self,
        healthy: &DseReport,
        truth_vm: &[f64],
        truth_va: &[f64],
    ) -> DegradationDelta {
        DegradationDelta {
            vm: self.vm_rmse(truth_vm) - healthy.vm_rmse(truth_vm),
            va: self.va_rmse(truth_va) - healthy.va_rmse(truth_va),
        }
    }
}

/// Deterministic, stateless exchange-loss model: whether the batch
/// `from → to` of a given round is lost depends only on `(seed, round,
/// from, to)` — the same plan always kills the same exchanges. The default
/// plan loses nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DropPlan {
    /// Seed decorrelating different plans.
    pub seed: u64,
    /// Per-exchange loss probability in `[0, 1]`.
    pub drop_prob: f64,
}

impl DropPlan {
    /// True when the `from → to` exchange of `round` is lost.
    pub fn drops(&self, round: usize, from: usize, to: usize) -> bool {
        if self.drop_prob <= 0.0 {
            return false;
        }
        if self.drop_prob >= 1.0 {
            return true;
        }
        let mut z = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((round as u64) << 42)
            .wrapping_add((from as u64) << 21)
            .wrapping_add(to as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.drop_prob
    }
}

fn rmse(a: &[f64], b: &[f64]) -> f64 {
    let s: f64 = a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
    (s / a.len() as f64).sqrt()
}

/// Combines per-area solutions into global vectors (the final step).
pub fn aggregate(decomp: &Decomposition, areas: &[AreaSolution]) -> (Vec<f64>, Vec<f64>) {
    let n: usize = decomp.areas.iter().map(|a| a.global_ids.len()).sum();
    let mut vm = vec![0.0; n];
    let mut va = vec![0.0; n];
    for (info, sol) in decomp.areas.iter().zip(areas) {
        for (l, &g) in info.global_ids.iter().enumerate() {
            vm[g] = sol.vm[l];
            va[g] = sol.va[l];
        }
    }
    (vm, va)
}

/// What one area carries from frame to frame: the solve caches of its two
/// steps and what its last frame left. Whoever hosts the areas owns one
/// slot per area for as long as the topology holds — the prototype for its
/// deployment, the streaming service for its run, a `run_dse` call for
/// that call — so a warm frame refreshes each area's factor instead of
/// re-analysing and re-factoring its gain.
#[derive(Debug, Default)]
pub struct AreaSlot {
    /// Step-1 solve cache: symbolic structures, cached factor, warm start.
    pub s1: SolveCache,
    /// Step-2 solve cache.
    pub s2: SolveCache,
    /// The area's last scan, placed on its Step-1 layout (the streaming
    /// service keeps the rows its LNR loop rejected inactive).
    pub set: Option<MeasurementSet>,
    /// The area's last merged solution: what it publishes when a round
    /// brings it nothing fresh.
    pub solution: Option<AreaSolution>,
}

/// The two estimation steps of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Local estimation on each area's own telemetry.
    One,
    /// Re-evaluation with the neighbours' pseudo measurements.
    Two,
}

/// What one exchange round brought the areas.
#[derive(Debug, Default)]
pub struct Delivery {
    /// `inboxes[a]`: the pseudo measurements that reached area `a`.
    pub inboxes: Vec<Vec<PseudoMeasurement>>,
    /// Serialized bytes that went out.
    pub bytes: u64,
    /// Directed `(from, to)` batches that never reached `to`.
    pub missed: Vec<(usize, usize)>,
}

/// The seam between the DSE cycle and what hosts it: where the areas of a
/// step run, and how a round's batches travel.
pub trait Exchange {
    /// Runs `job(area, slot)` for every area of `step`, each on its own
    /// area's slot (`slots[area]`); the result is indexed by area.
    ///
    /// # Errors
    /// The first WLS failure of any area.
    fn run_step(
        &mut self,
        step: Step,
        slots: &mut [AreaSlot],
        job: &(dyn Fn(usize, &mut AreaSlot) -> Result<AreaSolution, WlsError> + Sync),
    ) -> Result<Vec<AreaSolution>, WlsError>;

    /// Delivers round `round`'s batches (`batches[a]` is area `a`'s
    /// export) to the neighbours that need them.
    fn deliver(&mut self, round: usize, batches: &[Vec<PseudoMeasurement>]) -> Delivery;
}

/// Runs one DSE cycle: each area's telemetry at `noise_level` from `seed`
/// and Step 1, then one exchange + Step-2 round per entry of
/// `step2_seeds` (the round's Step-2 seed), then aggregation. An area
/// whose inbox comes back empty keeps its current solution for the round,
/// and one with neighbours is then degraded. Every solve goes through its
/// area's slot: Step 1 warm-starts from the slot's last Step-1 solution,
/// and both steps refresh the slot's factors while their shapes hold. On
/// success each slot holds the frame's telemetry and final solution.
///
/// # Errors
/// The first WLS failure of any area.
pub fn run_cycle(
    decomp: &Decomposition,
    estimators: &[AreaEstimator],
    slots: &mut [AreaSlot],
    noise_level: f64,
    seed: u64,
    step2_seeds: &[u64],
    exchange: &mut impl Exchange,
) -> Result<DseReport, WlsError> {
    let step1_span = pgse_obs::span("frame.step1");
    let t0 = Instant::now();
    let sets: Vec<MeasurementSet> =
        estimators.iter().map(|e| e.generate_telemetry(noise_level, seed)).collect();
    let step1 = exchange.run_step(Step::One, slots, &|a, slot| {
        estimators[a].step1_cached(&sets[a], &mut slot.s1)
    })?;
    let step1_time = t0.elapsed();
    drop(step1_span);

    let t1 = Instant::now();
    let mut current = step1.clone();
    let mut exchanged_bytes = 0;
    let mut missed_exchanges = Vec::new();
    let mut degraded_areas = Vec::new();
    for (round, &step2_seed) in step2_seeds.iter().enumerate() {
        let exchange_span = pgse_obs::span("frame.exchange");
        let batches: Vec<Vec<PseudoMeasurement>> =
            estimators.iter().zip(&current).map(|(e, s)| e.export_pseudo(s)).collect();
        let Delivery { inboxes, bytes, missed } = exchange.deliver(round, &batches);
        let degraded: Vec<usize> = (0..estimators.len())
            .filter(|&a| inboxes[a].is_empty() && !estimators[a].info.neighbors.is_empty())
            .collect();
        close_exchange(exchange_span, bytes, missed.len() as u64, degraded.len() as u64);

        let step2_span = pgse_obs::span("frame.step2");
        current = exchange.run_step(Step::Two, slots, &|a, slot| {
            if inboxes[a].is_empty() {
                // No boundary information this round: the area proceeds
                // on its current solution rather than failing the cycle.
                return Ok(current[a].clone());
            }
            let (sol, inbox) = (&current[a], &inboxes[a]);
            estimators[a].step2_cached(sol, inbox, &sets[a], noise_level, step2_seed, &mut slot.s2)
        })?;
        drop(step2_span);
        exchanged_bytes += bytes;
        for (from_area, to_area) in missed {
            missed_exchanges.push(MissedExchange { round, from_area, to_area });
        }
        degraded_areas.extend(degraded);
    }
    let step2_time = t1.elapsed();
    degraded_areas.sort_unstable();
    degraded_areas.dedup();

    let (vm, va) = aggregate(decomp, &current);
    for ((slot, set), sol) in slots.iter_mut().zip(sets).zip(&current) {
        (slot.set, slot.solution) = (Some(set), Some(sol.clone()));
    }
    Ok(DseReport {
        step1_iterations: step1.iter().map(|s| s.iterations).collect(),
        step1,
        final_areas: current,
        vm,
        va,
        step1_time,
        step2_time,
        exchanged_bytes,
        missed_exchanges,
        degraded_areas,
    })
}

/// Closes a round's `frame.exchange` span with the round's counts and adds
/// them to the `exchange.{bytes,missed,degraded}` counters.
fn close_exchange(mut span: SpanGuard, bytes: u64, missed: u64, degraded: u64) {
    span.record("bytes", bytes);
    span.record("missed", missed);
    span.record("degraded", degraded);
    drop(span);
    pgse_obs::counter_add("exchange.bytes", bytes);
    pgse_obs::counter_add("exchange.missed", missed);
    pgse_obs::counter_add("exchange.degraded", degraded);
}

/// The in-process [`Exchange`]: every area of a step runs on the rayon
/// pool, and every batch reaches each neighbour unless `plan` loses it.
#[derive(Debug, Clone, Copy)]
pub struct InProcess<'a> {
    /// The decomposition whose neighbours exchange.
    pub decomp: &'a Decomposition,
    /// The exchange-loss model.
    pub plan: DropPlan,
}

impl Exchange for InProcess<'_> {
    fn run_step(
        &mut self,
        _: Step,
        slots: &mut [AreaSlot],
        job: &(dyn Fn(usize, &mut AreaSlot) -> Result<AreaSolution, WlsError> + Sync),
    ) -> Result<Vec<AreaSolution>, WlsError> {
        slots.par_iter_mut().enumerate().map(|(a, slot)| job(a, slot)).collect()
    }

    fn deliver(&mut self, round: usize, batches: &[Vec<PseudoMeasurement>]) -> Delivery {
        let mut out = Delivery::default();
        // Every area sends its batch to each neighbour (bidirectional
        // exchange, paper §IV-A); the plan decides which arrive.
        for (to, info) in self.decomp.areas.iter().enumerate() {
            let mut inbox = Vec::new();
            for &from in &info.neighbors {
                if self.plan.drops(round, from, to) {
                    out.missed.push((from, to));
                } else {
                    out.bytes += wire_len(batches[from].len()) as u64;
                    inbox.extend_from_slice(&batches[from]);
                }
            }
            out.inboxes.push(inbox);
        }
        out
    }
}

/// Runs one full DSE cycle (preliminary step → Step 1 → exchange →
/// Step 2 → aggregation) on `net` at the operating point `pf`.
///
/// # Errors
/// Propagates the first WLS failure of any area.
pub fn run_dse(net: &Network, pf: &PfSolution, opts: &DseOptions) -> Result<DseReport, WlsError> {
    run_dse_degraded(net, pf, opts, &DropPlan::default())
}

/// [`run_dse`] under an exchange-loss model: lost neighbour batches are
/// recorded as [`MissedExchange`]s and the affected areas degrade
/// gracefully (an empty inbox keeps the area's current solution for that
/// round) instead of failing the cycle. Every call runs on fresh
/// [`AreaSlot`]s, so its report depends on its arguments only.
///
/// # Errors
/// Propagates the first WLS failure of any area.
pub fn run_dse_degraded(
    net: &Network,
    pf: &PfSolution,
    opts: &DseOptions,
    plan: &DropPlan,
) -> Result<DseReport, WlsError> {
    let decomp = decompose(net, &DecompositionOptions::default());
    let estimators: Vec<AreaEstimator> = decomp
        .areas
        .iter()
        .map(|a| AreaEstimator::new(a.clone(), net, pf, WlsOptions::default()))
        .collect();
    // Exchange rounds are bounded by the decomposition diameter.
    let rounds = opts.rounds.clamp(1, decomp.diameter().max(1));
    let step2_seeds: Vec<u64> = (0..rounds).map(|r| opts.seed ^ (r as u64 + 1)).collect();
    let mut slots: Vec<AreaSlot> = estimators.iter().map(|_| AreaSlot::default()).collect();
    let mut exchange = InProcess { decomp: &decomp, plan: *plan };
    let (noise, seed) = (opts.noise_level, opts.seed);
    run_cycle(&decomp, &estimators, &mut slots, noise, seed, &step2_seeds, &mut exchange)
}

/// The centralized baseline: one WLS over the whole interconnection with
/// the same telemetry density and PMU sites.
///
/// # Errors
/// Propagates WLS failures.
pub fn run_centralized(
    net: &Network,
    pf: &PfSolution,
    opts: &DseOptions,
) -> Result<(StateEstimate, Duration), WlsError> {
    let decomp = decompose(net, &DecompositionOptions::default());
    let pmu_buses: Vec<usize> = decomp
        .areas
        .iter()
        .flat_map(|a| a.pmu_sites.iter().map(|&l| a.global_ids[l]))
        .collect();
    let plan = TelemetryPlan::full(net, pmu_buses);
    let set = plan.generate(net, pf, opts.noise_level, opts.seed);
    let est =
        WlsEstimator::new(net.clone(), StateSpace::full(net.n_buses()), WlsOptions::default());
    let t0 = Instant::now();
    let out = est.estimate(&set)?;
    Ok((out, t0.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_grid::cases::ieee118_like;
    use pgse_powerflow::{solve, PfOptions};

    fn setup() -> (Network, PfSolution) {
        let net = ieee118_like();
        let pf = solve(&net, &PfOptions::default()).unwrap();
        (net, pf)
    }

    #[test]
    fn dse_cycle_estimates_the_whole_system() {
        let (net, pf) = setup();
        let report = run_dse(&net, &pf, &DseOptions::default()).unwrap();
        assert_eq!(report.vm.len(), 118);
        assert_eq!(report.step1.len(), 9);
        // Accuracy: a fraction of a percent in magnitude, sub-degree in
        // angle at nominal noise.
        assert!(report.vm_rmse(&pf.vm) < 5e-3, "vm rmse {}", report.vm_rmse(&pf.vm));
        assert!(report.va_rmse(&pf.va) < 5e-3, "va rmse {}", report.va_rmse(&pf.va));
        assert!(report.exchanged_bytes > 0);
    }

    #[test]
    fn dse_accuracy_is_comparable_to_centralized() {
        let (net, pf) = setup();
        let opts = DseOptions::default();
        let report = run_dse(&net, &pf, &opts).unwrap();
        let (central, _) = run_centralized(&net, &pf, &opts).unwrap();
        let dse_err = report.va_rmse(&pf.va);
        let central_err = {
            let s: f64 =
                central.va.iter().zip(&pf.va).map(|(p, q)| (p - q) * (p - q)).sum();
            (s / pf.va.len() as f64).sqrt()
        };
        // DSE trades some optimality for decentralization; it must stay
        // within a small factor of the centralized accuracy.
        assert!(
            dse_err < 6.0 * central_err + 1e-4,
            "dse {dse_err} vs central {central_err}"
        );
    }

    #[test]
    fn aggregation_covers_every_bus_once() {
        let (net, pf) = setup();
        let report = run_dse(&net, &pf, &DseOptions::default()).unwrap();
        // Every aggregated magnitude must be a plausible voltage, proving
        // no bus was left at the zero placeholder.
        assert!(report.vm.iter().all(|&v| v > 0.8 && v < 1.2));
    }

    #[test]
    fn multiple_rounds_respect_diameter_and_stay_stable() {
        let (net, pf) = setup();
        let one = run_dse(&net, &pf, &DseOptions { rounds: 1, ..Default::default() }).unwrap();
        let many =
            run_dse(&net, &pf, &DseOptions { rounds: 10, ..Default::default() }).unwrap();
        // Rounds are clamped to the diameter (≤ 3 here), and extra rounds
        // must not destabilize the estimate.
        assert!(many.va_rmse(&pf.va) < 2.0 * one.va_rmse(&pf.va) + 1e-4);
        assert!(many.exchanged_bytes >= 2 * one.exchanged_bytes);
    }

    #[test]
    fn exchange_volume_is_pseudo_only() {
        // The exchanged bytes must be far smaller than shipping raw
        // telemetry: that is the paper's core argument for DSE.
        let (net, pf) = setup();
        let opts = DseOptions::default();
        let report = run_dse(&net, &pf, &opts).unwrap();
        let decomp = decompose(&net, &DecompositionOptions::default());
        let estimators: Vec<AreaEstimator> = decomp
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default()))
            .collect();
        let raw_bytes: u64 = estimators
            .iter()
            .map(|e| e.generate_telemetry(1.0, 1).wire_size() as u64)
            .sum();
        assert!(
            report.exchanged_bytes < 4 * raw_bytes,
            "pseudo {} vs raw {}",
            report.exchanged_bytes,
            raw_bytes
        );
    }

    #[test]
    fn higher_noise_degrades_accuracy() {
        let (net, pf) = setup();
        let low = run_dse(
            &net,
            &pf,
            &DseOptions { noise_level: 0.2, ..Default::default() },
        )
        .unwrap();
        let high = run_dse(
            &net,
            &pf,
            &DseOptions { noise_level: 4.0, ..Default::default() },
        )
        .unwrap();
        assert!(high.va_rmse(&pf.va) > low.va_rmse(&pf.va));
    }

    #[test]
    fn report_is_deterministic_per_seed() {
        let (net, pf) = setup();
        let a = run_dse(&net, &pf, &DseOptions::default()).unwrap();
        let b = run_dse(&net, &pf, &DseOptions::default()).unwrap();
        assert_eq!(a.vm, b.vm);
        assert_eq!(a.va, b.va);
        assert!(a.missed_exchanges.is_empty());
        assert!(a.degraded_areas.is_empty());
    }

    #[test]
    fn lossless_plan_matches_healthy_run() {
        let (net, pf) = setup();
        let opts = DseOptions::default();
        let healthy = run_dse(&net, &pf, &opts).unwrap();
        let plan = DropPlan { seed: 3, drop_prob: 0.0 };
        let degraded = run_dse_degraded(&net, &pf, &opts, &plan).unwrap();
        assert_eq!(healthy.vm, degraded.vm);
        assert_eq!(healthy.va, degraded.va);
        assert!(degraded.missed_exchanges.is_empty());
    }

    #[test]
    fn losses_are_recorded_and_bounded_in_accuracy() {
        let (net, pf) = setup();
        let opts = DseOptions::default();
        let healthy = run_dse(&net, &pf, &opts).unwrap();
        let plan = DropPlan { seed: 11, drop_prob: 0.4 };
        let degraded = run_dse_degraded(&net, &pf, &opts, &plan).unwrap();
        assert!(!degraded.missed_exchanges.is_empty());
        assert!(degraded.exchanged_bytes < healthy.exchanged_bytes);
        // Degradation is graceful: the estimate stays usable (Step 1 alone
        // already bounds the error) even with 40% of exchanges lost.
        let delta = degraded.degradation_vs(&healthy, &pf.vm, &pf.va);
        assert!(delta.vm.abs() < 5e-3, "vm delta {}", delta.vm);
        assert!(delta.va.abs() < 5e-3, "va delta {}", delta.va);
        assert!(degraded.vm_rmse(&pf.vm) < 1e-2);
    }

    #[test]
    fn total_blackout_falls_back_to_step1() {
        let (net, pf) = setup();
        let opts = DseOptions::default();
        let plan = DropPlan { seed: 0, drop_prob: 1.0 };
        let degraded = run_dse_degraded(&net, &pf, &opts, &plan).unwrap();
        // Every area lost every neighbour: all are degraded and the final
        // solution is exactly Step 1.
        assert_eq!(degraded.degraded_areas, (0..degraded.step1.len()).collect::<Vec<_>>());
        let (vm1, _) =
            aggregate(&decompose(&net, &DecompositionOptions::default()), &degraded.step1);
        assert_eq!(degraded.vm, vm1);
        assert_eq!(degraded.exchanged_bytes, 0);
    }

    #[test]
    fn drop_plan_is_deterministic() {
        let (net, pf) = setup();
        let opts = DseOptions::default();
        let plan = DropPlan { seed: 42, drop_prob: 0.3 };
        let a = run_dse_degraded(&net, &pf, &opts, &plan).unwrap();
        let b = run_dse_degraded(&net, &pf, &opts, &plan).unwrap();
        assert_eq!(a.missed_exchanges, b.missed_exchanges);
        assert_eq!(a.degraded_areas, b.degraded_areas);
        assert_eq!(a.vm, b.vm);
        // A different seed kills a different set of exchanges.
        let c = run_dse_degraded(
            &net,
            &pf,
            &opts,
            &DropPlan { seed: 43, drop_prob: 0.3 },
        )
        .unwrap();
        assert_ne!(a.missed_exchanges, c.missed_exchanges);
    }
}
