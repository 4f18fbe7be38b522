//! Streaming N-1 contingency screening — the first downstream consumer of
//! the estimated state the paper names (§I: "contingency analysis, optimal
//! power flow, economic dispatch…").
//!
//! [`ScenarioEngine`] subscribes to the [`SnapshotStore`] epoch stream.
//! On each published base-case state it fans the full single-branch outage
//! list out as a dependency-gated two-tier task graph:
//!
//! 1. **Gate** (deterministic, serial): bridge analysis marks islanding
//!    outages up front. The bridge list, the base-case DC factor
//!    ([`pgse_contingency::DcScreener`]) and the Newton model
//!    ([`pgse_powerflow::PfModel`]) depend on the network alone, so the
//!    engine builds them on its first sweep and every later sweep reuses
//!    them.
//! 2. **Screen tier** (parallel, counter-claimed): every survivable outage
//!    is priced by a warm Sherman–Morrison rank-1 update against the cached
//!    base factor — no refactorization per case. Cases whose linearized
//!    worst loading stays under [`ScenarioConfig::screen_margin`] are
//!    *cleared* without ever touching AC.
//! 3. **Solve tier** (parallel, counter-claimed): the suspects, ranked
//!    worst-first by screen severity, get a full AC re-solve warm-started
//!    from the base operating point — on the engine's one Newton model,
//!    the outaged branch a zero admittance on the base pattern — and their
//!    limit checks decide *cleared* vs *violated*.
//!
//! Work distribution in both parallel tiers is the counter-based dynamic
//! scheme of Chen, Huang & Chavarría-Miranda \[2\]: a shared atomic counter
//! each worker fetch-adds to claim its next case, plus a requeue stack so
//! cases lost to killed workers ([`KillSchedule`]) are re-claimed and the
//! sweep still completes. Before every claim a worker polls an
//! [`EpochWatch`]; once a newer base epoch is published the sweep is
//! *superseded* — remaining cases are shed as `shed_stale` and nothing is
//! published against the old epoch.
//!
//! Every sweep closes the accounting identities
//!
//! ```text
//! enumerated == screened + skipped_islanding
//! screened   == cleared + violated + shed_stale
//! ```
//!
//! from its own counters *and* from the exported obs trace, and violation
//! products flow back into a second epoch-stamped store
//! ([`ScenarioStore`], the same lock-free machinery as the state stream)
//! whose monotonicity guard is the publish-side half of the staleness
//! contract.
//!
//! Determinism: workers compute pure per-case results; the engine replays
//! the spans (`scenario.case`, `scenario.screen`, `scenario.solve`) in
//! branch order onto one recorder after the sweep, with measured
//! nanoseconds attached as `wall_*` fields that the deterministic export
//! drops. Same-seed sweeps are therefore byte-identical across thread-pool
//! sizes; scheduling noise lives only in `volatile.*` metrics and the
//! non-deterministic half of [`ScenarioReport`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use pgse_contingency::{
    analyze_with, islanding_outages, ratings_from_state, Contingency, CtgResult, DcScreener,
    Limits, ScreenVerdict, Violation,
};
use pgse_grid::Network;
use pgse_obs::{ObsReport, Recorder, ScopeReport};
use pgse_powerflow::PfModel;

use crate::snapshot::{EpochStore, Sequenced, SnapshotStore, SystemSnapshot};
use crate::supervise::KillSchedule;

/// How the engine checks mid-sweep whether its base epoch is still the
/// latest. The production implementation is the [`SnapshotStore`] itself;
/// tests install deterministic fakes.
pub trait EpochWatch: Sync {
    /// The latest published base epoch, or `None` before the first
    /// publish.
    fn latest_epoch(&self) -> Option<u64>;
}

impl EpochWatch for SnapshotStore {
    fn latest_epoch(&self) -> Option<u64> {
        self.current_epoch()
    }
}

/// Configuration of the screening service.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Screening/solve worker threads per sweep.
    pub n_workers: usize,
    /// Operating limits for ratings and the AC limit checks.
    pub limits: Limits,
    /// DC loading fraction (of the emergency rating) at which a screened
    /// case becomes a *suspect* and is escalated to the AC tier.
    pub screen_margin: f64,
    /// Seeded chaos: `(branch, worker)` pairs — worker `worker` dies the
    /// moment it claims the case for that branch outage (once per pair);
    /// the case is requeued and the worker restarts in place.
    pub kills: KillSchedule,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            n_workers: 2,
            limits: Limits::default(),
            screen_margin: 0.9,
            kills: KillSchedule::default(),
        }
    }
}

/// Terminal state of one enumerated outage case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The outage would island the network; no post-outage flow pattern
    /// exists to check (remedial-action modelling is out of scope, as in
    /// \[2\]).
    SkippedIslanding,
    /// Below the screen margin, or AC-confirmed within limits.
    Cleared,
    /// AC-confirmed insecure: diverged or violating limits.
    Violated,
    /// Shed because a newer base epoch superseded the sweep mid-flight.
    ShedStale,
}

impl CaseOutcome {
    /// Stable string form used in spans and JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            CaseOutcome::SkippedIslanding => "skipped_islanding",
            CaseOutcome::Cleared => "cleared",
            CaseOutcome::Violated => "violated",
            CaseOutcome::ShedStale => "shed_stale",
        }
    }
}

/// Everything recorded about one enumerated case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The outaged branch.
    pub branch: usize,
    /// Terminal state.
    pub outcome: CaseOutcome,
    /// Linearized worst post-outage loading from the screen tier (`None`
    /// when the case islanded or was shed before screening).
    pub dc_loading: Option<f64>,
    /// Whether the screen tier escalated the case to AC.
    pub suspect: bool,
    /// The AC result, when the solve tier ran.
    pub ac: Option<CtgResult>,
    /// Measured screen-tier nanoseconds (0 when not screened).
    pub screen_ns: u64,
    /// Measured solve-tier nanoseconds (0 when no AC solve ran).
    pub solve_ns: u64,
}

impl CaseReport {
    /// Total measured case latency.
    fn case_ns(&self) -> u64 {
        self.screen_ns + self.solve_ns
    }
}

/// One AC-confirmed insecure case inside a published product.
#[derive(Debug, Clone, PartialEq)]
pub struct InsecureCase {
    /// The outaged branch.
    pub branch: usize,
    /// Whether the post-outage AC solve converged (divergence is itself a
    /// severe flag).
    pub converged: bool,
    /// The confirmed limit violations.
    pub violations: Vec<Violation>,
}

/// The epoch-stamped violation product published after each completed
/// sweep — the second product stream next to the state snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProduct {
    /// Publication epoch in the scenario store, assigned on publish.
    pub epoch: u64,
    /// The base-case epoch this sweep ran against (the staleness key:
    /// products are strictly monotone in it).
    pub base_epoch: u64,
    /// The measurement frame behind the base case.
    pub base_frame_seq: u64,
    /// AC-confirmed insecure cases, in branch order.
    pub insecure: Vec<InsecureCase>,
}

impl Sequenced for ScenarioProduct {
    fn seq(&self) -> u64 {
        self.base_epoch
    }
    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }
}

/// The violation-product store: same torn-read-free, monotone machinery
/// as the state snapshot store.
pub type ScenarioStore = EpochStore<ScenarioProduct>;

/// The full record of one sweep.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Base-case epoch swept.
    pub base_epoch: u64,
    /// Measurement frame behind the base case.
    pub base_frame_seq: u64,
    /// Branch outages enumerated (== branch count of the network).
    pub enumerated: usize,
    /// Cases terminal as islanding.
    pub skipped_islanding: usize,
    /// Cases that entered the screening pipeline
    /// (`enumerated - skipped_islanding`; tallied independently).
    pub screened: usize,
    /// Screened cases confirmed within limits.
    pub cleared: usize,
    /// Screened cases AC-confirmed insecure.
    pub violated: usize,
    /// Screened cases shed because the sweep was superseded.
    pub shed_stale: usize,
    /// Cases the screen tier escalated to AC.
    pub suspects: usize,
    /// Cases requeued after a scheduled worker kill (non-deterministic
    /// across pool sizes; excluded from the deterministic export).
    pub requeued: usize,
    /// Whether a newer base epoch superseded this sweep mid-flight.
    pub superseded: bool,
    /// Epoch assigned by the scenario store, when the product published.
    pub published_epoch: Option<u64>,
    /// Per-case records, in branch order.
    pub cases: Vec<CaseReport>,
    /// Cases claimed by each worker (both tiers) — the counter-based
    /// balance metric of \[2\].
    pub tasks_per_worker: Vec<usize>,
    /// Busy nanoseconds per worker (both tiers).
    pub busy_ns_per_worker: Vec<u64>,
    /// Wall nanoseconds of the whole sweep.
    pub wall_ns: u64,
    /// The replayed deterministic obs scope (`scenario`).
    pub scope: ScopeReport,
}

impl ScenarioReport {
    /// Both accounting identities, from the report's own tallies.
    pub fn identity_holds(&self) -> bool {
        self.enumerated == self.screened + self.skipped_islanding
            && self.screened == self.cleared + self.violated + self.shed_stale
    }

    /// The sweep's obs trace as a mergeable report.
    pub fn obs_report(&self) -> ObsReport {
        ObsReport::from_scopes(vec![self.scope.clone()])
    }

    /// Worker busy-time imbalance: max over mean (1.0 is perfect).
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self.busy_ns_per_worker.iter().map(|&b| b as f64).sum();
        let mean = total / self.busy_ns_per_worker.len().max(1) as f64;
        let max = self.busy_ns_per_worker.iter().map(|&b| b as f64).fold(0.0f64, f64::max);
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// p99 per-case latency (screen + solve) in nanoseconds over the cases
    /// that actually ran; 0 when nothing ran.
    pub fn p99_case_ns(&self) -> u64 {
        let mut ns: Vec<u64> = self.cases.iter().map(CaseReport::case_ns).filter(|&n| n > 0).collect();
        if ns.is_empty() {
            return 0;
        }
        ns.sort_unstable();
        ns[((ns.len() as f64 * 0.99).ceil() as usize).clamp(1, ns.len()) - 1]
    }

    /// Pretty JSON including the timing/balance half.
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Byte-identical-across-pool-sizes JSON: drops wall times, worker
    /// balance, requeue counts and publication epochs — everything
    /// scheduling-dependent.
    pub fn to_json_deterministic(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, det: bool) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"base_epoch\": {},\n", self.base_epoch));
        s.push_str(&format!("  \"base_frame_seq\": {},\n", self.base_frame_seq));
        s.push_str(&format!("  \"enumerated\": {},\n", self.enumerated));
        s.push_str(&format!("  \"skipped_islanding\": {},\n", self.skipped_islanding));
        s.push_str(&format!("  \"screened\": {},\n", self.screened));
        s.push_str(&format!("  \"cleared\": {},\n", self.cleared));
        s.push_str(&format!("  \"violated\": {},\n", self.violated));
        s.push_str(&format!("  \"shed_stale\": {},\n", self.shed_stale));
        s.push_str(&format!("  \"suspects\": {},\n", self.suspects));
        s.push_str(&format!("  \"superseded\": {},\n", self.superseded));
        if !det {
            s.push_str(&format!("  \"requeued\": {},\n", self.requeued));
            s.push_str(&format!(
                "  \"published_epoch\": {},\n",
                self.published_epoch.map_or("null".to_string(), |e| e.to_string())
            ));
            s.push_str(&format!("  \"tasks_per_worker\": {:?},\n", self.tasks_per_worker));
            s.push_str(&format!("  \"busy_ns_per_worker\": {:?},\n", self.busy_ns_per_worker));
            s.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
            s.push_str(&format!("  \"p99_case_ns\": {},\n", self.p99_case_ns()));
        }
        s.push_str("  \"cases\": [\n");
        for (i, c) in self.cases.iter().enumerate() {
            let loading = c
                .dc_loading
                .map_or("null".to_string(), |l| format!("{l:?}"));
            let mut line = format!(
                "    {{\"branch\": {}, \"outcome\": \"{}\", \"suspect\": {}, \"dc_loading\": {loading}",
                c.branch,
                c.outcome.as_str(),
                c.suspect
            );
            if let Some(ac) = &c.ac {
                line.push_str(&format!(
                    ", \"converged\": {}, \"iterations\": {}, \"violations\": {}",
                    ac.converged,
                    ac.iterations,
                    ac.violations.len()
                ));
            }
            if !det {
                line.push_str(&format!(
                    ", \"screen_ns\": {}, \"solve_ns\": {}",
                    c.screen_ns, c.solve_ns
                ));
            }
            line.push('}');
            if i + 1 < self.cases.len() {
                line.push(',');
            }
            s.push_str(&line);
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Per-phase claim state: a shared counter over the worklist plus a
/// requeue stack for cases lost to killed workers.
struct TaskQueue<'a> {
    items: &'a [usize],
    counter: AtomicUsize,
    requeue: Mutex<Vec<usize>>,
}

impl<'a> TaskQueue<'a> {
    fn new(items: &'a [usize]) -> Self {
        TaskQueue { items, counter: AtomicUsize::new(0), requeue: Mutex::new(Vec::new()) }
    }

    /// Requeued cases first (exactly-once completion under kills), then
    /// the counter-based claim of [2].
    fn claim(&self) -> Option<usize> {
        if let Some(k) = self.requeue.lock().expect("requeue poisoned").pop() {
            return Some(k);
        }
        let i = self.counter.fetch_add(1, Ordering::Relaxed);
        self.items.get(i).copied()
    }

    fn push_back(&self, k: usize) {
        self.requeue.lock().expect("requeue poisoned").push(k);
    }
}

/// `(branch, result, measured_ns)` for every case a worker completed,
/// plus the worker's total busy nanoseconds.
type WorkerRun<T> = (Vec<(usize, T, u64)>, u64);

/// Output of one parallel phase.
struct PhaseRun<T> {
    /// `(branch, result, measured_ns)` for every case that completed.
    done: Vec<(usize, T, u64)>,
    tasks_per_worker: Vec<usize>,
    busy_ns_per_worker: Vec<u64>,
}

/// What a sweep needs of the network alone: the bridge list, the DC
/// screener (`None` when the base network is disconnected) and the Newton
/// model every AC confirmation solves on.
#[derive(Debug)]
struct NetworkModels {
    islanding: Vec<usize>,
    screener: Option<DcScreener>,
    model: PfModel,
}

/// The streaming screening service (see the module docs).
#[derive(Debug)]
pub struct ScenarioEngine {
    net: Network,
    cfg: ScenarioConfig,
    /// Built by the first sweep, not by `new`, so set-up stays cheap;
    /// shared by every sweep after it.
    models: OnceLock<NetworkModels>,
}

impl ScenarioEngine {
    /// An engine for `net` under `cfg`.
    pub fn new(net: Network, cfg: ScenarioConfig) -> Self {
        assert!(cfg.n_workers > 0, "need at least one worker");
        ScenarioEngine { net, cfg, models: OnceLock::new() }
    }

    /// The screened network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Runs one parallel phase over `items`: counter-claimed work with
    /// kill-requeue and staleness checks before every claim.
    #[allow(clippy::too_many_arguments)]
    fn run_phase<T: Send>(
        &self,
        items: &[usize],
        base_epoch: u64,
        watch: &dyn EpochWatch,
        stale: &AtomicBool,
        pending_kills: &Mutex<Vec<(u64, usize)>>,
        requeued: &AtomicUsize,
        work: impl Fn(usize) -> T + Sync,
    ) -> PhaseRun<T> {
        let queue = TaskQueue::new(items);
        let n_workers = self.cfg.n_workers;
        let per_worker: Vec<WorkerRun<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    let queue = &queue;
                    let work = &work;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut busy = 0u64;
                        loop {
                            // Staleness gate: poll the watch before every
                            // claim; once superseded, no worker claims
                            // anything further (sticky flag).
                            if stale.load(Ordering::Relaxed) {
                                break;
                            }
                            if watch.latest_epoch().is_some_and(|e| e > base_epoch) {
                                stale.store(true, Ordering::Relaxed);
                                break;
                            }
                            let Some(k) = queue.claim() else { break };
                            // Scheduled kill: this worker dies holding the
                            // case; the case goes back on the queue and
                            // the worker restarts in place.
                            if fire_kill(pending_kills, k, w) {
                                queue.push_back(k);
                                requeued.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            let t0 = Instant::now();
                            let r = work(k);
                            let ns = t0.elapsed().as_nanos() as u64;
                            busy += ns;
                            out.push((k, r, ns));
                        }
                        (out, busy)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scenario worker panicked")).collect()
        });
        let mut done = Vec::new();
        let mut tasks_per_worker = Vec::with_capacity(n_workers);
        let mut busy_ns_per_worker = Vec::with_capacity(n_workers);
        for (out, busy) in per_worker {
            tasks_per_worker.push(out.len());
            busy_ns_per_worker.push(busy);
            done.extend(out);
        }
        PhaseRun { done, tasks_per_worker, busy_ns_per_worker }
    }

    /// One full sweep of the N-1 list against `base`, watching `watch`
    /// for supersession. Pure with respect to publication — see
    /// [`ScenarioEngine::sweep_and_publish`].
    pub fn sweep(&self, base: &SystemSnapshot, watch: &dyn EpochWatch) -> ScenarioReport {
        let net = &self.net;
        let n = net.n_branches();
        let t_sweep = Instant::now();

        // ---- Gate: deterministic serial prep --------------------------
        let rat = ratings_from_state(net, &base.vm, &base.va, &self.cfg.limits);
        let mut outcome: Vec<Option<CaseOutcome>> = vec![None; n];
        let mut dc_loading: Vec<Option<f64>> = vec![None; n];
        let mut suspect = vec![false; n];
        let mut ac: Vec<Option<CtgResult>> = vec![None; n];
        let mut screen_ns = vec![0u64; n];
        let mut solve_ns = vec![0u64; n];

        let models = self.models.get_or_init(|| NetworkModels {
            islanding: islanding_outages(net),
            screener: DcScreener::new(net, &self.cfg.limits).ok(),
            model: PfModel::new(net),
        });
        for &k in &models.islanding {
            outcome[k] = Some(CaseOutcome::SkippedIslanding);
        }
        if models.screener.is_none() {
            // Base network already disconnected: every surviving case is
            // unscreenable; treat the whole list as islanding.
            for o in &mut outcome {
                o.get_or_insert(CaseOutcome::SkippedIslanding);
            }
        }

        let stale = AtomicBool::new(false);
        let requeued = AtomicUsize::new(0);
        let pending_kills = Mutex::new(self.cfg.kills.worker_kills.clone());
        let mut tasks_per_worker = vec![0usize; self.cfg.n_workers];
        let mut busy_ns_per_worker = vec![0u64; self.cfg.n_workers];

        // ---- Screen tier ----------------------------------------------
        if let Some(scr) = &models.screener {
            let to_screen: Vec<usize> = (0..n).filter(|&k| outcome[k].is_none()).collect();
            let run = self.run_phase(
                &to_screen,
                base.epoch,
                watch,
                &stale,
                &pending_kills,
                &requeued,
                |k| scr.screen_outage(k),
            );
            for (t, r) in tasks_per_worker.iter_mut().zip(&run.tasks_per_worker) {
                *t += r;
            }
            for (b, r) in busy_ns_per_worker.iter_mut().zip(&run.busy_ns_per_worker) {
                *b += r;
            }
            for (k, verdict, ns) in run.done {
                screen_ns[k] = ns;
                match verdict {
                    // Near-singular numerics the bridge pre-filter missed.
                    ScreenVerdict::Islanding => {
                        outcome[k] = Some(CaseOutcome::SkippedIslanding);
                    }
                    ScreenVerdict::Screened(c) => {
                        dc_loading[k] = Some(c.max_loading);
                        if c.max_loading >= self.cfg.screen_margin {
                            suspect[k] = true;
                        } else {
                            outcome[k] = Some(CaseOutcome::Cleared);
                        }
                    }
                }
            }
        }

        // ---- Solve tier: suspects ranked worst-first ------------------
        if !stale.load(Ordering::Relaxed) {
            let mut suspects: Vec<usize> =
                (0..n).filter(|&k| suspect[k] && outcome[k].is_none()).collect();
            suspects.sort_by(|&a, &b| {
                dc_loading[b]
                    .partial_cmp(&dc_loading[a])
                    .expect("screen loadings are finite")
                    .then(a.cmp(&b))
            });
            let run = self.run_phase(
                &suspects,
                base.epoch,
                watch,
                &stale,
                &pending_kills,
                &requeued,
                |k| {
                    analyze_with(
                        &models.model,
                        Contingency::BranchOutage(k),
                        &rat,
                        &self.cfg.limits,
                        Some((&base.vm, &base.va)),
                    )
                },
            );
            for (t, r) in tasks_per_worker.iter_mut().zip(&run.tasks_per_worker) {
                *t += r;
            }
            for (b, r) in busy_ns_per_worker.iter_mut().zip(&run.busy_ns_per_worker) {
                *b += r;
            }
            for (k, result, ns) in run.done {
                solve_ns[k] = ns;
                outcome[k] = Some(if result.is_insecure() {
                    CaseOutcome::Violated
                } else {
                    CaseOutcome::Cleared
                });
                ac[k] = Some(result);
            }
        }

        // ---- Shed + tally ---------------------------------------------
        let superseded = stale.load(Ordering::Relaxed);
        let cases: Vec<CaseReport> = (0..n)
            .map(|k| CaseReport {
                branch: k,
                outcome: outcome[k].unwrap_or(CaseOutcome::ShedStale),
                dc_loading: dc_loading[k],
                suspect: suspect[k],
                ac: ac[k].take(),
                screen_ns: screen_ns[k],
                solve_ns: solve_ns[k],
            })
            .collect();
        let wall_ns = t_sweep.elapsed().as_nanos() as u64;

        let count =
            |o: CaseOutcome| cases.iter().filter(|c| c.outcome == o).count();
        let skipped_islanding = count(CaseOutcome::SkippedIslanding);
        let report = ScenarioReport {
            base_epoch: base.epoch,
            base_frame_seq: base.frame_seq,
            enumerated: n,
            skipped_islanding,
            screened: n - skipped_islanding,
            cleared: count(CaseOutcome::Cleared),
            violated: count(CaseOutcome::Violated),
            shed_stale: count(CaseOutcome::ShedStale),
            suspects: cases.iter().filter(|c| c.suspect).count(),
            requeued: requeued.load(Ordering::Relaxed),
            superseded,
            published_epoch: None,
            scope: replay_scope(base, &cases, &tasks_per_worker, &busy_ns_per_worker, &requeued, wall_ns),
            cases,
            tasks_per_worker,
            busy_ns_per_worker,
            wall_ns,
        };
        debug_assert!(report.identity_holds());
        report
    }

    /// Sweeps and, unless superseded, publishes the violation product into
    /// `out`. The store's monotonicity guard independently refuses any
    /// publish against a base epoch at or behind the last published one.
    pub fn sweep_and_publish(
        &self,
        base: &SystemSnapshot,
        watch: &dyn EpochWatch,
        out: &ScenarioStore,
    ) -> ScenarioReport {
        let mut report = self.sweep(base, watch);
        if !report.superseded {
            let insecure: Vec<InsecureCase> = report
                .cases
                .iter()
                .filter(|c| c.outcome == CaseOutcome::Violated)
                .map(|c| {
                    let ac = c.ac.as_ref().expect("violated cases carry an AC result");
                    InsecureCase {
                        branch: c.branch,
                        converged: ac.converged,
                        violations: ac.violations.clone(),
                    }
                })
                .collect();
            let product = ScenarioProduct {
                epoch: u64::MAX, // stamped by the store
                base_epoch: report.base_epoch,
                base_frame_seq: report.base_frame_seq,
                insecure,
            };
            report.published_epoch = out.publish(product).ok();
        }
        report
    }

    /// Subscribe loop: sweeps each newly published base epoch in `store`
    /// (which doubles as the staleness watch) and publishes products into
    /// `out`, until `n_sweeps` sweeps have run.
    pub fn run(
        &self,
        store: &SnapshotStore,
        out: &ScenarioStore,
        n_sweeps: usize,
    ) -> Vec<ScenarioReport> {
        let mut reports = Vec::with_capacity(n_sweeps);
        let mut last = None;
        while reports.len() < n_sweeps {
            let Some(snap) = store.load() else {
                std::thread::yield_now();
                continue;
            };
            if last == Some(snap.epoch) {
                std::thread::yield_now();
                continue;
            }
            last = Some(snap.epoch);
            reports.push(self.sweep_and_publish(&snap, store, out));
        }
        reports
    }
}

/// Consumes a scheduled `(branch, worker)` kill if one is pending.
fn fire_kill(pending: &Mutex<Vec<(u64, usize)>>, branch: usize, worker: usize) -> bool {
    let mut p = pending.lock().expect("kill schedule poisoned");
    if let Some(pos) = p.iter().position(|&(b, w)| b == branch as u64 && w == worker) {
        p.swap_remove(pos);
        true
    } else {
        false
    }
}

/// Replays the sweep onto one recorder in deterministic (branch) order:
/// span sequence and every non-`wall_*` field depend only on the case
/// results, never on scheduling. Measured nanoseconds ride along as
/// `wall_*` span fields and `volatile.*` counters, both dropped by the
/// deterministic export.
fn replay_scope(
    base: &SystemSnapshot,
    cases: &[CaseReport],
    tasks_per_worker: &[usize],
    busy_ns_per_worker: &[u64],
    requeued: &AtomicUsize,
    wall_ns: u64,
) -> ScopeReport {
    let rec = Recorder::new("scenario");
    {
        let mut sweep = rec.span_at("scenario.sweep", base.epoch);
        sweep.record("base_frame_seq", base.frame_seq);
        sweep.record("wall_ns", wall_ns);
    }
    for c in cases {
        {
            let mut sp = rec.span_at("scenario.case", c.branch as u64);
            sp.record("outcome", c.outcome.as_str());
            sp.record("suspect", c.suspect);
            sp.record("wall_ns", c.case_ns());
        }
        if c.screen_ns > 0 || c.dc_loading.is_some() {
            let mut sp = rec.span_at("scenario.screen", c.branch as u64);
            if let Some(l) = c.dc_loading {
                sp.record("loading", l);
            }
            sp.record("wall_ns", c.screen_ns);
        }
        if let Some(ac) = &c.ac {
            let mut sp = rec.span_at("scenario.solve", c.branch as u64);
            sp.record("converged", ac.converged);
            sp.record("iterations", ac.iterations);
            sp.record("violations", ac.violations.len());
            sp.record("wall_ns", c.solve_ns);
        }
        rec.counter_add(&format!("scenario.{}", c.outcome.as_str()), 1);
    }
    rec.counter_add("scenario.enumerated", cases.len() as u64);
    rec.counter_add(
        "scenario.screened",
        cases.iter().filter(|c| c.outcome != CaseOutcome::SkippedIslanding).count() as u64,
    );
    rec.counter_add(
        "scenario.suspects",
        cases.iter().filter(|c| c.suspect).count() as u64,
    );
    // Scheduling-dependent data: volatile namespace only.
    rec.counter_add("volatile.scenario.requeued", requeued.load(Ordering::Relaxed) as u64);
    for (w, (&t, &b)) in tasks_per_worker.iter().zip(busy_ns_per_worker).enumerate() {
        rec.counter_add(&format!("volatile.scenario.tasks.worker{w}"), t as u64);
        rec.counter_add(&format!("volatile.scenario.busy_ns.worker{w}"), b);
    }
    rec.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_grid::cases::ieee14;
    use pgse_powerflow::{solve, PfOptions};

    fn base_snapshot(net: &Network, epoch: u64) -> SystemSnapshot {
        let sol = solve(net, &PfOptions::default()).unwrap();
        SystemSnapshot {
            epoch,
            frame_seq: epoch + 1,
            dt_seconds: 0.0,
            vm: sol.vm,
            va: sol.va,
            degraded_areas: Vec::new(),
        }
    }

    /// A watch that never supersedes.
    struct Never;
    impl EpochWatch for Never {
        fn latest_epoch(&self) -> Option<u64> {
            None
        }
    }

    #[test]
    fn healthy_sweep_closes_identity_and_covers_all_branches() {
        let net = ieee14();
        let base = base_snapshot(&net, 0);
        let engine = ScenarioEngine::new(net.clone(), ScenarioConfig::default());
        let r = engine.sweep(&base, &Never);
        assert!(r.identity_holds(), "{r:?}");
        assert_eq!(r.enumerated, net.n_branches());
        assert_eq!(r.shed_stale, 0);
        assert!(!r.superseded);
        assert!(r.skipped_islanding >= 1, "ieee14 has islanding outages");
        assert_eq!(r.cases.len(), net.n_branches());
    }

    #[test]
    fn tight_margin_escalates_and_finds_violations() {
        let net = ieee14();
        let base = base_snapshot(&net, 0);
        let cfg = ScenarioConfig {
            limits: Limits { rating_factor: 1.05, rating_floor: 0.01, ..Limits::default() },
            screen_margin: 0.5,
            ..ScenarioConfig::default()
        };
        let engine = ScenarioEngine::new(net, cfg);
        let r = engine.sweep(&base, &Never);
        assert!(r.identity_holds());
        assert!(r.suspects > 0, "tight margin must escalate cases");
        assert!(r.violated > 0, "tight ratings must confirm violations");
        // Every violated case carries its AC evidence.
        for c in &r.cases {
            if c.outcome == CaseOutcome::Violated {
                assert!(c.ac.is_some());
                assert!(c.suspect);
            }
        }
    }

    #[test]
    fn product_publishes_and_is_monotone_in_base_epoch() {
        let net = ieee14();
        let engine = ScenarioEngine::new(net.clone(), ScenarioConfig::default());
        let out = ScenarioStore::new();
        let r0 = engine.sweep_and_publish(&base_snapshot(&net, 0), &Never, &out);
        assert_eq!(r0.published_epoch, Some(0));
        let prod = out.load().unwrap();
        assert_eq!(prod.base_epoch, 0);
        // A second sweep against the same base epoch is refused by the
        // store's monotonicity guard.
        let r_dup = engine.sweep_and_publish(&base_snapshot(&net, 0), &Never, &out);
        assert_eq!(r_dup.published_epoch, None);
        let r1 = engine.sweep_and_publish(&base_snapshot(&net, 1), &Never, &out);
        assert_eq!(r1.published_epoch, Some(1));
        assert_eq!(out.load().unwrap().base_epoch, 1);
    }
}
