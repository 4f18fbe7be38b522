//! The solve layer and the service shell: ingest → solve → serve.
//!
//! [`StreamService`] is the paper's architecture run *continuously*: a
//! feeder (standing in for substation data concentrators) ships sequenced
//! measurement frames per area over `pgse-medici` endpoints; per-area
//! listener threads decode them into bounded [`IngestQueue`]s; the solve
//! loop runs one DSE round per iteration on **warm-started,
//! structure-cached WLS** (each area's [`AreaSlot`]) and publishes each
//! aggregated system state into the lock-free [`SnapshotStore`]. The
//! steps of a round, in order and by method name, are DESIGN.md §9
//! ("Anatomy of a round").
//!
//! Two pacing modes:
//!
//! * **lockstep** — the feeder waits for each frame's snapshot before
//!   sending the next. Every frame is solved; the accounting identity
//!   `ingested == solved + shed` closes with `shed == 0` on a healthy
//!   network. This is the deterministic mode the tests pin.
//! * **free-run** — the feeder paces itself (or not at all). When the
//!   field outpaces the solver, the ingest layer sheds stale/superseded
//!   frames explicitly and the identity still closes, now with a
//!   non-trivial shed count.
//!
//! Chaos: when a [`FaultPlan`] is configured, each area's feed runs
//! through a `medici::faults` proxy that drops, truncates, delays, and
//! duplicates frames. Truncated frames fail wire decoding and are counted
//! `corrupt`; duplicates and late frames are shed `stale`; missing frames
//! degrade their area for the round (the previous scan's solution is
//! carried) without stalling the pipeline.
//!
//! Supervision (DESIGN.md §11): at deploy time the areas are mapped onto
//! [`supervise::N_CLUSTERS`] HPC clusters by partitioning the
//! decomposition graph. Each round closes on a [`Watchdog`]: a dead worker
//! restarts from its latest [`supervise::AreaCheckpoint`], and a cluster
//! whose every worker died is failed over to the survivors
//! ([`pgse_partition::repartition_shrink`],
//! [`pgse_cluster::plan_redistribution`]) with the snapshot epoch strictly
//! monotone across the handoff. Solve panics (injectable via
//! [`KillSchedule::panics`]) are contained per area and surface as a
//! degraded round plus a restart, never as a service crash. A frame popped
//! by a worker that died before solving it is requeued, widening the
//! accounting identity to `ingested + requeued == solved + shed`.
//!
//! Robust estimation and live topology (DESIGN.md §15): a seeded
//! [`ScanFaultPlan`] corrupts scans before they are framed. Every scan is
//! placed on its area's fixed measurement layout
//! ([`AreaEstimator::place_scan`]), so a frame's patterns change only at
//! an islanding transition; a chi-square gate ([`BadDataGate`]) and the
//! LNR loop reject gross errors
//! (`suspect_frames == cleared_by_lnr + degraded_unidentifiable`), and
//! [`pgse_estimation::restoration`] repairs shortened scans.
//! [`SwitchingEvent`]s make topology a versioned per-frame input: a switch
//! that islands nothing re-values the estimator bank
//! ([`AreaEstimator::with_branch_status`]) and keeps every cache; one that
//! islands buses merges them onto adjacent areas and re-deploys. Both are
//! resolved at deploy time.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pgse_cluster::{plan_redistribution, FleetLiveness};
use pgse_dse::decomposition::decompose;
use pgse_dse::runner::aggregate;
use pgse_dse::{
    AreaEstimator, AreaSlot, AreaSolution, Decomposition, DecompositionOptions, PseudoMeasurement,
};
use pgse_estimation::baddata::BadDataReport;
use pgse_estimation::measurement::{MeasurementKind, MeasurementSet};
use pgse_estimation::synthetic::NoiseProcess;
use pgse_estimation::wls::{GnWave, StateEstimate, WlsError, WlsOptions};
use pgse_estimation::{baddata, restoration};
use pgse_grid::Network;
use pgse_medici::{
    Arrival, EndpointRegistry, FaultKind, FaultPlan, FaultProxy, FaultProxyHandle, FaultStats,
    Inbox, MwClient, MwError, ScanFault, ScanFaultPlan,
};
use pgse_obs::{ObsReport, Recorder, ScopeReport, SpanGuard};
use pgse_partition::weights::initial_graph;
use pgse_partition::{
    partition_kway, repartition_shrink, KwayOptions, Partition, RepartitionOptions, WeightedGraph,
};
use pgse_powerflow::{solve as solve_pf, PfError, PfOptions, PfSolution};
use pgse_sparsela::{solve_group, BatchPlan, CholSymbolic, Csr, PatternGroup};
use rayon::prelude::*;

use crate::ingest::{IngestQueue, IngestStats};
use crate::snapshot::{SnapshotStore, SystemSnapshot};
use crate::supervise::{
    self, CheckpointStore, KillSchedule, SupervisionEvent, Watchdog, WorkerHealth,
};
use crate::wire::{self, StreamFrame, TopologyEvent};

/// Idle poll of the ingest threads: how long one wait on an area's inbox
/// lasts before the stop flag is checked again.
const RECV_POLL: Duration = Duration::from_millis(25);

/// How long a partly received ingest frame may go without progress
/// before it counts as corrupt.
const FRAME_READ_DEADLINE: Duration = Duration::from_secs(1);

/// Model-time spacing between frames in seconds (the noise process' `δt`
/// step): a SCADA scan cadence.
const FRAME_INTERVAL_SECS: f64 = 4.0;

/// How long one solver sweep waits on an empty area queue.
const POP_DEADLINE: Duration = Duration::from_millis(50);

/// Post-WLS bad-data gate configuration: after every fresh Step-1 solve
/// the weighted objective is tested against the chi-square critical value,
/// and frames that fire run the LNR loop
/// ([`pgse_estimation::baddata::identify_cached`]).
pub use pgse_estimation::baddata::BadDataGate;

/// One breaker/switch operation applied to the grid mid-stream.
///
/// All events sharing an `at_seq` form one topology *stage boundary*: the
/// feeder stamps frames from `at_seq` on with the next topology version
/// (PGSF v2), and the solver transitions its estimator bank when the
/// version first reaches it. Ingest counts a frame whose version names no
/// stage as corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchingEvent {
    /// Frame sequence at which the new topology takes effect (must be
    /// ≥ 1; frame 0 always runs the deploy-time base topology).
    pub at_seq: u64,
    /// Branch index in the *base* network.
    pub branch: usize,
    /// `true` closes the breaker, `false` opens it.
    pub close: bool,
}

/// One bad-data identification event: which measurements the LNR loop
/// rejected from which area's frame. Tests equate `removed` with the
/// seeded injection ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadDataEvent {
    /// Frame sequence of the suspect scan.
    pub seq: u64,
    /// Area whose gate fired.
    pub area: usize,
    /// Rows of the area's measurement layout the LNR loop deactivated, in
    /// rejection order. The layout's first `scan_len` rows are the full
    /// scan, so for a full-length scan these are scan indices.
    pub removed: Vec<usize>,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Frames the feeder emits per area.
    pub n_frames: u64,
    /// Lockstep (deterministic) vs free-run pacing; see the module docs.
    pub lockstep: bool,
    /// How long the lockstep feeder waits for a frame's snapshot before
    /// moving on anyway (liveness bound under chaos).
    pub lockstep_timeout: Duration,
    /// Wall-clock gap between frames in free-run mode (zero = flat out).
    pub pacing: Duration,
    /// Warm path: reuse symbolic structures and warm starts across frames.
    /// `false` solves every frame cold — the comparison baseline: the same
    /// solve path with every cache cleared at the top of each round.
    pub warm: bool,
    /// Base seed; telemetry and Step-2 noise derive from it per frame.
    pub seed: u64,
    /// Bounded depth of each area's ingest queue.
    pub queue_capacity: usize,
    /// When set, every area's feed passes through a fault proxy running
    /// this plan (per-area seeds are derived from `plan.seed`).
    pub chaos: Option<FaultPlan>,
    /// Seeded fault schedule: worker kills, cluster kills, injected solve
    /// panics — all keyed by frame sequence, so exactly reproducible.
    pub kills: KillSchedule,
    /// Deterministic round structure (lockstep only): before each round
    /// the solver waits (bounded by `lockstep_timeout`) until every
    /// area's queue has accepted the next expected frame, so the same
    /// seed and kill schedule always produce the same round/shed/recovery
    /// counts — and a byte-identical deterministic ObsReport. Off by
    /// default: free-running pops are faster but timing-sensitive.
    pub deterministic_rounds: bool,
    /// Post-WLS chi-square + LNR bad-data gate; `None` trusts every scan.
    pub baddata: Option<BadDataGate>,
    /// Seeded measurement-level fault injection (gross errors, RTU
    /// outages) applied by the feeder before framing; `None` feeds clean
    /// scans. The plan is a pure function of `(area, seq)`, so tests
    /// re-derive the injected ground truth independently of the run.
    pub scan_faults: Option<ScanFaultPlan>,
    /// Observability restoration for shortened scans: when a frame
    /// arrives with fewer measurements than the area's telemetry plan,
    /// check observability and repair with weak pseudo measurements from
    /// the last good estimate before solving.
    pub restoration: bool,
    /// Breaker/switch schedule making topology a versioned per-frame
    /// input; empty runs the deploy-time topology throughout.
    pub switching: Vec<SwitchingEvent>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            n_frames: 16,
            lockstep: true,
            lockstep_timeout: Duration::from_secs(5),
            pacing: Duration::ZERO,
            warm: true,
            seed: 0,
            queue_capacity: 8,
            chaos: None,
            kills: KillSchedule::default(),
            deterministic_rounds: false,
            baddata: None,
            scan_faults: None,
            restoration: true,
            switching: Vec::new(),
        }
    }
}

/// Why the service failed to deploy.
#[derive(Debug)]
pub enum StreamError {
    /// The ground-truth power flow did not converge.
    PowerFlow(PfError),
    /// An endpoint bind or proxy deployment failed.
    Middleware(MwError),
    /// The switching schedule is invalid (branch out of range, a stage
    /// that islands the whole grid, or a stage power flow that diverges).
    Topology(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::PowerFlow(e) => write!(f, "ground-truth power flow failed: {e}"),
            StreamError::Middleware(e) => write!(f, "middleware deployment failed: {e}"),
            StreamError::Topology(e) => write!(f, "invalid switching schedule: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// What one [`StreamService::run`] did, with the full shed accounting.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Frames the feeder successfully handed to the middleware.
    pub frames_fed: u64,
    /// Frames the feeder could not send at all.
    pub send_failures: u64,
    /// Solve rounds executed.
    pub rounds: u64,
    /// Snapshots published (one per solved frame).
    pub frames_published: u64,
    /// Publishes the store rejected as stale (monotonicity guard).
    pub publish_rejected: u64,
    /// Rounds that solved but could not publish because some area had
    /// never delivered a scan yet.
    pub rounds_unpublishable: u64,
    /// Per-area frames taken off the queues and fed into a solve.
    pub area_frames_solved: u64,
    /// Sum over rounds of areas running degraded (no fresh scan, or a scan
    /// neither step could solve).
    pub degraded_area_rounds: u64,
    /// Per-area solves that failed (the area carried its last solution),
    /// counting scans that do not place on the area's layout.
    pub solve_errors: u64,
    /// Frames offered to the ingest queues (accepted or shed).
    pub ingested: u64,
    /// Frames shed as stale (duplicate / out-of-order).
    pub shed_stale: u64,
    /// Frames shed by bounded-queue eviction.
    pub shed_overflow: u64,
    /// Frames shed because a fresher frame superseded them.
    pub shed_superseded: u64,
    /// Wire buffers that failed to decode (never ingested).
    pub corrupt: u64,
    /// Faults the chaos proxies injected (0 without chaos).
    pub faults_injected: u64,
    /// Gauss–Newton iterations across all area solves (both steps).
    pub gn_iterations: u64,
    /// Wall time spent inside solve rounds.
    pub solve_nanos: u64,
    /// Symbolic structures built (first frame / topology change).
    pub symbolic_builds: u64,
    /// Solves that reused cached symbolic structures.
    pub symbolic_reuses: u64,
    /// Solves warm-started from the previous frame's state.
    pub warm_solves: u64,
    /// Gain solves that refreshed a cached numeric factorization in place
    /// (direct solver, unchanged sparsity pattern).
    pub refactor_reuse: u64,
    /// Gain solves that ran a full analysis + factorization (the first
    /// one after a structure build, or a pattern change).
    pub refactor_full: u64,
    /// Step-1 gain systems dispatched through the round-level batch plan.
    pub gain_solves: u64,
    /// Dispatched gain systems solved inside a pattern-grouped batched
    /// factorization. `batched_lanes + scalar_fallbacks == gain_solves`.
    pub batched_lanes: u64,
    /// Pattern groups batch-factored, summed over all rounds and waves.
    pub batch_groups: u64,
    /// Dispatched gain systems that fell back to the scalar solver (odd
    /// pattern, under-filled group, or a failed batched attempt).
    pub scalar_fallbacks: u64,
    /// Worker revives that kept their symbolic analyses because the
    /// checkpointed [`pgse_estimation::wls::StructureDescriptor`] matched
    /// the live cache's.
    pub restart_symbolic_retained: u64,
    /// Frames requeued by the supervisor after their worker died between
    /// popping and solving (each re-enters the solve/shed accounting).
    pub requeued: u64,
    /// Solve-closure panics contained by the per-area `catch_unwind`.
    pub worker_panics: u64,
    /// Heartbeats the watchdog accepted.
    pub heartbeats: u64,
    /// Workers the watchdog marked suspect.
    pub suspected: u64,
    /// Workers the watchdog declared dead.
    pub workers_declared_dead: u64,
    /// Worker restarts (in place and via failover re-hosting).
    pub workers_restarted: u64,
    /// Clusters declared lost (every hosted worker dead at once).
    pub cluster_deaths: u64,
    /// Areas re-hosted onto surviving clusters by failover.
    pub areas_rehosted: u64,
    /// Checkpoint bytes shipped by failover redistribution plans.
    pub failover_bytes: u64,
    /// Checkpoints saved over the run.
    pub checkpoints_saved: u64,
    /// Restarts that restored a checkpoint (warm recovery).
    pub checkpoints_restored: u64,
    /// Restarts that found no checkpoint and came up cold.
    pub cold_restarts: u64,
    /// Gross measurement errors the feeder injected (scan-fault plan).
    pub gross_injected: u64,
    /// RTU outages the feeder injected (scan-fault plan).
    pub rtu_outages: u64,
    /// Measurements shed from scans by injected RTU outages.
    pub rtu_shed_measurements: u64,
    /// Fresh Step-1 frames whose chi-square gate fired. Closes exactly:
    /// `suspect_frames == cleared_by_lnr + degraded_unidentifiable`.
    pub suspect_frames: u64,
    /// Suspect frames the LNR loop ended chi-square clean.
    pub cleared_by_lnr: u64,
    /// Suspect frames the LNR loop could not clean (critical/unidentifiable
    /// error); the area carried its last good solution for the round.
    pub degraded_unidentifiable: u64,
    /// Measurements the LNR loop rejected across all cleared frames.
    pub bad_data_removed: u64,
    /// Per-event removal record `(seq, area, removed indices)` — compared
    /// against the seeded injection ground truth by the conformance tests.
    pub bad_data_events: Vec<BadDataEvent>,
    /// Shortened scans repaired by observability restoration.
    pub frames_restored: u64,
    /// Pseudo measurements restoration asked for across all restored
    /// frames (each activates a row of the area's pseudo superset).
    pub pseudo_added: u64,
    /// Shortened scans that were still observable without repair.
    pub short_scan_observable: u64,
    /// Scans unobservable even after restoration: the area degraded to its
    /// carried (checkpoint) profile instead of publishing garbage.
    pub unobservable_degraded: u64,
    /// Topology stage boundaries the solver crossed mid-stream.
    pub topology_transitions: u64,
    /// Areas re-deployed cold by islanding transitions (every area, per
    /// such transition); a switch that islands nothing rebuilds none.
    pub symbolic_rebuilds: u64,
    /// Frames popped whose topology version lagged the round's (dropped
    /// from the round; their area ran degraded).
    pub topology_version_skew: u64,
    /// Per-area symbolic builds over the whole run (Step-1 + Step-2, the
    /// caches retired by restarts and re-deploys included) — how tests pin
    /// that a non-islanding switch re-ran no symbolic analysis anywhere.
    pub area_symbolic_builds: Vec<u64>,
    /// Everything the supervision layer observed or did, in round order.
    pub events: Vec<SupervisionEvent>,
    /// Epoch of the last published snapshot.
    pub last_epoch: Option<u64>,
    /// Median ingest→publish frame latency (milliseconds), read from the
    /// `volatile.stream.frame_latency_ms` histogram: an upper bound at most
    /// 10 % above the exact sample median.
    pub latency_p50_ms: f64,
    /// 99th-percentile ingest→publish frame latency (milliseconds), read
    /// from the same histogram: an upper bound at most 10 % above the
    /// exact sample percentile.
    pub latency_p99_ms: f64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
}

impl StreamReport {
    /// Total shed frames.
    pub fn shed(&self) -> u64 {
        self.shed_stale + self.shed_overflow + self.shed_superseded
    }

    /// `(ingested + requeued) − (solved + shed)`: zero when every frame —
    /// including frames a dying worker put back — is accounted. Collapses
    /// to `ingested − (solved + shed)` when no worker ever died mid-frame.
    pub fn unaccounted(&self) -> i64 {
        (self.ingested + self.requeued) as i64 - (self.area_frames_solved + self.shed()) as i64
    }

    /// Published snapshots per wall-clock second.
    pub fn frames_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 { 0.0 } else { self.frames_published as f64 / secs }
    }
}

/// Where one [`StreamReport`] count is kept. Each count has exactly one
/// book; a recorder book is written where the event happens.
#[derive(Clone, Copy)]
enum Book {
    /// A counter of the service's `stream` recorder.
    Stream,
    /// A counter of the `stream.supervise` recorder.
    Supervise,
    /// A counter every `stream.area{a}` recorder keeps — the area's WLS
    /// solve-cache tallies, across restarts and re-deploys — summed.
    Areas(&'static str),
    /// A tally of the ingest queues, summed over the areas.
    Queues(fn(&IngestStats) -> u64),
    /// Faults the chaos proxies injected.
    Proxies,
}

/// A [`StreamReport`] count field.
type Field = fn(&mut StreamReport) -> &mut u64;

/// The ledger's name table: every count field of [`StreamReport`], its
/// obs counter and its book. `failover.*` counters live in the
/// `stream.supervise` scope, the rest in `stream`, where
/// [`StreamService::obs_report`] also shows the books that are not
/// recorders. The report reads every count back from that export, so the
/// two cannot disagree. Wall-clock values and counts the seed does not
/// determine are `volatile.`.
const LEDGER: &[(&str, Book, Field)] = &[
    ("stream.fed", Book::Stream, |r| &mut r.frames_fed),
    ("stream.send_failures", Book::Stream, |r| &mut r.send_failures),
    ("stream.rounds", Book::Stream, |r| &mut r.rounds),
    ("stream.published", Book::Stream, |r| &mut r.frames_published),
    ("stream.publish.rejected", Book::Stream, |r| &mut r.publish_rejected),
    ("stream.unpublishable", Book::Stream, |r| &mut r.rounds_unpublishable),
    ("stream.solved", Book::Stream, |r| &mut r.area_frames_solved),
    ("stream.degraded", Book::Stream, |r| &mut r.degraded_area_rounds),
    ("stream.solve_errors", Book::Stream, |r| &mut r.solve_errors),
    ("stream.ingested", Book::Queues(|q| q.ingested), |r| &mut r.ingested),
    ("stream.shed.stale", Book::Queues(|q| q.shed_stale), |r| &mut r.shed_stale),
    ("stream.shed.overflow", Book::Queues(|q| q.shed_overflow), |r| &mut r.shed_overflow),
    ("stream.shed.superseded", Book::Queues(|q| q.shed_superseded), |r| &mut r.shed_superseded),
    ("stream.requeued", Book::Queues(|q| q.requeued), |r| &mut r.requeued),
    ("stream.corrupt", Book::Stream, |r| &mut r.corrupt),
    ("stream.faults.injected", Book::Proxies, |r| &mut r.faults_injected),
    ("stream.gn_iterations", Book::Stream, |r| &mut r.gn_iterations),
    ("volatile.stream.solve_nanos", Book::Stream, |r| &mut r.solve_nanos),
    ("stream.symbolic_builds", Book::Areas("wls.symbolic.build"), |r| &mut r.symbolic_builds),
    ("stream.symbolic_reuses", Book::Areas("wls.symbolic.reuse"), |r| &mut r.symbolic_reuses),
    ("stream.warm_solves", Book::Areas("wls.warm_starts"), |r| &mut r.warm_solves),
    ("stream.refactor_reuse", Book::Areas("wls.refactor.reuse"), |r| &mut r.refactor_reuse),
    ("stream.refactor_full", Book::Areas("wls.refactor.full"), |r| &mut r.refactor_full),
    ("stream.gain_solves", Book::Stream, |r| &mut r.gain_solves),
    ("stream.batched_lanes", Book::Stream, |r| &mut r.batched_lanes),
    ("stream.batch_groups", Book::Stream, |r| &mut r.batch_groups),
    ("stream.scalar_fallbacks", Book::Stream, |r| &mut r.scalar_fallbacks),
    ("stream.worker_panics", Book::Stream, |r| &mut r.worker_panics),
    ("stream.faults.gross", Book::Stream, |r| &mut r.gross_injected),
    ("stream.faults.rtu", Book::Stream, |r| &mut r.rtu_outages),
    ("stream.faults.rtu_shed", Book::Stream, |r| &mut r.rtu_shed_measurements),
    ("stream.baddata.suspect", Book::Stream, |r| &mut r.suspect_frames),
    ("stream.baddata.cleared", Book::Stream, |r| &mut r.cleared_by_lnr),
    ("stream.baddata.unidentifiable", Book::Stream, |r| &mut r.degraded_unidentifiable),
    ("stream.baddata.removed", Book::Stream, |r| &mut r.bad_data_removed),
    ("stream.restore.frames", Book::Stream, |r| &mut r.frames_restored),
    ("stream.restore.pseudo", Book::Stream, |r| &mut r.pseudo_added),
    ("stream.restore.observable", Book::Stream, |r| &mut r.short_scan_observable),
    ("stream.restore.unobservable", Book::Stream, |r| &mut r.unobservable_degraded),
    ("stream.topology.transitions", Book::Stream, |r| &mut r.topology_transitions),
    ("stream.topology.symbolic_rebuilds", Book::Stream, |r| &mut r.symbolic_rebuilds),
    ("stream.topology.version_skew", Book::Stream, |r| &mut r.topology_version_skew),
    ("volatile.failover.heartbeats", Book::Supervise, |r| &mut r.heartbeats),
    ("failover.suspected", Book::Supervise, |r| &mut r.suspected),
    ("failover.dead", Book::Supervise, |r| &mut r.workers_declared_dead),
    ("failover.restarts", Book::Supervise, |r| &mut r.workers_restarted),
    ("failover.cluster_deaths", Book::Supervise, |r| &mut r.cluster_deaths),
    ("failover.migrations", Book::Supervise, |r| &mut r.areas_rehosted),
    ("failover.bytes", Book::Supervise, |r| &mut r.failover_bytes),
    ("failover.checkpoints", Book::Supervise, |r| &mut r.checkpoints_saved),
    ("failover.restores", Book::Supervise, |r| &mut r.checkpoints_restored),
    ("failover.cold_restarts", Book::Supervise, |r| &mut r.cold_restarts),
    ("failover.symbolic_retained", Book::Supervise, |r| &mut r.restart_symbolic_retained),
];

/// The continuous state-estimation service.
pub struct StreamService {
    cfg: StreamConfig,
    /// Topology stages in frame order; stage 0 is the deploy bank, and a
    /// frame's `topology_version` indexes this list.
    stages: Vec<TopologyStage>,
    registry: EndpointRegistry,
    queues: Vec<IngestQueue>,
    listeners: Vec<TcpListener>,
    feed_urls: Vec<String>,
    proxies: Vec<FaultProxyHandle>,
    store: SnapshotStore,
    rec: Recorder,
    area_recs: Vec<Recorder>,
    sup_rec: Recorder,
    /// The feeder's middleware trace: its `mw.send` span totals and its
    /// `mw.connects` dials (no retained spans — one per send would be a
    /// full ring of memory).
    feed_rec: Recorder,
    /// Weighted decomposition graph (areas = vertices, tie groups =
    /// edges) — what failover repartitions when a cluster dies.
    graph: WeightedGraph,
    /// Initial area → cluster mapping (seeded k-way partition).
    assignment: Vec<usize>,
    n_clusters: usize,
    /// Telemetry noise schedule: one instance for feeder and solver.
    noise: NoiseProcess,
}

/// One topology stage: the decomposition and estimator bank that solve
/// frames from `start_seq` on.
struct TopologyStage {
    /// First frame sequence solved on this topology.
    start_seq: u64,
    /// The boundary's breaker events, in wire form (stamped onto the
    /// first frame of the stage).
    events: Vec<TopologyEvent>,
    decomp: Decomposition,
    estimators: Vec<AreaEstimator>,
    /// Orphan bus components the boundary cut off their areas and
    /// re-homed. A stage with none is the previous bank re-valued; one
    /// with any is a re-deploy.
    islanding_events: u64,
}

impl StreamService {
    /// Builds the service for `net`: solves the ground-truth operating
    /// point, decomposes, constructs per-area estimators, binds one ingest
    /// endpoint per area, and (with chaos configured) interposes a fault
    /// proxy on every feed.
    ///
    /// # Errors
    /// [`StreamError`] when the power flow diverges or an endpoint fails
    /// to deploy.
    pub fn deploy(net: &Network, cfg: StreamConfig) -> Result<StreamService, StreamError> {
        // Resolve the switching schedule into topology stages up front:
        // orphan searches, merges, stage power flows and estimator banks
        // are all deploy-time work, so the mid-stream transition itself is
        // bounded to one round.
        let stages = topology_stages(net, &cfg)?;
        let decomp = &stages[0].decomp;

        let registry = EndpointRegistry::new();
        let n = decomp.areas.len();
        let mut queues = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        let mut feed_urls = Vec::with_capacity(n);
        let mut proxies = Vec::new();
        for a in 0..n {
            let ingest_url = format!("tcp://ingest-area{a}.pgse:{}", 7100 + a);
            listeners.push(registry.bind(&ingest_url).map_err(StreamError::Middleware)?);
            queues.push(IngestQueue::new(cfg.queue_capacity));
            if let Some(plan) = cfg.chaos {
                let public = format!("tcp://feed-area{a}.pgse:{}", 7300 + a);
                let per_area = FaultPlan {
                    seed: plan.seed ^ (a as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    ..plan
                };
                proxies.push(
                    FaultProxy::deploy(&registry, &public, &ingest_url, per_area)
                        .map_err(StreamError::Middleware)?,
                );
                feed_urls.push(public);
            } else {
                feed_urls.push(ingest_url);
            }
        }

        // Map areas onto the cluster fleet: the same seeded k-way pass the
        // batch pipeline uses, over the decomposition graph weighted by
        // bus counts. The cluster is the liveness and failover domain.
        let bus_counts: Vec<usize> = decomp.areas.iter().map(|a| a.global_ids.len()).collect();
        let graph = initial_graph(&bus_counts, &decomp.edges);
        let n_clusters = supervise::N_CLUSTERS.clamp(1, n.max(1));
        let assignment = partition_kway(&graph, n_clusters, &KwayOptions::default()).assignment;

        let rec = Recorder::new("stream");
        let area_recs = (0..n).map(|a| Recorder::new(&format!("stream.area{a}"))).collect();
        let sup_rec = Recorder::new("stream.supervise");
        let feed_rec = Recorder::totals_only("stream.feed");
        Ok(StreamService {
            cfg,
            stages,
            registry,
            queues,
            listeners,
            feed_urls,
            proxies,
            store: SnapshotStore::new(),
            rec,
            area_recs,
            sup_rec,
            feed_rec,
            graph,
            assignment,
            n_clusters,
            noise: NoiseProcess::default(),
        })
    }

    /// Number of topology stages (1 without a switching schedule).
    pub fn n_topology_stages(&self) -> usize {
        self.stages.len()
    }

    /// Which areas stage `v` re-deploys relative to its predecessor: every
    /// area when the stage islands part of one, none when it only
    /// re-values the bank.
    ///
    /// # Panics
    /// Panics when `v` is out of range.
    pub fn stage_affected_areas(&self, v: usize) -> Vec<bool> {
        vec![self.stages[v].islanding_events > 0; self.n_areas()]
    }

    /// Orphan bus components stage `v`'s boundary cut off their areas and
    /// merged onto surviving ones.
    ///
    /// # Panics
    /// Panics when `v` is out of range.
    pub fn stage_islanding_events(&self, v: usize) -> u64 {
        self.stages[v].islanding_events
    }

    /// Full clean scan length of `area`'s telemetry plan in the base
    /// topology — what the scan-fault ground truth is derived against.
    pub fn area_scan_len(&self, area: usize) -> usize {
        self.stages[0].estimators[area].scan_len()
    }

    /// Topology stage feeding frame `s`.
    fn stage_for_seq(&self, s: u64) -> usize {
        self.stages.iter().take_while(|st| st.start_seq <= s).count() - 1
    }

    /// The initial area → cluster mapping (before any failover).
    pub fn cluster_assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The snapshot store; safe to read from any thread while the service
    /// runs.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The decomposition the service deploys with.
    pub fn decomposition(&self) -> &Decomposition {
        &self.stages[0].decomp
    }

    /// Number of areas (subsystems).
    pub fn n_areas(&self) -> usize {
        self.stages[0].estimators.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Observability export: the service scope, the supervision scope
    /// (failover counters and recovery spans), the feeder's middleware
    /// scope (`stream.feed`: `mw.send` totals, `mw.connects`), plus one
    /// scope per area
    /// (where the per-solve WLS spans and counters accumulate). The
    /// service scope also shows the ledger's books that are not recorders:
    /// the ingest queues' tallies, the chaos proxies' faults (in total and
    /// per kind) and the areas' summed solve-cache counts. Safe to call
    /// from any thread while the service runs: every count is live.
    pub fn obs_report(&self) -> ObsReport {
        let mut stream = self.rec.snapshot();
        let areas: Vec<ScopeReport> = self.area_recs.iter().map(Recorder::snapshot).collect();
        let mut queues = IngestStats::default();
        for q in &self.queues {
            queues.merge(&q.stats());
        }
        let faults: Vec<FaultStats> = self.proxies.iter().map(FaultProxyHandle::stats).collect();
        for &(name, book, _) in LEDGER {
            let n = match book {
                Book::Stream | Book::Supervise => continue,
                Book::Areas(counter) => areas.iter().map(|s| s.metrics.counter(counter)).sum(),
                Book::Queues(tally) => tally(&queues),
                Book::Proxies => faults.iter().map(FaultStats::injected_faults).sum(),
            };
            stream.metrics.counter_add(name, n);
        }
        for kind in [
            FaultKind::Delivered,
            FaultKind::Dropped,
            FaultKind::Truncated,
            FaultKind::Delayed,
            FaultKind::Duplicated,
        ] {
            let n = faults.iter().map(|st| st.count_of(kind)).sum();
            if n > 0 {
                stream.metrics.counter_add(&format!("stream.faults.{}", kind.label()), n);
            }
        }
        let mut scopes = vec![stream, self.sup_rec.snapshot(), self.feed_rec.snapshot()];
        scopes.extend(areas);
        ObsReport::from_scopes(scopes)
    }

    /// The count fields of a [`StreamReport`], read from the ledger
    /// through [`StreamService::obs_report`].
    fn counts(&self) -> StreamReport {
        let obs = self.obs_report();
        let mut report = StreamReport::default();
        for &(name, book, field) in LEDGER {
            let scope = if matches!(book, Book::Supervise) { "stream.supervise" } else { "stream" };
            *field(&mut report) = obs.counter(scope, name);
        }
        report.area_symbolic_builds = self
            .area_recs
            .iter()
            .map(|rec| obs.counter(rec.scope(), "wls.symbolic.build"))
            .collect();
        report
    }

    /// Runs the service to completion: feeder, per-area ingest listeners,
    /// and the supervised solve loop — one round per iteration, its steps
    /// called in order below (DESIGN.md §9) — then drains and closes the
    /// queues so that the accounting identity
    /// `ingested + requeued == solved + shed` is exact.
    ///
    /// Single-shot: deploy a fresh service for another run.
    pub fn run(&self) -> StreamReport {
        let start = Instant::now();
        let feeder_done = AtomicBool::new(false);
        let stop_ingest = AtomicBool::new(false);
        // Sequence of the newest published frame, and the condvar the
        // publish step notifies after storing it: the lockstep feeder
        // parks here instead of polling.
        let published = (Mutex::new(None), Condvar::new());
        let mut solver = Solver::new(self);
        // What ingest queues: frames this run can solve — a topology
        // version that names a stage, a sequence inside the run.
        let solvable = &|f: &StreamFrame| {
            (f.topology_version as usize) < self.stages.len() && f.seq < self.cfg.n_frames
        };

        std::thread::scope(|scope| {
            let stop = &stop_ingest;
            let mut ingest_handles: Vec<_> = (0..self.n_areas())
                .map(|a| scope.spawn(move || self.ingest(a, stop, solvable)))
                .collect();
            scope.spawn(|| {
                self.feed(&published);
                feeder_done.store(true, Ordering::Release);
            });

            loop {
                let Some(mut round) = solver.pop() else {
                    if solver.recover_idle() {
                        continue;
                    }
                    if ingest_handles.is_empty() {
                        break; // the listeners are joined and a sweep found nothing
                    }
                    if feeder_done.load(Ordering::Acquire)
                        && self.queues.iter().all(|q| q.depth() == 0)
                    {
                        // Stop and join the listeners so frames still in
                        // flight land before the final sweeps.
                        stop_ingest.store(true, Ordering::Release);
                        for h in ingest_handles.drain(..) {
                            let _ = h.join();
                        }
                    }
                    continue;
                };
                solver.fire_kills(&mut round);
                solver.assemble(&mut round);
                solver.transition(&round);
                solver.place_scans(&mut round);
                let started = Instant::now();
                let mut span = self.rec.span_at("stream.frame", round.seq);
                solver.step1(&mut round);
                solver.bad_data(&mut round);
                solver.step2(&mut round);
                solver.account(&mut round, started, &mut span);
                solver.supervise(&round);
                solver.publish(&round, &published);
            }
        });

        // --- shutdown: close and drain the queues, so that
        // ingested + requeued == solved + shed is exact.
        for q in &self.queues {
            q.close();
            q.drain_remaining();
        }
        let latency = self.rec.snapshot().metrics.histograms.remove(FRAME_LATENCY);
        let quantile = |q| latency.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0.0);
        StreamReport {
            bad_data_events: solver.bad_data_events,
            events: solver.events,
            last_epoch: self.store.current_epoch(),
            latency_p50_ms: quantile(0.50),
            latency_p99_ms: quantile(0.99),
            elapsed: start.elapsed(),
            ..self.counts()
        }
    }

    /// Area `a`'s ingest thread: serves the area's inbox — the listener
    /// and every held feeder connection, one poll — until `stop` is set
    /// and a turn passes idle.
    fn ingest(&self, a: usize, stop: &AtomicBool, solvable: &dyn Fn(&StreamFrame) -> bool) {
        let mut inbox = self.listeners[a]
            .try_clone()
            .map_err(MwError::from)
            .and_then(|l| Inbox::new(l, FRAME_READ_DEADLINE))
            .expect("the ingest listener serves an inbox");
        loop {
            // Read before the turn: its wait then covers every frame
            // written before the stop.
            let stopping = stop.load(Ordering::Acquire);
            if !ingest_turn(&mut inbox, &self.queues[a], &self.rec, solvable) && stopping {
                return;
            }
        }
    }

    /// The feeder: synthesizes, corrupts (scan-fault plan), encodes and
    /// ships each area's frame, stamped with its topology stage, on one
    /// held session per area. In lockstep it parks on `published` until
    /// each frame's snapshot is out.
    fn feed(&self, published: &(Mutex<Option<u64>>, Condvar)) {
        let cfg = &self.cfg;
        let rec = &self.rec;
        pgse_obs::with_recorder(&self.feed_rec, || {
            let client = MwClient::new(self.registry.clone());
            for s in 0..cfg.n_frames {
                let dt = s as f64 * FRAME_INTERVAL_SECS;
                let noise = self.noise.level(dt);
                let v = self.stage_for_seq(s);
                let stage = &self.stages[v];
                for (a, est) in stage.estimators.iter().enumerate() {
                    let mut set = est.generate_telemetry(noise, frame_seed(cfg.seed, s));
                    let fault = cfg.scan_faults.as_ref().and_then(|p| p.fault_for(a, s));
                    let net = est.step1_estimator().network();
                    match apply_scan_fault(fault, &mut set, net) {
                        ScanDamage::Gross => rec.counter_add("stream.faults.gross", 1),
                        ScanDamage::Rtu { shed } => {
                            rec.counter_add("stream.faults.rtu", 1);
                            rec.counter_add("stream.faults.rtu_shed", shed);
                        }
                        ScanDamage::None => {}
                    }
                    let mut frame = StreamFrame::new(a as u32, s, dt, set);
                    frame.topology_version = v as u32;
                    if s == stage.start_seq {
                        frame.topology_events = stage.events.clone();
                    }
                    let sent = client.send(&self.feed_urls[a], &wire::encode(&frame));
                    rec.counter_add(
                        if sent.is_ok() { "stream.fed" } else { "stream.send_failures" },
                        1,
                    );
                }
                if cfg.lockstep {
                    // Park until this frame's snapshot is published; the
                    // timeout keeps the feeder live when chaos starves a
                    // whole round.
                    let (seq, cv) = published;
                    let seq = seq.lock().expect("published_seq lock poisoned");
                    let _parked = cv
                        .wait_timeout_while(seq, cfg.lockstep_timeout, |p| {
                            !p.is_some_and(|p| p >= s)
                        })
                        .expect("published_seq lock poisoned");
                } else if !cfg.pacing.is_zero() {
                    std::thread::sleep(cfg.pacing);
                }
            }
        });
    }
}

/// Name of the frame-latency histogram in the `stream` recorder.
const FRAME_LATENCY: &str = "volatile.stream.frame_latency_ms";

/// One area's outcome of one [`contain`]ed solve step (while a Step-1
/// wave is open, `Solved` holds the wave).
#[derive(Default)]
enum Step<T> {
    /// Nothing to do: no fresh scan, or the worker is down.
    #[default]
    Skipped,
    /// A fresh result.
    Solved(T),
    /// The solver reported an error; the area carries its last solution.
    Failed,
    /// The solve closure panicked (contained); the worker restarts.
    Panicked,
    /// The bad-data gate fired and the LNR loop could not clear the frame;
    /// the area carries its last solution and the frame is discarded. Holds
    /// the Gauss–Newton iterations the wave and the loop ran.
    Degraded(usize),
}

impl<T> Step<T> {
    fn solved(&self) -> Option<&T> {
        match self {
            Step::Solved(v) => Some(v),
            _ => None,
        }
    }
}

/// An area's Step-1 solution from its estimate and the Gauss–Newton
/// iterations it took.
fn solution(iterations: usize, est: StateEstimate) -> AreaSolution {
    AreaSolution { vm: est.vm, va: est.va, iterations, objective: est.objective }
}

/// Runs one area's solve step on the area's recorder with its panics
/// contained. `catch_unwind` sits inside the pool's closures, so the pool
/// never sees a panic — the supervisor does.
fn contain<T, E>(rec: &Recorder, f: impl FnOnce() -> Result<T, E>) -> Step<T> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| pgse_obs::with_recorder(rec, f))) {
        Ok(Ok(v)) => Step::Solved(v),
        Ok(Err(_)) => Step::Failed,
        Err(_) => Step::Panicked,
    }
}

/// The `stream` counters a Step-1 [`WaveGroup`] tallies, in the order
/// [`run_group`] returns them.
const GROUP_COUNTS: [&str; 4] = [
    "stream.gain_solves",
    "stream.batch_groups",
    "stream.batched_lanes",
    "stream.scalar_fallbacks",
];

/// Step-1 waves whose gains share one pattern, run to convergence
/// together on one pool task ([`run_group`]).
struct WaveGroup<'a> {
    /// The round plan's analysis of the group's gain pattern.
    sym: Arc<CholSymbolic>,
    /// Whether the plan held `sym` before this round: the first
    /// iteration's `sym_reused`; every later iteration reuses it.
    cached: bool,
    /// Each member's area and wave; a wave whose solve fails or panics is
    /// replaced by that outcome and leaves the group.
    members: Vec<(usize, Step<GnWave<'a>>)>,
}

/// Runs one [`WaveGroup`] to convergence. Per Gauss–Newton iteration the
/// open members' gain systems solve as one group ([`solve_group`]: lanes
/// of one batched factorization, or scalar per member), then every open
/// member notes the solve and applies its step — which assembles its next
/// linearization — [`contain`]ed on its area's recorder. The members step
/// on the group's own task: fanning their steps out across the pool gave
/// `tiles12x30`'s 12-member group no clear latency gain for about 8 % more
/// CPU per frame (DESIGN §12). Returns the group's [`GROUP_COUNTS`], which
/// the round driver adds to `stream`.
fn run_group(svc: &StreamService, group: &mut WaveGroup) -> [u64; 4] {
    let mut tally = [0u64; 4];
    let mut reused = group.cached;
    loop {
        let (open, systems): (Vec<usize>, Vec<(&Csr, &[f64])>) = (group.members.iter())
            .enumerate()
            .filter_map(|(k, (_, wave))| match wave {
                Step::Solved(w) if !w.done() => Some((k, (w.gain(), w.rhs()))),
                _ => None,
            })
            .unzip();
        if open.is_empty() {
            return tally;
        }
        let (results, batched) = solve_group(&group.sym, &systems);
        let n = open.len() as u64;
        tally[0] += n;
        if batched {
            tally[1] += 1;
            tally[2] += n;
        } else {
            tally[3] += n;
        }
        for (k, dx) in open.into_iter().zip(results) {
            let (a, wave) = &mut group.members[k];
            let Step::Solved(w) = wave else { unreachable!("an open member is solved") };
            let advanced = contain(&svc.area_recs[*a], || {
                dx.map(|dx| {
                    w.note_solved(reused);
                    w.apply_step(&dx);
                })
            });
            match advanced {
                Step::Solved(()) => {}
                Step::Panicked => *wave = Step::Panicked,
                _ => *wave = Step::Failed,
            }
        }
        reused = true;
    }
}

/// One solve round: the frame sequence it solves and each area's part.
struct Round {
    /// The newest frame sequence popped — the round's clock.
    seq: u64,
    /// Model time of that frame.
    dt: f64,
    /// The topology stage the round solves on.
    version: usize,
    areas: Vec<AreaRound>,
}

/// One area's part of a round.
#[derive(Default)]
struct AreaRound {
    /// The popped frame and its arrival time; taken when it is requeued.
    frame: Option<(StreamFrame, Instant)>,
    /// The area publishes an estimate from this round's scan.
    fresh: bool,
    /// The kill schedule makes the area's Step 1 panic this round.
    panic: bool,
    step1: Step<AreaSolution>,
    step2: Step<AreaSolution>,
    /// The worker panicked and restarts at the end of the round.
    restart: bool,
}

/// Removes the entries of one kill-schedule list that are due by frame
/// `seq` and that `ready` accepts, returning their targets in schedule
/// order: each entry fires once.
fn drain_due(list: &mut Vec<(u64, usize)>, seq: u64, ready: impl Fn(usize) -> bool) -> Vec<usize> {
    let (due, kept): (Vec<_>, Vec<_>) =
        std::mem::take(list).into_iter().partition(|&(s, target)| s <= seq && ready(target));
    *list = kept;
    due.into_iter().map(|(_, target)| target).collect()
}

/// The solve loop's state across one run: each area's slot, the
/// round-level batch plan, the round clock and the supervisor's state.
/// Its methods are the steps of a round, in the order
/// [`StreamService::run`] calls them; the supervisor's counts go to
/// `stream.supervise` where they happen.
struct Solver<'s> {
    svc: &'s StreamService,
    slots: Vec<AreaSlot>,
    /// Step 1's symbolic analyses, one per gain pattern, shared by every
    /// Step-1 gain solve of the run: each round groups its open waves by
    /// pattern and looks each group up here once ([`BatchPlan::group`]),
    /// and bad data looks a suspect's gain up here. Persists across rounds
    /// (warm mode) so same-pattern areas keep hitting one analysis.
    plan: BatchPlan,
    /// Kill-schedule entries that have not fired yet.
    kills: KillSchedule,
    /// The topology stage the solver runs; advanced when a round's frames
    /// carry a newer version.
    version: usize,
    /// The deterministic round clock: the frame sequence the next round
    /// expects, and the stamp recovery-only rounds tick with.
    next_expected: u64,
    last_target: u64,
    bad_data_events: Vec<BadDataEvent>,
    /// Bucket upper bounds of [`FRAME_LATENCY`], in milliseconds: 1.1×
    /// apart from 10 µs to 150 s, so a quantile read from it is at
    /// most 10 % above the exact sample quantile (the overflow bucket
    /// reads the observed maximum).
    latency_buckets: Vec<f64>,
    watchdog: Watchdog,
    ckpts: CheckpointStore,
    liveness: FleetLiveness,
    /// The live area → cluster mapping.
    assignment: Vec<usize>,
    worker_alive: Vec<bool>,
    recovering: Vec<bool>,
    /// Everything the supervisor observed or did, in round order.
    events: Vec<SupervisionEvent>,
}

impl<'s> Solver<'s> {
    fn new(svc: &'s StreamService) -> Self {
        let n = svc.n_areas();
        Solver {
            svc,
            slots: (0..n).map(|_| AreaSlot::default()).collect(),
            plan: BatchPlan::new(),
            kills: svc.cfg.kills.clone(),
            version: 0,
            next_expected: 0,
            last_target: 0,
            bad_data_events: Vec::new(),
            latency_buckets: std::iter::successors(Some(0.01), |b| Some(b * 1.1))
                .take_while(|&b| b < 1.5e5)
                .collect(),
            watchdog: Watchdog::new(n, supervise::SUSPECT_AFTER, supervise::DEAD_AFTER),
            ckpts: CheckpointStore::new(n),
            liveness: FleetLiveness::new(svc.n_clusters),
            assignment: svc.assignment.clone(),
            worker_alive: vec![true; n],
            recovering: vec![false; n],
            events: Vec::new(),
        }
    }

    /// The estimator bank of the active topology stage.
    fn ests(&self) -> &'s [AreaEstimator] {
        &self.svc.stages[self.version].estimators
    }

    /// Pops a round: each live area's freshest frame (latest-wins). With
    /// `deterministic_rounds` it first waits, bounded by
    /// `lockstep_timeout`, until every queue has accepted the frame the
    /// round is expected to solve, so the round/shed/recovery structure
    /// is seed-determined. Advances the round clock; `None` when nothing
    /// was popped.
    fn pop(&mut self) -> Option<Round> {
        let svc = self.svc;
        if svc.cfg.deterministic_rounds && self.next_expected < svc.cfg.n_frames {
            let wait = Instant::now();
            for q in &svc.queues {
                let left = svc.cfg.lockstep_timeout.saturating_sub(wait.elapsed());
                if !q.wait_accepted(self.next_expected, left) {
                    break;
                }
            }
        }
        let areas: Vec<AreaRound> = svc
            .queues
            .iter()
            .zip(&self.worker_alive)
            .map(|(q, &alive)| {
                // A dead worker pops nothing: its queue accumulates
                // (latest-wins) until the supervisor revives it.
                let frame = if alive { q.pop_latest(POP_DEADLINE) } else { None };
                if frame.is_some() {
                    svc.rec.counter_add("stream.solved", 1);
                }
                AreaRound { frame, ..AreaRound::default() }
            })
            .collect();
        // The round's target: the first popped frame of the newest sequence.
        let frames = areas.iter().filter_map(|ar| ar.frame.as_ref().map(|(f, _)| f));
        let target = frames.min_by_key(|f| Reverse(f.seq))?;
        let (seq, dt) = (target.seq, target.dt_seconds);
        // The solver never steps back to an older topology: a lagging
        // target frame is handled as version skew.
        let version = self.version.max(target.topology_version as usize);
        self.last_target = seq;
        self.next_expected = self.next_expected.max(seq.saturating_add(1));
        Some(Round { seq, dt, version, areas })
    }

    /// A round that popped nothing: while any worker is down, the watchdog
    /// still ticks so dead workers are revived and their queues drain
    /// before shutdown. Returns whether it ran.
    fn recover_idle(&mut self) -> bool {
        if !self.worker_alive.contains(&false) {
            return false;
        }
        for a in 0..self.worker_alive.len() {
            if self.worker_alive[a] {
                self.beat(a);
            }
        }
        self.tick_and_recover(self.last_target);
        true
    }

    /// Fires the kill schedule's worker and cluster kills due by the
    /// round. A killed worker loses its in-memory state and stops
    /// heartbeating; the frame it had just popped goes back on its queue.
    fn fire_kills(&mut self, round: &mut Round) {
        let mut victims = drain_due(&mut self.kills.worker_kills, round.seq, |_| true);
        for c in drain_due(&mut self.kills.cluster_kills, round.seq, |_| true) {
            victims.extend((0..round.areas.len()).filter(|&a| self.assignment[a] == c));
        }
        for a in victims {
            if std::mem::replace(&mut self.worker_alive[a], false) {
                if let Some((frame, _)) = round.areas[a].frame.take() {
                    self.svc.queues[a].requeue(frame);
                }
            }
        }
    }

    /// Assembles the round: an area with a frame of the round's topology
    /// is fresh; one with nothing new runs degraded on carried state.
    fn assemble(&self, round: &mut Round) {
        for ar in &mut round.areas {
            let skewed = ar
                .frame
                .as_ref()
                .is_some_and(|(f, _)| f.topology_version as usize != round.version);
            if skewed {
                // A scan generated against another topology cannot be
                // solved on this round's estimator bank; the area runs
                // degraded instead.
                self.svc.rec.counter_add("stream.topology.version_skew", 1);
                ar.frame = None;
            }
            ar.fresh = ar.frame.is_some();
        }
    }

    /// Topology transition: the round's frames carry a newer version, so
    /// the solver switches estimator banks. A re-valued bank has the old
    /// one's layouts and patterns, so caches, warm starts, checkpoints and
    /// carried solutions all carry over. An islanding stage re-deploys:
    /// every area comes up cold.
    fn transition(&mut self, round: &Round) {
        let rec = &self.svc.rec;
        for stage in &self.svc.stages[self.version + 1..=round.version] {
            rec.counter_add("stream.topology.transitions", 1);
            if stage.islanding_events == 0 {
                continue;
            }
            rec.counter_add("stream.topology.symbolic_rebuilds", self.slots.len() as u64);
            for (a, slot) in self.slots.iter_mut().enumerate() {
                self.ckpts.clear(a);
                *slot = AreaSlot::default();
            }
        }
        self.version = round.version;
    }

    /// Places each fresh area's scan on its Step-1 layout
    /// ([`AreaEstimator::place_scan`]) — a row the scan lost in flight
    /// stays in place, inactive — and, with restoration on, repairs a
    /// short scan: [`restoration::restore_on`], on the area's
    /// status-applied Step-1 model, picks weak pseudo measurements from
    /// the carried estimate and they activate rows of the layout's pseudo
    /// superset. An area unobservable even after restoration, or whose
    /// scan does not place, degrades to its carried profile.
    fn place_scans(&mut self, round: &mut Round) {
        let (svc, ests) = (self.svc, self.ests());
        for (a, (ar, slot)) in round.areas.iter_mut().zip(&mut self.slots).enumerate() {
            let Some((frame, _)) = &ar.frame else { continue };
            let est = &ests[a];
            let Some(mut set) = est.place_scan(&frame.measurements) else {
                svc.rec.counter_add("stream.solve_errors", 1);
                ar.fresh = false;
                continue;
            };
            if svc.cfg.restoration && frame.measurements.len() < est.scan_len() {
                let w = est.step1_estimator();
                let nb = w.network().n_buses();
                let (vm0, va0) = match &slot.solution {
                    Some(s) if s.vm.len() == nb => (s.vm.clone(), s.va.clone()),
                    _ => (vec![1.0; nb], vec![0.0; nb]),
                };
                let (aug, rep) = pgse_obs::with_recorder(&svc.area_recs[a], || {
                    restoration::restore_on(w.network(), w.ybus(), &set, w.space(), &vm0, &va0)
                });
                if rep.added.is_empty() {
                    svc.rec.counter_add("stream.restore.observable", 1);
                } else if rep.after.observable {
                    svc.rec.counter_add("stream.restore.frames", 1);
                    svc.rec.counter_add("stream.restore.pseudo", rep.added.len() as u64);
                    let pseudo = rep.added.iter().map(|&i| aug.as_slice()[i]);
                    restoration::place_pseudo(&mut set, est.scan_len(), pseudo);
                } else {
                    svc.rec.counter_add("stream.restore.unobservable", 1);
                    ar.fresh = false;
                }
            }
            slot.set = Some(set);
        }
    }

    /// DSE Step 1 for every fresh area, in wave-driven Gauss–Newton. The
    /// kill schedule's panics due this round are armed first, so the
    /// parallel closures stay deterministic; a cold run clears every cache
    /// and the plan first, and otherwise takes the same path.
    ///
    /// Phase A (parallel): every fresh area assembles its first Jacobian /
    /// gain system and opens a [`GnWave`], on its own recorder (each
    /// area's trace stays on its own deterministic logical clock whichever
    /// pool thread runs it). Phase B: the open waves are grouped by gain
    /// pattern **once**, with one lookup per group in the shared
    /// [`BatchPlan`] ([`BatchPlan::group`]), and each group runs to
    /// convergence on its own pool task ([`run_group`]): per iteration its
    /// open members' gains solve as one group — lanes of one batched
    /// factorization when two or more share the pattern, scalar otherwise
    /// ([`solve_group`]) — and each member applies its step on the group's
    /// task. A wave's gain keeps its pattern, so the groups are the ones a
    /// per-iteration regrouping would find, nothing couples two groups, and
    /// every area's result is bitwise identical to solving alone (the
    /// per-lane FP op sequence is the scalar sequence — see the
    /// conformance pins in `pgse-sparsela::batch`). Each group's counts are
    /// added to `stream` on this thread. Phase C finishes the converged
    /// waves (residuals, objective, warm-start handoff). Every phase runs
    /// each area [`contain`]ed.
    fn step1(&mut self, round: &mut Round) {
        let svc = self.svc;
        if !svc.cfg.warm {
            for slot in &mut self.slots {
                slot.s1.clear();
                slot.s2.clear();
            }
            self.plan.clear();
        }
        for a in drain_due(&mut self.kills.panics, round.seq, |a| round.areas[a].fresh) {
            round.areas[a].panic = true;
        }

        // Phase A — open the waves in parallel.
        let areas = &round.areas;
        let mut waves: Vec<Step<GnWave>> = self
            .ests()
            .par_iter()
            .enumerate()
            .zip(self.slots.par_iter_mut())
            .map(|((a, est), slot)| {
                let AreaSlot { s1, set, .. } = slot;
                let (true, Some(set)) = (areas[a].fresh, set.as_ref()) else {
                    return Step::Skipped;
                };
                let inject = areas[a].panic;
                contain(&svc.area_recs[a], move || {
                    if inject {
                        std::panic::panic_any("injected solver fault (kill schedule)");
                    }
                    est.step1_wave(set, s1)
                })
            })
            .collect();

        // Phase B — one pool task per gain-pattern group, run to convergence.
        let (open, gains): (Vec<usize>, Vec<&Csr>) = (waves.iter().enumerate())
            .filter_map(|(a, wave)| match wave {
                Step::Solved(w) if !w.done() => Some((a, w.gain())),
                _ => None,
            })
            .unzip();
        let mut groups: Vec<WaveGroup> = Vec::new();
        for PatternGroup { members, sym, cached } in self.plan.group(&gains) {
            let members = members
                .into_iter()
                .map(|k| (open[k], std::mem::replace(&mut waves[open[k]], Step::Skipped)));
            groups.push(WaveGroup { sym, cached, members: members.collect() });
        }
        let tallies: Vec<[u64; 4]> = groups.par_iter_mut().map(|g| run_group(svc, g)).collect();
        // A round that solves nothing touches no counter: an added 0 would
        // still show in the export.
        if !groups.is_empty() {
            for (i, name) in GROUP_COUNTS.iter().enumerate() {
                svc.rec.counter_add(name, tallies.iter().map(|t| t[i]).sum());
            }
        }
        for (a, wave) in groups.into_iter().flat_map(|g| g.members) {
            waves[a] = wave;
        }

        // Phase C — close out the waves.
        for (a, (ar, wave)) in round.areas.iter_mut().zip(waves).enumerate() {
            ar.step1 = match wave {
                Step::Solved(wave) => contain(&svc.area_recs[a], || {
                    wave.finish().map(|est| solution(est.iterations, est))
                }),
                Step::Failed => Step::Failed,
                Step::Panicked => Step::Panicked,
                Step::Skipped | Step::Degraded(_) => Step::Skipped,
            };
        }
    }

    /// The bad-data step: the chi-square gate on every fresh Step-1
    /// objective (active rows only count as degrees of freedom), then the
    /// largest-normalized-residual loop on the suspects
    /// ([`baddata::identify_cached`]), fanned out across the pool. Each
    /// suspect starts from its converged Step-1 estimate, factors its gain
    /// over the symbolic analysis the round's `plan` already holds,
    /// deactivates the worst row and re-solves warm through its own solve
    /// cache — no pattern changes, so neither this nor the following Step 2
    /// re-analyses anything. Re-solve iterations join the area's Step-1
    /// iterations. Results are applied in area order, so the round does
    /// not depend on the pool size.
    fn bad_data(&mut self, round: &mut Round) {
        let (svc, ests) = (self.svc, self.ests());
        let Some(gate) = svc.cfg.baddata else { return };
        // A suspect's gain analysis, looked up in the round's plan.
        let mut suspects: Vec<Option<Arc<CholSymbolic>>> = vec![None; ests.len()];
        for (a, (est, slot)) in ests.iter().zip(&self.slots).enumerate() {
            let (Step::Solved(s), Some(set)) = (&round.areas[a].step1, &slot.set) else {
                continue;
            };
            let dim = est.step1_estimator().space().dim();
            if baddata::chi_square_detects(set, s.objective, dim, gate.confidence) {
                svc.rec.counter_add("stream.baddata.suspect", 1);
                let gain = slot.s1.gain().expect("a solved Step 1 leaves its gain");
                suspects[a] = Some(self.plan.symbolic(gain).0);
            }
        }
        if suspects.iter().all(Option::is_none) {
            return;
        }
        let areas = &round.areas;
        let outcomes: Vec<Option<Result<BadDataReport, WlsError>>> = ests
            .par_iter()
            .enumerate()
            .zip(self.slots.par_iter_mut())
            .map(|((a, est), slot)| {
                let AreaSlot { s1, set, .. } = slot;
                let (Some(sym), Step::Solved(s), Some(set)) = (&suspects[a], &areas[a].step1, set)
                else {
                    return None;
                };
                let est1 = est.step1_estimator();
                Some(pgse_obs::with_recorder(&svc.area_recs[a], || {
                    let start = StateEstimate {
                        residuals: est1.residuals(set, &s.vm, &s.va),
                        vm: s.vm.clone(),
                        va: s.va.clone(),
                        iterations: s.iterations,
                        objective: s.objective,
                    };
                    baddata::identify_cached(est1, set, start, gate, s1, Some(Arc::clone(sym)))
                }))
            })
            .collect();
        for (a, out) in outcomes.into_iter().enumerate() {
            let ar = &mut round.areas[a];
            let (Some(out), Step::Solved(s)) = (out, &ar.step1) else { continue };
            let wave_iterations = s.iterations;
            ar.step1 = match out {
                Ok(rep) if rep.clean => {
                    svc.rec.counter_add("stream.baddata.cleared", 1);
                    svc.rec.counter_add("stream.baddata.removed", rep.removed.len() as u64);
                    let removed = rep.removed;
                    self.bad_data_events.push(BadDataEvent { seq: round.seq, area: a, removed });
                    Step::Solved(solution(wave_iterations + rep.resolve_iterations, rep.estimate))
                }
                // Unidentifiable (no residual stands out) or a re-solve
                // failed: suppress the suspect solution and run degraded
                // on the carried state.
                Ok(rep) => {
                    svc.rec.counter_add("stream.baddata.unidentifiable", 1);
                    Step::Degraded(wave_iterations + rep.resolve_iterations)
                }
                Err(_) => {
                    svc.rec.counter_add("stream.baddata.unidentifiable", 1);
                    Step::Degraded(wave_iterations)
                }
            };
        }
    }

    /// The exchange and DSE Step 2. Each area exports its boundary and
    /// sensitive buses' Step-1 view — the fresh result, else its carried
    /// solution — as pseudo measurements (in memory; the framed middleware
    /// variant of this exchange lives in pgse-core's pipeline). Every area
    /// whose scan Step 1 consumed then re-evaluates its boundary on the
    /// extended model, fanned out across the pool, [`contain`]ed.
    fn step2(&mut self, round: &mut Round) {
        let (svc, ests) = (self.svc, self.ests());
        let pseudo: Vec<Vec<PseudoMeasurement>> = ests
            .iter()
            .zip(&round.areas)
            .zip(&self.slots)
            .map(|((est, ar), slot)| {
                let view = ar.step1.solved().or(slot.solution.as_ref());
                view.map(|s| est.export_pseudo(s)).unwrap_or_default()
            })
            .collect();
        let noise = svc.noise.level(round.dt);
        let seed = step2_seed(svc.cfg.seed, round.seq);
        let areas = &round.areas;
        let step2: Vec<Step<AreaSolution>> = ests
            .par_iter()
            .enumerate()
            .zip(self.slots.par_iter_mut())
            .map(|((a, est), slot)| {
                // A scan whose Step 1 panicked or was degraded by bad data
                // goes no further.
                let ar = &areas[a];
                if !ar.fresh || matches!(ar.step1, Step::Panicked | Step::Degraded(_)) {
                    return Step::Skipped;
                }
                let AreaSlot { s2, set, solution, .. } = slot;
                let (Some(s1), Some(set)) = (ar.step1.solved().or(solution.as_ref()), set.as_ref())
                else {
                    return Step::Skipped;
                };
                let inbox: Vec<PseudoMeasurement> =
                    est.info.neighbors.iter().flat_map(|&nb| pseudo[nb].iter().copied()).collect();
                contain(&svc.area_recs[a], || est.step2_cached(s1, &inbox, set, noise, seed, s2))
            })
            .collect();
        for (ar, step) in round.areas.iter_mut().zip(step2) {
            ar.step2 = step;
        }
    }

    /// Accounts the round in one pass over the areas. A failed step counts
    /// a solve error. A panicked step restarts its worker at the end of the
    /// round; a Step-1 panic never solved its frame, so the frame is
    /// requeued, while a Step-2 panic consumed it. An area's newest
    /// solution becomes its carried one; an area neither step estimated
    /// anything for publishes its carried profile, so the round lists it
    /// degraded.
    fn account(&mut self, round: &mut Round, started: Instant, span: &mut SpanGuard) {
        let (rec, seq) = (&self.svc.rec, round.seq);
        let mut gn = 0u64;
        for (a, (ar, slot)) in round.areas.iter_mut().zip(&mut self.slots).enumerate() {
            for step in [&ar.step1, &ar.step2] {
                match step {
                    Step::Solved(s) => gn += s.iterations as u64,
                    Step::Degraded(iterations) => gn += *iterations as u64,
                    Step::Failed => rec.counter_add("stream.solve_errors", 1),
                    Step::Panicked => {
                        rec.counter_add("stream.worker_panics", 1);
                        self.events.push(SupervisionEvent::Panicked { area: a, seq });
                        ar.restart = true;
                    }
                    Step::Skipped => {}
                }
            }
            if matches!(ar.step1, Step::Panicked) {
                if let Some((frame, _)) = ar.frame.take() {
                    self.svc.queues[a].requeue(frame);
                }
            }
            match ar.step2.solved().or(ar.step1.solved()) {
                Some(sol) => slot.solution = Some(sol.clone()),
                None => ar.fresh = false,
            }
        }
        let degraded = round.areas.iter().filter(|ar| !ar.fresh).count() as u64;
        rec.counter_add("stream.rounds", 1);
        rec.counter_add("stream.gn_iterations", gn);
        rec.counter_add("volatile.stream.solve_nanos", started.elapsed().as_nanos() as u64);
        if degraded > 0 {
            rec.counter_add("stream.degraded", degraded);
        }
        span.record("fresh_areas", round.areas.len() as u64 - degraded);
        span.record("gn_iterations", gn);
    }

    /// Closes the round on the supervisor: a revived worker that solved
    /// fresh again has recovered; the round's survivors checkpoint and
    /// heartbeat; the watchdog ticks, with whatever recovery (restart /
    /// cluster failover) the tick implies; panicked workers it did not
    /// already revive restart.
    fn supervise(&mut self, round: &Round) {
        let seq = round.seq;
        for (a, ar) in round.areas.iter().enumerate() {
            let solved = ar.fresh && matches!(ar.step1, Step::Solved(_));
            if solved && std::mem::take(&mut self.recovering[a]) {
                self.events.push(SupervisionEvent::Recovered { area: a, seq });
            }
            if !self.worker_alive[a] {
                continue;
            }
            if solved {
                self.ckpts.save(supervise::checkpoint(&self.slots[a], a, seq));
                self.svc.sup_rec.counter_add("failover.checkpoints", 1);
            }
            if !ar.restart {
                self.beat(a);
            }
        }
        let revived = self.tick_and_recover(seq);
        for (a, ar) in round.areas.iter().enumerate() {
            if ar.restart && !revived.contains(&a) {
                let warm = self.revive(a);
                self.events.push(SupervisionEvent::Restarted { area: a, seq, warm });
            }
        }
    }

    /// Aggregates and publishes the round once every area has contributed,
    /// wakes the lockstep feeder, and records each fresh frame's
    /// arrival → publish latency.
    fn publish(&mut self, round: &Round, published: &(Mutex<Option<u64>>, Condvar)) {
        let svc = self.svc;
        let Some(sols) = self.slots.iter().map(|s| s.solution.clone()).collect::<Option<Vec<_>>>()
        else {
            svc.rec.counter_add("stream.unpublishable", 1);
            return;
        };
        let (vm, va) = aggregate(&svc.stages[self.version].decomp, &sols);
        let snap = SystemSnapshot {
            epoch: 0, // stamped by the store
            frame_seq: round.seq,
            dt_seconds: round.dt,
            vm,
            va,
            degraded_areas: (0..round.areas.len()).filter(|&a| !round.areas[a].fresh).collect(),
        };
        if svc.store.publish(snap).is_err() {
            svc.rec.counter_add("stream.publish.rejected", 1);
            return;
        }
        *published.0.lock().expect("published_seq lock poisoned") = Some(round.seq);
        published.1.notify_one();
        svc.rec.counter_add("stream.published", 1);
        let now = Instant::now();
        for ar in round.areas.iter().filter(|ar| ar.fresh) {
            if let Some((_, arrived)) = &ar.frame {
                let ms = now.duration_since(*arrived).as_secs_f64() * 1e3;
                svc.rec.observe_with(FRAME_LATENCY, ms, &self.latency_buckets);
            }
        }
    }
}

/// The supervisor: heartbeats, the watchdog tick and recovery.
impl Solver<'_> {
    /// A heartbeat from `area`'s worker, counted when the watchdog takes it.
    fn beat(&mut self, area: usize) {
        if self.watchdog.beat(area) {
            self.svc.sup_rec.counter_add("volatile.failover.heartbeats", 1);
        }
    }

    /// Closes the round on the watchdog and executes whatever recovery the
    /// deadline transitions imply: whole-cluster failover (repartition the
    /// survivors, price and execute the checkpoint handoff) for clusters
    /// whose every hosted worker died, restart-in-place for everyone else.
    /// Returns the areas revived this round.
    fn tick_and_recover(&mut self, seq: u64) -> Vec<usize> {
        let rec = &self.svc.sup_rec;
        let mut newly_dead: Vec<usize> = Vec::new();
        for ev in self.watchdog.tick(seq) {
            match ev {
                SupervisionEvent::Suspected { .. } => rec.counter_add("failover.suspected", 1),
                SupervisionEvent::Died { area, .. } => {
                    rec.counter_add("failover.dead", 1);
                    newly_dead.push(area);
                }
                _ => {}
            }
            self.events.push(ev);
        }
        if newly_dead.is_empty() {
            return Vec::new();
        }

        let n_areas = self.assignment.len();
        let mut revived = Vec::new();

        // Cluster-death inference: a cluster whose every hosted worker is
        // dead is gone (the supervisor cannot distinguish a fleet-level
        // outage from the simultaneous death of all its workers — and
        // does not need to). Guarded against total fleet loss: with no
        // survivors there is nowhere to repartition to, so the workers
        // fall through to restart-in-place instead.
        let dead_clusters: Vec<usize> = self
            .liveness
            .alive_clusters()
            .into_iter()
            .filter(|&c| {
                let hosted: Vec<usize> =
                    (0..n_areas).filter(|&a| self.assignment[a] == c).collect();
                !hosted.is_empty()
                    && hosted.iter().all(|&a| self.watchdog.health(a) == WorkerHealth::Dead)
            })
            .collect();
        if !dead_clusters.is_empty() && dead_clusters.len() < self.liveness.n_alive() {
            let mut span = rec.span_at("failover.recover", seq);
            for &c in &dead_clusters {
                self.liveness.kill(c);
                rec.counter_add("failover.cluster_deaths", 1);
                self.events.push(SupervisionEvent::ClusterDied { cluster: c, seq });
            }
            // Minimal-migration repartition over the survivors, then the
            // redistribution plan that ships the orphans' checkpoints to
            // their new hosts.
            let prev = Partition::new(self.assignment.clone(), self.svc.n_clusters);
            let shrunk = repartition_shrink(
                &self.svc.graph,
                &prev,
                &dead_clusters,
                &RepartitionOptions::default(),
            );
            let bytes: Vec<u64> =
                (0..n_areas).map(|a| self.ckpts.checkpoint_bytes(a)).collect();
            let plan = plan_redistribution(&self.assignment, &shrunk.assignment, &bytes);
            span.record("migrations", plan.migrations() as u64);
            span.record("bytes", plan.total_bytes());
            for m in &plan.moves {
                rec.counter_add("failover.migrations", 1);
                rec.counter_add("failover.bytes", m.bytes);
                self.events.push(SupervisionEvent::Rehosted {
                    area: m.area,
                    from_cluster: m.from_cluster,
                    to_cluster: m.to_cluster,
                    seq,
                });
                self.revive(m.area);
                revived.push(m.area);
            }
            self.assignment = shrunk.assignment;
        }

        // Workers that died on a surviving cluster restart in place (the
        // failover path above already revived its movers, clearing their
        // Dead state, so they are skipped here).
        for a in newly_dead {
            if self.watchdog.health(a) == WorkerHealth::Dead {
                let warm = self.revive(a);
                self.events.push(SupervisionEvent::Restarted { area: a, seq, warm });
                revived.push(a);
            }
        }
        revived
    }

    /// Brings a worker back ([`supervise::revive`]) from its latest
    /// checkpoint, when one exists. Returns whether the restart was warm.
    /// The area's recorder keeps its solve-cache counts across the restart.
    fn revive(&mut self, a: usize) -> bool {
        let rec = &self.svc.sup_rec;
        let ck = self.ckpts.restore(a);
        let warm = ck.as_ref().is_some_and(|ck| ck.warm.is_some());
        let book = if ck.is_some() { "failover.restores" } else { "failover.cold_restarts" };
        rec.counter_add(book, 1);
        if supervise::revive(&mut self.slots[a], ck) {
            rec.counter_add("failover.symbolic_retained", 1);
        }
        self.worker_alive[a] = true;
        self.recovering[a] = true;
        self.watchdog.revive(a);
        rec.counter_add("failover.restarts", 1);
        warm
    }
}

impl std::fmt::Debug for StreamService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamService")
            .field("n_areas", &self.n_areas())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// Resolves the switching schedule into the stage list; stage 0 is the
/// deploy bank. Per boundary: apply the breaker flips, solve the stage's
/// operating point, and look for orphans — bus components the closed
/// intra-area branches no longer join to their area's lowest bus. Without
/// orphans the stage is the previous bank re-valued on the same
/// decomposition ([`AreaEstimator::with_branch_status`]). With orphans,
/// each is merged onto an adjacent surviving area ([`repartition_shrink`])
/// and the stage re-deploys on the merged areas. Every bank models every
/// base branch, an open one as a zero admittance, so branch numbering and
/// a later closing stay values too.
fn topology_stages(net: &Network, cfg: &StreamConfig) -> Result<Vec<TopologyStage>, StreamError> {
    let n_branches = net.n_branches();
    let mut by_seq: BTreeMap<u64, Vec<(usize, bool)>> = BTreeMap::new();
    for ev in &cfg.switching {
        if ev.branch >= n_branches {
            return Err(StreamError::Topology(format!(
                "switching branch {} out of range ({n_branches} branches)",
                ev.branch
            )));
        }
        if ev.at_seq == 0 {
            return Err(StreamError::Topology(
                "switching at frame 0: change the base network instead".into(),
            ));
        }
        by_seq.entry(ev.at_seq).or_default().push((ev.branch, ev.close));
    }

    let bank = |snet: &Network, pf: &PfSolution| {
        let decomp = decompose(snet, &DecompositionOptions::default());
        let ests: Vec<AreaEstimator> = decomp
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), snet, pf, WlsOptions::default()))
            .collect();
        (decomp, ests)
    };
    let pf = solve_pf(net, &PfOptions::default()).map_err(StreamError::PowerFlow)?;
    let (decomp, estimators) = bank(net, &pf);
    let mut stages = vec![TopologyStage {
        start_seq: 0,
        events: Vec::new(),
        decomp,
        estimators,
        islanding_events: 0,
    }];
    // Every base branch, on the areas of the latest re-deploy.
    let mut snet = net.clone();
    let mut closed = vec![true; n_branches];
    for (&at_seq, evs) in &by_seq {
        for &(k, close) in evs {
            closed[k] = close;
        }
        let orphans = orphan_components(&snet, &closed);
        if !orphans.is_empty() {
            merge_orphans(&mut snet, &closed, &orphans).map_err(|e| {
                StreamError::Topology(format!("orphan merge at frame {at_seq}: {e}"))
            })?;
        }
        let live = snet.with_branch_status(&closed);
        live.validate().map_err(|e| {
            StreamError::Topology(format!("stage at frame {at_seq}: {e}"))
        })?;
        let pf = solve_pf(&live, &PfOptions::default()).map_err(StreamError::PowerFlow)?;
        let redeploy = (!orphans.is_empty()).then(|| bank(&snet, &pf));
        let prev = stages.last().expect("stage 0 is the deploy bank");
        let (decomp, base) = match &redeploy {
            Some((decomp, ests)) => (decomp, ests),
            None => (&prev.decomp, &prev.estimators),
        };
        let decomp = decomp.clone();
        let estimators = base.iter().map(|e| e.with_branch_status(&closed, &pf)).collect();
        stages.push(TopologyStage {
            start_seq: at_seq,
            events: evs
                .iter()
                .map(|&(k, close)| TopologyEvent { branch: k as u32, closed: close })
                .collect(),
            decomp,
            estimators,
            islanding_events: orphans.len() as u64,
        });
    }
    Ok(stages)
}

/// The bus components of `net` that the closed intra-area branches no
/// longer join to their area's anchor, its lowest bus.
fn orphan_components(net: &Network, closed: &[bool]) -> Vec<Vec<usize>> {
    let n = net.n_buses();
    let area = |b: usize| net.buses[b].area;
    let mut adj = vec![Vec::new(); n];
    for (k, br) in net.branches.iter().enumerate() {
        if closed[k] && area(br.from) == area(br.to) {
            adj[br.from].push(br.to);
            adj[br.to].push(br.from);
        }
    }
    let mut seen = vec![false; n];
    let mut anchored = vec![false; net.n_areas()];
    let mut orphans = Vec::new();
    // In ascending bus order an area's first component holds its anchor.
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut comp = vec![start];
        let mut head = 0;
        while head < comp.len() {
            for &v in &adj[comp[head]] {
                if !seen[v] {
                    seen[v] = true;
                    comp.push(v);
                }
            }
            head += 1;
        }
        if std::mem::replace(&mut anchored[area(start)], true) {
            orphans.push(comp);
        }
    }
    orphans
}

/// Re-homes every orphan component of `net` onto a surviving area it has a
/// closed branch to. Each component condenses to one supernode so the
/// shrink pass moves it as a unit: the per-vertex greedy would place an
/// orphan whose only closed edges lead to still-orphaned neighbours by
/// load tiebreak alone, stranding it in an area it has no electrical
/// connection to.
fn merge_orphans(net: &mut Network, closed: &[bool], orphans: &[Vec<usize>]) -> Result<(), String> {
    let n_buses = net.n_buses();
    let n_areas = net.n_areas();
    let mut comp_of = vec![usize::MAX; n_buses];
    for (c, comp) in orphans.iter().enumerate() {
        for &b in comp {
            comp_of[b] = c;
        }
    }
    let kept: Vec<usize> = (0..n_buses).filter(|&b| comp_of[b] == usize::MAX).collect();
    let mut vert_of = vec![usize::MAX; n_buses];
    for (i, &b) in kept.iter().enumerate() {
        vert_of[b] = i;
    }
    let vert = |b: usize| {
        if comp_of[b] == usize::MAX {
            vert_of[b]
        } else {
            kept.len() + comp_of[b]
        }
    };
    let mut weights = vec![1.0; kept.len()];
    weights.extend(orphans.iter().map(|comp| comp.len() as f64));
    let mut g = WeightedGraph::with_vertex_weights(weights);
    for (k, br) in net.branches.iter().enumerate() {
        let (u, v) = (vert(br.from), vert(br.to));
        if closed[k] && u != v {
            g.add_edge(u, v, 1.0);
        }
    }
    let mut assign: Vec<usize> = kept.iter().map(|&b| net.buses[b].area).collect();
    assign.extend((0..orphans.len()).map(|c| n_areas + c));
    let dead_parts: Vec<usize> = (n_areas..n_areas + orphans.len()).collect();
    let shrunk = repartition_shrink(
        &g,
        &Partition::new(assign, n_areas + orphans.len()),
        &dead_parts,
        &RepartitionOptions::default(),
    );
    for (c, comp) in orphans.iter().enumerate() {
        let part = shrunk.assignment[kept.len() + c];
        if part >= n_areas {
            return Err("an orphan component has no closed branch to a surviving area".into());
        }
        for &b in comp {
            net.buses[b].area = part;
        }
    }
    Ok(())
}

/// What [`apply_scan_fault`] did to one scan.
enum ScanDamage {
    None,
    Gross,
    /// An RTU outage shed this many rows.
    Rtu { shed: u64 },
}

/// Applies one seeded scan fault to a generated scan on `net`: a gross
/// error biases one row by `k·σ` — the classic error the LNR loop must
/// identify downstream; an RTU outage silences whole sites, shedding every
/// row whose equation involves a dead bus.
fn apply_scan_fault(
    fault: Option<ScanFault>,
    set: &mut MeasurementSet,
    net: &Network,
) -> ScanDamage {
    match fault {
        Some(ScanFault::GrossError { slot, magnitude_sigma }) if !set.is_empty() => {
            let m = set.get_mut((slot % set.len() as u64) as usize);
            m.value += magnitude_sigma * m.sigma;
            ScanDamage::Gross
        }
        Some(ScanFault::RtuOutage { site_slots }) => {
            let n_local = net.n_buses() as u64;
            let dead: Vec<usize> = site_slots.iter().map(|&t| (t % n_local) as usize).collect();
            let before = set.len();
            set.retain(|m| !touches_dead(&m.kind, net, &dead));
            ScanDamage::Rtu { shed: (before - set.len()) as u64 }
        }
        _ => ScanDamage::None,
    }
}

/// Whether a measurement depends on the state of any dead bus: metered at
/// it, a flow on an incident branch, or an injection at a neighbour (the
/// injection equation involves the dead bus's voltage).
fn touches_dead(kind: &MeasurementKind, net: &Network, dead: &[usize]) -> bool {
    let site = kind.site(&net.branches);
    if dead.contains(&site) {
        return true;
    }
    match *kind {
        MeasurementKind::Pflow { branch, .. } | MeasurementKind::Qflow { branch, .. } => {
            let br = &net.branches[branch];
            dead.contains(&br.from) || dead.contains(&br.to)
        }
        MeasurementKind::Pinj { bus } | MeasurementKind::Qinj { bus } => {
            net.branches.iter().any(|br| {
                (br.from == bus && dead.contains(&br.to))
                    || (br.to == bus && dead.contains(&br.from))
            })
        }
        _ => false,
    }
}

/// Per-frame telemetry seed (shared by every area; the estimator mixes
/// its area id in).
fn frame_seed(seed: u64, s: u64) -> u64 {
    seed ^ s.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x2545_f491_4f6c_dd1d)
}

/// Per-frame Step-2 tie-line noise seed.
fn step2_seed(seed: u64, s: u64) -> u64 {
    seed ^ s.wrapping_mul(0x6a09_e667_f3bc_c909).wrapping_add(0x1f83_d9ab_fb41_bd6b)
}

/// One turn of an area's ingest: waits up to [`RECV_POLL`] on the
/// area's inbox — the listener and every held feeder connection, one
/// poll — and takes one arrival. Every arrival ends as a queued frame or
/// a `corrupt` tick (a cut, stalled or undecodable frame, or one
/// `solvable` refuses); a connection closed between frames counts
/// nothing. Returns `false` when the turn was idle: nothing arrived and
/// no frame is partly received.
fn ingest_turn(
    inbox: &mut Inbox,
    queue: &IngestQueue,
    rec: &Recorder,
    solvable: &dyn Fn(&StreamFrame) -> bool,
) -> bool {
    let Some(arrival) = inbox.next(RECV_POLL) else {
        return inbox.pending();
    };
    let frame = match arrival {
        Arrival::Frame(body) => wire::decode(&body).ok().filter(|frame| solvable(frame)),
        Arrival::Corrupt => None,
    };
    if let Some(frame) = frame {
        queue.push(frame);
    } else {
        rec.counter_add("stream.corrupt", 1);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_grid::cases::ieee118_like;

    #[test]
    fn lockstep_run_publishes_every_frame_and_accounts_exactly() {
        let net = ieee118_like();
        let cfg = StreamConfig { n_frames: 4, seed: 21, ..StreamConfig::default() };
        let service = StreamService::deploy(&net, cfg).unwrap();
        let report = service.run();

        let n_areas = service.n_areas() as u64;
        assert_eq!(report.frames_fed, 4 * n_areas);
        assert_eq!(report.send_failures, 0);
        assert_eq!(report.corrupt, 0);
        assert_eq!(report.frames_fed, report.ingested + report.corrupt, "{report:?}");
        assert_eq!(report.frames_published, 4);
        assert_eq!(report.unaccounted(), 0, "{report:?}");
        assert_eq!(report.last_epoch, Some(3));
        assert_eq!(service.store().load().unwrap().frame_seq, 3);
        // No feeder wait ran into its timeout: one missed wake is one
        // `lockstep_timeout` stall.
        assert!(report.elapsed < service.config().lockstep_timeout, "{:?}", report.elapsed);
        // Structure reuse engaged: at least one build per cache (a round
        // solved before every neighbour reported can rebuild Step 2 once),
        // reuses afterwards.
        assert!(report.symbolic_builds >= 2 * n_areas, "{report:?}");
        assert!(report.symbolic_reuses > 0);
        assert!(report.warm_solves > 0);
        // The default direct solver refreshed numeric factorizations on
        // warm iterations; every Gauss–Newton iteration is either a
        // refresh or a full refactorization, exactly.
        assert!(report.refactor_reuse > 0, "{report:?}");
        assert_eq!(
            report.refactor_reuse + report.refactor_full,
            report.gn_iterations,
            "{report:?}"
        );

        // Round batching engaged on every Step-1 gain solve, and the
        // dispatch accounting closes exactly: every dispatched system was
        // either batched or fell back to the scalar path, nothing else.
        assert!(report.gain_solves > 0, "{report:?}");
        assert_eq!(
            report.batched_lanes + report.scalar_fallbacks,
            report.gain_solves,
            "{report:?}"
        );

        // The obs counters tell the same story as the report.
        let obs = service.obs_report();
        assert_eq!(obs.counter("stream", "stream.ingested"), report.ingested);
        assert_eq!(obs.counter("stream", "stream.solved"), report.area_frames_solved);
        assert!(obs.total_counter("wls.gn_iterations") >= report.gn_iterations);
        assert_eq!(obs.counter("stream", "stream.gain_solves"), report.gain_solves);
        assert_eq!(
            obs.counter("stream", "stream.batched_lanes")
                + obs.counter("stream", "stream.scalar_fallbacks"),
            obs.counter("stream", "stream.gain_solves")
        );
    }

    #[test]
    fn clean_deterministic_rounds_run_never_waits_out_the_gate() {
        let net = ieee118_like();
        let cfg = StreamConfig {
            n_frames: 8,
            seed: 21,
            deterministic_rounds: true,
            ..StreamConfig::default()
        };
        let service = StreamService::deploy(&net, cfg).unwrap();
        let report = service.run();

        let n_areas = service.n_areas() as u64;
        assert_eq!(report.frames_fed, 8 * n_areas);
        assert_eq!(report.frames_published, 8);
        assert_eq!(report.last_epoch, Some(7));
        assert_eq!(report.unaccounted(), 0, "{report:?}");
        // Neither the round gate nor the feeder ran into its timeout: one
        // missed wake is one `lockstep_timeout` stall.
        assert!(report.elapsed < service.config().lockstep_timeout, "{:?}", report.elapsed);
    }

    #[test]
    fn injected_panic_degrades_the_round_and_restarts_the_worker_warm() {
        let net = ieee118_like();
        let cfg = StreamConfig {
            n_frames: 5,
            seed: 33,
            deterministic_rounds: true,
            kills: KillSchedule { panics: vec![(2, 0)], ..KillSchedule::default() },
            ..StreamConfig::default()
        };
        let service = StreamService::deploy(&net, cfg).unwrap();
        let report = service.run();

        // The panic was contained: the service finished, the area ran one
        // degraded round, and the worker restarted warm from a checkpoint.
        assert_eq!(report.worker_panics, 1, "{report:?}");
        assert_eq!(report.frames_published, 5);
        assert!(report.degraded_area_rounds >= 1);
        assert_eq!(report.workers_restarted, 1);
        assert_eq!(report.checkpoints_restored, 1);
        assert_eq!(report.cold_restarts, 0);
        assert!(report.events.contains(&SupervisionEvent::Panicked { area: 0, seq: 2 }));
        assert!(report
            .events
            .contains(&SupervisionEvent::Restarted { area: 0, seq: 2, warm: true }));
        assert!(report.events.contains(&SupervisionEvent::Recovered { area: 0, seq: 3 }));

        // The popped-but-unsolved frame was requeued and the widened
        // identity closes exactly.
        assert_eq!(report.requeued, 1);
        assert_eq!(report.unaccounted(), 0, "{report:?}");

        // The obs scope tells the same story.
        let obs = service.obs_report();
        assert_eq!(obs.counter("stream", "stream.worker_panics"), 1);
        assert_eq!(obs.counter("stream", "stream.requeued"), 1);
        assert_eq!(obs.counter("stream.supervise", "failover.restarts"), 1);
    }

    /// Binds a loopback inbox (stall budget `stall`) and runs
    /// [`ingest_turn`] while `peer`, a raw socket client handed the
    /// listener's address and a channel that closes once the turns are
    /// over, talks to it. The turns end once `events` arrivals were queued
    /// or counted corrupt — with `events == 0`, once the peer is done and
    /// the inbox holds no connection.
    fn serve_peer(
        stall: Duration,
        events: u64,
        peer: impl FnOnce(std::net::SocketAddr, std::sync::mpsc::Receiver<()>) + Send,
    ) -> (IngestQueue, u64) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut inbox = Inbox::new(listener, stall).unwrap();
        let queue = IngestQueue::new(4);
        let rec = Recorder::new("stream");
        let peer_done = AtomicBool::new(false);
        let (over_tx, over_rx) = std::sync::mpsc::channel();
        let corrupt = || rec.snapshot().metrics.counter("stream.corrupt");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                peer(addr, over_rx);
                peer_done.store(true, Ordering::Release);
            });
            let start = Instant::now();
            loop {
                // Read before the turn: the turn then sees everything the
                // peer did before it finished.
                let finished = peer_done.load(Ordering::Acquire);
                ingest_turn(&mut inbox, &queue, &rec, &|_| true);
                let seen = queue.stats().ingested + corrupt();
                if seen >= events && (events > 0 || (finished && inbox.held() == 0)) {
                    break;
                }
                assert!(start.elapsed() < Duration::from_secs(5), "the peer never finished");
            }
            drop(over_tx);
        });
        (queue, corrupt())
    }

    fn frame(seq: u64) -> StreamFrame {
        StreamFrame {
            area: 3,
            seq,
            dt_seconds: 4.0 * seq as f64,
            topology_version: 0,
            topology_events: Vec::new(),
            measurements: MeasurementSet::new(),
        }
    }

    #[test]
    fn a_frame_written_after_the_poll_window_is_ingested_not_dropped() {
        let frame = frame(7);
        let sent = frame.clone();
        // The sender connects, is descheduled for longer than RECV_POLL,
        // then writes: the held connection waits, and the frame lands.
        let (queue, corrupt) = serve_peer(FRAME_READ_DEADLINE, 1, move |addr, _over| {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(40));
            pgse_medici::framing::write_frame(&mut conn, &wire::encode(&sent)).unwrap();
        });
        assert_eq!(corrupt, 0);
        assert_eq!(queue.stats().ingested, 1);
        let (got, _) = queue.pop_latest(Duration::ZERO).expect("frame queued");
        assert_eq!(got, frame);
    }

    #[test]
    fn a_peer_that_writes_a_header_and_stalls_counts_as_corrupt() {
        let (queue, corrupt) = serve_peer(Duration::from_millis(50), 1, |addr, over| {
            use std::io::Write;
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.write_all(&64u64.to_be_bytes()).unwrap();
            // Hold the connection open until the stall has been counted.
            let _ = over.recv();
        });
        assert_eq!(corrupt, 1);
        assert_eq!(queue.stats().ingested, 0);
    }

    #[test]
    fn a_clean_close_with_no_bytes_counts_nothing() {
        let (queue, corrupt) = serve_peer(Duration::from_millis(50), 0, |addr, _over| {
            drop(std::net::TcpStream::connect(addr).unwrap());
        });
        assert_eq!(corrupt, 0);
        assert_eq!(queue.stats().ingested, 0);
    }

    #[test]
    fn a_stalled_session_is_corrupt_and_the_senders_later_frames_are_ingested() {
        let (queue, corrupt) = serve_peer(Duration::from_millis(50), 3, |addr, _over| {
            use std::io::{Read, Write};
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.write_all(&64u64.to_be_bytes()).unwrap();
            // The reader gives up on the stalled frame and closes the
            // connection; the sender sees EOF and dials again, as a held
            // session does before its next write.
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(conn.read(&mut [0u8; 1]).unwrap_or(0), 0);
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            for seq in [1, 2] {
                pgse_medici::framing::write_frame(&mut conn, &wire::encode(&frame(seq)))
                    .unwrap();
            }
        });
        assert_eq!(corrupt, 1);
        assert_eq!(queue.stats().ingested, 2);
    }

    #[test]
    fn frames_no_stage_or_round_can_take_are_corrupt_not_fatal() {
        let net = ieee118_like();
        let cfg = StreamConfig { n_frames: 4, seed: 8, ..StreamConfig::default() };
        let service = StreamService::deploy(&net, cfg).unwrap();
        assert_eq!(service.n_topology_stages(), 1);
        // Written before the run starts: each waits in its listener's
        // backlog and is the first connection the area's ingest accepts.
        let mut unknown_version = StreamFrame::new(0, 1, 4.0, MeasurementSet::new());
        unknown_version.topology_version = 7;
        let last_seq = StreamFrame::new(1, u64::MAX, 0.0, MeasurementSet::new());
        for (a, frame) in [(0, &unknown_version), (1, &last_seq)] {
            let addr = service.listeners[a].local_addr().unwrap();
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            pgse_medici::framing::write_frame(&mut conn, &wire::encode(frame)).unwrap();
        }
        // A solver panic would leave the ingest threads running and `run`
        // blocked on them, so the run gets its own thread and a deadline.
        let n_areas = service.n_areas() as u64;
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || tx.send(service.run()).is_ok());
        let report = rx.recv_timeout(Duration::from_secs(30)).expect("run returns");
        assert!(runner.join().expect("the run thread exits"));
        assert_eq!(report.corrupt, 2, "{report:?}");
        assert_eq!(report.frames_fed, 4 * n_areas);
        assert_eq!(report.frames_published, 4, "{report:?}");
        assert_eq!(report.unaccounted(), 0, "{report:?}");
    }

    #[test]
    fn scans_are_placed_on_the_layout_and_a_foreign_one_degrades() {
        let net = ieee118_like();
        let service = StreamService::deploy(&net, StreamConfig::default()).unwrap();
        let mut solver = Solver::new(&service);
        let ests = solver.ests();
        let n = ests.len();
        let frame = |a: usize, set: MeasurementSet| Some(StreamFrame::new(a as u32, 0, 0.0, set));
        let mut frames: Vec<Option<StreamFrame>> = vec![None; n];
        // Area 0: a row no plan emits (decodable, but foreign to the area).
        let foreign: MeasurementSet = [pgse_estimation::Measurement::new(
            MeasurementKind::Vmag { bus: 999 },
            1.0,
            0.004,
        )]
        .into_iter()
        .collect();
        frames[0] = frame(0, foreign);
        // Area 1: a two-site RTU outage; area 2: a clean scan.
        let mut short = ests[1].generate_telemetry(1.0, 5);
        let net1 = ests[1].step1_estimator().network();
        let outage = Some(ScanFault::RtuOutage { site_slots: vec![1, 5] });
        assert!(matches!(apply_scan_fault(outage, &mut short, net1), ScanDamage::Rtu { .. }));
        frames[1] = frame(1, short.clone());
        frames[2] = frame(2, ests[2].generate_telemetry(1.0, 5));

        let areas = frames.into_iter().map(|frame| AreaRound {
            fresh: frame.is_some(),
            frame: frame.map(|f| (f, Instant::now())),
            ..AreaRound::default()
        });
        let mut round = Round { seq: 0, dt: 0.0, version: 0, areas: areas.collect() };
        solver.place_scans(&mut round);
        let report = service.counts();
        let fresh: Vec<bool> = round.areas.iter().map(|ar| ar.fresh).collect();
        let last_sets: Vec<&Option<MeasurementSet>> = solver.slots.iter().map(|s| &s.set).collect();

        assert_eq!(report.solve_errors, 1);
        assert_eq!(fresh[..3], [false, true, true]);
        assert!(last_sets[0].is_none());
        // Every placed scan has its area's full layout shape.
        for a in [1, 2] {
            let set = last_sets[a].as_ref().unwrap();
            assert_eq!(set.len(), ests[a].step1_layout().len(), "area {a}");
        }
        let placed = last_sets[1].as_ref().unwrap();
        assert_eq!(report.frames_restored + report.short_scan_observable, 1);
        assert_eq!(placed.n_active(), short.len() + report.pseudo_added as usize);
        assert_eq!(last_sets[2].as_ref().unwrap().n_active(), ests[2].scan_len());
    }

    #[test]
    fn deploy_maps_areas_onto_the_fleet() {
        let net = ieee118_like();
        let service = StreamService::deploy(&net, StreamConfig::default()).unwrap();
        let assignment = service.cluster_assignment();
        assert_eq!(assignment.len(), service.n_areas());
        // Every configured cluster hosts at least one area.
        let k = supervise::N_CLUSTERS;
        for c in 0..k {
            assert!(assignment.contains(&c), "cluster {c} hosts nothing: {assignment:?}");
        }
    }

    #[test]
    fn cold_config_never_reuses_across_frames() {
        let net = ieee118_like();
        let cfg = StreamConfig { n_frames: 2, warm: false, ..StreamConfig::default() };
        let service = StreamService::deploy(&net, cfg).unwrap();
        let report = service.run();
        assert_eq!(report.frames_published, 2);
        // Cold takes the warm solve path with every cache cleared at the
        // top of the round: each solve (Step 1 + Step 2 per area-frame)
        // rebuilds its structures, and no Step 1 starts from a carried
        // state (Step 2 is seeded from its own frame's Step 1, always).
        let solves = 2 * report.area_frames_solved;
        assert_eq!(report.symbolic_builds, solves);
        assert_eq!(report.symbolic_reuses, 0);
        assert_eq!(report.warm_solves, report.area_frames_solved);
        // One full analysis per solve; only the later Gauss–Newton
        // iterations *of that same solve* refresh it numerically.
        assert_eq!(report.refactor_full, solves);
        assert_eq!(report.refactor_reuse + report.refactor_full, report.gn_iterations);
        assert_eq!(report.batched_lanes + report.scalar_fallbacks, report.gain_solves);
        assert_eq!(report.unaccounted(), 0);
    }
}
