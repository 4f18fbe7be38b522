//! The running system prototype.

use std::time::{Duration, Instant};

use pgse_cluster::{plan_redistribution, ClusterFleet, HpcCluster, InterfaceLayer};
use pgse_dse::decomposition::{decompose, Decomposition, DecompositionOptions};
use pgse_dse::estimator::{AreaEstimator, AreaSolution};
use pgse_dse::pseudo::{from_wire, to_wire, PseudoMeasurement};
use pgse_dse::runner::{run_cycle, AreaSlot, Delivery, Exchange, Step};
use pgse_estimation::wls::{WlsError, WlsOptions};
use pgse_grid::Network;
use pgse_medici::{
    EndpointProtocol, EndpointRegistry, FaultKind, FaultProxy, FaultProxyHandle, FaultStats,
    MifPipeline, MwClient, PipelineHandle, SeComponent,
};
use pgse_partition::weights::{step1_graph, step2_graph, SubsystemProfile};
use pgse_partition::{partition_kway, repartition, KwayOptions, Partition, RepartitionOptions};
use pgse_powerflow::{PfError, PfOptions, PfSolution};
use rayon::prelude::*;

use crate::config::{CoordinationMode, PrototypeConfig};
use crate::report::FrameReport;

/// How long a fault-injected round lingers after its collection ends to
/// absorb straggler deliveries (late duplicates / delayed frames), keeping
/// them out of the next round's inboxes. One window for every inbox: each
/// drains what arrived while the ones before it waited.
const STRAGGLER_GRACE: Duration = Duration::from_millis(60);

/// Prototype construction/run failures.
#[derive(Debug)]
pub enum PrototypeError {
    /// The ground-truth power flow failed.
    PowerFlow(PfError),
    /// A state estimator failed.
    Wls(WlsError),
    /// Middleware deployment failed.
    Middleware(pgse_medici::MwError),
}

impl std::fmt::Display for PrototypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrototypeError::PowerFlow(e) => write!(f, "power flow: {e}"),
            PrototypeError::Wls(e) => write!(f, "state estimation: {e}"),
            PrototypeError::Middleware(e) => write!(f, "middleware: {e}"),
        }
    }
}

impl std::error::Error for PrototypeError {}

/// The deployed prototype: estimators + clusters + middleware + mapping.
pub struct SystemPrototype {
    config: PrototypeConfig,
    net: Network,
    pf: PfSolution,
    decomp: Decomposition,
    estimators: Vec<AreaEstimator>,
    /// One slot per area for the deployment's life: its solve caches and
    /// last frame. The slots live with the prototype, not with a cluster,
    /// so an area the Step-1 or Step-2 mapping moves keeps its factor.
    slots: Vec<AreaSlot>,
    fleet: ClusterFleet,
    /// The deployment's one middleware client: it holds a session per
    /// pipeline endpoint, dialled on the first send.
    client: MwClient,
    /// Per-area inbox (index = area id).
    inboxes: Vec<InterfaceLayer>,
    /// Coordinator inbox (hierarchical mode only).
    coordinator: Option<InterfaceLayer>,
    /// All middleware pipelines (kept alive for the prototype's lifetime).
    pipelines: Vec<PipelineHandle>,
    /// Fault-injection proxies fronting the pipelines (chaos runs only).
    proxies: Vec<FaultProxyHandle>,
    profiles: Vec<SubsystemProfile>,
    prev_assignment: Option<Partition>,
    frame: u64,
    /// Frame-scope recorder: the main-thread pipeline (frame spans,
    /// middleware sends, telemetry generation).
    obs_frame: pgse_obs::Recorder,
    /// One recorder per area, installed on whichever fleet/collector
    /// thread works that area — keeps the trace deterministic regardless
    /// of thread scheduling.
    obs_areas: Vec<pgse_obs::Recorder>,
    /// Recorder for the coordinator's inbox (hierarchical mode only).
    obs_coordinator: pgse_obs::Recorder,
    /// Recorder the pipeline routers run under: their outbound dials
    /// (`mw.connects`) and `volatile.mw.relay.*` counters.
    obs_relay: pgse_obs::Recorder,
}

impl SystemPrototype {
    /// Deploys the prototype on `net`.
    ///
    /// Solves the ground-truth power flow, runs the preliminary DSE step,
    /// builds one estimator per subsystem, brings up the cluster fleet and
    /// the middleware pipelines for the configured coordination mode.
    ///
    /// # Errors
    /// [`PrototypeError`] when the power flow or middleware deployment
    /// fails.
    pub fn deploy(net: Network, config: PrototypeConfig) -> Result<Self, PrototypeError> {
        let pf = pgse_powerflow::solve(&net, &PfOptions::default())
            .map_err(PrototypeError::PowerFlow)?;
        let decomp = decompose(&net, &DecompositionOptions::default());
        let estimators: Vec<AreaEstimator> = decomp
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), &net, &pf, WlsOptions::default()))
            .collect();
        let fleet = if config.n_clusters == 3 {
            ClusterFleet::paper_testbed()
        } else {
            ClusterFleet::new(
                (0..config.n_clusters)
                    .map(|i| HpcCluster::new(format!("cluster-{i}"), 2))
                    .collect(),
            )
        };

        let registry = EndpointRegistry::new();
        let inboxes: Vec<InterfaceLayer> = (0..decomp.n_areas())
            .map(|a| {
                InterfaceLayer::deploy_with(
                    &registry,
                    &format!("tcp://area-{a}.dse.pnl.gov:5000"),
                    config.middleware,
                )
            })
            .collect::<Result<_, _>>()
            .map_err(PrototypeError::Middleware)?;

        let obs_relay = pgse_obs::Recorder::new("relay");
        let pipeline = |in_url: &str, out_url: &str| {
            build_pipeline(&registry, in_url, out_url, config.relay_rate, &obs_relay)
                .map_err(PrototypeError::Middleware)
        };
        let mut pipelines = Vec::new();
        let mut proxies = Vec::new();
        let mut coordinator = None;
        match config.mode {
            CoordinationMode::Decentralized => {
                // One one-way pipeline per *directed* decomposition edge
                // (the paper's exchange is bidirectional, §IV-A). Under a
                // chaos spec, every edge's public endpoint is either dead
                // or a fault proxy in front of the real (renamed) pipeline.
                for &(a, b) in &decomp.edges {
                    for (src, dst) in [(a, b), (b, a)] {
                        let public = format!("tcp://pipe-{src}-{dst}.dse.pnl.gov:6789");
                        let inbox = format!("tcp://area-{dst}.dse.pnl.gov:5000");
                        match &config.chaos {
                            Some(spec) if spec.is_dead(src, dst) => {
                                FaultProxy::deploy_dead(&registry, &public)
                                    .map_err(PrototypeError::Middleware)?;
                            }
                            Some(spec) => {
                                let raw = format!("tcp://raw-{src}-{dst}.dse.pnl.gov:6790");
                                pipelines.push(pipeline(&raw, &inbox)?);
                                proxies.push(
                                    FaultProxy::deploy(
                                        &registry,
                                        &public,
                                        &raw,
                                        spec.fault_plan(),
                                    )
                                    .map_err(PrototypeError::Middleware)?,
                                );
                            }
                            None => pipelines.push(pipeline(&public, &inbox)?),
                        }
                    }
                }
            }
            CoordinationMode::Hierarchical => {
                // Star topology through the coordinator.
                coordinator = Some(
                    InterfaceLayer::deploy_with(
                        &registry,
                        "tcp://coordinator.dse.pnl.gov:5000",
                        config.middleware,
                    )
                    .map_err(PrototypeError::Middleware)?,
                );
                for a in 0..decomp.n_areas() {
                    pipelines.push(pipeline(
                        &format!("tcp://up-{a}.dse.pnl.gov:6789"),
                        "tcp://coordinator.dse.pnl.gov:5000",
                    )?);
                    pipelines.push(pipeline(
                        &format!("tcp://down-{a}.dse.pnl.gov:6789"),
                        &format!("tcp://area-{a}.dse.pnl.gov:5000"),
                    )?);
                }
            }
        }

        let profiles: Vec<SubsystemProfile> = decomp
            .areas
            .iter()
            .map(|a| SubsystemProfile {
                n_buses: a.subnet.n_buses(),
                gs: a.gs(),
                g1: config.g1,
                g2: config.g2,
            })
            .collect();

        let obs_areas =
            (0..decomp.n_areas()).map(|a| pgse_obs::Recorder::new(&format!("area{a}"))).collect();
        Ok(SystemPrototype {
            client: MwClient::with_config(registry, config.middleware),
            config,
            net,
            pf,
            slots: (0..decomp.n_areas()).map(|_| AreaSlot::default()).collect(),
            decomp,
            estimators,
            fleet,
            inboxes,
            coordinator,
            pipelines,
            proxies,
            profiles,
            prev_assignment: None,
            frame: 0,
            obs_frame: pgse_obs::Recorder::new("frame"),
            obs_areas,
            obs_coordinator: pgse_obs::Recorder::new("coordinator"),
            obs_relay,
        })
    }

    /// The interconnection.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The ground-truth operating point.
    pub fn truth(&self) -> &PfSolution {
        &self.pf
    }

    /// The decomposition.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// The per-subsystem weight-model profiles.
    pub fn profiles(&self) -> &[SubsystemProfile] {
        &self.profiles
    }

    /// Total middleware frames relayed so far.
    pub fn relayed_frames(&self) -> u64 {
        self.pipelines.iter().map(|p| p.stats().frames).sum()
    }

    /// Per-proxy fault statistics (empty unless a chaos spec is deployed),
    /// in the deterministic edge-deployment order.
    pub fn fault_stats(&self) -> Vec<FaultStats> {
        self.proxies.iter().map(|p| p.stats()).collect()
    }

    /// Executes one time frame at `dt_seconds` since the run epoch:
    /// noise estimation → weight update → Step-1 (re)partition and Step-2
    /// repartition → the DSE cycle (Step 1 on the fleet → MeDICi exchange
    /// → Step 2 on the fleet → aggregation) → redistribution accounting.
    ///
    /// # Errors
    /// [`PrototypeError::Wls`] when any estimator fails.
    pub fn run_frame(&mut self, dt_seconds: f64) -> Result<FrameReport, PrototypeError> {
        // Install the frame recorder for the whole main-thread pipeline:
        // everything the frame does on this thread (telemetry generation,
        // middleware sends, stage spans) lands in the `frame` scope.
        let rec = self.obs_frame.clone();
        pgse_obs::with_recorder(&rec, || self.run_frame_inner(dt_seconds))
    }

    /// Frame `frame`'s telemetry seed and its one round's Step-2 seed.
    fn seeds(&self, frame: u64) -> (u64, [u64; 1]) {
        let seed = self.config.noise.seed ^ frame.wrapping_mul(0xa076_1d64_78bd_642f);
        (seed, [seed ^ 0xdead_beef])
    }

    fn run_frame_inner(&mut self, dt_seconds: f64) -> Result<FrameReport, PrototypeError> {
        self.frame += 1;
        let mut frame_span = pgse_obs::span_at("frame", self.frame);
        let (frame_seed, step2_seeds) = self.seeds(self.frame);
        let x = self.config.noise.level(dt_seconds);
        let k = self.fleet.len();

        // Mapping for Step 1: balance the predicted computation. Mapping
        // for Step 2: minimize communication, keep balance, avoid needless
        // migration. Both need only the noise level and the Step-1 mapping.
        let g1_graph = step1_graph(&self.profiles, &self.decomp.edges, x);
        let p1 = match &self.prev_assignment {
            None => partition_kway(&g1_graph, k, &KwayOptions::default()),
            Some(prev) => repartition(&g1_graph, prev, &RepartitionOptions::default()),
        };
        let g2_graph = step2_graph(&self.profiles, &self.decomp.edges, x);
        let p2 = repartition(&g2_graph, &p1, &RepartitionOptions::default());

        let relayed_before = self.relayed_frames();
        let mut exchange = FrameExchange {
            fleet: &self.fleet,
            mappings: [&p1, &p2],
            frame: self.frame,
            decomp: &self.decomp,
            config: &self.config,
            client: &self.client,
            inboxes: &mut self.inboxes,
            obs_areas: &self.obs_areas,
            coordinator: self.coordinator.as_mut().map(|c| (c, &self.obs_coordinator)),
            faults: ExchangeFaults::default(),
            times: [Duration::ZERO; 3],
        };
        let (decomp, estimators, slots) = (&self.decomp, &self.estimators, &mut self.slots);
        let dse = run_cycle(decomp, estimators, slots, x, frame_seed, &step2_seeds, &mut exchange)
            .map_err(PrototypeError::Wls)?;
        let FrameExchange { faults, times: [step1_time, exchange_time, step2_time], .. } = exchange;
        let relayed_frames = self.relayed_frames() - relayed_before;

        // The raw-data redistribution the re-mapping forces: each area's
        // scan. Its solve caches stay in the prototype's slot, so they are
        // not priced.
        let area_bytes: Vec<u64> =
            self.slots.iter().map(|s| s.set.as_ref().map_or(0, |s| s.wire_size() as u64)).collect();
        let redistribution = plan_redistribution(&p1.assignment, &p2.assignment, &area_bytes);
        let buses_per_cluster = (0..k)
            .map(|c| {
                p1.part(c)
                    .into_iter()
                    .map(|a| self.decomp.areas[a].subnet.n_buses())
                    .sum()
            })
            .collect();

        let report = FrameReport {
            frame: self.frame,
            dt_seconds,
            noise_level: x,
            predicted_iterations: self.config.g1 * x + self.config.g2,
            step1_assignment: p1.assignment.clone(),
            step1_imbalance: p1.imbalance(&g1_graph),
            step2_assignment: p2.assignment.clone(),
            step2_imbalance: p2.imbalance(&g2_graph),
            step2_cut: p2.edge_cut(&g2_graph),
            migrations: redistribution.migrations(),
            redistributed_bytes: redistribution.total_bytes(),
            exchanged_bytes: dse.exchanged_bytes,
            relayed_frames,
            missed_exchanges: dse
                .missed_exchanges
                .iter()
                .map(|m| (m.from_area, m.to_area))
                .collect(),
            corrupt_frames: faults.corrupt,
            duplicate_frames: faults.duplicates,
            late_frames: faults.late,
            step1_time,
            exchange_time,
            step2_time,
            vm_rmse: dse.vm_rmse(&self.pf.vm),
            va_rmse: dse.va_rmse(&self.pf.va),
            buses_per_cluster,
            step1_iterations: dse.step1_iterations,
            degraded_areas: dse.degraded_areas,
        };
        frame_span.record("vm_rmse", report.vm_rmse);
        frame_span.record("healthy", report.exchange_healthy());
        self.prev_assignment = Some(p1);
        Ok(report)
    }

    /// The merged observability report over every scope the prototype
    /// records: the `frame` pipeline, the `relay` routers, one `area{i}`
    /// scope per subsystem,
    /// the `coordinator` (hierarchical mode), and — on chaos runs — a
    /// `faults` scope folding the proxies' injection ground truth into
    /// counters. Call after the proxies settle (see
    /// [`SystemPrototype::fault_stats`]); the deterministic export of the
    /// result is byte-identical across same-seed runs.
    pub fn obs_report(&self) -> pgse_obs::ObsReport {
        let mut scopes = vec![self.obs_frame.snapshot(), self.obs_relay.snapshot()];
        scopes.extend(self.obs_areas.iter().map(pgse_obs::Recorder::snapshot));
        if self.coordinator.is_some() {
            scopes.push(self.obs_coordinator.snapshot());
        }
        if !self.proxies.is_empty() {
            let rec = pgse_obs::Recorder::new("faults");
            for stats in self.fault_stats() {
                for kind in [
                    FaultKind::Dropped,
                    FaultKind::Truncated,
                    FaultKind::Delayed,
                    FaultKind::Duplicated,
                ] {
                    rec.counter_add(
                        &format!("faults.injected.{}", kind.label()),
                        stats.count_of(kind),
                    );
                }
                rec.counter_add("faults.injected.total", stats.injected_faults());
                // Arrival totals trail the wire — volatile, like the relay
                // counters.
                rec.counter_add("volatile.faults.frames", stats.frames);
            }
            scopes.push(rec.snapshot());
        }
        pgse_obs::ObsReport::from_scopes(scopes)
    }
}

/// The prototype's side of one frame's DSE cycle: a step's areas run on
/// the cluster fleet under that step's mapping, and a round's batches
/// travel through MeDICi — peer to peer or via the coordinator — within
/// the round deadline. Failed sends, corrupt frames, duplicates and
/// deadline expiry are tolerated and accounted; the round always
/// completes.
struct FrameExchange<'a> {
    fleet: &'a ClusterFleet,
    /// The Step-1 and Step-2 mappings.
    mappings: [&'a Partition; 2],
    frame: u64,
    decomp: &'a Decomposition,
    config: &'a PrototypeConfig,
    client: &'a MwClient,
    inboxes: &'a mut [InterfaceLayer],
    obs_areas: &'a [pgse_obs::Recorder],
    /// The coordinator's inbox and recorder (hierarchical mode only).
    coordinator: Option<(&'a mut InterfaceLayer, &'a pgse_obs::Recorder)>,
    faults: ExchangeFaults,
    /// Wall time of Step 1, the exchange and Step 2.
    times: [Duration; 3],
}

impl Exchange for FrameExchange<'_> {
    /// Runs the step's areas grouped by its mapping: each cluster
    /// processes its subsystems on its own pool, all clusters
    /// concurrently, each area on its own slot — the slots are split
    /// across the clusters' jobs, so no lock guards them. Each area's work
    /// runs under that area's recorder inside an `area.step1`/`area.step2`
    /// span stamped with the frame index, so the trace is identical no
    /// matter which cluster thread executed the area.
    fn run_step(
        &mut self,
        step: Step,
        slots: &mut [AreaSlot],
        job: &(dyn Fn(usize, &mut AreaSlot) -> Result<AreaSolution, WlsError> + Sync),
    ) -> Result<Vec<AreaSolution>, WlsError> {
        let (stage, mapping, time) = match step {
            Step::One => ("area.step1", self.mappings[0], 0),
            Step::Two => ("area.step2", self.mappings[1], 2),
        };
        let (frame, obs) = (self.frame, self.obs_areas);
        let t = Instant::now();
        let mut parts: Vec<Vec<(usize, &mut AreaSlot)>> =
            (0..self.fleet.len()).map(|_| Vec::new()).collect();
        for (a, slot) in slots.iter_mut().enumerate() {
            parts[mapping.assignment[a]].push((a, slot));
        }
        let jobs = parts
            .into_iter()
            .map(|part| {
                Box::new(move || {
                    part.into_par_iter()
                        .map(|(a, slot)| {
                            pgse_obs::with_recorder(&obs[a], || {
                                let mut sp = pgse_obs::span_at(stage, frame);
                                let r = job(a, slot);
                                if let Ok(sol) = &r {
                                    sp.record("iterations", sol.iterations as u64);
                                }
                                r.map(|s| (a, s))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                    as Box<dyn FnOnce() -> Result<Vec<(usize, AreaSolution)>, WlsError> + Send>
            })
            .collect();
        let mut out: Vec<Option<AreaSolution>> = vec![None; self.decomp.n_areas()];
        for cluster in self.fleet.run_all(jobs) {
            for (a, sol) in cluster? {
                out[a] = Some(sol);
            }
        }
        self.times[time] += t.elapsed();
        Ok(out.into_iter().map(|s| s.expect("every area estimated")).collect())
    }

    fn deliver(&mut self, _: usize, batches: &[Vec<PseudoMeasurement>]) -> Delivery {
        let t = Instant::now();
        let mut delivery = match self.config.mode {
            CoordinationMode::Decentralized => self.exchange_decentralized(batches),
            CoordinationMode::Hierarchical => self.exchange_hierarchical(batches),
        };
        delivery.missed.sort_unstable();
        delivery.missed.dedup();
        self.times[1] += t.elapsed();
        delivery
    }
}

impl FrameExchange<'_> {
    /// Peer-to-peer exchange: each area ships its batch down the pipeline
    /// toward every neighbour on the deployment's held sessions, then each
    /// area's interface layer collects one frame per distinct neighbour.
    fn exchange_decentralized(&mut self, pseudo: &[Vec<PseudoMeasurement>]) -> Delivery {
        let round_end = Instant::now() + self.config.exchange_deadline;
        let mut out = Delivery::default();
        // The pipeline routers buffer the sends. A failed send — e.g. a
        // dead pipeline exhausting its retries — is not fatal: the
        // destination's collection accounts the miss.
        for (src, batch) in pseudo.iter().enumerate() {
            let wire = to_wire(batch);
            for &dst in &self.decomp.areas[src].neighbors {
                let url = format!("tcp://pipe-{src}-{dst}.dse.pnl.gov:6789");
                if self.client.send(&url, &wire).is_ok() {
                    out.bytes += wire.len() as u64;
                }
            }
        }
        self.collect_areas(round_end, true, self.config.chaos.is_some(), &mut out);
        out
    }

    /// Hierarchical exchange: everything goes up to the coordinator, which
    /// fans the relevant batches back down — two middleware hops, each
    /// bounded by the round deadline. A missing uplink misses every
    /// destination that needed it; a missing downlink misses one area.
    fn exchange_hierarchical(&mut self, pseudo: &[Vec<PseudoMeasurement>]) -> Delivery {
        let deadline = self.config.exchange_deadline;
        let decomp = self.decomp;
        let n_areas = decomp.n_areas();
        let mut out = Delivery::default();

        // Up: every area → coordinator.
        let round_end = Instant::now() + deadline;
        for (src, batch) in pseudo.iter().enumerate() {
            let wire = to_wire(batch);
            if self.client.send(&format!("tcp://up-{src}.dse.pnl.gov:6789"), &wire).is_ok() {
                out.bytes += wire.len() as u64;
            }
        }
        let (coordinator, rec) = self.coordinator.as_mut().expect("hierarchical mode");
        let left = round_end.saturating_duration_since(Instant::now());
        let (up, up_outcome) = pgse_obs::with_recorder(rec, || {
            coordinator
                .collect_decoded(n_areas, left, |f| keyed(decode_batch(f, decomp, |_| true)?))
        });
        self.faults.corrupt += up_outcome.corrupt as u64;
        self.faults.duplicates += up_outcome.duplicate as u64;
        // The coordinator re-indexes arrivals by source area.
        let mut by_area: Vec<Vec<PseudoMeasurement>> = vec![Vec::new(); n_areas];
        for (area, batch) in up {
            by_area[area as usize] = batch;
        }

        // Down: coordinator → each area, only its neighbours' data.
        let round_end = Instant::now() + deadline;
        for a in 0..n_areas {
            let inbox: Vec<PseudoMeasurement> = decomp.areas[a]
                .neighbors
                .iter()
                .flat_map(|&nb| by_area[nb].iter().copied())
                .collect();
            let wire = to_wire(&inbox);
            if self.client.send(&format!("tcp://down-{a}.dse.pnl.gov:6789"), &wire).is_ok() {
                out.bytes += wire.len() as u64;
            }
        }
        self.collect_areas(round_end, false, false, &mut out);
        out
    }

    /// Collects every area's inbox against one round deadline, on this
    /// thread, each under its area's recorder with what is left of the
    /// round (an inbox reached after the deadline still takes what has
    /// already arrived). With `per_source` an area takes one batch per
    /// distinct neighbour, each from that neighbour alone ([`keyed`]);
    /// without, one batch in all (the coordinator's downlink, keyed alike
    /// so an empty one is taken, not rejected). A
    /// neighbour none of whose entries arrived is missed. With `drain`
    /// every inbox then drains its stragglers in one shared
    /// [`STRAGGLER_GRACE`] window.
    fn collect_areas(
        &mut self,
        round_end: Instant,
        per_source: bool,
        drain: bool,
        out: &mut Delivery,
    ) {
        let decomp = self.decomp;
        for (a, (layer, rec)) in self.inboxes.iter_mut().zip(self.obs_areas).enumerate() {
            let neighbors = &decomp.areas[a].neighbors;
            let decode = |f: &[u8]| {
                let batch = decode_batch(f, decomp, |from| neighbors.contains(&from))?;
                if per_source {
                    keyed(batch)
                } else {
                    Some((0, batch))
                }
            };
            let n = if per_source { neighbors.len() } else { 1 };
            let left = round_end.saturating_duration_since(Instant::now());
            let (mut batches, outcome) =
                pgse_obs::with_recorder(rec, || layer.collect_decoded(n, left, decode));
            self.faults.corrupt += outcome.corrupt as u64;
            self.faults.duplicates += outcome.duplicate as u64;
            // Sort the batches by source area: network arrival order is
            // timing-dependent, and the inbox order feeds Step-2 numerics
            // — canonical order keeps same-seed runs bit-identical.
            batches.sort_by_key(|&(from, _)| from);
            let inbox: Vec<PseudoMeasurement> = batches.into_iter().flat_map(|(_, b)| b).collect();
            for &nb in neighbors {
                if !inbox.iter().any(|p| p.from_area == nb) {
                    out.missed.push((nb, a));
                }
            }
            out.inboxes.push(inbox);
        }
        if drain {
            let grace_end = Instant::now() + STRAGGLER_GRACE;
            for (layer, rec) in self.inboxes.iter_mut().zip(self.obs_areas) {
                let left = grace_end.saturating_duration_since(Instant::now());
                self.faults.late +=
                    pgse_obs::with_recorder(rec, || layer.drain_pending(left)) as u64;
            }
        }
    }
}

/// The one check at the exchange boundary: a pseudo-measurement batch
/// decodes only if every entry comes from a source `allowed` admits, names
/// a bus of that source's area, and carries finite values with σ > 0.
/// Anything else — a frame that does not parse included — is `None`, which
/// the collection counts corrupt. Where a batch stands for one sender,
/// [`keyed`] also requires every entry to name that sender.
fn decode_batch(
    frame: &[u8],
    decomp: &Decomposition,
    allowed: impl Fn(usize) -> bool,
) -> Option<Vec<PseudoMeasurement>> {
    let batch = from_wire(frame).ok()?;
    let sound = |p: &PseudoMeasurement| {
        allowed(p.from_area)
            && decomp.areas.get(p.from_area).is_some_and(|a| a.global_ids.contains(&p.global_bus))
            && [p.vm, p.va, p.sigma_vm, p.sigma_va].iter().all(|v| v.is_finite())
            && p.sigma_vm > 0.0
            && p.sigma_va > 0.0
    };
    batch.iter().all(sound).then_some(batch)
}

/// Keys a batch by its one source area. A batch stands for one sender:
/// an empty one names no source, and one whose entries name more than
/// one source is unsound — an entry from a neighbour that did not send
/// would hide that neighbour's missed delivery.
fn keyed(batch: Vec<PseudoMeasurement>) -> Option<(u64, Vec<PseudoMeasurement>)> {
    let from = batch.first()?.from_area;
    batch.iter().all(|p| p.from_area == from).then_some((from as u64, batch))
}

/// What the fault-tolerant exchange counted beyond the delivery itself.
#[derive(Debug, Default)]
struct ExchangeFaults {
    /// Frames that arrived corrupt, unparseable or failing the decode
    /// check.
    corrupt: u64,
    /// Duplicate deliveries discarded during collection.
    duplicates: u64,
    /// Stragglers drained after the round's collection ended.
    late: u64,
}

/// Builds and starts one one-way pipeline (Fig. 7), its router running
/// under `relay`.
fn build_pipeline(
    registry: &EndpointRegistry,
    in_url: &str,
    out_url: &str,
    relay_rate: f64,
    relay: &pgse_obs::Recorder,
) -> Result<PipelineHandle, pgse_medici::MwError> {
    let mut pipeline = MifPipeline::new();
    pipeline.add_mif_connector(EndpointProtocol::Tcp);
    let mut se = SeComponent::new(format!("SE[{in_url} -> {out_url}]"));
    se.set_in_name_endp(in_url);
    se.set_out_hal_endp(out_url);
    pipeline.add_mif_component(se);
    pipeline.set_relay_rate(relay_rate);
    pipeline.set_recorder(relay.clone());
    pipeline.start(registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChaosSpec;
    use pgse_dse::runner::{DropPlan, InProcess};
    use pgse_grid::cases::ieee118_like;

    fn deploy(mode: CoordinationMode) -> SystemPrototype {
        let config = PrototypeConfig { mode, ..Default::default() };
        SystemPrototype::deploy(ieee118_like(), config).unwrap()
    }

    #[test]
    fn decentralized_frame_runs_end_to_end() {
        let mut proto = deploy(CoordinationMode::Decentralized);
        let report = proto.run_frame(0.0).unwrap();
        assert_eq!(report.frame, 1);
        assert_eq!(report.step1_assignment.len(), 9);
        assert!(report.step1_imbalance >= 1.0 && report.step1_imbalance < 1.2);
        assert!(report.vm_rmse < 1e-2, "vm rmse {}", report.vm_rmse);
        assert!(report.va_rmse < 1e-2, "va rmse {}", report.va_rmse);
        assert!(report.exchanged_bytes > 0);
        // Every peer batch traversed the middleware: 24 directed sends
        // (the router's counter may trail delivery by a few frames).
        assert!(report.relayed_frames >= 20 && report.relayed_frames <= 24);
        assert_eq!(report.buses_per_cluster.iter().sum::<usize>(), 118);
        // A healthy run records no faults.
        assert!(report.exchange_healthy());
        assert!(report.missed_exchanges.is_empty());
        assert!(report.degraded_areas.is_empty());
        assert_eq!(report.corrupt_frames, 0);
    }

    #[test]
    fn dead_pipeline_frame_completes_degraded() {
        let config = PrototypeConfig {
            chaos: Some(ChaosSpec { dead: vec![(0, 1)], ..Default::default() }),
            exchange_deadline: Duration::from_millis(800),
            ..Default::default()
        };
        let mut proto = SystemPrototype::deploy(ieee118_like(), config).unwrap();
        let start = Instant::now();
        let report = proto.run_frame(0.0).unwrap();
        // The dead edge cannot hang the frame: the round ends at the
        // deadline and the frame proceeds on what arrived.
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(report.missed_exchanges.contains(&(0, 1)), "{:?}", report.missed_exchanges);
        assert!(!report.exchange_healthy());
        // One lost neighbour barely moves the estimate.
        assert!(report.vm_rmse < 1e-2, "vm rmse {}", report.vm_rmse);
    }

    #[test]
    fn seeded_drops_are_repeatable() {
        let run = |seed: u64| {
            let config = PrototypeConfig {
                chaos: Some(ChaosSpec {
                    seed,
                    drop_prob: 0.4,
                    ..Default::default()
                }),
                exchange_deadline: Duration::from_millis(600),
                ..Default::default()
            };
            let mut proto = SystemPrototype::deploy(ieee118_like(), config).unwrap();
            let report = proto.run_frame(0.0).unwrap();
            report.missed_exchanges
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same missed exchanges");
        assert!(!a.is_empty(), "40% drops over 24 edges should lose something");
    }

    #[test]
    fn duplicated_deliveries_never_double_count() {
        let config = PrototypeConfig {
            chaos: Some(ChaosSpec { seed: 7, duplicate_prob: 1.0, ..Default::default() }),
            exchange_deadline: Duration::from_millis(800),
            ..Default::default()
        };
        let mut proto = SystemPrototype::deploy(ieee118_like(), config).unwrap();
        let report = proto.run_frame(0.0).unwrap();
        // Every frame is delivered twice, yet collection counts distinct
        // sources only: the round is complete and healthy, with the extra
        // copies accounted as duplicates or drained stragglers — never as
        // received, missed or corrupt exchanges.
        assert!(report.exchange_healthy(), "missed {:?}", report.missed_exchanges);
        assert!(
            report.duplicate_frames + report.late_frames > 0,
            "duplicated deliveries must surface in the accounting"
        );
        assert_eq!(report.corrupt_frames, 0);
        assert!(report.vm_rmse < 1e-2);
        // The trace agrees with the report's split.
        let obs = proto.obs_report();
        assert_eq!(
            obs.total_counter("exchange.duplicates") + obs.total_counter("exchange.drained"),
            report.duplicate_frames + report.late_frames
        );
        assert_eq!(obs.total_counter("exchange.frames"), 24);
    }

    #[test]
    fn obs_report_covers_every_scope() {
        let mut proto = deploy(CoordinationMode::Decentralized);
        proto.run_frame(0.0).unwrap();
        let obs = proto.obs_report();
        let scopes: Vec<&str> = obs.scopes.iter().map(|s| s.scope.as_str()).collect();
        assert!(scopes.contains(&"frame"));
        for a in 0..9 {
            assert!(scopes.contains(&format!("area{a}").as_str()), "{scopes:?}");
        }
        // Healthy decentralized run: no faults scope, no coordinator.
        assert!(!scopes.contains(&"faults"));
        assert!(!scopes.contains(&"coordinator"));
        assert_eq!(obs.spans_named("frame").len(), 1);
        assert_eq!(obs.spans_named("area.step1").len(), 9);
        assert_eq!(obs.spans_named("area.step2").len(), 9);
        assert_eq!(obs.counter("frame", "mw.send.ok"), 24);
        assert_eq!(obs.counter("frame", "exchange.missed"), 0);
    }

    #[test]
    fn sessions_are_dialled_once_however_long_the_run() {
        let mut proto = deploy(CoordinationMode::Decentralized);
        let dials = |proto: &SystemPrototype| {
            let obs = proto.obs_report();
            (obs.counter("frame", "mw.connects"), obs.counter("relay", "mw.connects"))
        };
        // Deploying dials nothing: sessions open on the first send.
        assert_eq!(dials(&proto), (0, 0));
        for frame in 0..200u32 {
            proto.run_frame(f64::from(frame) * 4.0).unwrap();
            if frame + 1 == 20 {
                // 24 client → pipeline sessions plus 24 pipeline → inbox.
                assert_eq!(dials(&proto), (24, 24));
            }
        }
        assert_eq!(dials(&proto), (24, 24));
        assert_eq!(proto.obs_report().counter("frame", "mw.send.ok"), 200 * 24);
    }

    #[test]
    fn hierarchical_frame_runs_end_to_end() {
        let mut proto = deploy(CoordinationMode::Hierarchical);
        let report = proto.run_frame(0.0).unwrap();
        assert!(report.vm_rmse < 1e-2);
        // 9 uplinks + 9 downlinks through the coordinator (counter may
        // trail delivery slightly).
        assert!(report.relayed_frames >= 14 && report.relayed_frames <= 18);
    }

    #[test]
    fn successive_frames_track_the_noise_process() {
        let mut proto = deploy(CoordinationMode::Decentralized);
        let morning = proto.run_frame(86_400.0 / 4.0).unwrap();
        let evening = proto.run_frame(3.0 * 86_400.0 / 4.0).unwrap();
        assert!(morning.noise_level > evening.noise_level);
        assert!(morning.predicted_iterations > evening.predicted_iterations);
        assert_eq!(evening.frame, 2);
    }

    /// A bus of area `from` on a tie line to area `to`.
    fn tie_bus(proto: &SystemPrototype, from: usize, to: usize) -> usize {
        let net = proto.network();
        let bus = net
            .branches
            .iter()
            .find_map(|b| {
                let areas = (net.buses[b.from].area, net.buses[b.to].area);
                if areas == (from, to) {
                    Some(b.from)
                } else {
                    (areas == (to, from)).then_some(b.to)
                }
            })
            .expect("a tie line");
        assert!(proto.decomp.areas[from].global_ids.contains(&bus));
        bus
    }

    /// A sound estimate of `bus` as area `from` would export it.
    fn pseudo(from: usize, bus: usize) -> PseudoMeasurement {
        PseudoMeasurement {
            from_area: from,
            global_bus: bus,
            vm: 1.0,
            va: 0.0,
            sigma_vm: 0.003,
            sigma_va: 0.002,
        }
    }

    /// Sends the bytes `wire` makes down the 0 → 1 pipeline ahead of a
    /// frame and runs the frame: the bad batch is counted corrupt, area
    /// 0's real batch still reaches area 1, and nothing is missed or
    /// degraded.
    fn run_after_injecting(wire: impl FnOnce(&SystemPrototype) -> Vec<u8>) {
        let mut proto = deploy(CoordinationMode::Decentralized);
        let wire = wire(&proto);
        proto.client.send("tcp://pipe-0-1.dse.pnl.gov:6789", &wire).unwrap();
        let report = proto.run_frame(0.0).unwrap();
        assert_eq!(report.corrupt_frames, 1);
        assert!(report.missed_exchanges.is_empty(), "{:?}", report.missed_exchanges);
        assert!(report.degraded_areas.is_empty());
        assert!(report.vm_rmse < 1e-2, "vm rmse {}", report.vm_rmse);
    }

    #[test]
    fn an_unsound_batch_is_counted_corrupt_instead_of_crashing_the_frame() {
        // Parses, names area 0 and one of its buses, but carries σ = 0:
        // Step 2 must never see it.
        run_after_injecting(|proto| {
            let bus = tie_bus(proto, 0, 1);
            to_wire(&[PseudoMeasurement { sigma_vm: 0.0, sigma_va: 0.0, ..pseudo(0, bus) }])
        });
    }

    #[test]
    fn a_batch_that_mixes_sources_is_counted_corrupt() {
        // Each entry alone is sound for area 1's inbox, but a batch keyed
        // by area 0 that also speaks for `other` would hide a missed
        // `other` → 1 delivery.
        run_after_injecting(|proto| {
            let other = *proto.decomp.areas[1]
                .neighbors
                .iter()
                .find(|&&nb| nb != 0)
                .expect("area 1 has a neighbour besides 0");
            to_wire(&[pseudo(0, tie_bus(proto, 0, 1)), pseudo(other, tie_bus(proto, other, 1))])
        });
    }

    #[test]
    fn a_truncated_batch_is_counted_corrupt() {
        run_after_injecting(|proto| {
            let mut wire = to_wire(&[pseudo(0, tie_bus(proto, 0, 1))]);
            wire.pop();
            wire
        });
    }

    #[test]
    fn decode_batch_admits_every_finite_pattern_and_rejects_the_rest() {
        let proto = deploy(CoordinationMode::Decentralized);
        let bus = tie_bus(&proto, 0, 1);
        let decode = |p: PseudoMeasurement| decode_batch(&to_wire(&[p]), &proto.decomp, |_| true);
        for v in [-0.0, f64::from_bits(1), f64::MIN_POSITIVE / 2.0] {
            let p = PseudoMeasurement { vm: v, va: v, ..pseudo(0, bus) };
            let back = decode(p).expect("finite values are sound");
            assert_eq!((back[0].vm.to_bits(), back[0].va.to_bits()), (v.to_bits(), v.to_bits()));
        }
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        for v in [f64::INFINITY, f64::NEG_INFINITY, nan] {
            assert!(decode(PseudoMeasurement { vm: v, ..pseudo(0, bus) }).is_none());
            assert!(decode(PseudoMeasurement { va: v, ..pseudo(0, bus) }).is_none());
            assert!(decode(PseudoMeasurement { sigma_vm: v, ..pseudo(0, bus) }).is_none());
        }
    }

    #[test]
    fn every_exchange_gives_the_same_estimate() {
        // Each driver holds its own slots for the whole run, so frames 2–4
        // solve warm on held factors; only frame 1 starts cold.
        const FRAMES: usize = 4;
        let dt = |f: usize| f as f64 * 4.0;
        let run = |mode| {
            let mut proto = deploy(mode);
            let reports: Vec<FrameReport> =
                (0..FRAMES).map(|f| proto.run_frame(dt(f)).unwrap()).collect();
            (proto, reports)
        };
        let (proto, decentralized) = run(CoordinationMode::Decentralized);
        let (_, hierarchical) = run(CoordinationMode::Hierarchical);
        // The in-process exchange on the prototype's estimators, noise and
        // seeds, frame by frame on slots of its own.
        let mut slots: Vec<AreaSlot> =
            proto.estimators.iter().map(|_| AreaSlot::default()).collect();
        for f in 0..FRAMES {
            let (seed, step2_seeds) = proto.seeds(f as u64 + 1);
            let in_process = run_cycle(
                &proto.decomp,
                &proto.estimators,
                &mut slots,
                proto.config.noise.level(dt(f)),
                seed,
                &step2_seeds,
                &mut InProcess { decomp: &proto.decomp, plan: DropPlan::default() },
            )
            .unwrap();
            let (vm, va) = (in_process.vm_rmse(&proto.pf.vm), in_process.va_rmse(&proto.pf.va));
            for report in [&decentralized[f], &hierarchical[f]] {
                assert!(report.exchange_healthy(), "frame {}", f + 1);
                assert_eq!(report.vm_rmse.to_bits(), vm.to_bits(), "frame {}", f + 1);
                assert_eq!(report.va_rmse.to_bits(), va.to_bits(), "frame {}", f + 1);
                assert_eq!(report.step1_iterations, in_process.step1_iterations, "frame {}", f + 1);
            }
            assert_eq!(decentralized[f].exchanged_bytes, in_process.exchanged_bytes);
        }
        // A second same-seed run traces byte for byte alike.
        let (again, _) = run(CoordinationMode::Decentralized);
        assert_eq!(
            proto.obs_report().to_json_deterministic(),
            again.obs_report().to_json_deterministic()
        );
    }

    #[test]
    fn held_slots_stay_accurate_under_seeded_drops() {
        // A missed batch changes an area's Step-2 set shape; its held cache
        // rebuilds for that frame and the next full one.
        let config = PrototypeConfig {
            chaos: Some(ChaosSpec { seed: 42, drop_prob: 0.4, ..Default::default() }),
            exchange_deadline: Duration::from_millis(500),
            ..Default::default()
        };
        let mut proto = SystemPrototype::deploy(ieee118_like(), config).unwrap();
        let mut missed = 0;
        for f in 0..6u32 {
            let report = proto.run_frame(f64::from(f) * 4.0).unwrap();
            assert!(report.vm_rmse < 1e-2, "frame {}: vm rmse {}", report.frame, report.vm_rmse);
            missed += report.missed_exchanges.len();
        }
        assert!(missed > 0, "40% drops over 6 frames should lose something");
    }

    #[test]
    fn repartitioning_keeps_migration_small() {
        let mut proto = deploy(CoordinationMode::Decentralized);
        let report = proto.run_frame(0.0).unwrap();
        // The paper's example: only a couple of subsystems move between
        // the Step-1 and Step-2 mappings.
        assert!(report.migrations <= 4, "migrations {}", report.migrations);
        if report.migrations > 0 {
            assert!(report.redistributed_bytes > 0);
        }
    }
}
