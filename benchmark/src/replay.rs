//! Single-thread component replay: times each layer's public functions on
//! the workload's own inputs.
//!
//! The traced pass only sees the calls the harness makes, and
//! `StreamService::run` is one call. To split its cycle hop by hop
//! without instrumenting the crates, this module rebuilds the same inputs
//! the service works on (the grid, its power flow, the decomposition, one
//! estimator per area, seeded telemetry, warm solve caches) and calls the
//! public function of every hop directly, up to [`REPS`] times each,
//! reporting the median. The hops of one frame are summed into
//! `stream.cycle_replay_ms`, so the share of the end-to-end cycle that no
//! replayed hop accounts for is printed, not hidden.
//!
//! One method of [`Replay`] per group of the README's layer table; a
//! workload's traced run calls the groups of the layers it enters and no
//! other (`layers::traced_run`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgse_cluster::plan_redistribution;
use pgse_contingency::{
    analyze_one_warm, islanding_outages, ratings, Contingency, DcScreener, Limits, ScreenVerdict,
};
use pgse_dse::decomposition::decompose;
use pgse_dse::runner::aggregate;
use pgse_dse::{
    AreaEstimator, AreaSolution, Decomposition, DecompositionOptions, PseudoMeasurement,
};
use pgse_estimation::measurement::{MeasurementKind, MeasurementSet};
use pgse_estimation::synthetic::NoiseProcess;
use pgse_estimation::wls::{SolveCache, WlsOptions};
use pgse_estimation::{baddata, restoration};
use pgse_grid::Network;
use pgse_medici::{EndpointProtocol, EndpointRegistry, MifPipeline, MwClient, SeComponent};
use pgse_mpilite::dpcg::{dpcg_solve, extract_row_block, row_range};
use pgse_mpilite::spawn_world;
use pgse_partition::weights::{initial_graph, step1_graph, step2_graph, SubsystemProfile};
use pgse_partition::{partition_kway, repartition, KwayOptions, RepartitionOptions};
use pgse_powerflow::{solve, PfOptions, PfSolution};
use pgse_serve::{
    decode_msg, tail_store, wire, AreaMap, Broadcaster, DeliveryMode, Subscription,
    SubscriptionFilter,
};
use pgse_sparsela::{BatchPlan, CholSymbolic, Csr, SparseCholesky};
use pgse_stream::{IngestQueue, SnapshotStore, StreamFrame, StreamService, SystemSnapshot};

use crate::stats::median;
use crate::workloads::fanout::{reader_shape, EpochGenerator, N_READERS};
use crate::workloads::stream::{grid, stream_config};
use crate::workloads::Workload;

/// Repetitions of each replayed function (fewer when one call is slow).
pub const REPS: usize = 200;
/// Wall-time budget per replayed function; once spent, the repetitions
/// stop early (never below [`MIN_REPS`]).
const BUDGET: Duration = Duration::from_millis(150);
const MIN_REPS: usize = 3;
/// Distinct telemetry frames the warm solves cycle through, so a warm
/// start always meets new measurement values.
const N_FRAMES: usize = 8;
/// Model-time spacing of those frames.
const FRAME_INTERVAL_S: f64 = 4.0;

/// Shortest timed sample. A function faster than this is called in a
/// batch per sample, so a 40 ns call is not read off a clock that ticks in
/// tens of nanoseconds and the median keeps its digits.
const MIN_SAMPLE: Duration = Duration::from_micros(20);
const MAX_BATCH: usize = 4096;

/// Median seconds per call of `run` over up to [`REPS`] samples within
/// [`BUDGET`]. `prepare` builds each call's input outside the timed
/// section and receives the running call index.
fn med_prepared<I, T>(mut prepare: impl FnMut(usize) -> I, mut run: impl FnMut(I) -> T) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    let mut sample = |batch: usize| -> f64 {
        let inputs: Vec<I> = (calls..calls + batch).map(&mut prepare).collect();
        calls += batch;
        let t0 = Instant::now();
        for input in inputs {
            std::hint::black_box(run(input));
        }
        t0.elapsed().as_secs_f64() / batch as f64
    };
    // The first call sizes the batch (and warms the caches).
    let first = sample(1);
    let batch = ((MIN_SAMPLE.as_secs_f64() / first.max(1e-9)) as usize).clamp(1, MAX_BATCH);
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        if rep >= MIN_REPS && started.elapsed() > BUDGET {
            break;
        }
        samples.push(sample(batch));
    }
    median(&samples)
}

/// [`med_prepared`] for a function whose only input is the call index.
fn med<T>(f: impl FnMut(usize) -> T) -> f64 {
    med_prepared(|call| call, f)
}

/// The per-layer replay metrics by name; times in the unit the name
/// carries (`_ms`, `_us`, `_ns`).
pub type ReplayValues = BTreeMap<&'static str, f64>;

/// The inputs every group works on — the workload's grid, its power flow
/// and its decomposition — and the values measured so far.
pub struct Replay {
    workload: Workload,
    seed: u64,
    net: Network,
    pf: PfSolution,
    decomp: Decomposition,
    pub values: ReplayValues,
}

/// What the groups that solve need on top: one estimator per area, seeded
/// telemetry for [`N_FRAMES`] frames, and Step-1 solutions with the warm
/// caches that produced them.
struct Areas {
    ests: Vec<AreaEstimator>,
    sets: Vec<Vec<MeasurementSet>>,
    s1_caches: Vec<SolveCache>,
    s1: Vec<AreaSolution>,
}

fn frame_noise(f: usize) -> f64 {
    NoiseProcess::default().level(f as f64 * FRAME_INTERVAL_S)
}

impl Replay {
    /// Builds the grid of `w`, solves its power flow and decomposes it.
    ///
    /// # Errors
    /// When the grid does not assemble or its power flow diverges.
    pub fn new(w: Workload, seed: u64) -> Result<Self, String> {
        let net = grid(w)?;
        let pf =
            solve(&net, &PfOptions::default()).map_err(|e| format!("power flow failed: {e}"))?;
        let decomp = decompose(&net, &DecompositionOptions::default());
        Ok(Replay {
            workload: w,
            seed,
            net,
            pf,
            decomp,
            values: ReplayValues::new(),
        })
    }

    fn frame_seed(&self, f: usize) -> u64 {
        self.seed ^ (f as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn build_estimators(&self) -> Vec<AreaEstimator> {
        self.decomp
            .areas
            .iter()
            .map(|a| AreaEstimator::new(a.clone(), &self.net, &self.pf, WlsOptions::direct()))
            .collect()
    }

    fn telemetry(&self, ests: &[AreaEstimator], f: usize) -> Vec<MeasurementSet> {
        ests.iter()
            .map(|e| e.generate_telemetry(frame_noise(f), self.frame_seed(f)))
            .collect()
    }

    fn areas(&self) -> Result<Areas, String> {
        let ests = self.build_estimators();
        let sets: Vec<Vec<MeasurementSet>> =
            (0..N_FRAMES).map(|f| self.telemetry(&ests, f)).collect();
        let mut s1_caches: Vec<SolveCache> = ests.iter().map(|_| SolveCache::new()).collect();
        // The first solve builds the symbolic structures.
        let s1 = step1_all(&ests, &sets[0], &mut s1_caches)?;
        Ok(Areas {
            ests,
            sets,
            s1_caches,
            s1,
        })
    }

    fn area_map(&self) -> AreaMap {
        AreaMap::new(
            self.decomp
                .areas
                .iter()
                .map(|a| a.global_ids.iter().map(|&g| g as u32).collect())
                .collect(),
            self.net.n_buses() as u32,
        )
    }

    /// Set-up every workload pays: the grid and its power flow.
    pub fn grid_set_up(&mut self) {
        let build_ms = 1e3 * med(|_| grid(self.workload));
        let solve_ms = 1e3 * med(|_| solve(&self.net, &PfOptions::default()));
        self.values.insert("grid.build_ms", build_ms);
        self.values.insert("powerflow.solve_ms", solve_ms);
    }

    /// Set-up of the workloads that estimate: decomposition, estimators,
    /// the initial partition.
    pub fn dse_set_up(&mut self) {
        let bus_counts: Vec<usize> = self
            .decomp
            .areas
            .iter()
            .map(|a| a.global_ids.len())
            .collect();
        let graph = initial_graph(&bus_counts, &self.decomp.edges);
        let decompose_ms = 1e3 * med(|_| decompose(&self.net, &DecompositionOptions::default()));
        let build_ms = 1e3 * med(|_| self.build_estimators());
        let kway_us = 1e6 * med(|_| partition_kway(&graph, 3, &KwayOptions::default()));
        self.values.insert("dse.decompose_ms", decompose_ms);
        self.values.insert("dse.estimator_build_ms", build_ms);
        self.values.insert("partition.kway_us", kway_us);
    }

    /// `StreamService::deploy` and what of it the set-up metrics above do
    /// not cover. Call after [`Self::grid_set_up`] and [`Self::dse_set_up`].
    ///
    /// # Errors
    /// When the service does not deploy.
    pub fn stream_deploy(&mut self) -> Result<(), String> {
        let mut deploy_failed = None;
        let deploy_ms = 1e3
            * med(|_| {
                let cfg = stream_config(self.workload, &self.net, 1, self.seed);
                if let Err(e) = StreamService::deploy(&self.net, cfg) {
                    deploy_failed = Some(e.to_string());
                }
            });
        if let Some(e) = deploy_failed {
            return Err(format!("stream service did not deploy: {e}"));
        }
        let v = &mut self.values;
        v.insert("stream.deploy_ms", deploy_ms);
        v.insert(
            "stream.deploy_unattributed_ms",
            deploy_ms
                - v["powerflow.solve_ms"]
                - v["dse.decompose_ms"]
                - v["dse.estimator_build_ms"]
                - v["partition.kway_us"] / 1e3,
        );
        Ok(())
    }

    /// Feeder → ingest: telemetry, PGSF encode/decode, one medici send per
    /// area, the ingest queue.
    ///
    /// # Errors
    /// When an endpoint cannot be bound or a send fails.
    pub fn feeder_to_ingest(&mut self) -> Result<(), String> {
        let mut v = ReplayValues::new();
        let ests = self.build_estimators();
        v.insert(
            "estimation.telemetry_us",
            1e6 * med(|rep| self.telemetry(&ests, rep % N_FRAMES)),
        );

        let frames: Vec<StreamFrame> = self
            .telemetry(&ests, 0)
            .into_iter()
            .enumerate()
            .map(|(a, set)| StreamFrame::new(a as u32, 0, 0.0, set))
            .collect();
        let encode_all = || -> Vec<Vec<u8>> { frames.iter().map(pgse_stream::encode).collect() };
        let encoded = encode_all();
        v.insert("stream.wire.encode_us", 1e6 * med(|_| encode_all()));
        v.insert(
            "stream.wire.decode_us",
            1e6 * med(|_| {
                encoded
                    .iter()
                    .map(|b| pgse_stream::decode(b).is_ok())
                    .filter(|ok| *ok)
                    .count()
            }),
        );
        v.insert(
            "stream.wire.frame_bytes",
            encoded.iter().map(Vec::len).sum::<usize>() as f64,
        );

        // One frame, one connect, one accept: what the feeder pays per
        // area per scan today.
        let registry = EndpointRegistry::new();
        let ingest_url = "tcp://replay-ingest.benchmark:7100";
        let listener = registry
            .bind(ingest_url)
            .map_err(|e| format!("bind {ingest_url}: {e}"))?;
        let client = MwClient::new(registry.clone());
        let mut hop_failed = None;
        let send_recv_us = 1e6
            * med(|_| {
                let sent = client.send(ingest_url, &encoded[0]).map(|_| ());
                let got = MwClient::recv_deadline_on(&listener, Duration::from_secs(2)).map(|_| ());
                if let Err(e) = sent.and(got) {
                    hop_failed = Some(e.to_string());
                }
            });
        if let Some(e) = hop_failed {
            return Err(format!("medici send/receive failed: {e}"));
        }
        v.insert("medici.send_recv_us", send_recv_us);

        let queues: Vec<IngestQueue> = frames.iter().map(|_| IngestQueue::new(8)).collect();
        v.insert(
            "stream.ingest.push_pop_us",
            1e6 * med_prepared(
                // The queue sheds non-advancing sequences as stale.
                |call| -> Vec<StreamFrame> {
                    frames
                        .iter()
                        .map(|f| StreamFrame {
                            seq: call as u64,
                            ..f.clone()
                        })
                        .collect()
                },
                |scan| {
                    for (q, frame) in queues.iter().zip(scan) {
                        q.push(frame);
                        std::hint::black_box(q.pop_latest(Duration::from_millis(50)));
                    }
                },
            ),
        );
        self.values.extend(v);
        Ok(())
    }

    /// Solve: warm Step 1 / exchange / Step 2 / aggregate over all areas,
    /// and the sparse kernels on every area's Step-1 gain system.
    ///
    /// # Errors
    /// When a solve or a factorization fails.
    pub fn solve(&mut self) -> Result<(), String> {
        let mut v = ReplayValues::new();
        let Areas {
            ests,
            sets,
            mut s1_caches,
            s1,
        } = self.areas()?;
        let mut s2_caches: Vec<SolveCache> = ests.iter().map(|_| SolveCache::new()).collect();
        let inboxes = exchange(&ests, &s1);
        let step2_all =
            |f: usize, caches: &mut [SolveCache]| -> Result<Vec<AreaSolution>, String> {
                ests.iter()
                    .enumerate()
                    .zip(caches.iter_mut())
                    .map(|((a, est), cache)| {
                        est.step2_cached(
                            &s1[a],
                            &inboxes[a],
                            &sets[f][a],
                            frame_noise(f),
                            self.frame_seed(f) ^ 2,
                            cache,
                        )
                    })
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("step 2 failed: {e}"))
            };
        let s2 = step2_all(0, &mut s2_caches)?;
        let mut solve_failed = None;
        v.insert(
            "dse.step1_ms",
            1e3 * med(|rep| {
                if let Err(e) = step1_all(&ests, &sets[(rep + 1) % N_FRAMES], &mut s1_caches) {
                    solve_failed = Some(e);
                }
            }),
        );
        v.insert("dse.exchange_us", 1e6 * med(|_| exchange(&ests, &s1)));
        v.insert(
            "dse.step2_ms",
            1e3 * med(|rep| {
                if let Err(e) = step2_all((rep + 1) % N_FRAMES, &mut s2_caches) {
                    solve_failed = Some(e);
                }
            }),
        );
        if let Some(e) = solve_failed {
            return Err(e);
        }
        v.insert(
            "dse.aggregate_us",
            1e6 * med(|_| aggregate(&self.decomp, &s2)),
        );

        let systems = gain_systems(&ests, &sets[0]);
        let symbolics: Vec<Arc<CholSymbolic>> = systems
            .iter()
            .map(|(g, _)| Arc::new(CholSymbolic::analyze(g)))
            .collect();
        let factor_all = || -> Result<Vec<SparseCholesky>, String> {
            systems
                .iter()
                .zip(&symbolics)
                .map(|((g, _), sym)| SparseCholesky::factor_with_symbolic(Arc::clone(sym), g))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("gain factorization failed: {e}"))
        };
        let mut factors = factor_all()?;
        v.insert(
            "sparsela.symbolic_us",
            1e6 * med(|_| {
                systems
                    .iter()
                    .map(|(g, _)| CholSymbolic::analyze(g).l_nnz())
                    .sum::<usize>()
            }),
        );
        v.insert("sparsela.factor_us", 1e6 * med(|_| factor_all().is_ok()));
        v.insert(
            "sparsela.refactor_us",
            1e6 * med(|_| {
                factors
                    .iter_mut()
                    .zip(&systems)
                    .map(|(f, (g, _))| f.refactor(g).is_ok())
                    .filter(|ok| *ok)
                    .count()
            }),
        );
        v.insert(
            "sparsela.solve_us",
            1e6 * med(|_| {
                factors
                    .iter()
                    .zip(&systems)
                    .map(|(f, (_, rhs))| f.solve(rhs))
                    .collect::<Vec<_>>()
            }),
        );
        v.insert(
            "sparsela.l_nnz",
            factors.iter().map(SparseCholesky::l_nnz).sum::<usize>() as f64,
        );
        let wave: Vec<(&Csr, &[f64])> =
            systems.iter().map(|(g, rhs)| (g, rhs.as_slice())).collect();
        let mut plan = BatchPlan::new();
        plan.solve_round(&wave);
        v.insert(
            "sparsela.round_us",
            1e6 * med(|_| plan.solve_round(&wave).batched_lanes),
        );
        self.values.extend(v);
        Ok(())
    }

    /// Robust path: the chi-square gate, one LNR loop on a 25σ gross
    /// error, one restoration of a two-site RTU outage.
    ///
    /// # Errors
    /// When the LNR loop fails or does not clear the error.
    pub fn robust_path(&mut self) -> Result<(), String> {
        let mut v = ReplayValues::new();
        let Areas { ests, sets, s1, .. } = self.areas()?;
        let est0 = ests[0].step1_estimator();
        let dim0 = est0.space().dim();
        v.insert(
            "estimation.chi2_gate_us",
            1e6 * med(|_| {
                ests.iter()
                    .zip(&sets[0])
                    .map(|(e, set)| {
                        let dim = e.step1_estimator().space().dim();
                        baddata::chi_square_critical(set.len().saturating_sub(dim).max(1), 0.999)
                    })
                    .sum::<f64>()
            }),
        );
        // One 25σ gross error in area 0's scan: what every suspect frame
        // of `faults118` hands to the LNR loop.
        let gross: MeasurementSet = sets[0][0]
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut m = *m;
                if i == dim0 % sets[0][0].len() {
                    m.value += 25.0 * m.sigma;
                }
                m
            })
            .collect();
        let mut lnr_failed = None;
        v.insert(
            "estimation.lnr_ms",
            1e3 * med(
                |_| match baddata::identify_and_remove(est0, &gross, 0.999, 4) {
                    Ok(rep) if rep.clean => {}
                    Ok(_) => {
                        lnr_failed = Some("the LNR loop did not clear a 25σ error".to_string())
                    }
                    Err(e) => lnr_failed = Some(format!("the LNR re-solve failed: {e}")),
                },
            ),
        );
        if let Some(e) = lnr_failed {
            return Err(e);
        }
        // An RTU outage silencing two sites of area 0.
        let net0 = est0.network();
        let dead = [1usize, net0.n_buses() / 2];
        let short: MeasurementSet = sets[0][0]
            .as_slice()
            .iter()
            .filter(|m| {
                let on_dead_branch = match m.kind {
                    MeasurementKind::Pflow { branch, .. }
                    | MeasurementKind::Qflow { branch, .. } => {
                        let br = &net0.branches[branch];
                        dead.contains(&br.from) || dead.contains(&br.to)
                    }
                    _ => false,
                };
                !on_dead_branch && !dead.contains(&m.kind.site(&net0.branches))
            })
            .copied()
            .collect();
        v.insert(
            "estimation.restore_us",
            1e6 * med(|_| {
                restoration::restore(net0, &short, est0.space(), &s1[0].vm, &s1[0].va)
                    .1
                    .added
                    .len()
            }),
        );
        self.values.extend(v);
        Ok(())
    }

    /// Publish → reader, the part a stream's frame passes through: the
    /// snapshot store and the tail thread that forwards it to the
    /// broadcaster.
    ///
    /// # Errors
    /// When the store refuses a publish.
    pub fn store_and_tail(&mut self) -> Result<(), String> {
        let mut v = ReplayValues::new();
        let mut generator = EpochGenerator::new(self.pf.vm.clone(), self.pf.va.clone(), self.seed);
        let store = SnapshotStore::new();
        let mut publish_failed = false;
        v.insert(
            "stream.store.publish_us",
            1e6 * med_prepared(
                |_| generator.next_snapshot(),
                |snap| publish_failed |= store.publish(snap).is_err(),
            ),
        );
        if publish_failed {
            return Err("the snapshot store refused a monotone publish".into());
        }
        v.insert("stream.store.load_ns", 1e9 * med(|_| store.load()));

        // Store publish → the tail thread forwards it → an in-process
        // subscriber holds the buffer.
        let tail_store_ = SnapshotStore::new();
        let tail_bc = Arc::new(Broadcaster::new(self.area_map(), 16));
        let tail_sub = Subscription::open(&tail_bc, SubscriptionFilter::All, DeliveryMode::Delta)
            .ok_or("the All filter does not resolve")?;
        let stop = AtomicBool::new(false);
        let mut lags = Vec::with_capacity(REPS);
        std::thread::scope(|s| {
            let tail =
                s.spawn(|| tail_store(&tail_store_, &tail_bc, &stop, Duration::from_micros(100)));
            for _ in 0..REPS {
                let snap = generator.next_snapshot();
                let t0 = Instant::now();
                if tail_store_.publish(snap).is_err() {
                    break;
                }
                while tail_sub.recv().is_none() && t0.elapsed() < Duration::from_secs(1) {
                    std::hint::spin_loop();
                }
                lags.push(t0.elapsed().as_secs_f64());
            }
            stop.store(true, Ordering::SeqCst);
            tail.join().expect("tail thread does not panic");
        });
        tail_sub.close();
        v.insert("serve.tail_lag_us", 1e6 * median(&lags));
        self.values.extend(v);
        Ok(())
    }

    /// Publish → reader, the serving layer: PGSS encode and decode, and
    /// the 64-subscriber mix of `fanout118` in process — one publish, then
    /// every subscriber drains and decodes.
    ///
    /// # Errors
    /// When the store refuses a publish or a filter does not resolve.
    pub fn serve(&mut self) -> Result<(), String> {
        let mut v = ReplayValues::new();
        let mut generator = EpochGenerator::new(self.pf.vm.clone(), self.pf.va.clone(), self.seed);
        let store = SnapshotStore::new();
        let mut next_published = || -> Result<Arc<SystemSnapshot>, String> {
            store
                .publish(generator.next_snapshot())
                .map_err(|_| "the snapshot store refused a monotone publish")?;
            store
                .load()
                .ok_or_else(|| "the snapshot store is empty after publishing".to_string())
        };
        let all_ids: Vec<u32> = (0..self.net.n_buses() as u32).collect();
        let prev = next_published()?;
        let next = next_published()?;
        let full = wire::encode_full(&next, SubscriptionFilter::All, &all_ids);
        let delta = wire::encode_delta(&prev, &next, SubscriptionFilter::All, &all_ids);
        v.insert(
            "serve.encode_full_us",
            1e6 * med(|_| wire::encode_full(&next, SubscriptionFilter::All, &all_ids)),
        );
        v.insert(
            "serve.encode_delta_us",
            1e6 * med(|_| wire::encode_delta(&prev, &next, SubscriptionFilter::All, &all_ids)),
        );
        v.insert("serve.decode_us", 1e6 * med(|_| decode_msg(&delta).is_ok()));
        v.insert(
            "serve.delta_full_ratio",
            delta.len() as f64 / full.len() as f64,
        );

        let n_areas = self.decomp.areas.len() as u32;
        let bc = Arc::new(Broadcaster::new(self.area_map(), 16));
        let subs: Vec<Subscription> = (0..N_READERS)
            .map(|i| {
                let (filter, mode) = reader_shape(i, n_areas);
                Subscription::open(&bc, filter, mode)
                    .ok_or(format!("subscriber {i}: filter does not resolve"))
            })
            .collect::<Result<_, _>>()?;
        let mut publish_s = Vec::with_capacity(REPS);
        let mut delivery_s = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let snap = next_published()?;
            let t0 = Instant::now();
            bc.publish(&snap);
            publish_s.push(t0.elapsed().as_secs_f64());
            for sub in &subs {
                while let Some(buf) = sub.recv() {
                    std::hint::black_box(decode_msg(&buf.bytes).is_ok());
                }
            }
            delivery_s.push(t0.elapsed().as_secs_f64() / N_READERS as f64);
        }
        for sub in subs {
            sub.close();
        }
        v.insert("serve.publish_us", 1e6 * median(&publish_s));
        v.insert("serve.inproc_delivery_ns", 1e9 * median(&delivery_s));
        self.values.extend(v);
        Ok(())
    }

    /// Screening: the DC screener's set-up, the bridge gate, one DC screen
    /// per case, one warm AC confirmation per suspect.
    ///
    /// # Errors
    /// When the DC screener cannot be set up.
    pub fn screening(&mut self) -> Result<(), String> {
        let mut v = ReplayValues::new();
        let (net, pf) = (&self.net, &self.pf);
        let limits = Limits::default();
        v.insert(
            "contingency.dc_setup_ms",
            1e3 * med(|_| DcScreener::new(net, &limits).is_ok()),
        );
        v.insert(
            "contingency.bridge_gate_us",
            1e6 * med(|_| islanding_outages(net)),
        );
        let screener =
            DcScreener::new(net, &limits).map_err(|e| format!("DC screener set-up failed: {e}"))?;
        let islanding = islanding_outages(net);
        let cases: Vec<usize> = (0..net.n_branches())
            .filter(|k| islanding.binary_search(k).is_err())
            .collect();
        let sweep_s = med(|_| {
            cases
                .iter()
                .map(|&k| screener.screen_outage(k))
                .collect::<Vec<_>>()
        });
        v.insert(
            "contingency.dc_screen_us",
            1e6 * sweep_s / cases.len().max(1) as f64,
        );
        let suspects: Vec<usize> = cases
            .iter()
            .copied()
            .filter(|&k| match screener.screen_outage(k) {
                ScreenVerdict::Screened(c) => c.max_loading >= 0.9,
                ScreenVerdict::Islanding => false,
            })
            // One warm AC confirmation is a full power flow, 9 ms at 118
            // buses. A few suspects give the median.
            .take(4)
            .collect();
        let rat = ratings(net, pf, &limits);
        let confirm_s = med(|_| {
            suspects
                .iter()
                .map(|&k| analyze_one_warm(net, Contingency::BranchOutage(k), &rat, &limits, pf))
                .collect::<Vec<_>>()
        });
        v.insert(
            "contingency.ac_confirm_ms",
            1e3 * confirm_s / suspects.len().max(1) as f64,
        );
        self.values.extend(v);
        Ok(())
    }

    /// Prototype: per-frame repartition, the redistribution plan, one
    /// store-and-forward pipeline hop at the exchanged payload size, and
    /// distributed PCG over 2 ranks.
    ///
    /// # Errors
    /// When an endpoint cannot be bound, the pipeline does not start, a
    /// relay fails or PCG does not converge.
    pub fn prototype(&mut self) -> Result<(), String> {
        let mut v = ReplayValues::new();
        let Areas { ests, sets, s1, .. } = self.areas()?;
        let decomp = &self.decomp;
        let profiles: Vec<SubsystemProfile> = decomp
            .areas
            .iter()
            .map(|a| SubsystemProfile {
                n_buses: a.subnet.n_buses(),
                gs: a.gs(),
                g1: 3.7579,
                g2: 5.2464,
            })
            .collect();
        let g1 = step1_graph(&profiles, &decomp.edges, 1.0);
        let g2 = step2_graph(&profiles, &decomp.edges, 1.0);
        let p1 = partition_kway(&g1, 3, &KwayOptions::default());
        v.insert(
            "partition.repartition_us",
            1e6 * med(|_| repartition(&g2, &p1, &RepartitionOptions::default())),
        );
        let p2 = repartition(&g2, &p1, &RepartitionOptions::default());
        let area_bytes: Vec<u64> = sets[0].iter().map(|s| s.wire_size() as u64).collect();
        v.insert(
            "cluster.redistribution_plan_us",
            1e6 * med(|_| {
                plan_redistribution(&p1.assignment, &p2.assignment, &area_bytes).total_bytes()
            }),
        );

        // One store-and-forward pipeline hop at the size of one area's
        // pseudo-measurement exchange.
        let payload = pgse_dse::pseudo::to_wire(&ests[0].export_pseudo(&s1[0]));
        let (in_url, out_url) = (
            "tcp://replay-pipe.benchmark:6789",
            "tcp://replay-inbox.benchmark:5000",
        );
        let registry = EndpointRegistry::new();
        let client = MwClient::new(registry.clone());
        let inbox = registry
            .bind(out_url)
            .map_err(|e| format!("bind {out_url}: {e}"))?;
        let mut pipeline = MifPipeline::new();
        pipeline.add_mif_connector(EndpointProtocol::Tcp);
        let mut se = SeComponent::new("replay relay");
        se.set_in_name_endp(in_url);
        se.set_out_hal_endp(out_url);
        pipeline.add_mif_component(se);
        pipeline.set_relay_rate(pgse_medici::throttle::PAPER_RELAY_RATE);
        let handle = pipeline
            .start(&registry)
            .map_err(|e| format!("relay pipeline did not start: {e}"))?;
        let mut relay_failed = None;
        let relay_us = 1e6
            * med(|_| {
                let sent = client.send(in_url, &payload).map(|_| ());
                let got = MwClient::recv_deadline_on(&inbox, Duration::from_secs(2)).map(|_| ());
                if let Err(e) = sent.and(got) {
                    relay_failed = Some(e.to_string());
                }
            });
        handle.stop();
        if let Some(e) = relay_failed {
            return Err(format!("pipeline relay failed: {e}"));
        }
        v.insert("medici.relay_us", relay_us);

        // Distributed PCG over 2 ranks on the largest area's gain system:
        // moves no end-to-end metric today, kept for the paper's tables.
        let systems = gain_systems(&ests, &sets[0]);
        let (gain, rhs) = systems
            .iter()
            .max_by_key(|(g, _)| g.nrows())
            .ok_or("the decomposition has no areas")?;
        let n = gain.nrows();
        let mut dpcg_failed = false;
        v.insert(
            "mpilite.dpcg_ms",
            1e3 * med(|_| {
                let out = spawn_world(2, |mut comm| {
                    let block = extract_row_block(gain, 2, comm.rank());
                    let range = row_range(n, 2, comm.rank());
                    dpcg_solve(&mut comm, &block, &rhs[range], 1e-8, 5000)
                        .is_ok_and(|o| o.converged)
                });
                dpcg_failed |= out.contains(&false);
            }),
        );
        if dpcg_failed {
            return Err("distributed PCG did not converge".into());
        }
        self.values.extend(v);
        Ok(())
    }
}

/// Warm Step 1 of every area on one frame's telemetry.
fn step1_all(
    ests: &[AreaEstimator],
    sets: &[MeasurementSet],
    caches: &mut [SolveCache],
) -> Result<Vec<AreaSolution>, String> {
    ests.iter()
        .zip(sets)
        .zip(caches.iter_mut())
        .map(|((est, set), cache)| est.step1_cached(set, cache))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("step 1 failed: {e}"))
}

/// Every area exports its boundary pseudo measurements and collects its
/// neighbours'.
fn exchange(ests: &[AreaEstimator], sols: &[AreaSolution]) -> Vec<Vec<PseudoMeasurement>> {
    let pseudo: Vec<Vec<PseudoMeasurement>> = ests
        .iter()
        .zip(sols)
        .map(|(est, sol)| est.export_pseudo(sol))
        .collect();
    ests.iter()
        .map(|est| {
            est.info
                .neighbors
                .iter()
                .flat_map(|&nb| pseudo[nb].iter().copied())
                .collect()
        })
        .collect()
}

/// The Step-1 gain system of every area.
fn gain_systems(ests: &[AreaEstimator], sets: &[MeasurementSet]) -> Vec<(Csr, Vec<f64>)> {
    ests.iter()
        .zip(sets)
        .map(|(est, set)| est.step1_gain_system(set))
        .collect()
}
