//! `fanout118`: the serving layer alone, 64 streamed TCP readers.
//!
//! `Broadcaster` + `SnapshotServer` with 48 area/delta, 8 all/delta and
//! 8 bus-range/full `RemoteReader`s, every one read by the harness
//! thread. About a tenth of the buses move per epoch. `serve` wire, mux
//! and reactor do all the work; delta and full subscribers share the
//! encoder, so a delta gain that costs full readers shows here.
//!
//! The next epoch is published only after the 64th reader decoded the
//! previous one. The latency of an epoch is that whole fan-out — a sum
//! over 64 deliveries, not one sub-millisecond delivery.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pgse_dse::decomposition::decompose;
use pgse_dse::DecompositionOptions;
use pgse_grid::cases::ieee118_like;
use pgse_medici::EndpointRegistry;
use pgse_powerflow::{solve, PfOptions};
use pgse_serve::{
    apply_delta, AreaMap, Broadcaster, DeliveryMode, FullView, RemoteReader, ServeConfig, ServeMsg,
    ServeReport, SnapshotServer, Subscribe, SubscriptionFilter,
};
use pgse_stream::{SnapshotStore, SystemSnapshot};

use super::{splitmix, unit, Detail, Meter, Pass};
use crate::spans::{Tracer, NO_PARENT};

/// Streamed readers.
pub const N_READERS: usize = 64;
const SERVE_URL: &str = "tcp://fanout.benchmark:9000";
const READ_DEADLINE: Duration = Duration::from_secs(10);

/// Filter and mode of reader `i`: 48 area/delta, 8 all/delta, 8
/// bus-range/full.
pub fn reader_shape(i: usize, n_areas: u32) -> (SubscriptionFilter, DeliveryMode) {
    match i % 8 {
        0..=5 => (
            SubscriptionFilter::Area(i as u32 % n_areas),
            DeliveryMode::Delta,
        ),
        6 => (SubscriptionFilter::All, DeliveryMode::Delta),
        _ => (
            SubscriptionFilter::BusRange {
                start: (i as u32 * 13) % 100,
                len: 12,
            },
            DeliveryMode::Full,
        ),
    }
}

/// Seeded epoch generator: each epoch moves about a tenth of the buses
/// of the previous one (the `serve_bench` regime delta encoding is for).
#[derive(Debug, Clone)]
pub struct EpochGenerator {
    vm: Vec<f64>,
    va: Vec<f64>,
    state: u64,
    frame_seq: u64,
}

impl EpochGenerator {
    /// A generator starting from the solved state `(vm, va)`.
    pub fn new(vm: Vec<f64>, va: Vec<f64>, seed: u64) -> Self {
        EpochGenerator {
            vm,
            va,
            state: seed ^ 0xfa40_0118,
            frame_seq: 0,
        }
    }

    /// The next snapshot (epoch unset; the store stamps it).
    pub fn next_snapshot(&mut self) -> SystemSnapshot {
        let n = self.vm.len();
        let mut i = splitmix(&mut self.state) as usize % n;
        for _ in 0..(n / 10).max(1) {
            self.vm[i] += 1e-4 * unit(&mut self.state);
            self.va[i] += 1e-5 * unit(&mut self.state);
            i = (i + 11) % n;
        }
        self.frame_seq += 1;
        SystemSnapshot {
            epoch: 0,
            frame_seq: self.frame_seq,
            dt_seconds: self.frame_seq as f64 * 0.05,
            vm: self.vm.clone(),
            va: self.va.clone(),
            degraded_areas: Vec::new(),
        }
    }
}

/// Server, readers and generator, connected and subscribed.
pub struct FanoutReady {
    generator: EpochGenerator,
    store: SnapshotStore,
    bc: Arc<Broadcaster>,
    server: SnapshotServer,
    readers: Vec<(SubscriptionFilter, RemoteReader)>,
}

impl std::fmt::Debug for FanoutReady {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutReady")
            .field("readers", &self.readers.len())
            .finish_non_exhaustive()
    }
}

/// Counts of one fan-out pass.
#[derive(Debug)]
pub struct FanoutDetail {
    pub serve: ServeReport,
    pub epochs: u64,
}

/// Solves the base case, starts the server and connects the 64 readers
/// of `fanout118`.
///
/// # Errors
/// A one-line description of the step that failed.
pub fn setup(seed: u64, tracer: &Tracer) -> Result<FanoutReady, String> {
    setup_readers(seed, N_READERS, reader_shape, tracer)
}

/// [`setup`] with `n_readers` readers, reader `i` subscribing with
/// `shape(i, n_areas)`. The traced stream passes use it with the stream's
/// one All/Delta reader to time their socket hop alone.
///
/// # Errors
/// A one-line description of the step that failed.
pub fn setup_readers(
    seed: u64,
    n_readers: usize,
    shape: impl Fn(usize, u32) -> (SubscriptionFilter, DeliveryMode),
    tracer: &Tracer,
) -> Result<FanoutReady, String> {
    let root = tracer.begin("setup", NO_PARENT, 0);
    let net = tracer.scoped("grid.build", root.id(), 0, ieee118_like);
    let pf = tracer
        .scoped("powerflow.solve", root.id(), 0, || {
            solve(&net, &PfOptions::default())
        })
        .map_err(|e| format!("base power flow failed: {e}"))?;
    let decomp = tracer.scoped("dse.decompose", root.id(), 0, || {
        decompose(&net, &DecompositionOptions::default())
    });
    let map = AreaMap::new(
        decomp
            .areas
            .iter()
            .map(|a| a.global_ids.iter().map(|&g| g as u32).collect())
            .collect(),
        net.n_buses() as u32,
    );
    let n_areas = map.n_areas() as u32;
    let registry = EndpointRegistry::new();
    let bc = Arc::new(Broadcaster::new(map, 16));
    let server = tracer
        .scoped("serve.start", root.id(), 0, || {
            SnapshotServer::start(
                &registry,
                ServeConfig {
                    url: SERVE_URL.into(),
                    ..ServeConfig::default()
                },
                Arc::clone(&bc),
            )
        })
        .map_err(|e| format!("snapshot server did not start: {e}"))?;
    let connect = tracer.begin("serve.reader_connect", root.id(), 0);
    let mut readers = Vec::with_capacity(n_readers);
    for i in 0..n_readers {
        let (filter, mode) = shape(i, n_areas);
        let reader = RemoteReader::connect(
            &registry,
            SERVE_URL,
            Subscribe {
                filter,
                mode,
                deliver_url: None,
            },
        )
        .map_err(|e| format!("reader {i} did not connect: {e}"))?;
        readers.push((filter, reader));
    }
    let t0 = Instant::now();
    while bc.n_subscribers() < n_readers {
        if t0.elapsed() > Duration::from_secs(10) {
            return Err(format!(
                "the reactor registered {} of {n_readers} readers within 10 s",
                bc.n_subscribers()
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    connect.end();
    root.end();
    Ok(FanoutReady {
        generator: EpochGenerator::new(pf.vm, pf.va, seed),
        store: SnapshotStore::new(),
        bc,
        server,
        readers,
    })
}

/// Publishes `n_epochs` epochs, each only after every reader decoded the
/// one before.
pub fn run(ready: FanoutReady, n_epochs: usize, tracer: &Tracer) -> Pass {
    let FanoutReady {
        mut generator,
        store,
        bc,
        server,
        mut readers,
    } = ready;
    let mut problems = Vec::new();
    let mut held: Vec<Option<FullView>> = vec![None; readers.len()];
    let mut delivered = 0u64;
    let mut last: Option<Arc<SystemSnapshot>> = None;
    let root = tracer.begin("run", NO_PARENT, 0);
    let mut meter = Meter::new(n_epochs);
    'epochs: for e in 0..n_epochs as u64 {
        let snap = match store
            .publish(generator.next_snapshot())
            .ok()
            .and_then(|_| store.load())
        {
            Some(s) => s,
            None => {
                problems.push(format!("epoch {e}: the store refused a monotone publish"));
                break;
            }
        };
        let t0 = Instant::now();
        tracer.scoped("serve.publish", root.id(), e, || bc.publish(&snap));
        let mut decoded = 0u64;
        for (i, (_, reader)) in readers.iter_mut().enumerate() {
            let span = tracer.begin("serve.reader_next", root.id(), e);
            let msg = reader.next_within(READ_DEADLINE);
            span.end();
            let view = match msg {
                Ok(ServeMsg::Full(v)) => Ok(v),
                Ok(ServeMsg::Delta(d)) => match held[i].as_ref() {
                    Some(base) => apply_delta(base, &d).map_err(|e| e.to_string()),
                    None => Err("delta before any full view".into()),
                },
                Ok(other) => Err(format!("unexpected message {other:?}")),
                Err(e) => Err(e.to_string()),
            };
            match view {
                Ok(v) if v.epoch == snap.epoch => {
                    held[i] = Some(v);
                    decoded += 1;
                }
                Ok(v) => {
                    problems.push(format!("epoch {e}: reader {i} got epoch {}", v.epoch));
                    break 'epochs;
                }
                Err(why) => {
                    problems.push(format!("epoch {e}: reader {i}: {why}"));
                    break 'epochs;
                }
            }
        }
        meter.record(decoded, t0.elapsed().as_secs_f64() * 1e3);
        delivered += decoded;
        last = Some(snap);
    }
    let (events, harness_cpu_s) = meter.finish();
    root.end();

    // Every reader's reconstructed view must be the last snapshot seen
    // through its filter.
    if let Some(snap) = &last {
        for (i, ((filter, _), view)) in readers.iter().zip(&held).enumerate() {
            let ok = view.as_ref().is_some_and(|v| {
                v.filter == *filter
                    && v.ids.iter().zip(&v.vm).zip(&v.va).all(|((&id, vm), va)| {
                        snap.vm[id as usize] == *vm && snap.va[id as usize] == *va
                    })
            });
            if !ok {
                problems.push(format!("reader {i} does not hold the last snapshot"));
            }
        }
    }
    let attempted = (n_epochs * readers.len()) as u64;
    drop(readers);
    server.stop();
    let serve = bc.report();
    if serve.unaccounted() != 0 {
        problems.push(format!(
            "serve accounting identity open by {}",
            serve.unaccounted()
        ));
    }
    if serve.delivered != delivered {
        problems.push(format!(
            "the server counts {} deliveries, the readers decoded {delivered}",
            serve.delivered
        ));
    }
    problems.truncate(8);
    Pass {
        events,
        attempted,
        failed: attempted - delivered,
        problems,
        harness_cpu_s,
        detail: Detail::Fanout(FanoutDetail {
            serve,
            epochs: n_epochs as u64,
        }),
    }
}
