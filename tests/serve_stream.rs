//! Acceptance suite for the serving layer (`pgse-serve`, ISSUE 8):
//!
//! * the PGSS delta chain reconstructs full views **bitwise** end to end;
//! * the accounting identity `published == delivered + shed + coalesced`
//!   closes under a seeded chaos schedule, from the [`ServeReport`] *and*
//!   from the replayed `serve.*` obs counters, with byte-identical
//!   deterministic export across 1-, 2- and 8-thread encode pools;
//! * encode work is O(areas), not O(subscribers);
//! * the TCP reactor conforms: streamed readers, push readers behind a
//!   seeded fault proxy, and typed connection-cap refusals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pgse::medici::faults::{FaultPlan, FaultProxy};
use pgse::medici::EndpointRegistry;
use pgse::obs::ObsReport;
use pgse::serve::{
    apply_delta, decode_msg, encode_msg, AreaMap, Broadcaster, DeliveryMode, FullView,
    RefuseReason, RemoteReader, ServeConfig, ServeMsg, ServeReport, SnapshotServer, Subscribe,
    Subscription, SubscriptionFilter,
};
use pgse::stream::{SnapshotStore, SystemSnapshot};

fn snap(frame_seq: u64, n: usize) -> SystemSnapshot {
    SystemSnapshot {
        epoch: 0,
        frame_seq,
        dt_seconds: frame_seq as f64 * 0.05,
        vm: (0..n)
            .map(|i| 1.0 + 1e-3 * i as f64 + ((frame_seq * 31 + i as u64) % 7) as f64 * 1e-5)
            .collect(),
        va: (0..n)
            .map(|i| -1e-2 * i as f64 - ((frame_seq * 17 + i as u64) % 5) as f64 * 1e-6)
            .collect(),
        degraded_areas: if frame_seq.is_multiple_of(3) { vec![1] } else { vec![] },
    }
}

/// Publishes through a real [`SnapshotStore`] so epochs are
/// store-assigned, exactly as in production wiring.
fn publish_seq(store: &SnapshotStore, bc: &Broadcaster, frame_seq: u64, n: usize) -> Arc<SystemSnapshot> {
    store.publish(snap(frame_seq, n)).unwrap();
    let s = store.load().unwrap();
    bc.publish(&s);
    s
}

#[test]
fn delta_chain_reconstructs_every_epoch_bitwise() {
    let n = 30usize;
    let map = AreaMap::uniform(n as u32, 3);
    let bc = Arc::new(Broadcaster::new(map, 8));
    let store = SnapshotStore::new();

    let subs: Vec<(SubscriptionFilter, Subscription)> = [
        (SubscriptionFilter::All, DeliveryMode::Delta),
        (SubscriptionFilter::Area(1), DeliveryMode::Delta),
        (SubscriptionFilter::BusRange { start: 5, len: 9 }, DeliveryMode::Full),
    ]
    .into_iter()
    .map(|(f, m)| (f, Subscription::open(&bc, f, m).unwrap()))
    .collect();

    let mut held: Vec<Option<FullView>> = vec![None; subs.len()];
    let mut deltas_seen = 0usize;
    for frame in 1..=12u64 {
        let s = publish_seq(&store, &bc, frame, n);
        for (si, (filter, sub)) in subs.iter().enumerate() {
            let buf = sub.recv().expect("an offer per publish per live subscriber");
            let msg = decode_msg(&buf.bytes).expect("queued buffers decode");
            let view = match msg {
                ServeMsg::Full(v) => v,
                ServeMsg::Delta(d) => {
                    deltas_seen += 1;
                    apply_delta(held[si].as_ref().expect("delta only after a base"), &d)
                        .expect("chained delta applies")
                }
                other => panic!("unexpected message {other:?}"),
            };
            // The pin: the reconstructed view re-encodes byte-identically
            // to a direct full encode of the published snapshot.
            let ids = bc.area_map().resolve(*filter).unwrap();
            let direct = pgse::serve::wire::encode_full(&s, *filter, &ids);
            assert_eq!(
                encode_msg(&ServeMsg::Full(view.clone())),
                direct,
                "bitwise mismatch at epoch {} for {filter:?}",
                s.epoch
            );
            held[si] = Some(view);
        }
    }
    assert!(deltas_seen >= 20, "delta path must actually be exercised, saw {deltas_seen}");

    for (_, sub) in subs {
        sub.close();
    }
    let report = bc.report();
    assert_eq!(report.unaccounted(), 0);
    assert_eq!(report.shed, 0, "fully drained readers shed nothing");
    assert!(report.encodes_delta >= 20);
}

/// Deterministic seeded chaos: slow readers (coalescing), mid-stream
/// kills (shedding), late subscribers (catch-up views), all driven from
/// one thread so the schedule is a pure function of the seed. The rayon
/// pool size only parallelizes the per-class encodes — it must not move
/// a single counter or byte.
fn chaos_scenario() -> (ServeReport, String) {
    let n = 24usize;
    let map = AreaMap::uniform(n as u32, 4);
    let bc = Arc::new(Broadcaster::new(map, 2));
    let store = SnapshotStore::new();

    // xorshift64* — deterministic, no external seed source.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };

    let filters = [
        SubscriptionFilter::All,
        SubscriptionFilter::Area(0),
        SubscriptionFilter::Area(3),
        SubscriptionFilter::BusRange { start: 2, len: 10 },
    ];
    let mut subs: Vec<Subscription> = (0..6)
        .map(|i| {
            let mode = if i % 2 == 0 { DeliveryMode::Delta } else { DeliveryMode::Full };
            Subscription::open(&bc, filters[i % filters.len()], mode).unwrap()
        })
        .collect();

    for frame in 1..=60u64 {
        publish_seq(&store, &bc, frame, n);
        // Each reader drains 0..=2 buffers — some fall behind and coalesce.
        for sub in &subs {
            for _ in 0..(rng() % 3) {
                if sub.recv().is_none() {
                    break;
                }
            }
        }
        // Occasionally kill a reader mid-backlog (sheds) and admit a late
        // one (catch-up view).
        if frame.is_multiple_of(11) && !subs.is_empty() {
            let victim = (rng() as usize) % subs.len();
            subs.swap_remove(victim).close();
        }
        if frame.is_multiple_of(13) {
            subs.push(
                Subscription::open(&bc, filters[(rng() as usize) % filters.len()], DeliveryMode::Delta)
                    .unwrap(),
            );
        }
    }
    let shed_at_shutdown = bc.shutdown_drain();
    drop(subs);

    let report = bc.report();
    let obs = ObsReport::from_scopes(vec![bc.obs_scope()]);

    // The identity must close from the report...
    assert_eq!(report.unaccounted(), 0, "report identity broken: {report:?}");
    // ...and, independently, from the replayed obs counters.
    let published = obs.counter("serve", "serve.published");
    let delivered = obs.counter("serve", "serve.delivered");
    let shed = obs.counter("serve", "serve.shed");
    let coalesced = obs.counter("serve", "serve.coalesced");
    assert_eq!(published, delivered + shed + coalesced, "obs counter identity broken");
    assert_eq!(published, report.published);
    assert_eq!(delivered, report.delivered);
    assert_eq!(shed, report.shed);
    assert_eq!(coalesced, report.coalesced);
    assert_eq!(obs.counter("serve", "serve.epochs"), 60);
    assert_eq!(obs.counter("serve", "serve.bytes.encoded"), report.bytes_encoded);

    // The chaos schedule must actually exercise every terminal state.
    assert!(report.coalesced > 0, "no coalescing under cap-2 queues?");
    assert!(report.shed > 0, "kills and shutdown must shed");
    assert!(report.delivered > 0);
    assert!(shed_at_shutdown > 0);

    (report, obs.to_json_deterministic())
}

#[test]
fn chaos_accounting_closes_and_export_is_pool_invariant() {
    let runs: Vec<(ServeReport, String)> = [1usize, 2, 8]
        .iter()
        .map(|&t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(chaos_scenario)
        })
        .collect();
    let (r1, j1) = &runs[0];
    for (rt, jt) in &runs[1..] {
        assert_eq!(r1, rt, "ServeReport varies with encode pool size");
        assert_eq!(j1, jt, "deterministic obs export varies with encode pool size");
    }
}

#[test]
fn encode_work_is_o_areas_not_o_subscribers() {
    let n = 120usize;
    let bytes_encoded_with = |n_subs: usize| {
        let bc = Arc::new(Broadcaster::new(AreaMap::uniform(n as u32, 6), 4));
        let store = SnapshotStore::new();
        let subs: Vec<Subscription> = (0..n_subs)
            .map(|i| {
                Subscription::open(&bc, SubscriptionFilter::Area((i % 6) as u32), DeliveryMode::Delta)
                    .unwrap()
            })
            .collect();
        for frame in 1..=20u64 {
            publish_seq(&store, &bc, frame, n);
            // Keep every reader current so delta chains never reset.
            for sub in &subs {
                sub.recv().unwrap();
            }
        }
        let report = bc.report();
        assert_eq!(report.unaccounted(), 0);
        (report.bytes_encoded, report.encodes_full + report.encodes_delta, report.delivered)
    };

    let (bytes_small, encodes_small, delivered_small) = bytes_encoded_with(12);
    // 10× and 833× the subscribers: identical encode work, deliveries in
    // proportion.
    for n_subs in [120usize, 10_000] {
        let (bytes, encodes, delivered) = bytes_encoded_with(n_subs);
        assert_eq!(bytes, bytes_small, "encode bytes must not scale with subscribers ({n_subs})");
        assert_eq!(encodes, encodes_small, "encode count must not scale with subscribers ({n_subs})");
        assert_eq!(delivered * 12, delivered_small * n_subs as u64, "{n_subs} subscribers");
    }
}

#[test]
fn tcp_streamed_readers_full_and_delta_conform() {
    let registry = EndpointRegistry::new();
    let url = "tcp://serve.conform:9000";
    let bc = Arc::new(Broadcaster::new(AreaMap::uniform(16, 2), 64));
    let store = SnapshotStore::new();
    let server = SnapshotServer::start(
        &registry,
        ServeConfig { url: url.into(), ..ServeConfig::default() },
        Arc::clone(&bc),
    )
    .unwrap();

    let first = publish_seq(&store, &bc, 1, 16);
    let deadline = Duration::from_secs(10);

    // Full-mode reader: catch-up view, then a full view per epoch.
    let mut full_reader = RemoteReader::connect(
        &registry,
        url,
        Subscribe { filter: SubscriptionFilter::All, mode: DeliveryMode::Full, deliver_url: None },
    )
    .unwrap();
    let ServeMsg::Full(catch_up) = full_reader.next_within(deadline).unwrap() else {
        panic!("catch-up must be a full view")
    };
    assert_eq!(catch_up.epoch, first.epoch);
    assert_eq!(catch_up.vm.len(), 16);

    // Delta-mode reader over Area(1): catch-up full, then chained deltas.
    let mut delta_reader = RemoteReader::connect(
        &registry,
        url,
        Subscribe {
            filter: SubscriptionFilter::Area(1),
            mode: DeliveryMode::Delta,
            deliver_url: None,
        },
    )
    .unwrap();
    let ServeMsg::Full(mut held) = delta_reader.next_within(deadline).unwrap() else {
        panic!("catch-up must be a full view")
    };
    assert_eq!(held.epoch, first.epoch);

    let mut saw_delta = false;
    for frame in 2..=6u64 {
        let s = publish_seq(&store, &bc, frame, 16);
        let ServeMsg::Full(v) = full_reader.next_within(deadline).unwrap() else {
            panic!("full-mode reader must only see full views")
        };
        assert_eq!(v.epoch, s.epoch);

        match delta_reader.next_within(deadline).unwrap() {
            ServeMsg::Delta(d) => {
                saw_delta = true;
                assert_eq!(d.base_epoch, held.epoch);
                held = apply_delta(&held, &d).unwrap();
            }
            ServeMsg::Full(v) => held = v,
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(held.epoch, s.epoch);
        let ids = bc.area_map().resolve(SubscriptionFilter::Area(1)).unwrap();
        assert_eq!(
            encode_msg(&ServeMsg::Full(held.clone())),
            pgse::serve::wire::encode_full(&s, SubscriptionFilter::Area(1), &ids),
            "remote delta chain out of sync at epoch {}",
            s.epoch
        );
    }
    assert!(saw_delta, "the socket path must exercise deltas");

    drop(full_reader);
    drop(delta_reader);
    server.stop();
    let report = bc.report();
    assert_eq!(report.unaccounted(), 0, "identity must close after socket shutdown: {report:?}");
    assert_eq!(report.subscribers, 0, "reactor shutdown unregisters readers");
}

#[test]
fn tcp_connection_cap_refuses_with_typed_pgss_message() {
    let registry = EndpointRegistry::new();
    let url = "tcp://serve.cap:9000";
    let bc = Arc::new(Broadcaster::new(AreaMap::uniform(8, 1), 8));
    let store = SnapshotStore::new();
    let server = SnapshotServer::start(
        &registry,
        ServeConfig { url: url.into(), max_conns: 1 },
        Arc::clone(&bc),
    )
    .unwrap();
    publish_seq(&store, &bc, 1, 8);

    let deadline = Duration::from_secs(10);
    let sub = |f| Subscribe { filter: f, mode: DeliveryMode::Full, deliver_url: None };

    // First reader occupies the single slot (confirmed by its catch-up).
    let mut occupant = RemoteReader::connect(&registry, url, sub(SubscriptionFilter::All)).unwrap();
    assert!(matches!(occupant.next_within(deadline).unwrap(), ServeMsg::Full(_)));

    // Second reader must be turned away with the typed refusal.
    let mut refused = RemoteReader::connect(&registry, url, sub(SubscriptionFilter::All)).unwrap();
    match refused.next_within(deadline).unwrap() {
        ServeMsg::Refused(r) => assert_eq!(r.reason, RefuseReason::ConnLimit(1)),
        other => panic!("expected a ConnLimit refusal, got {other:?}"),
    }

    // A bad filter is refused with its own reason, not the cap's.
    drop(occupant);
    // Wait for the reactor to reap the closed occupant so the slot frees.
    let t0 = std::time::Instant::now();
    while bc.n_subscribers() > 0 && t0.elapsed() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut bad = RemoteReader::connect(&registry, url, sub(SubscriptionFilter::Area(99))).unwrap();
    match bad.next_within(deadline).unwrap() {
        ServeMsg::Refused(r) => assert_eq!(r.reason, RefuseReason::BadFilter),
        other => panic!("expected a BadFilter refusal, got {other:?}"),
    }

    server.stop();
    let report = bc.report();
    assert_eq!(report.refused, 2, "both refusals must be counted");
    assert_eq!(report.unaccounted(), 0);
}

#[test]
fn push_mode_delivers_through_a_seeded_fault_proxy() {
    let registry = EndpointRegistry::new();
    let url = "tcp://serve.push:9000";
    let bc = Arc::new(Broadcaster::new(AreaMap::uniform(12, 2), 32));
    let store = SnapshotStore::new();
    let server = SnapshotServer::start(
        &registry,
        ServeConfig { url: url.into(), ..ServeConfig::default() },
        Arc::clone(&bc),
    )
    .unwrap();

    // The subscriber owns a registered endpoint; the server pushes frames
    // at a lossy seeded proxy in front of it.
    let sink_url = "tcp://reader.sink:1";
    let proxy_url = "tcp://reader.proxy:1";
    let listener = registry.bind(sink_url).unwrap();
    listener.set_nonblocking(true).unwrap();
    let proxy = FaultProxy::deploy(
        &registry,
        proxy_url,
        sink_url,
        FaultPlan { seed: 7, drop_prob: 0.3, ..FaultPlan::default() },
    )
    .unwrap();

    // Collector thread: one connection per pushed frame.
    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut epochs = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((mut conn, _)) => {
                        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                        if let Ok(body) = pgse::medici::framing::read_frame(&mut conn) {
                            if let Ok(ServeMsg::Full(v)) = decode_msg(&body) {
                                epochs.push(v.epoch);
                            }
                        }
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
            epochs
        })
    };

    // Register the push subscription over the control connection.
    let _ctl = RemoteReader::connect(
        &registry,
        url,
        Subscribe {
            filter: SubscriptionFilter::All,
            mode: DeliveryMode::Full,
            deliver_url: Some(proxy_url.into()),
        },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    while bc.n_subscribers() == 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(bc.n_subscribers(), 1, "push subscription must register");

    let n_epochs = 20u64;
    for frame in 1..=n_epochs {
        publish_seq(&store, &bc, frame, 12);
        std::thread::sleep(Duration::from_millis(2));
    }
    // Let the reactor flush the last pushes, then tear everything down.
    let t0 = std::time::Instant::now();
    while bc.report().unaccounted() != 0 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    server.stop();
    stop.store(true, Ordering::SeqCst);
    let received = collector.join().unwrap();
    let stats = proxy.stats();
    proxy.stop();

    let report = bc.report();
    assert_eq!(report.unaccounted(), 0, "push accounting must close: {report:?}");
    assert!(!received.is_empty(), "some pushes must survive a 0.3 drop proxy");
    assert!(received.windows(2).all(|w| w[0] < w[1]), "pushed epochs arrive in order");
    assert!(
        (received.len() as u64) < report.delivered + report.shed,
        "the lossy proxy must actually lose frames: {} received, {} sent",
        received.len(),
        report.delivered
    );
    assert!(stats.count_of(pgse::medici::faults::FaultKind::Dropped) > 0, "seed 7 must drop");
}
