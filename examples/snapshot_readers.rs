//! The serving layer end to end (`pgse-serve`): a live streaming SE
//! service publishes IEEE-118 epochs into its lock-free snapshot store,
//! a tail thread fans them into the broadcast multiplexer, and a mixed
//! population of readers consumes them over real sockets:
//!
//! * a **full-view** reader (`All`, full mode) — the reference stream;
//! * a **delta-chained** reader (`All`, delta mode) — reconstructs every
//!   epoch from deltas and proves bitwise equality with the reference;
//! * an **area** reader (`Area(2)`, delta mode) and a **bus-range**
//!   reader — the filtered shapes;
//! * a **push-mode** reader receiving one-shot frames through a seeded
//!   lossy `medici::faults` proxy — delivery keeps its ordering
//!   guarantees even when the transport eats frames.
//!
//! Writes `target/obs/serve.json` (the `serve` scope's ObsReport).
//!
//! ```text
//! cargo run --release --example snapshot_readers
//! ```

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pgse::grid::cases::ieee118_like;
use pgse::medici::faults::{FaultPlan, FaultProxy};
use pgse::medici::EndpointRegistry;
use pgse::obs::ObsReport;
use pgse::serve::{
    apply_delta, encode_msg, tail_store, AreaMap, Broadcaster, DeliveryMode, FullView,
    RemoteReader, ServeConfig, ServeMsg, SnapshotServer, Subscribe, SubscriptionFilter,
};
use pgse::stream::{StreamConfig, StreamService};

const FRAMES: u64 = 30;
const SERVE_URL: &str = "tcp://serve.example:9000";
const PUSH_SINK_URL: &str = "tcp://reader.sink:1";
const PUSH_PROXY_URL: &str = "tcp://reader.proxy:1";
const READ_DEADLINE: Duration = Duration::from_secs(5);

/// A streamed reader: collects `(epoch, canonical full-view encoding)`
/// until the server hangs up, reconstructing from deltas when chained.
fn run_reader(
    registry: &EndpointRegistry,
    filter: SubscriptionFilter,
    mode: DeliveryMode,
) -> Vec<(u64, Vec<u8>)> {
    let mut reader = RemoteReader::connect(
        registry,
        SERVE_URL,
        Subscribe { filter, mode, deliver_url: None },
    )
    .expect("connect streamed reader");
    let mut held: Option<FullView> = None;
    let mut out = Vec::new();
    loop {
        let view = match reader.next_within(READ_DEADLINE) {
            Ok(ServeMsg::Full(v)) => v,
            Ok(ServeMsg::Delta(d)) => {
                let base = held.as_ref().expect("delta only after a base view");
                apply_delta(base, &d).expect("chained delta applies")
            }
            Ok(other) => panic!("unexpected message {other:?}"),
            // Server shutdown (EOF) or end-of-stream timeout: done.
            Err(_) => break,
        };
        out.push((view.epoch, encode_msg(&ServeMsg::Full(view.clone()))));
        held = Some(view);
    }
    assert!(
        out.windows(2).all(|w| w[0].0 < w[1].0),
        "{filter:?} reader must see strictly increasing epochs"
    );
    out
}

/// The push-mode reader: accepts one connection per surviving frame on
/// `sink` until `stop`, and returns the epochs it decoded.
fn collect_pushes(sink: &TcpListener, stop: &AtomicBool) -> Vec<u64> {
    let mut epochs = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match sink.accept() {
            Ok((mut conn, _)) => {
                conn.set_read_timeout(Some(Duration::from_secs(2))).ok();
                if let Ok(body) = pgse::medici::framing::read_frame(&mut conn) {
                    if let Ok(ServeMsg::Full(v)) = pgse::serve::decode_msg(&body) {
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
}

fn main() {
    let net = ieee118_like();
    let service = StreamService::deploy(
        &net,
        StreamConfig { n_frames: FRAMES, seed: 118, warm: true, ..StreamConfig::default() },
    )
    .expect("deploy streaming service");

    // The broadcaster resolves Area filters against the service's own
    // decomposition — readers subscribe to solver areas, not stripes.
    let decomp = service.decomposition();
    let map = AreaMap::new(
        decomp
            .areas
            .iter()
            .map(|a| a.global_ids.iter().map(|&g| g as u32).collect())
            .collect(),
        net.n_buses() as u32,
    );
    println!(
        "serving IEEE-118: {} buses, {} solver areas, {} frames",
        net.n_buses(),
        map.n_areas(),
        FRAMES
    );

    let registry = EndpointRegistry::new();
    let bc = Arc::new(Broadcaster::new(map, 16));
    let server = SnapshotServer::start(
        &registry,
        ServeConfig { url: SERVE_URL.into(), ..ServeConfig::default() },
        Arc::clone(&bc),
    )
    .expect("start snapshot server");

    // Push-mode plumbing: the reader owns a registered endpoint; a seeded
    // lossy proxy sits between the server's pushes and that endpoint.
    let sink = registry.bind(PUSH_SINK_URL).expect("bind push sink");
    sink.set_nonblocking(true).expect("nonblocking sink");
    let proxy = FaultProxy::deploy(
        &registry,
        PUSH_PROXY_URL,
        PUSH_SINK_URL,
        FaultPlan { seed: 42, drop_prob: 0.25, ..FaultPlan::default() },
    )
    .expect("deploy fault proxy");

    let stop_tail = AtomicBool::new(false);
    let stop_sink = AtomicBool::new(false);

    let (full, delta, area, range, pushed, report) = std::thread::scope(|s| {
        // The live service: solves frames and publishes into its store.
        let svc = s.spawn(|| service.run());
        // The serve-side wiring: store → broadcaster.
        let tail = s.spawn(|| {
            tail_store(service.store(), &bc, &stop_tail, Duration::from_micros(200))
        });

        let collector = s.spawn(|| collect_pushes(&sink, &stop_sink));

        // The push subscription itself (control connection closes once
        // the endpoint is registered server-side).
        let _ctl = RemoteReader::connect(
            &registry,
            SERVE_URL,
            Subscribe {
                filter: SubscriptionFilter::All,
                mode: DeliveryMode::Full,
                deliver_url: Some(PUSH_PROXY_URL.into()),
            },
        )
        .expect("register push subscription");

        // The streamed reader population.
        let full = s.spawn(|| run_reader(&registry, SubscriptionFilter::All, DeliveryMode::Full));
        let delta = s.spawn(|| run_reader(&registry, SubscriptionFilter::All, DeliveryMode::Delta));
        let area = s.spawn(|| run_reader(&registry, SubscriptionFilter::Area(2), DeliveryMode::Delta));
        let range = s.spawn(|| {
            run_reader(
                &registry,
                SubscriptionFilter::BusRange { start: 40, len: 16 },
                DeliveryMode::Full,
            )
        });

        let stream_report = svc.join().expect("service run");
        assert_eq!(stream_report.unaccounted(), 0, "stream accounting identity");

        // Let the tail forward the final epoch, readers drain, then shut
        // the reactor down — readers exit on the hangup.
        while service.store().current_epoch() != stream_report.last_epoch {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = std::time::Instant::now();
        while bc.report().unaccounted() != 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop_tail.store(true, Ordering::SeqCst);
        let forwarded = tail.join().expect("tail thread");
        assert!(forwarded > 0, "tail must forward epochs");
        server.stop();
        stop_sink.store(true, Ordering::SeqCst);

        (
            full.join().expect("full reader"),
            delta.join().expect("delta reader"),
            area.join().expect("area reader"),
            range.join().expect("range reader"),
            collector.join().expect("push collector"),
            stream_report,
        )
    });
    proxy.stop();

    // The delta chain must be bitwise-identical to the reference full
    // stream on every epoch both readers saw.
    let mut checked = 0usize;
    for (epoch, bytes) in &delta {
        if let Some((_, reference)) = full.iter().find(|(e, _)| e == epoch) {
            assert_eq!(bytes, reference, "delta chain diverged at epoch {epoch}");
            checked += 1;
        }
    }
    assert!(checked > 0, "full and delta readers must overlap");
    assert!(!area.is_empty() && !range.is_empty(), "filtered readers must receive views");
    assert!(!pushed.is_empty(), "some pushes must survive a 0.25-drop proxy");
    assert!(pushed.windows(2).all(|w| w[0] < w[1]), "pushed epochs stay ordered");

    let serve_report = bc.report();
    assert_eq!(serve_report.unaccounted(), 0, "serve accounting identity");
    println!(
        "service: {} frames published (epoch {:?}), {:.1} frames/s",
        report.frames_published,
        report.last_epoch,
        report.frames_per_second()
    );
    println!(
        "readers: full {} | delta {} ({} bitwise-checked) | area {} | range {} | pushed {} (lossy)",
        full.len(),
        delta.len(),
        checked,
        area.len(),
        range.len(),
        pushed.len()
    );
    println!(
        "serve:   {} offered == {} delivered + {} shed + {} coalesced | {} encodes for {} deliveries",
        serve_report.published,
        serve_report.delivered,
        serve_report.shed,
        serve_report.coalesced,
        serve_report.encodes_full + serve_report.encodes_delta,
        serve_report.delivered,
    );

    std::fs::create_dir_all("target/obs").expect("create target/obs");
    let obs = ObsReport::from_scopes(vec![bc.obs_scope()]);
    std::fs::write("target/obs/serve.json", obs.to_json()).expect("write serve.json");
    println!("artifact: target/obs/serve.json");
}
