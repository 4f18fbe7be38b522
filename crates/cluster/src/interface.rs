//! The master-node interface layer.
//!
//! Paper §IV-A: "an interface layer is deployed on the master node of each
//! HPC cluster … It includes a middleware client that wraps the
//! communication code for disseminating and retrieving data \[and\] a data
//! processor \[that\] acquires the data from a local data buffer, extracts
//! the required fields … and assembles them as inputs to the parallel
//! power models."
//!
//! Here the layer owns the cluster's inbox endpoint as a session
//! receiver ([`Inbox`]): each peer's held connection stays open across
//! rounds, and every connection is read from one poll on the calling
//! thread. Inbound frames are buffered and the extracted payloads handed
//! to the compute side; frames read but not yet consumed by one
//! collection stay queued for the next.

use std::time::{Duration, Instant};

use pgse_medici::client::DEFAULT_RECV_DEADLINE;
use pgse_medici::{Arrival, Delivery, EndpointRegistry, Inbox, MwClient, MwConfig, MwError};

/// What a deadline-bounded collection actually gathered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectOutcome {
    /// Intact frames added to the buffer.
    pub received: usize,
    /// Corrupt deliveries: a frame cut by its connection's close or reset,
    /// stalled past the middleware deadline, or rejected by the caller.
    pub corrupt: usize,
    /// Frames discarded as duplicates of an already-received source
    /// (only counted by [`InterfaceLayer::collect_distinct`]).
    pub duplicate: usize,
    /// True when the round deadline expired before `n` frames arrived.
    pub timed_out: bool,
}

/// The interface layer of one cluster's master node.
pub struct InterfaceLayer {
    /// Logical URL of this cluster's inbox.
    inbox_url: String,
    /// The middleware client used to disseminate data.
    client: MwClient,
    /// The inbox endpoint and its held connections (the "local data
    /// buffer" feed).
    inbox: Inbox,
    /// Buffered frames not yet consumed by the data processor.
    buffer: Vec<Vec<u8>>,
}

impl InterfaceLayer {
    /// Deploys the layer: binds the cluster's inbox endpoint in the shared
    /// registry.
    ///
    /// # Errors
    /// [`MwError`] when the endpoint cannot be bound.
    pub fn deploy(registry: &EndpointRegistry, inbox_url: &str) -> Result<Self, MwError> {
        Self::deploy_with(registry, inbox_url, MwConfig::default())
    }

    /// [`InterfaceLayer::deploy`] with explicit middleware deadlines and
    /// retry policy for this layer's client; `config.op_deadline` is also
    /// how long a partly received inbound frame may stall.
    ///
    /// # Errors
    /// [`MwError`] when the endpoint cannot be bound.
    pub fn deploy_with(
        registry: &EndpointRegistry,
        inbox_url: &str,
        config: MwConfig,
    ) -> Result<Self, MwError> {
        let inbox = Inbox::new(registry.bind(inbox_url)?, config.op_deadline)?;
        Ok(InterfaceLayer {
            inbox_url: inbox_url.to_string(),
            client: MwClient::with_config(registry.clone(), config),
            inbox,
            buffer: Vec::new(),
        })
    }

    /// This layer's inbox URL.
    pub fn inbox_url(&self) -> &str {
        &self.inbox_url
    }

    /// Sends `payload` toward `url` through the middleware (the
    /// `MW_Client_Send` of Fig. 6), returning the delivery receipt so the
    /// caller can account for the attempts spent.
    ///
    /// # Errors
    /// [`MwError`] on resolution or socket failure.
    pub fn send(&self, url: &str, payload: &[u8]) -> Result<Delivery, MwError> {
        self.client.send(url, payload)
    }

    /// Blocks until `n` frames have arrived in the local data buffer.
    ///
    /// # Errors
    /// [`MwError::Timeout`] when nothing arrives within the default
    /// middleware deadline, [`MwError::Io`] on a corrupt delivery.
    pub fn collect(&mut self, n: usize) -> Result<(), MwError> {
        while self.buffer.len() < n {
            match self.inbox.recv_until(Instant::now() + DEFAULT_RECV_DEADLINE) {
                Some(Arrival::Frame(frame)) => self.buffer.push(frame),
                Some(Arrival::Corrupt) => {
                    return Err(MwError::Io(std::io::ErrorKind::InvalidData.into()))
                }
                None => {
                    return Err(MwError::Timeout { what: "recv", after: DEFAULT_RECV_DEADLINE })
                }
            }
        }
        Ok(())
    }

    /// Collects up to `n` frames within one round `deadline`, tolerating
    /// loss: corrupt frames are counted and skipped, and an expired
    /// deadline ends the wait instead of failing it. This is the
    /// fault-tolerant exchange path — the caller decides how to proceed
    /// with whatever arrived.
    ///
    /// The deadline bounds the *wait*, not the take: a zero deadline (a
    /// round whose budget an earlier inbox used up) still takes every
    /// frame that has already arrived.
    pub fn collect_deadline(&mut self, n: usize, deadline: Duration) -> CollectOutcome {
        let (frames, outcome) = self.collect_with(n, deadline, &mut |f| Some((0, f)), false);
        self.buffer.extend(frames.into_iter().map(|(_, f)| f));
        outcome
    }

    /// Like [`InterfaceLayer::collect_deadline`], but counts a frame only
    /// when `key` maps it to a source not seen before in this call:
    /// duplicated deliveries (a fault-injection mode) are discarded instead
    /// of masking a still-missing source, and frames `key` rejects
    /// (`None`) are counted corrupt. Collection ends once `n` distinct
    /// sources arrived or the deadline expires.
    pub fn collect_distinct(
        &mut self,
        n: usize,
        deadline: Duration,
        key: &dyn Fn(&[u8]) -> Option<u64>,
    ) -> CollectOutcome {
        let (frames, outcome) =
            self.collect_with(n, deadline, &mut |f| key(&f).map(|k| (k, f)), true);
        self.buffer.extend(frames.into_iter().map(|(_, f)| f));
        outcome
    }

    /// [`InterfaceLayer::collect_distinct`] for a caller that decodes every
    /// frame anyway: `decode` yields a frame's source key and its decoded
    /// value in one pass (`None`: corrupt), and the first value per source
    /// is returned with its key, in arrival order, instead of being
    /// buffered for [`InterfaceLayer::process`].
    pub fn collect_decoded<T>(
        &mut self,
        n: usize,
        deadline: Duration,
        decode: impl Fn(&[u8]) -> Option<(u64, T)>,
    ) -> (Vec<(u64, T)>, CollectOutcome) {
        self.collect_with(n, deadline, &mut |f| decode(&f), true)
    }

    fn collect_with<T>(
        &mut self,
        n: usize,
        deadline: Duration,
        decode: &mut dyn FnMut(Vec<u8>) -> Option<(u64, T)>,
        distinct: bool,
    ) -> (Vec<(u64, T)>, CollectOutcome) {
        let mut sp = pgse_obs::span("inbox.collect");
        let end = Instant::now() + deadline;
        let mut outcome = CollectOutcome::default();
        let mut taken: Vec<(u64, T)> = Vec::with_capacity(n);
        while outcome.received < n {
            match self.inbox.recv_until(end) {
                Some(Arrival::Frame(frame)) => match decode(frame) {
                    Some((k, _)) if distinct && taken.iter().any(|(seen, _)| *seen == k) => {
                        outcome.duplicate += 1;
                    }
                    Some(item) => {
                        taken.push(item);
                        outcome.received += 1;
                    }
                    None => outcome.corrupt += 1,
                },
                Some(Arrival::Corrupt) => outcome.corrupt += 1,
                None => {
                    outcome.timed_out = true;
                    break;
                }
            }
        }
        Self::account(&mut sp, n, &outcome);
        (taken, outcome)
    }

    /// Records one collection round on the active trace. Only *distinct*
    /// received frames feed `exchange.frames`: duplicates discarded by
    /// [`InterfaceLayer::collect_distinct`] land in `exchange.duplicates`
    /// and must never inflate the received count, otherwise a duplicated
    /// delivery would mask a still-missing source in the report.
    fn account(sp: &mut pgse_obs::SpanGuard, expected: usize, outcome: &CollectOutcome) {
        sp.record("expected", expected as u64);
        sp.record("received", outcome.received as u64);
        sp.record("corrupt", outcome.corrupt as u64);
        sp.record("duplicate", outcome.duplicate as u64);
        sp.record("timed_out", outcome.timed_out);
        pgse_obs::counter_add("exchange.frames", outcome.received as u64);
        pgse_obs::counter_add("exchange.corrupt", outcome.corrupt as u64);
        pgse_obs::counter_add("exchange.duplicates", outcome.duplicate as u64);
        if outcome.timed_out {
            pgse_obs::counter_add("exchange.timeouts", 1);
        }
    }

    /// Consumes and discards frames still pending on the inbox until
    /// `grace` passes with nothing arriving (a zero `grace` takes only what
    /// is already there). Used after a fault-injected round so stragglers
    /// (late duplicates) cannot leak into the next round's collection.
    pub fn drain_pending(&mut self, grace: Duration) -> usize {
        let mut sp = pgse_obs::span("inbox.drain");
        let mut drained: usize = 0;
        while let Some(arrival) = self.inbox.recv_until(Instant::now() + grace) {
            if matches!(arrival, Arrival::Frame(_)) {
                drained += 1;
            }
        }
        sp.record("drained", drained as u64);
        pgse_obs::counter_add("exchange.drained", drained as u64);
        drained
    }

    /// The data processor: drains the buffer, extracting each frame through
    /// `extract` and collecting the assembled inputs.
    pub fn process<T>(&mut self, mut extract: impl FnMut(&[u8]) -> T) -> Vec<T> {
        self.buffer.drain(..).map(|frame| extract(&frame)).collect()
    }

    /// Frames currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_exchange_frames_directly() {
        let registry = EndpointRegistry::new();
        let mut a = InterfaceLayer::deploy(&registry, "tcp://nwiceb.pnl.gov:6789").unwrap();
        let b = InterfaceLayer::deploy(&registry, "tcp://chinook.pnl.gov:7890").unwrap();
        b.send(a.inbox_url(), b"boundary states").unwrap();
        a.collect(1).unwrap();
        let got = a.process(|f| f.to_vec());
        assert_eq!(got, vec![b"boundary states".to_vec()]);
        assert_eq!(a.buffered(), 0);
    }

    #[test]
    fn collect_waits_for_all_expected_frames() {
        let registry = EndpointRegistry::new();
        let mut hub = InterfaceLayer::deploy(&registry, "tcp://hub:1").unwrap();
        let senders: Vec<InterfaceLayer> = (0..3)
            .map(|i| InterfaceLayer::deploy(&registry, &format!("tcp://s{i}:1")).unwrap())
            .collect();
        let reg = registry.clone();
        let t = std::thread::spawn(move || {
            for (i, s) in senders.iter().enumerate() {
                s.send("tcp://hub:1", format!("frame{i}").as_bytes()).unwrap();
            }
            drop(reg);
        });
        hub.collect(3).unwrap();
        t.join().unwrap();
        let mut frames = hub.process(|f| String::from_utf8(f.to_vec()).unwrap());
        frames.sort();
        assert_eq!(frames, vec!["frame0", "frame1", "frame2"]);
    }

    #[test]
    fn process_extracts_fields() {
        let registry = EndpointRegistry::new();
        let mut layer = InterfaceLayer::deploy(&registry, "tcp://x:1").unwrap();
        let peer = InterfaceLayer::deploy(&registry, "tcp://y:1").unwrap();
        peer.send("tcp://x:1", b"12,34").unwrap();
        layer.collect(1).unwrap();
        let parsed = layer.process(|f| {
            let s = std::str::from_utf8(f).unwrap();
            s.split(',').map(|v| v.parse::<i32>().unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(parsed, vec![vec![12, 34]]);
    }

    #[test]
    fn collect_deadline_returns_partial_on_timeout() {
        let registry = EndpointRegistry::new();
        let mut hub = InterfaceLayer::deploy(&registry, "tcp://hub:2").unwrap();
        let peer = InterfaceLayer::deploy(&registry, "tcp://peer:2").unwrap();
        peer.send("tcp://hub:2", b"only one").unwrap();
        // Expect 3 frames but only one was ever sent: the round must end at
        // the deadline with the single frame buffered.
        let start = Instant::now();
        let outcome = hub.collect_deadline(3, Duration::from_millis(120));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(outcome.received, 1);
        assert!(outcome.timed_out);
        assert_eq!(hub.buffered(), 1);
    }

    #[test]
    fn collect_deadline_skips_corrupt_frames() {
        let registry = EndpointRegistry::new();
        let mut hub = InterfaceLayer::deploy(&registry, "tcp://hub:3").unwrap();
        let addr = registry.resolve("tcp://hub:3").unwrap();
        let peer = InterfaceLayer::deploy(&registry, "tcp://peer:3").unwrap();
        let t = std::thread::spawn(move || {
            use std::io::Write;
            // A truncated frame (claims 100 bytes, sends 4, closes)…
            let mut bad = std::net::TcpStream::connect(addr).unwrap();
            bad.write_all(&100u64.to_be_bytes()).unwrap();
            bad.write_all(b"oops").unwrap();
            drop(bad);
            // …followed by a good one.
            peer.send("tcp://hub:3", b"good frame").unwrap();
        });
        let outcome = hub.collect_deadline(1, Duration::from_secs(5));
        t.join().unwrap();
        assert_eq!(outcome.received, 1);
        assert_eq!(outcome.corrupt, 1);
        assert!(!outcome.timed_out);
        let got = hub.process(|f| f.to_vec());
        assert_eq!(got, vec![b"good frame".to_vec()]);
    }

    #[test]
    fn collect_distinct_discards_duplicates() {
        let registry = EndpointRegistry::new();
        let mut hub = InterfaceLayer::deploy(&registry, "tcp://hub:4").unwrap();
        let peer = InterfaceLayer::deploy(&registry, "tcp://peer:4").unwrap();
        // Source 7 delivered twice (a duplication fault), then source 9.
        peer.send("tcp://hub:4", &[7u8]).unwrap();
        peer.send("tcp://hub:4", &[7u8]).unwrap();
        peer.send("tcp://hub:4", &[9u8]).unwrap();
        let outcome = hub.collect_distinct(2, Duration::from_secs(5), &|f| {
            f.first().map(|&b| u64::from(b))
        });
        assert_eq!(outcome.received, 2);
        assert_eq!(outcome.duplicate, 1);
        assert_eq!(outcome.corrupt, 0);
        assert!(!outcome.timed_out);
        assert_eq!(hub.process(|f| f.to_vec()), vec![vec![7u8], vec![9u8]]);
    }

    #[test]
    fn drain_pending_clears_stragglers() {
        let registry = EndpointRegistry::new();
        let mut hub = InterfaceLayer::deploy(&registry, "tcp://hub:5").unwrap();
        let peer = InterfaceLayer::deploy(&registry, "tcp://peer:5").unwrap();
        peer.send("tcp://hub:5", b"stale").unwrap();
        peer.send("tcp://hub:5", b"stale").unwrap();
        assert_eq!(hub.drain_pending(Duration::from_millis(100)), 2);
        assert_eq!(hub.buffered(), 0);
        // Inbox is now clean: a fresh collect sees only new data.
        peer.send("tcp://hub:5", b"fresh").unwrap();
        let outcome = hub.collect_deadline(1, Duration::from_secs(5));
        assert_eq!(outcome.received, 1);
        assert_eq!(hub.process(|f| f.to_vec()), vec![b"fresh".to_vec()]);
    }

    #[test]
    fn send_to_unknown_inbox_fails() {
        let registry = EndpointRegistry::new();
        let layer = InterfaceLayer::deploy(&registry, "tcp://only:1").unwrap();
        assert!(layer.send("tcp://missing:1", b"x").is_err());
    }

    #[test]
    fn send_returns_the_delivery_receipt() {
        let registry = EndpointRegistry::new();
        let mut a = InterfaceLayer::deploy(&registry, "tcp://recv:9").unwrap();
        let b = InterfaceLayer::deploy(&registry, "tcp://send:9").unwrap();
        let receipt = b.send("tcp://recv:9", b"one shot").unwrap();
        assert_eq!(receipt.attempts, 1);
        a.collect(1).unwrap();
    }

    #[test]
    fn duplicates_do_not_inflate_exchange_counters() {
        let rec = pgse_obs::Recorder::new("inbox");
        let registry = EndpointRegistry::new();
        let mut hub = InterfaceLayer::deploy(&registry, "tcp://hub:6").unwrap();
        let peer = InterfaceLayer::deploy(&registry, "tcp://peer:6").unwrap();
        // Source 3 delivered three times (duplication fault), source 4 once.
        for src in [3u8, 3, 3, 4] {
            peer.send("tcp://hub:6", &[src]).unwrap();
        }
        let outcome = pgse_obs::with_recorder(&rec, || {
            hub.collect_distinct(2, Duration::from_secs(5), &|f| {
                f.first().map(|&b| u64::from(b))
            })
        });
        assert_eq!((outcome.received, outcome.duplicate), (2, 2));
        let snap = rec.snapshot();
        // Distinct sources only: the duplicated deliveries are accounted
        // separately and never reach `exchange.frames`.
        assert_eq!(snap.metrics.counter("exchange.frames"), 2);
        assert_eq!(snap.metrics.counter("exchange.duplicates"), 2);
        assert_eq!(snap.metrics.counter("exchange.timeouts"), 0);
        let span = &snap.spans[0];
        assert_eq!(span.name, "inbox.collect");
        assert_eq!(span.field_u64("received"), Some(2));
        assert_eq!(span.field_u64("duplicate"), Some(2));
    }

    #[test]
    fn drain_is_accounted_separately_from_received_frames() {
        let rec = pgse_obs::Recorder::new("inbox");
        let registry = EndpointRegistry::new();
        let mut hub = InterfaceLayer::deploy(&registry, "tcp://hub:7").unwrap();
        let peer = InterfaceLayer::deploy(&registry, "tcp://peer:7").unwrap();
        peer.send("tcp://hub:7", b"wanted").unwrap();
        peer.send("tcp://hub:7", b"straggler").unwrap();
        pgse_obs::with_recorder(&rec, || {
            let outcome = hub.collect_deadline(1, Duration::from_secs(5));
            assert_eq!(outcome.received, 1);
            assert_eq!(hub.drain_pending(Duration::from_millis(100)), 1);
        });
        let snap = rec.snapshot();
        assert_eq!(snap.metrics.counter("exchange.frames"), 1);
        assert_eq!(snap.metrics.counter("exchange.drained"), 1);
        assert_eq!(
            snap.spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["inbox.collect", "inbox.drain"]
        );
    }
}
