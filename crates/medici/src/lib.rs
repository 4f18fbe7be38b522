//! # pgse-medici
//!
//! The data-communication middleware of the prototype — our from-scratch
//! substitute for PNNL's MeDICi (§IV-D).
//!
//! Exactly as in the paper, each state estimator is identified by an
//! endpoint URL (`tcp://nwiceb.pnl.gov:6789`); a *pipeline* owns a pair of
//! inbound/outbound endpoints and forwards whatever arrives on the inbound
//! side to the outbound side (one-way channels, Fig. 7); estimators call a
//! middleware client's send/receive and never touch sockets directly
//! (Fig. 6). The relay is store-and-forward, which is what produces the
//! measured overhead of Tables III/IV: an extra hop whose cost is linear in
//! the payload at the middleware's relaying rate (≈0.4 GB/s in the paper).
//!
//! Differences from the real system are confined to deployment: endpoint
//! URLs resolve to loopback TCP addresses through an [`EndpointRegistry`]
//! (we have one machine, not three clusters), and a token-bucket
//! [`throttle::Throttle`] models link bandwidth and the relay rate.
//!
//! * [`framing`] — the EOF length-prefix wire protocol;
//! * [`endpoint`] — URL parsing, the URL → socket-address registry, the
//!   capacity-limited [`endpoint::Acceptor`] and the `poll(2)` waits;
//! * [`inbox`] — the session receiver: a listener and its held
//!   connections served from one multi-fd poll;
//! * [`throttle`] — token-bucket pacing (relay rate / simulated LAN);
//! * [`pipeline`] — `MifPipeline` mirroring the paper's Fig. 7 API;
//! * [`client`] — `MwClient::{send, recv}` used by estimators (Fig. 6),
//!   holding one connection (session) per endpoint;
//! * [`retry`] — deadlines and deterministic bounded backoff;
//! * [`faults`] — the seeded fault-injection proxy for chaos testing.
//!
//! (The §V-B overhead-measurement harness that used to live here as
//! `measure` moved to `pgse_bench::overhead` with the rest of the
//! experiment code.)

pub mod client;
pub mod endpoint;
pub mod faults;
pub mod framing;
pub mod inbox;
pub mod pipeline;
pub mod retry;
pub mod throttle;

pub use client::{Delivery, MwClient};
pub use endpoint::{Acceptor, EndpointRegistry, EndpointUrl};
pub use inbox::{Arrival, Inbox};
pub use faults::{FaultKind, FaultPlan, FaultProxy, FaultProxyHandle, FaultStats, ScanFault, ScanFaultPlan};
pub use pipeline::{EndpointProtocol, MifPipeline, PipelineHandle, SeComponent};
pub use retry::{MwConfig, RetryPolicy};
pub use throttle::Throttle;

/// Middleware error type.
#[derive(Debug)]
pub enum MwError {
    /// Endpoint URL could not be parsed.
    BadUrl(String),
    /// Endpoint is not registered.
    UnknownEndpoint(String),
    /// Underlying socket failure.
    Io(std::io::Error),
    /// A listener at its connection cap refused the connection.
    ConnLimit {
        /// The cap that was hit.
        limit: usize,
    },
    /// A blocking operation exceeded its deadline.
    Timeout {
        /// What was being waited on (e.g. `"accept"`, `"read"`).
        what: &'static str,
        /// The deadline that expired.
        after: std::time::Duration,
    },
    /// All retry attempts failed.
    Exhausted {
        /// Endpoint the operation targeted.
        url: String,
        /// Attempts made (including the first).
        attempts: u32,
        /// The error of the final attempt.
        last: Box<MwError>,
    },
}

impl MwError {
    /// True for [`MwError::Timeout`] (including one wrapped by
    /// [`MwError::Exhausted`]).
    pub fn is_timeout(&self) -> bool {
        match self {
            MwError::Timeout { .. } => true,
            MwError::Exhausted { last, .. } => last.is_timeout(),
            _ => false,
        }
    }
}

impl std::fmt::Display for MwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MwError::BadUrl(u) => write!(f, "malformed endpoint url: {u}"),
            MwError::UnknownEndpoint(u) => write!(f, "unknown endpoint: {u}"),
            MwError::Io(e) => write!(f, "io error: {e}"),
            MwError::ConnLimit { limit } => {
                write!(f, "connection refused: listener at its cap of {limit}")
            }
            MwError::Timeout { what, after } => {
                write!(f, "{what} exceeded its {after:?} deadline")
            }
            MwError::Exhausted { url, attempts, last } => {
                write!(f, "{url}: gave up after {attempts} attempts (last: {last})")
            }
        }
    }
}

impl std::error::Error for MwError {}

impl From<std::io::Error> for MwError {
    fn from(e: std::io::Error) -> Self {
        MwError::Io(e)
    }
}
