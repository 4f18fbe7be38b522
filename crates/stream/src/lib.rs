//! # pgse-stream
//!
//! A continuous state-estimation service over the paper's architecture:
//! the batch pipeline (decompose → Step 1 → exchange → Step 2 → aggregate)
//! run as a long-lived service against an endless sequence of measurement
//! frames, structured in three layers:
//!
//! * **ingest** ([`wire`], [`ingest`]) — sequenced measurement frames per
//!   area arrive over `pgse-medici` endpoints and land in bounded queues
//!   with explicit backpressure: a frame that cannot be solved is *shed*
//!   for a recorded reason (stale, overflow, superseded), never silently
//!   lost. `ingested == solved + shed`, always.
//! * **solve** ([`service`]) — per-area workers drive DSE Step 1, the
//!   pseudo-measurement exchange, and Step 2 with warm-started WLS:
//!   the Jacobian sparsity pattern, the gain-matrix symbolic structure,
//!   and the previous frame's state are carried across frames
//!   ([`pgse_estimation::wls::SolveCache`]), so steady-topology frames
//!   skip pattern discovery and converge in fewer Gauss–Newton
//!   iterations than cold solves.
//! * **serve** ([`snapshot`]) — each solved frame is published into a
//!   lock-free, epoch-stamped [`snapshot::SnapshotStore`]; concurrent
//!   readers never block the writer and never observe a torn or
//!   regressing state. The network-facing read path over this store —
//!   the `PGSS` wire format, delta encoding, and the O(areas)
//!   subscription multiplexer — lives in the `pgse-serve` crate
//!   (DESIGN.md §14), which tails the store via `pgse_serve::tail_store`.
//!
//! Sequencing is enforced at both ends: the ingest queues shed
//! out-of-order and duplicate frames as stale, and the snapshot store
//! rejects publishes that would move the frame sequence backwards — so
//! the published epoch is strictly monotone no matter what the transport
//! (or the fault proxy) does to the frame stream.
//!
//! A fourth layer makes the service *self-healing*:
//!
//! * **supervise** ([`supervise`]) — per-area workers heartbeat once per
//!   solve round; a deterministic round-clock watchdog declares silent
//!   workers suspect, then dead. Dead workers restart in place from an
//!   in-memory checkpoint ([`supervise::CheckpointStore`]); when every
//!   worker on a cluster dies at once the service treats the cluster as
//!   lost, repartitions the decomposition graph over the survivors
//!   ([`pgse_partition::repartition_shrink`]), prices the implied
//!   checkpoint handoff ([`pgse_cluster::plan_redistribution`]), and
//!   re-hosts the orphaned areas live. Solve panics are contained per
//!   area (`catch_unwind`) and surface as degraded rounds, never as a
//!   service crash. The accounting identity widens to
//!   `ingested + requeued == solved + shed`.
//!
//! A fifth layer consumes the product stream:
//!
//! * **screen** ([`scenarios`]) — a streaming N-1 contingency screening
//!   engine subscribes to the snapshot epochs: per base case it fans the
//!   full branch-outage list out as a two-tier task graph (warm
//!   rank-1-updated DC screening ranks the cases, full warm-started AC
//!   re-solves confirm the suspects) under the counter-based dynamic
//!   load balancing of \[2\], sheds the remainder the moment a newer epoch
//!   supersedes the sweep, and publishes violations into a second
//!   epoch-stamped store. `enumerated == screened + skipped_islanding`
//!   and `screened == cleared + violated + shed_stale`, always.

pub mod ingest;
pub mod scenarios;
pub mod service;
pub mod snapshot;
pub mod supervise;
pub mod wire;

pub use ingest::{IngestQueue, IngestStats, PushOutcome, ShedReason};
pub use scenarios::{
    CaseOutcome, CaseReport, EpochWatch, InsecureCase, ScenarioConfig, ScenarioEngine,
    ScenarioProduct, ScenarioReport, ScenarioStore,
};
pub use service::{
    BadDataEvent, BadDataGate, StreamConfig, StreamError, StreamReport, StreamService,
    SwitchingEvent,
};
pub use snapshot::{EpochStore, PublishRejected, Sequenced, SnapshotStore, SystemSnapshot};
pub use supervise::{
    AreaCheckpoint, CheckpointStats, CheckpointStore, KillSchedule, SupervisionEvent, Watchdog,
    WorkerHealth,
};
pub use wire::{decode, encode, StreamFrame, TopologyEvent, WireError};
