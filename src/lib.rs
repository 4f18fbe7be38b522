//! # pgse — Distributed Power-Grid State Estimation on HPC Clusters
//!
//! A from-scratch Rust reproduction of *"Distributing Power Grid State
//! Estimation on HPC Clusters — A System Architecture Prototype"*
//! (Liu, Jiang, Jin, Rice, Chen; IPDPS Workshops 2012).
//!
//! This facade crate re-exports the whole system. The layering, bottom up:
//!
//! | Layer | Crate | Role |
//! |---|---|---|
//! | sparse linear algebra | [`sparsela`] | CSR/CSC, sparse LU & Cholesky |
//! | network model | [`grid`] | buses/branches/areas, Ybus, IEEE-14 & IEEE-118-like cases |
//! | power flow | [`powerflow`] | Newton–Raphson ground-truth operating points |
//! | estimation | [`estimation`] | WLS state estimation, telemetry, bad data, observability |
//! | DSE algorithm | [`dse`] | decomposition, Step 1 / Step 2, pseudo measurements |
//! | mapping | [`partition`] | multilevel k-way partitioning + adaptive repartitioning |
//! | middleware | [`medici`] | pipelines, URL endpoints, store-and-forward relay |
//! | mini-MPI | [`mpilite`] | ranked collectives + row-distributed PCG |
//! | clusters | [`cluster`] | the Nwiceb/Catamount/Chinook fleet, interface layer |
//! | contingency | [`contingency`] | N-1 analysis with counter-based dynamic load balancing |
//! | observability | [`obs`] | deterministic tracing + mergeable metrics, [`obs::ObsReport`] JSON |
//! | prototype | [`core`] | the per-time-frame system architecture (Fig. 1) |
//! | streaming | [`stream`] | continuous SE service: sequenced ingest, warm solves, snapshot store |
//! | serving | [`serve`] | PGSS delta wire format, subscription multiplexer, poll-reactor fan-out |
//!
//! ## Quickstart
//!
//! ```
//! use pgse::core::{PrototypeConfig, SystemPrototype};
//! use pgse::grid::cases::ieee118_like;
//!
//! let mut prototype =
//!     SystemPrototype::deploy(ieee118_like(), PrototypeConfig::default()).unwrap();
//! let report = prototype.run_frame(0.0).unwrap();
//! assert!(report.vm_rmse < 1e-2);
//! println!("{}", report.to_json());
//! ```
//!
//! See `examples/` for runnable scenarios and DESIGN.md / EXPERIMENTS.md
//! for the paper-experiment index.

pub use pgse_cluster as cluster;
pub use pgse_contingency as contingency;
pub use pgse_core as core;
pub use pgse_dse as dse;
pub use pgse_estimation as estimation;
pub use pgse_grid as grid;
pub use pgse_medici as medici;
pub use pgse_mpilite as mpilite;
pub use pgse_obs as obs;
pub use pgse_partition as partition;
pub use pgse_powerflow as powerflow;
pub use pgse_serve as serve;
pub use pgse_sparsela as sparsela;
pub use pgse_stream as stream;
