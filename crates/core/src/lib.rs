//! # pgse-core
//!
//! The system-architecture prototype of the paper: distributed state
//! estimators, each running on an HPC cluster, connected by the MeDICi
//! middleware, with the METIS-style mapping method assigning subsystems to
//! clusters each time frame (Fig. 1).
//!
//! A [`SystemPrototype`] owns the whole deployment:
//!
//! * the interconnection, its solved operating point, and the DSE
//!   decomposition (from `pgse-dse`);
//! * a [`pgse_cluster::ClusterFleet`] (default: the paper's Nwiceb /
//!   Catamount / Chinook testbed);
//! * per-area estimators whose pseudo-measurement exchange rides real
//!   middleware pipelines (`pgse-medici`) — either **peer-to-peer**
//!   (decentralized DSE) or **hierarchical** (via a coordinator), the two
//!   structures Fig. 1 supports;
//! * the mapping method (`pgse-partition`): noise-driven weight update,
//!   partitioning before Step 1, migration-penalized repartitioning before
//!   Step 2, and the implied raw-data redistribution.
//!
//! Calling [`SystemPrototype::run_frame`] executes one full time frame and
//! returns a [`FrameReport`] with every quantity the paper's evaluation
//! tracks. The frame is the mapping plus the MeDICi exchange around
//! `pgse-dse`'s one DSE cycle (`pgse_dse::run_cycle`): the prototype
//! supplies where each step's areas run and how a round's batches travel.

pub mod config;
pub mod prototype;
pub mod report;

pub use config::{ChaosSpec, CoordinationMode, PrototypeConfig};
pub use prototype::SystemPrototype;
pub use report::FrameReport;
