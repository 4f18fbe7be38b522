//! # pgse-powerflow
//!
//! Full Newton–Raphson AC power flow.
//!
//! The prototype needs a self-consistent operating point of each test
//! network: the telemetry generator samples noisy measurements from a
//! *solved* power flow, which guarantees the WLS estimator faces realistic,
//! convergent problems (the paper's testbed obtains the same thing from
//! recorded SCADA snapshots).
//!
//! [`equations`] holds the AC power-flow arithmetic (bus injections, branch
//! flows, and their partial derivatives) shared with the state-estimation
//! crate; [`newton`] implements the full Newton solver on top of the sparse
//! LU from `pgse-sparsela`, over a [`PfModel`] built once per network and
//! solved per operating point or branch outage, and [`dcpf`] the linear DC
//! model used for contingency screening and sensitivity analysis.

pub mod dcpf;
pub mod equations;
pub mod newton;

pub use equations::{branch_flows, bus_injections, BranchFlow};
pub use dcpf::{solve_dc, DcSolution};
pub use newton::{solve, solve_warm, PfError, PfModel, PfOptions, PfSolution};
