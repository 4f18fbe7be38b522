//! # pgse-estimation
//!
//! Weighted-least-squares (WLS) power-system state estimation — the paper's
//! core computational kernel.
//!
//! The estimator solves `min_x (z − h(x))ᵀ R⁻¹ (z − h(x))` by Gauss–Newton:
//! each iteration assembles the sparse measurement Jacobian `H`, forms the
//! gain matrix `G = HᵀR⁻¹H`, and solves `G·Δx = HᵀR⁻¹(z − h(x))` with a
//! sparse Cholesky whose symbolic analysis and factor are cached across
//! iterations and frames.
//!
//! Modules:
//! * [`measurement`] — the measurement model (SCADA V/P/Q injections and
//!   flows, PMU phasors) and measurement sets;
//! * [`jacobian`] — `h(x)` evaluation and sparse `H(x)` assembly;
//! * [`wls`] — the Gauss–Newton WLS estimator and its cross-frame solve cache;
//! * [`synthetic`] — noisy measurement generation from a solved power flow,
//!   driven by the time-frame noise process `x = f(δt)` of §IV-B.2;
//! * [`baddata`] — chi-square detection and largest-normalized-residual
//!   identification of gross measurement errors;
//! * [`observability`] — numerical observability analysis;
//! * [`restoration`] — pseudo-measurement observability restoration after
//!   telemetry loss.

pub mod baddata;
pub mod jacobian;
pub mod measurement;
pub mod observability;
pub mod restoration;
pub mod synthetic;
pub mod wls;

pub use jacobian::{JacobianPattern, StateSpace};
pub use measurement::{Measurement, MeasurementKind, MeasurementSet};
// `synthetic` types are deliberately not re-exported at the crate root:
// synthetic-telemetry generation is a test/benchmark concern, and callers
// name it explicitly (`pgse_estimation::synthetic::TelemetryPlan`).
pub use wls::{
    GnWave, SolveCache, StateEstimate, StructureDescriptor, WlsError, WlsEstimator, WlsOptions,
};
