//! The workspace-wide simulation error type.
//!
//! Every crate in the stack used to panic on malformed input (mesh
//! shape checks, schedule builders, jitter amplitudes). [`SimError`]
//! gives the fallible constructors and the unified
//! `StepModel::run(&SimOptions)` entrypoint one shared error enum, so
//! callers composing cluster × mesh × model × faults get a `Result`
//! instead of an abort. Domain-specific errors ([`FluidError`],
//! [`GraphError`], and `parallelism-core`'s `PlanError`) convert into
//! it via `From`.

use crate::fluid::FluidError;
use crate::graph::GraphError;
use std::fmt;

/// Errors from building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A shape constraint was violated (zero-sized mesh dimension,
    /// stage/layer mismatch, cluster size not a multiple of the node
    /// size, ...).
    InvalidShape(String),
    /// A numeric parameter was out of range (negative rate, non-finite
    /// amplitude, zero bandwidth, ...).
    InvalidValue(String),
    /// A schedule could not be built or could not execute.
    InvalidSchedule(String),
    /// The lowered task graph deadlocked.
    Deadlock(String),
    /// The fluid network rejected a transfer.
    Network(FluidError),
    /// No feasible configuration exists (planner exhaustion).
    Infeasible(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidShape(m) => write!(f, "invalid shape: {m}"),
            SimError::InvalidValue(m) => write!(f, "invalid value: {m}"),
            SimError::InvalidSchedule(m) => write!(f, "invalid schedule: {m}"),
            SimError::Deadlock(m) => write!(f, "deadlock: {m}"),
            SimError::Network(e) => write!(f, "network: {e}"),
            SimError::Infeasible(m) => write!(f, "infeasible: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<FluidError> for SimError {
    fn from(e: FluidError) -> SimError {
        SimError::Network(e)
    }
}

impl From<GraphError> for SimError {
    fn from(e: GraphError) -> SimError {
        match e {
            GraphError::Deadlock(ops) => {
                SimError::Deadlock(format!("{} ops could not run", ops.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::LinkId;

    #[test]
    fn displays_are_informative() {
        let e = SimError::InvalidShape("tp must be positive".into());
        assert!(e.to_string().contains("tp must be positive"));
        let e: SimError = FluidError::UnknownLink(LinkId(3)).into();
        assert!(e.to_string().contains("link3"));
        let e: SimError = GraphError::Deadlock(vec![]).into();
        assert!(matches!(e, SimError::Deadlock(_)));
    }
}
