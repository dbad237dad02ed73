//! Error types for the optical ring simulator.

use crate::topology::NodeId;
use std::fmt;

/// Errors produced while validating or simulating optical schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum OpticalError {
    /// A node id referenced a node outside the ring.
    NodeOutOfRange {
        /// Offending node.
        node: NodeId,
        /// Number of nodes on the ring.
        n: usize,
    },
    /// A transfer had identical source and destination.
    SelfTransfer(NodeId),
    /// A transfer requested zero striping lanes.
    ZeroLanes,
    /// The RWA strategy ran out of wavelengths for a step.
    WavelengthsExhausted {
        /// Wavelengths available per waveguide.
        available: usize,
        /// Lanes that could not be placed.
        requested: usize,
        /// Step index in the schedule (if known).
        step: usize,
    },
    /// The configured ring is too small to be meaningful.
    RingTooSmall(usize),
    /// Configuration parameter out of range (bandwidth, wavelengths, ...).
    BadConfig(&'static str),
    /// A lightpath exceeds the optical power budget (insertion loss).
    PowerBudgetExceeded {
        /// Hops of the offending path.
        hops: usize,
        /// Maximum hops the physical model allows.
        max_hops: usize,
    },
    /// A malformed fault script or recovery policy.
    Fault(wrht_kernel::FaultError),
}

impl fmt::Display for OpticalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpticalError::NodeOutOfRange { node, n } => {
                write!(f, "node {} out of range for ring of {} nodes", node.0, n)
            }
            OpticalError::SelfTransfer(node) => {
                write!(f, "transfer from node {} to itself", node.0)
            }
            OpticalError::ZeroLanes => write!(f, "transfer requested zero wavelength lanes"),
            OpticalError::WavelengthsExhausted {
                available,
                requested,
                step,
            } => write!(
                f,
                "step {step}: could not place {requested} lane(s), only {available} wavelengths per waveguide"
            ),
            OpticalError::RingTooSmall(n) => {
                write!(f, "ring must have at least 2 nodes, got {n}")
            }
            OpticalError::BadConfig(what) => write!(f, "bad configuration: {what}"),
            OpticalError::PowerBudgetExceeded { hops, max_hops } => write!(
                f,
                "lightpath of {hops} hops exceeds the optical power budget (max {max_hops})"
            ),
            OpticalError::Fault(e) => write!(f, "fault script: {e}"),
        }
    }
}

impl std::error::Error for OpticalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpticalError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl OpticalError {
    /// Stamp a wavelength exhaustion with the index of the step it
    /// happened in (the occupancy that detects it does not know the step);
    /// every other error passes through unchanged.
    #[must_use]
    pub(crate) fn at_step(self, step: usize) -> Self {
        match self {
            OpticalError::WavelengthsExhausted {
                available,
                requested,
                ..
            } => OpticalError::WavelengthsExhausted {
                available,
                requested,
                step,
            },
            other => other,
        }
    }
}

impl From<wrht_kernel::FaultError> for OpticalError {
    fn from(e: wrht_kernel::FaultError) -> Self {
        OpticalError::Fault(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OpticalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OpticalError::NodeOutOfRange {
            node: NodeId(9),
            n: 4,
        };
        assert!(e.to_string().contains("node 9"));
        assert!(e.to_string().contains("4 nodes"));
        let e = OpticalError::WavelengthsExhausted {
            available: 4,
            requested: 8,
            step: 3,
        };
        assert!(e.to_string().contains("step 3"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(OpticalError::ZeroLanes, OpticalError::ZeroLanes);
        assert_ne!(
            OpticalError::ZeroLanes,
            OpticalError::SelfTransfer(NodeId(0))
        );
    }
}
