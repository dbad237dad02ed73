//! Error types for Wrht planning and lowering.

use electrical_sim::NetError;
use optical_sim::OpticalError;
use std::fmt;

/// Errors from plan construction, lowering or simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum WrhtError {
    /// Group size must be at least 2.
    GroupSizeTooSmall(usize),
    /// Group size `m` needs `⌊m/2⌋ <= w` wavelengths for its tree steps.
    GroupSizeNeedsMoreWavelengths {
        /// Requested group size.
        m: usize,
        /// Available wavelengths.
        wavelengths: usize,
    },
    /// The deployment has no nodes.
    NoNodes,
    /// A participant list must hold strictly ascending ring positions:
    /// `node` follows `previous` but is not larger (unsorted or duplicate).
    ParticipantsNotAscending {
        /// The participant before `node`.
        previous: usize,
        /// The first participant out of order.
        node: usize,
    },
    /// Planner parameters and the substrate configuration describe rings
    /// of different sizes.
    NodeCountMismatch {
        /// Node count of the planner parameters.
        params: usize,
        /// Node count of the substrate configuration.
        config: usize,
    },
    /// No feasible group size exists for the given wavelength budget.
    NoFeasiblePlan {
        /// Node count.
        n: usize,
        /// Available wavelengths.
        wavelengths: usize,
    },
    /// An error bubbled up from the optical substrate.
    Optical(OpticalError),
    /// An error bubbled up from the electrical substrate.
    Electrical(NetError),
    /// A malformed fault script or recovery policy, normalized to one
    /// variant regardless of which substrate rejected it.
    Fault(wrht_kernel::FaultError),
}

impl fmt::Display for WrhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WrhtError::GroupSizeTooSmall(m) => {
                write!(f, "group size must be >= 2, got {m}")
            }
            WrhtError::GroupSizeNeedsMoreWavelengths { m, wavelengths } => write!(
                f,
                "group size {m} needs {} wavelengths but only {wavelengths} available",
                m / 2
            ),
            WrhtError::NoNodes => write!(f, "deployment has no nodes"),
            WrhtError::ParticipantsNotAscending { previous, node } => write!(
                f,
                "participants must be strictly ascending ring positions, but {node} follows {previous}"
            ),
            WrhtError::NodeCountMismatch { params, config } => write!(
                f,
                "plan parameters are for {params} nodes but the substrate has {config}"
            ),
            WrhtError::NoFeasiblePlan { n, wavelengths } => write!(
                f,
                "no feasible Wrht plan for n={n} with {wavelengths} wavelengths"
            ),
            WrhtError::Optical(e) => write!(f, "optical substrate error: {e}"),
            WrhtError::Electrical(e) => write!(f, "electrical substrate error: {e}"),
            WrhtError::Fault(e) => write!(f, "fault script: {e}"),
        }
    }
}

impl std::error::Error for WrhtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WrhtError::Optical(e) => Some(e),
            WrhtError::Electrical(e) => Some(e),
            WrhtError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OpticalError> for WrhtError {
    fn from(e: OpticalError) -> Self {
        match e {
            OpticalError::Fault(fe) => WrhtError::Fault(fe),
            other => WrhtError::Optical(other),
        }
    }
}

impl From<NetError> for WrhtError {
    fn from(e: NetError) -> Self {
        // Normalize fault-script rejections so callers can match one
        // variant whichever substrate validated the script.
        match e {
            NetError::Fault(fe) => WrhtError::Fault(fe),
            other => WrhtError::Electrical(other),
        }
    }
}

impl From<wrht_kernel::FaultError> for WrhtError {
    fn from(e: wrht_kernel::FaultError) -> Self {
        WrhtError::Fault(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WrhtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = WrhtError::GroupSizeNeedsMoreWavelengths {
            m: 10,
            wavelengths: 2,
        };
        assert!(e.to_string().contains("group size 10"));
        let e: WrhtError = OpticalError::ZeroLanes.into();
        assert!(matches!(e, WrhtError::Optical(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: WrhtError = NetError::SelfFlow(3).into();
        assert!(matches!(e, WrhtError::Electrical(_)));
        assert!(e.to_string().contains("electrical substrate"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
