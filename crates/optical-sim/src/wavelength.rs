//! Wavelength identifiers.
//!
//! TeraRack-class interconnects carry up to 64 DWDM channels per waveguide;
//! we allow an arbitrary count. [`crate::rwa::Occupancy`] keeps lane
//! memberships as bit masks.

use serde::{Deserialize, Serialize};

/// Index of a WDM channel, in `0..w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Wavelength(pub usize);

impl std::fmt::Display for Wavelength {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "λ{}", self.0)
    }
}
