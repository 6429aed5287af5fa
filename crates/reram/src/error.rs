//! Error type for the ReRAM simulator.

use std::fmt;

/// Errors raised by the crossbar / PIM-array simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReRamError {
    /// An operand does not fit the configured bit-width.
    OperandOverflow {
        /// The offending value.
        value: u64,
        /// The configured width it must fit.
        bits: u32,
    },
    /// A vector or input exceeds the crossbar / layout geometry.
    GeometryViolation {
        /// Which quantity violated the geometry.
        what: &'static str,
        /// The provided size.
        got: usize,
        /// The geometric limit.
        limit: usize,
    },
    /// The dataset does not fit in the PIM array's crossbar budget.
    InsufficientCapacity {
        /// Crossbars the layout needs.
        required: usize,
        /// Crossbars still free.
        available: usize,
    },
    /// An online operation was issued before the array was programmed.
    NotProgrammed,
    /// A configuration parameter is invalid.
    InvalidConfig {
        /// Which parameter and why.
        what: &'static str,
    },
    /// A crossbar's ADC glitched on every sampling attempt within the
    /// bounded retry budget — the controller cannot obtain a trustworthy
    /// read.
    AdcRetryExhausted {
        /// The physical crossbar whose ADC keeps glitching.
        crossbar: usize,
        /// Sampling attempts made before giving up.
        attempts: u32,
    },
    /// The whole bank is lost (fail-stop): the controller no longer
    /// responds to programming or dot-product commands. Recovery means
    /// re-replicating the resident data onto a spare bank.
    BankLost,
    /// A fault/health API was called on an array without an attached
    /// fault model.
    FaultsNotEnabled,
    /// A health query was issued before the region was scrubbed.
    NotScrubbed,
}

impl fmt::Display for ReRamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OperandOverflow { value, bits } => {
                write!(f, "operand {value} does not fit in {bits} bits")
            }
            Self::GeometryViolation { what, got, limit } => {
                write!(
                    f,
                    "geometry violation: {what} = {got} exceeds limit {limit}"
                )
            }
            Self::InsufficientCapacity {
                required,
                available,
            } => {
                write!(
                    f,
                    "dataset needs {required} crossbars but only {available} are available"
                )
            }
            Self::NotProgrammed => write!(f, "PIM array has not been programmed with a dataset"),
            Self::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            Self::AdcRetryExhausted { crossbar, attempts } => {
                write!(
                    f,
                    "crossbar {crossbar}: ADC glitched on all {attempts} sampling attempts"
                )
            }
            Self::BankLost => {
                write!(f, "bank lost: the controller is fail-stopped")
            }
            Self::FaultsNotEnabled => {
                write!(f, "no fault model is attached to the PIM array")
            }
            Self::NotScrubbed => {
                write!(f, "region health is unknown until it is scrubbed")
            }
        }
    }
}

impl std::error::Error for ReRamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(ReRamError::OperandOverflow { value: 9, bits: 3 }
            .to_string()
            .contains("9"));
        assert!(ReRamError::NotProgrammed.to_string().contains("programmed"));
        assert!(ReRamError::InsufficientCapacity {
            required: 5,
            available: 2
        }
        .to_string()
        .contains("crossbars"));
        assert!(ReRamError::AdcRetryExhausted {
            crossbar: 7,
            attempts: 3
        }
        .to_string()
        .contains("3 sampling attempts"));
        assert!(ReRamError::BankLost.to_string().contains("bank lost"));
        assert!(ReRamError::FaultsNotEnabled
            .to_string()
            .contains("fault model"));
        assert!(ReRamError::NotScrubbed.to_string().contains("scrubbed"));
    }
}
