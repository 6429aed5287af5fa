//! Error type of the serving engine.

use std::error::Error;
use std::fmt;

use simpim_core::CoreError;
use simpim_mining::MiningError;

/// Errors surfaced by the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded submission queue is full — admission control rejected
    /// the request. Back off and retry.
    Overloaded,
    /// The request's deadline expired while it waited in the queue.
    DeadlineExpired,
    /// The engine has shut down (its scheduler thread exited).
    Closed,
    /// A caller-supplied argument is out of range — wrong dimensionality,
    /// non-normalized values, `k == 0`.
    InvalidArgument {
        /// What was wrong.
        what: String,
    },
    /// The engine configuration is invalid (e.g. a malformed
    /// [`simpim_reram::FaultConfig`]), rejected up front before any bank
    /// is programmed.
    Config {
        /// What was wrong.
        what: String,
    },
    /// A PIM execution failure that could not be shed to the host path.
    Core(CoreError),
    /// A refinement failure (measure/operand mismatch).
    Mining(MiningError),
    /// The serving code itself failed: a panic while a batch ran. That
    /// batch's queries fail with it; the engine keeps serving.
    Internal {
        /// The panic's message.
        what: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded => write!(
                f,
                "submission queue full: request shed by admission control"
            ),
            Self::DeadlineExpired => write!(f, "deadline expired before the query was scheduled"),
            Self::Closed => write!(f, "serving engine is shut down"),
            Self::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
            Self::Config { what } => write!(f, "invalid configuration: {what}"),
            Self::Core(e) => write!(f, "PIM execution failed: {e}"),
            Self::Mining(e) => write!(f, "refinement failed: {e}"),
            Self::Internal { what } => write!(f, "internal error: {what}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Mining(e) => Some(e),
            _ => None,
        }
    }
}

impl ServeError {
    /// An [`ServeError::InvalidArgument`] saying `what` was wrong.
    pub(crate) fn invalid(what: impl Into<String>) -> Self {
        Self::InvalidArgument { what: what.into() }
    }

    /// Whether this error is a whole-bank fail-stop
    /// ([`simpim_reram::ReRamError::BankLost`]) bubbling up through the
    /// execution stack — the signal that the replica's bank is gone and
    /// the query must fail over to another replica.
    pub fn is_bank_loss(&self) -> bool {
        matches!(
            self,
            Self::Core(CoreError::ReRam(simpim_reram::ReRamError::BankLost))
        )
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

/// Dataset-shape failures (dimension mismatch, empty dimension) travel
/// the same route the executor's do.
impl From<simpim_similarity::SimilarityError> for ServeError {
    fn from(e: simpim_similarity::SimilarityError) -> Self {
        Self::Core(e.into())
    }
}

impl From<MiningError> for ServeError {
    fn from(e: MiningError) -> Self {
        Self::Mining(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::Overloaded.to_string().contains("queue full"));
        assert!(ServeError::Closed.to_string().contains("shut down"));
        let e = ServeError::from(CoreError::Mismatch { what: "test" });
        assert!(e.to_string().contains("PIM execution failed"));
        assert!(e.source().is_some());
        assert!(ServeError::Config { what: "bad".into() }
            .to_string()
            .contains("configuration"));
        assert!(ServeError::Internal {
            what: "boom".into()
        }
        .to_string()
        .contains("internal error: boom"));
    }

    #[test]
    fn bank_loss_is_detected_through_the_error_stack() {
        let e = ServeError::from(CoreError::ReRam(simpim_reram::ReRamError::BankLost));
        assert!(e.is_bank_loss());
        assert!(!ServeError::Overloaded.is_bank_loss());
        assert!(!ServeError::from(CoreError::Mismatch { what: "x" }).is_bank_loss());
    }
}
