//! Error type for the execution engine.

use dqo_storage::StorageError;
use std::fmt;

/// Errors produced during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An algorithm's precondition on its input was violated (e.g. OG on
    /// unpartitioned input, SPHG on a sparse domain).
    PreconditionViolated {
        /// The algorithm whose contract was broken.
        algorithm: &'static str,
        /// What was expected.
        detail: String,
    },
    /// Key and value columns must have equal lengths.
    LengthMismatch {
        /// Key column length.
        keys: usize,
        /// Value column length.
        values: usize,
    },
    /// Underlying storage error.
    Storage(StorageError),
    /// The requested algorithm needs information that was not provided
    /// (e.g. BSG without the known key set).
    MissingInput(String),
    /// The parallel scheduler failed the batch (e.g. a worker task
    /// panicked); surfaced to the submitting query only.
    Scheduler(String),
    /// Segment bounds handed to a parallel kernel do not cover the input
    /// exactly: they must start at 0, never decrease and end at `rows`.
    BadBounds {
        /// Input length the bounds had to span.
        rows: usize,
        /// The offending bounds.
        bounds: Vec<usize>,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PreconditionViolated { algorithm, detail } => {
                write!(f, "{algorithm}: precondition violated: {detail}")
            }
            ExecError::LengthMismatch { keys, values } => {
                write!(f, "length mismatch: {keys} keys vs {values} values")
            }
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
            ExecError::MissingInput(msg) => write!(f, "missing input: {msg}"),
            ExecError::Scheduler(msg) => write!(f, "scheduler error: {msg}"),
            ExecError::BadBounds { rows, bounds } => write!(
                f,
                "segment bounds {bounds:?} must start at 0, never decrease and end at {rows}"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = ExecError::PreconditionViolated {
            algorithm: "OG",
            detail: "input not partitioned by key".into(),
        };
        assert!(e.to_string().contains("OG"));
        let e = ExecError::LengthMismatch { keys: 3, values: 4 };
        assert!(e.to_string().contains("3 keys vs 4 values"));
    }

    #[test]
    fn storage_error_converts_and_sources() {
        use std::error::Error;
        let e: ExecError = StorageError::UnknownColumn("x".into()).into();
        assert!(e.source().is_some());
    }
}
