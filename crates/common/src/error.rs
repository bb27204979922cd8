//! The common error type used across all SharedDB crates.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by SharedDB components.
///
/// The error space is deliberately flat: SharedDB is a research engine and
/// callers mostly need to distinguish *user errors* (bad SQL, unknown table,
/// type mismatch) from *engine errors* (an operator panicked, a channel was
/// disconnected, the engine is shutting down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A SQL statement could not be parsed.
    Parse(String),
    /// A statement referenced an unknown table.
    UnknownTable(String),
    /// A statement referenced an unknown column.
    UnknownColumn(String),
    /// A value had an unexpected type for the requested operation.
    TypeMismatch { expected: String, found: String },
    /// A prepared-statement parameter was missing or had the wrong type.
    InvalidParameter(String),
    /// The query referenced a statement type that is not part of the
    /// compiled global plan (ad-hoc queries must be registered first).
    UnknownStatement(String),
    /// A constraint (primary key, not-null) was violated.
    ConstraintViolation(String),
    /// The engine rejected the request because it is shutting down.
    EngineShutdown,
    /// The request was rejected by admission control because a queue or
    /// session limit was reached; the client may retry after backing off.
    Overloaded(String),
    /// A query exceeded its response-time deadline and was cancelled.
    DeadlineExceeded,
    /// An internal invariant was violated; indicates a bug.
    Internal(String),
    /// Recovery from the write-ahead log failed.
    Recovery(String),
    /// An I/O error (only reported as a rendered string so the error stays
    /// `Clone` + `PartialEq`; the WAL attaches context before converting).
    Io(String),
    /// The requested feature is recognised but not supported by this build.
    Unsupported(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::UnknownTable(name) => write!(f, "unknown table: {name}"),
            Error::UnknownColumn(name) => write!(f, "unknown column: {name}"),
            Error::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::UnknownStatement(msg) => write!(f, "unknown statement: {msg}"),
            Error::ConstraintViolation(msg) => write!(f, "constraint violation: {msg}"),
            Error::EngineShutdown => write!(f, "engine is shutting down"),
            Error::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            Error::DeadlineExceeded => write!(f, "deadline exceeded"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
            Error::Recovery(msg) => write!(f, "recovery error: {msg}"),
            Error::Io(msg) => write!(f, "io error: {msg}"),
            Error::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

impl Error {
    /// True when the request may be retried after backing off (admission
    /// control rejections, not hard failures).
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Overloaded(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::UnknownTable("ITEM".into());
        assert!(e.to_string().contains("ITEM"));
        let e = Error::TypeMismatch {
            expected: "Int".into(),
            found: "Text".into(),
        };
        assert!(e.to_string().contains("Int"));
        assert!(e.to_string().contains("Text"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
    }
}
