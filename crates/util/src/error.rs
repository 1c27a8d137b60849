//! The common error type used across the EdgeTune workspace.

use std::fmt;

/// Convenience alias for results produced by this workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the EdgeTune reproduction crates.
///
/// The variants are intentionally coarse: the workspace is a research
/// system, and callers mostly need a human-readable explanation plus enough
/// structure to distinguish configuration mistakes from runtime failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A user-supplied configuration is invalid (bad range, unknown
    /// parameter, inconsistent shapes, ...).
    InvalidConfig(String),
    /// A referenced entity (parameter, device, workload, cache entry) does
    /// not exist.
    NotFound(String),
    /// A numerical routine failed to produce a finite/usable value.
    Numerical(String),
    /// An I/O or (de)serialization problem, e.g. in the persistent trial
    /// database.
    Storage(String),
}

impl Error {
    /// Builds an [`Error::InvalidConfig`] from anything displayable.
    pub fn invalid_config(msg: impl fmt::Display) -> Self {
        Error::InvalidConfig(msg.to_string())
    }

    /// Builds an [`Error::NotFound`] from anything displayable.
    pub fn not_found(msg: impl fmt::Display) -> Self {
        Error::NotFound(msg.to_string())
    }

    /// Builds an [`Error::Numerical`] from anything displayable.
    pub fn numerical(msg: impl fmt::Display) -> Self {
        Error::Numerical(msg.to_string())
    }

    /// Builds an [`Error::Storage`] from anything displayable.
    pub fn storage(msg: impl fmt::Display) -> Self {
        Error::Storage(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Numerical(m) => write!(f, "numerical error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Storage(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = Error::invalid_config("batch size must be > 0");
        assert_eq!(
            e.to_string(),
            "invalid configuration: batch size must be > 0"
        );
        let e = Error::not_found("device 'tpu'");
        assert!(e.to_string().contains("device 'tpu'"));
    }

    #[test]
    fn constructors_map_to_variants() {
        assert!(matches!(Error::numerical("x"), Error::Numerical(_)));
        assert!(matches!(Error::storage("x"), Error::Storage(_)));
    }

    #[test]
    fn io_error_converts_to_storage() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Storage(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
