//! Error types for configuration construction and protocol registry
//! lookups.

use std::fmt;

/// Error from the protocol registry or other fallible `od-core`
/// construction paths.
///
/// [`crate::registry::build_protocol`] returns this instead of panicking so
/// data-driven callers (the `od-runtime` job runtime, config-file parsers)
/// can surface bad job specs as ordinary errors.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The protocol name is not in the registry.
    UnknownProtocol {
        /// The requested name.
        name: String,
    },
    /// A protocol parameter was missing, unknown, or out of range.
    InvalidParams {
        /// The protocol being constructed.
        protocol: String,
        /// What was wrong.
        reason: String,
    },
    /// An invalid opinion configuration.
    Config(ConfigError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownProtocol { name } => {
                write!(
                    f,
                    "unknown protocol '{name}' (known: {})",
                    crate::registry::registered_protocols().join(", ")
                )
            }
            Self::InvalidParams { protocol, reason } => {
                write!(f, "invalid parameters for protocol '{protocol}': {reason}")
            }
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// Error constructing an [`crate::OpinionCounts`] configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The counts vector was empty (there must be at least one opinion slot).
    NoOpinions,
    /// The total population was zero.
    ZeroPopulation,
    /// The per-opinion counts sum past `u64::MAX`.
    PopulationOverflow,
    /// A balanced/biased constructor was asked for more opinions than
    /// vertices, so the validity condition (every opinion initially
    /// supported) cannot hold.
    MoreOpinionsThanVertices {
        /// Requested number of opinions.
        k: usize,
        /// Number of vertices.
        n: u64,
    },
    /// An opinion index was out of range.
    OpinionOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of opinion slots.
        k: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoOpinions => write!(f, "configuration must have at least one opinion slot"),
            Self::ZeroPopulation => write!(f, "configuration must have at least one vertex"),
            Self::PopulationOverflow => {
                write!(f, "configuration counts sum past u64::MAX vertices")
            }
            Self::MoreOpinionsThanVertices { k, n } => {
                write!(f, "cannot support {k} opinions with only {n} vertices")
            }
            Self::OpinionOutOfRange { index, k } => {
                write!(f, "opinion index {index} out of range for k = {k}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ConfigError::NoOpinions
            .to_string()
            .contains("at least one opinion"));
        assert!(ConfigError::ZeroPopulation
            .to_string()
            .contains("at least one vertex"));
        assert!(ConfigError::PopulationOverflow
            .to_string()
            .contains("u64::MAX"));
        assert!(ConfigError::MoreOpinionsThanVertices { k: 5, n: 3 }
            .to_string()
            .contains("5 opinions"));
        assert!(ConfigError::OpinionOutOfRange { index: 9, k: 3 }
            .to_string()
            .contains("index 9"));
    }
}
