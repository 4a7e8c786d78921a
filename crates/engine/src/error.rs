//! Typed errors for the public engine boundary.
//!
//! The seed library panicked its way through boundary failures: bad query
//! text bubbled up as `unwrap`s on the parse results, an update naming a
//! node the graph does not have hit the graph builder's `assert!`. None
//! of that matters in-process — but a serving front-end
//! (`rpq-server`) cannot let one malformed request kill a connection
//! thread. [`EngineError`] is the one enum every boundary failure maps
//! into, and the server maps its variants onto HTTP status codes instead
//! of unwinding.

use std::fmt;

/// Why a request failed at the engine boundary.
///
/// The enum is `#[non_exhaustive]`: new failure modes can be added
/// without breaking matches downstream (callers keep a `_` arm).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// Query text failed to parse (predicate, regex, or pattern syntax).
    /// `line` is 1-based within the offending query text (`0` when the
    /// failure is not line-addressable, e.g. a single-line RQ field).
    BadQuery {
        /// 1-based line within the query text, `0` if not applicable.
        line: usize,
        /// Human-readable parse failure.
        msg: String,
    },
    /// An update referenced a node id the graph does not have.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The graph's node count at the time of the call.
        node_count: usize,
    },
    /// An update tried to insert/delete a wildcard-colored edge — data
    /// edges carry concrete colors only.
    WildcardEdge,
    /// An update named an edge color its graph's alphabet does not hold.
    ColorOutOfRange {
        /// The offending color id.
        color: u8,
        /// The number of colors in the graph's alphabet.
        colors: usize,
    },
    /// A configuration value failed validation.
    Config(ConfigError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadQuery { line: 0, msg } => write!(f, "bad query: {msg}"),
            EngineError::BadQuery { line, msg } => write!(f, "bad query: line {line}: {msg}"),
            EngineError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            EngineError::WildcardEdge => {
                write!(
                    f,
                    "updates must name a concrete edge color, not the wildcard"
                )
            }
            EngineError::ColorOutOfRange { color, colors } => {
                write!(
                    f,
                    "edge color {color} out of range (graph has {colors} colors)"
                )
            }
            EngineError::Config(e) => write!(f, "bad configuration: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

/// Why an [`EngineConfig`](crate::EngineConfig) failed to validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `shards` was zero — `1` means "sharding disabled"; zero shards can
    /// partition nothing.
    ZeroShards,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => {
                write!(f, "shards must be at least 1 (1 = sharding disabled)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}
