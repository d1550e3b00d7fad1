//! # difi-util
//!
//! Foundation utilities shared by every crate in the `difi` workspace:
//!
//! * [`rng`] — a small, deterministic pseudo-random generator family
//!   (SplitMix64 seeding + xoshiro256\*\*). Fault-injection campaigns must be
//!   reproducible bit-for-bit from a published seed, independent of external
//!   crate versions, so the campaign RNG lives in-repo.
//! * [`bits`] — bit-level storage helpers used by the fault-injectable
//!   storage arrays (caches, register files, queues).
//! * [`stats`] — the statistical fault-sampling mathematics of
//!   Leveugle et al., DATE 2009 (reference \[20\] of the paper), plus
//!   confidence intervals for reporting.
//! * [`json`] — a JSON value and parser for reading, and a streaming
//!   writer ([`json::WriteJson`], [`json::Obj`]) that appends a record's
//!   text to a reused buffer without building a value first.
//! * [`jsonl`] — the loader of line-oriented JSON journals, tolerant of the
//!   unterminated torn tail line a crash mid-append leaves.
//! * [`alloc`] — a counting global allocator used by the engine's
//!   allocation-free steady-state invariant test.
//!
//! # Example
//!
//! ```
//! use difi_util::stats::sample_size;
//! // The paper: 99% confidence, 3% error margin => 1843 injections for all
//! // structure/benchmark pairs of the study.
//! let n = sample_size(32 * 1024 * 8 * 1_000_000, 0.99, 0.03);
//! assert_eq!(n, 1843);
//! ```

pub mod alloc;
pub mod bits;
pub mod json;
pub mod jsonl;
pub mod rng;
pub mod stats;

/// Convenience result alias used across the workspace for fallible setup
/// paths (program assembly, configuration validation, log parsing).
pub type Result<T> = std::result::Result<T, Error>;

/// Workspace-level error type for setup/configuration failures.
///
/// Simulation outcomes (crashes, asserts, timeouts) are *data*, not errors —
/// they are carried in `difi_core::RunStatus` instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A configuration value is out of range or inconsistent.
    Config(String),
    /// A program image could not be assembled or loaded.
    Program(String),
    /// A persisted log or report could not be parsed.
    Parse(String),
    /// An I/O error (message-only so the type stays `Clone + Eq`).
    Io(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config(m) => write!(f, "invalid configuration: {m}"),
            Error::Program(m) => write!(f, "invalid program: {m}"),
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_unpunctuated() {
        let e = Error::Config("rob size must be nonzero".into());
        let s = e.to_string();
        assert!(s.starts_with("invalid configuration"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
