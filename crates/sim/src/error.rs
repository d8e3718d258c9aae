//! Typed errors for the simulation stack.
//!
//! The hot paths of `fxnet-sim` and the SPMD engine historically aborted
//! with `panic!`/`unwrap`; a parallel harness cannot afford that — one
//! poisoned worker would take the whole sweep down. [`FxnetError`] is the
//! single error vocabulary shared by every layer: the engine (invalid
//! config, deadlock, runaway clocks) and trace persistence (I/O).
//!
//! Display strings are stable: the deprecated panicking wrappers format
//! an error with `{}` and `panic!` with the result, so callers that
//! matched on panic messages ("SPMD deadlock", "max_sim_time") keep
//! working unchanged.

use crate::time::SimTime;

/// Everything that can go wrong in a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FxnetError {
    /// A configuration that cannot be simulated (p = 0, hosts < p,
    /// empty group list, zero bandwidth, ...).
    InvalidConfig(String),
    /// No rank can run and the network is idle: the SPMD program is
    /// deadlocked (e.g. a `recv` nobody will ever satisfy).
    Deadlock(String),
    /// A rank's clock passed [`max_sim_time`](SimTime) — the runaway
    /// guard against non-terminating programs.
    SimTimeExceeded {
        /// The offending (global) rank.
        rank: u32,
        /// Its clock when the guard tripped.
        at: SimTime,
        /// The configured limit.
        limit: SimTime,
    },
    /// Trace or artifact I/O failed.
    Io(String),
}

impl std::fmt::Display for FxnetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FxnetError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            FxnetError::Deadlock(s) => {
                write!(f, "SPMD deadlock: no runnable rank and network idle\n{s}")
            }
            FxnetError::SimTimeExceeded { rank, at, limit } => {
                write!(
                    f,
                    "rank {rank} exceeded max_sim_time at {at} (limit {limit})"
                )
            }
            FxnetError::Io(s) => write!(f, "I/O error: {s}"),
        }
    }
}

impl std::error::Error for FxnetError {}

impl From<std::io::Error> for FxnetError {
    fn from(e: std::io::Error) -> Self {
        FxnetError::Io(e.to_string())
    }
}

/// The stack-wide result alias.
pub type FxnetResult<T> = Result<T, FxnetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_are_stable_for_panic_compat() {
        // The deprecated engine wrappers panic with `{}` of these; the
        // substrings below are load-bearing for #[should_panic] callers.
        let d = FxnetError::Deadlock("rank 0: BlockedRecv(1) at 0ns".into());
        assert!(d.to_string().contains("SPMD deadlock"));
        let t = FxnetError::SimTimeExceeded {
            rank: 3,
            at: SimTime::from_secs(2),
            limit: SimTime::from_secs(1),
        };
        assert!(t.to_string().contains("max_sim_time"));
        assert!(t.to_string().contains("rank 3"));
    }

    #[test]
    fn io_errors_convert() {
        let e: FxnetError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, FxnetError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
