//! The unified run-error type for every entry point.
//!
//! [`RunError`] is what [`crate::RunBuilder::run`] returns: one
//! `#[non_exhaustive]` enum covering configuration violations, cluster
//! failures, and builder misuse, so callers match on typed variants
//! instead of parsing panic payloads or error strings.

use crate::config::ConfigError;
use std::fmt;

/// Everything that can keep a simulated run from launching or completing.
///
/// Marked `#[non_exhaustive]`: future failure modes (new recovery
/// policies, new transports) become new variants without a breaking
/// release, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The configuration violates a constraint (see
    /// [`crate::SystemConfig::validate`]).
    Config(ConfigError),
    /// An injected executor crash fired with recovery disabled: the
    /// exchange was poisoned and every executor stopped.
    ExecutorCrash {
        /// The executor that crashed.
        exec: u16,
        /// The statement barrier at which the crash fired.
        barrier: u64,
    },
    /// A multi-executor (or fault-injected) run was requested from a
    /// single-shot `(program, fns, data)` source. Executor threads each
    /// rebuild the program and user functions — functions cannot cross
    /// threads and may hold per-executor state — while the input is built
    /// once and shared, so these runs need
    /// [`crate::RunBuilder::from_build`] with a deterministic rebuild
    /// closure.
    NeedsRebuild {
        /// How many executors the configuration asked for.
        executors: u16,
    },
    /// An executor re-issued a gather deposit (replaying after a crash)
    /// whose structural digest differs from the deposit that landed the
    /// first time: replay did not reproduce the original timeline, so the
    /// run's determinism guarantee is broken and its results are void.
    DivergentDeposit {
        /// The executor whose replay diverged.
        exec: u16,
        /// Digest of the deposit that landed.
        landed: u64,
        /// Digest of the re-issued deposit.
        replayed: u64,
    },
    /// An executor asked for a host run permit it already held: the
    /// driver's permit accounting is broken, and a single-permit pool
    /// would have deadlocked, so the run stopped instead.
    PermitHeld {
        /// The executor that acquired twice.
        exec: u16,
    },
    /// An executor thread panicked: a bug, or a simulated heap exhausted.
    /// The exchange was poisoned so its peers stopped instead of waiting.
    ExecutorPanicked {
        /// The executor that panicked.
        exec: u16,
        /// Its panic message.
        message: String,
    },
    /// A wide transformation met a map-side record with no shuffle key
    /// (neither a pair nor a scalar, like a `Payload::Doubles` point fed
    /// straight to `reduceByKey`): the program cannot run.
    KeylessRecord {
        /// The shuffled RDD instance.
        rdd: u32,
        /// The record, as `{:?}` prints it.
        record: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "{e}"),
            RunError::ExecutorCrash { exec, barrier } => write!(
                f,
                "executor {exec} crashed at barrier {barrier} and recovery is disabled"
            ),
            RunError::NeedsRebuild { executors } => write!(
                f,
                "config asks for {executors} executors (or fault injection); multi-executor \
                 runs need RunBuilder::from_build with a deterministic rebuild closure, \
                 because user functions cannot cross executor threads"
            ),
            RunError::DivergentDeposit {
                exec,
                landed,
                replayed,
            } => write!(
                f,
                "executor {exec} re-deposited a divergent payload into a gather \
                 (digest {landed:#x} landed, replay produced {replayed:#x}): \
                 replay is not deterministic"
            ),
            RunError::PermitHeld { exec } => {
                write!(f, "executor {exec} acquired a run permit it already holds")
            }
            RunError::ExecutorPanicked { exec, message } => {
                write!(f, "executor {exec} panicked: {message}")
            }
            RunError::KeylessRecord { rdd, record } => {
                write!(
                    f,
                    "shuffle of rdd[{rdd}]: payload {record} has no shuffle key"
                )
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_carry_their_source() {
        let e = RunError::from(ConfigError::new("executors must be at least 1"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("executors must be at least 1"));
    }

    #[test]
    fn crash_and_rebuild_variants_render() {
        let c = RunError::ExecutorCrash {
            exec: 2,
            barrier: 7,
        };
        assert!(c.to_string().contains("executor 2"));
        assert!(c.to_string().contains("barrier 7"));
        let r = RunError::NeedsRebuild { executors: 4 };
        assert!(r.to_string().contains("from_build"));
        assert!(std::error::Error::source(&r).is_none());
        let d = RunError::DivergentDeposit {
            exec: 1,
            landed: 0xab,
            replayed: 0xcd,
        };
        assert!(d.to_string().contains("executor 1"));
        assert!(d.to_string().contains("0xab") && d.to_string().contains("0xcd"));
        let p = RunError::PermitHeld { exec: 3 };
        assert!(p.to_string().contains("executor 3"));
        let x = RunError::ExecutorPanicked {
            exec: 2,
            message: "bad record".into(),
        };
        assert_eq!(x.to_string(), "executor 2 panicked: bad record");
    }
}
