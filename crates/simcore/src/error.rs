//! Workspace-wide typed error.
//!
//! Public constructors and entry points across the sprinting stack
//! (`testbed`, `qsim`, `policy`, `cloud`, `faults`) validate their
//! inputs and return [`SprintError`] instead of aborting the process
//! with `assert!`. The enum is hand-rolled (no external error crates)
//! so the workspace stays dependency-free and offline-buildable.

use std::fmt;

/// Typed error for invalid configuration and runtime failures across
/// the sprinting workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum SprintError {
    /// A configuration parameter failed validation. `what` names the
    /// parameter (e.g. `"Budget::refill_secs"`), `details` says why.
    InvalidConfig {
        /// Dotted path of the offending parameter.
        what: &'static str,
        /// Human-readable reason the value was rejected.
        details: String,
    },
    /// A fault plan failed validation before a run started.
    InvalidFaultPlan {
        /// Human-readable reason the plan was rejected.
        details: String,
    },
    /// A simulation invariant broke mid-run (event storm, drained
    /// calendar with queries outstanding, inconsistent slot state).
    /// `what` names the entry point that detected the violation.
    Runtime {
        /// Entry point that detected the violation.
        what: &'static str,
        /// Human-readable description of the broken invariant.
        details: String,
    },
    /// A parallel batch worker panicked while simulating one config.
    WorkerPanic {
        /// Index of the config whose worker panicked.
        index: usize,
        /// Downcast panic payload, if it was a string.
        message: String,
    },
    /// Persistence (file IO) failure.
    Io(String),
    /// JSON parse or schema failure.
    Parse(String),
}

impl SprintError {
    /// Shorthand for an [`SprintError::InvalidConfig`] rejection.
    pub fn invalid(what: &'static str, details: impl Into<String>) -> Self {
        SprintError::InvalidConfig {
            what,
            details: details.into(),
        }
    }

    /// Shorthand for a [`SprintError::Runtime`] invariant violation.
    pub fn runtime(what: &'static str, details: impl Into<String>) -> Self {
        SprintError::Runtime {
            what,
            details: details.into(),
        }
    }

    /// Validates that `value` is finite and strictly positive.
    pub fn require_positive(what: &'static str, value: f64) -> Result<(), SprintError> {
        if !value.is_finite() || value <= 0.0 {
            return Err(SprintError::invalid(
                what,
                format!("must be finite and > 0, got {value}"),
            ));
        }
        Ok(())
    }

    /// Validates that `value` is `>= 0` and not NaN. Infinity passes:
    /// an infinite budget capacity is a legal unlimited budget.
    pub fn require_non_negative(what: &'static str, value: f64) -> Result<(), SprintError> {
        if value.is_nan() || value < 0.0 {
            return Err(SprintError::invalid(
                what,
                format!("must be >= 0 and not NaN, got {value}"),
            ));
        }
        Ok(())
    }

    /// Validates that an integer count is strictly positive.
    pub fn require_nonzero(what: &'static str, value: usize) -> Result<(), SprintError> {
        if value == 0 {
            return Err(SprintError::invalid(what, "must be > 0, got 0"));
        }
        Ok(())
    }
}

impl fmt::Display for SprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SprintError::InvalidConfig { what, details } => {
                write!(f, "invalid config: {what}: {details}")
            }
            SprintError::InvalidFaultPlan { details } => {
                write!(f, "invalid fault plan: {details}")
            }
            SprintError::Runtime { what, details } => {
                write!(f, "runtime invariant violated: {what}: {details}")
            }
            SprintError::WorkerPanic { index, message } => {
                write!(f, "batch worker for config {index} panicked: {message}")
            }
            SprintError::Io(msg) => write!(f, "io error: {msg}"),
            SprintError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for SprintError {}

impl From<std::io::Error> for SprintError {
    fn from(e: std::io::Error) -> Self {
        SprintError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SprintError::invalid("Budget::capacity", "must be >= 0, got -1");
        let s = e.to_string();
        assert!(s.contains("Budget::capacity"));
        assert!(s.contains("-1"));
    }

    #[test]
    fn require_positive_rejects_nan_inf_zero() {
        assert!(SprintError::require_positive("x", f64::NAN).is_err());
        assert!(SprintError::require_positive("x", f64::INFINITY).is_err());
        assert!(SprintError::require_positive("x", 0.0).is_err());
        assert!(SprintError::require_positive("x", -3.0).is_err());
        assert!(SprintError::require_positive("x", 1.5).is_ok());
    }

    #[test]
    fn require_non_negative_rejects_nan() {
        assert!(SprintError::require_non_negative("x", f64::NAN).is_err());
        assert!(SprintError::require_non_negative("x", -0.1).is_err());
        assert!(SprintError::require_non_negative("x", 0.0).is_ok());
        // Infinite capacity is a legal budget (Unlimited spec).
        assert!(SprintError::require_non_negative("x", f64::INFINITY).is_ok());
    }
}
