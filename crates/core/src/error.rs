//! Error types for optimization.

use std::error::Error;
use std::fmt;

/// Why [`crate::Optimizer::find_best_plan`] returned no plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// No combination of rules and algorithms produces a plan that
    /// delivers the required physical properties within the cost limit.
    /// With an unlimited budget this means the model simply cannot
    /// implement the expression (e.g. a missing implementation rule).
    NoPlan,
    /// A plan exists but exceeded the caller-supplied cost limit — the
    /// user-interface facility to "catch" unreasonable queries (§3).
    LimitExceeded,
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::NoPlan => {
                write!(f, "no plan can deliver the required physical properties")
            }
            OptimizeError::LimitExceeded => {
                write!(f, "every plan exceeds the supplied cost limit")
            }
        }
    }
}

impl Error for OptimizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(OptimizeError::NoPlan.to_string().contains("no plan"));
        assert!(OptimizeError::LimitExceeded
            .to_string()
            .contains("cost limit"));
    }
}
