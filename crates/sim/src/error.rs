//! Error type for the execution harness.

use std::error::Error;
use std::fmt;

use hh_model::ModelError;

/// Errors raised when constructing or driving a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A model-level error surfaced by the environment.
    Model(ModelError),
    /// The colony handed to the simulation does not match the
    /// environment's ant count.
    AgentCountMismatch {
        /// Number of agents supplied.
        agents: usize,
        /// Environment colony size `n`.
        n: usize,
    },
    /// The crash schedule handed to the simulation does not cover the
    /// environment's ant count.
    CrashPlanMismatch {
        /// Number of ants the crash schedule covers.
        plan: usize,
        /// Environment colony size `n`.
        n: usize,
    },
    /// An earlier round unwound part-way (a panicking agent or pool job
    /// was caught by the caller), so the simulation's state may be half
    /// updated; it refuses to step again.
    Poisoned {
        /// The round that unwound.
        round: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Model(err) => write!(f, "model error: {err}"),
            SimError::AgentCountMismatch { agents, n } => {
                write!(f, "got {agents} agents for an environment of {n} ants")
            }
            SimError::CrashPlanMismatch { plan, n } => {
                write!(f, "got a crash schedule of {plan} ants for a colony of {n}")
            }
            SimError::Poisoned { round } => write!(
                f,
                "round {round} unwound part-way; the simulation state is inconsistent"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Model(err) => Some(err),
            SimError::AgentCountMismatch { .. }
            | SimError::CrashPlanMismatch { .. }
            | SimError::Poisoned { .. } => None,
        }
    }
}

impl From<ModelError> for SimError {
    fn from(err: ModelError) -> Self {
        SimError::Model(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let err = SimError::from(ModelError::EmptyColony);
        assert!(err.to_string().contains("model error"));
        assert!(err.source().is_some());

        let err = SimError::AgentCountMismatch { agents: 3, n: 5 };
        assert!(err.to_string().contains("3 agents"));
        assert!(err.source().is_none());

        let err = SimError::CrashPlanMismatch { plan: 3, n: 8 };
        assert!(err.to_string().contains("3 ants"));
        assert!(err.source().is_none());

        let err = SimError::Poisoned { round: 7 };
        assert!(err.to_string().contains("round 7"));
        assert!(err.source().is_none());
    }

    #[test]
    fn is_send_sync() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SimError>();
    }
}
