//! Idle ants: honest colony members that do no house-hunting work.
//!
//! Field studies (and Afek–Gordon–Sulamy, *Brief Announcement: The Role
//! of Idleness in Ant Colonies*, arXiv:1506.07118) observe that a large
//! fraction of a real colony is idle at any moment: the ants neither
//! search nor recruit, yet the emigration still completes because active
//! recruiters carry them along. [`IdlerAnt`] models exactly that: it
//! makes the mandatory one legal call per round but contributes nothing,
//! waiting passively at home to be transported, and adopts whichever
//! nest the colony carries it to.
//!
//! Unlike a crash-stop fault, an idler is *live* and honest: it is
//! counted by the convergence rules, so an idle-fraction colony mix
//! tests the claim that the working minority can finish the job for
//! everyone (quorum rules are the natural success notion here).

use hh_model::{Action, NestId, Outcome};

use crate::agent::{Agent, AgentRole};

/// An honest ant that does no work: it searches once (round 1 permits
/// nothing else), then waits passively at home forever, adopting
/// whichever nest recruiters carry it to.
///
/// # Examples
///
/// ```
/// use hh_core::{Agent, IdlerAnt};
/// use hh_model::Action;
///
/// let mut ant = IdlerAnt::new();
/// assert_eq!(ant.choose(1), Action::Search);
/// assert!(ant.is_honest());
/// assert_eq!(ant.committed_nest(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdlerAnt {
    /// The nest the idler currently advocates in its passive `recruit`
    /// call (its round-1 discovery, later overwritten by transports).
    advocated: Option<NestId>,
    /// The nest the idler was last carried to, if any.
    carried_to: Option<NestId>,
}

impl IdlerAnt {
    /// Creates an idler with no knowledge yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The nest this idler was last transported to, if any.
    #[must_use]
    pub fn carried_to(&self) -> Option<NestId> {
        self.carried_to
    }
}

impl Agent for IdlerAnt {
    fn choose(&mut self, _round: u64) -> Action {
        match self.advocated {
            // Round 1 (or a pre-knowledge fault recovery): searching is
            // the only legal call.
            None => Action::Search,
            Some(nest) => Action::recruit_passive(nest),
        }
    }

    fn observe(&mut self, _round: u64, outcome: &Outcome) {
        match outcome {
            Outcome::Search { nest, .. } => {
                if self.advocated.is_none() {
                    self.advocated = Some(*nest);
                }
            }
            Outcome::Recruit { nest, .. } => {
                // `nest` is the recruiter's target if this ant was picked
                // up, otherwise our own input echoed back. Adopting it is
                // correct either way, but only a genuine transport counts
                // as a commitment.
                if Some(*nest) != self.advocated {
                    self.carried_to = Some(*nest);
                    self.advocated = Some(*nest);
                }
            }
            Outcome::Go { .. } => {}
        }
    }

    fn committed_nest(&self) -> Option<NestId> {
        // An idler holds no opinion of its own; it is "committed" to
        // wherever the working colony has taken it.
        self.carried_to
    }

    fn is_honest(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "idler"
    }

    fn role(&self) -> AgentRole {
        AgentRole::Passive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_model::Quality;

    #[test]
    fn searches_until_it_knows_a_nest_then_waits() {
        let mut ant = IdlerAnt::new();
        assert_eq!(ant.choose(1), Action::Search);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(2),
                quality: Quality::BAD,
                count: 1,
            },
        );
        for round in 2..6 {
            assert_eq!(
                ant.choose(round),
                Action::recruit_passive(NestId::candidate(2))
            );
        }
        assert_eq!(ant.committed_nest(), None, "not yet carried anywhere");
    }

    #[test]
    fn adopts_the_nest_it_is_carried_to() {
        let mut ant = IdlerAnt::new();
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::BAD,
                count: 1,
            },
        );
        // Echo of our own input: not a transport.
        ant.observe(
            2,
            &Outcome::Recruit {
                nest: NestId::candidate(1),
                home_count: 5,
            },
        );
        assert_eq!(ant.committed_nest(), None);
        // A recruiter carries us to n3.
        ant.observe(
            3,
            &Outcome::Recruit {
                nest: NestId::candidate(3),
                home_count: 5,
            },
        );
        assert_eq!(ant.committed_nest(), Some(NestId::candidate(3)));
        assert_eq!(ant.carried_to(), Some(NestId::candidate(3)));
        // And now advocates its new home in the passive call.
        assert_eq!(ant.choose(4), Action::recruit_passive(NestId::candidate(3)));
    }

    #[test]
    fn survives_observation_gaps() {
        // Delayed/crashed rounds skip observe entirely; the idler must
        // keep producing legal actions from whatever it knows.
        let mut ant = IdlerAnt::new();
        assert_eq!(ant.choose(5), Action::Search);
        ant.observe(
            6,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::GOOD,
                count: 2,
            },
        );
        assert_eq!(ant.choose(9), Action::recruit_passive(NestId::candidate(1)));
        assert_eq!(ant.role(), AgentRole::Passive);
    }
}
