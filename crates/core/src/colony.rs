//! Colony construction and the [`Colony`] agent container.
//!
//! A *colony* is the ordered collection of agents the executor drives —
//! one per ant, indexed by [`AntId`](hh_model::AntId). [`Colony`] stores
//! the agents as one contiguous `Vec<AnyAgent>` (static dispatch, cache
//! friendly) and derefs to that slice, mutably too. [`AgentSnapshot`] is
//! one agent's harness-observable state — honesty, [`AgentRole`],
//! committed nest, finality — and [`RoleCensus`] the honest agents' role
//! tally. The executor in `hh-sim` keeps one cached snapshot per ant
//! and the census current itself, recording each stepped agent's
//! `(old, new)` snapshot transition into a [`CensusDelta`], so its
//! census queries are O(1); [`Colony::census`] is the plain scan.
//!
//! The free functions build the standard homogeneous colonies (one per
//! algorithm) with per-ant seeds derived deterministically from a single
//! base seed, plus combinators for planting idlers and adversaries.
//!
//! # Examples
//!
//! ```
//! use hh_core::{colony, Agent};
//!
//! let ants = colony::simple(100, 42);
//! assert_eq!(ants.len(), 100);
//! assert!(ants.iter().all(|a| a.label() == "simple"));
//! assert_eq!(ants.census().searching, 100);
//! ```

use hh_model::seeding::{derive_seed, StreamKind};
use hh_model::NestId;

use crate::adaptive::{AdaptiveAnt, AdaptivePolicy};
use crate::agent::{Agent, AgentRole, BoxedAgent};
use crate::any::AnyAgent;
use crate::optimal::OptimalAnt;
use crate::quality::QualityAnt;
use crate::simple::{SimpleAnt, UrnOptions};
use crate::spreader::{SpreadStrategy, SpreaderAnt};

/// Counts of honest agents per [`AgentRole`].
///
/// [`RoleCensus::of`] tallies any agent slice from scratch; the
/// `hh-sim` executor maintains one incrementally from
/// [`CensusDelta`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoleCensus {
    /// Agents still searching.
    pub searching: usize,
    /// Active (competing/recruiting) agents.
    pub active: usize,
    /// Passive (waiting) agents.
    pub passive: usize,
    /// Final/settled agents.
    pub final_count: usize,
    /// Everything else (adversaries report `Other`).
    pub other: usize,
}

impl RoleCensus {
    /// Tallies the honest agents of a colony from scratch.
    #[must_use]
    pub fn of<A: Agent>(agents: &[A]) -> Self {
        let mut census = RoleCensus::default();
        for agent in agents.iter().filter(|a| a.is_honest()) {
            census.bucket(agent.role(), 1);
        }
        census
    }

    /// Total honest agents tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.searching + self.active + self.passive + self.final_count + self.other
    }

    fn bucket(&mut self, role: AgentRole, delta: isize) {
        let slot = match role {
            AgentRole::Searching => &mut self.searching,
            AgentRole::Active => &mut self.active,
            AgentRole::Passive => &mut self.passive,
            AgentRole::Final => &mut self.final_count,
            _ => &mut self.other,
        };
        *slot = slot.checked_add_signed(delta).expect("census underflow");
    }

    /// Folds a signed per-role delta (accumulated off to the side by a
    /// chunked executor pass) into the census.
    ///
    /// # Panics
    ///
    /// Panics if a bucket would underflow — that indicates the delta was
    /// not produced against this census's snapshots.
    pub fn apply_delta(&mut self, delta: &CensusDelta) {
        self.bucket(AgentRole::Searching, delta.searching);
        self.bucket(AgentRole::Active, delta.active);
        self.bucket(AgentRole::Passive, delta.passive);
        self.bucket(AgentRole::Final, delta.final_count);
        self.bucket(AgentRole::Other, delta.other);
    }
}

/// A signed [`RoleCensus`] delta, accumulated per worker during a
/// chunked executor pass and merged at the barrier with
/// [`RoleCensus::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CensusDelta {
    searching: isize,
    active: isize,
    passive: isize,
    final_count: isize,
    other: isize,
}

impl CensusDelta {
    /// Resets the delta to zero.
    pub fn clear(&mut self) {
        *self = CensusDelta::default();
    }

    /// Records one agent's snapshot transition. Only a change of role or
    /// honesty moves the census; since it counts honest agents only, an
    /// honesty flip re-buckets the agent like a role change.
    #[inline]
    pub fn record(&mut self, old: &AgentSnapshot, new: &AgentSnapshot) {
        if new.role == old.role && new.honest == old.honest {
            return;
        }
        if old.honest {
            self.bucket(old.role, -1);
        }
        if new.honest {
            self.bucket(new.role, 1);
        }
    }

    fn bucket(&mut self, role: AgentRole, delta: isize) {
        let slot = match role {
            AgentRole::Searching => &mut self.searching,
            AgentRole::Active => &mut self.active,
            AgentRole::Passive => &mut self.passive,
            AgentRole::Final => &mut self.final_count,
            _ => &mut self.other,
        };
        *slot += delta;
    }
}

/// One agent's harness-observable state, cached per ant by the `hh-sim`
/// executor so census and convergence queries never re-dispatch into
/// the agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentSnapshot {
    /// [`Agent::is_honest`] at the last refresh (constant for every
    /// built-in agent; `Custom` agents may vary it, and the census/tally
    /// maintenance re-buckets on a flip).
    pub honest: bool,
    /// [`Agent::role`] at the last refresh.
    pub role: AgentRole,
    /// [`Agent::committed_nest`] at the last refresh.
    pub committed: Option<NestId>,
    /// [`Agent::is_final`] at the last refresh.
    pub is_final: bool,
}

/// Builds an [`AgentSnapshot`] from any agent expression via
/// (auto-dereffing) method calls — the **single** definition of the
/// snapshot field list, shared by [`AgentSnapshot::of`] and the
/// `AnyAgent` fused accessors.
macro_rules! snapshot_of {
    ($agent:expr) => {
        $crate::colony::AgentSnapshot {
            honest: $agent.is_honest(),
            role: $agent.role(),
            committed: $agent.committed_nest(),
            is_final: $agent.is_final(),
        }
    };
}
pub(crate) use snapshot_of;

impl AgentSnapshot {
    /// Reads an agent's current observable state.
    #[must_use]
    pub fn of<A: Agent + ?Sized>(agent: &A) -> Self {
        snapshot_of!(agent)
    }
}

/// A colony of agents: one contiguous `Vec<AnyAgent>`, one per ant.
///
/// Read and write access goes through `Deref`/`DerefMut` to
/// `[AnyAgent]` (`len`, `iter`, `iter_mut`, indexing); the colony keeps
/// no cache that agent mutation could leave stale.
#[derive(Default)]
pub struct Colony {
    agents: Vec<AnyAgent>,
}

impl Colony {
    /// Appends an agent.
    pub fn push(&mut self, agent: impl Into<AnyAgent>) {
        self.agents.push(agent.into());
    }

    /// Replaces the agent at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace(&mut self, index: usize, agent: impl Into<AnyAgent>) {
        self.agents[index] = agent.into();
    }

    /// The honest-role census, tallied by a scan
    /// ([`RoleCensus::of`]).
    #[must_use]
    pub fn census(&self) -> RoleCensus {
        RoleCensus::of(&self.agents)
    }
}

impl std::ops::Deref for Colony {
    type Target = [AnyAgent];

    fn deref(&self) -> &[AnyAgent] {
        &self.agents
    }
}

impl std::ops::DerefMut for Colony {
    fn deref_mut(&mut self) -> &mut [AnyAgent] {
        &mut self.agents
    }
}

impl std::fmt::Debug for Colony {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Colony")
            .field("len", &self.agents.len())
            .field("census", &self.census())
            .finish_non_exhaustive()
    }
}

impl From<Vec<AnyAgent>> for Colony {
    fn from(agents: Vec<AnyAgent>) -> Self {
        Self { agents }
    }
}

impl From<Vec<BoxedAgent>> for Colony {
    fn from(agents: Vec<BoxedAgent>) -> Self {
        agents.into_iter().map(AnyAgent::Custom).collect()
    }
}

impl FromIterator<AnyAgent> for Colony {
    fn from_iter<I: IntoIterator<Item = AnyAgent>>(iter: I) -> Self {
        Colony::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl IntoIterator for Colony {
    type Item = AnyAgent;
    type IntoIter = std::vec::IntoIter<AnyAgent>;

    fn into_iter(self) -> Self::IntoIter {
        self.agents.into_iter()
    }
}

impl<'a> IntoIterator for &'a Colony {
    type Item = &'a AnyAgent;
    type IntoIter = std::slice::Iter<'a, AnyAgent>;

    fn into_iter(self) -> Self::IntoIter {
        self.agents.iter()
    }
}

/// Builds a colony of `n` agents from a factory receiving each ant's
/// index and derived private seed.
pub fn from_factory<A, F>(n: usize, base_seed: u64, mut factory: F) -> Colony
where
    A: Into<AnyAgent>,
    F: FnMut(usize, u64) -> A,
{
    (0..n)
        .map(|i| {
            let seed = derive_seed(base_seed, StreamKind::Agent, i as u64);
            factory(i, seed).into()
        })
        .collect()
}

/// A colony running the optimal algorithm (Section 4). The agents are
/// deterministic, so no seed is needed.
#[must_use]
pub fn optimal(n: usize) -> Colony {
    from_factory(n, 0, |_, _| OptimalAnt::new())
}

/// A colony running the paper-faithful simple algorithm (Section 5).
#[must_use]
pub fn simple(n: usize, base_seed: u64) -> Colony {
    from_factory(n, base_seed, |_, seed| SimpleAnt::new(n, seed))
}

/// A simple-algorithm colony with explicit behavioural options.
#[must_use]
pub fn simple_with_options(n: usize, base_seed: u64, options: UrnOptions) -> Colony {
    from_factory(n, base_seed, |_, seed| {
        SimpleAnt::with_options(n, seed, options)
    })
}

/// A colony running the adaptive-rate variant (Section 6).
#[must_use]
pub fn adaptive(n: usize, base_seed: u64) -> Colony {
    adaptive_with_policy(n, base_seed, AdaptivePolicy::standard())
}

/// An adaptive colony with an explicit schedule.
#[must_use]
pub fn adaptive_with_policy(n: usize, base_seed: u64, policy: AdaptivePolicy) -> Colony {
    from_factory(n, base_seed, |_, seed| {
        AdaptiveAnt::with_schedule(n, seed, policy, UrnOptions::paper())
    })
}

/// A colony running the quality-weighted variant (Section 6) with
/// exponent `gamma`.
#[must_use]
pub fn quality(n: usize, base_seed: u64, gamma: f64) -> Colony {
    from_factory(n, base_seed, |_, seed| QualityAnt::new(n, seed, gamma))
}

/// A colony of lower-bound spreaders sharing one strategy (Section 3).
#[must_use]
pub fn spreaders(n: usize, base_seed: u64, strategy: SpreadStrategy) -> Colony {
    from_factory(n, base_seed, |_, seed| SpreaderAnt::new(strategy, seed))
}

/// Replaces the last `count` agents of `colony` with honest idlers
/// ([`IdlerAnt`](crate::IdlerAnt)): live colony members that do no
/// house-hunting work and rely on being carried. The colony size is
/// unchanged; `count` is clamped to the colony size.
pub fn plant_idlers(colony: &mut Colony, count: usize) {
    plant_adversaries(colony, count, |_| crate::IdlerAnt::new());
}

/// Replaces the last `count` agents of `colony` with adversaries built by
/// `factory` (receiving the slot index). The colony size is unchanged;
/// `count` is clamped to the colony size.
pub fn plant_adversaries<A, F>(colony: &mut Colony, count: usize, mut factory: F)
where
    A: Into<AnyAgent>,
    F: FnMut(usize) -> A,
{
    let n = colony.len();
    let count = count.min(n);
    for slot in 0..count {
        let idx = n - count + slot;
        colony.replace(idx, factory(slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::BadNestRecruiter;

    #[test]
    fn builders_produce_requested_sizes_and_labels() {
        assert_eq!(optimal(5).len(), 5);
        assert!(optimal(3).iter().all(|a| a.label() == "optimal"));
        assert!(simple(3, 0).iter().all(|a| a.label() == "simple"));
        assert!(adaptive(3, 0).iter().all(|a| a.label() == "adaptive"));
        assert!(quality(3, 0, 1.0).iter().all(|a| a.label() == "quality"));
        assert!(spreaders(3, 0, SpreadStrategy::WaitAtHome)
            .iter()
            .all(|a| a.label() == "spreader-wait"));
    }

    #[test]
    fn builders_use_static_variants_not_custom() {
        for colony in [optimal(3), simple(3, 0), adaptive(3, 0), quality(3, 0, 1.0)] {
            assert!(colony.iter().all(|a| !a.is_custom()));
        }
    }

    #[test]
    fn per_ant_seeds_differ() {
        // Two simple ants from the same colony must not flip identical
        // coins: drive both through the same observations and compare
        // decisions statistically.
        use crate::agent::Agent;
        use hh_model::{NestId, Outcome, Quality};

        let mut colony = from_factory(2, 7, |_, seed| SimpleAnt::new(10, seed));
        for ant in colony.iter_mut() {
            ant.observe(
                1,
                &Outcome::Search {
                    nest: NestId::candidate(1),
                    quality: Quality::GOOD,
                    count: 5,
                },
            );
        }
        let mut agreements = 0;
        let trials = 200;
        for t in 0..trials {
            let (head, tail) = colony.split_at_mut(1);
            let a = head[0].choose(2 + 2 * t);
            let b = tail[0].choose(2 + 2 * t);
            agreements += u32::from(a == b);
        }
        assert!(
            agreements < trials as u32,
            "identical coin streams: seeds not derived per ant"
        );
    }

    #[test]
    fn plant_adversaries_replaces_tail() {
        let mut colony = simple(10, 1);
        plant_adversaries(&mut colony, 3, |_| BadNestRecruiter::new());
        assert_eq!(colony.len(), 10);
        assert_eq!(colony.iter().filter(|a| !a.is_honest()).count(), 3);
        assert!(colony[..7].iter().all(|a| a.is_honest()));
        // The census tracked the replacement: 3 dishonest agents left it.
        assert_eq!(colony.census().total(), 7);
    }

    #[test]
    fn plant_idlers_replaces_tail_with_honest_idlers() {
        let mut colony = simple(10, 1);
        plant_idlers(&mut colony, 4);
        assert_eq!(colony.len(), 10);
        assert!(colony.iter().all(|a| a.is_honest()));
        assert_eq!(colony.iter().filter(|a| a.label() == "idler").count(), 4);
        assert!(colony[..6].iter().all(|a| a.label() == "simple"));
    }

    #[test]
    fn plant_adversaries_clamps_count() {
        let mut colony = simple(2, 1);
        plant_adversaries(&mut colony, 99, |_| BadNestRecruiter::new());
        assert_eq!(colony.len(), 2);
        assert!(colony.iter().all(|a| !a.is_honest()));
    }

    #[test]
    fn census_follows_refresh() {
        use hh_model::{Outcome, Quality};

        let mut colony = simple(4, 3);
        assert_eq!(colony.census().searching, 4);
        colony[0].observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::GOOD,
                count: 1,
            },
        );
        let snapshot = colony[0].snapshot();
        assert_eq!(snapshot.role, AgentRole::Active);
        assert_eq!(snapshot.committed, Some(NestId::candidate(1)));
        let census = colony.census();
        assert_eq!(census.searching, 3);
        assert_eq!(census.active, 1);
        assert_eq!(census.total(), 4);
    }

    #[test]
    fn boxed_colonies_become_custom_agents() {
        let boxed: Vec<BoxedAgent> = vec![
            Box::new(BadNestRecruiter::new()),
            Box::new(crate::IdlerAnt::new()),
        ];
        let colony = Colony::from(boxed);
        assert_eq!(colony.len(), 2);
        assert!(colony.iter().all(AnyAgent::is_custom));
        assert_eq!(colony.census().total(), 1, "only the idler is honest");
    }
}
