//! Static dispatch over the built-in agents: the executor's hot path.
//!
//! Every round of every trial calls [`Agent::choose`] and
//! [`Agent::observe`] once per ant, so the dispatch mechanism for those
//! calls is the innermost loop of the whole experiment suite. Boxing each
//! ant behind a `dyn Agent` vtable (the pre-engine design, still available
//! as [`AnyAgent::Custom`]) costs an indirect call *and* a pointer chase
//! to a heap allocation per method — poison for cache locality when a
//! colony of 4096 ants is stepped in sequence.
//!
//! [`AnyAgent`] instead enumerates the built-in agents so a colony is one
//! contiguous `Vec<AnyAgent>` and every dispatch is a jump table the
//! optimizer can see through. The [`Custom`](AnyAgent::Custom) variant
//! keeps the open world: anything implementing [`Agent`] still runs, it
//! just pays the old indirection. The equivalence is behavioural, not
//! merely API-shaped — `tests/engine_equivalence.rs` proves that a colony
//! built from `AnyAgent` variants produces bit-identical trial outcomes
//! to the same colony boxed behind `Custom`.

use hh_model::{Action, NestId, Outcome};

use crate::adaptive::AdaptiveAnt;
use crate::agent::{Agent, AgentRole, BoxedAgent};
use crate::byzantine::{BadNestRecruiter, OscillatorAnt, SleeperAnt};
use crate::idle::IdlerAnt;
use crate::optimal::OptimalAnt;
use crate::quality::QualityAnt;
use crate::simple::SimpleAnt;
use crate::spreader::SpreaderAnt;

/// One ant of any built-in algorithm, dispatched statically.
///
/// Construct variants with the `From` impls (`SimpleAnt::new(..).into()`)
/// or wrap an arbitrary [`Agent`] with [`AnyAgent::custom`]. The
/// hardened-simple variant of the registry is a [`SimpleAnt`] with
/// different [`UrnOptions`](crate::UrnOptions) and therefore shares the
/// [`Simple`](AnyAgent::Simple) variant.
///
/// # Examples
///
/// ```
/// use hh_core::{Agent, AnyAgent, SimpleAnt};
/// use hh_model::Action;
///
/// let mut ant: AnyAgent = SimpleAnt::new(100, 42).into();
/// assert_eq!(ant.choose(1), Action::Search);
/// assert_eq!(ant.label(), "simple");
/// ```
#[non_exhaustive]
pub enum AnyAgent {
    /// The simple `O(k log n)` algorithm (Section 5), including the
    /// hardened/settling option sets.
    Simple(SimpleAnt),
    /// The optimal `O(log n)` algorithm (Section 4).
    Optimal(OptimalAnt),
    /// The adaptive-recruitment-rate variant (Section 6).
    Adaptive(AdaptiveAnt),
    /// The non-binary quality-weighted variant (Section 6). Boxed: it is
    /// the largest agent by a factor of ~2, and leaving it inline would
    /// pad *every* colony's agent stride to its size — the enum stays a
    /// compact 48 bytes this way (pinned by `any_agent_stride_is_pinned`),
    /// and quality agents pay one extra pointer hop that their (rare)
    /// workloads never notice.
    Quality(Box<QualityAnt>),
    /// A lower-bound spreading process (Section 3).
    Spreader(SpreaderAnt),
    /// An idle colony member (Afek–Gordon–Sulamy).
    Idler(IdlerAnt),
    /// The bad-nest-recruiting Byzantine adversary.
    BadRecruiter(BadNestRecruiter),
    /// The churn-injecting Byzantine adversary.
    Oscillator(OscillatorAnt),
    /// The honest-until-triggered Byzantine adversary.
    Sleeper(SleeperAnt),
    /// The escape hatch: any other [`Agent`], dispatched dynamically.
    Custom(BoxedAgent),
}

use crate::colony::{snapshot_of, AgentSnapshot};

/// The fused round transition over any agent expression: observe round
/// `round`'s outcome (if the agent's own action ran), snapshot, then
/// choose the action for `round + 1`. The **single** definition of that
/// order, shared by [`AnyAgent::observe_choose`] and [`Projected`].
macro_rules! fused_transition {
    ($agent:expr, $round:expr, $outcome:expr) => {{
        if let Some(outcome) = $outcome {
            $agent.observe($round, outcome);
        }
        let snapshot = snapshot_of!($agent);
        let action = $agent.choose($round + 1);
        (action, snapshot)
    }};
}

/// Forwards one method call to whichever variant is live.
macro_rules! dispatch {
    ($self:expr, $agent:ident => $body:expr) => {
        match $self {
            AnyAgent::Simple($agent) => $body,
            AnyAgent::Optimal($agent) => $body,
            AnyAgent::Adaptive($agent) => $body,
            AnyAgent::Quality($agent) => $body,
            AnyAgent::Spreader($agent) => $body,
            AnyAgent::Idler($agent) => $body,
            AnyAgent::BadRecruiter($agent) => $body,
            AnyAgent::Oscillator($agent) => $body,
            AnyAgent::Sleeper($agent) => $body,
            AnyAgent::Custom($agent) => $body,
        }
    };
}

impl AnyAgent {
    /// Wraps an arbitrary agent in the dynamic-dispatch escape hatch.
    #[must_use]
    pub fn custom<A: Agent + Send + 'static>(agent: A) -> Self {
        AnyAgent::Custom(Box::new(agent))
    }

    /// Reads the agent's harness-observable state in **one** dispatch —
    /// the executor refreshes every stepped agent every round, and four
    /// separate trait calls (honest/role/committed/final) would re-read
    /// the discriminant four times.
    #[inline]
    #[must_use]
    pub fn snapshot(&self) -> AgentSnapshot {
        dispatch!(self, agent => snapshot_of!(agent))
    }

    /// The executor's per-ant round transition in **one** dispatch:
    /// observe round `round`'s outcome (if the agent's own action ran),
    /// snapshot, then choose the action for `round + 1`.
    ///
    /// The snapshot is taken **between** observe and choose: it captures
    /// the state after `choose(round)` (from the previous transition)
    /// plus `observe(round)` — exactly what a detector inspecting the
    /// colony at the end of `round` is defined to see. The mutations of
    /// the pre-chosen `choose(round + 1)` land in the *next*
    /// transition's snapshot, just as they would if chosen at the start
    /// of round `round + 1`, so fusing never leaks lookahead state even
    /// for agents whose `choose` advances their state machine.
    #[inline]
    pub fn observe_choose(
        &mut self,
        round: u64,
        outcome: Option<&Outcome>,
    ) -> (Action, AgentSnapshot) {
        dispatch!(self, agent => fused_transition!(agent, round, outcome))
    }

    /// Returns `true` for the [`Custom`](AnyAgent::Custom) escape hatch.
    #[must_use]
    pub fn is_custom(&self) -> bool {
        matches!(self, AnyAgent::Custom(_))
    }
}

impl Agent for AnyAgent {
    #[inline]
    fn choose(&mut self, round: u64) -> Action {
        dispatch!(self, agent => agent.choose(round))
    }

    #[inline]
    fn observe(&mut self, round: u64, outcome: &Outcome) {
        dispatch!(self, agent => agent.observe(round, outcome));
    }

    #[inline]
    fn committed_nest(&self) -> Option<NestId> {
        dispatch!(self, agent => agent.committed_nest())
    }

    #[inline]
    fn is_final(&self) -> bool {
        dispatch!(self, agent => agent.is_final())
    }

    #[inline]
    fn is_honest(&self) -> bool {
        dispatch!(self, agent => agent.is_honest())
    }

    #[inline]
    fn label(&self) -> &'static str {
        dispatch!(self, agent => agent.label())
    }

    #[inline]
    fn role(&self) -> AgentRole {
        dispatch!(self, agent => agent.role())
    }
}

/// The built-in algorithm every ant of a **uniform** colony runs — the
/// variants whose batched rounds project each [`AnyAgent`] slot onto its
/// concrete type ([`Projected`]) instead of dispatching per ant.
///
/// Per-ant parameters (colony size, [`UrnOptions`](crate::UrnOptions),
/// policies, seeds) may differ between ants: every slot carries its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniformVariant {
    /// Every ant is [`AnyAgent::Simple`].
    Simple,
    /// Every ant is [`AnyAgent::Optimal`].
    Optimal,
    /// Every ant is [`AnyAgent::Adaptive`].
    Adaptive,
    /// Every ant is [`AnyAgent::Quality`].
    Quality,
    /// Every ant is [`AnyAgent::Spreader`].
    Spreader,
}

impl UniformVariant {
    /// The variant every agent shares, or `None` for an empty colony, a
    /// mix of variants, or any idler, adversary or `Custom` box.
    ///
    /// # Examples
    ///
    /// ```
    /// use hh_core::{colony, OptimalAnt, UniformVariant};
    ///
    /// let mut ants = colony::simple(8, 1);
    /// assert_eq!(UniformVariant::of(&ants), Some(UniformVariant::Simple));
    /// ants.replace(0, OptimalAnt::new());
    /// assert_eq!(UniformVariant::of(&ants), None);
    /// ```
    #[must_use]
    pub fn of(agents: &[AnyAgent]) -> Option<Self> {
        let variant = |agent: &AnyAgent| match agent {
            AnyAgent::Simple(_) => Some(Self::Simple),
            AnyAgent::Optimal(_) => Some(Self::Optimal),
            AnyAgent::Adaptive(_) => Some(Self::Adaptive),
            AnyAgent::Quality(_) => Some(Self::Quality),
            AnyAgent::Spreader(_) => Some(Self::Spreader),
            _ => None,
        };
        let first = variant(agents.first()?)?;
        agents
            .iter()
            .all(|agent| variant(agent) == Some(first))
            .then_some(first)
    }
}

mod sealed {
    pub trait Sealed {}
}

/// An agent type a batched round steps in place over a colony's
/// [`AnyAgent`] slots: one of the [`UniformVariant`] types, whose loop is
/// monomorphized on the concrete agent, or `AnyAgent` itself (the
/// identity projection, one variant dispatch per ant) for everything
/// else. Sealed: the variant set is the enum's.
pub trait Projected: Agent + Send + sealed::Sealed {
    /// Projects one slot onto this type.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a different variant — a uniform colony's
    /// loop was handed a foreign agent.
    fn project(slot: &mut AnyAgent) -> &mut Self;

    /// The fused round transition, in the same observe → snapshot →
    /// choose(`round + 1`) order as [`AnyAgent::observe_choose`].
    #[inline]
    fn observe_choose(&mut self, round: u64, outcome: Option<&Outcome>) -> (Action, AgentSnapshot) {
        fused_transition!(self, round, outcome)
    }
}

impl sealed::Sealed for AnyAgent {}

impl Projected for AnyAgent {
    #[inline]
    fn project(slot: &mut AnyAgent) -> &mut Self {
        slot
    }

    #[inline]
    fn observe_choose(&mut self, round: u64, outcome: Option<&Outcome>) -> (Action, AgentSnapshot) {
        // The inherent method: one variant dispatch for the whole transition.
        AnyAgent::observe_choose(self, round, outcome)
    }
}

#[cold]
#[inline(never)]
fn foreign_slot(expected: &str, slot: &AnyAgent) -> ! {
    panic!("a uniform {expected} colony holds a foreign agent: {slot:?}")
}

/// Implements [`Projected`] for each uniform variant's concrete type.
macro_rules! projected {
    ($($variant:ident => $agent:ty),* $(,)?) => {$(
        impl sealed::Sealed for $agent {}

        impl Projected for $agent {
            #[inline]
            fn project(slot: &mut AnyAgent) -> &mut Self {
                match slot {
                    AnyAgent::$variant(agent) => agent,
                    other => foreign_slot(stringify!($variant), other),
                }
            }
        }
    )*};
}

projected! {
    Simple => SimpleAnt,
    Optimal => OptimalAnt,
    Adaptive => AdaptiveAnt,
    Quality => QualityAnt,
    Spreader => SpreaderAnt,
}

impl std::fmt::Debug for AnyAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let variant = match self {
            AnyAgent::Simple(_) => "Simple",
            AnyAgent::Optimal(_) => "Optimal",
            AnyAgent::Adaptive(_) => "Adaptive",
            AnyAgent::Quality(_) => "Quality",
            AnyAgent::Spreader(_) => "Spreader",
            AnyAgent::Idler(_) => "Idler",
            AnyAgent::BadRecruiter(_) => "BadRecruiter",
            AnyAgent::Oscillator(_) => "Oscillator",
            AnyAgent::Sleeper(_) => "Sleeper",
            AnyAgent::Custom(_) => "Custom",
        };
        f.debug_struct("AnyAgent")
            .field("variant", &variant)
            .field("label", &self.label())
            .finish()
    }
}

impl From<SimpleAnt> for AnyAgent {
    fn from(agent: SimpleAnt) -> Self {
        AnyAgent::Simple(agent)
    }
}

impl From<OptimalAnt> for AnyAgent {
    fn from(agent: OptimalAnt) -> Self {
        AnyAgent::Optimal(agent)
    }
}

impl From<AdaptiveAnt> for AnyAgent {
    fn from(agent: AdaptiveAnt) -> Self {
        AnyAgent::Adaptive(agent)
    }
}

impl From<QualityAnt> for AnyAgent {
    fn from(agent: QualityAnt) -> Self {
        AnyAgent::Quality(Box::new(agent))
    }
}

impl From<SpreaderAnt> for AnyAgent {
    fn from(agent: SpreaderAnt) -> Self {
        AnyAgent::Spreader(agent)
    }
}

impl From<IdlerAnt> for AnyAgent {
    fn from(agent: IdlerAnt) -> Self {
        AnyAgent::Idler(agent)
    }
}

impl From<BadNestRecruiter> for AnyAgent {
    fn from(agent: BadNestRecruiter) -> Self {
        AnyAgent::BadRecruiter(agent)
    }
}

impl From<OscillatorAnt> for AnyAgent {
    fn from(agent: OscillatorAnt) -> Self {
        AnyAgent::Oscillator(agent)
    }
}

impl From<SleeperAnt> for AnyAgent {
    fn from(agent: SleeperAnt) -> Self {
        AnyAgent::Sleeper(agent)
    }
}

impl From<BoxedAgent> for AnyAgent {
    fn from(agent: BoxedAgent) -> Self {
        AnyAgent::Custom(agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_model::Quality;

    #[test]
    fn variants_forward_every_method() {
        let mut ant: AnyAgent = SimpleAnt::new(8, 1).into();
        assert_eq!(ant.choose(1), Action::Search);
        ant.observe(
            1,
            &Outcome::Search {
                nest: NestId::candidate(1),
                quality: Quality::GOOD,
                count: 3,
            },
        );
        assert_eq!(ant.committed_nest(), Some(NestId::candidate(1)));
        assert_eq!(ant.role(), AgentRole::Active);
        assert!(ant.is_honest());
        assert!(!ant.is_final());
        assert!(!ant.is_custom());
        assert_eq!(ant.label(), "simple");
    }

    #[test]
    fn adversary_variants_report_dishonest() {
        let bad: AnyAgent = BadNestRecruiter::new().into();
        let osc: AnyAgent = OscillatorAnt::new().into();
        let sleeper: AnyAgent = SleeperAnt::new(8, 0, 10).into();
        for agent in [&bad, &osc, &sleeper] {
            assert!(!agent.is_honest(), "{}", agent.label());
        }
    }

    #[test]
    fn custom_wraps_and_forwards() {
        struct Probe;
        impl Agent for Probe {
            fn choose(&mut self, _round: u64) -> Action {
                Action::Search
            }
            fn observe(&mut self, _round: u64, _outcome: &Outcome) {}
            fn committed_nest(&self) -> Option<NestId> {
                Some(NestId::candidate(2))
            }
            fn label(&self) -> &'static str {
                "probe"
            }
        }
        let mut any = AnyAgent::custom(Probe);
        assert!(any.is_custom());
        assert_eq!(any.choose(1), Action::Search);
        assert_eq!(any.committed_nest(), Some(NestId::candidate(2)));
        assert_eq!(any.label(), "probe");
        assert!(format!("{any:?}").contains("Custom"));
    }

    #[test]
    fn any_agent_stride_is_pinned() {
        // Uniform colonies stream this enum directly every round: a
        // variant that grows it widens every colony's stride.
        assert!(
            std::mem::size_of::<AnyAgent>() <= 48,
            "AnyAgent grew to {} bytes",
            std::mem::size_of::<AnyAgent>()
        );
    }

    #[test]
    #[should_panic(expected = "foreign agent")]
    fn projecting_a_foreign_slot_panics() {
        let mut slot: AnyAgent = IdlerAnt::new().into();
        let _ = OptimalAnt::project(&mut slot);
    }

    #[test]
    fn boxed_agents_convert_into_custom() {
        let boxed: BoxedAgent = Box::new(IdlerAnt::new());
        let any: AnyAgent = boxed.into();
        assert!(any.is_custom());
        assert_eq!(any.label(), "idler");
    }
}
