//! Per-algorithm agent-state tables: the colony's *own* state in
//! struct-of-arrays layout (SoA part 2).
//!
//! PR 7 columnized the colony's cached snapshots
//! ([`SnapshotColumns`](crate::SnapshotColumns)); the benchmarks showed
//! the remaining floor is the agent stream itself — every round loads the
//! full 88-byte [`AnyAgent`] enum per ant to touch a handful of urn
//! fields. This module stores those fields as dense parallel columns
//! instead, for the colonies where that is possible: a **homogeneous**
//! colony (every ant the same urn algorithm with identical policy,
//! options, and colony size) optionally interleaved with
//! [`IdlerAnt`](crate::IdlerAnt)s, which carry two words of state and do
//! not break the batch.
//!
//! The executor gathers an eligible colony's `Vec<AnyAgent>` into an
//! [`AgentColumns`] table at its first batched round, runs every
//! unperturbed round from then on as column loops over
//! [`AgentColumnsMut`] bands (chunk-splittable exactly like
//! [`ColumnsMut`](crate::ColumnsMut)), and scatters the table back into
//! the `Vec` when a caller reads the agents or switches to the scalar
//! engine.
//!
//! ## Bit-identity by construction
//!
//! The table executes **the same code** over the same values as the
//! array-of-structs path: urn rows borrow their column elements into the
//! shared `UrnRefMut` state machine (the one implementation behind
//! [`crate::Agent`] for [`UrnAnt`]), idler rows call the shared
//! `idler_choose`/`idler_observe` helpers, and each ant's
//! [`DrawKey`] lives in a column of its own. Because every coin is a
//! pure keyed function of `(key, round)` — no per-row stream state —
//! gather → rounds → scatter is bit-identical to running the rounds on
//! the `Vec<AnyAgent>` directly *regardless of row order*;
//! `tests/soa_equivalence.rs` holds the whole scenario catalog to that
//! contract against the `EngineKind::Scalar` oracle.

use hh_model::seeding::DrawKey;
use hh_model::{Action, NestId, Outcome};

use crate::adaptive::AdaptivePolicy;
use crate::agent::{Agent, AgentRole};
use crate::any::AnyAgent;
use crate::colony::{snapshot_of, AgentSnapshot};
use crate::columns::{decode_commitment, encode_commitment};
use crate::idle::{idler_choose, idler_observe};
use crate::optimal::OptimalAnt;
use crate::quality::QualityAnt;
use crate::simple::{
    urn_committed, urn_role, LinearPolicy, RecruitPolicy, State, UrnAnt, UrnOptions, UrnRefMut,
};
use crate::spreader::SpreaderAnt;

/// What one table row holds: a batched urn ant or an interleaved idler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    Urn,
    Idler,
}

/// The batched layout one homogeneous colony compiles to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plan {
    Simple {
        options: UrnOptions,
        n: u32,
    },
    Adaptive {
        policy: AdaptivePolicy,
        options: UrnOptions,
        n: u32,
    },
    /// Uniform [`OptimalAnt`] colony, stored as dense self-contained rows
    /// (the ants carry no shared parameters).
    Optimal,
    /// Uniform [`QualityAnt`] colony, dense rows (per-row parameters may
    /// differ; each row is self-contained).
    Quality,
    /// Uniform [`SpreaderAnt`] colony, dense rows.
    Spreader,
}

/// Classifies a colony: `Some(plan)` if every agent is one shared urn
/// algorithm (equal policy/options/`n`) or an idler, or a uniform
/// dense-row algorithm (optimal/quality/spreader, **no** idler
/// interleave), `None` otherwise.
fn plan(agents: &[AnyAgent]) -> Option<Plan> {
    let mut plan: Option<Plan> = None;
    let mut idler_seen = false;
    for agent in agents {
        match agent {
            AnyAgent::Idler(_) => {
                // Idlers interleave with urn plans only; the dense-row
                // plans keep one concrete agent type per row.
                idler_seen = true;
                if matches!(plan, Some(Plan::Optimal | Plan::Quality | Plan::Spreader)) {
                    return None;
                }
            }
            AnyAgent::Simple(ant) => match &plan {
                None => {
                    plan = Some(Plan::Simple {
                        options: ant.options,
                        n: ant.n,
                    });
                }
                Some(Plan::Simple { options, n }) if *options == ant.options && *n == ant.n => {}
                _ => return None,
            },
            AnyAgent::Adaptive(ant) => match &plan {
                None => {
                    plan = Some(Plan::Adaptive {
                        policy: ant.policy,
                        options: ant.options,
                        n: ant.n,
                    });
                }
                Some(Plan::Adaptive { policy, options, n })
                    if *policy == ant.policy && *options == ant.options && *n == ant.n => {}
                _ => return None,
            },
            AnyAgent::Optimal(_) => match &plan {
                None if !idler_seen => plan = Some(Plan::Optimal),
                Some(Plan::Optimal) => {}
                _ => return None,
            },
            AnyAgent::Quality(_) => match &plan {
                None if !idler_seen => plan = Some(Plan::Quality),
                Some(Plan::Quality) => {}
                _ => return None,
            },
            AnyAgent::Spreader(_) => match &plan {
                None if !idler_seen => plan = Some(Plan::Spreader),
                Some(Plan::Spreader) => {}
                _ => return None,
            },
            _ => return None,
        }
    }
    // An all-idler colony batches trivially; the urn parameters are inert.
    Some(plan.unwrap_or(Plan::Simple {
        options: UrnOptions::default(),
        n: u32::try_from(agents.len()).ok()?,
    }))
}

/// Dense parallel columns over one homogeneous (modulo idlers) colony's
/// urn state, generic over the shared [`RecruitPolicy`].
///
/// Obtained through [`AgentColumns::gather`]; rows are indexed by ant id
/// exactly like the source `Vec<AnyAgent>`.
#[derive(Debug, Clone)]
pub struct UrnColumns<P> {
    n: u32,
    policy: P,
    options: UrnOptions,
    kind: Vec<RowKind>,
    key: Vec<DrawKey>,
    count: Vec<u32>,
    nest: Vec<NestId>,
    state: Vec<State>,
    pending: Vec<bool>,
    /// Idler rows only; urn rows hold the `None` encoding.
    advocated: Vec<u32>,
    /// Idler rows only; urn rows hold the `None` encoding.
    carried: Vec<u32>,
}

impl<P: RecruitPolicy + Copy> UrnColumns<P> {
    fn gather_with(
        agents: &[AnyAgent],
        n: u32,
        policy: P,
        options: UrnOptions,
        mut as_urn: impl for<'b> FnMut(&'b AnyAgent) -> Option<&'b UrnAnt<P>>,
    ) -> Self {
        let mut table = Self {
            n,
            policy,
            options,
            kind: Vec::with_capacity(agents.len()),
            key: Vec::with_capacity(agents.len()),
            count: Vec::with_capacity(agents.len()),
            nest: Vec::with_capacity(agents.len()),
            state: Vec::with_capacity(agents.len()),
            pending: Vec::with_capacity(agents.len()),
            advocated: Vec::with_capacity(agents.len()),
            carried: Vec::with_capacity(agents.len()),
        };
        for agent in agents {
            if let Some(ant) = as_urn(agent) {
                table.kind.push(RowKind::Urn);
                table.key.push(ant.key);
                table.count.push(ant.count);
                table.nest.push(ant.nest);
                table.state.push(ant.state);
                table.pending.push(ant.pending_assessment);
                table.advocated.push(encode_commitment(None));
                table.carried.push(encode_commitment(None));
            } else {
                let AnyAgent::Idler(ant) = agent else {
                    unreachable!("plan() admitted a non-urn, non-idler agent");
                };
                table.kind.push(RowKind::Idler);
                // Idlers are coin-free; the row still needs a key slot so
                // the columns stay parallel. The dummy key is never drawn
                // from (the `kind` mask excludes idler rows).
                table.key.push(DrawKey::from_seed(0));
                table.count.push(0);
                table.nest.push(NestId::HOME);
                table.state.push(State::Searching);
                table.pending.push(false);
                table.advocated.push(encode_commitment(ant.advocated));
                table.carried.push(encode_commitment(ant.carried_to));
            }
        }
        table
    }

    fn scatter_into_with(
        &self,
        agents: &mut [AnyAgent],
        mut as_urn: impl for<'b> FnMut(&'b mut AnyAgent) -> Option<&'b mut UrnAnt<P>>,
    ) {
        assert_eq!(
            agents.len(),
            self.kind.len(),
            "agent-state table and colony have diverged in length"
        );
        for (index, agent) in agents.iter_mut().enumerate() {
            match self.kind[index] {
                RowKind::Urn => {
                    let ant =
                        as_urn(agent).expect("agent-state table and colony have diverged in shape");
                    ant.key = self.key[index];
                    ant.count = self.count[index];
                    ant.nest = self.nest[index];
                    ant.state = self.state[index];
                    ant.pending_assessment = self.pending[index];
                }
                RowKind::Idler => {
                    let AnyAgent::Idler(ant) = agent else {
                        panic!("agent-state table and colony have diverged in shape");
                    };
                    ant.advocated = decode_commitment(self.advocated[index]);
                    ant.carried_to = decode_commitment(self.carried[index]);
                }
            }
        }
    }

    /// Number of rows (ants).
    #[must_use]
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// `true` if the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// The whole table as one mutable band.
    pub fn as_band_mut(&mut self) -> UrnColumnsMut<'_, P> {
        UrnColumnsMut {
            n: self.n,
            policy: self.policy,
            options: self.options,
            kind: &self.kind,
            key: &self.key,
            count: &mut self.count,
            nest: &mut self.nest,
            state: &mut self.state,
            pending: &mut self.pending,
            advocated: &mut self.advocated,
            carried: &mut self.carried,
        }
    }
}

/// A mutable band over a contiguous row range of [`UrnColumns`] — the
/// state-table counterpart of `&mut [AnyAgent]`, splittable into disjoint
/// chunks for the executor's worker pool. Band indices are *local*
/// (`0..len()`), exactly like [`ColumnsMut`](crate::ColumnsMut).
#[derive(Debug)]
pub struct UrnColumnsMut<'a, P> {
    n: u32,
    policy: P,
    options: UrnOptions,
    kind: &'a [RowKind],
    key: &'a [DrawKey],
    count: &'a mut [u32],
    nest: &'a mut [NestId],
    state: &'a mut [State],
    pending: &'a mut [bool],
    advocated: &'a mut [u32],
    carried: &'a mut [u32],
}

impl<'a, P: RecruitPolicy + Copy> UrnColumnsMut<'a, P> {
    /// Number of rows in the band.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// `true` if the band is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Splits the band into disjoint `[0, mid)` and `[mid, len)` halves,
    /// mirroring `slice::split_at_mut`.
    ///
    /// # Panics
    ///
    /// Panics if `mid > len`.
    #[must_use]
    pub fn split_at_mut(self, mid: usize) -> (UrnColumnsMut<'a, P>, UrnColumnsMut<'a, P>) {
        let (kind_l, kind_r) = self.kind.split_at(mid);
        let (key_l, key_r) = self.key.split_at(mid);
        let (count_l, count_r) = self.count.split_at_mut(mid);
        let (nest_l, nest_r) = self.nest.split_at_mut(mid);
        let (state_l, state_r) = self.state.split_at_mut(mid);
        let (pending_l, pending_r) = self.pending.split_at_mut(mid);
        let (advocated_l, advocated_r) = self.advocated.split_at_mut(mid);
        let (carried_l, carried_r) = self.carried.split_at_mut(mid);
        (
            UrnColumnsMut {
                n: self.n,
                policy: self.policy,
                options: self.options,
                kind: kind_l,
                key: key_l,
                count: count_l,
                nest: nest_l,
                state: state_l,
                pending: pending_l,
                advocated: advocated_l,
                carried: carried_l,
            },
            UrnColumnsMut {
                n: self.n,
                policy: self.policy,
                options: self.options,
                kind: kind_r,
                key: key_r,
                count: count_r,
                nest: nest_r,
                state: state_r,
                pending: pending_r,
                advocated: advocated_r,
                carried: carried_r,
            },
        )
    }

    /// Borrows local row `index` into the shared urn state machine.
    ///
    /// Only valid for urn rows; the callers below check `kind` first.
    fn urn_row(&mut self, index: usize) -> UrnRefMut<'_, P> {
        UrnRefMut {
            key: self.key[index],
            count: &mut self.count[index],
            nest: &mut self.nest[index],
            state: &mut self.state[index],
            pending_assessment: &mut self.pending[index],
            n: self.n,
            policy: &self.policy,
            options: self.options,
        }
    }

    /// Local row `index`'s action for `round` — the column counterpart of
    /// [`crate::Agent::choose`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn choose(&mut self, index: usize, round: u64) -> Action {
        match self.kind[index] {
            RowKind::Urn => self.urn_row(index).choose(round),
            RowKind::Idler => idler_choose(decode_commitment(self.advocated[index])),
        }
    }

    /// Local row `index`'s observable state — the column counterpart of
    /// [`AnyAgent::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn snapshot(&self, index: usize) -> AgentSnapshot {
        match self.kind[index] {
            RowKind::Urn => AgentSnapshot {
                honest: true,
                role: urn_role(self.state[index]),
                committed: urn_committed(self.nest[index]),
                is_final: self.state[index] == State::Settled,
            },
            RowKind::Idler => AgentSnapshot {
                honest: true,
                role: AgentRole::Passive,
                committed: decode_commitment(self.carried[index]),
                is_final: false,
            },
        }
    }

    /// Local row `index`'s fused round transition — the column
    /// counterpart of [`AnyAgent::observe_choose`], with the identical
    /// observe → snapshot → choose(`round + 1`) ordering (see that
    /// method's docs for why the snapshot sits in the middle).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn observe_choose(
        &mut self,
        index: usize,
        round: u64,
        outcome: Option<&Outcome>,
    ) -> (Action, AgentSnapshot) {
        match self.kind[index] {
            RowKind::Urn => {
                let mut row = self.urn_row(index);
                if let Some(outcome) = outcome {
                    row.observe(outcome);
                }
                let snapshot = AgentSnapshot {
                    honest: true,
                    role: urn_role(*row.state),
                    committed: urn_committed(*row.nest),
                    is_final: *row.state == State::Settled,
                };
                let action = row.choose(round + 1);
                (action, snapshot)
            }
            RowKind::Idler => {
                let mut advocated = decode_commitment(self.advocated[index]);
                let mut carried = decode_commitment(self.carried[index]);
                if let Some(outcome) = outcome {
                    idler_observe(&mut advocated, &mut carried, outcome);
                }
                let snapshot = AgentSnapshot {
                    honest: true,
                    role: AgentRole::Passive,
                    committed: carried,
                    is_final: false,
                };
                let action = idler_choose(advocated);
                self.advocated[index] = encode_commitment(advocated);
                self.carried[index] = encode_commitment(carried);
                (action, snapshot)
            }
        }
    }
}

/// Dense rows over one uniform non-urn colony (optimal / quality /
/// spreader): every row is the concrete agent type `A`, unboxed and
/// contiguous, so the batched round loop monomorphizes on `A` and skips
/// the per-ant [`AnyAgent`] variant dispatch and (for boxed variants)
/// the pointer chase.
///
/// Unlike [`UrnColumns`] this is not a field-wise decomposition — these
/// algorithms mutate state inside `choose` (e.g. [`OptimalAnt`]'s phase
/// automaton), and each row runs its own [`Agent`] impl — but it shares
/// the gather → batched rounds → scatter contract and band-splitting
/// shape.
#[derive(Debug, Clone)]
pub struct DenseRows<A> {
    rows: Vec<A>,
}

impl<A: Agent + Clone> DenseRows<A> {
    fn gather_with(agents: &[AnyAgent], mut extract: impl FnMut(&AnyAgent) -> Option<A>) -> Self {
        Self {
            rows: agents
                .iter()
                .map(|agent| extract(agent).expect("plan() admitted a foreign agent"))
                .collect(),
        }
    }

    fn scatter_into_with(&self, agents: &mut [AnyAgent], mut store: impl FnMut(&mut AnyAgent, &A)) {
        assert_eq!(
            agents.len(),
            self.rows.len(),
            "agent-state table and colony have diverged in length"
        );
        for (agent, row) in agents.iter_mut().zip(&self.rows) {
            store(agent, row);
        }
    }

    /// Number of rows (ants).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The whole table as one mutable band.
    pub fn as_band_mut(&mut self) -> DenseRowsMut<'_, A> {
        DenseRowsMut(&mut self.rows)
    }
}

/// A mutable band over a contiguous row range of [`DenseRows`] —
/// splittable into disjoint chunks exactly like [`UrnColumnsMut`], with
/// local (`0..len()`) indices.
#[derive(Debug)]
pub struct DenseRowsMut<'a, A>(&'a mut [A]);

impl<'a, A: Agent + Clone> DenseRowsMut<'a, A> {
    /// Number of rows in the band.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the band is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Splits the band into disjoint `[0, mid)` and `[mid, len)` halves,
    /// mirroring `slice::split_at_mut`.
    ///
    /// # Panics
    ///
    /// Panics if `mid > len`.
    #[must_use]
    pub fn split_at_mut(self, mid: usize) -> (DenseRowsMut<'a, A>, DenseRowsMut<'a, A>) {
        let (left, right) = self.0.split_at_mut(mid);
        (DenseRowsMut(left), DenseRowsMut(right))
    }

    /// Local row `index`'s action for `round` — the dense counterpart of
    /// [`crate::Agent::choose`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn choose(&mut self, index: usize, round: u64) -> Action {
        self.0[index].choose(round)
    }

    /// Local row `index`'s observable state.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn snapshot(&self, index: usize) -> AgentSnapshot {
        snapshot_of!(&self.0[index])
    }

    /// Local row `index`'s fused round transition, with the identical
    /// observe → snapshot → choose(`round + 1`) ordering as
    /// [`AnyAgent::observe_choose`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn observe_choose(
        &mut self,
        index: usize,
        round: u64,
        outcome: Option<&Outcome>,
    ) -> (Action, AgentSnapshot) {
        let agent = &mut self.0[index];
        if let Some(outcome) = outcome {
            agent.observe(round, outcome);
        }
        let snapshot = snapshot_of!(agent);
        let action = agent.choose(round + 1);
        (action, snapshot)
    }
}

/// A homogeneous colony's agent state as per-algorithm parallel columns,
/// dispatched **once per colony** on the shared algorithm instead of once
/// per ant per round.
#[derive(Debug, Clone)]
pub enum AgentColumns {
    /// Every urn row runs [`SimpleAnt`](crate::SimpleAnt) (one shared
    /// [`UrnOptions`], so the hardened variant batches too).
    Simple(UrnColumns<LinearPolicy>),
    /// Every urn row runs [`AdaptiveAnt`](crate::AdaptiveAnt) with one
    /// shared [`AdaptivePolicy`].
    Adaptive(UrnColumns<AdaptivePolicy>),
    /// Every row is an [`OptimalAnt`] (dense, no idler interleave).
    Optimal(DenseRows<OptimalAnt>),
    /// Every row is a [`QualityAnt`] (dense, unboxed from
    /// [`AnyAgent::Quality`]'s `Box`, no idler interleave).
    Quality(DenseRows<QualityAnt>),
    /// Every row is a [`SpreaderAnt`] (dense, no idler interleave).
    Spreader(DenseRows<SpreaderAnt>),
}

impl AgentColumns {
    /// `true` if [`gather`](Self::gather) would succeed: every agent is
    /// one shared urn algorithm (equal policy, options, and colony size)
    /// or an [`IdlerAnt`](crate::IdlerAnt).
    #[must_use]
    pub fn eligible(agents: &[AnyAgent]) -> bool {
        plan(agents).is_some()
    }

    /// Gathers a homogeneous (modulo idlers) colony into parallel
    /// columns; `None` for heterogeneous mixes, `Custom` agents, or any
    /// non-urn algorithm.
    #[must_use]
    pub fn gather(agents: &[AnyAgent]) -> Option<Self> {
        Some(match plan(agents)? {
            Plan::Simple { options, n } => AgentColumns::Simple(UrnColumns::gather_with(
                agents,
                n,
                LinearPolicy,
                options,
                |agent| match agent {
                    AnyAgent::Simple(ant) => Some(ant),
                    _ => None,
                },
            )),
            Plan::Adaptive { policy, options, n } => AgentColumns::Adaptive(
                UrnColumns::gather_with(agents, n, policy, options, |agent| match agent {
                    AnyAgent::Adaptive(ant) => Some(ant),
                    _ => None,
                }),
            ),
            Plan::Optimal => {
                AgentColumns::Optimal(DenseRows::gather_with(agents, |agent| match agent {
                    AnyAgent::Optimal(ant) => Some(ant.clone()),
                    _ => None,
                }))
            }
            Plan::Quality => {
                AgentColumns::Quality(DenseRows::gather_with(agents, |agent| match agent {
                    AnyAgent::Quality(ant) => Some((**ant).clone()),
                    _ => None,
                }))
            }
            Plan::Spreader => {
                AgentColumns::Spreader(DenseRows::gather_with(agents, |agent| match agent {
                    AnyAgent::Spreader(ant) => Some(ant.clone()),
                    _ => None,
                }))
            }
        })
    }

    /// Writes every row's state back into the source `Vec<AnyAgent>`
    /// (including each ant's draw key), making the scalar
    /// representation current again.
    ///
    /// # Panics
    ///
    /// Panics if `agents` does not have the exact shape the table was
    /// gathered from (same length, same variant at every index).
    pub fn scatter_into(&self, agents: &mut [AnyAgent]) {
        match self {
            AgentColumns::Simple(table) => {
                table.scatter_into_with(agents, |agent| match agent {
                    AnyAgent::Simple(ant) => Some(ant),
                    _ => None,
                });
            }
            AgentColumns::Adaptive(table) => {
                table.scatter_into_with(agents, |agent| match agent {
                    AnyAgent::Adaptive(ant) => Some(ant),
                    _ => None,
                });
            }
            AgentColumns::Optimal(table) => {
                table.scatter_into_with(agents, |agent, row| {
                    let AnyAgent::Optimal(ant) = agent else {
                        panic!("agent-state table and colony have diverged in shape");
                    };
                    *ant = row.clone();
                });
            }
            AgentColumns::Quality(table) => {
                table.scatter_into_with(agents, |agent, row| {
                    let AnyAgent::Quality(ant) = agent else {
                        panic!("agent-state table and colony have diverged in shape");
                    };
                    **ant = row.clone();
                });
            }
            AgentColumns::Spreader(table) => {
                table.scatter_into_with(agents, |agent, row| {
                    let AnyAgent::Spreader(ant) = agent else {
                        panic!("agent-state table and colony have diverged in shape");
                    };
                    *ant = row.clone();
                });
            }
        }
    }

    /// Number of rows (ants).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            AgentColumns::Simple(table) => table.len(),
            AgentColumns::Adaptive(table) => table.len(),
            AgentColumns::Optimal(table) => table.len(),
            AgentColumns::Quality(table) => table.len(),
            AgentColumns::Spreader(table) => table.len(),
        }
    }

    /// `true` if the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole table as one mutable band (split it with
    /// [`AgentColumnsMut::split_at_mut`]).
    pub fn as_band_mut(&mut self) -> AgentColumnsMut<'_> {
        match self {
            AgentColumns::Simple(table) => AgentColumnsMut::Simple(table.as_band_mut()),
            AgentColumns::Adaptive(table) => AgentColumnsMut::Adaptive(table.as_band_mut()),
            AgentColumns::Optimal(table) => AgentColumnsMut::Optimal(table.as_band_mut()),
            AgentColumns::Quality(table) => AgentColumnsMut::Quality(table.as_band_mut()),
            AgentColumns::Spreader(table) => AgentColumnsMut::Spreader(table.as_band_mut()),
        }
    }
}

/// A mutable band over [`AgentColumns`]: the algorithm dispatch happens
/// here, **outside** the executor's per-ant loops — match once, then run
/// the monomorphized [`UrnColumnsMut`] loop.
#[derive(Debug)]
pub enum AgentColumnsMut<'a> {
    /// Band over a [`AgentColumns::Simple`] table.
    Simple(UrnColumnsMut<'a, LinearPolicy>),
    /// Band over a [`AgentColumns::Adaptive`] table.
    Adaptive(UrnColumnsMut<'a, AdaptivePolicy>),
    /// Band over a [`AgentColumns::Optimal`] table.
    Optimal(DenseRowsMut<'a, OptimalAnt>),
    /// Band over a [`AgentColumns::Quality`] table.
    Quality(DenseRowsMut<'a, QualityAnt>),
    /// Band over a [`AgentColumns::Spreader`] table.
    Spreader(DenseRowsMut<'a, SpreaderAnt>),
}

impl<'a> AgentColumnsMut<'a> {
    /// Number of rows in the band.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            AgentColumnsMut::Simple(band) => band.len(),
            AgentColumnsMut::Adaptive(band) => band.len(),
            AgentColumnsMut::Optimal(band) => band.len(),
            AgentColumnsMut::Quality(band) => band.len(),
            AgentColumnsMut::Spreader(band) => band.len(),
        }
    }

    /// `true` if the band is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits the band into disjoint `[0, mid)` and `[mid, len)` halves,
    /// mirroring `slice::split_at_mut`.
    ///
    /// # Panics
    ///
    /// Panics if `mid > len`.
    #[must_use]
    pub fn split_at_mut(self, mid: usize) -> (AgentColumnsMut<'a>, AgentColumnsMut<'a>) {
        match self {
            AgentColumnsMut::Simple(band) => {
                let (left, right) = band.split_at_mut(mid);
                (
                    AgentColumnsMut::Simple(left),
                    AgentColumnsMut::Simple(right),
                )
            }
            AgentColumnsMut::Adaptive(band) => {
                let (left, right) = band.split_at_mut(mid);
                (
                    AgentColumnsMut::Adaptive(left),
                    AgentColumnsMut::Adaptive(right),
                )
            }
            AgentColumnsMut::Optimal(band) => {
                let (left, right) = band.split_at_mut(mid);
                (
                    AgentColumnsMut::Optimal(left),
                    AgentColumnsMut::Optimal(right),
                )
            }
            AgentColumnsMut::Quality(band) => {
                let (left, right) = band.split_at_mut(mid);
                (
                    AgentColumnsMut::Quality(left),
                    AgentColumnsMut::Quality(right),
                )
            }
            AgentColumnsMut::Spreader(band) => {
                let (left, right) = band.split_at_mut(mid);
                (
                    AgentColumnsMut::Spreader(left),
                    AgentColumnsMut::Spreader(right),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveAnt;
    use crate::idle::IdlerAnt;
    use crate::simple::SimpleAnt;
    use crate::spreader::SpreadStrategy;
    use hh_model::Quality;

    fn simple_mixed(n: usize) -> Vec<AnyAgent> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    IdlerAnt::new().into()
                } else {
                    SimpleAnt::new(n, 100 + i as u64).into()
                }
            })
            .collect()
    }

    /// A deterministic synthetic outcome stream (no environment needed).
    fn synthetic_outcome(round: u64, index: usize) -> Outcome {
        if round == 1 {
            Outcome::Search {
                nest: NestId::candidate(1 + index % 3),
                quality: if index.is_multiple_of(2) {
                    Quality::GOOD
                } else {
                    Quality::BAD
                },
                count: index as u32 % 7,
            }
        } else if round.is_multiple_of(2) {
            Outcome::Recruit {
                nest: NestId::candidate(1 + (index + round as usize) % 3),
                home_count: 5,
            }
        } else {
            Outcome::Go {
                count: (index as u32 + round as u32) % 20,
                quality: None,
            }
        }
    }

    #[test]
    fn eligibility_matches_the_contract() {
        let n = 12;
        assert!(AgentColumns::eligible(&simple_mixed(n)));
        let uniform_adaptive: Vec<AnyAgent> = (0..n)
            .map(|i| AdaptiveAnt::new(n, i as u64).into())
            .collect();
        assert!(AgentColumns::eligible(&uniform_adaptive));
        let all_idlers: Vec<AnyAgent> = (0..n).map(|_| IdlerAnt::new().into()).collect();
        assert!(AgentColumns::eligible(&all_idlers));

        // Uniform dense-row colonies are eligible too (per-row parameters
        // may differ; the rows are self-contained).
        let uniform_optimal: Vec<AnyAgent> = (0..n).map(|_| OptimalAnt::new().into()).collect();
        assert!(AgentColumns::eligible(&uniform_optimal));
        let uniform_quality: Vec<AnyAgent> = (0..n)
            .map(|i| QualityAnt::new(n, i as u64, 2.0).into())
            .collect();
        assert!(AgentColumns::eligible(&uniform_quality));
        let uniform_spreaders: Vec<AnyAgent> = (0..n)
            .map(|i| SpreaderAnt::new(SpreadStrategy::WaitAtHome, i as u64).into())
            .collect();
        assert!(AgentColumns::eligible(&uniform_spreaders));

        // ... but dense plans reject idler interleaves, in either order.
        let mut dense_then_idler: Vec<AnyAgent> =
            (0..n).map(|_| OptimalAnt::new().into()).collect();
        dense_then_idler[n - 1] = IdlerAnt::new().into();
        assert!(!AgentColumns::eligible(&dense_then_idler));
        let mut idler_then_dense: Vec<AnyAgent> = (0..n)
            .map(|i| QualityAnt::new(n, i as u64, 2.0).into())
            .collect();
        idler_then_dense[0] = IdlerAnt::new().into();
        assert!(!AgentColumns::eligible(&idler_then_dense));

        // Mixed algorithms, non-urn agents, custom boxes, and differing
        // options all fall back to the AnyAgent path.
        let mut mixed = simple_mixed(n);
        mixed[0] = AdaptiveAnt::new(n, 0).into();
        assert!(!AgentColumns::eligible(&mixed));
        let mut optimal = simple_mixed(n);
        optimal[0] = OptimalAnt::new().into();
        assert!(!AgentColumns::eligible(&optimal));
        let mut custom = simple_mixed(n);
        custom[0] = AnyAgent::custom(SimpleAnt::new(n, 100));
        assert!(!AgentColumns::eligible(&custom));
        let mut options = simple_mixed(n);
        options[0] = SimpleAnt::with_options(n, 100, UrnOptions::hardened()).into();
        assert!(!AgentColumns::eligible(&options));
    }

    /// Gather → batched rounds → scatter is bit-identical to running the
    /// same rounds on the `Vec<AnyAgent>` directly, draw keys included.
    #[test]
    fn table_rounds_match_the_agent_vector_exactly() {
        let n = 24;
        let mut scalar = simple_mixed(n);
        let mut tabled = simple_mixed(n);

        // Round 1 choose on both representations.
        let mut table = AgentColumns::gather(&tabled).expect("eligible colony");
        {
            let AgentColumnsMut::Simple(mut band) = table.as_band_mut() else {
                panic!("simple colony must gather into a Simple table");
            };
            for (index, agent) in scalar.iter_mut().enumerate() {
                assert_eq!(agent.choose(1), band.choose(index, 1), "ant {index}");
            }
        }

        // Rounds 1..=6 through the fused transition: table side.
        for round in 1..=6u64 {
            let AgentColumnsMut::Simple(mut band) = table.as_band_mut() else {
                panic!("simple colony must gather into a Simple table");
            };
            for (index, agent) in scalar.iter_mut().enumerate() {
                let outcome = synthetic_outcome(round, index);
                let expected = agent.observe_choose(round, Some(&outcome));
                let got = band.observe_choose(index, round, Some(&outcome));
                assert_eq!(expected, got, "ant {index}, round {round}");
                assert_eq!(band.snapshot(index), agent.snapshot(), "ant {index}");
            }
        }

        // Scatter back and keep going on the plain agent path: the
        // restored ants (draw keys included) must stay in lockstep.
        table.scatter_into(&mut tabled);
        for round in 7..=10u64 {
            for (index, (a, b)) in scalar.iter_mut().zip(tabled.iter_mut()).enumerate() {
                let outcome = synthetic_outcome(round, index);
                assert_eq!(
                    a.observe_choose(round, Some(&outcome)),
                    b.observe_choose(round, Some(&outcome)),
                    "ant {index}, round {round} after scatter"
                );
            }
        }
    }

    #[test]
    fn bands_split_like_slices() {
        let n = 10;
        let agents = simple_mixed(n);
        let mut table = AgentColumns::gather(&agents).expect("eligible colony");
        assert_eq!(table.len(), n);
        assert!(!table.is_empty());
        let band = table.as_band_mut();
        assert_eq!(band.len(), n);
        let (left, right) = band.split_at_mut(3);
        assert_eq!(left.len(), 3);
        assert_eq!(right.len(), 7);
        let (mid, tail) = right.split_at_mut(4);
        assert_eq!(mid.len(), 4);
        assert_eq!(tail.len(), 3);
    }

    /// Runs a gathered colony and its scalar twin in lockstep through
    /// synthetic rounds, scatters, and keeps going on the agent path —
    /// the dense-row analogue of `table_rounds_match_the_agent_vector_exactly`.
    fn dense_lockstep(mut scalar: Vec<AnyAgent>, mut tabled: Vec<AnyAgent>, tag: &str) {
        macro_rules! with_band {
            ($band:expr, |$b:ident| $body:expr) => {
                match $band {
                    AgentColumnsMut::Simple(mut $b) => $body,
                    AgentColumnsMut::Adaptive(mut $b) => $body,
                    AgentColumnsMut::Optimal(mut $b) => $body,
                    AgentColumnsMut::Quality(mut $b) => $body,
                    AgentColumnsMut::Spreader(mut $b) => $body,
                }
            };
        }
        let mut table =
            AgentColumns::gather(&tabled).unwrap_or_else(|| panic!("{tag}: eligible colony"));
        for round in 1..=6u64 {
            with_band!(table.as_band_mut(), |band| {
                for (index, agent) in scalar.iter_mut().enumerate() {
                    let outcome = synthetic_outcome(round, index);
                    let expected = agent.observe_choose(round, Some(&outcome));
                    let got = band.observe_choose(index, round, Some(&outcome));
                    assert_eq!(expected, got, "{tag}: ant {index}, round {round}");
                    assert_eq!(band.snapshot(index), agent.snapshot(), "{tag}: ant {index}");
                }
            });
        }
        table.scatter_into(&mut tabled);
        for round in 7..=10u64 {
            for (index, (a, b)) in scalar.iter_mut().zip(tabled.iter_mut()).enumerate() {
                let outcome = synthetic_outcome(round, index);
                assert_eq!(
                    a.observe_choose(round, Some(&outcome)),
                    b.observe_choose(round, Some(&outcome)),
                    "{tag}: ant {index}, round {round} after scatter"
                );
            }
        }
    }

    #[test]
    fn dense_optimal_rows_match_the_agent_vector_exactly() {
        let make = || (0..16).map(|_| OptimalAnt::new().into()).collect();
        dense_lockstep(make(), make(), "optimal");
    }

    #[test]
    fn dense_quality_rows_match_the_agent_vector_exactly() {
        let make = || {
            (0..16)
                .map(|i| QualityAnt::new(16, 300 + i, 2.0).into())
                .collect()
        };
        dense_lockstep(make(), make(), "quality");
    }

    #[test]
    fn dense_spreader_rows_match_the_agent_vector_exactly() {
        let make = |strategy| {
            move || {
                (0..16u64)
                    .map(|i| SpreaderAnt::new(strategy, 500 + i).into())
                    .collect()
            }
        };
        for strategy in [
            SpreadStrategy::WaitAtHome,
            SpreadStrategy::SearchForever,
            SpreadStrategy::Hybrid {
                search_probability: 0.5,
            },
        ] {
            let make = make(strategy);
            dense_lockstep(make(), make(), strategy.label());
        }
    }

    #[test]
    fn all_idler_colony_round_trips() {
        let n = 5;
        let mut agents: Vec<AnyAgent> = (0..n).map(|_| IdlerAnt::new().into()).collect();
        let mut table = AgentColumns::gather(&agents).expect("all-idler colony is eligible");
        {
            let AgentColumnsMut::Simple(mut band) = table.as_band_mut() else {
                panic!("all-idler colony defaults to a Simple table");
            };
            for index in 0..n {
                assert_eq!(band.choose(index, 1), Action::Search);
                let outcome = synthetic_outcome(1, index);
                band.observe_choose(index, 1, Some(&outcome));
            }
        }
        table.scatter_into(&mut agents);
        for (index, agent) in agents.iter_mut().enumerate() {
            // Round 1's search was observed: the idler now advocates it.
            let Outcome::Search { nest, .. } = synthetic_outcome(1, index) else {
                unreachable!()
            };
            assert_eq!(agent.choose(2), Action::recruit_passive(nest));
        }
    }
}
