//! The synchronous executor: drives a colony of agents against an
//! environment, applying fault and asynchrony perturbations.
//!
//! [`Simulation`] owns an [`Environment`] plus a [`Colony`] (one agent
//! per ant) and advances them in lockstep rounds:
//!
//! 1. every live, undelayed agent chooses its action for the round;
//! 2. crashed and delayed ants get a location-preserving no-op instead
//!    (and, being skipped, never observe the round — the paper's
//!    synchrony-fragility experiments rest on exactly this);
//! 3. illegal actions (a Byzantine agent probing, or an agent bug) are
//!    sandboxed: replaced by a no-op and counted, never aborting the run;
//! 4. the environment resolves the round; every agent whose own action
//!    ran receives its outcome.
//!
//! ## Engine invariants (the data-oriented hot path)
//!
//! * **Zero allocation at steady state.** The per-round action buffer,
//!   the chose/ran bitmasks, and the environment's [`StepReport`] live in
//!   a persistent [`RoundScratch`]; the environment's own pairing scratch
//!   is reused the same way ([`Environment::step_into`]). After the first
//!   round, stepping allocates nothing.
//! * **Static dispatch, one agent store.** Agents are
//!   [`AnyAgent`](hh_core::AnyAgent) variants in one contiguous vector;
//!   only the `Custom` escape hatch pays a vtable call. A uniform colony
//!   (every ant the same [`UniformVariant`]) runs its batched rounds as a
//!   loop monomorphized on the concrete agent type, projecting each slot
//!   of that same vector in place (see
//!   [`Simulation::uses_agent_columns`]); mixes dispatch per ant. Either
//!   way the round body is the same generic function, dispatched once
//!   per round.
//! * **Incremental census.** The colony's [`RoleCensus`] and the
//!   executor's live-honest commitment tally are maintained per stepped
//!   agent ([`Colony::refresh`]), never by rescanning the colony, so the
//!   convergence [`Detector`](crate::Detector) reads O(k) state instead
//!   of touching all n agents every round.
//! * **Deterministic intra-round parallelism.** Agents are independent
//!   within a round, so the per-ant phases — validate/relocate/tally and
//!   the fused outcome/observe/choose/refresh pass — run over disjoint
//!   colony chunks on a persistent worker pool
//!   ([`Simulation::with_round_threads`]), spawned once and reused every
//!   round. Every random draw attributable to an ant comes from that
//!   ant's own stream (see the `hh_model::env` docs on randomness
//!   ownership), each worker writes only its own slots, and per-worker
//!   census/tally/count deltas are merged in chunk order at the barrier
//!   — so every thread count, including the serial `round_threads = 1`
//!   default (the same code run inline), produces **bit-identical**
//!   results. Only the Algorithm 1 pairing stays serial, as the paper's
//!   one colony-level process. Perturbed simulations execute their
//!   rounds serially regardless of the setting (the fault bookkeeping is
//!   not worth parallelizing), which preserves the contract trivially.

use std::sync::Mutex;

use hh_core::colony::AgentSnapshot;
use hh_core::columns::ColumnsMut;
use hh_core::{
    AdaptiveAnt, AnyAgent, CensusDelta, Colony, OptimalAnt, Projected, QualityAnt, SimpleAnt,
    SpreaderAnt, UniformVariant,
};
use hh_model::faults::{noop_action, CrashPlan, CrashStyle, DelayPlan};
use hh_model::recruitment::RecruitCall;
use hh_model::{
    Action, AntId, Environment, NestId, Outcome, OutcomeChunk, RelocationChunk, StepReport,
};

use crate::convergence::{ConvergenceRule, Detector, Solved};
use crate::error::SimError;
use crate::pool::{scatter, WorkerPool, MAX_ROUND_THREADS};

pub use hh_core::RoleCensus;

/// The fault/asynchrony plans applied to one execution (Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbations {
    /// Permanent crash-stop schedule.
    pub crash: CrashPlan,
    /// Per-(ant, round) delay plan (partial asynchrony).
    pub delay: DelayPlan,
}

impl Perturbations {
    /// No perturbations, for a colony of `n` ants — the baseline model.
    #[must_use]
    pub fn none(n: usize) -> Self {
        Self {
            crash: CrashPlan::none(n),
            delay: DelayPlan::never(),
        }
    }

    /// Returns `true` if neither plan perturbs anything.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.crash.is_empty() && self.delay.probability() == 0.0
    }
}

/// Which round engine drives an unperturbed simulation.
///
/// Both engines implement the identical round semantics; the registry's
/// `soa_equivalence` suite pins them bit-identical (equal seeds produce
/// equal [`RunOutcome`]s and equal round-by-round census tallies) across
/// the whole scenario catalog.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The scalar oracle: one match-per-ant pass per phase, always
    /// serial. This is the perturbed path run with empty plans — the
    /// simplest correct rendering of the round semantics, kept as the
    /// reference the SoA engine is distribution-identity-tested against.
    Scalar,
    /// The struct-of-arrays fast path: fused observe/choose/refresh over
    /// the colony's flat snapshot columns, batched per-ant RNG draws,
    /// and optional intra-round chunk parallelism
    /// ([`Simulation::with_round_threads`]).
    #[default]
    Soa,
}

/// Outcome of a bounded run (see [`Simulation::run_to_convergence`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The detected convergence, if any.
    pub solved: Option<Solved>,
    /// Rounds actually executed.
    pub rounds_run: u64,
    /// Actions replaced by crash/delay no-ops.
    pub replaced_actions: u64,
    /// Illegal agent actions sandboxed into no-ops.
    pub illegal_actions: u64,
}

/// Persistent per-round buffers, reused so stepping never allocates at
/// steady state.
#[derive(Debug, Default)]
struct RoundScratch {
    /// One action per ant for the round being assembled.
    actions: Vec<Action>,
    /// The batched path's pre-chosen actions for the *next* round (see
    /// `run_batched_round`).
    next_actions: Vec<Action>,
    /// `chose[a]`: agent `a`'s `choose` ran this round (its state may
    /// have changed, so its snapshot needs a refresh).
    chose: Vec<bool>,
    /// `ran[a]`: agent `a`'s own action executed, so it observes.
    ran: Vec<bool>,
    /// The environment's report, refilled in place each round.
    report: StepReport,
}

/// Commitment/finality tallies over the *live honest* colony, maintained
/// incrementally by the executor and read by the convergence
/// [`Detector`](crate::Detector) — the census-fed replacement for the old
/// per-round colony rescan.
///
/// Crashed ants leave the tally at their crash round (their state
/// machines are frozen); dishonest agents never enter it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiveTally {
    /// Live honest agents.
    total: usize,
    /// Of those, agents with no committed nest.
    uncommitted: usize,
    /// Of those, agents reporting the final/settled state.
    finals: usize,
    /// Commitments per raw nest id (grown on demand).
    commits: Vec<usize>,
    /// Nests with a nonzero commitment count.
    distinct: usize,
}

impl LiveTally {
    fn add(&mut self, snapshot: &AgentSnapshot) {
        self.total += 1;
        self.finals += usize::from(snapshot.is_final);
        match snapshot.committed {
            None => self.uncommitted += 1,
            Some(nest) => self.commit(nest, true),
        }
    }

    fn remove(&mut self, snapshot: &AgentSnapshot) {
        self.total -= 1;
        self.finals -= usize::from(snapshot.is_final);
        match snapshot.committed {
            None => self.uncommitted -= 1,
            Some(nest) => self.commit(nest, false),
        }
    }

    /// Folds one agent's snapshot transition into the tally. Honesty may
    /// legitimately vary for `Custom` agents, so only states that were
    /// (are) honest leave (enter) the tally.
    #[inline]
    fn apply(&mut self, old: &AgentSnapshot, new: &AgentSnapshot) {
        if old == new {
            return;
        }
        if old.honest {
            self.remove(old);
        }
        if new.honest {
            self.add(new);
        }
    }

    fn commit(&mut self, nest: NestId, add: bool) {
        let raw = nest.raw();
        if raw >= self.commits.len() {
            self.commits.resize(raw + 1, 0);
        }
        if add {
            self.commits[raw] += 1;
            if self.commits[raw] == 1 {
                self.distinct += 1;
            }
        } else {
            self.commits[raw] -= 1;
            if self.commits[raw] == 0 {
                self.distinct -= 1;
            }
        }
    }

    /// Live honest agents currently tallied.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// The nest every live honest agent is committed to, if they all
    /// agree; `None` when the tally is empty, anyone is uncommitted, or
    /// two agents disagree.
    pub(crate) fn consensus(&self) -> Option<NestId> {
        if self.total == 0 || self.uncommitted > 0 || self.distinct != 1 {
            return None;
        }
        self.commits
            .iter()
            .position(|&count| count > 0)
            .map(NestId::from_raw)
    }

    /// `true` if every live honest agent reports the final state.
    pub(crate) fn all_final(&self) -> bool {
        self.finals == self.total
    }

    /// Folds a per-worker [`TallyDelta`] (chunk-order merge at the round
    /// barrier) into the tally. The end state is identical to having
    /// applied every agent transition directly.
    pub(crate) fn apply_delta(&mut self, delta: &TallyDelta) {
        self.total = signed_add(self.total, delta.total);
        self.uncommitted = signed_add(self.uncommitted, delta.uncommitted);
        self.finals = signed_add(self.finals, delta.finals);
        for (raw, &change) in delta.commits.iter().enumerate() {
            if change == 0 {
                continue;
            }
            if raw >= self.commits.len() {
                self.commits.resize(raw + 1, 0);
            }
            let old = self.commits[raw];
            let new = signed_add(old, change);
            self.commits[raw] = new;
            match (old == 0, new == 0) {
                (true, false) => self.distinct += 1,
                (false, true) => self.distinct -= 1,
                _ => {}
            }
        }
    }

    /// The nest satisfying `good` that holds at least `fraction` of the
    /// live honest colony's commitments, if any; the highest count wins,
    /// lowest nest id breaking ties.
    pub(crate) fn quorum(&self, fraction: f64, good: impl Fn(NestId) -> bool) -> Option<NestId> {
        if self.total == 0 {
            return None;
        }
        let needed = ((fraction * self.total as f64).ceil() as usize).max(1);
        let mut best: Option<(usize, NestId)> = None;
        for (raw, &count) in self.commits.iter().enumerate() {
            if count >= needed && best.is_none_or(|(c, _)| count > c) {
                let nest = NestId::from_raw(raw);
                if good(nest) {
                    best = Some((count, nest));
                }
            }
        }
        best.map(|(_, nest)| nest)
    }
}

/// Adds a signed delta to an unsigned counter; panics on underflow
/// (which would indicate a delta produced against foreign state).
fn signed_add(value: usize, delta: isize) -> usize {
    value
        .checked_add_signed(delta)
        .expect("live tally underflow")
}

/// A signed [`LiveTally`] delta, accumulated per worker during the
/// chunked observe/choose/refresh pass and merged in chunk order at the
/// round barrier ([`LiveTally::apply_delta`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct TallyDelta {
    total: isize,
    uncommitted: isize,
    finals: isize,
    /// Signed commitment changes per raw nest id (grown on demand).
    commits: Vec<isize>,
}

impl TallyDelta {
    fn clear(&mut self) {
        self.total = 0;
        self.uncommitted = 0;
        self.finals = 0;
        self.commits.fill(0);
    }

    /// Mirrors [`LiveTally::apply`] for one agent's snapshot transition.
    #[inline]
    fn apply(&mut self, old: &AgentSnapshot, new: &AgentSnapshot) {
        if old == new {
            return;
        }
        if old.honest {
            self.shift(old, -1);
        }
        if new.honest {
            self.shift(new, 1);
        }
    }

    fn shift(&mut self, snapshot: &AgentSnapshot, sign: isize) {
        self.total += sign;
        self.finals += isize::from(snapshot.is_final) * sign;
        match snapshot.committed {
            None => self.uncommitted += sign,
            Some(nest) => {
                let raw = nest.raw();
                if raw >= self.commits.len() {
                    self.commits.resize(raw + 1, 0);
                }
                self.commits[raw] += sign;
            }
        }
    }
}

/// Per-worker round state: everything a chunk writes besides its
/// disjoint slots, merged serially in chunk order at the barriers so
/// results never depend on the thread count. Buffers persist across
/// rounds — the steady state allocates nothing.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Phase 1: this chunk's population tally (length `k + 1`).
    counts: Vec<usize>,
    /// Phase 1: this chunk's recruit calls, in ant order.
    calls: Vec<RecruitCall>,
    /// Phase 1: illegal actions sandboxed in this chunk.
    illegal: u64,
    /// Phase 2: this chunk's role-census delta.
    census: CensusDelta,
    /// Phase 2: this chunk's live-tally delta.
    tally: TallyDelta,
}

/// One synchronous execution: environment + colony + perturbations.
///
/// # Examples
///
/// ```
/// use hh_core::colony;
/// use hh_sim::{ConvergenceRule, Simulation};
/// use hh_model::{ColonyConfig, Environment, QualitySpec};
///
/// let n = 24;
/// let config = ColonyConfig::new(n, QualitySpec::good_prefix(3, 1)).seed(5);
/// let env = Environment::new(&config)?;
/// let mut sim = Simulation::new(env, colony::simple(n, 5))?;
/// let outcome = sim.run_to_convergence(ConvergenceRule::commitment(), 10_000)?;
/// assert!(outcome.solved.is_some());
/// # Ok::<(), hh_sim::SimError>(())
/// ```
pub struct Simulation {
    env: Environment,
    colony: Colony,
    perturbations: Perturbations,
    replaced_actions: u64,
    illegal_actions: u64,
    /// `crashed[a]`: the executor has already seen ant `a` crashed (and
    /// removed it from the live tally).
    crashed: Vec<bool>,
    /// `true` when both perturbation plans are empty — enables the
    /// batched round with no per-ant fault checks.
    unperturbed: bool,
    /// Which engine steps unperturbed rounds (perturbed rounds always
    /// run the scalar bookkeeping path).
    engine: EngineKind,
    /// Batched path: `scratch.next_actions` holds the upcoming round's
    /// pre-chosen actions.
    prechosen: bool,
    live: LiveTally,
    scratch: RoundScratch,
    /// Intra-round parts (1 = serial). See
    /// [`with_round_threads`](Simulation::with_round_threads).
    round_threads: usize,
    /// Ant-chunk boundaries, length `round_threads + 1`.
    chunk_bounds: Vec<usize>,
    /// One scratch per part, merged in part order at the barriers.
    worker_scratch: Vec<WorkerScratch>,
    /// The persistent pool (`round_threads > 1`, unperturbed only).
    pool: Option<WorkerPool>,
    /// The variant every ant shares, if the colony is uniform. Checked
    /// once at construction: nothing inside a `Simulation` can change an
    /// ant's variant. Batched rounds of a uniform colony run the loop
    /// monomorphized on that variant's type. See
    /// [`uses_agent_columns`](Simulation::uses_agent_columns).
    uniform: Option<UniformVariant>,
    /// The round being executed, set before a round starts and cleared
    /// when it completes. Still set at the next call only if that round
    /// unwound (a panicking agent or pool job), which poisons the
    /// simulation: its state may be half updated.
    unfinished_round: Option<u64>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("round", &self.env.round())
            .field("n", &self.env.n())
            .field("k", &self.env.k())
            .field("perturbations", &self.perturbations)
            .field("replaced_actions", &self.replaced_actions)
            .field("illegal_actions", &self.illegal_actions)
            .field("round_threads", &self.round_threads)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Creates an unperturbed simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AgentCountMismatch`] if the colony's size
    /// differs from the environment's.
    pub fn new(env: Environment, agents: impl Into<Colony>) -> Result<Self, SimError> {
        Self::with_perturbations(env, agents, None)
    }

    /// Creates a simulation with explicit perturbation plans (`None` for
    /// the unperturbed baseline).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AgentCountMismatch`] if the colony's size
    /// differs from the environment's.
    pub fn with_perturbations(
        env: Environment,
        agents: impl Into<Colony>,
        perturbations: Option<Perturbations>,
    ) -> Result<Self, SimError> {
        let mut colony = agents.into();
        colony.sync();
        if colony.len() != env.n() {
            return Err(SimError::AgentCountMismatch {
                agents: colony.len(),
                n: env.n(),
            });
        }
        let n = env.n();
        let mut live = LiveTally::default();
        for snapshot in colony.iter_snapshots() {
            if snapshot.honest {
                live.add(&snapshot);
            }
        }
        let perturbations = perturbations.unwrap_or_else(|| Perturbations::none(n));
        let unperturbed = perturbations.is_none();
        let uniform = UniformVariant::of(&colony);
        Ok(Self {
            env,
            colony,
            perturbations,
            replaced_actions: 0,
            illegal_actions: 0,
            crashed: vec![false; n],
            unperturbed,
            engine: EngineKind::default(),
            prechosen: false,
            live,
            scratch: RoundScratch::default(),
            round_threads: 1,
            chunk_bounds: vec![0, n],
            worker_scratch: vec![WorkerScratch::default()],
            pool: None,
            uniform,
            unfinished_round: None,
        })
    }

    /// Sets the number of intra-round parts and spawns the persistent
    /// worker pool behind them (once; the threads are reused every
    /// round). `threads` is clamped to `1..=16`; 1 restores the serial
    /// engine.
    ///
    /// **Determinism contract:** every thread count produces
    /// bit-identical executions — the serial path is the same chunked
    /// code run inline, all per-ant randomness lives in per-ant streams,
    /// and per-worker deltas merge in chunk order. The registry
    /// conformance suite enforces this across the whole catalog.
    ///
    /// **Perturbed simulations ignore this setting at execution time**:
    /// their rounds always run serially (the per-ant crash/delay
    /// bookkeeping is not worth parallelizing), no pool is spawned, and
    /// the outcomes are bit-identical to the serial run by construction
    /// — the setting is remembered but inert. The same applies to
    /// `Scenario::round_threads` in the registry.
    #[must_use]
    pub fn with_round_threads(mut self, threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_ROUND_THREADS);
        let n = self.env.n();
        self.round_threads = threads;
        self.chunk_bounds = (0..=threads).map(|part| part * n / threads).collect();
        self.worker_scratch
            .resize_with(threads, WorkerScratch::default);
        self.rebuild_pool();
        self
    }

    /// Overrides the ant-chunk boundaries used by the SoA engine's
    /// intra-round phases — a **testing hook** for driving the chunked
    /// code through adversarial splits (width-1 chunks, `n - 1` cuts,
    /// prime strides) that the even `with_round_threads` division never
    /// produces. The determinism contract says every valid split is
    /// bit-identical to serial; `tests/property_runner.rs` enforces it
    /// through this hook.
    ///
    /// `bounds` must be monotonically non-decreasing, start at `0`, end
    /// at `n`, and describe at most `MAX_ROUND_THREADS` (`16`) chunks.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not a valid chunk split as described above.
    #[must_use]
    pub fn with_chunk_bounds(mut self, bounds: Vec<usize>) -> Self {
        let n = self.env.n();
        assert!(
            bounds.len() >= 2 && bounds.len() <= MAX_ROUND_THREADS + 1,
            "chunk bounds must describe 1..={MAX_ROUND_THREADS} chunks"
        );
        assert_eq!(bounds[0], 0, "chunk bounds must start at 0");
        assert_eq!(
            *bounds.last().expect("non-empty"),
            n,
            "chunk bounds must end at n"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "chunk bounds must be monotonically non-decreasing"
        );
        let threads = bounds.len() - 1;
        self.round_threads = threads;
        self.chunk_bounds = bounds;
        self.worker_scratch
            .resize_with(threads, WorkerScratch::default);
        self.rebuild_pool();
        self
    }

    /// Selects the engine for unperturbed rounds (default:
    /// [`EngineKind::Soa`]).
    ///
    /// The scalar engine always runs serially, so choosing it releases
    /// any worker pool; switching back to SoA re-applies the configured
    /// `round_threads`. The builders commute: any order of
    /// `with_round_threads` / `with_engine` / `with_chunk_bounds` calls
    /// ends at the same configuration, thread count included (pinned by
    /// `builder_order_never_drops_threads`).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self.rebuild_pool();
        self
    }

    /// Reconciles the worker pool with the current configuration — the
    /// single pool gate shared by every builder, so no call order can
    /// drop the requested thread count. An already-matching pool is kept
    /// (no thread churn when e.g. toggling the engine away and back).
    fn rebuild_pool(&mut self) {
        let wanted = (self.round_threads > 1 && self.unperturbed && self.engine == EngineKind::Soa)
            .then_some(self.round_threads - 1);
        match (wanted, &self.pool) {
            (Some(workers), Some(pool)) if pool.workers() == workers => {}
            (Some(workers), _) => self.pool = Some(WorkerPool::new(workers)),
            (None, _) => self.pool = None,
        }
    }

    /// The engine driving unperturbed rounds.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// `true` if every batched round — [`step`](Self::step),
    /// [`step_in_place`](Self::step_in_place),
    /// [`run_observed`](Self::run_observed) and
    /// [`run_to_convergence`](Self::run_to_convergence) alike — runs the
    /// per-algorithm loop: the simulation is unperturbed, the SoA engine
    /// is selected, and the colony is uniform (every ant the same
    /// [`UniformVariant`], whatever its per-ant options), so the loop is
    /// monomorphized on that variant's type and projects each agent slot
    /// in place. Idler, heterogeneous, Byzantine and `Custom` mixes run
    /// the same batched round with one variant dispatch per ant;
    /// perturbed runs and the scalar oracle take the scalar round — all
    /// bit-identically, by the engine contract.
    #[must_use]
    pub fn uses_agent_columns(&self) -> bool {
        self.uniform.is_some() && self.unperturbed && self.engine == EngineKind::Soa
    }

    /// The configured number of intra-round parts.
    #[must_use]
    pub fn round_threads(&self) -> usize {
        self.round_threads
    }

    /// The environment (read-only).
    #[must_use]
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// The colony (read-only view). Every round path steps this one
    /// agent vector in place, so it is current after every round.
    #[must_use]
    pub fn agents(&self) -> &[AnyAgent] {
        &self.colony
    }

    /// The colony with its cached census (read-only view).
    #[must_use]
    pub fn colony(&self) -> &Colony {
        &self.colony
    }

    /// Every agent's observable state, in ant order — served from the
    /// colony's snapshot columns, which every round path keeps current.
    pub fn iter_snapshots(&self) -> impl Iterator<Item = AgentSnapshot> + '_ {
        self.colony.iter_snapshots()
    }

    /// Completed rounds.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.env.round()
    }

    /// Actions replaced by crash/delay no-ops so far.
    #[must_use]
    pub fn replaced_actions(&self) -> u64 {
        self.replaced_actions
    }

    /// Illegal agent actions sandboxed so far.
    #[must_use]
    pub fn illegal_actions(&self) -> u64 {
        self.illegal_actions
    }

    /// Executes one synchronous round into the persistent scratch.
    ///
    /// With `materialize` set, the report (including the per-ant outcome
    /// vector) is readable as `self.scratch.report` afterwards; without
    /// it, each outcome is handed straight to its agent as it is
    /// computed and `report.outcomes` stays empty — the convergence loop
    /// needs no colony-sized outcome buffer. Both modes run the **same**
    /// delivering round pass; materializing only adds the per-slot copy
    /// into the (persistent) report buffer, so instrumented and
    /// convergence runs are one code path and report identical
    /// [`RunOutcome`]s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Poisoned`] without stepping if an earlier
    /// round unwound part-way (a panicking agent or pool job): the
    /// agent store may hold a half-updated round.
    fn step_round(&mut self, materialize: bool) -> Result<(), SimError> {
        if let Some(round) = self.unfinished_round {
            return Err(SimError::Poisoned { round });
        }
        let round = self.env.round() + 1;
        self.unfinished_round = Some(round);
        if self.unperturbed && self.engine == EngineKind::Soa {
            self.step_round_batched(materialize, round);
        } else {
            self.step_round_scalar(materialize, round);
        }
        self.unfinished_round = None;
        Ok(())
    }

    /// The unperturbed batched round: no crash/delay plans to consult
    /// per ant, and every agent chooses every round, so the `chose` mask
    /// is a constant `true` and is not materialized.
    ///
    /// The agent loop is chosen here, once per round: monomorphized on
    /// the concrete agent type when the colony is uniform, one variant
    /// dispatch per ant otherwise. Both are the one generic round body,
    /// [`run_batched_round`], over the same agent vector, so the phase
    /// structure cannot drift between them; the snapshot columns, role
    /// census, and live tally are maintained identically.
    ///
    /// Legality is still checked at the top of the round the action
    /// executes in (identical sandboxing semantics and counters), and
    /// the per-ant crash/delay semantics that forbid pre-choosing — a
    /// skipped ant must not advance its state machine — cannot occur
    /// here by definition.
    fn step_round_batched(&mut self, materialize: bool, round: u64) {
        let prechosen = std::mem::replace(&mut self.prechosen, true);
        let Self {
            env,
            colony,
            scratch,
            worker_scratch,
            live,
            pool,
            chunk_bounds,
            illegal_actions,
            uniform,
            ..
        } = self;
        let (agents, snapshots) = colony.engine_split();
        macro_rules! run {
            ($agent:ty) => {
                run_batched_round::<$agent>(
                    agents,
                    env,
                    snapshots,
                    scratch,
                    worker_scratch,
                    pool.as_mut(),
                    chunk_bounds,
                    illegal_actions,
                    round,
                    materialize,
                    prechosen,
                )
            };
        }
        match uniform {
            None => run!(AnyAgent),
            Some(UniformVariant::Simple) => run!(SimpleAnt),
            Some(UniformVariant::Optimal) => run!(OptimalAnt),
            Some(UniformVariant::Adaptive) => run!(AdaptiveAnt),
            Some(UniformVariant::Quality) => run!(QualityAnt),
            Some(UniformVariant::Spreader) => run!(SpreaderAnt),
        }
        // The round barrier: fold the per-chunk census/tally deltas in
        // chunk order, then export the recruitment pairs.
        for ws in worker_scratch.iter() {
            colony.apply_census_delta(&ws.census);
            live.apply_delta(&ws.tally);
        }
        env.export_pairs(&mut scratch.report);
    }

    /// The scalar path: one match-per-ant pass per phase, always serial
    /// (regardless of `round_threads`), built on the same chunk-view
    /// primitives — one full-range chunk per phase — and the same
    /// delivering outcome pass as the batched path.
    ///
    /// This path plays two roles:
    ///
    /// * **Perturbed rounds** always run here — the per-ant crash/delay
    ///   bookkeeping is not worth parallelizing.
    /// * **[`EngineKind::Scalar`]** routes unperturbed rounds here too
    ///   (the plans are empty, so every fault check falls through). That
    ///   makes this loop the *distribution-identity oracle* for the SoA
    ///   engine: the per-agent call sequence (`choose(r)` then
    ///   `observe(r)`), the per-ant RNG streams, the serial pairing fed
    ///   in ant order, and the sandboxing timing are all identical to
    ///   the batched path's, so equal seeds must produce bit-identical
    ///   runs. `tests/soa_equivalence.rs` enforces exactly that across
    ///   the registry catalog.
    fn step_round_scalar(&mut self, materialize: bool, round: u64) {
        let n = self.env.n();
        // If the previous round ran on the pre-chosen pipeline (the SoA
        // engine fuses `choose(round + 1)` into its agent pass), the
        // agents have *already* made this round's choices. The Agent
        // contract allows `choose(r)` to be called at most once per
        // round — a stateful implementation (a boxed `Custom` agent, or
        // any future draw that advances state) would diverge on a
        // second call, the mid-run `with_engine(Scalar)` switch bug
        // pinned by `mid_run_engine_switch_matches_pure_scalar` (the
        // built-in urn choose became repeat-safe with the keyed-draw
        // migration, but the contract has not). Consume the buffered
        // actions instead. Pre-chosen rounds are always
        // unperturbed (the batched path requires it), so the fault checks
        // below are vacuous in that case.
        let prechosen = std::mem::replace(&mut self.prechosen, false);
        let scratch = &mut self.scratch;
        scratch.actions.clear();
        scratch.ran.clear();
        scratch.ran.resize(n, false);
        scratch.chose.clear();
        scratch.chose.resize(n, false);
        for idx in 0..n {
            let ant = AntId::new(idx);
            let crashed = self.perturbations.crash.is_crashed(ant, round);
            if crashed && !self.crashed[idx] {
                // First round this ant is gone: freeze it out of the
                // live tally at its last refreshed state.
                self.crashed[idx] = true;
                let snapshot = self.colony.snapshot(idx);
                if snapshot.honest {
                    self.live.remove(&snapshot);
                }
            }
            let delayed = !crashed && self.perturbations.delay.is_delayed(ant, round);
            if crashed || delayed {
                let style = if crashed {
                    self.perturbations.crash.style()
                } else {
                    CrashStyle::InPlace
                };
                scratch.actions.push(noop_action(&self.env, ant, style));
                self.replaced_actions += 1;
                continue;
            }
            let action = if prechosen {
                scratch.next_actions[idx]
            } else {
                self.colony.choose(idx, round)
            };
            scratch.chose[idx] = true;
            if self.env.check_action(ant, &action).is_ok() {
                scratch.ran[idx] = true;
                scratch.actions.push(action);
            } else {
                self.illegal_actions += 1;
                scratch
                    .actions
                    .push(noop_action(&self.env, ant, CrashStyle::InPlace));
            }
        }

        // Every pushed action was either checked above or is a
        // location-preserving no-op, legal by construction. Resolve the
        // round over one full-range chunk.
        scratch.report.recruitment.calls.clear();
        {
            let ws = &mut self.worker_scratch[0];
            ws.counts.clear();
            ws.counts.resize(self.env.k() + 1, 0);
            let mut view = self.env.relocation_view();
            for (idx, action) in scratch.actions.iter().enumerate() {
                view.apply(
                    idx,
                    *action,
                    &mut ws.counts,
                    &mut scratch.report.recruitment.calls,
                );
            }
        }
        self.env
            .merge_counts(std::iter::once(self.worker_scratch[0].counts.as_slice()));
        self.env.pair_round(&scratch.report.recruitment.calls);

        // Outcome + observe + refresh, fused per ant. Refresh covers
        // every agent whose `choose` ran — observe or not, choosing
        // alone can advance a state machine — and folds the deltas into
        // the live tally.
        scratch.report.outcomes.clear();
        if materialize {
            scratch.report.outcomes.resize(
                n,
                Outcome::Go {
                    count: 0,
                    quality: None,
                },
            );
        }
        {
            let (mut chunk, ctx) = self.env.outcome_view();
            let mut cursor = 0usize;
            for (idx, &action) in scratch.actions.iter().enumerate() {
                let outcome = chunk.outcome(&ctx, idx, action, &mut cursor);
                if materialize {
                    scratch.report.outcomes[idx] = outcome;
                }
                if !scratch.chose[idx] {
                    continue;
                }
                if scratch.ran[idx] {
                    self.colony.observe(idx, round, &outcome);
                }
                let (old, new) = self.colony.refresh(idx);
                debug_assert!(
                    old == new || !self.crashed[idx],
                    "crashed agents never choose"
                );
                self.live.apply(&old, &new);
            }
        }
        self.env.export_pairs(&mut scratch.report);
    }

    /// Executes one synchronous round and returns the environment's
    /// report (outcomes + recruitment pairing) for instrumentation.
    ///
    /// This clones the report out of the engine's reusable buffers; hot
    /// loops should prefer [`run_to_convergence`](Self::run_to_convergence)
    /// / [`run_observed`](Self::run_observed), which allocate nothing per
    /// round, or [`step_in_place`](Self::step_in_place).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Poisoned`] once an earlier round has unwound
    /// part-way (a panicking agent or pool job caught by the caller);
    /// the simulation never steps a half-updated agent store.
    pub fn step(&mut self) -> Result<StepReport, SimError> {
        self.step_round(true)?;
        Ok(self.scratch.report.clone())
    }

    /// Executes one synchronous round and returns the report by
    /// reference — the zero-allocation equivalent of
    /// [`step`](Self::step).
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Self::step).
    pub fn step_in_place(&mut self) -> Result<&StepReport, SimError> {
        self.step_round(true)?;
        Ok(&self.scratch.report)
    }

    /// Runs until `rule` detects convergence or `max_rounds` rounds have
    /// executed (counted from the simulation's current round).
    ///
    /// Detectors read the snapshot columns and the live tally, which
    /// every round path maintains.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step`] errors.
    pub fn run_to_convergence(
        &mut self,
        rule: ConvergenceRule,
        max_rounds: u64,
    ) -> Result<RunOutcome, SimError> {
        let mut detector = Detector::new(rule);
        let start = self.env.round();
        let mut solved = None;
        while self.env.round() - start < max_rounds {
            self.step_round(false)?;
            if let Some(found) = detector.check(self) {
                solved = Some(found);
                break;
            }
        }
        Ok(RunOutcome {
            solved,
            rounds_run: self.env.round() - start,
            replaced_actions: self.replaced_actions,
            illegal_actions: self.illegal_actions,
        })
    }

    /// Like [`run_to_convergence`](Self::run_to_convergence), invoking
    /// `on_round` after every executed round (for metrics recording).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step`] errors.
    pub fn run_observed<F>(
        &mut self,
        rule: ConvergenceRule,
        max_rounds: u64,
        mut on_round: F,
    ) -> Result<RunOutcome, SimError>
    where
        F: FnMut(&Simulation, &StepReport),
    {
        let mut detector = Detector::new(rule);
        let start = self.env.round();
        let mut solved = None;
        while self.env.round() - start < max_rounds {
            self.step_round(true)?;
            let this = &*self;
            on_round(this, &this.scratch.report);
            if let Some(found) = detector.check(self) {
                solved = Some(found);
                break;
            }
        }
        Ok(RunOutcome {
            solved,
            rounds_run: self.env.round() - start,
            replaced_actions: self.replaced_actions,
            illegal_actions: self.illegal_actions,
        })
    }

    /// Returns `true` if `ant` has not crashed as of the current round.
    /// Delayed ants are still live; crashes are permanent.
    ///
    /// # Panics
    ///
    /// Panics if `ant` is out of range.
    #[must_use]
    pub fn is_live(&self, ant: AntId) -> bool {
        !self.perturbations.crash.is_crashed(ant, self.env.round())
    }

    /// Census of honest-agent roles, used by metrics and detectors.
    /// O(1): maintained incrementally by the engine.
    #[must_use]
    pub fn role_census(&self) -> RoleCensus {
        self.colony.census()
    }

    /// The live-honest tally the convergence detector reads.
    pub(crate) fn live_tally(&self) -> &LiveTally {
        &self.live
    }

    /// `true` if ant `idx` is honest and not yet crashed — the detector's
    /// membership predicate, answered from cached state.
    pub(crate) fn is_live_honest(&self, idx: usize) -> bool {
        !self.crashed[idx] && self.colony.snapshot_columns().honest(idx)
    }
}

/// The batched round body, generic over the agent type every slot
/// projects onto ([`Projected`]): phase 1 (choose if not pre-chosen,
/// validate/sandbox, relocate, tally), the serial pairing middle, and
/// phase 2 (outcome → observe → choose `round + 1`, snapshot refresh).
/// The caller folds the per-worker census/tally deltas afterwards.
///
/// `A` is a concrete agent type for a uniform colony, so the per-ant
/// loops are monomorphized on it and the per-ant variant dispatch
/// reduces to one predictable projection; `A = AnyAgent` dispatches per
/// ant for mixes. Either way the loops step the colony's own agent
/// vector in place.
///
/// The engine is memory-bound at scale — the dominant cost of a round
/// is streaming the agent vector — so a round makes exactly ONE pass over
/// the agents: round r's observe is fused with round r+1's choose
/// (agents are independent, and between rounds nothing else touches
/// them), and the pre-chosen actions are stashed in `next_actions` for
/// the next round. Only a round with nothing pre-chosen (the first, or
/// the first after a scalar round) chooses in phase 1.
///
/// Both per-ant phases run over the `bounds` chunks — inline when
/// serial, on the persistent pool otherwise — with per-worker deltas
/// merged in chunk order between the phases; only the Algorithm 1
/// pairing runs serially. See the module docs for why every thread
/// count is bit-identical.
#[allow(clippy::too_many_arguments)]
fn run_batched_round<A: Projected>(
    full_agents: &mut [AnyAgent],
    env: &mut Environment,
    full_snapshots: ColumnsMut<'_>,
    scratch: &mut RoundScratch,
    worker_scratch: &mut [WorkerScratch],
    mut pool: Option<&mut WorkerPool>,
    bounds: &[usize],
    illegal_actions: &mut u64,
    round: u64,
    materialize: bool,
    prechosen: bool,
) {
    let n = env.n();
    let k1 = env.k() + 1;
    let threads = bounds.len() - 1;

    std::mem::swap(&mut scratch.actions, &mut scratch.next_actions);
    // Every buffer is written slot-by-slot for every ant (phase 1 fills
    // `ran`, and `actions` when nothing is pre-chosen; phase 2 fills
    // `next_actions`), so at steady state they only need their length
    // established — refilling defaults every round would be redundant
    // full-colony write passes.
    for buffer in [&mut scratch.actions, &mut scratch.next_actions] {
        if buffer.len() != n {
            buffer.resize(n, Action::Search);
        }
    }
    if scratch.ran.len() != n {
        scratch.ran.resize(n, true);
    }

    // The agent vector, split once into the round's chunk bands: phase 1
    // reborrows them to choose, phase 2 consumes them.
    let mut bands: [&mut [AnyAgent]; MAX_ROUND_THREADS] = Default::default();
    let mut rest_agents = full_agents;
    for (part, band) in bands.iter_mut().take(threads).enumerate() {
        let len = bounds[part + 1] - bounds[part];
        let (head, tail) = rest_agents.split_at_mut(len);
        *band = head;
        rest_agents = tail;
    }

    // ── Phase 1 (chunked): choose (unless pre-chosen), validate +
    // sandbox, relocate, tally populations, collect recruit calls.
    {
        struct RelocPart<'a> {
            agents: &'a mut [AnyAgent],
            chunk: RelocationChunk<'a>,
            actions: &'a mut [Action],
            ran: &'a mut [bool],
            scratch: &'a mut WorkerScratch,
        }
        let slots: [Mutex<Option<RelocPart<'_>>>; MAX_ROUND_THREADS] =
            std::array::from_fn(|_| Mutex::new(None));
        let mut rest_chunk = Some(env.relocation_view());
        let mut rest_actions = scratch.actions.as_mut_slice();
        let mut rest_ran = scratch.ran.as_mut_slice();
        let mut scratch_iter = worker_scratch.iter_mut();
        let mut band_iter = bands.iter_mut();
        for (part, slot) in slots.iter().take(threads).enumerate() {
            let len = bounds[part + 1] - bounds[part];
            let chunk = if part + 1 == threads {
                rest_chunk.take().expect("chunk remainder")
            } else {
                let (head, tail) = rest_chunk
                    .take()
                    .expect("chunk remainder")
                    .split_at(bounds[part + 1]);
                rest_chunk = Some(tail);
                head
            };
            let (actions, tail) = std::mem::take(&mut rest_actions).split_at_mut(len);
            rest_actions = tail;
            let (ran, tail) = std::mem::take(&mut rest_ran).split_at_mut(len);
            rest_ran = tail;
            *slot.lock().expect("slot") = Some(RelocPart {
                agents: band_iter.next().expect("agent band"),
                chunk,
                actions,
                ran,
                scratch: scratch_iter.next().expect("worker scratch"),
            });
        }
        scatter(
            pool.as_deref_mut(),
            threads,
            &slots,
            |_, part: RelocPart<'_>| {
                let RelocPart {
                    agents,
                    mut chunk,
                    actions,
                    ran,
                    scratch,
                } = part;
                scratch.counts.clear();
                scratch.counts.resize(k1, 0);
                scratch.calls.clear();
                scratch.illegal = 0;
                let start = chunk.start();
                // Validate + sandbox first, so the relocation pass below
                // sees only legal actions and can batch its per-ant RNG
                // draws over the chunk's flat stream column.
                for (local, action) in actions.iter_mut().enumerate() {
                    if !prechosen {
                        *action = A::project(&mut agents[local]).choose(round);
                    }
                    let idx = start + local;
                    let legal = chunk.check_action(idx, action).is_ok();
                    ran[local] = legal;
                    if !legal {
                        scratch.illegal += 1;
                        *action = chunk.noop_in_place(idx);
                    }
                }
                chunk.apply_all(actions, &mut scratch.counts, &mut scratch.calls);
            },
        );
    }

    // ── Serial middle: merge the per-chunk tallies and calls (chunk
    // order reproduces ant order), then run Algorithm 1.
    for ws in worker_scratch.iter() {
        *illegal_actions += ws.illegal;
    }
    env.merge_counts(worker_scratch.iter().map(|ws| ws.counts.as_slice()));
    let calls = &mut scratch.report.recruitment.calls;
    calls.clear();
    for ws in worker_scratch.iter() {
        calls.extend_from_slice(&ws.calls);
    }
    env.pair_round(calls);

    // ── Phase 2 (chunked): the single agent pass — compute the
    // outcome, observe round `round`, choose round `round + 1`,
    // refresh the (cache-hot) snapshot — one `observe_choose` per
    // ant — and accumulate census/tally deltas per worker. In the
    // eliding mode each outcome lives only for the instant its agent
    // consumes it; materializing adds a copy into the report's
    // persistent buffer.
    scratch.report.outcomes.clear();
    if materialize {
        scratch.report.outcomes.resize(
            n,
            Outcome::Go {
                count: 0,
                quality: None,
            },
        );
    }
    {
        struct OutcomePart<'a> {
            chunk: OutcomeChunk<'a>,
            agents: &'a mut [AnyAgent],
            snapshots: ColumnsMut<'a>,
            next: &'a mut [Action],
            outcomes: Option<&'a mut [Outcome]>,
            scratch: &'a mut WorkerScratch,
            /// This chunk's first recruiter rank (call cursor start).
            cursor: usize,
        }
        let slots: [Mutex<Option<OutcomePart<'_>>>; MAX_ROUND_THREADS] =
            std::array::from_fn(|_| Mutex::new(None));
        let (full_chunk, ctx) = env.outcome_view();
        let mut rest_snapshots = Some(full_snapshots);
        let mut rest_chunk = Some(full_chunk);
        let mut rest_next = scratch.next_actions.as_mut_slice();
        let mut rest_outcomes = materialize.then_some(scratch.report.outcomes.as_mut_slice());
        let mut scratch_iter = worker_scratch.iter_mut();
        let mut cursor = 0usize;
        for (part, slot) in slots.iter().take(threads).enumerate() {
            let len = bounds[part + 1] - bounds[part];
            let chunk = if part + 1 == threads {
                rest_chunk.take().expect("chunk remainder")
            } else {
                let (head, tail) = rest_chunk
                    .take()
                    .expect("chunk remainder")
                    .split_at(bounds[part + 1]);
                rest_chunk = Some(tail);
                head
            };
            let snapshots = if part + 1 == threads {
                rest_snapshots.take().expect("columns remainder")
            } else {
                let (head, tail) = rest_snapshots
                    .take()
                    .expect("columns remainder")
                    .split_at_mut(len);
                rest_snapshots = Some(tail);
                head
            };
            let (next, tail) = std::mem::take(&mut rest_next).split_at_mut(len);
            rest_next = tail;
            let outcomes = rest_outcomes.take().map(|rest| {
                let (head, tail) = rest.split_at_mut(len);
                rest_outcomes = Some(tail);
                head
            });
            let ws = scratch_iter.next().expect("worker scratch");
            let part_cursor = cursor;
            cursor += ws.calls.len();
            *slot.lock().expect("slot") = Some(OutcomePart {
                chunk,
                agents: std::mem::take(&mut bands[part]),
                snapshots,
                next,
                outcomes,
                scratch: ws,
                cursor: part_cursor,
            });
        }
        let actions = scratch.actions.as_slice();
        let ran = scratch.ran.as_slice();
        scatter(pool, threads, &slots, |_, part: OutcomePart<'_>| {
            let OutcomePart {
                mut chunk,
                agents,
                mut snapshots,
                next,
                mut outcomes,
                scratch,
                mut cursor,
            } = part;
            scratch.census.clear();
            scratch.tally.clear();
            let start = chunk.start();
            for (local, (next, slot)) in next.iter_mut().zip(agents).enumerate() {
                let idx = start + local;
                // Every row drains its outcome, in order: the call
                // advances the chunk's recruit-call cursor.
                let outcome = chunk.outcome(&ctx, idx, actions[idx], &mut cursor);
                if let Some(out) = outcomes.as_deref_mut() {
                    out[local] = outcome;
                }
                let observed = ran[idx].then_some(&outcome);
                let (action, new) = A::project(slot).observe_choose(round, observed);
                *next = action;
                let old = snapshots.get(local);
                if new != old {
                    scratch.census.record(&old, &new);
                    scratch.tally.apply(&old, &new);
                    snapshots.set(local, new);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::{colony, Agent};
    use hh_model::{ColonyConfig, NestId, QualitySpec};

    fn env(n: usize, k: usize, seed: u64) -> Environment {
        Environment::new(&ColonyConfig::new(n, QualitySpec::all_good(k)).seed(seed)).unwrap()
    }

    #[test]
    fn rejects_mismatched_colony() {
        let err = Simulation::new(env(5, 2, 0), colony::simple(3, 0)).unwrap_err();
        assert_eq!(err, SimError::AgentCountMismatch { agents: 3, n: 5 });
    }

    #[test]
    fn steps_advance_rounds() {
        let mut sim = Simulation::new(env(8, 2, 1), colony::simple(8, 1)).unwrap();
        assert_eq!(sim.round(), 0);
        sim.step().unwrap();
        assert_eq!(sim.round(), 1);
        assert_eq!(sim.replaced_actions(), 0);
        assert_eq!(sim.illegal_actions(), 0);
    }

    #[test]
    fn step_in_place_matches_step() {
        let mut a = Simulation::new(env(16, 2, 11), colony::simple(16, 11)).unwrap();
        let mut b = Simulation::new(env(16, 2, 11), colony::simple(16, 11)).unwrap();
        for _ in 0..20 {
            let cloned = a.step().unwrap();
            let borrowed = b.step_in_place().unwrap();
            assert_eq!(&cloned, borrowed);
        }
    }

    #[test]
    fn converges_simple_colony() {
        let mut sim = Simulation::new(env(32, 2, 2), colony::simple(32, 2)).unwrap();
        let outcome = sim
            .run_to_convergence(ConvergenceRule::commitment(), 5_000)
            .unwrap();
        let solved = outcome.solved.expect("simple colony converges");
        assert!(solved.good);
        assert!(solved.round >= 1);
        assert!(outcome.rounds_run >= solved.round);
    }

    #[test]
    fn converges_optimal_colony_all_final() {
        let mut sim = Simulation::new(env(32, 3, 3), colony::optimal(32)).unwrap();
        let outcome = sim
            .run_to_convergence(ConvergenceRule::all_final(), 2_000)
            .unwrap();
        let solved = outcome.solved.expect("optimal colony finalizes");
        assert!(solved.good);
    }

    #[test]
    fn crashed_ants_are_skipped() {
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 16;
        let perturbations = Perturbations {
            crash: CrashPlan::fraction(n, 0.25, 1, CrashStyle::InPlace, 9),
            delay: DelayPlan::never(),
        };
        let mut sim =
            Simulation::with_perturbations(env(n, 2, 4), colony::simple(n, 4), Some(perturbations))
                .unwrap();
        for _ in 0..10 {
            sim.step().unwrap();
        }
        // 4 crashed ants × 10 rounds.
        assert_eq!(sim.replaced_actions(), 40);
    }

    #[test]
    fn delays_replace_probabilistically() {
        let n = 50;
        let perturbations = Perturbations {
            crash: CrashPlan::none(n),
            delay: DelayPlan::new(0.5, 7),
        };
        let mut sim =
            Simulation::with_perturbations(env(n, 2, 5), colony::simple(n, 5), Some(perturbations))
                .unwrap();
        for _ in 0..20 {
            sim.step().unwrap();
        }
        let replaced = sim.replaced_actions();
        assert!(
            (300..700).contains(&replaced),
            "≈50% of 1000 actions should be delayed, got {replaced}"
        );
    }

    #[test]
    fn illegal_agents_are_sandboxed() {
        struct Outlaw;
        impl Agent for Outlaw {
            fn choose(&mut self, _round: u64) -> hh_model::Action {
                // Never legal: nest 99 does not exist.
                hh_model::Action::Go(NestId::candidate(99))
            }
            fn observe(&mut self, _round: u64, _outcome: &hh_model::Outcome) {
                panic!("an outlaw's action never executes, so it never observes");
            }
            fn committed_nest(&self) -> Option<NestId> {
                None
            }
            fn label(&self) -> &'static str {
                "outlaw"
            }
        }
        let mut agents = colony::simple(4, 6);
        agents.replace(3, AnyAgent::custom(Outlaw));
        let mut sim = Simulation::new(env(4, 2, 6), agents).unwrap();
        for _ in 0..5 {
            sim.step().unwrap();
        }
        assert_eq!(sim.illegal_actions(), 5);
        // The honest ants were unaffected.
        assert_eq!(sim.round(), 5);
    }

    #[test]
    fn perturbations_none_is_none() {
        assert!(Perturbations::none(5).is_none());
        let p = Perturbations {
            crash: CrashPlan::none(5),
            delay: DelayPlan::new(0.1, 0),
        };
        assert!(!p.is_none());
    }

    #[test]
    fn role_census_counts() {
        let sim = Simulation::new(env(6, 2, 7), colony::simple(6, 7)).unwrap();
        let census = sim.role_census();
        assert_eq!(census.searching, 6);
        assert_eq!(census.total(), 6);
    }

    #[test]
    fn live_tally_tracks_commitments() {
        let mut sim = Simulation::new(env(12, 2, 8), colony::simple(12, 8)).unwrap();
        assert_eq!(sim.live_tally().total(), 12);
        assert_eq!(sim.live_tally().consensus(), None);
        let outcome = sim
            .run_to_convergence(ConvergenceRule::commitment(), 5_000)
            .unwrap();
        let solved = outcome.solved.expect("converges");
        // At detection, the incremental tally agrees with a fresh scan.
        assert_eq!(sim.live_tally().consensus(), Some(solved.nest));
        assert_eq!(
            hh_core::problem::honest_consensus(sim.agents()),
            Some(solved.nest)
        );
    }

    #[test]
    fn crashed_agents_leave_the_live_tally() {
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 16;
        let perturbations = Perturbations {
            crash: CrashPlan::fraction(n, 0.25, 3, CrashStyle::InPlace, 1),
            delay: DelayPlan::never(),
        };
        let mut sim = Simulation::with_perturbations(
            env(n, 2, 12),
            colony::simple(n, 12),
            Some(perturbations),
        )
        .unwrap();
        for _ in 0..5 {
            sim.step().unwrap();
        }
        assert_eq!(sim.live_tally().total(), 12, "4 of 16 ants crashed");
        let live_honest = (0..n).filter(|&idx| sim.is_live_honest(idx)).count();
        assert_eq!(live_honest, 12);
    }

    #[test]
    fn round_threads_are_bit_identical_to_serial() {
        // Odd colony size so chunk boundaries are uneven; run the whole
        // convergence loop and compare everything observable.
        let n = 257;
        let run = |threads: usize| {
            let mut sim = Simulation::new(env(n, 3, 21), colony::simple(n, 21))
                .unwrap()
                .with_round_threads(threads);
            let outcome = sim
                .run_to_convergence(ConvergenceRule::commitment(), 20_000)
                .unwrap();
            let counts = sim.env().counts().to_vec();
            let locations = sim.env().locations().to_vec();
            let census = sim.role_census();
            (outcome, counts, locations, census)
        };
        let serial = run(1);
        for threads in [2usize, 3, 5, 8, 16] {
            assert_eq!(serial, run(threads), "{threads} round threads diverged");
        }
    }

    #[test]
    fn round_threads_match_stepwise_reports() {
        let n = 64;
        let mut serial = Simulation::new(env(n, 2, 33), colony::simple(n, 33)).unwrap();
        let mut parallel = Simulation::new(env(n, 2, 33), colony::simple(n, 33))
            .unwrap()
            .with_round_threads(4);
        for _ in 0..50 {
            assert_eq!(serial.step().unwrap(), parallel.step().unwrap());
        }
        assert_eq!(serial.illegal_actions(), parallel.illegal_actions());
    }

    #[test]
    fn round_threads_clamp() {
        let sim = Simulation::new(env(8, 2, 1), colony::simple(8, 1))
            .unwrap()
            .with_round_threads(0);
        assert_eq!(sim.round_threads(), 1);
        let sim = Simulation::new(env(8, 2, 1), colony::simple(8, 1))
            .unwrap()
            .with_round_threads(10_000);
        assert_eq!(sim.round_threads(), 16);
    }

    #[test]
    fn more_threads_than_ants_still_agree() {
        let n = 5;
        let run = |threads: usize| {
            let mut sim = Simulation::new(env(n, 2, 9), colony::simple(n, 9))
                .unwrap()
                .with_round_threads(threads);
            sim.run_to_convergence(ConvergenceRule::commitment(), 5_000)
                .unwrap()
        };
        assert_eq!(run(1), run(16));
    }

    #[test]
    fn run_observed_sees_every_round() {
        let mut sim = Simulation::new(env(16, 2, 8), colony::simple(16, 8)).unwrap();
        let mut observed = 0u64;
        let outcome = sim
            .run_observed(ConvergenceRule::commitment(), 2_000, |_, _| observed += 1)
            .unwrap();
        assert_eq!(observed, outcome.rounds_run);
    }

    #[test]
    fn run_observed_matches_run_to_convergence() {
        // The instrumented and convergence paths are one delivering code
        // path; materializing the report for the observer must not change
        // the execution. Check unperturbed, perturbed, and parallel.
        use hh_model::faults::{CrashPlan, CrashStyle};
        let build = |threads: usize, perturbed: bool| {
            let n = 48;
            let perturbations = perturbed.then(|| Perturbations {
                crash: CrashPlan::fraction(n, 0.2, 4, CrashStyle::InPlace, 3),
                delay: DelayPlan::new(0.05, 3),
            });
            Simulation::with_perturbations(env(n, 3, 27), colony::simple(n, 27), perturbations)
                .unwrap()
                .with_round_threads(threads)
        };
        for (threads, perturbed) in [(1, false), (4, false), (1, true)] {
            let rule = ConvergenceRule::stable_commitment(4);
            let quiet = build(threads, perturbed)
                .run_to_convergence(rule, 10_000)
                .unwrap();
            let mut rounds_with_outcomes = 0u64;
            let observed = build(threads, perturbed)
                .run_observed(rule, 10_000, |sim, report| {
                    assert_eq!(report.outcomes.len(), sim.env().n());
                    rounds_with_outcomes += 1;
                })
                .unwrap();
            assert_eq!(
                quiet, observed,
                "threads={threads} perturbed={perturbed}: instrumented run diverged"
            );
            assert_eq!(rounds_with_outcomes, observed.rounds_run);
        }
    }

    #[test]
    fn builder_order_never_drops_threads() {
        // The pool gate depends on three builder-set fields; every call
        // order must land on the same configuration, worker pool
        // included. Before `rebuild_pool` centralized the gate, a
        // `with_engine(Scalar)` → `with_engine(Soa)` round trip came
        // back with `round_threads` remembered but no pool.
        let pool_workers = |sim: &Simulation| sim.pool.as_ref().map_or(0, |pool| pool.workers());
        let fresh = || Simulation::new(env(32, 2, 40), colony::simple(32, 40)).unwrap();

        let direct = fresh().with_round_threads(8);
        assert_eq!(direct.round_threads(), 8);
        assert_eq!(pool_workers(&direct), 7, "8 threads = main + 7 workers");

        let round_trip = fresh()
            .with_round_threads(8)
            .with_engine(EngineKind::Scalar)
            .with_engine(EngineKind::Soa);
        assert_eq!(round_trip.round_threads(), 8);
        assert_eq!(
            pool_workers(&round_trip),
            7,
            "engine round trip dropped the pool"
        );

        let threads_last = fresh()
            .with_engine(EngineKind::Scalar)
            .with_engine(EngineKind::Soa)
            .with_round_threads(8);
        assert_eq!(pool_workers(&threads_last), 7);

        let bounds_between = fresh()
            .with_round_threads(8)
            .with_engine(EngineKind::Scalar)
            .with_chunk_bounds(vec![0, 3, 32])
            .with_engine(EngineKind::Soa);
        assert_eq!(
            pool_workers(&bounds_between),
            1,
            "2 chunks = main + 1 worker"
        );

        // The scalar engine never holds a pool, whatever the order.
        let scalar = fresh()
            .with_round_threads(8)
            .with_engine(EngineKind::Scalar);
        assert_eq!(pool_workers(&scalar), 0);
        assert_eq!(
            scalar.round_threads(),
            8,
            "the setting itself is remembered"
        );
    }

    #[test]
    fn mid_run_engine_switch_matches_pure_scalar() {
        // The batched path leaves the colony pre-chosen for the next
        // round (fused `choose(round + 1)`). A mid-run switch to the
        // scalar engine must consume those buffered actions instead of
        // calling `choose` again — the Agent contract allows one call
        // per round, and a stateful implementation would diverge on a
        // second one. (The built-in urn choose became repeat-safe with
        // the keyed-draw migration; this test pins the consume-buffer
        // path itself so the contract stays honored for agents that
        // are not.)
        // The uniform colony runs the per-algorithm loop, so the switch
        // also crosses from that loop to the scalar oracle and back;
        // both step the same agent vector, with nothing to hand over.
        // Switch after an odd number of rounds so the buffered choices
        // are for an even (recruitment) round: that is where urn ants
        // draw their recruit coin in `choose`.
        let n = 64;
        let mut switched = Simulation::new(env(n, 3, 52), colony::simple(n, 52)).unwrap();
        assert!(switched.uses_agent_columns());
        let mut scalar = Simulation::new(env(n, 3, 52), colony::simple(n, 52))
            .unwrap()
            .with_engine(EngineKind::Scalar);
        for _ in 0..9 {
            switched.step().unwrap();
            scalar.step().unwrap();
        }
        switched = switched.with_engine(EngineKind::Scalar);
        for round in 9..30 {
            assert_eq!(
                switched.step().unwrap(),
                scalar.step().unwrap(),
                "diverged at round {round} after the engine switch"
            );
        }
        assert_eq!(switched.role_census(), scalar.role_census());
        // And back: the scalar path leaves no pre-chosen actions, so the
        // batched path chooses in phase 1.
        switched.step().unwrap();
        scalar.step().unwrap();
        switched = switched.with_engine(EngineKind::Soa);
        assert!(switched.uses_agent_columns());
        let mut soa_oracle = Simulation::new(env(n, 3, 52), colony::simple(n, 52)).unwrap();
        for _ in 0..31 {
            soa_oracle.step().unwrap();
        }
        for round in 31..41 {
            assert_eq!(
                switched.step().unwrap(),
                soa_oracle.step().unwrap(),
                "diverged at round {round} after switching back to SoA"
            );
        }
    }

    #[test]
    fn perturbed_round_threads_is_bit_identical_to_serial() {
        // Perturbed simulations ignore `round_threads` at execution
        // time: every round runs on the serial scalar path, so the
        // setting must be observably inert (the documented contract on
        // `with_round_threads` and `Scenario::round_threads`).
        use hh_model::faults::{CrashPlan, CrashStyle};
        let n = 96;
        let build = |threads: usize| {
            let perturbations = Perturbations {
                crash: CrashPlan::fraction(n, 0.2, 5, CrashStyle::InPlace, 13),
                delay: DelayPlan::new(0.1, 13),
            };
            Simulation::with_perturbations(
                env(n, 3, 61),
                colony::simple(n, 61),
                Some(perturbations),
            )
            .unwrap()
            .with_round_threads(threads)
        };
        let mut serial = build(1);
        let mut threaded = build(8);
        assert!(threaded.pool.is_none(), "perturbed runs never spawn a pool");
        for round in 0..40 {
            assert_eq!(
                serial.step().unwrap(),
                threaded.step().unwrap(),
                "perturbed round {round} diverged under round_threads=8"
            );
        }
        let rule = ConvergenceRule::stable_commitment(4);
        assert_eq!(
            serial.run_to_convergence(rule, 5_000).unwrap(),
            threaded.run_to_convergence(rule, 5_000).unwrap()
        );
    }

    #[test]
    fn agent_columns_engage_exactly_for_uniform_unperturbed_soa() {
        // Uniform SimpleAnt colony, default (SoA) engine: batched.
        let sim = Simulation::new(env(32, 2, 70), colony::simple(32, 70)).unwrap();
        assert!(sim.uses_agent_columns());
        // Scalar oracle: never batched.
        assert!(!sim.with_engine(EngineKind::Scalar).uses_agent_columns());
        // Uniform optimal colony: dense rows, batched.
        let sim = Simulation::new(env(32, 3, 70), colony::optimal(32)).unwrap();
        assert!(sim.uses_agent_columns());
        // Heterogeneous colony (two algorithms): never batched.
        let mut mixed = colony::simple(32, 70);
        mixed.replace(0, hh_core::OptimalAnt::new());
        let sim = Simulation::new(env(32, 2, 70), mixed).unwrap();
        assert!(!sim.uses_agent_columns());
        // Perturbed runs stay on the per-round engine.
        use hh_model::faults::{CrashPlan, CrashStyle};
        let perturbations = Perturbations {
            crash: CrashPlan::fraction(32, 0.1, 2, CrashStyle::InPlace, 70),
            delay: DelayPlan::never(),
        };
        let sim = Simulation::with_perturbations(
            env(32, 2, 70),
            colony::simple(32, 70),
            Some(perturbations),
        )
        .unwrap();
        assert!(!sim.uses_agent_columns());
    }

    #[test]
    fn uniform_runs_interleave_with_stepping_bit_identically() {
        // Convergence runs interleaved with single steps and agent reads
        // all run the per-algorithm loop over the one agent vector, and
        // must match an uninterrupted scalar-engine twin: every read sees
        // the agent state of the last completed round exactly.
        let n = 128;
        let rule = ConvergenceRule::stable_commitment(2);
        let mut batched = Simulation::new(env(n, 3, 83), colony::simple(n, 83)).unwrap();
        let mut oracle = Simulation::new(env(n, 3, 83), colony::simple(n, 83))
            .unwrap()
            .with_engine(EngineKind::Scalar);
        assert!(batched.uses_agent_columns());
        for _ in 0..4 {
            let a = batched.run_to_convergence(rule, 25).unwrap();
            let b = oracle.run_to_convergence(rule, 25).unwrap();
            assert_eq!(a, b);
            assert_eq!(batched.step().unwrap(), oracle.step().unwrap());
            let read: Vec<_> = batched.agents().iter().map(AgentSnapshot::of).collect();
            let expected: Vec<_> = oracle.agents().iter().map(AgentSnapshot::of).collect();
            assert_eq!(read, expected);
        }
        assert!(batched.uses_agent_columns());
        assert_eq!(batched.role_census(), oracle.role_census());
        assert_eq!(batched.env().counts(), oracle.env().counts());
        assert_eq!(batched.env().locations(), oracle.env().locations());
    }

    #[test]
    fn agent_vector_is_current_after_every_batched_round() {
        // Batched rounds step the colony's own agent vector in place, so
        // `agents()` (a plain `&self` read) agrees with the snapshot
        // columns the round refreshed — on every round, chunked.
        let n = 96;
        let mut sim = Simulation::new(env(n, 3, 77), colony::simple(n, 77))
            .unwrap()
            .with_round_threads(2);
        assert!(sim.uses_agent_columns());
        let mut rounds = 0u64;
        let outcome = sim
            .run_observed(ConvergenceRule::stable_commitment(2), 5_000, |sim, _| {
                let read: Vec<_> = sim.agents().iter().map(AgentSnapshot::of).collect();
                let cached: Vec<_> = sim.iter_snapshots().collect();
                assert_eq!(
                    read,
                    cached,
                    "agent vector stale after round {}",
                    sim.round()
                );
                rounds += 1;
            })
            .unwrap();
        assert!(outcome.solved.is_some());
        assert_eq!(rounds, outcome.rounds_run);
    }

    #[test]
    fn uniform_classification_matches_the_contract() {
        use hh_core::{
            AdaptiveAnt, BadNestRecruiter, IdlerAnt, QualityAnt, SpreadStrategy, SpreaderAnt,
            UniformVariant, UrnOptions,
        };
        let n = 12;
        let uniform = |agents: Colony| {
            let variant = UniformVariant::of(&agents);
            let sim = Simulation::new(env(n, 2, 71), agents).unwrap();
            assert_eq!(sim.uses_agent_columns(), variant.is_some());
            variant
        };

        // Uniform colonies of each of the five batched variants; per-ant
        // parameters may differ, since every slot carries its own.
        assert_eq!(uniform(colony::simple(n, 1)), Some(UniformVariant::Simple));
        assert_eq!(uniform(colony::optimal(n)), Some(UniformVariant::Optimal));
        let adaptive: Colony = (0..n)
            .map(|i| AnyAgent::from(AdaptiveAnt::new(n, i as u64)))
            .collect::<Vec<_>>()
            .into();
        assert_eq!(uniform(adaptive), Some(UniformVariant::Adaptive));
        let quality: Colony = (0..n)
            .map(|i| AnyAgent::from(QualityAnt::new(n, i as u64, 2.0)))
            .collect::<Vec<_>>()
            .into();
        assert_eq!(uniform(quality), Some(UniformVariant::Quality));
        let spreaders: Colony = (0..n)
            .map(|i| AnyAgent::from(SpreaderAnt::new(SpreadStrategy::WaitAtHome, i as u64)))
            .collect::<Vec<_>>()
            .into();
        assert_eq!(uniform(spreaders), Some(UniformVariant::Spreader));

        // Idler mixes, `Custom` boxes, Byzantine and heterogeneous mixes
        // dispatch per ant.
        let mut idlers = colony::simple(n, 2);
        idlers.replace(2, IdlerAnt::new());
        assert_eq!(uniform(idlers), None);
        let mut custom = colony::simple(n, 3);
        custom.replace(0, AnyAgent::custom(SimpleAnt::new(n, 100)));
        assert_eq!(uniform(custom), None);
        let mut byzantine = colony::simple(n, 4);
        byzantine.replace(5, BadNestRecruiter::new());
        assert_eq!(uniform(byzantine), None);
        let mut mixed = colony::simple(n, 5);
        mixed.replace(0, AdaptiveAnt::new(n, 0));
        assert_eq!(uniform(mixed), None);

        // Paper and hardened `SimpleAnt` options now mix in one uniform
        // colony, bit-identically to the scalar oracle at every thread
        // count.
        let n = 64;
        let options_mix = || {
            let mut agents = colony::simple(n, 6);
            for idx in (0..n).step_by(3) {
                agents.replace(
                    idx,
                    SimpleAnt::with_options(n, 600 + idx as u64, UrnOptions::hardened()),
                );
            }
            Simulation::new(env(n, 3, 6), agents).unwrap()
        };
        let rule = ConvergenceRule::stable_commitment(2);
        let mut oracle = options_mix().with_engine(EngineKind::Scalar);
        let expected = oracle.run_to_convergence(rule, 10_000).unwrap();
        assert!(expected.solved.is_some());
        for threads in [1usize, 2, 8] {
            let mut sim = options_mix().with_round_threads(threads);
            assert!(sim.uses_agent_columns(), "an options mix is uniform");
            assert_eq!(
                sim.run_to_convergence(rule, 10_000).unwrap(),
                expected,
                "options mix diverged at {threads} round threads"
            );
            assert_eq!(sim.role_census(), oracle.role_census());
            assert_eq!(sim.env().locations(), oracle.env().locations());
        }
    }

    #[test]
    fn an_unwound_round_poisons_the_simulation() {
        // A `Custom` agent that panics once, in `observe` at round 3,
        // on the pool's worker thread (ant 47 sits in the second chunk).
        // The pool re-raises the panic on the caller; once the caller
        // catches it, the half-updated simulation must refuse to step.
        struct Tripwire(hh_core::SimpleAnt);
        impl Agent for Tripwire {
            fn choose(&mut self, round: u64) -> hh_model::Action {
                self.0.choose(round)
            }
            fn observe(&mut self, round: u64, outcome: &hh_model::Outcome) {
                assert_ne!(round, 3, "tripwire");
                self.0.observe(round, outcome);
            }
            fn committed_nest(&self) -> Option<NestId> {
                self.0.committed_nest()
            }
            fn label(&self) -> &'static str {
                "tripwire"
            }
        }
        let n = 48;
        let mut agents = colony::simple(n, 90);
        agents.replace(
            n - 1,
            AnyAgent::custom(Tripwire(hh_core::SimpleAnt::new(n, 90))),
        );
        let mut sim = Simulation::new(env(n, 2, 90), agents)
            .unwrap()
            .with_round_threads(2);
        assert!(
            !sim.uses_agent_columns(),
            "custom agents step the agent vector"
        );
        sim.step().unwrap();
        sim.step().unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()));
        assert!(unwound.is_err(), "the tripwire panic reaches the caller");
        assert_eq!(sim.step(), Err(SimError::Poisoned { round: 3 }));
        assert_eq!(
            sim.run_to_convergence(ConvergenceRule::commitment(), 10)
                .unwrap_err(),
            SimError::Poisoned { round: 3 }
        );
    }
}
