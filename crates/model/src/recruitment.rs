//! The recruitment pairing process — the paper's "Algorithm 1".
//!
//! In every round, all ants that called `recruit(b, i)` are located at the
//! home nest and participate in a centralized pairing run by the
//! environment. The paper stresses that this is "not a distributed
//! algorithm executed by the ants, but just a modeling tool": active
//! recruiters (`b = 1`) pick uniformly random partners, with a uniformly
//! random permutation `P` breaking ties so that no ant is in more than one
//! recruiter/recruited pair.
//!
//! Faithfully to Algorithm 1:
//!
//! * processing follows a uniform random permutation of the participants;
//! * an active ant only attempts to recruit if it has not itself already
//!   been recruited by an earlier ant in the permutation;
//! * the chosen partner is drawn uniformly from *all* participants —
//!   including the recruiter itself, so self-pairs are possible (Lemma 3.1
//!   relies on forced self-recruitment when the home nest holds one ant);
//! * a chosen partner is only matched if it has neither recruited nor been
//!   recruited already.
//!
//! The kernel keeps **one state word per participant** (free, succeeded,
//! or its recruiter's index; see [`Pairing`]) and runs the greedy loop
//! without data-dependent branches, yet consumes the stream exactly as
//! the line-by-line algorithm does: the shuffle of the active ants, then
//! one draw per active ant that is still free at its turn. An ant
//! recruited before its turn consumes **no** draw, so the matching, the
//! assigned nests and the RNG end state are a pure function of the
//! calls and the incoming stream state.
//!
//! The pairing is exposed publicly so that Lemma 2.1 ("an active recruiter
//! succeeds with probability ≥ 1/16") can be validated by direct
//! Monte-Carlo simulation — see experiment F2.
//!
//! # Examples
//!
//! ```
//! use hh_model::recruitment::{pair_ants, RecruitCall};
//! use hh_model::{AntId, NestId};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let calls = vec![
//!     RecruitCall::new(AntId::new(0), true, NestId::candidate(1)),
//!     RecruitCall::new(AntId::new(1), false, NestId::candidate(2)),
//! ];
//! let mut rng = SmallRng::seed_from_u64(7);
//! let pairing = pair_ants(&calls, &mut rng);
//! // Every participant receives a nest id: either its own input or its
//! // recruiter's input.
//! for idx in 0..calls.len() {
//!     let nest = pairing.assigned_nest(idx);
//!     assert!(nest == calls[idx].nest || nest == calls[0].nest);
//! }
//! ```

use rand::seq::SliceRandom;
use rand::Rng;

use crate::ids::{AntId, NestId};

/// One ant's `recruit(b, i)` call: the participant record handed to the
/// pairing process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecruitCall {
    /// The calling ant.
    pub ant: AntId,
    /// The call's `b` argument: `true` for `recruit(1, ·)`.
    pub active: bool,
    /// The call's nest argument `i`.
    pub nest: NestId,
}

impl RecruitCall {
    /// Creates a participant record.
    #[must_use]
    pub const fn new(ant: AntId, active: bool, nest: NestId) -> Self {
        Self { ant, active, nest }
    }
}

/// The result of one round's recruitment pairing.
///
/// Indices throughout refer to positions in the `calls` slice passed to
/// [`pair_ants`], not to ant ids; use [`Pairing::pairs`] for an id-level
/// view.
///
/// The matching is held as **one state word per participant**: the
/// participant is free, has succeeded as a recruiter (`(x, ·) ∈ M`), or
/// holds the index of its recruiter (`(r, x) ∈ M`; its own index for a
/// self-pair, which is both). Algorithm 1's line-3 and line-5 checks
/// read this one array, and every accessor below is derived from it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pairing {
    /// [`FREE`], [`SUCCEEDED`], or the recruiter's call index.
    state: Vec<u32>,
    /// The nest id each participant's call returns.
    assigned: Vec<NestId>,
    /// Matched pairs `(recruiter, recruited)` in match order, as ant ids.
    pairs: Vec<(AntId, AntId)>,
    /// The same pairs as call indices, for consumers that need to index
    /// back into the call slice without an ant-id lookup.
    matched: Vec<(u32, u32)>,
}

/// State word of a participant that has neither recruited nor been
/// recruited.
const FREE: u32 = u32::MAX;
/// State word of a participant that recruited a *different* participant.
/// Every word below it is a recruiter's call index.
const SUCCEEDED: u32 = u32::MAX - 1;

impl Pairing {
    /// Returns the number of participants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assigned.len()
    }

    /// Returns `true` if no ants participated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }

    /// Returns the nest id participant `idx`'s call returns: the
    /// recruiter's input if recruited, the participant's own input
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn assigned_nest(&self, idx: usize) -> NestId {
        self.assigned[idx]
    }

    /// Returns the index of the participant that recruited `idx`, if any.
    /// A self-pair reports the participant's own index.
    #[must_use]
    pub fn recruited_by(&self, idx: usize) -> Option<usize> {
        let word = self.state[idx];
        (word < SUCCEEDED).then_some(word as usize)
    }

    /// Returns `true` iff participant `idx` recruited successfully, i.e.
    /// `(idx, ·) ∈ M` — the event of Lemma 2.1. Self-pairs count, as they
    /// do in the paper.
    #[must_use]
    pub fn succeeded(&self, idx: usize) -> bool {
        let word = self.state[idx];
        word == SUCCEEDED || word as usize == idx
    }

    /// Returns `true` iff participant `idx` was recruited by a *different*
    /// participant (informative recruitment: the returned nest id is the
    /// recruiter's, not the participant's own).
    #[must_use]
    pub fn was_recruited_by_other(&self, idx: usize) -> bool {
        let word = self.state[idx];
        word < SUCCEEDED && word as usize != idx
    }

    /// Returns the matched pairs `(recruiter, recruited)` as ant ids, in
    /// match order. Self-pairs appear as `(a, a)`.
    #[must_use]
    pub fn pairs(&self) -> &[(AntId, AntId)] {
        &self.pairs
    }

    /// Returns the matched pairs `(recruiter, recruited)` as **call
    /// indices**, in match order — the zero-lookup companion of
    /// [`pairs`](Self::pairs) for consumers that hold the call slice.
    #[must_use]
    pub fn matched_indices(&self) -> &[(u32, u32)] {
        &self.matched
    }

    /// Returns the number of pairs in the matching `M`.
    #[must_use]
    pub fn matched_count(&self) -> usize {
        self.matched.len()
    }
}

/// Runs the paper's Algorithm 1 over one round's `recruit` calls.
///
/// Returns the matching and, for each participant, the nest id its call
/// returns. The function is deterministic given `rng`'s state.
#[must_use]
pub fn pair_ants<R: Rng + Clone>(calls: &[RecruitCall], rng: &mut R) -> Pairing {
    let mut pairing = Pairing::default();
    let mut perm = Vec::new();
    pair_ants_into(calls, rng, &mut pairing, &mut perm);
    pairing
}

/// [`pair_ants`] into caller-owned buffers: `pairing` and the permutation
/// scratch `perm` are cleared and refilled, so a caller that runs the
/// pairing every round (the executor) allocates nothing after warm-up.
///
/// Draws exactly the same random values in the same order as
/// [`pair_ants`], so the two are interchangeable mid-stream.
///
/// The greedy loop has no data-dependent branch: with recruiters in
/// random order, whether the next one is still free and whether its
/// target is would mispredict on almost every step. Both outcomes are
/// computed as flags and applied as selects. The line-4 draw is made on
/// a clone of `rng` and committed only when the recruiter is free, so
/// an ant recruited before its turn consumes **no** draw — the stream
/// is the one the line-by-line algorithm consumes.
pub fn pair_ants_into<R: Rng + Clone>(
    calls: &[RecruitCall],
    rng: &mut R,
    pairing: &mut Pairing,
    perm: &mut Vec<u32>,
) {
    let m = calls.len();
    assert!(m < SUCCEEDED as usize, "too many recruit participants");
    let state = &mut pairing.state;
    state.clear();
    state.resize(m, FREE);

    // Line 2: process ants in a uniform random permutation P. Passive
    // ants never attempt to recruit (line 3) and their positions in P
    // consume no randomness, so the processing order of the *active*
    // subset — a uniform permutation of that subset — determines the
    // matching exactly as a full-colony permutation would. Shuffling only
    // the actives is therefore the identical stochastic process, at a
    // fraction of the cost when most participants wait passively. Every
    // index is stored; only an active one advances the length.
    perm.clear();
    perm.resize(m, 0);
    let mut actives = 0;
    for (idx, call) in calls.iter().enumerate() {
        perm[actives] = idx as u32;
        actives += usize::from(call.active);
    }
    perm.truncate(actives);
    perm.shuffle(rng);

    // At most one pair per active ant: every step writes its candidate
    // pair, and only a match advances the length.
    let matched = &mut pairing.matched;
    matched.clear();
    matched.resize(actives, (0, 0));
    let mut len = 0;
    let bound = u128::from(m as u64);
    // The stream lives in a local for the loop, so committing a draw
    // replaces registers rather than storing through `rng`.
    let mut stream = R::clone(rng);
    for &idx in perm.iter() {
        // Line 3: an active ant that has already been recruited by an
        // earlier ant in P does not attempt to recruit.
        let own = state[idx as usize];
        let free = own == FREE;
        // Line 4: choose a uniformly random participant — possibly idx
        // itself. Multiply-shift sampling: divisionless, with residual
        // bias < 2^-32 (as in the shuffle).
        let mut probe = stream.clone();
        let target = ((u128::from(probe.next_u64()) * bound) >> 64) as usize;
        // Commit the draw only for a free recruiter. Indexing the pair
        // keeps this a data select; written as an `if`, it compiles to
        // a branch that mispredicts on a large share of the steps.
        stream = [stream, probe][usize::from(free)].clone();
        // Line 5: the target must have neither recruited nor been
        // recruited.
        let theirs = state[target];
        let ok = free & (theirs == FREE);
        // Line 6: M := M ∪ (idx, target). The recruiter's word is
        // written first, so a self-pair ends holding its own index.
        state[idx as usize] = if ok { SUCCEEDED } else { own };
        state[target] = if ok { idx } else { theirs };
        matched[len] = (idx, target as u32);
        len += usize::from(ok);
    }
    matched.truncate(len);
    *rng = stream;

    pairing.pairs.clear();
    pairing
        .pairs
        .extend(matched.iter().map(|&(recruiter, recruited)| {
            (calls[recruiter as usize].ant, calls[recruited as usize].ant)
        }));

    // Lines 7–12: each recruited ant receives its recruiter's nest input;
    // everyone else receives its own input. The recruited ants are
    // exactly the second members of the matched pairs.
    pairing.assigned.clear();
    pairing.assigned.extend(calls.iter().map(|call| call.nest));
    for &(recruiter, recruited) in matched.iter() {
        pairing.assigned[recruited as usize] = calls[recruiter as usize].nest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn call(i: usize, active: bool, nest: usize) -> RecruitCall {
        RecruitCall::new(AntId::new(i), active, NestId::candidate(nest))
    }

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    /// Algorithm 1 line by line, with the two bookkeeping arrays and the
    /// data-dependent `continue`s the kernel replaced: the oracle the
    /// branch-free kernel is held to, draw for draw.
    fn reference_pair_ants(calls: &[RecruitCall], rng: &mut SmallRng) -> Pairing {
        let m = calls.len();
        let mut recruited_by = vec![FREE; m];
        let mut succeeded = vec![false; m];
        let mut perm: Vec<u32> = (0..m as u32)
            .filter(|&idx| calls[idx as usize].active)
            .collect();
        perm.shuffle(rng);
        let bound = u128::from(m as u64);
        let mut matched = Vec::new();
        for &idx in &perm {
            let idx = idx as usize;
            if recruited_by[idx] != FREE {
                continue;
            }
            let target = ((u128::from(rng.next_u64()) * bound) >> 64) as usize;
            if succeeded[target] || recruited_by[target] != FREE {
                continue;
            }
            succeeded[idx] = true;
            recruited_by[target] = idx as u32;
            matched.push((idx as u32, target as u32));
        }
        let state = (0..m)
            .map(|idx| match (recruited_by[idx], succeeded[idx]) {
                (FREE, false) => FREE,
                (FREE, true) => SUCCEEDED,
                (recruiter, _) => recruiter,
            })
            .collect();
        let assigned = (0..m)
            .map(|idx| match recruited_by[idx] {
                FREE => calls[idx].nest,
                recruiter => calls[recruiter as usize].nest,
            })
            .collect();
        let pairs = matched
            .iter()
            .map(|&(r, x)| (calls[r as usize].ant, calls[x as usize].ant))
            .collect();
        Pairing {
            state,
            assigned,
            pairs,
            matched,
        }
    }

    /// The branch-free kernel reproduces the line-by-line algorithm
    /// exactly — matching, assigned nests and the RNG end state — fresh
    /// and into reused buffers. The all-active and high-fraction sets
    /// recruit many actives before their turn, so a kernel that spent a
    /// draw on such an ant would desynchronize the stream here.
    #[test]
    fn branch_free_kernel_matches_reference_algorithm_1() {
        let mut pairing = Pairing::default();
        let mut perm = Vec::new();
        let mut recruited_actives = 0;
        let mut check = |calls: &[RecruitCall], seed: u64| {
            let mut expected_rng = rng(seed);
            let expected = reference_pair_ants(calls, &mut expected_rng);
            let mut fresh_rng = rng(seed);
            let fresh = pair_ants(calls, &mut fresh_rng);
            let mut reused_rng = rng(seed);
            pair_ants_into(calls, &mut reused_rng, &mut pairing, &mut perm);
            let m = calls.len();
            assert_eq!(fresh, expected, "m = {m}, seed {seed}: pairing diverged");
            assert_eq!(pairing, expected, "m = {m}, seed {seed}: reuse diverged");
            assert_eq!(fresh_rng, expected_rng, "m = {m}, seed {seed}: stream");
            assert_eq!(reused_rng, expected_rng, "m = {m}, seed {seed}: stream");
            recruited_actives += (0..m)
                .filter(|&idx| calls[idx].active && expected.was_recruited_by_other(idx))
                .count();
        };

        let uniform = |m: usize, active: bool| -> Vec<RecruitCall> {
            (0..m).map(|i| call(i, active, 1 + i % 3)).collect()
        };
        for seed in 0..4 {
            check(&[], seed);
            check(&uniform(1, true), seed);
            check(&uniform(1, false), seed);
            check(&uniform(2, true), seed);
            check(&uniform(120, false), seed);
            check(&uniform(300, true), seed);
        }

        let mut gen = rng(0x5EED);
        for case in 0..660u64 {
            let m = (gen.next_u64() % 301) as usize;
            // Active fractions 0, 0.1, ..., 1 in turn.
            let threshold = (case % 11) * (u64::MAX / 10);
            let calls: Vec<RecruitCall> = (0..m)
                .map(|i| {
                    let active = case % 11 == 10 || gen.next_u64() < threshold;
                    call(i, active, 1 + (gen.next_u64() % 4) as usize)
                })
                .collect();
            check(&calls, case);
        }
        // An active ant recruited by another either lost its turn to it
        // (no draw) or had already failed its own; the all-active sets
        // make the first kind common.
        assert!(
            recruited_actives > 1000,
            "the call sets must recruit active ants"
        );
    }

    #[test]
    fn empty_input_yields_empty_pairing() {
        let pairing = pair_ants(&[], &mut rng(1));
        assert!(pairing.is_empty());
        assert_eq!(pairing.matched_count(), 0);
    }

    #[test]
    fn lone_active_ant_self_recruits() {
        // With a single participant, the only possible target is the ant
        // itself: Lemma 3.1's forced self-recruitment.
        let calls = [call(0, true, 1)];
        let pairing = pair_ants(&calls, &mut rng(2));
        assert_eq!(pairing.len(), 1);
        assert!(pairing.succeeded(0));
        assert_eq!(pairing.recruited_by(0), Some(0));
        assert!(!pairing.was_recruited_by_other(0));
        assert_eq!(pairing.assigned_nest(0), NestId::candidate(1));
        assert_eq!(pairing.pairs(), &[(AntId::new(0), AntId::new(0))]);
    }

    #[test]
    fn lone_passive_ant_is_untouched() {
        let calls = [call(0, false, 3)];
        let pairing = pair_ants(&calls, &mut rng(3));
        assert!(!pairing.succeeded(0));
        assert_eq!(pairing.recruited_by(0), None);
        assert_eq!(pairing.assigned_nest(0), NestId::candidate(3));
    }

    #[test]
    fn passive_ants_never_recruit() {
        let calls: Vec<RecruitCall> = (0..50).map(|i| call(i, false, 1)).collect();
        let pairing = pair_ants(&calls, &mut rng(4));
        assert_eq!(pairing.matched_count(), 0);
        for idx in 0..calls.len() {
            assert!(!pairing.succeeded(idx));
            assert_eq!(pairing.recruited_by(idx), None);
        }
    }

    #[test]
    fn recruited_ants_receive_recruiter_nest() {
        // Many active recruiters to nest 1, many passive waiters on nest 2:
        // every matched waiter must be told nest 1.
        let mut calls: Vec<RecruitCall> = (0..20).map(|i| call(i, true, 1)).collect();
        calls.extend((20..40).map(|i| call(i, false, 2)));
        let pairing = pair_ants(&calls, &mut rng(5));
        assert!(pairing.matched_count() > 0, "some pair should form");
        for idx in 20..40 {
            if pairing.was_recruited_by_other(idx) {
                assert_eq!(pairing.assigned_nest(idx), NestId::candidate(1));
            } else if pairing.recruited_by(idx).is_none() {
                assert_eq!(pairing.assigned_nest(idx), NestId::candidate(2));
            }
        }
    }

    #[test]
    fn matching_is_a_partial_injection() {
        // No ant appears as recruited in two pairs, and no ant that
        // recruited also got recruited by someone else.
        let calls: Vec<RecruitCall> = (0..200).map(|i| call(i, i % 2 == 0, 1 + i % 3)).collect();
        for seed in 0..20 {
            let pairing = pair_ants(&calls, &mut rng(seed));
            let mut recruited_seen = vec![false; calls.len()];
            for &(recruiter, recruited) in pairing.pairs() {
                let (ri, xi) = (recruiter.index(), recruited.index());
                assert!(calls[ri].active, "recruiter must be in S");
                assert!(!recruited_seen[xi], "ant recruited twice");
                recruited_seen[xi] = true;
            }
            // An ant recruited by a *different* ant must not itself have
            // succeeded.
            for idx in 0..calls.len() {
                if pairing.was_recruited_by_other(idx) {
                    assert!(!pairing.succeeded(idx));
                }
            }
        }
    }

    /// Lemma 2.1: an active recruiter succeeds with probability ≥ 1/16
    /// whenever at least two ants are at the home nest. Empirically the
    /// probability is far higher; we check the bound with slack.
    #[test]
    fn lemma_2_1_success_probability() {
        let mut r = rng(6);
        // Worst-ish case: everyone actively recruiting.
        let calls: Vec<RecruitCall> = (0..64).map(|i| call(i, true, 1)).collect();
        let trials = 4_000;
        let successes = (0..trials)
            .filter(|_| pair_ants(&calls, &mut r).succeeded(0))
            .count();
        let p = successes as f64 / f64::from(trials);
        assert!(
            p >= 1.0 / 16.0,
            "success probability {p} below Lemma 2.1 bound"
        );
    }

    /// The pairing must treat participants symmetrically: with everyone
    /// active, each ant's marginal success probability is identical, so
    /// empirical rates for two fixed ants should agree.
    #[test]
    fn pairing_is_exchangeable() {
        let mut r = rng(7);
        let calls: Vec<RecruitCall> = (0..16).map(|i| call(i, true, 1)).collect();
        let trials = 8_000;
        let mut wins = [0u32; 2];
        for _ in 0..trials {
            let pairing = pair_ants(&calls, &mut r);
            wins[0] += u32::from(pairing.succeeded(0));
            wins[1] += u32::from(pairing.succeeded(8));
        }
        let (a, b) = (f64::from(wins[0]), f64::from(wins[1]));
        assert!(
            (a - b).abs() / a.max(b) < 0.15,
            "asymmetric success rates: {a} vs {b}"
        );
    }

    #[test]
    fn into_variant_matches_and_reuses_buffers() {
        let calls: Vec<RecruitCall> = (0..40).map(|i| call(i, i % 2 == 0, 1 + i % 4)).collect();
        let mut pairing = Pairing::default();
        let mut perm = Vec::new();
        for seed in 0..8 {
            let fresh = pair_ants(&calls, &mut rng(seed));
            pair_ants_into(&calls, &mut rng(seed), &mut pairing, &mut perm);
            assert_eq!(fresh, pairing, "seed {seed}: reuse diverged");
        }
        // A shrinking participant set must not leak stale state.
        let fewer: Vec<RecruitCall> = (0..5).map(|i| call(i, true, 1)).collect();
        let fresh = pair_ants(&fewer, &mut rng(99));
        pair_ants_into(&fewer, &mut rng(99), &mut pairing, &mut perm);
        assert_eq!(fresh, pairing);
        assert_eq!(pairing.len(), 5);
    }

    #[test]
    fn deterministic_given_rng_state() {
        let calls: Vec<RecruitCall> = (0..30).map(|i| call(i, i % 3 != 0, 1)).collect();
        let a = pair_ants(&calls, &mut rng(99));
        let b = pair_ants(&calls, &mut rng(99));
        assert_eq!(a, b);
    }
}
