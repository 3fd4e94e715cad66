//! Fixture conformance for the rule set: every fixture under
//! `tests/fixtures/` deliberately violates exactly one rule (or none),
//! and each must produce exactly its expected diagnostics — rule id,
//! line, and nothing else. The fixtures directory is excluded from the
//! `--workspace` walk precisely so these violations can exist in-tree.

use hh_lint::lint_source;

/// Reads a fixture and lints it under a virtual repo path (rule scoping
/// is path-driven).
fn lint_fixture(fixture: &str, virtual_path: &str) -> Vec<(String, u32)> {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    lint_source(virtual_path, &source)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

#[test]
fn stray_unsafe_is_confined() {
    let diags = lint_fixture("stray_unsafe.rs", "crates/core/src/colony.rs");
    assert_eq!(diags, vec![("unsafe-confinement".to_string(), 8)]);
}

#[test]
fn stray_unsafe_is_fine_in_the_sanctuary() {
    let diags = lint_fixture("stray_unsafe.rs", "crates/sim/src/pool.rs");
    assert!(diags.is_empty(), "sanctuary must allow unsafe: {diags:?}");
}

#[test]
fn hash_containers_are_flagged_in_engine_crates() {
    let diags = lint_fixture("hash_iteration.rs", "crates/model/src/nest.rs");
    assert_eq!(
        diags,
        vec![
            ("hash-container".to_string(), 5),
            ("hash-container".to_string(), 7),
        ]
    );
}

#[test]
fn hash_containers_are_fine_outside_the_engine() {
    let diags = lint_fixture("hash_iteration.rs", "crates/analysis/src/stats.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_reads_are_flagged() {
    let diags = lint_fixture("wall_clock.rs", "crates/sim/src/metrics.rs");
    assert_eq!(
        diags,
        vec![
            ("wall-clock".to_string(), 3),
            ("wall-clock".to_string(), 6),
            ("wall-clock".to_string(), 7),
        ]
    );
}

#[test]
fn ambient_randomness_is_flagged_even_in_tests() {
    let diags = lint_fixture("ambient_rng.rs", "crates/core/src/agent.rs");
    assert_eq!(
        diags,
        vec![
            ("ambient-randomness".to_string(), 4),
            ("ambient-randomness".to_string(), 14),
        ]
    );
}

#[test]
fn shared_stream_draws_in_chunk_impls_are_flagged() {
    let diags = lint_fixture("shared_stream_chunk.rs", "crates/model/src/env.rs");
    assert_eq!(diags, vec![("shared-stream".to_string(), 12)]);
}

#[test]
fn every_shared_stream_is_flagged_in_chunk_phase_files() {
    // As executor.rs the whole file is chunk-phase: the constructor's
    // draw on line 19 is now also in scope.
    let diags = lint_fixture("shared_stream_chunk.rs", "crates/sim/src/executor.rs");
    assert_eq!(
        diags,
        vec![
            ("shared-stream".to_string(), 12),
            ("shared-stream".to_string(), 19),
        ]
    );
}

#[test]
fn shared_stream_draws_in_agent_table_impls_are_flagged() {
    // The agent-state store types listed in `CHUNK_PHASE_TYPES` are
    // chunk-phase types wherever they live: a store's bands would run
    // the batched choose/observe passes under the worker pool, so a
    // shared-stream draw inside one of their impls is order-dependent
    // even in a file outside `CHUNK_PHASE_FILES`.
    let diags = lint_fixture("shared_stream_table.rs", "crates/core/src/table.rs");
    assert_eq!(diags, vec![("shared-stream".to_string(), 13)]);
}

#[test]
fn ambient_env_reads_are_flagged_in_engine_crates() {
    // Every non-test `env::var`/`var_os`/`vars` read is flagged; the
    // waived read and the test-module read are not.
    let diags = lint_fixture("ambient_env.rs", "crates/sim/src/executor.rs");
    assert_eq!(
        diags,
        vec![
            ("ambient-env".to_string(), 7),
            ("ambient-env".to_string(), 12),
            ("ambient-env".to_string(), 16),
        ]
    );
}

#[test]
fn ambient_env_reads_are_fine_outside_the_engine() {
    let diags = lint_fixture("ambient_env.rs", "crates/analysis/src/stats.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn raw_row_draws_in_batched_round_bodies_are_flagged() {
    // A batched round body may not advance per-row RNG streams at all:
    // every coin comes from the shared scalar state machine. Both inline
    // draws in the table impl (the pre-fill pass and `choose`) are
    // flagged; the free helper is not.
    let diags = lint_fixture("raw_row_draw_table.rs", "crates/core/src/table.rs");
    assert_eq!(
        diags,
        vec![
            ("raw-row-draw".to_string(), 14),
            ("raw-row-draw".to_string(), 19),
        ]
    );
}

#[test]
fn every_raw_row_draw_is_flagged_in_chunk_phase_files() {
    // As executor.rs the whole file is a batched round body: the free
    // helper's draw on line 24 is now also in scope.
    let diags = lint_fixture("raw_row_draw_table.rs", "crates/sim/src/executor.rs");
    assert_eq!(
        diags,
        vec![
            ("raw-row-draw".to_string(), 14),
            ("raw-row-draw".to_string(), 19),
            ("raw-row-draw".to_string(), 24),
        ]
    );
}

#[test]
fn keyed_row_draws_in_batched_round_bodies_are_flagged() {
    // The counter migration adds a second hazard class: an ad-hoc keyed
    // `.coin`/`.word` call inside a batched round body forks the
    // draw-site logic away from the scalar oracle. All three inline
    // sites in the table impl are flagged; the free helper is not.
    let diags = lint_fixture("keyed_row_draw_table.rs", "crates/core/src/table.rs");
    assert_eq!(
        diags,
        vec![
            ("raw-row-draw".to_string(), 15),
            ("raw-row-draw".to_string(), 20),
            ("raw-row-draw".to_string(), 24),
        ]
    );
}

#[test]
fn every_keyed_row_draw_is_flagged_in_chunk_phase_files() {
    // As executor.rs the whole file is a batched round body: the free
    // helper's keyed draw on line 29 is now also in scope.
    let diags = lint_fixture("keyed_row_draw_table.rs", "crates/sim/src/executor.rs");
    assert_eq!(
        diags,
        vec![
            ("raw-row-draw".to_string(), 15),
            ("raw-row-draw".to_string(), 20),
            ("raw-row-draw".to_string(), 24),
            ("raw-row-draw".to_string(), 29),
        ]
    );
}

#[test]
fn unlisted_ordering_is_flagged_despite_justification() {
    let diags = lint_fixture("unlisted_ordering.rs", "crates/sim/src/pool.rs");
    assert_eq!(diags, vec![("atomic-ordering".to_string(), 8)]);
}

#[test]
fn missing_ordering_justification_is_flagged() {
    let diags = lint_fixture("missing_justification.rs", "crates/sim/src/runner.rs");
    assert_eq!(diags, vec![("atomic-ordering".to_string(), 9)]);
}

#[test]
fn orderings_outside_audited_files_are_not_flagged() {
    let diags = lint_fixture("missing_justification.rs", "crates/sim/src/convergence.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn bad_crate_root_header_is_flagged() {
    let diags = lint_fixture("bad_header.rs", "crates/rumor/src/lib.rs");
    assert_eq!(
        diags,
        vec![
            ("lint-header".to_string(), 1),
            ("lint-header".to_string(), 1),
        ]
    );
}

#[test]
fn waiver_with_reason_silences_a_determinism_rule() {
    let diags = lint_fixture("waived.rs", "crates/core/src/colony.rs");
    assert!(diags.is_empty(), "waiver must apply: {diags:?}");
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    for path in [
        "crates/model/src/census.rs",
        "crates/sim/src/executor.rs",
        "crates/analysis/src/table.rs",
    ] {
        let diags = lint_fixture("clean.rs", path);
        assert!(
            diags.is_empty(),
            "clean fixture flagged at {path}: {diags:?}"
        );
    }
}
