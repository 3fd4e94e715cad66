//! The repo-specific rule set. See the crate docs for the determinism
//! contract each rule encodes; this module is the machine-checkable
//! half of that contract.

use crate::lexer::{cfg_test_regions, impl_regions, lex, Lexed, TokenKind};
use crate::report::Diagnostic;

/// The one file allowed to contain the `unsafe` keyword.
pub const UNSAFE_SANCTUARY: &str = "crates/sim/src/pool.rs";

/// The crate whose root declares `#![deny(unsafe_code)]` instead of
/// `#![forbid(unsafe_code)]` (its `pool` module carves out the single
/// reviewed `#[allow]`; `forbid` cannot be overridden).
pub const DENY_UNSAFE_ROOT: &str = "crates/sim/src/lib.rs";

/// Crates whose sources feed deterministic simulation state. The
/// determinism lints (hash containers, wall clock, ambient randomness,
/// ambient configuration) apply to non-test code in these path prefixes.
pub const ENGINE_PREFIXES: [&str; 3] = ["crates/model/src/", "crates/core/src/", "crates/sim/src/"];

/// Files whose *entire* non-test body runs under (or dispatches onto)
/// the intra-round worker pool.
pub const CHUNK_PHASE_FILES: [&str; 1] = ["crates/sim/src/executor.rs"];

/// Types whose `impl` blocks are chunk-phase code wherever they live:
/// the per-chunk round views workers iterate in parallel, the SoA
/// snapshot-column bands the executor splits across workers, and the
/// agent-state column and row-band types any batched round store would
/// use (none exists today: batched rounds step the `AnyAgent` vector;
/// the names stay listed so a reintroduced store is covered from its
/// first line). Their impls must draw only from per-ant randomness
/// (keyed draws are pure functions of `(key, round)`, so chunk splits
/// cannot reorder them).
pub const CHUNK_PHASE_TYPES: [&str; 10] = [
    "RelocationChunk",
    "OutcomeChunk",
    "ColumnsMut",
    "SnapshotColumns",
    "AgentColumns",
    "AgentColumnsMut",
    "UrnColumns",
    "UrnColumnsMut",
    "DenseRows",
    "DenseRowsMut",
];

/// Types whose impls would form the *batched round bodies* of a
/// per-algorithm agent-state store (none exists today; see
/// [`CHUNK_PHASE_TYPES`]): every coin a batched round consumes must
/// come from the agent's own scalar state machine, never an inline
/// draw call. (The environment's chunk views — `RelocationChunk`,
/// `OutcomeChunk` — draw their per-ant streams in place by design and
/// are deliberately not listed.)
pub const BATCHED_ROUND_TYPES: [&str; 6] = [
    "AgentColumns",
    "AgentColumnsMut",
    "UrnColumns",
    "UrnColumnsMut",
    "DenseRows",
    "DenseRowsMut",
];

/// Method names that advance an RNG stream on their receiver. A call to
/// one of these inside a batched round body is raw per-row RNG access:
/// it desynchronizes the row's stream from the scalar oracle's.
pub const RAW_DRAW_METHODS: [&str; 6] = [
    "random_bool",
    "random_range",
    "random_ratio",
    "next_u32",
    "next_u64",
    "fill_bytes",
];

/// Method names of the counter-based `DrawKey` API
/// (`hh_model::seeding::DrawKey::coin`/`word`). Keyed draws are pure —
/// they cannot desynchronize a stream — but an ad-hoc call inside a
/// batched round body duplicates the designated draw site's logic
/// (probability clamp, round-as-counter convention) and diverges from
/// the scalar oracle the first time either copy changes, so they are
/// confined to the shared state machine like the stateful draws.
pub const KEYED_DRAW_METHODS: [&str; 2] = ["coin", "word"];

/// The `std::env` functions that read the process environment. Library
/// code in the engine crates takes its configuration through explicit
/// builders, never from ambient variables a caller cannot see.
pub const ENV_READ_FNS: [&str; 4] = ["var", "var_os", "vars", "vars_os"];

/// The only `StreamKind` variants chunk-phase code may draw from: one
/// stream per ant, so outcomes cannot depend on ant processing order.
pub const PER_ANT_STREAMS: [&str; 2] = ["AgentEnvironment", "AgentNoise"];

/// Per-file allowlists for the atomic-ordering audit: every
/// `Ordering::<variant>` token in these files must use a listed variant
/// *and* carry an attached `// ordering:` justification comment.
pub const ORDERING_ALLOWLIST: [(&str, &[&str]); 2] = [
    // The fork–join pool's epoch/done protocol is pure release/acquire
    // handshakes (plus one AcqRel swap on the panic flag); SeqCst would
    // paper over a misunderstanding and Relaxed would be a bug.
    (
        "crates/sim/src/pool.rs",
        &["Acquire", "Release", "AcqRel", "Relaxed"],
    ),
    // The trial runner needs acquire/release only for the abort flag;
    // the work-stealing cursor is intentionally relaxed.
    (
        "crates/sim/src/runner.rs",
        &["Acquire", "Release", "Relaxed"],
    ),
];

/// Rules a `hh-lint: allow(<rule>)` comment may waive. Soundness rules
/// (unsafe confinement, ordering audit, headers) are deliberately
/// unwaivable: changing those is a policy edit in this file, reviewed
/// as such.
pub const WAIVABLE_RULES: [&str; 6] = [
    "hash-container",
    "wall-clock",
    "ambient-randomness",
    "ambient-env",
    "shared-stream",
    "raw-row-draw",
];

/// Lints one file's source as if it lived at repo-relative `path`
/// (forward slashes). The path decides which rules apply; fixture tests
/// use virtual paths to exercise every rule.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let mut diags = Vec::new();
    let test_regions = cfg_test_regions(&lexed);
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| a <= line && line <= b);
    let waived = |rule: &str, line: u32| {
        WAIVABLE_RULES.contains(&rule)
            && lexed.attached_comment_contains(line, &format!("hh-lint: allow({rule})"))
    };
    let is_engine = ENGINE_PREFIXES.iter().any(|p| path.starts_with(p));

    unsafe_confinement(path, &lexed, &mut diags);
    lint_header(path, &lexed, &mut diags);
    if is_engine {
        determinism(path, &lexed, &in_test, &waived, &mut diags);
        ambient_env(path, &lexed, &in_test, &waived, &mut diags);
        shared_stream(path, &lexed, &in_test, &waived, &mut diags);
        raw_row_draw(path, &lexed, &in_test, &waived, &mut diags);
    }
    ordering_audit(path, &lexed, &in_test, &mut diags);
    diags
}

/// Rule `unsafe-confinement`: the `unsafe` keyword may appear only in
/// [`UNSAFE_SANCTUARY`] (test code included — there is no such thing as
/// test-only unsafety).
fn unsafe_confinement(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    if path == UNSAFE_SANCTUARY {
        return;
    }
    for tok in &lexed.tokens {
        if tok.kind == TokenKind::Ident && tok.text == "unsafe" {
            diags.push(Diagnostic::new(
                "unsafe-confinement",
                path,
                tok.line,
                format!(
                    "`unsafe` is confined to {UNSAFE_SANCTUARY}; move the code behind the \
                     reviewed pool primitive or make it safe"
                ),
            ));
        }
    }
}

/// Rule `lint-header`: every crate root (`crates/*/src/lib.rs` and the
/// facade `src/lib.rs`) carries the agreed preamble —
/// `#![forbid(unsafe_code)]` (`deny` for hh-sim), `#![warn(missing_docs)]`,
/// and `#![warn(missing_debug_implementations)]`.
fn lint_header(path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    let is_crate_root =
        path == "src/lib.rs" || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let unsafe_level = if path == DENY_UNSAFE_ROOT {
        "deny"
    } else {
        "forbid"
    };
    let required: [(&str, &str); 3] = [
        (unsafe_level, "unsafe_code"),
        ("warn", "missing_docs"),
        ("warn", "missing_debug_implementations"),
    ];
    for (level, lint) in required {
        if !has_inner_attr(lexed, level, lint) {
            diags.push(Diagnostic::new(
                "lint-header",
                path,
                1,
                format!(
                    "crate root is missing `#![{level}({lint})]` from the agreed lint preamble"
                ),
            ));
        }
    }
    // The inverse check: a root that *forbids* when it must deny (or
    // vice versa) gets a targeted message instead of a missing-attr one.
    let wrong_level = if unsafe_level == "deny" {
        "forbid"
    } else {
        "deny"
    };
    if has_inner_attr(lexed, wrong_level, "unsafe_code") {
        diags.push(Diagnostic::new(
            "lint-header",
            path,
            1,
            format!(
                "crate root declares `#![{wrong_level}(unsafe_code)]` but the agreed level \
                 here is `{unsafe_level}`"
            ),
        ));
    }
}

/// Matches the inner-attribute token sequence `# ! [ level ( lint ) ]`.
fn has_inner_attr(lexed: &Lexed, level: &str, lint: &str) -> bool {
    let toks = &lexed.tokens;
    toks.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == level
            && w[4].text == "("
            && w[5].text == lint
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

/// Rules `hash-container`, `wall-clock`, `ambient-randomness`: engine
/// crates must not use order-unstable containers, read the wall clock,
/// or draw ambient (unseeded) randomness in non-test code. Test code is
/// exempt from the first two (a test asserting uniqueness via `HashSet`
/// leaks no iteration order into outcomes) but not from ambient
/// randomness — an unseeded test is unreproducible by construction.
fn determinism(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    for tok in &lexed.tokens {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let (rule, message): (&str, String) = match tok.text.as_str() {
            "HashMap" | "HashSet" if !in_test(tok.line) => (
                "hash-container",
                format!(
                    "`{}` iteration order is randomized per process; deterministic paths \
                     must use `BTreeMap`/`BTreeSet`, a `Vec`, or the crate's flat bitsets",
                    tok.text
                ),
            ),
            "Instant" | "SystemTime" if !in_test(tok.line) => (
                "wall-clock",
                format!(
                    "`{}` reads the wall clock; engine outcomes must be a function of \
                     (config, seed) only — time benchmarks belong in hh-bench",
                    tok.text
                ),
            ),
            "thread_rng" | "ThreadRng" | "from_entropy" | "OsRng" => (
                "ambient-randomness",
                format!(
                    "`{}` is ambient randomness; every engine draw must come from a \
                     stream derived via `seeding::derive_seed`",
                    tok.text
                ),
            ),
            _ => continue,
        };
        if !waived(rule, tok.line) {
            diags.push(Diagnostic::new(rule, path, tok.line, message));
        }
    }
}

/// Rule `ambient-env`: engine crates must not read the process
/// environment ([`ENV_READ_FNS`] under `env::`) in non-test code. A
/// knob read from an ambient variable changes a simulation's behaviour
/// without any trace in its configuration; it belongs in a builder the
/// caller sets. Test code is exempt (a test may pick its thread matrix
/// from the environment; it configures nothing the library reads).
fn ambient_env(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    for w in lexed.tokens.windows(4) {
        let is_env_read = w[0].kind == TokenKind::Ident
            && w[0].text == "env"
            && w[1].text == ":"
            && w[2].text == ":"
            && w[3].kind == TokenKind::Ident
            && ENV_READ_FNS.contains(&w[3].text.as_str());
        let line = w[3].line;
        if !is_env_read || in_test(line) || waived("ambient-env", line) {
            continue;
        }
        diags.push(Diagnostic::new(
            "ambient-env",
            path,
            line,
            format!(
                "`env::{}` reads the ambient process environment; engine configuration \
                 must come from an explicit builder or config value, so a run is a \
                 function of what its caller passed",
                w[3].text
            ),
        ));
    }
}

/// Rule `shared-stream`: inside chunk-phase code (the whole body of
/// [`CHUNK_PHASE_FILES`], and `impl` blocks of [`CHUNK_PHASE_TYPES`]
/// anywhere in the engine), only per-ant streams may be named. A draw
/// from a shared stream inside code that runs under the worker pool
/// would make outcomes depend on ant processing order — exactly the bug
/// class the per-ant stream split (PR 5) exists to rule out.
fn shared_stream(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let whole_file = CHUNK_PHASE_FILES.contains(&path);
    let impl_spans = impl_regions(lexed, &CHUNK_PHASE_TYPES);
    let in_chunk_scope =
        |line: u32| whole_file || impl_spans.iter().any(|&(a, b)| a <= line && line <= b);

    let toks = &lexed.tokens;
    for w in toks.windows(4) {
        let is_stream_path = w[0].kind == TokenKind::Ident
            && w[0].text == "StreamKind"
            && w[1].text == ":"
            && w[2].text == ":"
            && w[3].kind == TokenKind::Ident;
        if !is_stream_path {
            continue;
        }
        let variant = w[3].text.as_str();
        let line = w[0].line;
        if PER_ANT_STREAMS.contains(&variant) || !in_chunk_scope(line) || in_test(line) {
            continue;
        }
        if !waived("shared-stream", line) {
            diags.push(Diagnostic::new(
                "shared-stream",
                path,
                line,
                format!(
                    "`StreamKind::{variant}` is a shared stream; chunk-phase code running \
                     under the worker pool may draw only from the per-ant streams \
                     (`StreamKind::AgentEnvironment`, `StreamKind::AgentNoise`)"
                ),
            ));
        }
    }
}

/// Rule `raw-row-draw`: batched round bodies (the whole body of
/// [`CHUNK_PHASE_FILES`], and `impl` blocks of [`BATCHED_ROUND_TYPES`]
/// anywhere in the engine) must not evaluate per-row draws inline.
/// Every draw a batched round consumes comes from the shared scalar
/// state machine (`UrnAnt::recruit_draw`, outside these scopes).
/// Two hazard classes, one confinement: a stateful
/// [`RAW_DRAW_METHODS`] call desynchronizes a row's stream from the
/// oracle's (or double-draws it) the moment the pass is split across
/// workers, and an ad-hoc keyed [`KEYED_DRAW_METHODS`] call forks the
/// draw-site logic (probability clamp, round-as-counter convention)
/// away from the scalar oracle's single implementation.
fn raw_row_draw(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    waived: &dyn Fn(&str, u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let whole_file = CHUNK_PHASE_FILES.contains(&path);
    let impl_spans = impl_regions(lexed, &BATCHED_ROUND_TYPES);
    let in_round_body =
        |line: u32| whole_file || impl_spans.iter().any(|&(a, b)| a <= line && line <= b);

    let toks = &lexed.tokens;
    for w in toks.windows(2) {
        if w[0].kind != TokenKind::Punct || w[0].text != "." || w[1].kind != TokenKind::Ident {
            continue;
        }
        let method = w[1].text.as_str();
        let stateful = RAW_DRAW_METHODS.contains(&method);
        if !stateful && !KEYED_DRAW_METHODS.contains(&method) {
            continue;
        }
        let line = w[1].line;
        if !in_round_body(line) || in_test(line) {
            continue;
        }
        if !waived("raw-row-draw", line) {
            let message = if stateful {
                format!(
                    "`.{method}(...)` advances an RNG stream inline inside a batched round \
                     body; draws consumed by batched rounds must come from the shared \
                     scalar state machine so every row's stream advances in the scalar \
                     oracle's order"
                )
            } else {
                format!(
                    "`.{method}(...)` evaluates a keyed draw inline inside a batched round \
                     body; counter draws are confined to the shared scalar state machine \
                     so the draw-site logic (probability clamp, round-as-counter \
                     convention) has exactly one implementation"
                )
            };
            diags.push(Diagnostic::new("raw-row-draw", path, line, message));
        }
    }
}

/// Rule `atomic-ordering`: every `Ordering::<variant>` token in the
/// audited files must use an allowlisted variant and carry an attached
/// `// ordering:` justification comment (same line, or the own-line
/// comment block directly above). Test code is exempt — test counters
/// are not part of the synchronization protocol under audit.
fn ordering_audit(
    path: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(u32) -> bool,
    diags: &mut Vec<Diagnostic>,
) {
    let Some((_, allowed)) = ORDERING_ALLOWLIST.iter().find(|(p, _)| *p == path) else {
        return;
    };
    let toks = &lexed.tokens;
    for w in toks.windows(4) {
        let is_ordering_path = w[0].kind == TokenKind::Ident
            && w[0].text == "Ordering"
            && w[1].text == ":"
            && w[2].text == ":"
            && w[3].kind == TokenKind::Ident;
        if !is_ordering_path {
            continue;
        }
        let variant = w[3].text.as_str();
        let line = w[0].line;
        if in_test(line) {
            continue;
        }
        if !allowed.contains(&variant) {
            diags.push(Diagnostic::new(
                "atomic-ordering",
                path,
                line,
                format!(
                    "`Ordering::{variant}` is not on the audited allowlist for {path} \
                     (allowed: {}); extend the allowlist in hh_lint with a review, or use \
                     a listed ordering",
                    allowed.join(", ")
                ),
            ));
        } else if !lexed.attached_comment_contains(line, "ordering:") {
            diags.push(Diagnostic::new(
                "atomic-ordering",
                path,
                line,
                format!(
                    "`Ordering::{variant}` has no attached `// ordering:` justification \
                     comment; every ordering in the audited files must say why it is \
                     sufficient"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_engine_source_is_clean() {
        let src = "//! Docs.\nfn f(x: u64) -> u64 { x + 1 }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_engine_crates_may_use_hash_containers() {
        let src = "use std::collections::HashMap;\nfn f() { let _m: HashMap<u8, u8> = HashMap::new(); }\n";
        assert!(lint_source("crates/analysis/src/x.rs", src).is_empty());
        assert_eq!(lint_source("crates/model/src/x.rs", src).len(), 3);
    }

    #[test]
    fn sanctuary_file_may_be_unsafe_but_sim_root_must_deny() {
        assert!(lint_source(UNSAFE_SANCTUARY, "unsafe { }").is_empty());
        let diags = lint_source("crates/sim/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert!(diags
            .iter()
            .any(|d| d.message.contains("agreed level here is `deny`")));
    }

    #[test]
    fn waiver_requires_the_exact_rule_name() {
        let waived = "// hh-lint: allow(hash-container) — census scratch, drained sorted\nuse std::collections::HashMap;\n";
        let wrong = "// hh-lint: allow(wall-clock)\nuse std::collections::HashMap;\n";
        assert!(lint_source("crates/core/src/x.rs", waived).is_empty());
        assert_eq!(lint_source("crates/core/src/x.rs", wrong).len(), 1);
    }

    #[test]
    fn soa_column_impls_are_chunk_phase_scope() {
        // The SoA band types run under the worker pool: a shared-stream
        // draw inside their impls is flagged wherever the impl lives,
        // while per-ant streams stay allowed.
        let shared =
            "impl<'a> ColumnsMut<'a> {\n    fn f(&self) { let _ = StreamKind::Environment; }\n}\n";
        let diags = lint_source("crates/core/src/columns.rs", shared);
        assert!(
            diags.iter().any(|d| d.rule == "shared-stream"),
            "shared draw inside a ColumnsMut impl must be flagged: {diags:?}"
        );
        let per_ant = "impl SnapshotColumns {\n    fn f(&self) { let _ = StreamKind::AgentEnvironment; }\n}\n";
        assert!(lint_source("crates/core/src/columns.rs", per_ant).is_empty());
        // Outside the impl block the shared stream is fine (it is not
        // chunk-phase code).
        let outside = "fn f() { let _ = StreamKind::Environment; }\n";
        assert!(lint_source("crates/core/src/columns.rs", outside).is_empty());
    }

    #[test]
    fn unsafe_is_not_waivable() {
        let src = "// hh-lint: allow(unsafe-confinement)\nunsafe fn f() {}\n";
        assert_eq!(lint_source("crates/core/src/x.rs", src).len(), 1);
    }
}
