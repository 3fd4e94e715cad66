//! # hh_lint — the workspace determinism-and-soundness analyzer
//!
//! The engine's headline guarantee is that a trial's outcome is a pure
//! function of `(scenario, seed)` — bit-identical at any
//! `round_threads`, any trial-worker count, on any machine. That
//! guarantee is what makes every cached `TrialOutcome` valid forever,
//! and it rests on source-level invariants that the type system cannot
//! express. This crate machine-checks them.
//!
//! ## The determinism contract
//!
//! 1. **Unsafe confinement** (`unsafe-confinement`): the `unsafe`
//!    keyword appears in exactly one file, `crates/sim/src/pool.rs` —
//!    the worker pool's lifetime-erased job dispatch, with its soundness
//!    argument documented in place. Every other crate root forbids
//!    unsafe code outright (`hh-sim` denies it, since `forbid` could
//!    not be overridden by the pool's single reviewed `#[allow]`).
//! 2. **No order-unstable state** (`hash-container`): engine crates
//!    (`hh-model`, `hh-core`, `hh-sim`) never touch `HashMap`/`HashSet`
//!    outside test code — their iteration order is randomized per
//!    process, so any escape into outcomes breaks cross-run
//!    reproducibility even serially.
//! 3. **No wall clock** (`wall-clock`): engine crates never read
//!    `Instant`/`SystemTime` outside test code. Timing belongs to
//!    `hh-bench`, never to anything that can steer a simulation.
//! 4. **No ambient randomness** (`ambient-randomness`): every draw
//!    comes from a stream derived via `hh_model::seeding::derive_seed`;
//!    `thread_rng`/`from_entropy`/`OsRng` never appear, test code
//!    included.
//! 5. **Per-ant streams under the pool** (`shared-stream`): chunk-phase
//!    code — everything that runs under the intra-round worker pool —
//!    may draw only from the per-ant streams
//!    (`StreamKind::AgentEnvironment`, `StreamKind::AgentNoise`). A
//!    shared-stream draw there would make outcomes depend on ant
//!    processing order, which is exactly what `round_threads`
//!    determinism (PR 5) forbids.
//! 6. **Confined row draws** (`raw-row-draw`): batched round bodies —
//!    the executor, and `impl` blocks of the listed batched-round types
//!    — never draw a per-row coin inline. Every draw a batched round
//!    consumes goes through the urn agent's own state machine
//!    (`UrnAnt::recruit_draw`, the oracle's own draw site). The rule covers both hazard classes: a
//!    stateful `.random_bool(...)`-style call would desynchronize a
//!    row's stream from the oracle's, and an ad-hoc keyed
//!    `.coin(...)`/`.word(...)` call would duplicate the draw-site
//!    logic (probability clamp, counter convention) and silently
//!    diverge from the scalar oracle the first time either copy
//!    changes.
//! 7. **Audited atomics** (`atomic-ordering`): every `Ordering::` use
//!    in the pool and the lock-free trial runner sits on an explicit
//!    per-file allowlist and carries a `// ordering:` justification
//!    comment, so the memory-ordering protocol stays reviewable.
//! 8. **Conformant crate roots** (`lint-header`): crate roots carry the
//!    agreed preamble (`#![forbid(unsafe_code)]`,
//!    `#![warn(missing_docs)]`,
//!    `#![warn(missing_debug_implementations)]`).
//! 9. **No doc drift** (`docs-drift`, behind `--docs`): the generated
//!    experiment index in `EXPERIMENTS.md` matches the registry
//!    declared in `hh-bench` — doc drift and source drift report
//!    through this one tool.
//! 10. **No ambient configuration** (`ambient-env`): engine crates
//!     never read the process environment (`env::var`, `var_os`,
//!     `vars`, `vars_os`) outside test code. A simulation is a function
//!     of what its caller passed; knobs are builder calls, not
//!     variables a caller cannot see.
//!
//! Rules 2–6 and 10 accept an explicit, reviewable waiver: a comment
//! `// hh-lint: allow(<rule>) — <reason>` on the flagged line or the
//! comment block directly above it. Rules 1, 7, and 8 are unwaivable;
//! changing them means editing the policy tables in [`rules`].
//!
//! The analyzer is deliberately zero-dependency and lexical: a small
//! comment/string-aware lexer ([`lexer`]) tokenizes each file, and the
//! rules ([`rules`]) match token patterns scoped by path, `#[cfg(test)]`
//! regions, and chunk-type `impl` blocks. That is coarser than a full
//! semantic analysis (a type alias could smuggle a `HashMap` past rule
//! 2) but has no false negatives on direct use, zero build cost, and no
//! shared failure modes with the code it audits.
//!
//! ## Invocation
//!
//! ```text
//! cargo run -p hh_lint -- --workspace          # lint every tracked .rs file
//! cargo run -p hh_lint -- --workspace --docs   # …plus the EXPERIMENTS.md drift rule
//! cargo run -p hh_lint -- --workspace --json   # machine-readable report
//! cargo run -p hh_lint -- --as crates/sim/src/pool.rs some/file.rs
//! ```
//!
//! Exit status is the number of files with violations clamped to 1 —
//! i.e. `0` iff the tree is clean. The tier-1 facade test
//! (`tests/lint_gate.rs`) shells the `--workspace --docs` invocation,
//! so a violation anywhere fails `cargo test -q`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod docs;
pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{render_json, Diagnostic};
pub use rules::lint_source;

use std::path::{Path, PathBuf};

/// Directory names never descended into during the workspace walk.
/// `vendor/` holds third-party shims outside the repo's authorship (and
/// thus its invariants); `tests/fixtures/` holds deliberate violations.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// Collects every lintable `.rs` file under `root`, repo-relative with
/// forward slashes, sorted (the walk itself must be deterministic —
/// `read_dir` order is OS-dependent).
///
/// # Errors
///
/// Returns the first I/O error encountered while walking.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                let is_fixture_dir =
                    name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests");
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') || is_fixture_dir {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the whole workspace rooted at `root`; returns
/// `(checked_file_count, diagnostics)` with diagnostics sorted by
/// (path, line, rule).
///
/// # Errors
///
/// Returns the first I/O error (unreadable tree); individual files that
/// vanish mid-walk are reported as diagnostics, not errors.
pub fn lint_workspace(root: &Path, with_docs: bool) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let files = workspace_files(root)?;
    let mut diags = Vec::new();
    for rel in &files {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(source) => diags.extend(lint_source(rel, &source)),
            Err(err) => diags.push(Diagnostic::new(
                "unreadable-file",
                rel,
                1,
                format!("could not read file: {err}"),
            )),
        }
    }
    let mut checked = files.len();
    if with_docs {
        checked += 1; // EXPERIMENTS.md
        diags.extend(check_docs_at(root));
    }
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok((checked, diags))
}

/// Runs the `docs-drift` rule against the tree at `root`.
#[must_use]
pub fn check_docs_at(root: &Path) -> Vec<Diagnostic> {
    let read = |rel: &str| -> Result<String, Diagnostic> {
        std::fs::read_to_string(root.join(rel)).map_err(|err| {
            Diagnostic::new("docs-drift", rel, 1, format!("could not read file: {err}"))
        })
    };
    match (read(docs::EXPERIMENTS_DOC), read(docs::REGISTRY_SOURCE)) {
        (Ok(doc), Ok(registry)) => docs::check_docs(&doc, &registry),
        (doc, registry) => [doc.err(), registry.err()].into_iter().flatten().collect(),
    }
}

/// The compiled-in default workspace root (two levels above this
/// crate's manifest), so `cargo run -p hh_lint` works from any cwd.
#[must_use]
pub fn default_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_vendor_target_and_fixtures() {
        let files = workspace_files(&default_root()).unwrap();
        assert!(files.iter().any(|f| f == "crates/sim/src/pool.rs"));
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.starts_with("target/")));
        assert!(!files.iter().any(|f| f.contains("tests/fixtures/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk output must be deterministic");
    }
}
