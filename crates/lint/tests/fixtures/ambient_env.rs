// Fixture: library code configured from the ambient process
// environment. The qualified `var` read (line 7), the `var_os` read
// through an imported module (line 12) and the `vars` scan (line 16)
// must be flagged; the waived read (line 21) and the test read (line
// 29) must not.
pub fn threads() -> usize {
    std::env::var("THREADS").ok().and_then(|raw| raw.parse().ok()).unwrap_or(1)
}

use std::env;
pub fn enabled() -> bool {
    env::var_os("ENABLED").is_some()
}

pub fn knobs() -> usize {
    env::vars().count()
}

pub fn home() -> Option<String> {
    // hh-lint: allow(ambient-env) — only names a log file, never steers a run.
    std::env::var("HOME").ok()
}

#[cfg(test)]
mod tests {
    // Tests may pick their own matrix from the environment.
    #[test]
    fn reads_matrix() {
        let _ = std::env::var("MATRIX");
    }
}
