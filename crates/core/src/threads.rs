//! Process-wide thread budget for the two parallel tiers.
//!
//! KAMEL parallelises across pyramid cells ([`crate::partition::Repository::maintain`])
//! and across trajectories ([`crate::Kamel::impute_batch`]); both draw
//! their outer workers from one process-wide budget. Model math itself is
//! single-threaded (`kamel-nn` spawns nothing). The budget resolves in
//! priority order:
//!
//! 1. an explicit [`set_thread_budget`] call (e.g. from `KamelConfig`'s
//!    `threads` knob or the CLI's `--threads` flag),
//! 2. the `KAMEL_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! The budget only controls *how many* workers run; both tiers are
//! bit-identical to their sequential counterparts, so the budget never
//! affects results (asserted by `tests/parallel_determinism.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted when no explicit budget has been set.
pub const THREADS_ENV: &str = "KAMEL_THREADS";

/// 0 means "not resolved yet"; any positive value is the active budget.
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// The number of hardware threads the host reports (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// How a raw `KAMEL_THREADS` value resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvBudget {
    /// The variable is not set: use hardware parallelism.
    Unset,
    /// A valid positive thread count.
    Threads(usize),
    /// The variable is set but unusable (empty, `0`, non-numeric, or out
    /// of range). Carries the warning to surface; the budget falls back to
    /// hardware parallelism rather than silently misconfiguring the pool.
    Invalid(String),
}

/// Interprets a raw `KAMEL_THREADS` value (`None` = unset).
///
/// `0` is explicitly rejected rather than treated as "auto": an operator
/// writing `KAMEL_THREADS=0` most likely expected either an error or
/// single-threaded execution, and silently picking either guess hides the
/// misconfiguration. The warning states the fallback that applies.
pub fn parse_thread_env(raw: Option<&str>) -> EnvBudget {
    let Some(raw) = raw else {
        return EnvBudget::Unset;
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return EnvBudget::Invalid(format!(
            "{THREADS_ENV} is set but empty; falling back to all hardware threads"
        ));
    }
    match trimmed.parse::<usize>() {
        Ok(0) => EnvBudget::Invalid(format!(
            "{THREADS_ENV}=0 is not a valid budget (need >= 1); \
             falling back to all hardware threads"
        )),
        Ok(n) => EnvBudget::Threads(n),
        Err(_) => EnvBudget::Invalid(format!(
            "{THREADS_ENV}=`{trimmed}` is not a number; \
             falling back to all hardware threads"
        )),
    }
}

/// The active thread budget, resolving and caching the default on first
/// use (see the module docs for the resolution order). Always at least 1.
/// An unusable `KAMEL_THREADS` value is reported on stderr once and then
/// ignored in favour of hardware parallelism.
pub fn thread_budget() -> usize {
    let cached = BUDGET.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let env = std::env::var(THREADS_ENV).ok();
    let resolved = match parse_thread_env(env.as_deref()) {
        EnvBudget::Threads(n) => n,
        EnvBudget::Unset => available_threads(),
        EnvBudget::Invalid(warning) => {
            eprintln!("warning: {warning}");
            available_threads()
        }
    };
    BUDGET.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the process-wide thread budget. Values are clamped to at
/// least 1. Safe to call at any time; only execution parallelism changes,
/// never results.
pub fn set_thread_budget(threads: usize) {
    BUDGET.store(threads.max(1), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_positive_and_settable() {
        assert!(thread_budget() >= 1);
        let before = thread_budget();
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        set_thread_budget(0); // clamped
        assert_eq!(thread_budget(), 1);
        set_thread_budget(before);
        assert_eq!(thread_budget(), before);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn env_parsing_accepts_positive_counts() {
        assert_eq!(parse_thread_env(None), EnvBudget::Unset);
        assert_eq!(parse_thread_env(Some("4")), EnvBudget::Threads(4));
        assert_eq!(parse_thread_env(Some(" 8 \n")), EnvBudget::Threads(8));
        assert_eq!(parse_thread_env(Some("1")), EnvBudget::Threads(1));
    }

    #[test]
    fn env_parsing_rejects_zero() {
        let EnvBudget::Invalid(warning) = parse_thread_env(Some("0")) else {
            panic!("0 must be invalid");
        };
        assert!(warning.contains("KAMEL_THREADS=0"), "{warning}");
        assert!(warning.contains("falling back"), "{warning}");
    }

    #[test]
    fn env_parsing_rejects_empty_values() {
        for raw in ["", "   ", "\t\n"] {
            let EnvBudget::Invalid(warning) = parse_thread_env(Some(raw)) else {
                panic!("`{raw}` must be invalid");
            };
            assert!(warning.contains("empty"), "{warning}");
        }
    }

    #[test]
    fn env_parsing_rejects_non_numeric_values() {
        for raw in ["banana", "-2", "1.5", "4threads", "999999999999999999999999"] {
            let EnvBudget::Invalid(warning) = parse_thread_env(Some(raw)) else {
                panic!("`{raw}` must be invalid");
            };
            assert!(warning.contains("not a number"), "{warning}");
        }
    }
}
