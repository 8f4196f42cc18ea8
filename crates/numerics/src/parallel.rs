//! Unified execution-policy API for every parallel region in the
//! workspace.
//!
//! Every parallel region takes its policy as one [`Parallelism`] value:
//! the sweep driver (`SweepConfig::parallelism`), the replay checkpoint
//! evaluation (`ReplayConfig::parallelism`), and the dynamic oracle's fan
//! driver (`run_fan_chunks_with`, which reads it from the workspace pool).
//! The vocabulary:
//!
//! * [`Parallelism::Serial`] — run on the calling thread, no pool at
//!   all. This is the honest baseline benches compare against.
//! * [`Parallelism::Threads`] — run on a pool of exactly `n` workers.
//!   Pools are cached per thread count, so repeated calls with the same
//!   `n` share one set of threads. `Threads(1)` is serial in effect and
//!   runs inline like [`Parallelism::Serial`] — a one-worker pool could
//!   overlap nothing anyway.
//! * [`Parallelism::Auto`] (the default) — defer to the environment:
//!   `OMCF_THREADS` if set (same vocabulary as the `--threads` CLI
//!   flag), otherwise the machine's available parallelism. When the
//!   caller is *already* on a pool worker — e.g. a fan-out inside a
//!   sweep cell — `Auto` joins the ambient pool instead of hopping to
//!   another one, so nested parallel regions cooperate on one set of
//!   workers.
//!
//! The policy lives here in `omcf-numerics` (the workspace's bottom
//! utility crate) so that `omcf-routing` can accept it without a
//! dependency cycle; `omcf-core` re-exports it as
//! `omcf_core::Parallelism`, which is the path downstream code should
//! prefer.
//!
//! Whatever the policy, results are byte-identical: the rayon shim (and
//! real rayon) merges parallel results in index order, so the policy
//! only changes wall-clock time, never output.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable consulted by [`Parallelism::Auto`] (and the
/// `repro` CLI). Accepts the same vocabulary as [`Parallelism::parse`].
pub const THREADS_ENV: &str = "OMCF_THREADS";

/// How a parallel region should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Plain sequential execution on the calling thread.
    Serial,
    /// A work-stealing pool of exactly this many threads.
    Threads(NonZeroUsize),
    /// `OMCF_THREADS` if set, otherwise all available cores; joins the
    /// ambient pool when already inside one.
    #[default]
    Auto,
}

impl Parallelism {
    /// The accepted spellings, for error messages.
    pub const VOCABULARY: &'static str = "`serial`, `auto`, or a positive thread count such as `4`";

    /// Parses the CLI/env vocabulary: `serial`, `auto`, or a positive
    /// integer (`1` is accepted and equivalent to `serial`: both run on
    /// the calling thread with no pool).
    pub fn parse(text: &str) -> Result<Self, String> {
        let t = text.trim();
        match t.to_ascii_lowercase().as_str() {
            "serial" => Ok(Parallelism::Serial),
            "auto" => Ok(Parallelism::Auto),
            _ => match t.parse::<usize>() {
                Ok(n) if n > 0 => {
                    Ok(Parallelism::Threads(NonZeroUsize::new(n).expect("n > 0 checked above")))
                }
                _ => Err(format!("invalid parallelism `{text}`: expected {}", Self::VOCABULARY)),
            },
        }
    }

    /// Reads the policy from [`THREADS_ENV`], defaulting to `Auto` when
    /// the variable is unset. An unparsable value is an error (not
    /// silently `Auto`) so typos in CI configs fail loudly.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(THREADS_ENV) {
            Ok(value) => Self::parse(&value).map_err(|e| format!("{THREADS_ENV}: {e}")),
            Err(std::env::VarError::NotPresent) => Ok(Parallelism::Auto),
            Err(e) => Err(format!("{THREADS_ENV}: {e}")),
        }
    }

    /// The concrete worker count this policy resolves to right now.
    /// `Auto` resolves once per process (the env lookup is cached).
    #[must_use]
    pub fn effective_threads(self) -> NonZeroUsize {
        match self {
            Parallelism::Serial => NonZeroUsize::MIN,
            Parallelism::Threads(n) => n,
            Parallelism::Auto => auto_threads(),
        }
    }

    /// Whether this policy executes on the calling thread with no pool.
    /// `Threads(1)` is treated as serial (a one-worker pool cannot
    /// overlap anything), and `Auto` is serial only when it resolves to
    /// one thread *and* the caller is not already inside a pool (when it
    /// is, `Auto` means "use the ambient workers").
    #[must_use]
    pub fn is_serial(self) -> bool {
        match self {
            Parallelism::Serial => true,
            Parallelism::Threads(n) => n.get() == 1,
            Parallelism::Auto => {
                rayon::current_thread_index().is_none() && auto_threads().get() == 1
            }
        }
    }

    /// Runs `body` under this policy: inline on the calling thread
    /// whenever [`Parallelism::is_serial`] holds (so `Serial` really
    /// means no pool — caller thread-locals stay visible and
    /// `current_thread_index()` stays `None`) and for an ambient-pool
    /// `Auto`, otherwise inside `install` on the (cached) pool of the
    /// resolved size. `par_iter`/`join` calls inside `body` use that
    /// pool.
    pub fn install<R, F>(self, body: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if self.is_serial() {
            return body();
        }
        match self {
            Parallelism::Auto if rayon::current_thread_index().is_some() => body(),
            _ => pool_handle(self.effective_threads().get()).install(body),
        }
    }

    /// Human-readable form for CLI headers and logs: `serial`, `auto(8)`
    /// or `threads(4)`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Parallelism::Serial => "serial".to_owned(),
            Parallelism::Threads(n) => format!("threads({n})"),
            Parallelism::Auto => format!("auto({})", auto_threads()),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for Parallelism {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        Self::parse(s)
    }
}

/// What `Auto` resolves to outside any pool, cached for the process
/// lifetime (so a mid-run env change cannot make two halves of one
/// artifact disagree).
fn auto_threads() -> NonZeroUsize {
    static AUTO: OnceLock<NonZeroUsize> = OnceLock::new();
    *AUTO.get_or_init(|| match Parallelism::from_env() {
        Ok(Parallelism::Serial) => NonZeroUsize::MIN,
        Ok(Parallelism::Threads(n)) => n,
        Ok(Parallelism::Auto) => std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        Err(message) => panic!("{message}"),
    })
}

/// Cached pools, one per worker count. The map lock guards only the
/// lookup — the `Arc` is cloned out before `install` runs, so nested
/// policies (a `Threads(2)` fan-out inside a `Threads(4)` sweep) cannot
/// deadlock on it.
fn pool_handle(threads: usize) -> Arc<rayon::ThreadPool> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = pools.lock().expect("pool cache poisoned");
    Arc::clone(map.entry(threads).or_insert_with(|| {
        Arc::new(
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("building a thread pool cannot fail"),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_vocabulary() {
        assert_eq!(Parallelism::parse("serial"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("SERIAL"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse(" auto "), Ok(Parallelism::Auto));
        assert_eq!(
            Parallelism::parse("4"),
            Ok(Parallelism::Threads(NonZeroUsize::new(4).unwrap()))
        );
    }

    #[test]
    fn parse_rejects_and_names_the_vocabulary() {
        for bad in ["0", "-2", "fast", "", "4.5"] {
            let err = Parallelism::parse(bad).unwrap_err();
            assert!(err.contains("serial"), "error for {bad:?} must list vocabulary: {err}");
            assert!(err.contains("auto"), "error for {bad:?} must list vocabulary: {err}");
        }
    }

    #[test]
    fn serial_and_threads_one_are_serial() {
        assert!(Parallelism::Serial.is_serial());
        assert!(Parallelism::Threads(NonZeroUsize::MIN).is_serial());
        assert!(!Parallelism::Threads(NonZeroUsize::new(4).unwrap()).is_serial());
    }

    #[test]
    fn effective_threads_matches_policy() {
        assert_eq!(Parallelism::Serial.effective_threads().get(), 1);
        assert_eq!(
            Parallelism::Threads(NonZeroUsize::new(3).unwrap()).effective_threads().get(),
            3
        );
    }

    #[test]
    fn install_runs_body_on_a_pool_of_the_requested_size() {
        let policy = Parallelism::Threads(NonZeroUsize::new(3).unwrap());
        let (threads, index) =
            policy.install(|| (rayon::current_num_threads(), rayon::current_thread_index()));
        assert_eq!(threads, 3);
        assert!(index.is_some(), "body must run on a pool worker");
        // Outside again.
        assert_eq!(rayon::current_thread_index(), None);
    }

    #[test]
    fn install_returns_the_body_value() {
        assert_eq!(Parallelism::Serial.install(|| 42), 42);
        assert_eq!(Parallelism::Auto.install(|| "ok"), "ok");
    }

    /// `Serial` (and `Threads(1)`) must run the body on the calling
    /// thread itself — no pool, so thread-locals of the caller remain
    /// visible and the body is not "inside a worker".
    #[test]
    fn serial_install_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for policy in [Parallelism::Serial, Parallelism::Threads(NonZeroUsize::MIN)] {
            let (tid, index) =
                policy.install(|| (std::thread::current().id(), rayon::current_thread_index()));
            assert_eq!(tid, caller, "{policy} must not hop threads");
            assert_eq!(index, None, "{policy} must not be on a pool worker");
        }
    }

    #[test]
    fn pools_are_cached_per_size() {
        let a = super::pool_handle(2);
        let b = super::pool_handle(2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn default_is_auto_and_label_is_stable() {
        assert_eq!(Parallelism::default(), Parallelism::Auto);
        assert_eq!(Parallelism::Serial.label(), "serial");
        assert_eq!(Parallelism::Threads(NonZeroUsize::new(4).unwrap()).label(), "threads(4)");
        assert!(Parallelism::Auto.label().starts_with("auto("));
    }
}
