//! Unified execution-policy API for every parallel region in the
//! workspace.
//!
//! Every parallel region takes its policy as one [`Parallelism`] value:
//! the sweep driver (`SweepConfig::parallelism`), the replay checkpoint
//! evaluation (`ReplayConfig::parallelism`) and the fleet's shard drives
//! (`FleetConfig::parallelism`). A policy only says how many workers a
//! parallel call inside [`Parallelism::install`] gets. The vocabulary:
//!
//! * [`Parallelism::Serial`] — one worker: parallel calls run on the
//!   calling thread. This is the honest baseline benches compare against.
//! * [`Parallelism::Threads`] — exactly `n` workers per parallel call.
//!   `Threads(1)` is serial in effect.
//! * [`Parallelism::Auto`] (the default) — defer to the environment:
//!   `OMCF_THREADS` if set (same vocabulary as the `--threads` CLI
//!   flag), otherwise the machine's available parallelism.
//!
//! A parallel call made on a worker of another one runs inline on that
//! worker, whatever policy is installed there, so nested regions never
//! multiply threads.
//!
//! The policy lives here in `omcf-numerics` (the workspace's bottom
//! utility crate) so every crate can accept it without a dependency
//! cycle; `omcf-core` re-exports it as `omcf_core::Parallelism`, which is
//! the path downstream code should prefer.
//!
//! Whatever the policy, results are byte-identical: the rayon shim (and
//! real rayon) merges parallel results in index order, so the policy
//! only changes wall-clock time, never output.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Environment variable consulted by [`Parallelism::Auto`] (and the
/// `repro` CLI). Accepts the same vocabulary as [`Parallelism::parse`].
pub const THREADS_ENV: &str = "OMCF_THREADS";

/// How a parallel region should execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Plain sequential execution on the calling thread.
    Serial,
    /// Exactly this many workers per parallel call.
    Threads(NonZeroUsize),
    /// `OMCF_THREADS` if set, otherwise all available cores.
    #[default]
    Auto,
}

impl Parallelism {
    /// The accepted spellings, for error messages.
    pub const VOCABULARY: &'static str = "`serial`, `auto`, or a positive thread count such as `4`";

    /// Parses the CLI/env vocabulary: `serial`, `auto`, or a positive
    /// integer (`1` is accepted and equivalent to `serial`: both keep
    /// parallel calls on the calling thread).
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

    /// Whether this policy resolves to one worker, so that its parallel
    /// calls run on the calling thread.
    #[must_use]
    pub fn is_serial(self) -> bool {
        self.effective_threads().get() == 1
    }

    /// Runs `body` on the calling thread with a pool of the resolved
    /// worker count installed: `par_iter` calls inside `body` get that
    /// many workers (one for a serial policy, so they stay on the caller).
    pub fn install<R, F>(self, body: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.effective_threads().get())
            .build()
            .expect("building a thread pool cannot fail")
            .install(body)
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

/// What `Auto` resolves to, cached for the process
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
        assert_eq!(policy.install(rayon::current_num_threads), 3);
    }

    #[test]
    fn install_returns_the_body_value() {
        assert_eq!(Parallelism::Serial.install(|| 42), 42);
        assert_eq!(Parallelism::Auto.install(|| "ok"), "ok");
    }

    /// `Serial` (and `Threads(1)`) must run the body on the calling
    /// thread itself, so thread-locals of the caller remain visible and
    /// the body is not "inside a worker".
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

    /// `Serial` inside a wider pool still keeps parallel calls on the
    /// caller: every item runs there, with a worker count of one.
    #[test]
    fn serial_install_keeps_parallel_calls_on_the_caller() {
        use rayon::prelude::*;
        let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("build pool");
        let (caller, items) = four.install(|| {
            let items: Vec<(Option<usize>, usize)> = Parallelism::Serial.install(|| {
                (0..8usize)
                    .into_par_iter()
                    .map(|_| (rayon::current_thread_index(), rayon::current_num_threads()))
                    .collect()
            });
            (rayon::current_thread_index(), items)
        });
        assert_eq!(items, vec![(caller, 1); 8]);
    }

    #[test]
    fn default_is_auto_and_label_is_stable() {
        assert_eq!(Parallelism::default(), Parallelism::Auto);
        assert_eq!(Parallelism::Serial.label(), "serial");
        assert_eq!(Parallelism::Threads(NonZeroUsize::new(4).unwrap()).label(), "threads(4)");
        assert!(Parallelism::Auto.label().starts_with("auto("));
    }
}
