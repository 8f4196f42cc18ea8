//! Offline shim for [rayon](https://crates.io/crates/rayon): the subset of
//! its API this workspace uses, on [`std::thread::scope`].
//!
//! * **A pool is a worker count.** [`ThreadPool::install`] runs its body
//!   on the calling thread with that count in a thread-local, restored on
//!   return and on unwind. The global count comes from
//!   [`ThreadPoolBuilder::build_global`], else `RAYON_NUM_THREADS`, else
//!   the machine's available parallelism.
//! * **Each parallel call starts its own workers.** `collect` or
//!   `for_each` on a `par_iter()` / `into_par_iter()` chain runs on
//!   `k = min(count, items)` workers. The caller is worker 0, so only
//!   `k − 1` scoped threads are spawned, and all of them have stopped when
//!   the call returns. A one-worker call too runs on the caller as worker
//!   0, so its body reads [`current_thread_index`] `Some(0)`, as on a
//!   one-thread rayon pool, whatever the worker count.
//! * **Claims start from the last index.** Workers take item indices from
//!   one shared counter, last index first. That pays only while callers
//!   list their costliest items last, so those start first: in the
//!   scenario registry only quick cells follow `waxman-large`, the sweep's
//!   heaviest, and part one's ratios ascend with their cost. A
//!   longest-first order would need cost estimates (Graham, "Bounds on
//!   multiprocessing timing anomalies", SIAM J. Appl. Math. 1969).
//! * **Output is the sequential run's.** Results merge by item index, so
//!   they are identical at any worker count.
//! * **A parallel call made on a worker runs inline** on that worker.
//! * **A panic in a body** is resumed on the caller with its own payload,
//!   once every worker has stopped.
//!
//! The surface matches rayon's signatures, `Send`/`Sync` bounds included,
//! so swapping in the real crate is a change to the workspace manifest
//! alone.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

// ---------------------------------------------------------------------------
// Where the calling thread stands
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Context {
    /// Worker count set by the enclosing `install` or parallel call.
    threads: Option<usize>,
    /// This thread's worker index while it runs a parallel call.
    index: Option<usize>,
}

thread_local! {
    static CONTEXT: Cell<Context> = const { Cell::new(Context { threads: None, index: None }) };
}

/// Holds a context on this thread; the previous one returns on drop, so
/// also on unwind.
struct Enter(Context);

impl Enter {
    fn new(context: Context) -> Self {
        Enter(CONTEXT.replace(context))
    }
}

impl Drop for Enter {
    fn drop(&mut self) {
        CONTEXT.set(self.0);
    }
}

/// The worker count in effect here: the enclosing pool's, otherwise the
/// global pool's.
#[must_use]
pub fn current_num_threads() -> usize {
    CONTEXT.get().threads.unwrap_or_else(global_threads)
}

/// Index of the calling thread among the workers of the parallel call it
/// is running, or `None` outside any call.
#[must_use]
pub fn current_thread_index() -> Option<usize> {
    CONTEXT.get().index
}

// ---------------------------------------------------------------------------
// Pools
// ---------------------------------------------------------------------------

/// Error returned when a pool cannot be built (`rayon::ThreadPoolBuildError`).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for [`ThreadPool`]s (subset of `rayon::ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of workers. Zero (the default) means automatic:
    /// `RAYON_NUM_THREADS` if set to a positive integer, otherwise the
    /// machine's available parallelism.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.num_threads > 0 {
            return self.num_threads;
        }
        match std::env::var("RAYON_NUM_THREADS").map(|v| v.trim().parse::<usize>()) {
            Ok(Ok(n)) if n > 0 => n,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Builds a pool. It starts no thread: each parallel call spawns its
    /// own workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { threads: self.resolved_threads() })
    }

    /// Sets the global pool's count. Errors if the global pool has already
    /// been set, by an earlier call or lazily by first use, like rayon's.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        GLOBAL.set(self.resolved_threads()).map_err(|_| ThreadPoolBuildError(()))
    }
}

/// A worker count for the parallel calls made inside
/// [`ThreadPool::install`] (subset of `rayon::ThreadPool`).
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread; parallel calls inside it get this
    /// pool's worker count.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _pool = Enter::new(Context { threads: Some(self.threads), ..CONTEXT.get() });
        op()
    }

    /// Number of workers in this pool.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

static GLOBAL: OnceLock<usize> = OnceLock::new();

fn global_threads() -> usize {
    *GLOBAL.get_or_init(|| ThreadPoolBuilder::new().resolved_threads())
}

// ---------------------------------------------------------------------------
// Parallel iterators
// ---------------------------------------------------------------------------

/// A parallel iterator over a source's items, in index order (the part of
/// `rayon::iter::ParallelIterator` the workspace calls).
pub struct Iter<T> {
    items: Vec<T>,
}

/// The parallel iterator [`Iter::map`] returns.
pub struct Map<T, F> {
    items: Vec<T>,
    op: F,
}

impl<T: Send> Iter<T> {
    /// Maps each item through `op` in parallel.
    pub fn map<R, F>(self, op: F) -> Map<T, F>
    where
        F: Fn(T) -> R + Sync + Send,
        R: Send,
    {
        Map { items: self.items, op }
    }

    /// Runs `op` on every item in parallel.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(T) + Sync + Send,
    {
        run(self.items, &op);
    }
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync + Send> Map<T, F> {
    /// Collects the mapped items in index order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run(self.items, &self.op).into_iter().collect()
    }
}

/// Conversion into a parallel iterator (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> Iter<Self::Item>;
}

/// `.par_iter()` on `&self` (`rayon::iter::IntoParallelRefIterator`).
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    fn par_iter(&'data self) -> Iter<Self::Item>;
}

impl<'data, C: ?Sized + 'data> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Iter<Self::Item> {
        self.into_par_iter()
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
    type Item = &'data T;
    fn into_par_iter(self) -> Iter<&'data T> {
        Iter { items: self.iter().collect() }
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data Vec<T> {
    type Item = &'data T;
    fn into_par_iter(self) -> Iter<&'data T> {
        self.as_slice().into_par_iter()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> Iter<T> {
        Iter { items: self }
    }
}

macro_rules! range_impl {
    ($($ty:ty),*) => {$(
        impl IntoParallelIterator for Range<$ty> {
            type Item = $ty;
            fn into_par_iter(self) -> Iter<$ty> {
                Iter { items: self.collect() }
            }
        }
    )*};
}

range_impl!(usize, u32, u64, i32, i64);

/// Runs `op` on every item and returns the results in item order.
fn run<T: Send, R: Send>(items: Vec<T>, op: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let threads = current_num_threads();
    let workers = threads.min(n);
    if current_thread_index().is_some() {
        return items.into_iter().map(op).collect();
    }
    if workers <= 1 {
        let _worker = Enter::new(Context { threads: Some(threads), index: Some(0) });
        return items.into_iter().map(op).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // The counter only hands out indices; each item passes through its
    // slot's mutex, and each result through the worker's join.
    let claimed = AtomicUsize::new(0);
    let work = |index: usize| -> Vec<(usize, R)> {
        let _worker = Enter::new(Context { threads: Some(threads), index: Some(index) });
        let mut done = Vec::new();
        loop {
            let claim = claimed.fetch_add(1, Ordering::Relaxed);
            if claim >= n {
                return done;
            }
            let i = n - 1 - claim;
            let item = slots[i].lock().expect("no slot lock is held across a panic").take();
            done.push((i, op(item.expect("each index is claimed once"))));
        }
    };
    let parts: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|index| scope.spawn(move || work(index))).collect();
        let own = panic::catch_unwind(AssertUnwindSafe(|| work(0)));
        std::iter::once(own).chain(helpers.into_iter().map(|h| h.join())).collect()
    });
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part.unwrap_or_else(|payload| panic::resume_unwind(payload)) {
            results[i] = Some(r);
        }
    }
    results.into_iter().map(|r| r.expect("every index was claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, current_thread_index, ThreadPool, ThreadPoolBuilder};
    use std::sync::Barrier;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().expect("build pool")
    }

    #[test]
    fn collect_is_ordered_at_every_worker_count() {
        for threads in [1, 2, 4, 8] {
            for len in [0usize, 1, 2, 3, 17, 1024] {
                let expected: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
                let source: Vec<usize> = (0..len).collect();
                let (from_vec, from_slice, from_range): (Vec<usize>, Vec<usize>, Vec<usize>) =
                    pool(threads).install(|| {
                        (
                            source.clone().into_par_iter().map(|i| i * 3 + 1).collect(),
                            source.par_iter().map(|&i| i * 3 + 1).collect(),
                            (0..len).into_par_iter().map(|i| i * 3 + 1).collect(),
                        )
                    });
                let at = format!("{threads} workers, {len} items");
                assert_eq!(from_vec, expected, "Vec source at {at}");
                assert_eq!(from_slice, expected, "slice source at {at}");
                assert_eq!(from_range, expected, "range source at {at}");
            }
        }
    }

    /// Both items wait on one barrier, which only two workers running at
    /// once can pass.
    #[test]
    fn two_workers_run_at_once() {
        let barrier = Barrier::new(2);
        let indices: Vec<Option<usize>> = pool(2).install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|_| {
                    barrier.wait();
                    current_thread_index()
                })
                .collect()
        });
        let mut seen: Vec<usize> = indices.into_iter().map(|i| i.expect("on a worker")).collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
    }

    #[test]
    fn panic_payload_reaches_the_caller() {
        #[derive(Debug, PartialEq)]
        struct Payload(usize);
        let caught = std::panic::catch_unwind(|| {
            pool(4).install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    if i == 17 {
                        std::panic::panic_any(Payload(i));
                    }
                });
            });
        })
        .expect_err("a panicking body must panic the caller");
        assert_eq!(caught.downcast_ref::<Payload>(), Some(&Payload(17)));
        assert_eq!(current_thread_index(), None, "the caller's context is restored");
    }

    #[test]
    fn nested_call_runs_inline_on_the_worker() {
        let pairs: Vec<(Option<usize>, Vec<Option<usize>>)> = pool(2).install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|_| {
                    let outer = current_thread_index();
                    let inner = (0..4usize).into_par_iter().map(|_| current_thread_index());
                    (outer, inner.collect())
                })
                .collect()
        });
        for (outer, inner) in pairs {
            assert!(outer.is_some());
            assert_eq!(inner, vec![outer; 4], "a nested call must stay on its worker");
        }
    }

    #[test]
    fn index_and_count_inside_and_outside_a_call() {
        assert_eq!(current_thread_index(), None);
        let outside = current_num_threads();
        let seen: Vec<(Option<usize>, usize)> = pool(3).install(|| {
            assert_eq!(current_num_threads(), 3);
            assert_eq!(current_thread_index(), None, "install does not make a worker");
            (0..3usize)
                .into_par_iter()
                .map(|_| (current_thread_index(), current_num_threads()))
                .collect()
        });
        for (index, threads) in seen {
            assert!(matches!(index, Some(i) if i < 3));
            assert_eq!(threads, 3);
        }
        assert_eq!(current_num_threads(), outside, "install restores the count");
        assert_eq!(current_thread_index(), None);
    }

    /// One worker, from a one-thread pool or a single item: the caller
    /// runs the items as worker 0, then gets its own context back.
    #[test]
    fn one_worker_call_runs_on_the_caller_as_worker_zero() {
        let caller = std::thread::current().id();
        for (threads, len) in [(1, 5usize), (4, 1)] {
            let (seen, after) = pool(threads).install(|| {
                let seen: Vec<_> = (0..len)
                    .into_par_iter()
                    .map(|_| {
                        (std::thread::current().id(), current_thread_index(), current_num_threads())
                    })
                    .collect();
                (seen, (current_thread_index(), current_num_threads()))
            });
            let at = format!("{threads} threads, {len} items");
            assert_eq!(seen, vec![(caller, Some(0), threads); len], "{at}");
            assert_eq!(after, (None, threads), "the caller's context is restored ({at})");
        }
    }

    #[test]
    fn second_build_global_errors() {
        // Whichever call sets the global pool first, a second one fails.
        let _ = ThreadPoolBuilder::new().num_threads(2).build_global();
        assert!(ThreadPoolBuilder::new().num_threads(2).build_global().is_err());
    }
}
