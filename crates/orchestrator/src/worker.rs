//! The work-stealing worker pool behind campaign execution.
//!
//! Tasks are indexed up front; workers repeatedly steal the next unclaimed
//! index from a shared atomic cursor (a single-queue work-stealing scheme:
//! whichever worker goes idle first takes the next task, so long solver
//! calls never leave the other workers starved behind a static partition).
//! Results are written back into a slot per task index, which makes the
//! output order — and therefore every report derived from it — independent
//! of the worker count and of scheduling jitter.

#![allow(
    clippy::disallowed_methods,
    reason = "`WorkerPool::auto` sizes the pool to the machine; the worker count never \
              reaches the deterministic report half"
)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

/// A fixed-size pool of scoped worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool with `workers` threads (clamped to at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    #[must_use]
    pub fn auto() -> Self {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `task` over every item, in parallel, returning results in item
    /// order regardless of how the work interleaved across workers.
    ///
    /// With a single worker (or a single item) the tasks run on the calling
    /// thread, so `WorkerPool::new(1).run(..)` is *exactly* the sequential
    /// execution — campaigns use that as their speedup baseline.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by `task` (scoped threads join on
    /// scope exit).
    pub fn run<T, R, F>(&self, items: &[T], task: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(index, item)| task(index, item))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(items.len()) {
                scope.spawn(|| {
                    // Fail fast: if any worker panics mid-task, the others
                    // stop stealing instead of draining a queue whose output
                    // is already doomed (the scope re-raises the panic).
                    let guard = AbortOnPanic(&abort);
                    while !abort.load(Ordering::Relaxed) {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(index) else { break };
                        let result = task(index, item);
                        *slots[index].lock() = Some(result);
                    }
                    drop(guard);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every task ran"))
            .collect()
    }
}

/// Sets the abort flag if dropped while its thread is unwinding.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let doubled = pool.run(&items, |_, &x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_tasks_balance_across_workers() {
        // Tasks with wildly different costs: correctness (not timing) check
        // that every result lands in the right slot.
        let items: Vec<u64> = (0..32).collect();
        let pool = WorkerPool::new(4);
        let results = pool.run(&items, |index, &x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            index as u64 + x
        });
        assert_eq!(results, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn a_panicking_task_propagates_and_stops_the_pool() {
        let items: Vec<u64> = (0..256).collect();
        let pool = WorkerPool::new(4);
        let _ = pool.run(&items, |_, &x| {
            if x == 3 {
                panic!("solver invariant");
            }
            x
        });
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert!(WorkerPool::auto().workers() >= 1);
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let pool = WorkerPool::new(8);
        let none: Vec<u8> = pool.run(&[], |_, &x: &u8| x);
        assert!(none.is_empty());
        assert_eq!(pool.run(&[5u8], |_, &x| x + 1), vec![6]);
    }
}
