//! # fxnet-harness
//!
//! A deterministic parallel experiment runner. Every experiment in this
//! repository is an independent, pure function of its configuration and
//! seed — a seed sweep, a processor-count ablation, the six measured
//! programs behind the paper's figures. That independence is exactly
//! what a worker pool wants, **provided** parallelism never leaks into
//! the results: the contract here is that fanning N jobs across a
//! [`Pool`] returns the same values in the same order as running them
//! one by one, byte for byte.
//!
//! Two invariants make that hold:
//!
//! 1. **Work is claimed by index, returned by index.** Workers pull the
//!    next job off a shared atomic counter and write the result into the
//!    slot of the job that produced it; [`Pool::map`] then hands back the
//!    slots in input order. Completion order — which *does* vary run to
//!    run — is unobservable.
//! 2. **Jobs do not share mutable state.** The pool gives a job nothing
//!    but its input; anything it touches beyond that is the job author's
//!    bug, not a scheduling artifact.
//!
//! A sweep over seeds or processor counts is a [`Pool::map`] over its
//! keys in ascending order: the results come back in that order, so the
//! sweep's report reads identically no matter how the pool interleaved
//! it.
//!
//! A panicking job does not hang the pool: remaining workers drain, and
//! the panic is re-raised on the caller's thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A fixed-width worker pool over OS threads.
///
/// The pool is a value, not a set of running threads: each [`Pool::map`]
/// call spawns scoped workers for its own duration, so a `Pool` can be
/// shared freely and costs nothing while idle.
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running `jobs` tasks at once. `jobs = 0` asks the OS for
    /// the available parallelism (falling back to 1); `jobs = 1` is the
    /// serial reference the parallel runs must match.
    pub fn new(jobs: usize) -> Pool {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        Pool { jobs }
    }

    /// The serial reference pool (one worker, no spawned threads).
    pub fn serial() -> Pool {
        Pool { jobs: 1 }
    }

    /// Number of concurrent workers.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item, in parallel, returning the results in
    /// **input order** regardless of completion order.
    ///
    /// With one worker (or one item) this degenerates to a plain serial
    /// map on the calling thread — the parallel path is guaranteed to
    /// return exactly what this path returns.
    ///
    /// If `f` panics for some item, the panic is re-raised here after
    /// the other workers finish their in-flight jobs.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        if self.jobs <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Each input sits in its own slot; a worker claims index i via
        // the shared counter, takes slot i, and deposits the result in
        // output slot i. No lock is held while `f` runs.
        let inputs: Vec<Mutex<Option<I>>> =
            items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let outputs: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.jobs.min(n))
                .map(|_| {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = inputs[i]
                            .lock()
                            .expect("input slot")
                            .take()
                            .expect("each index claimed once");
                        let out = f(item);
                        *outputs[i].lock().expect("output slot") = Some(out);
                    })
                })
                .collect();
            // Join explicitly so an `f` panic surfaces with its own
            // payload (scope's automatic join would replace it with
            // "a scoped thread panicked"). Remaining workers drain
            // their in-flight jobs first.
            for w in workers {
                if let Err(p) = w.join() {
                    panicked.get_or_insert(p);
                }
            }
        });
        if let Some(p) = panicked {
            std::panic::resume_unwind(p);
        }
        outputs
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("output slot")
                    .expect("every slot filled")
            })
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(0)
    }
}

/// Run `f` and return its result with the wall-clock time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        let got = pool.map(items, |i| i * i);
        assert_eq!(got, expect);
    }

    #[test]
    fn parallel_map_equals_serial_map() {
        let items: Vec<u64> = (0..64).collect();
        let serial = Pool::serial().map(items.clone(), |i| i.wrapping_mul(0x9E37_79B9) >> 7);
        let parallel = Pool::new(8).map(items, |i| i.wrapping_mul(0x9E37_79B9) >> 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn completion_order_is_unobservable() {
        // Earlier items sleep longer, so completion order is roughly the
        // reverse of input order — the output must not care.
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..8).collect();
        let got = pool.map(items, |i| {
            std::thread::sleep(Duration::from_millis(2 * (8 - i)));
            i
        });
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert!(Pool::new(0).jobs() >= 1);
        assert_eq!(Pool::new(3).jobs(), 3);
        assert_eq!(Pool::serial().jobs(), 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        assert_eq!(pool.map(vec![7u32], |i| i + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::new(2);
        pool.map((0..8).collect::<Vec<u32>>(), |i| {
            if i == 3 {
                panic!("job 3 failed");
            }
            i
        });
    }
}
