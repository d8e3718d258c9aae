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
//! [`Sweep`] layers keyed collection on top: results come back sorted by
//! an `Ord` key such as `(experiment, seed, p)`, so a sweep's report
//! reads identically no matter how the pool interleaved it.
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

    /// A keyed sweep builder over this pool; see [`Sweep`].
    pub fn sweep<K: Ord + Send, T: Send>(&self) -> Sweep<'_, K, T> {
        Sweep {
            pool: self,
            jobs: Vec::new(),
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(0)
    }
}

/// A batch of keyed jobs whose results come back **sorted by key**.
///
/// The key — `(experiment, seed, config)` in the repro harness — pins
/// the output order to the job identity instead of the submission or
/// completion order, which is what lets a parallel sweep's report match
/// the serial one byte for byte.
pub struct Sweep<'p, K, T> {
    pool: &'p Pool,
    #[allow(clippy::type_complexity)]
    jobs: Vec<(K, Box<dyn FnOnce() -> T + Send + 'p>)>,
}

impl<'p, K: Ord + Send, T: Send> Sweep<'p, K, T> {
    /// Queue one job under `key`.
    pub fn add(mut self, key: K, job: impl FnOnce() -> T + Send + 'p) -> Self {
        self.jobs.push((key, Box::new(job)));
        self
    }

    /// Run every queued job on the pool and return `(key, result)`
    /// pairs sorted by key (ties keep submission order).
    pub fn run(self) -> Vec<(K, T)> {
        let pool = self.pool;
        let mut out: Vec<(K, T)> = pool.map(self.jobs, |(k, job)| (k, job()));
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
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
    fn sweep_sorts_by_key_not_completion() {
        let pool = Pool::new(4);
        let mut sweep = pool.sweep::<(u32, u32), u32>();
        // Submit in scrambled order; keys restore it.
        for (p, seed) in [(8u32, 2u32), (2, 1), (4, 2), (2, 2), (8, 1), (4, 1)] {
            sweep = sweep.add((p, seed), move || p * 100 + seed);
        }
        let got = sweep.run();
        let keys: Vec<(u32, u32)> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)]);
        assert!(got.iter().all(|((p, s), v)| *v == p * 100 + s));
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
