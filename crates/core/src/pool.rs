//! A long-lived worker pool for streams of independent jobs.
//!
//! Started life in `qsyn-bench` driving the serve daemon's request
//! execution; it lives in the core crate now so `compile_stream` can
//! verify completed windows on the same pool machinery, and the daemon
//! front-end and the serve bench import it from here. Workers stay alive
//! across jobs: submit closures as they arrive, ask
//! [`WorkerPool::pending`] for backpressure decisions,
//! [`WorkerPool::drain`] to wait for quiescence, and
//! [`WorkerPool::shutdown`] to finish everything and join.
//!
//! Every job runs under `catch_unwind`, so a panicking job never takes a
//! worker down. Jobs are responsible for reporting their own results (the
//! daemon's jobs send pre-rendered response lines over a channel; the
//! streaming verifier's jobs write into a shared accumulator); a panic
//! that escapes a job is swallowed here because jobs already catch and
//! report panics themselves, and a second barrier keeps worker threads
//! immortal even if that reporting path itself panics.

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Default worker count for `--jobs`: the number of available CPUs.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Best-effort extraction of a caught panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// A long-lived thread pool for streams of independent jobs; see the
/// module docs.
pub struct WorkerPool {
    inner: std::sync::Arc<PoolInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

struct PoolState {
    queue: std::collections::VecDeque<Box<dyn FnOnce() + Send>>,
    in_flight: usize,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Signaled when work arrives or shutdown begins (workers wait here).
    work: std::sync::Condvar,
    /// Signaled when a job finishes (drainers wait here).
    done: std::sync::Condvar,
}

// Pool utilization metrics in the process-wide registry: how many
// workers exist, how many are busy right now, and the per-job run-time
// distribution (utilization over a window = Σ `pool.job_run_us` delta /
// (workers × window)).
qsyn_trace::metric_handles! {
    fn m_pool_workers() -> Gauge = "pool.workers";
    fn m_pool_busy() -> Gauge = "pool.busy_workers";
    fn m_pool_submitted() -> Counter = "pool.jobs_submitted";
    fn m_pool_completed() -> Counter = "pool.jobs_completed";
    fn m_pool_job_run() -> Histogram = "pool.job_run_us";
}

impl WorkerPool {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        m_pool_workers().set(workers.max(1) as i64);
        let inner = std::sync::Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: std::collections::VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            work: std::sync::Condvar::new(),
            done: std::sync::Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = std::sync::Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qsyn-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool { inner, workers }
    }

    /// Enqueues a job. Jobs run in submission order as workers free up.
    ///
    /// # Panics
    ///
    /// Panics if called after [`WorkerPool::shutdown`].
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        assert!(!state.shutdown, "submit after shutdown");
        state.queue.push_back(Box::new(job));
        drop(state);
        m_pool_submitted().inc();
        self.inner.work.notify_one();
    }

    /// Jobs admitted but not yet finished (queued plus running). The
    /// daemon's admission control compares this against its queue cap.
    pub fn pending(&self) -> usize {
        let state = self.inner.state.lock().expect("pool poisoned");
        state.queue.len() + state.in_flight
    }

    /// Blocks until every submitted job has finished.
    pub fn drain(&self) {
        let mut state = self.inner.state.lock().expect("pool poisoned");
        while !state.queue.is_empty() || state.in_flight > 0 {
            state = self.inner.done.wait(state).expect("pool poisoned");
        }
    }

    /// Finishes all queued jobs, then joins the workers. Called by `drop`
    /// if not called explicitly.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("pool poisoned");
            if state.shutdown && self.workers.is_empty() {
                return;
            }
            state.shutdown = true;
        }
        self.inner.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("pool poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.in_flight += 1;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work.wait(state).expect("pool poisoned");
            }
        };
        // Jobs report their own outcomes (including their own panics);
        // this outer barrier only guarantees the worker thread survives.
        m_pool_busy().inc();
        let job_started = std::time::Instant::now();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        m_pool_job_run().record_duration(job_started.elapsed());
        m_pool_busy().dec();
        m_pool_completed().inc();
        let mut state = inner.state.lock().expect("pool poisoned");
        state.in_flight -= 1;
        drop(state);
        inner.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn worker_pool_runs_every_job() {
        let pool = WorkerPool::new(4);
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let count = std::sync::Arc::clone(&count);
            pool.submit(move || {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        assert_eq!(count.load(Ordering::SeqCst), 100);
        assert_eq!(pool.pending(), 0);
        pool.shutdown();
    }

    #[test]
    fn worker_pool_survives_panicking_jobs() {
        let pool = WorkerPool::new(2);
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        for i in 0..20 {
            let count = std::sync::Arc::clone(&count);
            pool.submit(move || {
                if i % 3 == 0 {
                    panic!("job {i} exploded");
                }
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        // 0,3,6,9,12,15,18 panicked; the other 13 completed on the same
        // two workers, proving panics did not kill them.
        assert_eq!(count.load(Ordering::SeqCst), 13);
        pool.shutdown();
    }

    #[test]
    fn worker_pool_shutdown_finishes_queued_jobs() {
        let pool = WorkerPool::new(1);
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let count = std::sync::Arc::clone(&count);
            pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(count.load(Ordering::SeqCst), 10, "shutdown drains first");
    }
}
