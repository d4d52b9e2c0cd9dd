//! The suite compilation driver and the generic work-stealing scheduler:
//! one driver, [`compile_entries`], compiles suite entries inline (one
//! worker) or on `std::thread::scope` workers, with deterministic result
//! ordering.
//!
//! Workers share the hint databases by reference (`HintDbs` is `Sync`:
//! lemmas and solvers are stateless `Send + Sync` trait objects) but each
//! owns its private `Compiler` state — including the side-condition memo
//! cache — so runs are isolated exactly as in a one-worker run. Results
//! are keyed by job index regardless of OS scheduling, so the output
//! order is input order and a harness comparing serial vs parallel output
//! can `assert_eq!` the two vectors directly.
//!
//! [`run_work_stealing`] is the scheduling primitive everything here (and
//! the service layer's concurrent multi-tenant server) is built on: a
//! hermetic `std::thread::scope` pool where each worker owns a deque of
//! job indices and, when its own deque drains, *steals* from the back of
//! a victim's. Stealing makes mixed workloads (a few long compilations
//! among many cheap cache hits) load-balance without any up-front cost
//! model, while the index-keyed result collection keeps the output
//! deterministic: which worker runs a job is scheduling-dependent, what
//! the job computes and where its result lands is not.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

use crate::suite;
use rupicola_core::{compile_with_limits, CompileError, CompiledFunction, EngineLimits, HintDbs};

/// Worker stack size: 16 MiB, comfortably above the deepest suite
/// derivation (`chacha20_block` recurses one frame per statement over a
/// ~670-let spine; the platform default for spawned threads is 2 MiB).
const WORKER_STACK_BYTES: usize = 16 * 1024 * 1024;

/// Runs `f` on a fresh thread with the scheduler's deep stack
/// ([`run_work_stealing`]'s workers get the same) and returns its result.
///
/// The single-threaded escape hatch for the perf suite's deep programs:
/// compiling, evaluating, or re-checking `chacha20_block` recurses one
/// frame per statement, which overflows default-sized stacks (2 MiB
/// spawned, 8 MiB test threads under debug-build frame sizes). Panics in
/// `f` propagate.
pub fn on_deep_stack<T, F>(f: F) -> T
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(WORKER_STACK_BYTES)
            .spawn_scoped(scope, f)
            .expect("failed to spawn deep-stack thread")
            .join()
            .expect("deep-stack closure panicked")
    })
}

/// The process-wide default worker count: `available_parallelism`,
/// probed once (it inspects cgroup quota files on Linux, which costs tens
/// of microseconds per call — comparable to a whole program compile).
pub fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Runs `njobs` jobs (identified by index) on `workers` scoped threads
/// with work stealing, returning the results in job-index order.
///
/// Scheduling: job indices are dealt round-robin into per-worker deques;
/// each worker pops from the *front* of its own deque and, when empty,
/// steals from the *back* of the first non-empty victim. Long jobs
/// therefore migrate work away from their worker automatically — the
/// scheduler needs no estimate of per-job cost. A worker exits when every
/// deque is empty; jobs are never re-queued, so each index runs exactly
/// once.
///
/// Determinism: `run` is called exactly once per index, results are
/// collected per-worker and merged by index, so the returned vector is a
/// pure function of `run` — independent of worker count, steal order, and
/// OS scheduling. `workers <= 1` (or a single job) runs inline without
/// spawning at all.
///
/// # Panics
///
/// Propagates a panicking `run` (after the scope joins the other
/// workers); the debug assertion that every index ran exactly once is a
/// scheduler-bug backstop, not a reachable state.
pub fn run_work_stealing<T, F>(njobs: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if njobs == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, njobs);
    if workers == 1 {
        return (0..njobs).map(run).collect();
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..njobs).step_by(workers).collect()))
        .collect();
    let queues = &queues;
    let run = &run;
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // Explicit 16 MiB stacks: scoped-spawn's platform default
                // (2 MiB) is too small for the perf suite's deepest
                // derivation (`chacha20_block`, a ~670-frame statement
                // judgment), and work stealing means any worker may land
                // on any job.
                let worker = move || {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own pop in its own statement: the guard drops
                        // here, so a thief never holds one queue's lock
                        // while waiting on another's (two idle workers
                        // stealing from each other would deadlock).
                        let own =
                            queues[w].lock().unwrap_or_else(PoisonError::into_inner).pop_front();
                        let job = own.or_else(|| {
                            (1..workers).find_map(|off| {
                                queues[(w + off) % workers]
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .pop_back()
                            })
                        });
                        match job {
                            Some(i) => done.push((i, run(i))),
                            None => return done,
                        }
                    }
                };
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, worker)
                    .expect("failed to spawn work-stealing worker")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("work-stealing worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(
        tagged.iter().enumerate().all(|(at, &(i, _))| at == i),
        "scheduler lost or duplicated a job"
    );
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// The outcome of compiling one suite program.
#[derive(Debug)]
pub struct SuiteResult {
    /// Program name (`ProgramInfo::name`).
    pub name: &'static str,
    /// The compilation outcome.
    pub result: Result<CompiledFunction, CompileError>,
}

/// Compiles every suite program against `dbs` under the work-stealing
/// scheduler, with the worker count capped at the machine's available
/// parallelism (and at the suite size). Hermetic: `std::thread::scope`
/// only, no external crates.
///
/// Determinism: compilation is a pure function of `(model, spec, dbs)`
/// and [`run_work_stealing`] keys results by job index — no shared
/// mutable state, no iteration-order dependence — so the returned vector
/// is byte-identical to a one-worker [`compile_entries`] run. On a
/// single-core machine the cap degenerates to one worker and the driver
/// compiles inline without spawning at all, so the parallel entry point
/// never pays thread-spawn overhead it cannot recoup.
pub fn compile_suite_parallel(dbs: &HintDbs) -> Vec<SuiteResult> {
    compile_entries(&suite(), dbs, &EngineLimits::default(), default_workers())
}

/// The one suite driver: compiles `entries` against `dbs` on `workers`
/// work-stealing workers, preserving slice order in the result. Each
/// entry's per-program limits adjustment is applied to `limits`; each
/// worker gets its own `Compiler` (and thus its own deadline clock,
/// started at its first judgment), so a `max_wall_ms` deadline bounds
/// each *program's* derivation, not the batch.
///
/// `workers = 1` is the serial driver: it compiles in slice order on the
/// calling thread, spawning nothing (deep programs such as
/// `chacha20_block` then need [`on_deep_stack`]). The result does not
/// depend on `workers`.
pub fn compile_entries(
    entries: &[crate::SuiteEntry],
    dbs: &HintDbs,
    limits: &EngineLimits,
    workers: usize,
) -> Vec<SuiteResult> {
    run_work_stealing(entries.len(), workers, |i| {
        let entry = &entries[i];
        SuiteResult {
            name: entry.info.name,
            result: compile_with_limits(
                &(entry.model)(),
                &(entry.spec)(),
                dbs,
                (entry.limits)(*limits),
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_ext::standard_dbs;

    #[test]
    fn work_stealing_runs_every_job_exactly_once_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1, 2, 3, 7, 16] {
            let calls = AtomicUsize::new(0);
            let out = run_work_stealing(23, workers, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                // Uneven job costs so stealing actually happens: every
                // eighth job is ~100x the others.
                if i % 8 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
                i * i
            });
            assert_eq!(calls.load(Ordering::Relaxed), 23, "workers={workers}");
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
        assert_eq!(run_work_stealing(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn work_stealing_never_deadlocks_on_trivial_jobs() {
        // Trivial jobs make workers go idle and steal from each other
        // almost at once — the interleaving in which a thief holding its
        // own queue's lock waits on a peer doing the same. A hang fails
        // the test through the timeout instead of wedging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..2000 {
                let njobs = 2 + round % 7;
                let workers = 2 + round % 3;
                let out = run_work_stealing(njobs, workers, |i| i);
                assert_eq!(out, (0..njobs).collect::<Vec<_>>());
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("run_work_stealing deadlocked (or panicked)");
    }

    #[test]
    fn parallel_matches_serial() {
        let dbs = standard_dbs();
        let serial = compile_entries(&suite(), &dbs, &EngineLimits::default(), 1);
        let parallel = compile_suite_parallel(&dbs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.name, p.name);
            let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            assert_eq!(s.function, p.function);
            assert_eq!(s.derivation, p.derivation);
        }
    }
}
