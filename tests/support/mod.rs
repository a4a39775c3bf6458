//! Test support shared by the root integration tests that drive one system
//! from several threads (`concurrent_stress`, `concurrent_security`,
//! `determinism`, `driver_equivalence`).

use stegfs_repro::workload::{RoundRobinDriver, TaskTiming};

/// Multi-threaded driver: runs user tasks on scoped threads against a shared
/// system.
///
/// Where [`RoundRobinDriver`] owns the system mutably and interleaves steps
/// cooperatively on one thread, `ConcurrentDriver` hands every worker thread
/// the same `&S` — the system itself (e.g. `steghide::ConcurrentAgent`)
/// provides the interior synchronisation. Tasks are striped over the workers
/// (`task i` runs on thread `i % threads`) and each worker runs the tasks of
/// its stripe through [`RoundRobinDriver::run`], so:
///
/// * with `threads == 1` the visit order is *identical* to
///   [`RoundRobinDriver::run`] — the sequential driver remains the
///   equivalence oracle, and single-threaded runs stay deterministic;
/// * with more threads, stripes execute concurrently and the interleaving
///   across stripes is scheduler-dependent (value-deterministic workloads,
///   nondeterministic traces — see the README's Concurrency section).
pub struct ConcurrentDriver;

impl ConcurrentDriver {
    /// Run all `tasks` against the shared `system` on `threads` scoped
    /// threads until each reports completion. `now` reads the shared clock
    /// (wall or simulated); timings are per task, in input order.
    pub fn run<S, F, N>(system: &S, tasks: Vec<F>, threads: usize, now: N) -> Vec<TaskTiming>
    where
        S: Sync + ?Sized,
        F: FnMut(&S) -> bool + Send,
        N: Fn() -> u64 + Sync,
    {
        assert!(threads > 0, "thread count must be positive");
        let num_tasks = tasks.len();
        if num_tasks == 0 {
            return Vec::new();
        }
        let threads = threads.min(num_tasks);

        // Stripe the tasks: worker w owns tasks w, w + threads, w + 2·threads…
        let mut stripes: Vec<Vec<(usize, F)>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            stripes[i % threads].push((i, task));
        }

        let now = &now;
        let collected = std::sync::Mutex::new(Vec::with_capacity(num_tasks));
        std::thread::scope(|scope| {
            for stripe in stripes {
                let collected = &collected;
                scope.spawn(move || {
                    let (indices, stripe): (Vec<usize>, Vec<F>) = stripe.into_iter().unzip();
                    let steps: Vec<_> = stripe
                        .into_iter()
                        .map(|mut task| move |shared: &mut &S| task(*shared))
                        .collect();
                    let timings = RoundRobinDriver::run(&mut &*system, steps, now);
                    collected
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .extend(indices.into_iter().zip(timings));
                });
            }
        });
        let mut timings = collected.into_inner().unwrap_or_else(|e| e.into_inner());
        timings.sort_by_key(|(index, _)| *index);
        timings.into_iter().map(|(_, t)| t).collect()
    }
}
