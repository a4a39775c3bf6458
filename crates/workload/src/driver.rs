//! Round-robin multi-user driver.
//!
//! The paper's concurrency experiments (Figures 10(b), 11(c)) run 1–32 users
//! against one physical disk. What degrades the native file systems there is
//! not CPU contention but *interleaving*: with several streams outstanding,
//! the disk head keeps jumping between them, so the long sequential runs that
//! make CleanDisk fast degenerate into random I/O.
//!
//! [`RoundRobinDriver`] reproduces exactly that mechanism deterministically:
//! each user is a task that performs one block-granular step at a time, the
//! driver interleaves the steps round-robin, every step charges the shared
//! simulated disk clock, and a user's access time is the simulated time from
//! its first step to its last (queueing delay included).
//!
//! For *real* (OS-thread) concurrency against the shared `&self` systems —
//! the agents and the oblivious store, each of which serves one call at a
//! time behind one lock — use [`ConcurrentDriver`]; for the session-churn
//! event streams those stress runs replay, see
//! [`ChurnWorkload`](crate::churn::ChurnWorkload).

/// Simulated start and end time of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskTiming {
    /// Simulated time (µs) when the task performed its first step.
    pub start_us: u64,
    /// Simulated time (µs) when the task finished its last step.
    pub end_us: u64,
}

impl TaskTiming {
    /// Elapsed simulated time for the task.
    pub fn elapsed_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// A boxed user task: one block-granular step per call, `true` on completion.
pub type UserTask<S> = Box<dyn FnMut(&mut S) -> bool>;

/// Deterministic round-robin scheduler for block-granular user tasks sharing
/// one system under test.
pub struct RoundRobinDriver;

impl RoundRobinDriver {
    /// Run all `tasks` against `system` until each reports completion.
    ///
    /// * `tasks[i]` is called as `task(&mut system)` and returns `true` when
    ///   user `i` has finished its workload.
    /// * `now` reads the shared simulated clock.
    ///
    /// Returns one [`TaskTiming`] per task.
    pub fn run<S, F, N>(system: &mut S, mut tasks: Vec<F>, now: N) -> Vec<TaskTiming>
    where
        F: FnMut(&mut S) -> bool,
        N: Fn() -> u64,
    {
        round_robin(&mut tasks, |task| task(system), &now)
    }

    /// Average elapsed time across tasks, in microseconds.
    pub fn mean_elapsed_us(timings: &[TaskTiming]) -> f64 {
        if timings.is_empty() {
            return 0.0;
        }
        timings.iter().map(|t| t.elapsed_us() as f64).sum::<f64>() / timings.len() as f64
    }
}

/// Multi-threaded driver: runs user tasks on scoped threads against a shared
/// system.
///
/// Where [`RoundRobinDriver`] owns the system mutably and interleaves steps
/// cooperatively on one thread, `ConcurrentDriver` hands every worker thread
/// the same `&S` — the system itself (e.g. `steghide::ConcurrentAgent`)
/// provides the interior synchronisation. Tasks are striped over the workers
/// (`task i` runs on thread `i % threads`) and each worker round-robins the
/// tasks of its stripe, so:
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
            for mut stripe in stripes {
                let collected = &collected;
                scope.spawn(move || {
                    let timings = round_robin(&mut stripe, |(_, task)| task(system), now);
                    let indexed = stripe.iter().map(|(index, _)| *index).zip(timings);
                    collected
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .extend(indexed);
                });
            }
        });
        let mut timings = collected.into_inner().unwrap_or_else(|e| e.into_inner());
        timings.sort_by_key(|(index, _)| *index);
        timings.into_iter().map(|(_, t)| t).collect()
    }
}

/// Round-robin `tasks` to completion: every pass steps each unfinished task
/// once, in order, and a task's timing runs from the start of its first step
/// to the end of its last. The one loop of both drivers, so one thread of
/// [`ConcurrentDriver`] visits tasks exactly as [`RoundRobinDriver`] does.
fn round_robin<T, N>(
    tasks: &mut [T],
    mut step: impl FnMut(&mut T) -> bool,
    now: &N,
) -> Vec<TaskTiming>
where
    N: Fn() -> u64,
{
    let mut timings: Vec<Option<TaskTiming>> = vec![None; tasks.len()];
    let mut done = vec![false; tasks.len()];
    let mut remaining = tasks.len();
    while remaining > 0 {
        for (i, task) in tasks.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            let start = now();
            let finished = step(task);
            let end = now();
            let timing = timings[i].get_or_insert(TaskTiming {
                start_us: start,
                end_us: end,
            });
            timing.end_us = end;
            if finished {
                done[i] = true;
                remaining -= 1;
            }
        }
    }
    // The loop above ran every task at least once, so every slot is set.
    timings.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake system: a clock that advances by a fixed amount per step.
    struct FakeSystem {
        clock: u64,
        step_cost: u64,
    }

    #[test]
    fn tasks_interleave_and_share_the_clock() {
        let mut system = FakeSystem {
            clock: 0,
            step_cost: 10,
        };
        // Two tasks of 3 steps each.
        let mk_task = |steps: u64| {
            let mut left = steps;
            move |s: &mut FakeSystem| {
                s.clock += s.step_cost;
                left -= 1;
                left == 0
            }
        };
        let tasks: Vec<_> = vec![mk_task(3), mk_task(3)];
        // `now` cannot borrow `system` while the closure also borrows it, so
        // emulate via a raw pointer-free trick: track time inside the system
        // and read it through a shared cell.
        let clock_snapshot = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let timings = {
            let tasks: Vec<UserTask<FakeSystem>> = tasks
                .into_iter()
                .map(|mut t| {
                    let clock_snapshot = clock_snapshot.clone();
                    Box::new(move |s: &mut FakeSystem| {
                        let done = t(s);
                        clock_snapshot.set(s.clock);
                        done
                    }) as UserTask<FakeSystem>
                })
                .collect();
            RoundRobinDriver::run(&mut system, tasks, || clock_snapshot.get())
        };
        assert_eq!(timings.len(), 2);
        // Total simulated time: 6 steps * 10.
        assert_eq!(system.clock, 60);
        // Each task's elapsed time spans most of the run because the other
        // task's steps are interleaved into it — the queueing effect.
        for t in &timings {
            assert!(t.elapsed_us() >= 40, "{t:?}");
        }
        assert!(RoundRobinDriver::mean_elapsed_us(&timings) >= 40.0);
    }

    #[test]
    fn single_task_runs_to_completion() {
        let mut counter = 0u64;
        let timings = RoundRobinDriver::run(
            &mut counter,
            vec![|c: &mut u64| {
                *c += 1;
                *c == 5
            }],
            || 0,
        );
        assert_eq!(counter, 5);
        assert_eq!(timings.len(), 1);
        assert_eq!(timings[0].elapsed_us(), 0);
    }

    #[test]
    fn tasks_of_different_lengths_all_finish() {
        let mut total = 0u64;
        let mk = |steps: u64| {
            let mut left = steps;
            move |t: &mut u64| {
                *t += 1;
                left -= 1;
                left == 0
            }
        };
        let timings = RoundRobinDriver::run(&mut total, vec![mk(1), mk(10), mk(3)], || 0);
        assert_eq!(total, 14);
        assert_eq!(timings.len(), 3);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(RoundRobinDriver::mean_elapsed_us(&[]), 0.0);
    }

    /// Shared counter system for the concurrent driver tests.
    struct SharedCounter {
        value: std::sync::atomic::AtomicU64,
    }

    impl SharedCounter {
        fn bump(&self) -> u64 {
            self.value
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1
        }
        fn get(&self) -> u64 {
            self.value.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    fn shared_task(steps: u64) -> impl FnMut(&SharedCounter) -> bool + Send {
        let mut left = steps;
        move |s: &SharedCounter| {
            s.bump();
            left -= 1;
            left == 0
        }
    }

    #[test]
    fn concurrent_driver_completes_all_tasks_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let system = SharedCounter {
                value: std::sync::atomic::AtomicU64::new(0),
            };
            let tasks: Vec<_> = vec![shared_task(5), shared_task(1), shared_task(9)];
            let timings = ConcurrentDriver::run(&system, tasks, threads, || system.get());
            assert_eq!(system.get(), 15, "{threads} threads");
            assert_eq!(timings.len(), 3);
        }
    }

    #[test]
    fn one_thread_matches_round_robin_visit_order() {
        // Record the (task, step) visit sequence under both drivers; with one
        // thread they must be identical.
        let log = std::sync::Mutex::new(Vec::new());
        let mk = |id: usize, steps: u64| {
            let log = &log;
            let mut left = steps;
            move |_: &SharedCounter| {
                log.lock().unwrap().push(id);
                left -= 1;
                left == 0
            }
        };
        let system = SharedCounter {
            value: std::sync::atomic::AtomicU64::new(0),
        };
        ConcurrentDriver::run(&system, vec![mk(0, 3), mk(1, 1), mk(2, 2)], 1, || 0);
        let concurrent_log = std::mem::take(&mut *log.lock().unwrap());

        let mut sequential_log = Vec::new();
        {
            let mk_seq = |id: usize, steps: u64, log: &mut Vec<usize>| {
                let _ = log;
                let mut left = steps;
                move |log: &mut Vec<usize>| {
                    log.push(id);
                    left -= 1;
                    left == 0
                }
            };
            let tasks = vec![
                mk_seq(0, 3, &mut sequential_log),
                mk_seq(1, 1, &mut sequential_log),
                mk_seq(2, 2, &mut sequential_log),
            ];
            RoundRobinDriver::run(&mut sequential_log, tasks, || 0);
        }
        assert_eq!(concurrent_log, sequential_log);
    }

    #[test]
    fn empty_task_list_returns_no_timings() {
        let system = SharedCounter {
            value: std::sync::atomic::AtomicU64::new(0),
        };
        let tasks: Vec<fn(&SharedCounter) -> bool> = vec![];
        assert!(ConcurrentDriver::run(&system, tasks, 4, || 0).is_empty());
    }

    #[test]
    fn timings_span_shared_clock_progress() {
        let system = SharedCounter {
            value: std::sync::atomic::AtomicU64::new(0),
        };
        let tasks: Vec<_> = vec![shared_task(4), shared_task(4)];
        let timings = ConcurrentDriver::run(&system, tasks, 2, || system.get());
        for t in &timings {
            assert!(t.end_us >= t.start_us);
            assert!(t.end_us <= 8);
        }
        assert!(RoundRobinDriver::mean_elapsed_us(&timings) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_panics() {
        let system = SharedCounter {
            value: std::sync::atomic::AtomicU64::new(0),
        };
        ConcurrentDriver::run(&system, vec![shared_task(1)], 0, || 0);
    }
}
