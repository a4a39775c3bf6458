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
    /// Run all `tasks` against `system` until each reports completion: every
    /// pass steps each unfinished task once, in order.
    ///
    /// * `tasks[i]` is called as `task(&mut system)` and returns `true` when
    ///   user `i` has finished its workload.
    /// * `now` reads the shared simulated clock.
    ///
    /// Returns one [`TaskTiming`] per task, from the start of its first step
    /// to the end of its last.
    pub fn run<S, F, N>(system: &mut S, mut tasks: Vec<F>, now: N) -> Vec<TaskTiming>
    where
        F: FnMut(&mut S) -> bool,
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
                let finished = task(system);
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

    /// Average elapsed time across tasks, in microseconds.
    pub fn mean_elapsed_us(timings: &[TaskTiming]) -> f64 {
        if timings.is_empty() {
            return 0.0;
        }
        timings.iter().map(|t| t.elapsed_us() as f64).sum::<f64>() / timings.len() as f64
    }
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

    /// A counter system shared by reference, as a multi-threaded driver
    /// shares one: `RoundRobinDriver` then owns the reference mutably.
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

    fn shared_task(steps: u64) -> impl FnMut(&mut &SharedCounter) -> bool {
        let mut left = steps;
        move |s: &mut &SharedCounter| {
            s.bump();
            left -= 1;
            left == 0
        }
    }

    #[test]
    fn empty_task_list_returns_no_timings() {
        let system = SharedCounter {
            value: std::sync::atomic::AtomicU64::new(0),
        };
        let tasks: Vec<fn(&mut &SharedCounter) -> bool> = vec![];
        assert!(RoundRobinDriver::run(&mut &system, tasks, || 0).is_empty());
    }

    #[test]
    fn timings_span_shared_clock_progress() {
        let system = SharedCounter {
            value: std::sync::atomic::AtomicU64::new(0),
        };
        let tasks: Vec<_> = vec![shared_task(4), shared_task(4)];
        let timings = RoundRobinDriver::run(&mut &system, tasks, || system.get());
        for t in &timings {
            assert!(t.end_us >= t.start_us);
            assert!(t.end_us <= 8);
        }
        assert!(RoundRobinDriver::mean_elapsed_us(&timings) >= 0.0);
    }
}
