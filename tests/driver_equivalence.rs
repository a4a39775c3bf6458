//! The test-support [`ConcurrentDriver`] against [`RoundRobinDriver`]: at
//! one thread it must reproduce the sequential driver *exactly* — same
//! per-step visit order, same final system state, same task timings — and at
//! any thread count it must apply every task's full effect exactly once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;
use stegfs_repro::workload::{RoundRobinDriver, TaskTiming};

mod support;
use support::ConcurrentDriver;

/// A shared system whose clock advances by a per-step cost and which logs
/// every step as `(task_id, clock_after)`.
struct LoggedSystem {
    clock: AtomicU64,
    step_cost: u64,
    log: Mutex<Vec<(usize, u64)>>,
}

impl LoggedSystem {
    fn new(step_cost: u64) -> Self {
        Self {
            clock: AtomicU64::new(0),
            step_cost,
            log: Mutex::new(Vec::new()),
        }
    }

    fn step(&self, task: usize) -> u64 {
        let after = self.clock.fetch_add(self.step_cost, Ordering::Relaxed) + self.step_cost;
        self.log.lock().unwrap().push((task, after));
        after
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    fn take_log(&self) -> Vec<(usize, u64)> {
        std::mem::take(&mut self.log.lock().unwrap())
    }
}

fn steps_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..12, 1..10)
}

/// Run the task set under the concurrent driver with `threads` workers.
fn run_concurrent(steps: &[u64], threads: usize) -> (Vec<(usize, u64)>, u64, Vec<TaskTiming>) {
    let system = LoggedSystem::new(10);
    let tasks: Vec<_> = steps
        .iter()
        .enumerate()
        .map(|(id, &n)| {
            let mut left = n;
            move |s: &LoggedSystem| {
                s.step(id);
                left -= 1;
                left == 0
            }
        })
        .collect();
    let timings = ConcurrentDriver::run(&system, tasks, threads, || system.now());
    (system.take_log(), system.now(), timings)
}

proptest! {
    /// One concurrent thread is the sequential driver: identical visit order,
    /// identical final clock, identical timings.
    #[test]
    fn one_thread_matches_round_robin(steps in steps_strategy()) {
        let (concurrent_log, concurrent_clock, concurrent_timings) = run_concurrent(&steps, 1);

        // Reference run through RoundRobinDriver over an equivalent system.
        let reference = LoggedSystem::new(10);
        let tasks: Vec<_> = steps
            .iter()
            .enumerate()
            .map(|(id, &n)| {
                let mut left = n;
                move |s: &mut &LoggedSystem| {
                    s.step(id);
                    left -= 1;
                    left == 0
                }
            })
            .collect();
        let mut shared = &reference;
        let reference_timings = RoundRobinDriver::run(&mut shared, tasks, || reference.now());

        prop_assert_eq!(concurrent_log, reference.take_log(), "visit order diverges");
        prop_assert_eq!(concurrent_clock, reference.now(), "final clock diverges");
        prop_assert_eq!(concurrent_timings, reference_timings, "timings diverge");
    }

    /// Whatever the thread count, every task performs exactly its number of
    /// steps, the shared clock sums them all, and per-task timings are
    /// well-formed.
    #[test]
    fn any_thread_count_applies_each_task_exactly_once(
        steps in steps_strategy(),
        threads in 1usize..9,
    ) {
        let (log, clock, timings) = run_concurrent(&steps, threads);
        let total: u64 = steps.iter().sum();
        prop_assert_eq!(clock, total * 10, "clock must sum every step");
        prop_assert_eq!(log.len() as u64, total);
        for (id, &n) in steps.iter().enumerate() {
            let count = log.iter().filter(|&&(t, _)| t == id).count() as u64;
            prop_assert_eq!(count, n, "task {} step count", id);
        }
        prop_assert_eq!(timings.len(), steps.len());
        for t in &timings {
            prop_assert!(t.end_us >= t.start_us);
            prop_assert!(t.end_us <= total * 10);
        }
    }
}

/// A shared counter system for the example-based cases.
fn counter() -> AtomicU64 {
    AtomicU64::new(0)
}

fn counting_task(steps: u64) -> impl FnMut(&AtomicU64) -> bool + Send {
    let mut left = steps;
    move |s: &AtomicU64| {
        s.fetch_add(1, Ordering::Relaxed);
        left -= 1;
        left == 0
    }
}

#[test]
fn concurrent_driver_completes_all_tasks_at_any_thread_count() {
    for threads in [1, 2, 3, 8] {
        let system = counter();
        let tasks: Vec<_> = vec![counting_task(5), counting_task(1), counting_task(9)];
        let timings =
            ConcurrentDriver::run(&system, tasks, threads, || system.load(Ordering::Relaxed));
        assert_eq!(system.load(Ordering::Relaxed), 15, "{threads} threads");
        assert_eq!(timings.len(), 3);
    }
}

#[test]
fn one_thread_matches_round_robin_visit_order() {
    // Record the task visit sequence under both drivers; with one thread
    // they must be identical.
    let log = Mutex::new(Vec::new());
    let mk = |id: usize, steps: u64| {
        let log = &log;
        let mut left = steps;
        move |_: &AtomicU64| {
            log.lock().unwrap().push(id);
            left -= 1;
            left == 0
        }
    };
    ConcurrentDriver::run(&counter(), vec![mk(0, 3), mk(1, 1), mk(2, 2)], 1, || 0);
    let concurrent_log = std::mem::take(&mut *log.lock().unwrap());

    let mk_seq = |id: usize, steps: u64| {
        let mut left = steps;
        move |log: &mut Vec<usize>| {
            log.push(id);
            left -= 1;
            left == 0
        }
    };
    let mut sequential_log = Vec::new();
    RoundRobinDriver::run(
        &mut sequential_log,
        vec![mk_seq(0, 3), mk_seq(1, 1), mk_seq(2, 2)],
        || 0,
    );
    assert_eq!(concurrent_log, sequential_log);
}

#[test]
fn empty_task_list_returns_no_timings() {
    let tasks: Vec<fn(&AtomicU64) -> bool> = vec![];
    assert!(ConcurrentDriver::run(&counter(), tasks, 4, || 0).is_empty());
}

#[test]
#[should_panic(expected = "thread count must be positive")]
fn zero_threads_panics() {
    ConcurrentDriver::run(&counter(), vec![counting_task(1)], 0, || 0);
}
