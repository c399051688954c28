//! Stress tests for the vendored rayon executor: the persistent worker
//! pool, nested `join` under tight budgets, concurrent `install` scopes,
//! panic propagation, and the team/barrier extension.
//!
//! These deliberately run unconstrained (`RUST_TEST_THREADS` is *not*
//! pinned for this binary in CI) so the scenarios genuinely overlap.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Reference sum used by the recursive join workloads.
fn expected_sum(n: u64) -> u64 {
    (0..n).sum()
}

fn join_sum(lo: u64, hi: u64, fanout_below: u64) -> u64 {
    if hi - lo <= fanout_below {
        (lo..hi).sum()
    } else {
        let mid = lo + (hi - lo) / 2;
        let (a, b) =
            rayon::join(|| join_sum(lo, mid, fanout_below), || join_sum(mid, hi, fanout_below));
        a + b
    }
}

#[test]
fn nested_joins_under_two_thread_budget() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    // Deep recursion: forks far outnumber the budget, so most joins run
    // sequentially and the rest drain through the shared pool — the test
    // is that this neither deadlocks nor loses work.
    let total = pool.install(|| join_sum(0, 200_000, 64));
    assert_eq!(total, expected_sum(200_000));
}

#[test]
fn concurrent_installs_from_eight_threads() {
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let done = &done;
            scope.spawn(move || {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(1 + t % 4).build().unwrap();
                let total = pool.install(|| join_sum(0, 50_000, 128));
                assert_eq!(total, expected_sum(50_000));
                assert_eq!(pool.install(rayon::current_num_threads), 1 + t % 4);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), 8);
}

#[test]
fn panic_in_forked_arm_propagates_and_pool_survives() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let before = rayon::pool_spawned_workers();
    for round in 0..16 {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                rayon::join(
                    || 1 + 1,
                    || {
                        if round % 2 == 0 {
                            panic!("forked arm panic {round}");
                        }
                        0
                    },
                )
            })
        }));
        if round % 2 == 0 {
            assert!(caught.is_err(), "round {round} should panic");
        } else {
            assert_eq!(caught.unwrap(), (2, 0));
        }
    }
    // Workers are persistent: a panicking task must not kill or leak
    // them. The pool can only have grown toward the budget, never past
    // the process-wide high-water mark plus this pool's budget.
    let after = rayon::pool_spawned_workers();
    assert!(after >= before);
    assert!(after <= before + 4, "worker leak: {before} -> {after}");
    // ... and the pool still computes correct results afterwards.
    assert_eq!(pool.install(|| join_sum(0, 10_000, 32)), expected_sum(10_000));
}

#[test]
fn panic_in_first_arm_wins_and_second_arm_completes() {
    // With a ≥2-thread budget the second arm is usually published to
    // the pool before the first arm panics, so `join` must wait for it
    // even while unwinding. When concurrent joins hold the budget,
    // `join` runs sequentially, and the second arm must still run.
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let ran_b = AtomicUsize::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            rayon::join(
                || panic!("arm a"),
                || {
                    ran_b.fetch_add(1, Ordering::Relaxed);
                },
            )
        })
    }));
    let payload = caught.unwrap_err();
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"arm a"));
    assert_eq!(ran_b.load(Ordering::Relaxed), 1, "second arm must still run to completion");
}

#[test]
fn parallel_iterators_survive_a_panic_storm() {
    use rayon::prelude::*;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            (0..1000usize).into_par_iter().with_min_len(16).for_each(|i| {
                if i == 613 {
                    panic!("chunk panic");
                }
            })
        })
    }));
    assert!(caught.is_err());
    let sum: usize = pool.install(|| (0..1000usize).into_par_iter().with_min_len(16).sum());
    assert_eq!(sum, 1000 * 999 / 2);
}

#[test]
fn team_run_panic_poisons_and_rethrows() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            rayon::team_run(4, |view| {
                if !view.barrier() {
                    return;
                }
                if view.id == 0 {
                    panic!("leader panic");
                }
                // Members spin on the next barrier until the poison flag
                // releases them.
                let _ = view.barrier();
            })
        })
    }));
    assert!(caught.is_err(), "team panic must reach the caller");
    // The team machinery is reusable after a poisoned run.
    let hits = AtomicUsize::new(0);
    pool.install(|| {
        rayon::team_run(3, |view| {
            for _ in 0..10 {
                hits.fetch_add(1, Ordering::Relaxed);
                if !view.barrier() {
                    return;
                }
            }
        })
    });
    assert_eq!(hits.load(Ordering::Relaxed) % 10, 0);
    assert!(hits.load(Ordering::Relaxed) >= 10);
}

#[test]
fn concurrent_team_runs_do_not_interfere() {
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
                for _ in 0..20 {
                    let total = AtomicUsize::new(0);
                    pool.install(|| {
                        rayon::team_run(2, |view| {
                            for step in 0..8 {
                                total.fetch_add(view.id + step, Ordering::Relaxed);
                                if !view.barrier() {
                                    return;
                                }
                            }
                        })
                    });
                    let size_witness = total.load(Ordering::Relaxed);
                    // Each member adds sum(0..8) = 28 plus 8 * id; with
                    // team size s the total is 28 s + 8 * s(s-1)/2.
                    assert!(
                        (1..=2).any(|s| size_witness == 28 * s + 8 * (s * (s - 1) / 2)),
                        "inconsistent team accounting: {size_witness}"
                    );
                }
            });
        }
    });
}

#[test]
fn executor_counters_stay_consistent_under_stress() {
    let before = rayon::pool_stats();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let total = pool.install(|| join_sum(0, 100_000, 64));
    assert_eq!(total, expected_sum(100_000));
    for _ in 0..8 {
        pool.install(|| {
            rayon::team_run(3, |view| {
                std::hint::black_box(view.id);
                let _ = view.barrier();
            })
        });
    }
    let after = rayon::pool_stats();

    // Deltas: this workload injected plenty of jobs and exactly eight
    // team runs (other tests may add more concurrently, never less).
    assert!(after.jobs_executed > before.jobs_executed, "no jobs counted: {after:?}");
    assert!(after.team_runs >= before.team_runs + 8, "team runs lost: {before:?} -> {after:?}");

    // Global invariants that hold at any snapshot: a job is executed
    // only after its acquisition was counted (injector pop, local deque
    // hit, or steal — same thread, in order), and every unpark follows
    // the park it wakes from.
    assert!(
        after.injector_pops + after.local_hits + after.steals >= after.jobs_executed,
        "more executions than acquisitions: {after:?}"
    );
    // Every deque entry is delivered at most once: local hits and
    // steals both drain what pushes put in.
    assert!(
        after.deque_pushes >= after.local_hits + after.steals,
        "deque delivered more than was pushed: {after:?}"
    );
    assert!(after.parks >= after.unparks, "more unparks than parks: {after:?}");
}
