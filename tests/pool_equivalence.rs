//! Kernel-equivalence tests for the parallel anti-diagonal drivers: the
//! work-stealing sweep and every element width must produce a kernel
//! bit-identical to the sequential row-major combing, for arbitrary
//! inputs, for any team size the pool happens to form, and at the
//! `m + n = 2^16` capacity boundary of the 16-bit variant.
//!
//! The default-grain entry points (`PAR_GRAIN` = 8192 cells) never split
//! test-sized inputs, so the team path is driven through
//! `par_antidiag_combing_branchless_sched` with explicit small grains;
//! the branching and u16 cells get the same treatment in the
//! `slcs_semilocal::antidiag` unit tests.

use proptest::prelude::*;

use semilocal_suite::semilocal::load_balanced::par_load_balanced_combing;
use semilocal_suite::semilocal::{
    iterative_combing, par_antidiag_combing, par_antidiag_combing_branchless,
    par_antidiag_combing_branchless_sched, par_antidiag_combing_u16, Scheduling,
};

fn arb_string(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..4).prop_map(|s| b"acgt"[s as usize]), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All default-grain parallel variants match the sequential kernel.
    #[test]
    fn parallel_variants_match_iterative((a, b) in (arb_string(220), arb_string(220))) {
        let expected = iterative_combing(&a, &b);
        prop_assert_eq!(&par_antidiag_combing(&a, &b), &expected);
        prop_assert_eq!(&par_antidiag_combing_branchless(&a, &b), &expected);
        prop_assert_eq!(&par_antidiag_combing_u16(&a, &b), &expected);
        prop_assert_eq!(&par_load_balanced_combing(&a, &b), &expected);
    }

    /// Both schedules agree, across explicit grains that force
    /// multi-member teams and multi-chunk diagonals.
    #[test]
    fn scheduling_modes_match_iterative(
        (a, b) in (arb_string(180), arb_string(180)),
        grain in 1usize..64,
    ) {
        let expected = iterative_combing(&a, &b);
        for sched in [Scheduling::Seq, Scheduling::WorkSteal] {
            let got = par_antidiag_combing_branchless_sched(&a, &b, sched, grain);
            prop_assert_eq!(&got, &expected, "sched={:?} grain={}", sched, grain);
        }
    }
}

/// The u16 variant packs strand indices into 16 bits, so `m + n` may be
/// at most 65536. Exercise exactly that boundary (with a skewed shape so
/// the test stays fast) and one cell short of it.
#[test]
fn u16_boundary_at_exactly_two_pow_16() {
    let mut rng = semilocal_suite::datagen::seeded_rng(7);
    for n in [200usize, 199] {
        let m = (1usize << 16) - n;
        let a = semilocal_suite::datagen::uniform_string(&mut rng, m, 4);
        let b = semilocal_suite::datagen::uniform_string(&mut rng, n, 4);
        let expected = iterative_combing(&a, &b);
        assert_eq!(par_antidiag_combing_u16(&a, &b), expected, "m={m} n={n}");
        // The boundary must also hold under the work-stealing sweep with
        // a grain small enough to split the short diagonals.
        let got = par_antidiag_combing_branchless_sched(&a, &b, Scheduling::WorkSteal, 16);
        assert_eq!(got, expected, "work_steal m={m} n={n}");
    }
}

/// Team results are independent of the thread budget (and hence of the
/// team size actually formed).
#[test]
fn team_results_independent_of_thread_budget() {
    let mut rng = semilocal_suite::datagen::seeded_rng(11);
    let a = semilocal_suite::datagen::uniform_string(&mut rng, 500, 4);
    let b = semilocal_suite::datagen::uniform_string(&mut rng, 350, 4);
    let expected = iterative_combing(&a, &b);
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for grain in [1usize, 48] {
            let got = pool.install(|| {
                par_antidiag_combing_branchless_sched(&a, &b, Scheduling::WorkSteal, grain)
            });
            assert_eq!(got, expected, "threads={threads} grain={grain}");
        }
        let lb = pool.install(|| par_load_balanced_combing(&a, &b));
        assert_eq!(lb, expected, "load-balanced threads={threads}");
    }
}
