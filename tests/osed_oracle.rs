//! Oracle tests for the output-sensitive edit-distance subsystem
//! (`slcs-osed`): the Landau–Vishkin diagonal BFS — sequential,
//! parallel, and bounded — against the O(nm) DP reference, against the
//! LCS algorithms via the classical distance/LCS identities, and on the
//! boundary shapes the BFS window arithmetic has to survive.

use proptest::prelude::*;

use semilocal_suite::baselines::{edit_distance as dp_edit_distance, prefix_rowmajor};
use semilocal_suite::datagen::{
    mutate_symbols, seeded_rng, similar_pair, uniform_string, MutationModel,
};
use semilocal_suite::osed::{
    edit_distance, edit_distance_bounded, par_edit_distance, par_edit_distance_grain,
};

fn arb_string(max_len: usize, sigma: u8) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..sigma, 0..=max_len)
}

/// A near-identical pair at one of the similarity levels the dispatcher
/// routes to osed, plus arbitrary-seed determinism.
fn similar_inputs(max_len: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (64..=max_len, 0u64..1 << 32, 0usize..3).prop_map(|(len, seed, which)| {
        let p = [0.002, 0.01, 0.05][which];
        similar_pair(&mut seeded_rng(seed), len, 4, p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- the DP reference is the ground truth ----------------------

    #[test]
    fn bfs_matches_dp_on_arbitrary_strings(
        a in arb_string(64, 4), b in arb_string(64, 4)
    ) {
        prop_assert_eq!(edit_distance(&a, &b), dp_edit_distance(&a, &b));
    }

    #[test]
    fn bfs_matches_dp_on_short_binary_and_dna_pairs(
        a2 in arb_string(10, 2), b2 in arb_string(10, 2),
        a4 in arb_string(10, 4), b4 in arb_string(10, 4)
    ) {
        // Lengths 0..=10 make empty and one-sided pairs common; the
        // explicit empty operands pin those shapes in every case.
        let empty = Vec::new();
        for (a, b) in [(&a2, &b2), (&a4, &b4), (&a2, &empty), (&empty, &b4), (&empty, &empty)] {
            prop_assert_eq!(edit_distance(a, b), dp_edit_distance(a, b));
        }
    }

    #[test]
    fn bfs_matches_dp_on_similar_pairs((a, b) in similar_inputs(512)) {
        prop_assert_eq!(edit_distance(&a, &b), dp_edit_distance(&a, &b));
    }

    // --- parallel and bounded variants are bit-equivalent ----------

    #[test]
    fn parallel_bfs_is_bit_equivalent(
        (a, b) in similar_inputs(512), grain in 1usize..64
    ) {
        let d = edit_distance(&a, &b);
        prop_assert_eq!(par_edit_distance(&a, &b), d);
        // A tiny grain forces real per-round splits even on small inputs.
        prop_assert_eq!(par_edit_distance_grain(&a, &b, grain), d);
    }

    #[test]
    fn bounded_bfs_is_exact_at_the_bound_and_none_below(
        a in arb_string(48, 4), b in arb_string(48, 4), slack in 0usize..4
    ) {
        let d = edit_distance(&a, &b);
        prop_assert_eq!(edit_distance_bounded(&a, &b, d + slack), Some(d));
        if d > 0 {
            prop_assert_eq!(edit_distance_bounded(&a, &b, d - 1), None);
        }
    }

    // --- consistency with the LCS half of the workspace ------------

    #[test]
    fn distance_is_sandwiched_by_the_lcs_identities(
        a in arb_string(64, 3), b in arb_string(64, 3)
    ) {
        // Unit-cost substitutions make Levenshtein at most the
        // indel-only distance n + m − 2·lcs and at least the
        // length-vs-subsequence bound max(n, m) − lcs.
        let lcs = prefix_rowmajor(&a, &b);
        let d = edit_distance(&a, &b);
        prop_assert!(d <= a.len() + b.len() - 2 * lcs);
        prop_assert!(d >= a.len().max(b.len()) - lcs);
    }

    #[test]
    fn deletion_only_pairs_hit_the_lcs_identity_exactly(
        seed in 0u64..1 << 32, len in 32usize..256
    ) {
        // When `b` is a subsequence of `a`, lcs = |b| and the optimal
        // alignment is pure deletion, so ed = n + m − 2·lcs exactly.
        let mut rng = seeded_rng(seed);
        let a = uniform_string(&mut rng, len, 4);
        let model = MutationModel { substitution: 0.0, insertion: 0.0, deletion: 0.1 };
        let b = mutate_symbols(&mut rng, &a, &model, 4);
        prop_assert_eq!(prefix_rowmajor(&a, &b), b.len());
        prop_assert_eq!(edit_distance(&a, &b), a.len() + b.len() - 2 * b.len());
    }
}

// --- boundary shapes ---------------------------------------------------

#[test]
fn empty_and_equal_inputs() {
    assert_eq!(edit_distance(b"", b""), 0);
    assert_eq!(edit_distance(b"", b"abc"), 3);
    assert_eq!(edit_distance(b"abc", b""), 3);
    assert_eq!(par_edit_distance(b"", b"abc"), 3);
    assert_eq!(edit_distance_bounded(b"", b"abc", 2), None);
    assert_eq!(edit_distance_bounded(b"", b"abc", 3), Some(3));
    let long = vec![7u8; 1000];
    assert_eq!(edit_distance(&long, &long), 0);
    assert_eq!(edit_distance_bounded(&long, &long, 0), Some(0));
}

#[test]
fn disjoint_alphabets_cost_one_substitution_per_overlap() {
    // No symbol ever matches, so the best alignment substitutes along
    // the shorter string and inserts the rest: max(n, m) edits.
    for (n, m) in [(1usize, 1usize), (5, 5), (3, 9), (40, 17)] {
        let a = vec![1u8; n];
        let b = vec![2u8; m];
        assert_eq!(edit_distance(&a, &b), n.max(m), "{n} vs {m}");
        assert_eq!(par_edit_distance(&a, &b), n.max(m));
        assert_eq!(dp_edit_distance(&a, &b), n.max(m));
    }
}

/// The `m + n = 2^16` boundary: ranks and diagonal ids stay well inside
/// `u32`/`i32`, the BFS window never indexes out of the frontier, and
/// the parallel variant agrees with sequential at a size where rounds
/// genuinely split. (The DP oracle is a thousand times too slow here;
/// substitution-only mutation pins the length so hamming distance is an
/// upper bound and the length gap a lower one.)
#[test]
fn two_power_sixteen_total_length_is_exact() {
    let mut rng = seeded_rng(95);
    let a = uniform_string(&mut rng, 1 << 15, 4);
    let model = MutationModel { substitution: 0.002, insertion: 0.0, deletion: 0.0 };
    let b = mutate_symbols(&mut rng, &a, &model, 4);
    assert_eq!(a.len() + b.len(), 1 << 16);
    let hamming = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    let d = edit_distance(&a, &b);
    assert!(d <= hamming, "{d} > hamming {hamming}");
    assert_eq!(par_edit_distance(&a, &b), d);
    assert_eq!(edit_distance_bounded(&a, &b, d), Some(d));
    if d > 0 {
        assert_eq!(edit_distance_bounded(&a, &b, d - 1), None);
    }
}
