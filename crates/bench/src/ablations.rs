//! Ablation studies for the design choices DESIGN.md calls out — not
//! figures of the paper, but measurements justifying implementation
//! decisions: the precalc cut-off order, the rayon grain size of the
//! anti-diagonal inner loop, and the kernel-query data structure.

use slcs_braid::{steady_ant, steady_ant_precalc_capped};
use slcs_datagen::{normal_string, seeded_rng};
use slcs_perm::{DominanceTable, MergeSortTree, Permutation};
use slcs_semilocal::antidiag::{par_antidiag_combing_branchless_sched, Scheduling};
use slcs_semilocal::iterative_combing;

use crate::{fmt_duration, fmt_ratio, measure, Scale, Table};

/// All ablation ids.
pub const ALL_ABLATIONS: &[&str] = &["abl-precalc", "abl-grain", "abl-query", "abl-bsp"];

/// Dispatch by ablation id.
pub fn run(id: &str, scale: Scale) -> bool {
    match id {
        "abl-precalc" => precalc_order(scale),
        "abl-grain" => grain_size(scale),
        "abl-query" => query_structure(scale),
        "abl-bsp" => bsp_tradeoff(scale),
        _ => return false,
    }
    true
}

/// How deep should the precalc tables cut the steady-ant recursion?
/// The paper fixes order 5 (footnote 6); this sweeps 1..=5.
fn precalc_order(scale: Scale) {
    let n = match scale {
        Scale::Quick => 50_000,
        Scale::Default => 1_000_000,
        Scale::Full => 10_000_000,
    };
    let mut rng = seeded_rng(0xAB1);
    let p = Permutation::random(n, &mut rng);
    let q = Permutation::random(n, &mut rng);
    let mut table = Table::new(
        &format!("Ablation: precalc cut-off order (steady ant, size {n})"),
        &["cutoff", "time", "vs_no_precalc"],
    );
    let base = measure(3, || steady_ant(&p, &q));
    table.row(vec!["none".into(), fmt_duration(base), fmt_ratio(1.0)]);
    for cutoff in 1..=5usize {
        let t = measure(3, || steady_ant_precalc_capped(&p, &q, cutoff));
        table.row(vec![
            cutoff.to_string(),
            fmt_duration(t),
            fmt_ratio(base.as_secs_f64() / t.as_secs_f64()),
        ]);
    }
    table.print();
    let _ = table.write_csv("abl_precalc");
    println!("  each extra order halves the remaining recursion leaves; gains saturate");
    println!("  once leaf work stops dominating (the paper stops at 5! = 120 per side).");
}

/// Rayon grain size (minimum cells per task) in the anti-diagonal
/// combing inner loop: too small → fork/sync overhead per diagonal;
/// too large → no parallelism at all.
fn grain_size(scale: Scale) {
    let n = match scale {
        Scale::Quick => 4_000,
        Scale::Default => 10_000,
        Scale::Full => 50_000,
    };
    let mut rng = seeded_rng(0xAB2);
    let a = normal_string(&mut rng, n, 1.0);
    let b = normal_string(&mut rng, n, 1.0);
    let mut table = Table::new(
        &format!("Ablation: rayon grain size for anti-diagonal combing (n = {n})"),
        &["grain_cells", "time"],
    );
    for grain in [256usize, 1024, 4096, 8192, 32768, usize::MAX / 2] {
        let t = measure(3, || {
            par_antidiag_combing_branchless_sched(&a, &b, Scheduling::WorkSteal, grain)
        });
        let label = if grain >= usize::MAX / 2 {
            "∞ (sequential)".to_string()
        } else {
            grain.to_string()
        };
        table.row(vec![label, fmt_duration(t)]);
    }
    table.print();
    let _ = table.write_csv("abl_grain");
    println!("  the suite default is 8192 cells per task.");
}

/// The communication-vs-synchronisation picture (Tiskin, SPAA 2020):
/// predicted BSP times of the fine-grained wavefront comb vs the
/// coarse-grained strip-plus-braid-multiplication algorithm, across
/// machines of increasing barrier latency. Constants calibrated against
/// this repository's implementations on the running CPU.
fn bsp_tradeoff(scale: Scale) {
    use slcs_bsp::{sweep_machines, BspMachine, Calibration};
    let n = match scale {
        Scale::Quick => 10_000,
        Scale::Default => 100_000,
        Scale::Full => 1_000_000,
    };
    let cal = Calibration::measure();
    println!(
        "\ncalibrated: {:.2} ns/cell (combing), {:.2} ns/element/level (steady ant)",
        cal.ns_per_cell, cal.ns_per_ant_element
    );
    let mut table = Table::new(
        &format!("Ablation: BSP predicted times, m = n = {n}, p = 8 (units: cell ops)"),
        &["g", "l", "wavefront", "strip+braid", "winner"],
    );
    for &(g, l) in
        &[(1.0f64, 1e2f64), (1.0, 1e4), (1.0, 1e6), (1.0, 1e8), (10.0, 1e4), (100.0, 1e4)]
    {
        let machine = BspMachine { p: 8, g, l };
        let rows = sweep_machines(n, n, &[machine], &cal, 64 * 64);
        let r = &rows[0];
        let winner = if r.wavefront <= r.strip { "wavefront" } else { "strip" };
        table.row(vec![
            format!("{g}"),
            format!("{l:.0e}"),
            format!("{:.3e}", r.wavefront),
            format!("{:.3e}", r.strip),
            winner.to_string(),
        ]);
    }
    table.print();
    let _ = table.write_csv("abl_bsp");
    println!("  ref [25]: wavefront is work-optimal but pays Θ(n) barriers; the braid");
    println!("  algorithm pays Θ(log p) barriers plus log-linear multiplication work.");
}

/// Kernel score queries: merge-sort tree vs linear scan vs dense table,
/// as a function of kernel order and query count.
fn query_structure(scale: Scale) {
    let sizes = scale.pick(&[1_000usize], &[1_000, 10_000, 100_000], &[10_000, 1_000_000]);
    let mut table = Table::new(
        "Ablation: dominance-query structures (build + 1000 random queries)",
        &["order", "tree_build", "tree_1k_queries", "scan_1k_queries", "dense_build"],
    );
    let mut rng = seeded_rng(0xAB3);
    for &n in &sizes {
        let a = normal_string(&mut rng, n / 2, 1.0);
        let b = normal_string(&mut rng, n - n / 2, 1.0);
        let kernel = iterative_combing(&a, &b);
        let perm = kernel.permutation().clone();
        use rand::RngExt;
        let queries: Vec<(usize, usize)> =
            (0..1000).map(|_| (rng.random_range(0..=n), rng.random_range(0..=n))).collect();
        let t_build = measure(3, || MergeSortTree::new(&perm));
        let tree = MergeSortTree::new(&perm);
        let t_tree =
            measure(3, || queries.iter().map(|&(i, j)| tree.dominance_sum(i, j)).sum::<usize>());
        let t_scan = measure(1, || {
            queries.iter().map(|&(i, j)| perm.dominance_sum_scan(i, j)).sum::<usize>()
        });
        // dense table is quadratic memory — skip beyond 10k
        let t_dense = if n <= 10_000 {
            fmt_duration(measure(1, || DominanceTable::new(&perm)))
        } else {
            "(skipped: O(n²) memory)".to_string()
        };
        table.row(vec![
            n.to_string(),
            fmt_duration(t_build),
            fmt_duration(t_tree),
            fmt_duration(t_scan),
            t_dense,
        ]);
    }
    table.print();
    let _ = table.write_csv("abl_query");
    println!("  the tree wins once more than a handful of queries amortize its build;");
    println!("  traversal queries (windows_linear, h_row) bypass all three.");
}
