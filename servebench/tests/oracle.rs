//! The generator is deterministic per seed, and the oracles agree with
//! full dynamic programming on small inputs.

use servebench::gen::{generate, mutate, random_string, Op, Rng, DNA, WORKLOADS};
use servebench::oracle::{banded_edit_distance, expected_replies};
use slcs_baselines::{edit_distance, prefix_rowmajor};

#[test]
fn the_generator_is_deterministic_per_seed() {
    for name in WORKLOADS {
        for tiny in [true, false] {
            let a = generate(name, 42, tiny).unwrap();
            let b = generate(name, 42, tiny).unwrap();
            assert_eq!(a.lines(), b.lines(), "{name}");
            assert_eq!(a.warmup, b.warmup);
            assert_eq!(a.cycle, b.cycle);
            let c = generate(name, 43, tiny).unwrap();
            assert_ne!(a.lines(), c.lines(), "{name}: seeds 42 and 43 collide");
        }
    }
    assert!(generate("nope", 1, true).is_none());
}

#[test]
fn workloads_have_the_documented_shape() {
    let kb = generate("kernel_build", 1, false).unwrap();
    // More distinct pairs than twice the engine's 128-entry cache.
    assert!(kb.pairs.len() >= 256);
    assert!(kb.pairs.iter().all(|p| (2048..=4096).contains(&p.a.len())));
    let se = generate("similar_edit", 1, false).unwrap();
    let bounded = se.entries.iter().filter(|e| matches!(e.op, Op::EditBounded { .. })).count();
    assert_eq!(bounded * 4, se.entries.len());
    let hq = generate("hot_query", 1, false).unwrap();
    assert_eq!(hq.warmup.len(), 32);
    // Every timed kernel request targets a pair the warm-up cached.
    for &i in &hq.cycle {
        let e = hq.entries[i];
        if e.pair >= 32 {
            assert_eq!(e.op, Op::Lcs);
            assert_eq!(hq.pairs[e.pair].a.len(), 1024);
        }
    }
}

#[test]
fn banded_edit_distance_matches_full_dp() {
    let mut rng = Rng::new(9);
    for round in 0..60 {
        let len = rng.range(1, 300);
        let base = random_string(&mut rng, len, DNA);
        let p = [0.0, 0.01, 0.05, 0.3][round % 4];
        let (copy, edits) = mutate(&mut rng, &base, p, DNA);
        let full = edit_distance(&base, &copy);
        assert!(full <= edits, "mutation count must bound the distance");
        assert_eq!(banded_edit_distance(&base, &copy, edits), full);
        assert_eq!(banded_edit_distance(&base, &copy, edits + 7), full);
    }
}

#[test]
fn expected_replies_match_full_dp() {
    for name in WORKLOADS {
        let wl = generate(name, 5, true).unwrap();
        let expected = expected_replies(&wl, 2);
        for (e, want) in wl.entries.iter().zip(&expected) {
            let p = &wl.pairs[e.pair];
            let (a, b) = (&p.a[..], &p.b[..]);
            let reply = match e.op {
                Op::Lcs => format!("OK {} bitpar bypass", prefix_rowmajor(a, b)),
                Op::Windows { w } => {
                    let all: Vec<usize> =
                        (0..=b.len() - w).map(|i| prefix_rowmajor(a, &b[i..i + w])).collect();
                    let best = *all.iter().max().unwrap();
                    let at = all.iter().position(|&s| s == best).unwrap();
                    let list = all.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",");
                    format!("OK {at} {best} {list}")
                }
                Op::Edit => format!("OK {}", edit_distance(a, b)),
                Op::EditBounded { k } => match edit_distance(a, b) {
                    d if d <= k => format!("OK {d}"),
                    _ => format!("OK gt {k}"),
                },
            };
            assert!(want.matches(&reply), "{name}: {:?} vs {reply:?}", want.text);
        }
    }
}
