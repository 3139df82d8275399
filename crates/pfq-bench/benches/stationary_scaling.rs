//! Stationary-solver scaling benchmark: dense rational Gaussian
//! elimination (the `pfq_markov::dense` reference oracle) vs sparse GTH
//! state elimination (the production path), at asserted bit-identical
//! `Ratio` answers.
//!
//! Correctness first: on kernel-built queue and coloring chains, an
//! absorbing chain, and a synthetic birth–death chain, both methods must
//! return identical rationals. Then scaling: a lazy symmetric
//! birth–death chain (row width ≤ 3, uniform π, small rational entries)
//! at n ∈ {200, 800, 3200}. The dense path is O(n³) time / O(n²) memory
//! and is minutes-deep by n = 3200 (≈ 10M `Ratio` matrix), so it is
//! timed only up to n = 800 in the table plus the n = 1200 speedup gate;
//! GTH's [`GthStats`] show peak memory stays linear (zero fill-in on a
//! banded chain).
//!
//! Run with `cargo bench -p pfq-bench --bench stationary_scaling`; pass
//! `-- --smoke` for the tiny CI configuration.

use pfq_bench::{fmt_duration, print_table, time_once};
use pfq_core::exact_noninflationary::{self, ChainBudget};
use pfq_markov::stationary::exact_stationary;
use pfq_markov::{absorption, dense, gth, MarkovChain};
use pfq_num::Ratio;
use pfq_workloads::coloring::ColoringMcmc;
use pfq_workloads::queue::BirthDeathQueue;

/// Lazy symmetric birth–death chain on `n` states: interior states move
/// ±1 w.p. 1/4 each and stay w.p. 1/2; boundaries stay w.p. 3/4.
/// Reversible with uniform π, so rational entry sizes stay small and the
/// timing isolates the solvers rather than bignum growth.
fn birth_death(n: usize) -> MarkovChain<u32> {
    let r = |a: i64, b: i64| Ratio::new(a, b);
    let rows = (0..n)
        .map(|i| {
            if i == 0 {
                vec![(0, r(3, 4)), (1, r(1, 4))]
            } else if i == n - 1 {
                vec![(n - 2, r(1, 4)), (n - 1, r(3, 4))]
            } else {
                vec![(i - 1, r(1, 4)), (i, r(1, 2)), (i + 1, r(1, 4))]
            }
        })
        .collect();
    MarkovChain::from_rows((0..n as u32).collect(), rows).unwrap()
}

/// Both exact methods on one chain, asserted bit-identical.
fn assert_methods_agree(chain: &MarkovChain<u32>, what: &str) {
    let dense = dense::stationary(chain);
    let sparse = exact_stationary(chain);
    assert_eq!(dense, sparse, "{what}: dense and GTH diverged");
}

fn correctness_suite() {
    // Kernel-built queue chain (banded, the motivating sparse shape).
    let q = BirthDeathQueue::new(6, 1, 1, 2);
    let (query, db) = q.length_query(0, 0);
    let chain = exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap();
    let dense = dense::long_run_distribution(&chain, 0).unwrap();
    let sparse = absorption::long_run_distribution(&chain, 0).unwrap();
    assert_eq!(dense, sparse, "queue chain long-run diverged");

    // Kernel-built Glauber coloring chain (denser rows).
    let g = ColoringMcmc::new(3, vec![(0, 1), (1, 2)], 3);
    let (query, db) = g.color_query(0, 0);
    let chain = exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap();
    for start in [0, chain.len() - 1] {
        let dense = dense::long_run_distribution(&chain, start).unwrap();
        let sparse = absorption::long_run_distribution(&chain, start).unwrap();
        assert_eq!(dense, sparse, "coloring chain long-run diverged");
    }

    // Reducible chain: two transients feeding two absorbing leaves —
    // exercises the sparse censored absorption solve end to end.
    let r = |a: i64, b: i64| Ratio::new(a, b);
    let absorbing = MarkovChain::from_rows(
        vec![0u32, 1, 2, 3],
        vec![
            vec![(0, r(1, 4)), (1, r(1, 4)), (2, r(1, 2))],
            vec![(2, r(1, 3)), (3, r(2, 3))],
            vec![(2, Ratio::one())],
            vec![(3, Ratio::one())],
        ],
    )
    .unwrap();
    for start in 0..absorbing.len() {
        let dense = dense::long_run_distribution(&absorbing, start).unwrap();
        let sparse = absorption::long_run_distribution(&absorbing, start).unwrap();
        assert_eq!(dense, sparse, "absorbing chain long-run diverged");
    }

    // Synthetic birth–death at a size where dense is still fast.
    assert_methods_agree(&birth_death(60), "birth–death n=60");
    println!("correctness: dense and GTH bit-identical on all suites\n");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    correctness_suite();

    // Scaling table. The dense solver is O(n²) memory — an n = 3200
    // matrix is ~10M `Ratio`s and minutes of elimination — so it is
    // timed only up to `dense_cap` and reported as skipped beyond.
    let (ns, dense_cap) = if smoke {
        (vec![50usize, 100], 100)
    } else {
        (vec![200usize, 800, 3200], 800)
    };
    let mut rows = Vec::new();
    for &n in &ns {
        let chain = birth_death(n);
        let (d_gth, (pi_gth, stats)) =
            time_once(|| gth::stationary_sparse_with_stats(&chain).unwrap());
        assert!(
            stats.peak_entries < 20 * n,
            "GTH peak memory not linear: {} entries at n = {n}",
            stats.peak_entries
        );
        let dense_cell = if n <= dense_cap {
            let (d_dense, pi_dense) = time_once(|| dense::stationary(&chain).unwrap());
            assert_eq!(pi_dense, pi_gth, "scaling row n = {n} diverged");
            fmt_duration(d_dense)
        } else {
            "skipped (O(n²) memory)".into()
        };
        rows.push(vec![
            n.to_string(),
            dense_cell,
            fmt_duration(d_gth),
            stats.peak_entries.to_string(),
            (n * n).to_string(),
        ]);
    }
    print_table(
        "Stationary solve scaling on a lazy birth–death chain (dense GE vs sparse GTH)",
        &[
            "states",
            "dense GE",
            "sparse GTH",
            "GTH peak entries",
            "dense entries (n²)",
        ],
        &rows,
    );

    // Speedup gate on a ≥ 1000-state sparse chain (full mode only —
    // the dense side alone is tens of seconds).
    if !smoke {
        let n = 1200usize;
        let chain = birth_death(n);
        let (d_gth, (pi_gth, stats)) =
            time_once(|| gth::stationary_sparse_with_stats(&chain).unwrap());
        let (d_dense, pi_dense) = time_once(|| dense::stationary(&chain).unwrap());
        assert_eq!(pi_dense, pi_gth, "speedup gate chain diverged");
        let speedup = d_dense.as_secs_f64() / d_gth.as_secs_f64();
        print_table(
            &format!("Speedup gate at n = {n}"),
            &["path", "wall-clock", "speedup", "peak entries"],
            &[
                vec![
                    "dense GE".into(),
                    fmt_duration(d_dense),
                    "1.0×".into(),
                    (n * n).to_string(),
                ],
                vec![
                    "sparse GTH".into(),
                    fmt_duration(d_gth),
                    format!("{speedup:.0}×"),
                    stats.peak_entries.to_string(),
                ],
            ],
        );
        assert!(
            speedup >= 5.0,
            "expected ≥5× GTH speedup at n = {n}, measured {speedup:.2}×"
        );
        assert!(
            stats.peak_entries < 20 * n,
            "GTH peak memory not linear at the gate: {}",
            stats.peak_entries
        );
    }
}
