//! Differential test suite for the exact stationary solvers: the sparse
//! GTH path must agree `Ratio`-for-`Ratio` with the dense
//! Gaussian-elimination reference on randomized chains — stationary
//! distributions, absorption/long-run vectors, and end-to-end
//! non-inflationary query evaluation — plus the structural edge cases
//! (single state, periodic cycles, reducible chains).

mod common;

use common::chain_probability;
use pfq::lang::exact_noninflationary::ChainBudget;
use pfq::markov::absorption::long_run_distribution;
use pfq::markov::dense;
use pfq::markov::stationary::exact_stationary;
use pfq::markov::MarkovChain;
use pfq::num::Ratio;
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use pfq_fuzz::oracle::reference_chain_probability;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Random lazy sparse ergodic chain on `n` states: every row keeps a
/// self-loop (aperiodicity) and an edge to `(i + 1) % n` (irreducibility
/// via the Hamiltonian cycle), plus up to `extra` random extra targets,
/// with random small-rational weights normalized to an exact unit row.
fn random_ergodic(seed: u64, n: usize, extra: usize) -> MarkovChain<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|i| {
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            targets.insert(i);
            targets.insert((i + 1) % n);
            for _ in 0..extra {
                targets.insert(rng.gen_range(0..n));
            }
            let weights: Vec<i64> = targets.iter().map(|_| rng.gen_range(1..=9i64)).collect();
            let total: i64 = weights.iter().sum();
            targets
                .iter()
                .zip(&weights)
                .map(|(&j, &w)| (j, Ratio::new(w, total)))
                .collect::<Vec<_>>()
        })
        .collect();
    MarkovChain::from_rows((0..n as u32).collect(), rows).unwrap()
}

/// Random sparse chain with no connectivity guarantee: rows pick 1–3
/// arbitrary targets, so transient states, multiple recurrent classes,
/// and absorbing states all occur. Exercises the reducible solver path.
fn random_reducible(seed: u64, n: usize) -> MarkovChain<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rows = (0..n)
        .map(|_| {
            let k = rng.gen_range(1..=3usize);
            let mut targets: BTreeSet<usize> = BTreeSet::new();
            for _ in 0..k {
                targets.insert(rng.gen_range(0..n));
            }
            let weights: Vec<i64> = targets.iter().map(|_| rng.gen_range(1..=9i64)).collect();
            let total: i64 = weights.iter().sum();
            targets
                .iter()
                .zip(&weights)
                .map(|(&j, &w)| (j, Ratio::new(w, total)))
                .collect::<Vec<_>>()
        })
        .collect();
    MarkovChain::from_rows((0..n as u32).collect(), rows).unwrap()
}

fn assert_long_run_agrees(chain: &MarkovChain<u32>) {
    for start in 0..chain.len() {
        let dense = dense::long_run_distribution(chain, start).unwrap();
        let sparse = long_run_distribution(chain, start).unwrap();
        assert_eq!(dense, sparse, "long-run diverged from start {start}");
        let total: Ratio = sparse.iter().sum();
        assert!(total.is_one(), "long-run not a distribution");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GTH equals the dense reference bit-for-bit on random sparse
    /// ergodic chains.
    #[test]
    fn prop_stationary_gth_matches_dense(seed in any::<u64>(), n in 2usize..24, extra in 0usize..3) {
        let chain = random_ergodic(seed, n, extra);
        let dense = dense::stationary(&chain).unwrap();
        let sparse = exact_stationary(&chain).unwrap();
        prop_assert_eq!(&dense, &sparse);
        let total: Ratio = sparse.iter().sum();
        prop_assert!(total.is_one());
        prop_assert!(sparse.iter().all(|p| p.is_positive()));
    }

    /// The sparse censored absorption solve equals the dense (I − Q)
    /// solves on random reducible chains, from every start state.
    #[test]
    fn prop_long_run_gth_matches_dense_on_reducible(seed in any::<u64>(), n in 1usize..16) {
        let chain = random_reducible(seed, n);
        for start in 0..chain.len() {
            let dense = dense::long_run_distribution(&chain, start).unwrap();
            let sparse = long_run_distribution(&chain, start).unwrap();
            prop_assert_eq!(&dense, &sparse, "start {}", start);
        }
    }

    /// End to end: the engine's exact non-inflationary evaluation (GTH)
    /// returns the same rational as the dense reference oracle on random
    /// walk queries.
    #[test]
    fn prop_evaluate_agrees_end_to_end(seed in any::<u64>(), n in 2usize..6, p in 0.3f64..0.9) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = WeightedGraph::erdos_renyi(n, p, &mut rng);
        let (q, db) = walk_query(&g, 0, n as i64 - 1);
        let dense = reference_chain_probability(&q, &db, ChainBudget::default()).unwrap();
        let sparse = chain_probability(&q, &db);
        prop_assert_eq!(dense, sparse);
    }
}

#[test]
fn single_state_chain_agrees() {
    let chain = MarkovChain::from_rows(vec![0u32], vec![vec![(0, Ratio::one())]]).unwrap();
    let dense = dense::stationary(&chain).unwrap();
    let sparse = exact_stationary(&chain).unwrap();
    assert_eq!(dense, sparse);
    assert_eq!(sparse, vec![Ratio::one()]);
    assert_long_run_agrees(&chain);
}

#[test]
fn periodic_cycle_agrees() {
    // A deterministic 3-cycle: irreducible but periodic. The stationary
    // distribution (uniform) is still unique and both solvers find it.
    let one = Ratio::one;
    let chain = MarkovChain::from_rows(
        vec![0u32, 1, 2],
        vec![vec![(1, one())], vec![(2, one())], vec![(0, one())]],
    )
    .unwrap();
    let dense = dense::stationary(&chain).unwrap();
    let sparse = exact_stationary(&chain).unwrap();
    assert_eq!(dense, sparse);
    assert_eq!(sparse, vec![Ratio::new(1, 3); 3]);
}

#[test]
fn reducible_chain_with_transient_start_agrees() {
    // 0 and 1 are transient, feeding two separate absorbing classes:
    // the singleton {2} and the 2-cycle {3, 4}.
    let r = |a: i64, b: i64| Ratio::new(a, b);
    let chain = MarkovChain::from_rows(
        vec![0u32, 1, 2, 3, 4],
        vec![
            vec![(0, r(1, 2)), (1, r(1, 4)), (2, r(1, 4))],
            vec![(2, r(1, 3)), (3, r(2, 3))],
            vec![(2, Ratio::one())],
            vec![(4, Ratio::one())],
            vec![(3, Ratio::one())],
        ],
    )
    .unwrap();
    assert_long_run_agrees(&chain);
    // Spot-check the start-0 split: h(0) = ½h(0) + ¼h(1) + ¼ with
    // h(1) = 1/3, so a(leaf {2}) = 2/3 and a(leaf {3,4}) = 1/3, spread
    // uniformly over the 2-cycle.
    let lr = long_run_distribution(&chain, 0).unwrap();
    assert_eq!(
        lr,
        vec![Ratio::zero(), Ratio::zero(), r(2, 3), r(1, 6), r(1, 6)]
    );
}

#[test]
fn two_recurrent_classes_from_each_side() {
    // No transient states at all: two disjoint recurrent classes. The
    // long-run vector from a start depends only on the class it is in.
    let r = |a: i64, b: i64| Ratio::new(a, b);
    let chain = MarkovChain::from_rows(
        vec![0u32, 1, 2, 3],
        vec![
            vec![(0, r(1, 2)), (1, r(1, 2))],
            vec![(0, r(1, 2)), (1, r(1, 2))],
            vec![(2, r(3, 4)), (3, r(1, 4))],
            vec![(2, r(1, 4)), (3, r(3, 4))],
        ],
    )
    .unwrap();
    assert_long_run_agrees(&chain);
}
