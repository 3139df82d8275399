//! Random walks and PageRank as forever-queries (paper Example 3.3).
//!
//! Run with `cargo run --example random_walk`.

use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::sampler::SamplerConfig;
use pfq::lang::{mixing_sampler, EvalCache};
use pfq::markov::{mixing, scc};
use pfq::num::Ratio;
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use pfq::workloads::pagerank::{pagerank_query, pagerank_reference};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A lazy cycle: aperiodic, so the walk converges to stationarity.
    let graph = WeightedGraph::cycle(6).lazy(1);
    println!("random walk on a lazy 6-cycle:");
    let (query, db) = walk_query(&graph, 0, 3);

    // Exact stationary probability via the explicit chain.
    let exact = exact_noninflationary::evaluate(
        &query,
        &db,
        ChainBudget::default(),
        &mut EvalCache::default(),
    )?;
    println!("  Pr[walker at node 3] = {exact} (exact; uniform by symmetry)");

    // The chain's structure and mixing time.
    let chain = exact_noninflationary::build_chain(&query, &db, ChainBudget::default())?;
    println!(
        "  chain: {} states, ergodic: {}",
        chain.len(),
        scc::is_ergodic(&chain)
    );
    let t = mixing::mixing_time(&chain, 0.01, 10_000).expect("ergodic chain mixes");
    println!("  mixing time t(0.01) = {t} steps");

    // Theorem 5.6: sample after a burn-in of one mixing time.
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let est = mixing_sampler::evaluate_with_burn_in_config(&query, &db, t, 0.05, 0.05, &config)?;
    println!(
        "  Pr[walker at node 3] ≈ {:.3} (burn-in {t}, {} samples)",
        est.estimate, est.samples
    );

    // PageRank: the damped variant, on an asymmetric graph.
    println!("\npagerank (α = 0.15) on a 4-node asymmetric graph:");
    let g = WeightedGraph {
        n: 4,
        edges: vec![(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 0, 1)],
    };
    let alpha = Ratio::new(3, 20);
    let reference = pagerank_reference(&g, 0.15, 300);
    for node in 0..4 {
        let (q, db) = pagerank_query(&g, alpha.clone(), 0, node);
        let p = exact_noninflationary::evaluate(
            &q,
            &db,
            ChainBudget::default(),
            &mut EvalCache::default(),
        )?;
        println!(
            "  node {node}: query = {:.6}, direct power iteration = {:.6}",
            p.to_f64(),
            reference[node as usize]
        );
    }
    Ok(())
}
