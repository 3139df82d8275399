//! MCMC programmed declaratively: Glauber dynamics for graph colorings.
//!
//! The paper's introduction argues that datalog-like languages for
//! Markov chains would let one “program MCMC applications on a higher
//! level of abstraction”. This example does exactly that: the classic
//! heat-bath Glauber dynamics over proper graph colorings is expressed
//! as a single algebra kernel (see `pfq_workloads::coloring`), and the
//! whole evaluation stack — explicit chain construction, exact
//! stationary analysis, mixing times, burn-in sampling — applies to it
//! unchanged.
//!
//! Run with `cargo run --release --example mcmc_coloring`.

use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::sampler::SamplerConfig;
use pfq::lang::{mixing_sampler, EvalCache};
use pfq::markov::{conductance, mixing, scc};
use pfq::workloads::coloring::ColoringMcmc;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-cycle with q = 4 colors (Δ = 2, so q ≥ Δ + 2 ⇒ irreducible).
    let g = ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], 4);
    println!("Glauber dynamics on a 4-cycle, q = 4 colors");
    println!("kernel:\n{}", g.kernel());

    let proper = g.enumerate_proper_colorings();
    println!("proper colorings (brute force): {}", proper.len());

    // Build the explicit chain and check its structure.
    let (query, db) = g.color_query(0, 0);
    let chain = exact_noninflationary::build_chain(&query, &db, ChainBudget::default())?;
    println!(
        "chain: {} states, irreducible: {}, ergodic: {}",
        chain.len(),
        scc::is_irreducible(&chain),
        scc::is_ergodic(&chain)
    );
    assert_eq!(chain.len(), proper.len());

    // Exact stationary distribution: uniform over proper colorings.
    let p = exact_noninflationary::evaluate(
        &query,
        &db,
        ChainBudget::default(),
        &mut EvalCache::default(),
    )?;
    let count_with = proper.iter().filter(|c| c[0] == 0).count();
    println!(
        "Pr[vertex 0 colored 0] = {p} (counting: {count_with}/{} = {})",
        proper.len(),
        pfq::num::Ratio::new(count_with as i64, proper.len() as i64)
    );

    // Mixing diagnostics: measured t(ε) and the conductance certificate.
    let t = mixing::mixing_time(&chain, 0.05, 100_000).expect("ergodic");
    println!("measured mixing time t(0.05) = {t} steps");
    if chain.len() <= 25 {
        if let Some(phi) = conductance::conductance(&chain) {
            println!("conductance Φ = {phi} (≈ {:.4})", phi.to_f64());
        }
    }

    // Theorem 5.6 sampling. Burn-in 2t halves the residual TV bias; the
    // total error budget is ε_mix + ε_sampling.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let est =
        mixing_sampler::evaluate_with_burn_in_config(&query, &db, 2 * t, 0.05, 0.05, &config)?;
    println!(
        "sampled Pr[vertex 0 colored 0] ≈ {:.4} ({} samples, burn-in {})",
        est.estimate,
        est.samples,
        2 * t
    );
    assert!((est.estimate - p.to_f64()).abs() < 0.1);
    Ok(())
}
