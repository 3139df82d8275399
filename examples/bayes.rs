//! Bayesian inference in probabilistic datalog (paper Example 3.10).
//!
//! Builds the classic sprinkler network, encodes it in the paper's
//! `S_k`/`T_k` relations, computes marginals with the datalog engine,
//! and cross-checks against brute-force joint enumeration.
//!
//! Run with `cargo run --example bayes`.

use pfq::lang::exact_inflationary::{self, ExactBudget};
use pfq::lang::sampler::SamplerConfig;
use pfq::lang::{sample_inflationary, EvalCache};
use pfq::num::Ratio;
use pfq::workloads::bayes::BayesNet;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The sprinkler network: 0 = rain, 1 = sprinkler, 2 = wet grass.
    //   Pr[rain] = 1/5
    //   Pr[sprinkler | rain] = 1/100 ≈ off, Pr[sprinkler | ¬rain] = 2/5
    //   Pr[wet | s, r] per the usual table.
    let net = BayesNet::new(
        vec![vec![], vec![0], vec![0, 1]],
        vec![
            vec![Ratio::new(1, 5)],
            vec![Ratio::new(2, 5), Ratio::new(1, 100)],
            // mask bit 0 = rain, bit 1 = sprinkler.
            vec![
                Ratio::new(0, 1),    // ¬r, ¬s
                Ratio::new(4, 5),    // r, ¬s
                Ratio::new(9, 10),   // ¬r, s
                Ratio::new(99, 100), // r, s
            ],
        ],
    );

    println!("datalog program (Example 3.10 shape):\n{}", net.program());

    let db = net.to_database();
    let cases: &[(&str, Vec<(usize, bool)>)] = &[
        ("Pr[rain]", vec![(0, true)]),
        ("Pr[sprinkler]", vec![(1, true)]),
        ("Pr[wet]", vec![(2, true)]),
        ("Pr[rain ∧ wet]", vec![(0, true), (2, true)]),
        ("Pr[¬rain ∧ wet]", vec![(0, false), (2, true)]),
    ];
    for (label, observed) in cases {
        let query = net.marginal_query(observed);
        let exact = exact_inflationary::evaluate(
            &query,
            &db,
            ExactBudget::default(),
            &mut EvalCache::default(),
        )?;
        let reference = net.marginal_reference(observed);
        assert_eq!(exact, reference, "datalog marginal must match brute force");
        println!(
            "{label:18} = {exact}  (= {:.4}, brute-force agrees)",
            exact.to_f64()
        );
    }

    // The same marginal by Theorem 4.3 sampling — the PTIME route that
    // scales past brute force.
    let query = net.marginal_query(&[(2, true)]);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let est = sample_inflationary::evaluate_with_config(&query, &db, 0.02, 0.05, &config)?;
    println!(
        "\nPr[wet] ≈ {:.4} by sampling ({} samples, ε = 0.02, δ = 0.05)",
        est.estimate, est.samples
    );
    Ok(())
}
