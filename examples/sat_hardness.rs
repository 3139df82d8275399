//! The paper's hardness constructions in action (Theorems 4.1 and 5.1).
//!
//! Compiles 3-CNF formulas into probabilistic databases + datalog
//! programs, and shows the separations the proofs rely on:
//!
//! * Theorem 4.1 (inflationary): query probability = (#SAT)/2ⁿ — tiny
//!   but positive iff satisfiable, so *relative* approximation would
//!   decide SAT;
//! * Theorem 5.1 (non-inflationary): query probability = 1 iff
//!   satisfiable, 0 otherwise, so even *absolute* approximation would.
//!
//! Run with `cargo run --release --example sat_hardness`.

use pfq::lang::exact_inflationary::{self, ExactBudget};
use pfq::lang::sampler::SamplerConfig;
use pfq::lang::{mixing_sampler, sample_inflationary, EvalCache};
use pfq::num::Ratio;
use pfq::workloads::sat::{theorem_4_1_pc, theorem_5_1_forever_query, Cnf};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let satisfiable = Cnf::new(4, vec![[1, 2, 3], [-1, -2, 4], [2, -3, -4]]);
    let unsatisfiable = Cnf::unsatisfiable();

    println!("Theorem 4.1 reduction (inflationary, pc-table input):");
    for (name, f) in [
        ("satisfiable", &satisfiable),
        ("unsatisfiable", &unsatisfiable),
    ] {
        let (query, input) = theorem_4_1_pc(f);
        let p = exact_inflationary::evaluate_pc(
            &query,
            &input,
            ExactBudget::default(),
            &mut EvalCache::default(),
        )?;
        let expected = Ratio::new(f.count_satisfying() as i64, 1 << f.num_vars);
        assert_eq!(p, expected);
        println!(
            "  {name:13} n={} m={}: Pr[a ∈ Done] = {p}  (#SAT/2ⁿ = {expected})",
            f.num_vars,
            f.clauses.len()
        );
    }

    // Absolute approximation is fine with tiny probabilities — it just
    // reports ~0 — which is exactly why it cannot decide SAT while a
    // relative approximation could.
    let (query, input) = theorem_4_1_pc(&satisfiable);
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let est = sample_inflationary::evaluate_pc_with_config(&query, &input, 0.05, 0.05, &config)?;
    println!(
        "  absolute (ε=0.05) estimate on the satisfiable instance: {:.3} \
         ({} samples — fine for ±ε, useless for relative error)",
        est.estimate, est.samples
    );

    println!("\nTheorem 5.1 reduction (non-inflationary, re-sampled pc-table):");
    let f = Cnf::new(3, vec![[1, 2, 3]]);
    let (fq, db) = theorem_5_1_forever_query(&f)?;
    // The satisfying assignment flows through the clause pipeline and
    // Done(a) absorbs; a long walk's time average approaches 1.
    let avg = mixing_sampler::evaluate_time_average(&fq, &db, 3_000, &mut rng)?;
    println!(
        "  satisfiable n={} m={}: time-average Pr[a ∈ Done] over 3000 steps = {avg:.3} (→ 1)",
        f.num_vars,
        f.clauses.len()
    );
    assert!(avg > 0.9);
    Ok(())
}
