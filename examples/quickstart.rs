//! Quickstart: one inflationary and one non-inflationary query,
//! end to end.
//!
//! Run with `cargo run --example quickstart`.

use pfq::algebra::{Expr, Interpretation};
use pfq::data::{tuple, Database, Relation, Schema, Value};
use pfq::lang::exact_inflationary::{self, ExactBudget};
use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::sampler::SamplerConfig;
use pfq::lang::{sample_inflationary, DatalogQuery, EvalCache, Event, ForeverQuery};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── The data: a weighted directed graph E(i, j, p), walker in C. ──
    let edges = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        [
            tuple!["v", "w", Value::frac(1, 2)],
            tuple!["v", "u", Value::frac(1, 2)],
            tuple!["w", "v", 1],
            tuple!["u", "v", 1],
        ],
    );
    let db = Database::new()
        .with("E", edges)
        .with("C", Relation::from_rows(Schema::new(["i"]), [tuple!["v"]]));

    // ── Inflationary: probabilistic reachability (paper Example 3.9). ──
    // `!` marks the repair-key key (the paper's underline); `@P` weights.
    let reach = DatalogQuery::parse(
        "C(v).\n\
         C2(X!, Y) @P :- C(X), E(X, Y, P).\n\
         C(Y) :- C2(X, Y).",
        Event::tuple_in("C", tuple!["w"]),
    )?;

    // Exact evaluation (Proposition 4.4): traverse the computation tree.
    let exact = exact_inflationary::evaluate(
        &reach,
        &db,
        ExactBudget::default(),
        &mut EvalCache::default(),
    )?;
    println!("Pr[w ever reached]            = {exact} (exact)");

    // Absolute (ε, δ)-approximation (Theorem 4.3): Monte Carlo sampling.
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let approx = sample_inflationary::evaluate_with_config(&reach, &db, 0.02, 0.05, &config)?;
    println!(
        "Pr[w ever reached]            ≈ {:.3} ({} samples, ε = 0.02)",
        approx.estimate, approx.samples
    );

    // ── Non-inflationary: random walk (paper Example 3.3). ──
    // C := ρ_I(π_J(repair-key_{I@P}(C ⋈ E))) — a forever-query whose
    // result is the stationary probability of the walker's position.
    let kernel = Interpretation::new().with(
        "C",
        Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")]),
    );
    let walk = ForeverQuery::new(kernel, Event::tuple_in("C", tuple!["v"]));

    // Exact evaluation (Theorem 5.5): explicit Markov chain + exact
    // stationary analysis over rationals.
    let stationary = exact_noninflationary::evaluate(
        &walk,
        &db,
        ChainBudget::default(),
        &mut EvalCache::default(),
    )?;
    println!("Pr[walker at v, long run]     = {stationary} (exact)");

    Ok(())
}
