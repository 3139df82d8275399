//! Statistical soundness of the `(ε, δ)` machinery: over many
//! independently seeded runs on an instance with *known* probability,
//! the fraction of runs missing by more than ε must stay below δ —
//! for the plain Hoeffding budget and for the adaptive early stopper
//! alike (early stopping must not spend the δ budget twice).
//!
//! Each check is ~200 seeded engine runs on a Bernoulli(p) trial (the
//! engine sees the same interface a fixpoint sampler presents).
//!
//! # Failure-probability budget
//!
//! Every seed below is **pinned** (`1_000 + i`, `5_000 + i`), so each
//! test's outcome is a deterministic function of the code — CI never
//! flakes on sampler luck; a failure always means a real regression.
//! The statistical budget governs what happens if someone *reseeds*:
//! with per-run failure probability at most δ = 0.1, the number of
//! failing runs is stochastically dominated by Bin(200, 0.1), and
//!
//! ```text
//! Pr[Bin(200, 0.1) > 200·(δ + SLACK)] = Pr[Bin(200, 0.1) > 35] < 10⁻³
//! ```
//!
//! (Chernoff: exp(−200·KL(0.175‖0.1)) ≈ 3·10⁻⁴). So each threshold of
//! δ + SLACK = 0.175 holds for all but ~1 in 3000 seed choices, and a
//! reseeded failure is overwhelmingly evidence of a bound violation,
//! not noise. The same budget covers the adaptive stopper, whose
//! union-bounded looks must keep per-run failure below the same δ.

use pfq::lang::sample_inflationary::hoeffding_sample_count;
use pfq::lang::sampler::{self, SamplerConfig};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

const TRIALS: u64 = 200;
const EPSILON: f64 = 0.1;
const DELTA: f64 = 0.1;
/// Binomial slack: Pr[Bin(200, 0.1) > 200·(0.1 + 0.075)] < 10⁻³.
const SLACK: f64 = 0.075;

fn coin(p: f64) -> impl Fn(&mut (), &mut ChaCha8Rng) -> Result<bool, pfq::lang::CoreError> + Sync {
    move |_, rng| Ok(rng.gen_bool(p))
}

/// Runs `TRIALS` engine runs with distinct seeds and returns the
/// fraction whose estimate missed `p` by more than `EPSILON`.
fn failure_fraction(p: f64, adaptive: bool) -> f64 {
    let mut failures = 0u64;
    for seed in 0..TRIALS {
        let config = SamplerConfig {
            seed: 1_000 + seed,
            threads: 2,
            adaptive,
            ..SamplerConfig::default()
        };
        let report = sampler::run(&config, EPSILON, DELTA, || (), coin(p)).unwrap();
        assert!(report.samples <= report.worst_case);
        if (report.estimate - p).abs() > EPSILON {
            failures += 1;
        }
    }
    failures as f64 / TRIALS as f64
}

/// The Hoeffding budget (no early stopping) delivers its advertised
/// coverage at worst-case variance, p = 1/2.
#[test]
fn fixed_budget_coverage_at_worst_case_p() {
    let fraction = failure_fraction(0.5, false);
    assert!(
        fraction <= DELTA + SLACK,
        "failure fraction {fraction} exceeds δ = {DELTA} + slack {SLACK}"
    );
}

/// The adaptive stopper keeps the same coverage at worst-case variance
/// — the union bound over looks must not inflate the failure rate.
#[test]
fn adaptive_stopper_coverage_at_worst_case_p() {
    let fraction = failure_fraction(0.5, true);
    assert!(
        fraction <= DELTA + SLACK,
        "failure fraction {fraction} exceeds δ = {DELTA} + slack {SLACK}"
    );
}

/// At a skewed probability the adaptive stopper stops early on most
/// runs — and still keeps coverage. Needs a tight ε: the stopper's
/// empirical-Bernstein radius carries a `3·ln(3/δ_j)/n` term, so
/// savings only materialize when the worst-case budget is well past
/// that overhead (tiny budgets like ε = 0.1 leave no room to stop).
#[test]
fn adaptive_stopper_coverage_and_savings_at_skewed_p() {
    let (p, epsilon, delta) = (0.001, 0.02, DELTA);
    let worst = hoeffding_sample_count(epsilon, delta).unwrap();
    let mut failures = 0u64;
    let mut total_samples = 0usize;
    for seed in 0..TRIALS {
        let config = SamplerConfig::seeded(5_000 + seed).with_threads(2);
        let report = sampler::run(&config, epsilon, delta, || (), coin(p)).unwrap();
        total_samples += report.samples;
        if (report.estimate - p).abs() > epsilon {
            failures += 1;
        }
    }
    let fraction = failures as f64 / TRIALS as f64;
    assert!(
        fraction <= DELTA + SLACK,
        "failure fraction {fraction} exceeds δ = {DELTA} + slack {SLACK}"
    );
    let mean_samples = total_samples as f64 / TRIALS as f64;
    assert!(
        mean_samples < 0.8 * worst as f64,
        "adaptive stopping saved nothing: mean {mean_samples} vs worst case {worst}"
    );
}

/// `hoeffding_sample_count` itself is sound and monotone: the budget
/// satisfies `m ≥ ln(2/δ)/(2ε²)` and tightens as ε or δ shrink.
#[test]
fn hoeffding_budget_formula_sound_and_monotone() {
    for (epsilon, delta) in [(0.1, 0.05), (0.05, 0.05), (0.1, 0.01), (0.2, 0.3)] {
        let m = hoeffding_sample_count(epsilon, delta).unwrap();
        let bound = (2.0 / delta).ln() / (2.0 * epsilon * epsilon);
        assert!(m as f64 >= bound, "m = {m} below the bound {bound}");
        assert!((m as f64) < bound + 1.0, "m = {m} overshoots ⌈{bound}⌉");
    }
    assert!(
        hoeffding_sample_count(0.05, 0.05).unwrap() > hoeffding_sample_count(0.1, 0.05).unwrap()
    );
    assert!(
        hoeffding_sample_count(0.1, 0.01).unwrap() > hoeffding_sample_count(0.1, 0.05).unwrap()
    );
}
