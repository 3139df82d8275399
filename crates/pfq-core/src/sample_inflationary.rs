//! Randomized absolute approximation for inflationary queries —
//! Theorem 4.3.
//!
//! Each sample draws one world of the input (for pc-table inputs),
//! runs one random computation path to its fixpoint, and tests the
//! event; the estimate is the hit fraction over `m` samples, with
//! `m ≥ ln(2/δ)/(2ε²)` by the (additive) Chernoff–Hoeffding bound, so
//! `Pr(|p̂ − p| ≤ ε) ≥ 1 − δ`. The cost of a sample is polynomial in the
//! database size, making the whole algorithm PTIME data complexity.
//!
//! Samples are drawn on the shared parallel engine in [`crate::sampler`].
//! Each entry point takes a [`SamplerConfig`] (seed, threads, adaptive
//! early stopping) and returns the full [`SampleReport`]. A config with
//! adaptivity off always draws the full Hoeffding sample count.

use crate::sampler::{self, SampleReport, SamplerConfig};
use crate::{CoreError, DatalogQuery};
use pfq_ctable::PcDatabase;
use pfq_data::Database;
use pfq_datalog::eval::{CompiledProgram, Layered, Relations};
use pfq_datalog::inflationary::{sample_fixpoint, EngineState};
use rand_chacha::ChaCha8Rng;

/// Defensive cap on inflationary steps per sample; the semantics
/// guarantees termination long before this for any sane database.
const MAX_STEPS_PER_SAMPLE: usize = 1_000_000;

/// The number of samples the additive Chernoff–Hoeffding bound requires
/// for `Pr(|p̂ − p| ≤ epsilon) ≥ 1 − delta`.
pub fn hoeffding_sample_count(epsilon: f64, delta: f64) -> Result<usize, CoreError> {
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CoreError::BadParameter(format!(
            "epsilon {epsilon} not in (0, 1)"
        )));
    }
    if !(delta > 0.0 && delta < 1.0) {
        return Err(CoreError::BadParameter(format!(
            "delta {delta} not in (0, 1)"
        )));
    }
    Ok(((2.0 / delta).ln() / (2.0 * epsilon * epsilon)).ceil() as usize)
}

/// One Theorem 4.3 trial: a random computation path from `start` over
/// `edb` to its fixpoint, then the event test, which reads the fixpoint's
/// IDB first and then `edb`, so no database is copied per trial.
fn trial(
    query: &DatalogQuery,
    program: &CompiledProgram,
    (edb, start): &(Database, EngineState),
    rng: &mut ChaCha8Rng,
) -> Result<bool, CoreError> {
    let fixpoint = sample_fixpoint(program, edb, start, rng, MAX_STEPS_PER_SAMPLE)?;
    let db = Layered {
        idb: &fixpoint.idb,
        edb,
    };
    Ok(query.event.holds_in(&|name| db.relation(name)))
}

/// One Theorem 4.3 trial over a pc-table input: first draw one world
/// (the “probabilistic choices … take place only once, at the
/// beginning”, §3.2), then proceed as over a certain input.
fn trial_pc(
    query: &DatalogQuery,
    program: &CompiledProgram,
    input: &PcDatabase,
    rng: &mut ChaCha8Rng,
) -> Result<bool, CoreError> {
    let world = input.sample_world(rng)?;
    let start = EngineState::initial(&query.program, &world)?;
    trial(query, program, &start, rng)
}

/// Theorem 4.3 over a certain input, with full control of the engine:
/// `(ε, δ)`-approximation that may stop before the Hoeffding worst
/// case when `config.adaptive` is set. The program is compiled and the
/// input split into its EDB and start state once, for all trials.
pub fn evaluate_with_config(
    query: &DatalogQuery,
    db: &Database,
    epsilon: f64,
    delta: f64,
    config: &SamplerConfig,
) -> Result<SampleReport, CoreError> {
    // Parameter errors take precedence over program errors.
    hoeffding_sample_count(epsilon, delta)?;
    let program = CompiledProgram::new(&query.program);
    let start = EngineState::initial(&query.program, db)?;
    sampler::run(config, epsilon, delta, |rng| {
        trial(query, &program, &start, rng)
    })
}

/// Theorem 4.3 over a pc-table input, with full control of the engine.
pub fn evaluate_pc_with_config(
    query: &DatalogQuery,
    input: &PcDatabase,
    epsilon: f64,
    delta: f64,
    config: &SamplerConfig,
) -> Result<SampleReport, CoreError> {
    let program = CompiledProgram::new(&query.program);
    sampler::run(config, epsilon, delta, |rng| {
        trial_pc(query, &program, input, rng)
    })
}

/// An explicit-sample-count run over a certain input, with full
/// control of the engine (never stops early).
pub fn evaluate_with_samples_config(
    query: &DatalogQuery,
    db: &Database,
    samples: usize,
    config: &SamplerConfig,
) -> Result<SampleReport, CoreError> {
    let program = CompiledProgram::new(&query.program);
    let start = EngineState::initial(&query.program, db)?;
    sampler::run_fixed(config, samples, |rng| trial(query, &program, &start, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_inflationary::{self, ExactBudget};
    use crate::fixtures::{fork_db, reach_query};
    use crate::EvalCache;
    use pfq_ctable::{Condition, PcTable, RandomVariable};
    use pfq_data::{tuple, Schema};
    use rand::{Rng, SeedableRng};

    #[test]
    fn sample_counts() {
        // ln(2/0.05)/(2·0.1²) = ln(40)/0.02 ≈ 184.4 → 185.
        assert_eq!(hoeffding_sample_count(0.1, 0.05).unwrap(), 185);
        assert!(hoeffding_sample_count(0.01, 0.05).unwrap() > 10_000);
        assert!(hoeffding_sample_count(0.0, 0.05).is_err());
        assert!(hoeffding_sample_count(0.1, 1.5).is_err());
        assert!(hoeffding_sample_count(1.0, 0.5).is_err());
    }

    #[test]
    fn estimate_close_to_exact() {
        let query = reach_query("w");
        let db = fork_db();
        let exact = exact_inflationary::evaluate(
            &query,
            &db,
            ExactBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap()
        .to_f64();
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
        let est = evaluate_with_config(&query, &db, 0.05, 0.05, &config).unwrap();
        assert!(
            (est.estimate - exact).abs() < 0.05,
            "{} vs {exact}",
            est.estimate
        );
        assert_eq!(est.samples, hoeffding_sample_count(0.05, 0.05).unwrap());
    }

    #[test]
    fn adaptive_config_run_matches_exact_with_fewer_samples() {
        let query = reach_query("v"); // deterministically true
        let config = SamplerConfig::seeded(11);
        let report = evaluate_with_config(&query, &fork_db(), 0.05, 0.05, &config).unwrap();
        assert_eq!(report.estimate, 1.0);
        assert!(report.stopped_early, "{report:?}");
        assert!(report.samples < report.worst_case);
    }

    #[test]
    fn deterministic_events_hit_zero_or_one() {
        let query = reach_query("v");
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = SamplerConfig::seeded(rng.gen());
        let est = evaluate_with_samples_config(&query, &fork_db(), 50, &config).unwrap();
        assert_eq!(est.estimate, 1.0);
        let query = reach_query("nowhere");
        let config = SamplerConfig::seeded(rng.gen());
        let est = evaluate_with_samples_config(&query, &fork_db(), 50, &config).unwrap();
        assert_eq!(est.estimate, 0.0);
    }

    #[test]
    fn pc_input_estimate() {
        let mut input = PcDatabase::new();
        input
            .declare_variable(RandomVariable::fair_coin("x"))
            .unwrap();
        input.add_table(
            "E",
            PcTable::new(Schema::new(["i", "j", "p"]))
                .with(tuple!["v", "w", 1], Condition::eq("x", 1)),
        );
        let query = reach_query("w");
        let exact = exact_inflationary::evaluate_pc(
            &query,
            &input,
            ExactBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap()
        .to_f64();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
        let est = evaluate_pc_with_config(&query, &input, 0.05, 0.05, &config).unwrap();
        assert!((est.estimate - exact).abs() < 0.05);
        // Same inputs, same seed, through the config API: identical.
        let config = SamplerConfig::seeded(42).with_adaptive(false);
        let a = evaluate_pc_with_config(&query, &input, 0.05, 0.05, &config).unwrap();
        let b = evaluate_pc_with_config(&query, &input, 0.05, 0.05, &config).unwrap();
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn zero_samples_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let config = SamplerConfig::seeded(rng.gen());
        assert!(matches!(
            evaluate_with_samples_config(&reach_query("w"), &fork_db(), 0, &config),
            Err(CoreError::BadParameter(_))
        ));
    }
}
