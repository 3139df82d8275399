//! Properties of the shared parallel sampling engine: scheduling
//! independence (same seed ⇒ bit-identical estimates at any thread
//! count), the Hoeffding worst-case cap, and basic estimate sanity.

use pfq::lang::sample_inflationary::{self, hoeffding_sample_count};
use pfq::lang::sampler::{self, SampleReport, SamplerConfig};
use proptest::prelude::*;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A Bernoulli(p) trial — the engine sees exactly the same interface a
/// fixpoint sampler presents, minus the query evaluation cost.
fn coin(p: f64) -> impl Fn(&mut (), &mut ChaCha8Rng) -> Result<bool, pfq::lang::CoreError> + Sync {
    move |_, rng| Ok(rng.gen_bool(p))
}

fn config(seed: u64, threads: usize, chunk_size: usize, adaptive: bool) -> SamplerConfig {
    SamplerConfig {
        seed,
        threads,
        chunk_size,
        adaptive,
    }
}

/// The deterministic parts of a report (everything but wall time).
fn key(r: &SampleReport) -> (u64, usize, usize, usize, bool) {
    (
        r.estimate.to_bits(),
        r.samples,
        r.hits,
        r.worst_case,
        r.stopped_early,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ bit-identical reports at 1, 2, and 8 threads, for
    /// any event probability, chunk size, and stopping mode.
    #[test]
    fn same_seed_bit_identical_across_thread_counts(
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        chunk in 1usize..=96,
        adaptive in any::<bool>(),
    ) {
        let run = |threads: usize| {
            sampler::run(&config(seed, threads, chunk, adaptive), 0.05, 0.05, || (), coin(p)).unwrap()
        };
        let one = run(1);
        prop_assert_eq!(key(&run(2)), key(&one));
        prop_assert_eq!(key(&run(8)), key(&one));
    }

    /// Early stopping never draws more than the Hoeffding worst case,
    /// and non-adaptive runs draw exactly it.
    #[test]
    fn early_stopping_capped_by_hoeffding_worst_case(
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        epsilon in 0.05f64..0.3,
        delta in 0.02f64..0.3,
        chunk in 1usize..=96,
    ) {
        let worst = hoeffding_sample_count(epsilon, delta).unwrap();
        let adaptive =
            sampler::run(&config(seed, 4, chunk, true), epsilon, delta, || (), coin(p)).unwrap();
        prop_assert_eq!(adaptive.worst_case, worst);
        prop_assert!(adaptive.samples <= worst);
        prop_assert!(adaptive.stopped_early == (adaptive.samples < worst));
        let fixed =
            sampler::run(&config(seed, 4, chunk, false), epsilon, delta, || (), coin(p)).unwrap();
        prop_assert_eq!(fixed.samples, worst);
        prop_assert!(!fixed.stopped_early);
    }

    /// Estimates are always finite probabilities in [0, 1], with
    /// `hits / samples` as their exact value.
    #[test]
    fn estimates_always_in_unit_interval(
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        epsilon in 0.05f64..0.3,
        delta in 0.02f64..0.3,
    ) {
        let r = sampler::run(&SamplerConfig::seeded(seed), epsilon, delta, || (), coin(p)).unwrap();
        prop_assert!(r.estimate.is_finite());
        prop_assert!((0.0..=1.0).contains(&r.estimate));
        prop_assert!(r.hits <= r.samples);
        prop_assert_eq!(r.estimate.to_bits(), (r.hits as f64 / r.samples as f64).to_bits());
    }

    /// Fixed-count runs are scheduling-independent too.
    #[test]
    fn fixed_runs_bit_identical_across_thread_counts(
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        samples in 1usize..=600,
        chunk in 1usize..=96,
    ) {
        let run = |threads: usize| {
            sampler::run_fixed(&config(seed, threads, chunk, true), samples, || (), coin(p)).unwrap()
        };
        let one = run(1);
        prop_assert_eq!(one.samples, samples);
        prop_assert_eq!(key(&run(2)), key(&one));
        prop_assert_eq!(key(&run(8)), key(&one));
    }
}

/// The property holds end to end through a real evaluator, not just
/// the bare engine: a Theorem 4.3 reachability query produces the same
/// bits at 1, 2, and 8 threads.
#[test]
fn end_to_end_evaluator_determinism() {
    use pfq::data::Database;
    use pfq::workloads::graphs::{reachability_query, WeightedGraph};
    use rand::SeedableRng;

    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let g = WeightedGraph::erdos_renyi(10, 0.4, &mut rng);
    let db = Database::new().with("E", g.edge_relation());
    let query = reachability_query(0, 9);
    let run = |threads: usize| {
        let config = SamplerConfig::seeded(7).with_threads(threads);
        sample_inflationary::evaluate_with_config(&query, &db, 0.1, 0.05, &config).unwrap()
    };
    let one = run(1);
    assert_eq!(key(&run(2)), key(&one));
    assert_eq!(key(&run(8)), key(&one));
}
