//! Mixing-time-based sampling for non-inflationary queries — Theorem 5.6.
//!
//! For a query whose kernel induces an *ergodic* chain, the long-run
//! probability equals the stationary probability, and near-independent
//! samples of the stationary distribution are obtained by walking
//! `burn_in ≥ t(ε_mix)` kernel steps from the start state; the estimator
//! then proceeds exactly as in Theorem 4.3. Total cost: polynomial in the
//! database size and in the mixing time `T(q, D)`.
//!
//! The walk applies the kernel *directly* (sampling one successor per
//! step) — the exponential explicit chain is never built. The kernel is
//! compiled once per query, and a walk state holds only the relations
//! the kernel writes. The planner's burn-in probe, [`auto_burn_in`],
//! measures the true mixing time on the budgeted interned chain instead,
//! through the engine's [`EvalCache`], so the kernel rows it computes
//! serve later exact chain runs.

use crate::exact_noninflationary::{build_chain_interned, ChainBudget};
use crate::sampler::{self, SampleReport, SamplerConfig};
use crate::{CoreError, EvalCache, ForeverQuery};
use pfq_algebra::CompiledKernel;
use pfq_data::{Database, Relation};
use pfq_markov::mixing::mixing_time_exact;
use pfq_num::Ratio;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// A forever-query's kernel compiled against its start database, with
/// the start state: the walk both samplers take.
struct Walk<'q> {
    query: &'q ForeverQuery,
    db: &'q Database,
    kernel: CompiledKernel,
    start: Vec<Relation>,
}

impl<'q> Walk<'q> {
    fn new(query: &'q ForeverQuery, db: &'q Database) -> Result<Walk<'q>, CoreError> {
        let kernel = CompiledKernel::new(&query.kernel, db)?;
        let start = kernel.targets_of(db);
        Ok(Walk {
            query,
            db,
            kernel,
            start,
        })
    }

    /// Whether the event holds in `state`: targets first, then the rest
    /// of the start database.
    fn holds(&self, state: &[Relation]) -> bool {
        let targets = self.kernel.targets();
        self.query
            .event
            .holds_in(&|name| match targets.iter().position(|t| t == name) {
                Some(i) => Some(&state[i]),
                None => self.db.get(name),
            })
    }

    /// One restart-sampling trial: walk `burn_in` kernel steps from the
    /// start, then observe the event.
    fn trial(&self, burn_in: usize, rng: &mut ChaCha8Rng) -> Result<bool, CoreError> {
        let mut state = Cow::Borrowed(self.start.as_slice());
        for _ in 0..burn_in {
            state = Cow::Owned(self.kernel.sample(&state, rng)?);
        }
        Ok(self.holds(&state))
    }
}

/// Theorem 5.6 restart sampling with full control of the parallel
/// engine: may stop before the Hoeffding worst case when
/// `config.adaptive` is set.
pub fn evaluate_with_burn_in_config(
    query: &ForeverQuery,
    db: &Database,
    burn_in: usize,
    epsilon: f64,
    delta: f64,
    config: &SamplerConfig,
) -> Result<SampleReport, CoreError> {
    let walk = Walk::new(query, db)?;
    sampler::run(
        config,
        epsilon,
        delta,
        || (),
        |_, rng| walk.trial(burn_in, rng),
    )
}

/// Estimates the query probability from a *single* long walk's time
/// average — the direct simulation of the paper's `Pr(s)` definition.
/// Cheaper than restart sampling but with correlated observations (no
/// `(ε, δ)` guarantee); useful as an experimental baseline.
pub fn evaluate_time_average<R: Rng + ?Sized>(
    query: &ForeverQuery,
    db: &Database,
    steps: usize,
    rng: &mut R,
) -> Result<f64, CoreError> {
    if steps == 0 {
        return Err(CoreError::BadParameter("steps must be positive".into()));
    }
    let walk = Walk::new(query, db)?;
    let mut state = walk.start.clone();
    let mut hits = 0usize;
    for _ in 0..steps {
        state = walk.kernel.sample(&state, rng)?;
        if walk.holds(&state) {
            hits += 1;
        }
    }
    Ok(hits as f64 / steps as f64)
}

/// Measures the kernel's true mixing time `t(ε_mix)` by building the
/// explicit (budgeted) interned chain through `cache` — the `T(q, D)` the
/// Theorem 5.6 complexity bound is parameterized by. Returns `None` when
/// the induced chain is not ergodic or does not mix within `max_t`.
///
/// The tolerance is converted to the *exact* rational value of the given
/// `f64` and the mixing time computed per §2.3's `TV ≤ ε` in [`Ratio`]
/// ([`mixing_time_exact`]), so a chain whose TV hits `ε_mix` exactly at
/// step `t` yields burn-in `t`, not `t + 1`.
pub fn auto_burn_in(
    query: &ForeverQuery,
    db: &Database,
    epsilon_mix: f64,
    max_t: usize,
    budget: ChainBudget,
    cache: &mut EvalCache,
) -> Result<Option<usize>, CoreError> {
    let eps = Ratio::from_f64(epsilon_mix)
        .ok_or_else(|| CoreError::BadParameter("epsilon_mix must be finite".into()))?;
    let chain = build_chain_interned(query, db, budget, cache)?;
    Ok(mixing_time_exact(&chain, &eps, max_t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_noninflationary;
    use crate::fixtures::{lazy_flip, walk};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Lazy walk on a triangle (self-loops make it ergodic).
    fn lazy_walk(target: i64) -> (ForeverQuery, Database) {
        let edges = [
            (1, 1, 1),
            (1, 2, 1),
            (2, 2, 1),
            (2, 3, 1),
            (3, 3, 1),
            (3, 1, 1),
        ];
        walk(&edges, 1, target)
    }

    #[test]
    fn burn_in_estimate_matches_exact() {
        let (q, db) = lazy_walk(2);
        let exact = exact_noninflationary::evaluate(
            &q,
            &db,
            ChainBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap()
        .to_f64();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
        let est = evaluate_with_burn_in_config(&q, &db, 40, 0.08, 0.05, &config).unwrap();
        assert!(
            (est.estimate - exact).abs() < 0.08,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn config_runs_are_deterministic_across_threads() {
        let (q, db) = lazy_walk(2);
        let base = SamplerConfig::seeded(21);
        let one =
            evaluate_with_burn_in_config(&q, &db, 30, 0.1, 0.05, &base.clone().with_threads(1))
                .unwrap();
        let four =
            evaluate_with_burn_in_config(&q, &db, 30, 0.1, 0.05, &base.clone().with_threads(4))
                .unwrap();
        assert_eq!(one.estimate.to_bits(), four.estimate.to_bits());
        assert_eq!(one.samples, four.samples);
        assert_eq!(one.hits, four.hits);
    }

    #[test]
    fn time_average_matches_exact() {
        let (q, db) = lazy_walk(3);
        let exact = exact_noninflationary::evaluate(
            &q,
            &db,
            ChainBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap()
        .to_f64();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let avg = evaluate_time_average(&q, &db, 30_000, &mut rng).unwrap();
        assert!((avg - exact).abs() < 0.02, "avg {avg} vs exact {exact}");
    }

    #[test]
    fn auto_burn_in_finds_mixing_time() {
        let (q, db) = lazy_walk(1);
        let mut cache = EvalCache::default();
        let t = auto_burn_in(&q, &db, 0.05, 1000, ChainBudget::default(), &mut cache).unwrap();
        let t = t.expect("lazy walk is ergodic");
        assert!(t > 0 && t < 100, "t = {t}");
    }

    #[test]
    fn auto_burn_in_is_exact_at_the_tv_boundary() {
        // Two-state lazy flip kernel: stay w.p. 3/4, flip w.p. 1/4, so
        // TV after t steps is exactly 2^-(t+1) and TV(4) = 1/32 — equal
        // to ε_mix = 0.03125 (exactly representable in f64). §2.3's
        // `TV ≤ ε` gives burn-in 4; the old float strict-< path said 5.
        let (q, db) = lazy_flip();
        let mut cache = EvalCache::default();
        assert_eq!(
            auto_burn_in(&q, &db, 0.03125, 100, ChainBudget::default(), &mut cache).unwrap(),
            Some(4)
        );
        assert!(matches!(
            auto_burn_in(&q, &db, f64::NAN, 100, ChainBudget::default(), &mut cache),
            Err(CoreError::BadParameter(_))
        ));
    }

    #[test]
    fn auto_burn_in_none_for_periodic_kernel() {
        // Pure 2-cycle without self-loops: periodic, never mixes.
        let (q, db) = walk(&[(1, 2, 1), (2, 1, 1)], 1, 1);
        let mut cache = EvalCache::default();
        assert_eq!(
            auto_burn_in(&q, &db, 0.05, 500, ChainBudget::default(), &mut cache).unwrap(),
            None
        );
    }

    #[test]
    fn zero_steps_rejected() {
        let (q, db) = lazy_walk(1);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(matches!(
            evaluate_time_average(&q, &db, 0, &mut rng),
            Err(CoreError::BadParameter(_))
        ));
    }
}
