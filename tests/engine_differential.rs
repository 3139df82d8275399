//! Differential tests for the engine layer: every forced strategy the
//! engine executes is proved **bit-identical** to its reference path over
//! a seeded fuzz-generated corpus. The exact strategies (`ExactTree`,
//! `ExactChain`, `Partitioned`) are replayed against the reference
//! oracles (`enumerate_fixpoints`, and the `Database`-keyed `build_chain`
//! solved by dense elimination) and must agree `Ratio`-for-`Ratio`; the
//! sampling strategies (`SampleFixpoint`, `BurnInSample`) must agree to
//! the bit with their config primitives on the same seed. Planner
//! properties ride along: plans are deterministic (cold == warm) and §5.1
//! partitioning is never chosen for a program with negation. Two fixed
//! regressions pin the cached chain path and §5.1 partitioning against
//! the dense oracle on hand-built walks and coins.

use pfq::algebra::{Expr, Interpretation};
use pfq::data::{tuple, Database, Relation, Schema, Value};
use pfq::lang::engine::Planner;
use pfq::lang::exact_inflationary::ExactBudget;
use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::sample_inflationary::{self, hoeffding_sample_count};
use pfq::lang::sampler::SamplerConfig;
use pfq::lang::{
    mixing_sampler, partition, DatalogQuery, Engine, EvalCache, EvalRequest, Event, ForeverQuery,
    PlanAction, Strategy,
};
use pfq_fuzz::gen::{generate, GenConfig};
use pfq_fuzz::oracle::{reference_chain_probability, reference_tree_probability};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const NODE_BUDGET: ExactBudget = ExactBudget {
    node_budget: Some(20_000),
    world_budget: None,
};
const CHAIN_BUDGET: ChainBudget = ChainBudget {
    max_states: 600,
    world_limit: 2_048,
};

/// One seeded fuzz case and the datalog query it induces.
fn case_query(seed: u64) -> (pfq_fuzz::gen::FuzzCase, DatalogQuery) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let case = generate(&GenConfig::default(), &mut rng);
    let query = DatalogQuery::new(case.program.clone(), case.event());
    (case, query)
}

/// The ≥200-case corpus differential: every forced engine strategy
/// versus its reference path, bit for bit. (The name predates the
/// removal of the per-module wrappers that used to sit on the engine.)
#[test]
fn wrappers_are_bit_identical_to_legacy_paths_on_fuzz_corpus() {
    let mut exact_hits = 0usize;
    let mut chain_hits = 0usize;
    let mut partition_hits = 0usize;
    let mut sample_hits = 0usize;

    for i in 0..200u64 {
        let (case, query) = case_query(0xE47_0000 + i);

        // Prop 4.4 exact tree: the engine vs the un-memoized oracle.
        let engine_p = Engine::new()
            .run(
                &EvalRequest::inflationary(&query, &case.db)
                    .with_strategy(Strategy::ExactTree)
                    .with_exact_budget(NODE_BUDGET),
            )
            .and_then(|outcome| outcome.into_exact());
        let oracle_p = reference_tree_probability(&query, &case.db, NODE_BUDGET.node_budget);
        match (engine_p, oracle_p) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "case {i}: exact tree diverged");
                exact_hits += 1;
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("case {i}: one exact-tree path errored: {a:?} vs {b:?}"),
        }

        // Thm 5.5 exact chain: the engine (interned chain, GTH) vs the
        // reference oracle (whole-database chain, dense elimination).
        if let Ok((fq, prepared)) = query.to_forever_query(&case.db) {
            let engine_p = Engine::new()
                .run(
                    &EvalRequest::forever(&fq, &prepared)
                        .with_strategy(Strategy::ExactChain)
                        .with_chain_budget(CHAIN_BUDGET),
                )
                .and_then(|outcome| outcome.into_exact());
            let oracle_p = reference_chain_probability(&fq, &prepared, CHAIN_BUDGET);
            match (&engine_p, oracle_p) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        *a, b,
                        "case {i}: exact chain diverged from the dense oracle"
                    );
                    chain_hits += 1;
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("case {i}: one exact-chain path errored: {a:?} vs {b:?}"),
            }

            // §5.1: the partitioned strategy must still equal the whole
            // chain (the capability-gap regression is
            // `partitioned_capabilities_match_direct_dense` below; this
            // corpus check covers arbitrary generated programs).
            if !case.program.has_negation() {
                let split = Engine::new()
                    .run(
                        &EvalRequest::noninflationary(&query, &case.db)
                            .with_strategy(Strategy::Partitioned)
                            .with_chain_budget(CHAIN_BUDGET),
                    )
                    .and_then(|outcome| outcome.into_exact());
                if let (Ok(whole), Ok(split)) = (&engine_p, split) {
                    assert_eq!(*whole, split, "case {i}: partitioned diverged");
                    partition_hits += 1;
                }
            }

            // Thm 5.6 restart sampling: the engine's forced burn-in run
            // vs the config primitive on the same seed, adaptivity off on
            // both sides.
            if i % 4 == 0 {
                let seed = 0xB1_0000 + i;
                let engine = Engine::new()
                    .run(
                        &EvalRequest::forever(&fq, &prepared)
                            .with_strategy(Strategy::BurnInSample { burn_in: Some(2) })
                            .with_epsilon_delta(0.2, 0.2)
                            .with_seed(seed)
                            .with_adaptive(false),
                    )
                    .and_then(|outcome| outcome.into_report())
                    .unwrap();
                let config = SamplerConfig::seeded(seed).with_adaptive(false);
                let report = mixing_sampler::evaluate_with_burn_in_config(
                    &fq, &prepared, 2, 0.2, 0.2, &config,
                )
                .unwrap();
                assert_eq!(
                    engine.estimate.to_bits(),
                    report.estimate.to_bits(),
                    "case {i}: engine burn-in diverged from primitive"
                );
                assert_eq!(engine.samples, report.samples);
                sample_hits += 1;
            }
        }

        // Thm 4.3 sampling: the engine's forced non-adaptive run vs the
        // fixed-count primitive on the same seed.
        if i % 4 == 0 {
            let seed = 0xA5_0000 + i;
            let engine = Engine::new()
                .run(
                    &EvalRequest::inflationary(&query, &case.db)
                        .with_strategy(Strategy::SampleFixpoint)
                        .with_epsilon_delta(0.2, 0.2)
                        .with_seed(seed)
                        .with_adaptive(false),
                )
                .and_then(|outcome| outcome.into_report())
                .unwrap();
            let m = hoeffding_sample_count(0.2, 0.2).unwrap();
            let report = sample_inflationary::evaluate_with_samples_config(
                &query,
                &case.db,
                m,
                &SamplerConfig::seeded(seed),
            )
            .unwrap();
            assert_eq!(
                engine.estimate.to_bits(),
                report.estimate.to_bits(),
                "case {i}: engine sampler diverged from primitive"
            );
            assert_eq!(engine.samples, report.samples);
            sample_hits += 1;
        }
    }

    // The corpus must actually exercise the paths, not skip its way to
    // green (budget exhaustion and failed translations are expected on
    // a minority of cases).
    assert!(
        exact_hits >= 150,
        "only {exact_hits} exact-tree comparisons"
    );
    assert!(
        chain_hits >= 60,
        "only {chain_hits} exact-chain comparisons"
    );
    assert!(
        partition_hits >= 20,
        "only {partition_hits} partition comparisons"
    );
    assert!(sample_hits >= 40, "only {sample_hits} sampling comparisons");
}

/// Example 3.3's random walk `C := ρ(π(repair-key_{i@p}(C ⋈ E)))` over
/// the weighted triangle 1 → 2 (1/2), 1 → 3 (1/2), 2 → 1 (1), 3 → 1 (1),
/// started at 1, with the event "`target` ∈ C".
fn walk_query(target: i64) -> (ForeverQuery, Database) {
    let half = Value::frac(1, 2);
    let one = Value::from(1);
    let e = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        [
            tuple![1, 2, half.clone()],
            tuple![1, 3, half],
            tuple![2, 1, one.clone()],
            tuple![3, 1, one],
        ],
    );
    let c = Relation::from_rows(Schema::new(["i"]), [tuple![1]]);
    let db = Database::new().with("E", e).with("C", c);
    let kernel = Interpretation::new().with(
        "C",
        Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")]),
    );
    (
        ForeverQuery::new(kernel, Event::tuple_in("C", tuple![target])),
        db,
    )
}

/// Two independent weighted coins: `R(k, v, w)` with `k ∈ {1, 2}`.
fn coin_db() -> Database {
    Database::new().with(
        "R",
        Relation::from_rows(
            Schema::new(["k", "v", "w"]),
            [
                tuple![1, 0, 1],
                tuple![1, 1, 3],
                tuple![2, 0, 1],
                tuple![2, 1, 1],
            ],
        ),
    )
}

/// Choose one value per key, fresh each iteration: a memoryless,
/// negation-free non-inflationary kernel with two independence classes
/// over [`coin_db`].
fn coin_program() -> pfq::datalog::Program {
    pfq::datalog::parse_program("H(K!, V) @W :- R(K, V, W).").unwrap()
}

/// The interned, cached Thm 5.5 path (GTH) equals the dense reference
/// oracle on the triangle walk, with one cache shared across events.
#[test]
fn cached_path_matches_dense_reference_oracle() {
    let mut shared = EvalCache::default();
    for target in [1, 2, 3, 99] {
        let (q, db) = walk_query(target);
        assert_eq!(
            exact_noninflationary::evaluate(&q, &db, ChainBudget::default(), &mut shared).unwrap(),
            reference_chain_probability(&q, &db, ChainBudget::default()).unwrap(),
        );
    }
}

/// Regression for the capability gap: partitioned evaluation with a
/// shared cache is bit-identical to the dense whole-database reference
/// oracle.
#[test]
fn partitioned_capabilities_match_direct_dense() {
    for event in [
        Event::tuple_in("H", tuple![1, 1]),
        Event::tuple_in("H", tuple![1, 1]).or(Event::tuple_in("H", tuple![2, 1])),
        Event::tuple_in("H", tuple![9, 9]),
    ] {
        let query = DatalogQuery::new(coin_program(), event);
        let db = coin_db();
        let direct_dense = {
            let (fq, prepared) = query.to_forever_query(&db).unwrap();
            reference_chain_probability(&fq, &prepared, ChainBudget::default()).unwrap()
        };
        let mut shared = EvalCache::default();
        let partitioned =
            partition::evaluate_partitioned(&query, &db, ChainBudget::default(), &mut shared)
                .unwrap();
        assert_eq!(direct_dense, partitioned);
        // The shared cache really was used across the class solves.
        assert!(shared.stats().db_states > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plans are deterministic and cache-warmth invariant: planning the
    /// same request on a cold engine, then again after executing it,
    /// yields the identical `Plan` (actions *and* notes).
    #[test]
    fn plans_are_deterministic(seed in any::<u64>()) {
        let (case, query) = case_query(seed);
        for task in 0..2 {
            let request = if task == 0 {
                EvalRequest::inflationary(&query, &case.db).with_exact_budget(NODE_BUDGET)
            } else {
                EvalRequest::noninflationary(&query, &case.db).with_chain_budget(CHAIN_BUDGET)
            };
            let mut engine = Engine::new();
            let cold = match engine.plan(&request) {
                Ok(p) => p,
                Err(_) => continue, // e.g. no non-inflationary translation
            };
            prop_assert_eq!(&cold, &engine.plan(&request).unwrap());
            if cold.action.is_exact() && engine.run(&request).is_ok() {
                let warm = engine.plan(&request).unwrap();
                prop_assert_eq!(&cold, &warm);
            }
            // A fresh engine agrees with the first one.
            prop_assert_eq!(&cold, &Engine::new().plan(&request).unwrap());
        }
    }

    /// The planner never chooses §5.1 partitioning for a program with
    /// negation — partitioning requires independence of the provenance
    /// classes, which negation breaks.
    #[test]
    fn negation_is_never_partitioned(seed in any::<u64>()) {
        let (case, query) = case_query(seed);
        if !case.program.has_negation() {
            return Ok(()); // vendored proptest has no prop_assume
        }
        let request =
            EvalRequest::noninflationary(&query, &case.db).with_chain_budget(CHAIN_BUDGET);
        let mut cache = EvalCache::default();
        if let Ok(plan) = Planner::plan(&request, &mut cache) {
            prop_assert!(
                !matches!(plan.action, PlanAction::Partitioned { .. }),
                "planner partitioned a negated program: {plan}"
            );
            prop_assert!(
                plan.notes.iter().any(|n| n.contains("negation")),
                "plan does not explain negation ineligibility: {plan}"
            );
        }
        // Forcing it must be rejected outright.
        let forced = request.with_strategy(Strategy::Partitioned);
        prop_assert!(Engine::new().run(&forced).is_err());
    }
}
