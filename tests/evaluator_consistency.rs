//! Cross-evaluator consistency: every algorithm of the paper computes
//! (or approximates) the same quantity, so they must agree with each
//! other on instances small enough for exact evaluation.

use pfq::ctable::{translate, Condition, PcDatabase, PcTable, RandomVariable};
use pfq::data::{tuple, Database, Relation, Schema};
use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::sampler::SamplerConfig;
use pfq::lang::{mixing_sampler, partition, sample_inflationary, DatalogQuery, EvalCache, Event};
use pfq::markov::{mixing, stationary, MarkovChain};
use pfq::num::{Distribution, Ratio};
use pfq::workloads::exact::{chain_probability, tree_probability};
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Theorem 4.3's estimator lands within ε of Proposition 4.4's exact
/// answer (checked well inside the δ-confidence with a fixed seed).
#[test]
fn sampling_matches_exact_inflationary() {
    let db = Database::new().with(
        "E",
        Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple![0, 1, 1],
                tuple![0, 2, 2],
                tuple![1, 3, 1],
                tuple![2, 3, 1],
                tuple![2, 4, 3],
            ],
        ),
    );
    let q = pfq::workloads::graphs::reachability_query(0, 3);
    let exact = tree_probability(&q, &db).to_f64();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let est = sample_inflationary::evaluate_with_config(&q, &db, 0.03, 0.05, &config).unwrap();
    assert!(
        (est.estimate - exact).abs() < 0.03,
        "{} vs {exact}",
        est.estimate
    );
}

/// The three non-inflationary evaluators agree: exact chain analysis,
/// burn-in sampling, single-walk time average.
#[test]
fn noninflationary_evaluators_agree() {
    let g = WeightedGraph::dumbbell(3);
    let (q, db) = walk_query(&g, 0, 4);
    let exact = chain_probability(&q, &db).to_f64();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
    let burn = mixing_sampler::evaluate_with_burn_in_config(&q, &db, 120, 0.05, 0.05, &config)
        .unwrap()
        .estimate;
    let avg = mixing_sampler::evaluate_time_average(&q, &db, 60_000, &mut rng).unwrap();
    assert!(
        (burn - exact).abs() < 0.05,
        "burn-in {burn} vs exact {exact}"
    );
    assert!(
        (avg - exact).abs() < 0.02,
        "time-avg {avg} vs exact {exact}"
    );
}

/// The pc-table repair-key macro and the direct pc-table semantics give
/// identical world distributions, hence identical query answers.
#[test]
fn macro_translation_matches_direct_semantics() {
    let mut input = PcDatabase::new();
    input
        .declare_variable(RandomVariable::new(
            "x",
            [
                (pfq::data::Value::int(0), Ratio::new(2, 5)),
                (pfq::data::Value::int(1), Ratio::new(3, 5)),
            ],
        ))
        .unwrap();
    input
        .declare_variable(RandomVariable::fair_coin("y"))
        .unwrap();
    let table = PcTable::new(Schema::new(["l"]))
        .with(tuple![10], Condition::eq("x", 0))
        .with(tuple![20], Condition::eq("x", 1).and(Condition::eq("y", 1)))
        .with(tuple![30], Condition::eq("y", 0).not());
    input.add_table("A", table.clone());

    let direct: Distribution<Relation> = input
        .enumerate_worlds()
        .unwrap()
        .map(|db| db.get("A").unwrap().clone());
    let expr = translate::pc_table_expr(&table, input.variables()).unwrap();
    let macroed = pfq::algebra::eval::enumerate(&expr, &Database::new(), None).unwrap();
    assert_eq!(direct.support_size(), macroed.support_size());
    for (rel, p) in direct.iter() {
        assert_eq!(&macroed.mass(rel), p, "world {rel}");
    }
}

/// §5.1 partitioning agrees with direct Theorem 5.5 evaluation while
/// building exponentially smaller chains.
#[test]
fn partitioning_matches_direct_and_shrinks_chains() {
    // Three independent weighted coins.
    let db = Database::new().with(
        "R",
        Relation::from_rows(
            Schema::new(["k", "v", "w"]),
            (0..3i64).flat_map(|k| [tuple![k, 0, 1], tuple![k, 1, k + 1]]),
        ),
    );
    let program = pfq::datalog::parse_program("H(K!, V) @W :- R(K, V, W).").unwrap();
    let event = Event::tuple_in("H", tuple![0, 1])
        .or(Event::tuple_in("H", tuple![1, 1]))
        .or(Event::tuple_in("H", tuple![2, 1]));
    let query = DatalogQuery::new(program, event);

    let direct = {
        let (fq, prepared) = query.to_forever_query(&db).unwrap();
        chain_probability(&fq, &prepared)
    };
    let partitioned = partition::evaluate_partitioned(
        &query,
        &db,
        ChainBudget::default(),
        &mut EvalCache::default(),
    )
    .unwrap();
    assert_eq!(direct, partitioned);
    // 1 − (1/2)(1/3)(1/4) = 23/24.
    assert_eq!(direct, Ratio::new(23, 24));

    // Chain-size separation: the direct product chain has 2³ = 8 states
    // (plus the start); each class chain has 2 (plus the start).
    let (fq, prepared) = query.to_forever_query(&db).unwrap();
    let full = exact_noninflationary::build_chain(&fq, &prepared, ChainBudget::default())
        .unwrap()
        .len();
    let classes = partition::partition_classes(&query.program, &db).unwrap();
    assert_eq!(classes.len(), 3);
    for class in &classes {
        let (fq, prepared) = query.to_forever_query(class).unwrap();
        let small = exact_noninflationary::build_chain(&fq, &prepared, ChainBudget::default())
            .unwrap()
            .len();
        assert!(small * 2 < full, "class chain {small} vs full {full}");
    }
}

/// Exact rational stationary distributions match f64 power iteration on
/// kernel-induced chains (the E12 ablation's correctness core).
#[test]
fn stationary_ablation_consistency() {
    let g = WeightedGraph::erdos_renyi(6, 0.5, &mut ChaCha8Rng::seed_from_u64(5)).lazy(1);
    let (q, db) = walk_query(&g, 0, 0);
    let chain = exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
    if !pfq::markov::scc::is_irreducible(&chain) {
        // Random graph happened to be reducible — nothing to compare.
        return;
    }
    let exact = stationary::exact_stationary(&chain).unwrap();
    let approx = stationary::power_iteration(&chain, 1e-13, 100_000).unwrap();
    for (e, a) in exact.iter().zip(&approx) {
        assert!((e.to_f64() - a).abs() < 1e-8);
    }
}

/// On a deterministic program the inflationary engine reaches a single
/// fixpoint with probability 1, and that fixpoint is classical datalog's
/// answer: here the transitive closure of E, written out.
#[test]
fn deterministic_program_three_way_agreement() {
    let db = Database::new().with(
        "E",
        Relation::from_rows(
            Schema::new(["i", "j"]),
            [tuple![1, 2], tuple![2, 3], tuple![3, 4]],
        ),
    );
    let program =
        pfq::datalog::parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap();
    let fixpoints = pfq::datalog::inflationary::enumerate_fixpoints(&program, &db, None).unwrap();
    assert_eq!(fixpoints.support_size(), 1);
    let (only, p) = fixpoints.iter().next().unwrap();
    assert!(p.is_one());
    let closure = Relation::from_rows(
        Schema::new(["c0", "c1"]),
        [
            tuple![1, 2],
            tuple![1, 3],
            tuple![1, 4],
            tuple![2, 3],
            tuple![2, 4],
            tuple![3, 4],
        ],
    );
    assert_eq!(only.get("T"), Some(&closure));
}

// --- Differential harness: the parallel sampler vs exact answers ---
//
// Every workload generator with a tractable exact answer is evaluated
// both ways under a fixed seed: the exact evaluator gives the ground
// truth, the parallel engine (4 workers) must land within ε of it.
// Fixed seeds keep these checks deterministic — each is one draw from
// a distribution in which failure has probability at most δ.

/// The engine configuration every differential check runs under.
fn differential_config(seed: u64) -> SamplerConfig {
    SamplerConfig::seeded(seed).with_threads(4)
}

#[track_caller]
fn assert_within(name: &str, sampled: f64, exact: f64, epsilon: f64) {
    assert!(
        (sampled - exact).abs() <= epsilon,
        "{name}: sampled {sampled} vs exact {exact} (ε = {epsilon})"
    );
}

/// Graph reachability (Example 3.9): exact computation-tree traversal
/// vs the Theorem 4.3 parallel sampler, over random and structured
/// graphs.
#[test]
fn differential_graph_reachability() {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mut cases: Vec<(String, WeightedGraph)> = vec![
        ("cycle 5".into(), WeightedGraph::cycle(5)),
        ("dumbbell 2×3".into(), WeightedGraph::dumbbell(3)),
    ];
    for i in 0..3u64 {
        cases.push((
            format!("erdos_renyi 6 #{i}"),
            WeightedGraph::erdos_renyi(6, 0.5, &mut rng),
        ));
    }
    for (seed, (name, g)) in cases.into_iter().enumerate() {
        let db = Database::new().with("E", g.edge_relation());
        let query = pfq::workloads::graphs::reachability_query(0, g.n as i64 - 1);
        let exact = tree_probability(&query, &db).to_f64();
        let config = differential_config(40 + seed as u64);
        let report =
            sample_inflationary::evaluate_with_config(&query, &db, 0.05, 0.05, &config).unwrap();
        assert_within(&name, report.estimate, exact, 0.05);
        assert!(report.samples <= report.worst_case);
    }
}

/// Glauber-coloring MCMC: exact long-run marginals (Theorem 5.5 route)
/// vs the Theorem 5.6 parallel burn-in sampler.
#[test]
fn differential_coloring_mcmc() {
    use pfq::workloads::coloring::ColoringMcmc;
    let cases = vec![
        (
            "triangle q=4",
            ColoringMcmc::new(3, vec![(0, 1), (0, 2), (1, 2)], 4),
        ),
        (
            "4-cycle q=3",
            ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], 3),
        ),
    ];
    for (seed, (name, g)) in cases.into_iter().enumerate() {
        let (query, db) = g.color_query(0, 0);
        let exact = chain_probability(&query, &db).to_f64();
        let chain =
            exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap();
        let burn_in = mixing::mixing_time(&chain, 0.01, 100_000).expect("Glauber chain mixes");
        let config = differential_config(50 + seed as u64);
        let report =
            mixing_sampler::evaluate_with_burn_in_config(&query, &db, burn_in, 0.08, 0.05, &config)
                .unwrap();
        assert_within(name, report.estimate, exact, 0.08 + 2.0 * 0.01);
    }
}

/// Birth–death queue: closed-form stationary probabilities (and the
/// exact chain route, asserted equal) vs the parallel burn-in sampler.
#[test]
fn differential_queue_lengths() {
    use pfq::workloads::queue::BirthDeathQueue;
    let queue = BirthDeathQueue::new(3, 2, 3, 2);
    let reference = queue.stationary_reference();
    for k in 0..=3i64 {
        let (query, db) = queue.length_query(0, k);
        let exact = chain_probability(&query, &db);
        assert_eq!(exact, reference[k as usize], "closed form, length {k}");
        let chain =
            exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap();
        let burn_in = mixing::mixing_time(&chain, 0.01, 100_000).expect("lazy queue chain mixes");
        let config = differential_config(60 + k as u64);
        let report =
            mixing_sampler::evaluate_with_burn_in_config(&query, &db, burn_in, 0.08, 0.05, &config)
                .unwrap();
        assert_within(
            &format!("queue length {k}"),
            report.estimate,
            exact.to_f64(),
            0.08 + 2.0 * 0.01,
        );
    }
}

/// pc-table input (the Theorem 4.1 reduction): the model-counting
/// exact answer `#SAT/2ⁿ` vs the parallel pc-table sampler.
#[test]
fn differential_pc_table_sat() {
    use pfq::workloads::sat::{theorem_4_1_pc, Cnf};
    let mut rng = ChaCha8Rng::seed_from_u64(71);
    for case in 0..3u64 {
        let f = Cnf::random(5, 4, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        let exact = f.count_satisfying() as f64 / 32.0;
        let config = differential_config(70 + case);
        let report =
            sample_inflationary::evaluate_pc_with_config(&query, &input, 0.05, 0.05, &config)
                .unwrap();
        assert_within(&format!("cnf #{case}"), report.estimate, exact, 0.05);
        // The same run is bit-reproducible.
        let again =
            sample_inflationary::evaluate_pc_with_config(&query, &input, 0.05, 0.05, &config)
                .unwrap();
        assert_eq!(report.estimate.to_bits(), again.estimate.to_bits());
    }
}

/// Explicitly built chains round-trip through the generic Markov layer:
/// kernel → chain → stationary πP = π (exact).
#[test]
fn kernel_chain_stationary_invariance() {
    let g = WeightedGraph::cycle(4).lazy(2);
    let (q, db) = walk_query(&g, 0, 0);
    let chain: MarkovChain<Database> =
        exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
    let pi = stationary::exact_stationary(&chain).unwrap();
    assert_eq!(chain.step_distribution(&pi), pi);
    let total: Ratio = pi.iter().sum();
    assert!(total.is_one());
}
