//! Property-based integration tests: randomized instances, exact
//! invariants.

use pfq::data::{tuple, Database, Relation, Schema, Value};
use pfq::lang::exact_noninflationary::{self, ChainBudget};
use pfq::lang::Event;
use pfq::markov::absorption::long_run_distribution;
use pfq::num::Ratio;
use pfq::workloads::bayes::BayesNet;
use pfq::workloads::exact::{chain_probability, pc_probability, tree_probability};
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use pfq::workloads::sat::{theorem_4_1_pc, Cnf};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Long-run distributions of kernel-induced chains are proper
    /// distributions, whatever the random graph looks like.
    #[test]
    fn prop_long_run_is_a_distribution(seed in any::<u64>(), n in 2usize..6, p in 0.2f64..0.9) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = WeightedGraph::erdos_renyi(n, p, &mut rng);
        let (q, db) = walk_query(&g, 0, 0);
        let chain = exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
        let start = chain.index_of(&db).unwrap();
        let lr = long_run_distribution(&chain, start).unwrap();
        let total: Ratio = lr.iter().sum();
        prop_assert!(total.is_one());
        prop_assert!(lr.iter().all(|p| !p.is_negative()));
    }

    /// The Theorem 4.1 identity p = #SAT/2ⁿ holds on random formulas.
    #[test]
    fn prop_lemma_4_2_identity(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let f = Cnf::random(3, 2, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        let p = pc_probability(&query, &input);
        prop_assert_eq!(p, Ratio::new(f.count_satisfying() as i64, 8));
    }

    /// Datalog Bayes-net marginals equal brute-force marginals on random
    /// networks.
    #[test]
    fn prop_bayes_marginals(seed in any::<u64>(), n in 1usize..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = BayesNet::random(n, 2, &mut rng);
        let db = net.to_database();
        let target = n - 1;
        let q = net.marginal_query(&[(target, true)]);
        let got = tree_probability(&q, &db);
        prop_assert_eq!(got, net.marginal_reference(&[(target, true)]));
    }

    /// Reachability probabilities from exact inflationary evaluation are
    /// genuine probabilities, and reachability to the start is certain.
    #[test]
    fn prop_reachability_in_unit_interval(seed in any::<u64>(), n in 2usize..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = WeightedGraph::erdos_renyi(n, 0.5, &mut rng);
        let db = Database::new().with("E", g.edge_relation());
        for target in 0..n as i64 {
            let q = pfq::workloads::graphs::reachability_query(0, target);
            let p = tree_probability(&q, &db);
            prop_assert!(p.is_probability(), "p = {}", p);
            if target == 0 {
                prop_assert!(p.is_one());
            }
        }
    }

    /// Fixpoint distributions of random weighted-choice programs are
    /// proper and every fixpoint has exactly one choice per key group.
    #[test]
    fn prop_choice_fixpoints_proper(seed in any::<u64>(), keys in 1usize..4, opts in 1usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for k in 0..keys as i64 {
            for v in 0..opts as i64 {
                rows.push(tuple![k, v, rng.gen_range(1..5i64)]);
            }
        }
        let db = Database::new().with(
            "R",
            Relation::from_rows(Schema::new(["k", "v", "w"]), rows),
        );
        let program = pfq::datalog::parse_program("H(K!, V) @W :- R(K, V, W).").unwrap();
        let fixpoints =
            pfq::datalog::inflationary::enumerate_fixpoints(&program, &db, None).unwrap();
        prop_assert!(fixpoints.is_proper());
        prop_assert_eq!(fixpoints.support_size(), opts.pow(keys as u32));
        for (fp, _) in fixpoints.iter() {
            prop_assert_eq!(fp.get("H").unwrap().len(), keys);
        }
    }
}

/// Non-proptest randomized sweep: the walk query result is independent
/// of the start node on irreducible chains.
#[test]
fn start_independence_on_irreducible_chains() {
    let g = WeightedGraph::cycle(5).lazy(1);
    let mut answers = Vec::new();
    for start in 0..5 {
        let (q, db) = walk_query(&g, start, 2);
        answers.push(chain_probability(&q, &db));
    }
    for w in answers.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

/// Exactness stress: a 12-step fork chain produces probability 1/2¹²,
/// computed exactly (would underflow nothing, round nothing).
#[test]
fn exact_tiny_probabilities() {
    // Path of forks: at each of 12 levels choose "stay on track" w.p.
    // 1/2; event: the final node is reached.
    let mut edges = Vec::new();
    for i in 0..12i64 {
        edges.push(tuple![i, i + 1, 1]); // onward
        edges.push(tuple![i, -(i + 1), 1]); // fall off (dead end)
    }
    let db = Database::new().with(
        "E",
        Relation::from_rows(Schema::new(["i", "j", "p"]), edges),
    );
    let q = pfq::workloads::graphs::reachability_query(0, 12);
    let p = tree_probability(&q, &db);
    assert_eq!(p, Ratio::new(1, 2).pow(12));
}

/// The event algebra composes correctly against exact evaluation.
#[test]
fn compound_events() {
    let db = Database::new().with(
        "E",
        Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [tuple![0, 1, 1], tuple![0, 2, 1]],
        ),
    );
    let program = pfq::workloads::graphs::reachability_program(0);
    let both = Event::tuple_in("C", tuple![1]).and(Event::tuple_in("C", tuple![2]));
    let either = Event::tuple_in("C", tuple![1]).or(Event::tuple_in("C", tuple![2]));
    let q_both = pfq::lang::DatalogQuery::new(program.clone(), both);
    let q_either = pfq::lang::DatalogQuery::new(program, either);
    let p_both = tree_probability(&q_both, &db);
    let p_either = tree_probability(&q_either, &db);
    assert!(p_both.is_zero()); // exactly one branch is ever taken
    assert!(p_either.is_one());
}

/// Weighted values survive the whole pipeline: rational edge weights in
/// the database yield exact rational answers.
#[test]
fn rational_weights_end_to_end() {
    let db = Database::new().with(
        "E",
        Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple![0, 1, Value::frac(1, 7)],
                tuple![0, 2, Value::frac(2, 7)],
                tuple![0, 3, Value::frac(4, 7)],
            ],
        ),
    );
    let q = pfq::workloads::graphs::reachability_query(0, 3);
    let p = tree_probability(&q, &db);
    assert_eq!(p, Ratio::new(4, 7));
}
