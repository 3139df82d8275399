//! Differential tests for the interning/memoization layer: the engine's
//! memoized evaluators must return **bit-identical** `Ratio` results to
//! the un-memoized reference oracles (`enumerate_fixpoints` and the
//! tree-walking, `Database`-keyed reference chain solved by dense
//! elimination) on every
//! workload family, including when one engine's shared cache serves
//! many repeated and interleaved queries. Exact rational mass is merged
//! commutatively, so any deviation is a real engine bug, not noise.

use pfq::algebra::{Expr, Interpretation};
use pfq::data::{tuple, Database, Relation, Schema, Value};
use pfq::lang::exact_inflationary::ExactBudget;
use pfq::lang::exact_noninflationary::ChainBudget;
use pfq::lang::{DatalogQuery, Engine, EvalRequest, Event, ForeverQuery, Strategy};
use pfq::num::Ratio;
use pfq::workloads::coloring::ColoringMcmc;
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use pfq::workloads::queue::BirthDeathQueue;
use pfq::workloads::sat::{theorem_4_1_pc, Cnf};
use pfq_fuzz::oracle::{
    reference_chain_probability, reference_pc_probability, reference_tree_probability,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Prop 4.4 through the engine's memoized exact-tree plan.
fn exact_tree(engine: &mut Engine, q: &DatalogQuery, db: &Database, budget: ExactBudget) -> Ratio {
    let request = EvalRequest::inflationary(q, db)
        .with_strategy(Strategy::ExactTree)
        .with_exact_budget(budget);
    engine.run(&request).unwrap().into_exact().unwrap()
}

/// Thm 5.5 through the engine's interned exact-chain plan.
fn exact_chain(engine: &mut Engine, q: &ForeverQuery, db: &Database) -> Ratio {
    let request = EvalRequest::forever(q, db).with_strategy(Strategy::ExactChain);
    engine.run(&request).unwrap().into_exact().unwrap()
}

fn tree_oracle(q: &DatalogQuery, db: &Database) -> Ratio {
    reference_tree_probability(q, db, None).unwrap()
}

fn chain_oracle(q: &ForeverQuery, db: &Database) -> Ratio {
    reference_chain_probability(q, db, ChainBudget::default()).unwrap()
}

/// Inflationary reachability over random and structured graphs: one
/// shared engine across every (graph, target) pair vs the oracle.
#[test]
fn differential_graph_reachability() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    let mut graphs = vec![WeightedGraph::cycle(5), WeightedGraph::dumbbell(3)];
    for _ in 0..3 {
        graphs.push(WeightedGraph::erdos_renyi(5, 0.5, &mut rng));
    }
    let mut shared = Engine::new();
    for g in &graphs {
        let db = Database::new().with("E", g.edge_relation());
        for target in 0..g.n as i64 {
            let q = pfq::workloads::graphs::reachability_query(0, target);
            let memoized = exact_tree(&mut shared, &q, &db, ExactBudget::default());
            assert_eq!(
                memoized,
                tree_oracle(&q, &db),
                "graph n={} target={target}",
                g.n
            );
        }
    }
    assert!(shared.stats().engine_states > 0);
    // Each graph has one program and one initial database,
    // so the per-target repeats all hit the whole-tree result memo.
    assert!(shared.stats().result_hits > 0);
}

/// Glauber-coloring long-run marginals (non-inflationary chains): the
/// interned chain vs the reference whole-database chain.
#[test]
fn differential_coloring() {
    let cases = vec![
        ColoringMcmc::new(3, vec![(0, 1), (0, 2), (1, 2)], 4),
        ColoringMcmc::new(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)], 3),
    ];
    let mut shared = Engine::new();
    for g in &cases {
        for vertex in 0..2 {
            let (q, db) = g.color_query(vertex, 0);
            let memoized = exact_chain(&mut shared, &q, &db);
            assert_eq!(memoized, chain_oracle(&q, &db), "coloring vertex {vertex}");
        }
    }
    // Each case's two queries share the kernel and the start database:
    // the second is served by the long-run memo and walks no kernel row.
    let stats = shared.stats();
    assert_eq!(
        (stats.result_hits, stats.result_misses),
        (2, 2),
        "{stats:?}"
    );
    assert_eq!(stats.kernel_hits, 0, "{stats:?}");
    assert_eq!(stats.kernel_misses, stats.db_states as u64, "{stats:?}");
}

/// Birth–death queue stationary probabilities, also checked against the
/// closed form.
#[test]
fn differential_queue() {
    let queue = BirthDeathQueue::new(3, 2, 3, 2);
    let reference = queue.stationary_reference();
    let mut shared = Engine::new();
    for k in 0..=3i64 {
        let (q, db) = queue.length_query(0, k);
        let memoized = exact_chain(&mut shared, &q, &db);
        assert_eq!(memoized, chain_oracle(&q, &db), "queue length {k}");
        assert_eq!(memoized, reference[k as usize], "closed form, length {k}");
    }
}

/// The Theorem 4.1 3-SAT pc-tables: every possible world of each
/// pc-table runs through one shared engine, and the mixture must still
/// equal both the oracle's world-by-world sum and the model-counting
/// identity.
#[test]
fn differential_pc_table_sat() {
    let mut rng = ChaCha8Rng::seed_from_u64(107);
    let mut shared = Engine::new();
    for _ in 0..3 {
        let f = Cnf::random(4, 3, &mut rng);
        let (query, input) = theorem_4_1_pc(&f);
        let oracle = reference_pc_probability(&query, &input, None).unwrap();
        let request =
            EvalRequest::inflationary_pc(&query, &input).with_strategy(Strategy::ExactTree);
        let memoized = shared.run(&request).unwrap().into_exact().unwrap();
        assert_eq!(memoized, oracle);
        assert_eq!(memoized, Ratio::new(f.count_satisfying() as i64, 16));
    }
}

/// Repeated and interleaved queries against one shared engine: answers
/// never drift as the cache warms, whatever order the evaluators are
/// hit in — and warm repeats are served from the result memo.
#[test]
fn interleaved_queries_on_one_shared_cache() {
    let g = WeightedGraph::dumbbell(3);
    let reach_db = Database::new().with("E", g.edge_relation());
    let (walk_q, walk_db) = walk_query(&g, 0, 4);
    let reach_q = pfq::workloads::graphs::reachability_query(0, 4);

    let oracle_reach = tree_oracle(&reach_q, &reach_db);
    let oracle_walk = chain_oracle(&walk_q, &walk_db);

    let mut shared = Engine::new();
    for round in 0..3 {
        let reach = exact_tree(&mut shared, &reach_q, &reach_db, ExactBudget::default());
        let walk = exact_chain(&mut shared, &walk_q, &walk_db);
        assert_eq!(reach, oracle_reach, "round {round}");
        assert_eq!(walk, oracle_walk, "round {round}");
    }
    // One cold tree traversal and one cold chain solve; each evaluator's
    // two warm repeats are whole-query result hits, and no kernel row is
    // walked twice.
    let stats = shared.stats();
    assert_eq!(stats.result_misses, 2, "{stats:?}");
    assert_eq!(stats.result_hits, 4, "{stats:?}");
    assert_eq!(stats.kernel_hits, 0, "{stats:?}");
    assert_eq!(stats.kernel_misses, stats.db_states as u64, "{stats:?}");
}

/// Regression for the node-budget off-by-one: `Some(limit)` admits
/// exactly `limit` tree nodes — fixpoint leaves included — on both the
/// memoized engine and the un-memoized oracle.
#[test]
fn node_budget_boundary_is_exact_on_both_paths() {
    // Deterministic transitive closure on a 2-edge path: the tree is a
    // single chain of exactly 3 nodes (2 expansions + 1 fixpoint leaf).
    let db = Database::new().with(
        "E",
        pfq::data::Relation::from_rows(
            pfq::data::Schema::new(["i", "j"]),
            [pfq::data::tuple![1, 2], pfq::data::tuple![2, 3]],
        ),
    );
    let program =
        pfq::datalog::parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap();
    let q = DatalogQuery::new(
        program,
        pfq::lang::Event::tuple_in("T", pfq::data::tuple![1, 3]),
    );
    let budget = |nodes| ExactBudget {
        node_budget: Some(nodes),
    };
    assert!(exact_tree(&mut Engine::new(), &q, &db, budget(3)).is_one());
    assert!(reference_tree_probability(&q, &db, Some(3))
        .unwrap()
        .is_one());
    let short = EvalRequest::inflationary(&q, &db)
        .with_strategy(Strategy::ExactTree)
        .with_exact_budget(budget(2));
    assert!(Engine::new().run(&short).is_err());
    assert!(reference_tree_probability(&q, &db, Some(2)).is_err());
}

/// Runs `requests` in order through one shared engine and checks each
/// answer against a fresh engine's.
fn shared_equals_fresh(requests: &[EvalRequest<'_>]) {
    let mut shared = Engine::new();
    for (i, request) in requests.iter().enumerate() {
        let warm = shared.run(request).unwrap().into_exact().unwrap();
        let fresh = Engine::new().run(request).unwrap().into_exact().unwrap();
        assert_eq!(warm, fresh, "request {i}");
    }
}

/// Two kernels whose texts are equal — `const(i) {(1)}` renders the
/// integer 1 and the string "1" alike — must not share kernel rows.
#[test]
fn kernels_with_equal_text_keep_apart() {
    let db = Database::new().with("C", Relation::empty(Schema::new(["i"])));
    let queries: Vec<ForeverQuery> = [Value::int(1), Value::str("1")]
        .into_iter()
        .map(|v| {
            let constant = Relation::from_rows(Schema::new(["i"]), [tuple![v]]);
            let kernel = Interpretation::new().with("C", Expr::constant(constant));
            ForeverQuery::new(kernel, Event::tuple_in("C", tuple![1]))
        })
        .collect();
    assert_eq!(queries[0].kernel.to_string(), queries[1].kernel.to_string());
    let requests: Vec<_> = queries
        .iter()
        .map(|q| EvalRequest::forever(q, &db).with_strategy(Strategy::ExactChain))
        .collect();
    shared_equals_fresh(&requests);
}

/// `C(1).` and `C("1").` translate to kernels with equal text; forced
/// onto the exact chain in one engine, each must keep its own answer.
#[test]
fn noninflationary_programs_with_equal_kernel_text_keep_apart() {
    let db = Database::new();
    let queries: Vec<DatalogQuery> = ["C(1).", "C(\"1\")."]
        .iter()
        .map(|src| DatalogQuery::parse(src, Event::tuple_in("C", tuple![1])).unwrap())
        .collect();
    let requests: Vec<_> = queries
        .iter()
        .map(|q| EvalRequest::noninflationary(q, &db).with_strategy(Strategy::ExactChain))
        .collect();
    shared_equals_fresh(&requests);
}

/// Two different inflationary programs with the same rule count over one
/// database share no tree rows or whole-tree results.
#[test]
fn inflationary_programs_with_equal_rule_counts_keep_apart() {
    let db = Database::new().with(
        "E",
        Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple!["v", "w", 1],
                tuple!["v", "u", 3],
                tuple!["w", "u", 1],
            ],
        ),
    );
    let queries: Vec<DatalogQuery> = ["v", "w"]
        .iter()
        .map(|start| {
            let src = format!("C({start}).\nC2(X!, Y) @P :- C(X), E(X, Y, P).\nC(Y) :- C2(X, Y).");
            DatalogQuery::parse(&src, Event::tuple_in("C", tuple!["w"])).unwrap()
        })
        .collect();
    let requests: Vec<_> = queries
        .iter()
        .map(|q| EvalRequest::inflationary(q, &db).with_strategy(Strategy::ExactTree))
        .collect();
    shared_equals_fresh(&requests);
}
