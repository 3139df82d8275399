//! End-to-end reproductions of every worked example in the paper.

use pfq::algebra::repair_key::enumerate_repairs;
use pfq::algebra::{Expr, Interpretation};
use pfq::data::{tuple, Database, Relation, Schema, Value};
use pfq::lang::{DatalogQuery, Event, ForeverQuery};
use pfq::num::Ratio;
use pfq::workloads::basketball;
use pfq::workloads::bayes::BayesNet;
use pfq::workloads::exact::{chain_probability, tree_probability};
use pfq::workloads::graphs::{walk_query, WeightedGraph};
use pfq::workloads::pagerank::pagerank_query;

/// Example 2.2 (Table 2): repair-key over the basketball table.
#[test]
fn example_2_2_basketball_repair() {
    let worlds = enumerate_repairs(
        &basketball::players_relation(),
        &["player".to_string()],
        Some("belief"),
        None,
    )
    .unwrap();
    assert_eq!(worlds.support_size(), 4);
    assert!(worlds.is_proper());
    // The paper's numbers: 17/20 and 3/20 for Bryant, 8/15 and 7/15 for
    // Iverson; world probabilities are the products.
    let bryant_lakers_iverson_sixers = worlds
        .iter()
        .find(|(w, _)| {
            w.contains(&tuple!["bryant", "la_lakers", 17])
                && w.contains(&tuple!["iverson", "philadelphia_76ers", 8])
        })
        .map(|(_, p)| p.clone())
        .unwrap();
    assert_eq!(
        bryant_lakers_iverson_sixers,
        Ratio::new(17, 20).mul_ref(&Ratio::new(8, 15))
    );
}

/// Example 3.3: the random walk interpretation computes the stationary
/// distribution of the edge-defined Markov chain.
#[test]
fn example_3_3_random_walk_stationary() {
    // Weighted 3-node chain with hand-computable stationary distribution:
    // 0 → 1 (1); 1 → 0 (1/4), 1 → 2 (3/4); 2 → 1 (1).
    let g = WeightedGraph {
        n: 3,
        edges: vec![(0, 1, 1), (1, 0, 1), (1, 2, 3), (2, 1, 1)],
    };
    // Detailed balance gives π ∝ (1/4, 1, 3/4) → (1/8, 1/2, 3/8).
    let expect = [Ratio::new(1, 8), Ratio::new(1, 2), Ratio::new(3, 8)];
    for (node, want) in expect.iter().enumerate() {
        let (q, db) = walk_query(&g, 0, node as i64);
        let p = chain_probability(&q, &db);
        assert_eq!(&p, want, "node {node}");
    }
}

/// Example 3.3 (variant): PageRank with dampening factor α.
#[test]
fn example_3_3_pagerank() {
    let g = WeightedGraph::cycle(3);
    let (q, db) = pagerank_query(&g, Ratio::new(1, 4), 0, 1);
    let p = chain_probability(&q, &db);
    assert_eq!(p, Ratio::new(1, 3)); // symmetric ⇒ uniform
}

/// Example 3.5: inflationary reachability via the algebra interpretation.
#[test]
fn example_3_5_reachability_algebra() {
    let edges = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        [
            tuple![0, 1, Value::frac(1, 2)],
            tuple![0, 2, Value::frac(1, 2)],
            tuple![1, 3, 1],
        ],
    );
    let db = Database::new()
        .with("E", edges)
        .with("C", Relation::from_rows(Schema::new(["i"]), [tuple![0]]))
        .with("Cold", Relation::empty(Schema::new(["i"])));
    let step = Expr::rel("C")
        .difference(Expr::rel("Cold"))
        .join(Expr::rel("E"))
        .repair_key(["i"], Some("p"))
        .project(["j"])
        .rename([("j", "i")]);
    let kernel = Interpretation::new()
        .with("Cold", Expr::rel("C"))
        .with("C", Expr::rel("C").union(step));
    let q = ForeverQuery::new(kernel, Event::tuple_in("C", tuple![3]));
    let p = chain_probability(&q, &db);
    assert_eq!(p, Ratio::new(1, 2));
}

/// Example 3.6: without the staged choice, every reachable tuple appears
/// with probability 1 (the “re-use of tuples” subtlety).
#[test]
fn example_3_6_unrestricted_reuse() {
    // E = {(a,b,1/2), (a,c,1/2)}; the naive rule C := C ∪ ρπ(repair(C⋈E))
    // re-fires forever, so Pr[b ∈ C] = 1.
    let edges = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        [
            tuple!["a", "b", Value::frac(1, 2)],
            tuple!["a", "c", Value::frac(1, 2)],
        ],
    );
    let db = Database::new()
        .with("E", edges)
        .with("C", Relation::from_rows(Schema::new(["i"]), [tuple!["a"]]));
    let kernel = Interpretation::new().with(
        "C",
        Expr::rel("C").union(
            Expr::rel("C")
                .join(Expr::rel("E"))
                .repair_key(["i"], Some("p"))
                .project(["j"])
                .rename([("j", "i")]),
        ),
    );
    let q = ForeverQuery::new(kernel, Event::tuple_in("C", tuple!["b"]));
    let p = chain_probability(&q, &db);
    assert!(p.is_one(), "unrestricted reuse must flood: got {p}");
}

/// Example 3.9: the staged datalog program restores the 1/2 answer that
/// Example 3.6 loses.
#[test]
fn example_3_9_staged_choice() {
    let db = Database::new().with(
        "E",
        Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple!["v", "w", Value::frac(1, 2)],
                tuple!["v", "u", Value::frac(1, 2)],
            ],
        ),
    );
    let q = DatalogQuery::parse(
        "C(v).\nC2(X!, Y) @P :- C(X), E(X, Y, P).\nC(Y) :- C2(X, Y).",
        Event::tuple_in("C", tuple!["w"]),
    )
    .unwrap();
    let p = tree_probability(&q, &db);
    assert_eq!(p, Ratio::new(1, 2));
}

/// Example 3.7: the head-with-keys rule compiles to exactly
/// π_ABC(repair-key_{AB@D}(π_ABCD(R))).
#[test]
fn example_3_7_rule_translation() {
    // H(X!, Y!, Z) @P :- R(X, Y, Z, P, W).
    let r = Relation::from_rows(
        Schema::new(["a", "b", "c", "d", "e"]),
        [
            tuple![1, 1, 10, 1, 0],
            tuple![1, 1, 20, 3, 0],
            tuple![2, 1, 30, 1, 0],
        ],
    );
    let db = Database::new()
        .with("R", r)
        .with("H", Relation::empty(Schema::new(["x", "y", "z"])));
    let program = pfq::datalog::parse_program("H(X!, Y!, Z) @P :- R(X, Y, Z, P, W).").unwrap();
    let (interp, prepared) =
        pfq::datalog::noninflationary::to_interpretation(&program, &db).unwrap();
    let succ = interp.enumerate_step(&prepared, None).unwrap();
    assert!(succ.is_proper());
    // Group (1,1) chooses z = 10 w.p. 1/4 or z = 20 w.p. 3/4; group (2,1)
    // always keeps z = 30.
    let p_10 = succ.probability_that(|d| d.get("H").unwrap().contains(&tuple![1, 1, 10]));
    let p_20 = succ.probability_that(|d| d.get("H").unwrap().contains(&tuple![1, 1, 20]));
    let p_30 = succ.probability_that(|d| d.get("H").unwrap().contains(&tuple![2, 1, 30]));
    assert_eq!(p_10, Ratio::new(1, 4));
    assert_eq!(p_20, Ratio::new(3, 4));
    assert!(p_30.is_one());
}

/// Example 3.10: Bayesian-network marginals via probabilistic datalog.
#[test]
fn example_3_10_bayesian_network() {
    let net = BayesNet::new(
        vec![vec![], vec![], vec![0, 1]],
        vec![
            vec![Ratio::new(1, 2)],
            vec![Ratio::new(1, 4)],
            vec![
                Ratio::new(1, 10),
                Ratio::new(1, 2),
                Ratio::new(1, 2),
                Ratio::new(9, 10),
            ],
        ],
    );
    let db = net.to_database();
    // Pr[x2 = 1] by brute force and by the datalog query.
    let q = net.marginal_query(&[(2, true)]);
    let got = tree_probability(&q, &db);
    assert_eq!(got, net.marginal_reference(&[(2, true)]));
    // Joint marginal Pr[x0 = 1 ∧ x2 = 1].
    let q = net.marginal_query(&[(0, true), (2, true)]);
    let got = tree_probability(&q, &db);
    assert_eq!(got, net.marginal_reference(&[(0, true), (2, true)]));
}

/// Example 3.5, expressed *entirely in datalog* via the negation
/// extension: the `C − Cold` difference becomes `not Cold(X)`, and the
/// translated non-inflationary kernel reproduces the algebra
/// formulation's answer through a pipelined frontier.
#[test]
fn example_3_5_in_datalog_with_negation() {
    // Fork: 0 → 1 (w 1) | 0 → 2 (w 2); 1 → 3; 2 → 3 (w 1) | 2 → 4 (w 3).
    // Pr[3 reached] = 1/3 · 1 + 2/3 · 1/4 = 1/2.
    let edges = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        [
            tuple![0, 1, 1],
            tuple![0, 2, 2],
            tuple![1, 3, 1],
            tuple![2, 3, 1],
            tuple![2, 4, 3],
        ],
    );
    let program = pfq::datalog::parse_program(
        "Cold(X) :- C(X).\n\
         New(X) :- C(X), not Cold(X).\n\
         C2(X!, Y) @P :- New(X), E(X, Y, P).\n\
         C(X) :- C(X).\n\
         C(Y) :- C2(X, Y).",
    )
    .unwrap();
    let query = pfq::lang::DatalogQuery::new(program, Event::tuple_in("C", tuple![3]));
    let db = Database::new()
        .with("E", edges)
        .with("C", Relation::from_rows(Schema::new(["c0"]), [tuple![0]]));
    let (fq, prepared) = query.to_forever_query(&db).unwrap();
    let p = chain_probability(&fq, &prepared);
    assert_eq!(p, Ratio::new(1, 2));
    // And the datalog inflationary engine (Example 3.9 style) agrees.
    let q_39 = pfq::workloads::graphs::reachability_query(0, 3);
    let db_39 = Database::new().with(
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
    let p_39 = tree_probability(&q_39, &db_39);
    assert_eq!(p, p_39);
}

/// Proposition 3.8 (flavor): every probabilistic datalog program has an
/// equivalent inflationary query — checked here on Example 3.9 by
/// comparing the datalog engine's answer with the Example 3.5 algebra
/// interpretation's answer on the same graph.
#[test]
fn proposition_3_8_datalog_vs_inflationary_interpretation() {
    let edges = Relation::from_rows(
        Schema::new(["i", "j", "p"]),
        [
            tuple![0, 1, 1],
            tuple![0, 2, 2],
            tuple![1, 3, 1],
            tuple![2, 3, 1],
            tuple![2, 4, 3],
        ],
    );
    // Datalog route.
    let q = pfq::workloads::graphs::reachability_query(0, 3);
    let db = Database::new().with("E", edges.clone());
    let p_datalog = tree_probability(&q, &db);

    // Algebra route (Example 3.5 kernel).
    let db = Database::new()
        .with("E", edges)
        .with("C", Relation::from_rows(Schema::new(["i"]), [tuple![0]]))
        .with("Cold", Relation::empty(Schema::new(["i"])));
    let step = Expr::rel("C")
        .difference(Expr::rel("Cold"))
        .join(Expr::rel("E"))
        .repair_key(["i"], Some("p"))
        .project(["j"])
        .rename([("j", "i")]);
    let kernel = Interpretation::new()
        .with("Cold", Expr::rel("C"))
        .with("C", Expr::rel("C").union(step));
    let fq = ForeverQuery::new(kernel, Event::tuple_in("C", tuple![3]));
    let p_algebra = chain_probability(&fq, &db);

    assert_eq!(p_datalog, p_algebra);
    assert_eq!(p_datalog, Ratio::new(1, 2));
}
