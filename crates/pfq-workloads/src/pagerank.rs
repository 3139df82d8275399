//! PageRank as a forever-query — the damped variant of Example 3.3.
//!
//! The kernel mixes the ordinary walk step with a uniform jump over the
//! node relation `V`:
//!
//! ```text
//! C := repair-key_∅@P( ρ_I(π_J(repair-key_{I@P}(C ⋈ E))) × {P: 1−α}
//!                    ∪ π_I(repair-key_∅(V)) × {P: α} )
//! ```

use crate::graphs::WeightedGraph;
use pfq_algebra::{Expr, Interpretation};
use pfq_core::{Event, ForeverQuery};
use pfq_data::{tuple, Database, Relation, Schema, Value};
use pfq_num::Ratio;

/// Builds the PageRank transition kernel with damping factor `alpha`
/// (the probability of abandoning the walk and jumping uniformly).
pub fn pagerank_kernel(alpha: Ratio) -> Interpretation {
    assert!(
        alpha.is_positive() && alpha < Ratio::one(),
        "alpha must be in (0, 1)"
    );
    let step = Expr::rel("C")
        .join(Expr::rel("E"))
        .repair_key(["i"], Some("p"))
        .project(["j"])
        .rename([("j", "i")]);
    let jump = Expr::rel("V").repair_key([] as [&str; 0], None);
    let weighted = |e: Expr, w: Ratio| {
        let wrel = Relation::from_rows(Schema::new(["pp"]), [tuple![Value::ratio(w)]]);
        e.product(Expr::constant(wrel))
    };
    let one_minus = Ratio::one().sub_ref(&alpha);
    let combined = weighted(step, one_minus)
        .union(weighted(jump, alpha))
        .repair_key([] as [&str; 0], Some("pp"))
        .project(["i"]);
    Interpretation::new().with("C", combined)
}

/// The PageRank query: long-run probability of the damped walk being at
/// `target`, starting from `start`.
pub fn pagerank_query(
    graph: &WeightedGraph,
    alpha: Ratio,
    start: i64,
    target: i64,
) -> (ForeverQuery, Database) {
    let db = graph
        .walker_database(start)
        .with("V", graph.node_relation());
    (
        ForeverQuery::new(pagerank_kernel(alpha), Event::tuple_in("C", tuple![target])),
        db,
    )
}

/// Direct PageRank reference: power iteration on the n-node damped
/// transition matrix (not the database chain), for cross-checking.
pub fn pagerank_reference(graph: &WeightedGraph, alpha: f64, iters: usize) -> Vec<f64> {
    let n = graph.n;
    // Row-normalized weighted adjacency.
    let mut out_weight = vec![0.0f64; n];
    for &(i, _, w) in &graph.edges {
        out_weight[i as usize] += w as f64;
    }
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let mut next = vec![alpha / n as f64; n];
        for &(i, j, w) in &graph.edges {
            let share = w as f64 / out_weight[i as usize];
            next[j as usize] += (1.0 - alpha) * rank[i as usize] * share;
        }
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::chain_probability;
    use pfq_core::exact_noninflationary::{self, ChainBudget};

    #[test]
    fn kernel_step_distribution_is_damped() {
        // 2-cycle, α = 1/4, walker at 0: next is 1 w.p. 3/4 + 1/4·1/2,
        // and 0 w.p. 1/4·1/2.
        let g = WeightedGraph::cycle(2);
        let (q, db) = pagerank_query(&g, Ratio::new(1, 4), 0, 0);
        let succ = q.kernel.enumerate_step(&db, None).unwrap();
        assert!(succ.is_proper());
        let at = |node: i64| succ.probability_that(|d| d.get("C").unwrap().contains(&tuple![node]));
        assert_eq!(at(1), Ratio::new(7, 8));
        assert_eq!(at(0), Ratio::new(1, 8));
    }

    #[test]
    fn symmetric_graph_has_uniform_pagerank() {
        let g = WeightedGraph::cycle(4);
        let (q, db) = pagerank_query(&g, Ratio::new(1, 5), 0, 2);
        let p = chain_probability(&q, &db);
        assert_eq!(p, Ratio::new(1, 4));
    }

    #[test]
    fn exact_matches_reference_on_asymmetric_graph() {
        // Star-ish graph: 0 → 1, 1 → {0, 2}, 2 → 0.
        let g = WeightedGraph {
            n: 3,
            edges: vec![(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 0, 1)],
        };
        let alpha = Ratio::new(3, 20); // 0.15
        let reference = pagerank_reference(&g, 0.15, 500);
        for target in 0..3 {
            let (q, db) = pagerank_query(&g, alpha.clone(), 0, target);
            let p = chain_probability(&q, &db).to_f64();
            assert!(
                (p - reference[target as usize]).abs() < 1e-9,
                "node {target}: exact {p} vs reference {}",
                reference[target as usize]
            );
        }
    }

    #[test]
    fn damping_makes_any_graph_ergodic() {
        // Even the periodic 2-cycle walk becomes ergodic with jumps.
        let g = WeightedGraph::cycle(2);
        let (q, db) = pagerank_query(&g, Ratio::new(1, 4), 0, 0);
        let chain = exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap();
        assert!(pfq_markov::scc::is_ergodic(&chain));
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn alpha_out_of_range_panics() {
        pagerank_kernel(Ratio::one());
    }
}
