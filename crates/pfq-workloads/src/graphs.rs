//! Weighted directed graphs in the paper's relational layout, and the
//! random-walk / reachability queries over them.
//!
//! Databases use `E(i, j, p)` for weighted edges and `C(i)` for the
//! walker (Examples 3.3, 3.5, 3.9). Node ids are integers.

use pfq_algebra::{Expr, Interpretation};
use pfq_core::{Event, ForeverQuery};
use pfq_data::{tuple, Database, Relation, Schema};
use rand::Rng;
use std::collections::BTreeSet;

/// A weighted directed graph; weights are positive integers (repair-key
/// normalizes within each source's out-edges).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    /// Number of nodes (ids `0..n`).
    pub n: usize,
    /// `(from, to, weight)` edges.
    pub edges: Vec<(i64, i64, i64)>,
}

impl WeightedGraph {
    /// The directed cycle `0 → 1 → … → n−1 → 0` (period `n`; slow or
    /// non-mixing — pair with [`Self::lazy`]).
    pub fn cycle(n: usize) -> WeightedGraph {
        assert!(n >= 1);
        let edges = (0..n as i64).map(|i| (i, (i + 1) % n as i64, 1)).collect();
        WeightedGraph { n, edges }
    }

    /// The complete graph with self-loops — mixes in one step.
    pub fn complete(n: usize) -> WeightedGraph {
        assert!(n >= 1);
        let mut edges = Vec::new();
        for i in 0..n as i64 {
            for j in 0..n as i64 {
                edges.push((i, j, 1));
            }
        }
        WeightedGraph { n, edges }
    }

    /// The path `0 → 1 → … → n−1` with a self-loop at the end — an
    /// absorbing chain (multi-SCC condensation).
    pub fn path(n: usize) -> WeightedGraph {
        assert!(n >= 1);
        let mut edges: Vec<(i64, i64, i64)> = (0..n as i64 - 1).map(|i| (i, i + 1, 1)).collect();
        edges.push((n as i64 - 1, n as i64 - 1, 1));
        WeightedGraph { n, edges }
    }

    /// Two complete graphs of `half` nodes each, joined by a single
    /// bridge edge in each direction — mixing time grows with `half`
    /// (the walk rarely crosses the bridge).
    pub fn dumbbell(half: usize) -> WeightedGraph {
        assert!(half >= 2);
        let mut edges = Vec::new();
        let h = half as i64;
        for block in 0..2i64 {
            let base = block * h;
            for i in 0..h {
                for j in 0..h {
                    edges.push((base + i, base + j, 1));
                }
            }
        }
        edges.push((0, h, 1)); // bridge out of block 0
        edges.push((h, 0, 1)); // bridge back
        WeightedGraph { n: 2 * half, edges }
    }

    /// Erdős–Rényi digraph: each ordered pair `(i, j)` gets an edge with
    /// probability `p` and weight 1–4; nodes left without out-edges get a
    /// self-loop so walks never die.
    pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> WeightedGraph {
        assert!(n >= 1);
        let mut edges = Vec::new();
        for i in 0..n as i64 {
            for j in 0..n as i64 {
                if rng.gen::<f64>() < p {
                    edges.push((i, j, rng.gen_range(1..=4)));
                }
            }
        }
        let mut has_out: BTreeSet<i64> = edges.iter().map(|&(i, _, _)| i).collect();
        for i in 0..n as i64 {
            if !has_out.contains(&i) {
                edges.push((i, i, 1));
                has_out.insert(i);
            }
        }
        WeightedGraph { n, edges }
    }

    /// Adds a weight-`w` self-loop to every node (laziness ⇒ aperiodic).
    pub fn lazy(mut self, w: i64) -> WeightedGraph {
        let with_loop: BTreeSet<i64> = self
            .edges
            .iter()
            .filter(|(i, j, _)| i == j)
            .map(|&(i, _, _)| i)
            .collect();
        for i in 0..self.n as i64 {
            if !with_loop.contains(&i) {
                self.edges.push((i, i, w));
            }
        }
        self
    }

    /// The `E(i, j, p)` relation.
    pub fn edge_relation(&self) -> Relation {
        Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            self.edges.iter().map(|&(i, j, w)| tuple![i, j, w]),
        )
    }

    /// The database for a walk starting at `start`: `E` plus `C = {start}`.
    pub fn walker_database(&self, start: i64) -> Database {
        Database::new().with("E", self.edge_relation()).with(
            "C",
            Relation::from_rows(Schema::new(["i"]), [tuple![start]]),
        )
    }

    /// The node relation `V(i)` (for PageRank's uniform jump).
    pub fn node_relation(&self) -> Relation {
        Relation::from_rows(Schema::new(["i"]), (0..self.n as i64).map(|i| tuple![i]))
    }
}

/// The Example 3.3 random-walk transition kernel:
/// `C := ρ_I(π_J(repair-key_{I@P}(C ⋈ E)))`, `E` unchanged.
pub fn walk_kernel() -> Interpretation {
    Interpretation::new().with(
        "C",
        Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")]),
    )
}

/// The Example 3.3 forever-query: the stationary probability of the
/// walker being at `target`.
pub fn walk_query(graph: &WeightedGraph, start: i64, target: i64) -> (ForeverQuery, Database) {
    (
        ForeverQuery::new(walk_kernel(), Event::tuple_in("C", tuple![target])),
        graph.walker_database(start),
    )
}

/// The Example 3.9 probabilistic-reachability program from start node
/// `start` (source text, parsed fresh so callers can display it).
pub fn reachability_program(start: i64) -> pfq_datalog::Program {
    pfq_datalog::parse_program(&format!(
        "C({start}).\n\
         C2(X!, Y) @P :- C(X), E(X, Y, P).\n\
         C(Y) :- C2(X, Y)."
    ))
    .expect("static program text parses")
}

/// The Example 3.9 query: probability that `target` is ever reached by a
/// random walk from `start` (inflationary semantics).
pub fn reachability_query(start: i64, target: i64) -> pfq_core::DatalogQuery {
    pfq_core::DatalogQuery::new(
        reachability_program(start),
        Event::tuple_in("C", tuple![target]),
    )
}

/// A database of `k` disjoint copies of `graph`, walkers at each copy's
/// `start` — the E8 partitioning workload. Node ids of copy `c` are
/// offset by `c · graph.n`.
pub fn disjoint_copies(graph: &WeightedGraph, k: usize, start: i64) -> Database {
    let n = graph.n as i64;
    let mut edges = Vec::new();
    let mut walkers = Vec::new();
    for c in 0..k as i64 {
        for &(i, j, w) in &graph.edges {
            edges.push((i + c * n, j + c * n, w));
        }
        walkers.push(start + c * n);
    }
    Database::new()
        .with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j", "p"]),
                edges.iter().map(|&(i, j, w)| tuple![i, j, w]),
            ),
        )
        .with(
            "C",
            Relation::from_rows(Schema::new(["i"]), walkers.iter().map(|&i| tuple![i])),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{chain_probability, tree_probability};
    use pfq_core::exact_noninflationary::{self, ChainBudget};

    use pfq_markov::{mixing, scc, MarkovChain};
    use pfq_num::Ratio;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn explicit_chain(g: &WeightedGraph, start: i64) -> MarkovChain<Database> {
        let (q, db) = walk_query(g, start, 0);
        exact_noninflationary::build_chain(&q, &db, ChainBudget::default()).unwrap()
    }

    #[test]
    fn cycle_walk_is_uniform() {
        let g = WeightedGraph::cycle(5);
        let (q, db) = walk_query(&g, 0, 3);
        let p = chain_probability(&q, &db);
        assert_eq!(p, Ratio::new(1, 5));
    }

    #[test]
    fn complete_graph_mixes_in_one_step() {
        let g = WeightedGraph::complete(4);
        let chain = explicit_chain(&g, 0);
        assert_eq!(chain.len(), 4);
        assert_eq!(mixing::mixing_time(&chain, 1e-9, 10), Some(1));
    }

    #[test]
    fn dumbbell_mixes_slower_than_complete() {
        let fast = explicit_chain(&WeightedGraph::complete(8), 0);
        let slow = explicit_chain(&WeightedGraph::dumbbell(4), 0);
        let tf = mixing::mixing_time(&fast, 0.05, 10_000).unwrap();
        let ts = mixing::mixing_time(&slow, 0.05, 10_000).unwrap();
        assert!(ts > 2 * tf, "dumbbell {ts} vs complete {tf}");
    }

    #[test]
    fn path_walk_absorbs_at_end() {
        let g = WeightedGraph::path(4);
        let (q, db) = walk_query(&g, 0, 3);
        let p = chain_probability(&q, &db);
        assert!(p.is_one());
        let chain = explicit_chain(&g, 0);
        assert!(!scc::is_irreducible(&chain));
    }

    #[test]
    fn lazy_makes_cycles_ergodic() {
        let periodic = explicit_chain(&WeightedGraph::cycle(4), 0);
        assert!(!scc::is_ergodic(&periodic));
        let lazy = explicit_chain(&WeightedGraph::cycle(4).lazy(1), 0);
        assert!(scc::is_ergodic(&lazy));
    }

    #[test]
    fn erdos_renyi_every_node_has_out_edge() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = WeightedGraph::erdos_renyi(20, 0.05, &mut rng);
        let sources: BTreeSet<i64> = g.edges.iter().map(|&(i, _, _)| i).collect();
        assert_eq!(sources.len(), 20);
    }

    #[test]
    fn reachability_program_matches_hand_computation() {
        // Fork v → {w, u}: Example 3.9's 1/2.
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j", "p"]),
                [tuple![0, 1, 1], tuple![0, 2, 1]],
            ),
        );
        let q = reachability_query(0, 1);
        let p = tree_probability(&q, &db);
        assert_eq!(p, Ratio::new(1, 2));
    }

    #[test]
    fn disjoint_copies_are_disjoint() {
        let g = WeightedGraph::cycle(3);
        let db = disjoint_copies(&g, 3, 0);
        assert_eq!(db.get("E").unwrap().len(), 9);
        assert_eq!(db.get("C").unwrap().len(), 3);
        // No edge crosses copies.
        for t in db.get("E").unwrap().iter() {
            let (i, j) = (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap());
            assert_eq!(i / 3, j / 3);
        }
    }
}
