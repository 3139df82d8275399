//! MCMC as a forever-query: Glauber dynamics for proper graph colorings.
//!
//! The paper's introduction motivates the languages with exactly this
//! use case: “declarative languages for defining Markov Chains … would
//! allow to program MCMC applications on a higher level of abstraction”.
//! This module programs the classic heat-bath Glauber dynamics *inside
//! the query language*:
//!
//! 1. pick a vertex `v` uniformly (`repair-key∅(V)`),
//! 2. pick a color uniformly among those not used by `v`'s neighbors
//!    (`repair-key∅(K − π(colors of neighbors))`),
//! 3. recolor `v`.
//!
//! Both picks must refer to the *same* sampled vertex, which is what the
//! [`pfq_algebra::Expr::Let`] binding provides. Started from a proper
//! coloring with `q ≥ Δ + 1` colors the walk stays proper; with
//! `q ≥ Δ + 2` it is irreducible over all proper colorings, and its
//! stationary distribution is exactly *uniform* over them — verified
//! exactly in the tests by comparing against brute-force enumeration.

use pfq_algebra::{Expr, Interpretation};
use pfq_core::{Event, ForeverQuery};
use pfq_data::{tuple, Database, Relation, Schema};
use std::collections::BTreeSet;

/// An undirected graph plus a palette size, defining the Glauber chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColoringMcmc {
    /// Number of vertices (`0..n`).
    pub n: usize,
    /// Undirected edges as ordered pairs `(u, v)` with `u < v`.
    pub edges: Vec<(i64, i64)>,
    /// Palette size `q` (colors `0..q`).
    pub q: usize,
}

impl ColoringMcmc {
    /// Builds the instance, validating edge endpoints.
    pub fn new(n: usize, edges: Vec<(i64, i64)>, q: usize) -> ColoringMcmc {
        for &(u, v) in &edges {
            assert!(u != v, "self-loops are not colorable constraints");
            assert!(
                (0..n as i64).contains(&u) && (0..n as i64).contains(&v),
                "edge ({u}, {v}) out of range"
            );
        }
        assert!(q >= 1);
        ColoringMcmc { n, edges, q }
    }

    /// The maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// Whether a coloring (one color per vertex) is proper.
    pub fn is_proper(&self, coloring: &[usize]) -> bool {
        assert_eq!(coloring.len(), self.n);
        coloring.iter().all(|&c| c < self.q)
            && self
                .edges
                .iter()
                .all(|&(u, v)| coloring[u as usize] != coloring[v as usize])
    }

    /// A greedy proper coloring (exists whenever `q ≥ Δ + 1`).
    pub fn greedy_coloring(&self) -> Vec<usize> {
        let mut coloring = vec![usize::MAX; self.n];
        for v in 0..self.n {
            let used: BTreeSet<usize> = self
                .edges
                .iter()
                .filter_map(|&(a, b)| {
                    if a as usize == v {
                        Some(b as usize)
                    } else if b as usize == v {
                        Some(a as usize)
                    } else {
                        None
                    }
                })
                .filter(|&u| coloring[u] != usize::MAX)
                .map(|u| coloring[u])
                .collect();
            coloring[v] = (0..self.q)
                .find(|c| !used.contains(c))
                .expect("q >= Δ + 1 guarantees a free color");
        }
        coloring
    }

    /// All proper colorings, brute force (guarded to small instances).
    pub fn enumerate_proper_colorings(&self) -> Vec<Vec<usize>> {
        assert!(
            (self.q as f64).powi(self.n as i32) <= 5e6,
            "brute force only for small instances"
        );
        let mut out = Vec::new();
        let mut current = vec![0usize; self.n];
        loop {
            if self.is_proper(&current) {
                out.push(current.clone());
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == self.n {
                    return out;
                }
                current[i] += 1;
                if current[i] < self.q {
                    break;
                }
                current[i] = 0;
                i += 1;
            }
        }
    }

    /// The database for the chain: `V(node)`, `E(node, nbr)` (symmetric),
    /// `K(color)`, and the state relation `Color(node, color)`.
    pub fn database(&self, coloring: &[usize]) -> Database {
        assert!(self.is_proper(coloring), "initial coloring must be proper");
        let v = Relation::from_rows(Schema::new(["node"]), (0..self.n as i64).map(|i| tuple![i]));
        let mut e = Relation::empty(Schema::new(["node", "nbr"]));
        for &(a, b) in &self.edges {
            e.insert(tuple![a, b]);
            e.insert(tuple![b, a]);
        }
        let k = Relation::from_rows(
            Schema::new(["color"]),
            (0..self.q as i64).map(|c| tuple![c]),
        );
        let color = Relation::from_rows(
            Schema::new(["node", "color"]),
            coloring
                .iter()
                .enumerate()
                .map(|(i, &c)| tuple![i as i64, c as i64]),
        );
        Database::new()
            .with("V", v)
            .with("E", e)
            .with("K", k)
            .with("Color", color)
    }

    /// The Glauber transition kernel, written entirely in the algebra:
    ///
    /// ```text
    /// Color := let picked = repair-key∅(V) in
    ///          let newc   = repair-key∅(K − π_color(ρ(π_nbr(picked ⋈ E)) ⋈ Color)) in
    ///          (Color − (picked ⋈ Color)) ∪ (picked × newc)
    /// ```
    pub fn kernel(&self) -> Interpretation {
        let picked = Expr::rel("V").repair_key([] as [&str; 0], None);
        let neighbor_colors = Expr::rel("__picked")
            .join(Expr::rel("E"))
            .project(["nbr"])
            .rename([("nbr", "node")])
            .join(Expr::rel("Color"))
            .project(["color"]);
        let allowed = Expr::rel("K").difference(neighbor_colors);
        let newc = allowed.repair_key([] as [&str; 0], None);
        let keep = Expr::rel("Color").difference(Expr::rel("__picked").join(Expr::rel("Color")));
        let recolored = keep.union(Expr::rel("__picked").product(Expr::rel("__newc")));
        let body = newc.bind("__newc", recolored);
        let step = picked.bind("__picked", body);
        Interpretation::new().with("Color", step)
    }

    /// The forever-query `Pr[vertex v has color c]` under the chain's
    /// long-run distribution (uniform over proper colorings when
    /// `q ≥ Δ + 2`).
    pub fn color_query(&self, vertex: i64, color: i64) -> (ForeverQuery, Database) {
        let db = self.database(&self.greedy_coloring());
        (
            ForeverQuery::new(
                self.kernel(),
                Event::tuple_in("Color", tuple![vertex, color]),
            ),
            db,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::chain_probability;
    use pfq_core::exact_noninflationary::{self, ChainBudget};
    use pfq_core::mixing_sampler;
    use pfq_core::sampler::SamplerConfig;

    use pfq_markov::{scc, stationary};
    use pfq_num::Ratio;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn triangle(q: usize) -> ColoringMcmc {
        ColoringMcmc::new(3, vec![(0, 1), (0, 2), (1, 2)], q)
    }

    fn path3(q: usize) -> ColoringMcmc {
        ColoringMcmc::new(3, vec![(0, 1), (1, 2)], q)
    }

    #[test]
    fn proper_coloring_basics() {
        let g = triangle(3);
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_proper(&[0, 1, 2]));
        assert!(!g.is_proper(&[0, 0, 2]));
        let greedy = g.greedy_coloring();
        assert!(g.is_proper(&greedy));
        // Triangle with 3 colors: 3! = 6 proper colorings.
        assert_eq!(g.enumerate_proper_colorings().len(), 6);
    }

    #[test]
    fn chain_states_are_exactly_the_proper_colorings() {
        // q = Δ + 2 = 4 ⇒ irreducible over all proper colorings.
        let g = triangle(4);
        let (query, db) = g.color_query(0, 0);
        let chain =
            exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap();
        let expected = g.enumerate_proper_colorings().len();
        assert_eq!(chain.len(), expected); // 4·3·2 = 24
        assert!(scc::is_irreducible(&chain));
        // Every reachable state is a proper coloring.
        for s in chain.states() {
            let col = s.get("Color").unwrap();
            assert_eq!(col.len(), 3);
        }
    }

    #[test]
    fn stationary_distribution_is_uniform_over_proper_colorings() {
        let g = triangle(4);
        let (query, db) = g.color_query(0, 0);
        let chain =
            exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap();
        let pi = stationary::exact_stationary(&chain).unwrap();
        let uniform = Ratio::new(1, chain.len() as i64);
        for p in &pi {
            assert_eq!(p, &uniform, "Glauber heat-bath must be uniform");
        }
    }

    #[test]
    fn marginal_color_probability_matches_counting() {
        let g = path3(3);
        // Path with q = 3 (Δ = 2, so q = Δ + 1; on paths Glauber with
        // q ≥ 3 is still irreducible).
        let (query, db) = g.color_query(1, 0);
        let p = chain_probability(&query, &db);
        let all = g.enumerate_proper_colorings();
        let with = all.iter().filter(|c| c[1] == 0).count();
        assert_eq!(p, Ratio::new(with as i64, all.len() as i64));
    }

    #[test]
    fn sampling_estimates_the_marginal() {
        let g = triangle(4);
        let (query, db) = g.color_query(2, 3);
        let exact = chain_probability(&query, &db).to_f64();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let config = SamplerConfig::seeded(rng.gen()).with_adaptive(false);
        let est =
            mixing_sampler::evaluate_with_burn_in_config(&query, &db, 60, 0.05, 0.05, &config)
                .unwrap();
        assert!(
            (est.estimate - exact).abs() < 0.05,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn walk_preserves_properness() {
        let g = triangle(4);
        let db = g.database(&g.greedy_coloring());
        let kernel = g.kernel();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut state = db;
        for _ in 0..200 {
            state = kernel.sample_step(&state, &mut rng).unwrap();
            let color = state.get("Color").unwrap();
            assert_eq!(color.len(), 3, "every vertex keeps exactly one color");
            // No edge is monochromatic.
            for t in state.get("E").unwrap().iter() {
                let (u, v) = (t.get(0).clone(), t.get(1).clone());
                let cu = color
                    .iter()
                    .find(|r| r.get(0) == &u)
                    .unwrap()
                    .get(1)
                    .clone();
                let cv = color
                    .iter()
                    .find(|r| r.get(0) == &v)
                    .unwrap()
                    .get(1)
                    .clone();
                assert_ne!(cu, cv);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be proper")]
    fn improper_initial_coloring_rejected() {
        let g = triangle(3);
        g.database(&[0, 0, 1]);
    }
}
