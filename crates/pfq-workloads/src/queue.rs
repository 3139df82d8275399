//! A truncated birth–death chain (an M/M/1-style queue) as a
//! forever-query — a stochastic-process workload with a *closed-form*
//! stationary distribution, so the whole evaluation stack can be
//! validated against textbook formulas.
//!
//! The chain lives on queue lengths `0..=capacity`; per step, one of
//!
//! * **arrival** (length + 1, weight `λ`),
//! * **departure** (length − 1, weight `μ`),
//! * **tick** (no change, weight `σ`),
//!
//! is chosen, with impossible moves (arrival at capacity, departure at
//! 0) masked out. Detailed balance gives the truncated-geometric
//! stationary distribution `π(k) ∝ ρᵏ` with `ρ = λ/μ` — computed in
//! closed form by [`BirthDeathQueue::stationary_reference`] and compared
//! against the database chain in the tests.
//!
//! Declaratively, the database holds `Len(n)` (the current length) and a
//! `Moves(n, next, w)` relation enumerating the legal per-state moves;
//! the kernel is one `repair-key` step, exactly Example 3.3's shape.

use pfq_algebra::{Expr, Interpretation};
use pfq_core::{Event, ForeverQuery};
use pfq_data::{tuple, Database, Relation, Schema};
use pfq_markov::MarkovChain;
use pfq_num::Ratio;

/// A truncated birth–death queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BirthDeathQueue {
    /// Maximum queue length (states `0..=capacity`).
    pub capacity: usize,
    /// Arrival weight λ (positive integer weight).
    pub lambda: i64,
    /// Departure weight μ.
    pub mu: i64,
    /// Self-loop weight σ (laziness; makes the chain aperiodic).
    pub sigma: i64,
}

impl BirthDeathQueue {
    /// Builds a queue; weights must be positive.
    pub fn new(capacity: usize, lambda: i64, mu: i64, sigma: i64) -> BirthDeathQueue {
        assert!(capacity >= 1);
        assert!(
            lambda > 0 && mu > 0 && sigma > 0,
            "weights must be positive"
        );
        BirthDeathQueue {
            capacity,
            lambda,
            mu,
            sigma,
        }
    }

    /// The `Moves(n, next, w)` relation: legal transitions per length.
    pub fn moves_relation(&self) -> Relation {
        let mut rel = Relation::empty(Schema::new(["n", "next", "w"]));
        for k in 0..=self.capacity as i64 {
            rel.insert(tuple![k, k, self.sigma]);
            if k < self.capacity as i64 {
                rel.insert(tuple![k, k + 1, self.lambda]);
            }
            if k > 0 {
                rel.insert(tuple![k, k - 1, self.mu]);
            }
        }
        rel
    }

    /// The database with the queue at `initial` length.
    pub fn database(&self, initial: i64) -> Database {
        assert!((0..=self.capacity as i64).contains(&initial));
        Database::new().with("Moves", self.moves_relation()).with(
            "Len",
            Relation::from_rows(Schema::new(["n"]), [tuple![initial]]),
        )
    }

    /// The one-step kernel: `Len := ρ(π(repair-key_{n@w}(Len ⋈ Moves)))`.
    pub fn kernel(&self) -> Interpretation {
        Interpretation::new().with(
            "Len",
            Expr::rel("Len")
                .join(Expr::rel("Moves"))
                .repair_key(["n"], Some("w"))
                .project(["next"])
                .rename([("next", "n")]),
        )
    }

    /// The forever-query `Pr[queue length = k]`.
    pub fn length_query(&self, initial: i64, k: i64) -> (ForeverQuery, Database) {
        (
            ForeverQuery::new(self.kernel(), Event::tuple_in("Len", tuple![k])),
            self.database(initial),
        )
    }

    /// The closed-form stationary distribution, from the reversibility
    /// of birth–death chains: `π(k+1)/π(k) = P(k→k+1)/P(k+1→k)`, with
    /// the per-state transition probabilities normalized exactly as
    /// `repair-key` normalizes them (the boundary states have fewer
    /// moves, so their normalizing constants differ — the naive
    /// geometric `π(k) ∝ (λ/μ)ᵏ` only holds in the untruncated interior).
    pub fn stationary_reference(&self) -> Vec<Ratio> {
        // Per-state normalized transition probabilities.
        let cap = self.capacity;
        let total = |k: usize| -> i64 {
            let mut t = self.sigma;
            if k < cap {
                t += self.lambda;
            }
            if k > 0 {
                t += self.mu;
            }
            t
        };
        // Birth–death chains are reversible: π(k+1)/π(k) = up(k)/down(k+1).
        let mut pi = vec![Ratio::one()];
        for k in 0..cap {
            let up = Ratio::new(self.lambda, total(k));
            let down = Ratio::new(self.mu, total(k + 1));
            let next = pi[k].mul_ref(&up.div_ref(&down));
            pi.push(next);
        }
        let norm: Ratio = pi.iter().sum();
        pi.into_iter().map(|p| p.div_ref(&norm)).collect()
    }
}

/// A lazy symmetric birth–death chain on `n ≥ 2` states, built directly
/// rather than through a kernel: interior states move ±1 w.p. 1/4 each
/// and stay w.p. 1/2; the boundaries stay w.p. 3/4. Reversible with
/// uniform π, so rational entries stay small and a stationary solve on
/// it measures the solver rather than bignum growth.
pub fn lazy_birth_death_chain(n: usize) -> MarkovChain<u32> {
    let r = Ratio::new;
    let rows = (0..n)
        .map(|i| match i {
            0 => vec![(0, r(3, 4)), (1, r(1, 4))],
            _ if i == n - 1 => vec![(i - 1, r(1, 4)), (i, r(3, 4))],
            _ => vec![(i - 1, r(1, 4)), (i, r(1, 2)), (i + 1, r(1, 4))],
        })
        .collect();
    MarkovChain::from_rows((0..n as u32).collect(), rows).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::chain_probability;
    use pfq_core::exact_noninflationary::{self, ChainBudget};
    use pfq_core::mixing_sampler;

    use pfq_markov::{conductance, scc};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn moves_relation_shape() {
        let q = BirthDeathQueue::new(3, 2, 3, 1);
        let m = q.moves_relation();
        // States 0..=3: interior states 1, 2 have 3 moves each, the two
        // boundary states 2 each.
        assert_eq!(m.len(), 2 * 3 + 2 * 2);
    }

    #[test]
    fn chain_matches_closed_form() {
        let q = BirthDeathQueue::new(4, 2, 3, 1);
        let reference = q.stationary_reference();
        let total: Ratio = reference.iter().sum();
        assert!(total.is_one());
        for k in 0..=4i64 {
            let (query, db) = q.length_query(0, k);
            let p = chain_probability(&query, &db);
            assert_eq!(p, reference[k as usize], "length {k}");
        }
    }

    #[test]
    fn heavier_arrivals_push_mass_right() {
        let busy = BirthDeathQueue::new(4, 3, 1, 1).stationary_reference();
        let idle = BirthDeathQueue::new(4, 1, 3, 1).stationary_reference();
        assert!(busy[4] > idle[4]);
        assert!(idle[0] > busy[0]);
        // Symmetric rates ⇒ almost uniform (boundary effects only).
        let balanced = BirthDeathQueue::new(4, 2, 2, 1).stationary_reference();
        let total: Ratio = balanced.iter().sum();
        assert!(total.is_one());
    }

    #[test]
    fn chain_is_ergodic_and_reversible() {
        let q = BirthDeathQueue::new(5, 2, 3, 1);
        let (query, db) = q.length_query(2, 0);
        let chain =
            exact_noninflationary::build_chain(&query, &db, ChainBudget::default()).unwrap();
        assert_eq!(chain.len(), 6);
        assert!(scc::is_ergodic(&chain));
        // Birth–death chains are always reversible.
        assert_eq!(conductance::is_reversible(&chain), Some(true));
    }

    #[test]
    fn sampling_agrees_with_closed_form() {
        let q = BirthDeathQueue::new(3, 1, 2, 1);
        let reference = q.stationary_reference();
        let (query, db) = q.length_query(3, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let avg = mixing_sampler::evaluate_time_average(&query, &db, 40_000, &mut rng).unwrap();
        assert!(
            (avg - reference[0].to_f64()).abs() < 0.02,
            "{avg} vs {}",
            reference[0].to_f64()
        );
    }

    #[test]
    fn start_state_is_irrelevant() {
        let q = BirthDeathQueue::new(3, 2, 3, 2);
        let mut answers = Vec::new();
        for start in 0..=3 {
            let (query, db) = q.length_query(start, 1);
            answers.push(chain_probability(&query, &db));
        }
        for w in answers.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        BirthDeathQueue::new(3, 0, 1, 1);
    }
}
