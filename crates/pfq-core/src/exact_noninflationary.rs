//! Exact non-inflationary evaluation — Proposition 5.4 and Theorem 5.5.
//!
//! Builds the explicit Markov chain of reachable database instances by
//! evaluating the transition kernel on each state, then computes the
//! long-run (time-average) distribution: directly by sparse GTH
//! elimination when the chain is irreducible (Prop. 5.4), or via
//! absorption into the closed SCCs of the condensation in general
//! (Thm. 5.5). The query result is the summed long-run probability of
//! event states.

use crate::cache::ChainCache;
use crate::{CoreError, EvalCache, ForeverQuery};
use pfq_algebra::AlgebraError;
use pfq_data::intern::{fingerprint64, StateId};
use pfq_data::Database;
use pfq_markov::absorption::long_run_distribution;
use pfq_markov::MarkovChain;
use pfq_num::{Distribution, Ratio};
use std::sync::Arc;

/// Budgets for explicit chain construction; defaults are deliberately
/// finite because the state space is exponential in the database size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainBudget {
    /// Maximum database states to explore.
    pub max_states: usize,
    /// Maximum possible worlds per kernel application.
    pub world_limit: usize,
}

impl Default for ChainBudget {
    fn default() -> Self {
        ChainBudget {
            max_states: 100_000,
            world_limit: 100_000,
        }
    }
}

/// Builds the explicit Markov chain over database instances reachable
/// from `db` under the query's kernel.
///
/// This reference oracle keys the chain on whole `Database` values
/// (every dedup an `O(|db|)` comparison). Evaluation never calls it: the
/// engine, [`evaluate`] and the burn-in probe explore over dense
/// [`StateId`]s with [`build_chain_interned`]. It serves the tests, the
/// fuzzer and the benches as the oracle, and examples and workloads as
/// the public way to obtain a `MarkovChain<Database>` for mixing-time and
/// conductance analysis.
pub fn build_chain(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
) -> Result<MarkovChain<Database>, CoreError> {
    let kernel = &query.kernel;
    let chain = MarkovChain::explore(
        [db.clone()],
        |state: &Database| kernel.enumerate_step(state, Some(budget.world_limit)),
        Some(budget.max_states),
    )?;
    Ok(chain)
}

/// The stable fingerprint of a query's transition kernel, keying its
/// memoized rows in the [`ChainCache`].
pub fn kernel_fingerprint(query: &ForeverQuery) -> u64 {
    fingerprint64(&query.kernel.to_string())
}

/// Theorem 5.5 chain construction over interned states: databases are
/// hash-consed to [`StateId`]s in the cache's state store (dedup becomes
/// a `u32` compare) and kernel rows are memoized per
/// `(kernel fingerprint, StateId)`, so re-evaluating the same query —
/// or any query with the same kernel — reuses every transition already
/// computed. Resolve chain states back to databases through
/// [`EvalCache`]'s store.
pub fn build_chain_interned(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
    cache: &mut EvalCache,
) -> Result<MarkovChain<StateId>, CoreError> {
    let fp = kernel_fingerprint(query);
    let ChainCache { store, steps } = &mut cache.chain;
    let start = store.intern(db.clone());
    let kernel = &query.kernel;
    let chain = MarkovChain::explore(
        [start],
        |&sid: &StateId| -> Result<Distribution<StateId>, AlgebraError> {
            if let Some(row) = steps.get(fp, sid) {
                return Ok(row.iter().cloned().collect());
            }
            let state = store.resolve(sid).clone();
            let succ = kernel.enumerate_step(&state, Some(budget.world_limit))?;
            let mut row = Vec::with_capacity(succ.support_size());
            for (next, q) in succ.into_iter() {
                row.push((store.intern(next), q));
            }
            let row = Arc::new(row);
            steps.insert(fp, sid, row.clone());
            Ok(row.iter().cloned().collect())
        },
        Some(budget.max_states),
    )?;
    Ok(chain)
}

/// The exact query result (Thm. 5.5): the long-run probability that the
/// event holds on the random walk of database instances started at `db`.
/// Builds the interned explicit chain through `cache` (kernel rows
/// memoized across calls), solves the long-run distribution by sparse GTH
/// elimination, and sums the event states' mass. Pass a fresh
/// `EvalCache::default()` for a one-off query.
pub fn evaluate(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
    cache: &mut EvalCache,
) -> Result<Ratio, CoreError> {
    let chain = build_chain_interned(query, db, budget, cache)?;
    let start_id = cache
        .chain
        .store
        .lookup(db)
        .expect("start state was interned");
    let start = chain.index_of(&start_id).expect("start state in chain");
    let long_run = long_run_distribution(&chain, start)?;
    let mut total = Ratio::zero();
    for (i, p) in long_run.iter().enumerate() {
        if !p.is_zero()
            && query
                .event
                .holds(cache.chain.store.resolve(*chain.state(i)))
        {
            total = total.add_ref(p);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::walk;
    use crate::Event;
    use pfq_algebra::{Expr, Interpretation};
    use pfq_data::{tuple, Relation, Schema, Value};
    use pfq_num::Ratio;

    /// Example 3.3's random-walk query over a weighted triangle:
    /// 1 → 2 (1/2), 1 → 3 (1/2), 2 → 1 (1), 3 → 1 (1).
    fn walk_query(target: i64) -> (ForeverQuery, Database) {
        let half = Value::frac(1, 2);
        let one = Value::from(1);
        walk(
            &[
                (1, 2, half.clone()),
                (1, 3, half),
                (2, 1, one.clone()),
                (3, 1, one),
            ],
            1,
            target,
        )
    }

    #[test]
    fn chain_structure() {
        let (q, db) = walk_query(1);
        let chain = build_chain(&q, &db, ChainBudget::default()).unwrap();
        assert_eq!(chain.len(), 3); // walker at 1, 2, or 3
    }

    #[test]
    fn stationary_of_triangle_walk() {
        // Hand computation: π(1)·1/2 flows to each of 2, 3 which return.
        // Balance: π1 = π2 + π3, π2 = π3 = π1/2 ⇒ π = (1/2, 1/4, 1/4).
        let (q1, db) = walk_query(1);
        assert_eq!(
            evaluate(&q1, &db, ChainBudget::default(), &mut EvalCache::default()).unwrap(),
            Ratio::new(1, 2)
        );
        let (q2, _) = walk_query(2);
        assert_eq!(
            evaluate(&q2, &db, ChainBudget::default(), &mut EvalCache::default()).unwrap(),
            Ratio::new(1, 4)
        );
        let (q_miss, _) = walk_query(99);
        assert_eq!(
            evaluate(
                &q_miss,
                &db,
                ChainBudget::default(),
                &mut EvalCache::default()
            )
            .unwrap(),
            Ratio::zero()
        );
    }

    #[test]
    fn absorbing_walk_uses_theorem_5_5_path() {
        // 0 → {1 w.p. 1/3, 2 w.p. 2/3}; 1, 2 absorbing (self-loop edges).
        let (q, db) = walk(&[(0, 1, 1), (0, 2, 2), (1, 1, 1), (2, 2, 1)], 0, 1);
        assert_eq!(
            evaluate(&q, &db, ChainBudget::default(), &mut EvalCache::default()).unwrap(),
            Ratio::new(1, 3)
        );
    }

    #[test]
    fn inflationary_kernel_event_probability_is_reachability() {
        // Inflationary reachability (Example 3.5 flavor): C grows, and
        // the event "2 ∈ C" has long-run probability = Pr(2 ever reached).
        let e = Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple![1, 2, Value::frac(1, 2)],
                tuple![1, 3, Value::frac(1, 2)],
            ],
        );
        let c = Relation::from_rows(Schema::new(["i"]), [tuple![1]]);
        let cold = Relation::empty(Schema::new(["i"]));
        let db = Database::new().with("E", e).with("C", c).with("Cold", cold);
        // Cold := C; C := C ∪ ρ(π(repair-key((C − Cold) ⋈ E))).
        let step = Expr::rel("C")
            .difference(Expr::rel("Cold"))
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")]);
        let kernel = Interpretation::new()
            .with("Cold", Expr::rel("C"))
            .with("C", Expr::rel("C").union(step));
        let q = ForeverQuery::new(kernel, Event::tuple_in("C", tuple![2]));
        assert_eq!(
            evaluate(&q, &db, ChainBudget::default(), &mut EvalCache::default()).unwrap(),
            Ratio::new(1, 2)
        );
    }

    #[test]
    fn state_budget_enforced() {
        let (q, db) = walk_query(1);
        let tight = ChainBudget {
            max_states: 1,
            world_limit: 100,
        };
        assert!(matches!(
            evaluate(&q, &db, tight, &mut EvalCache::default()),
            Err(CoreError::Chain(_))
        ));
    }

    #[test]
    fn identity_kernel_stays_put() {
        let db = Database::new().with("C", Relation::from_rows(Schema::new(["i"]), [tuple![5]]));
        let q = ForeverQuery::new(Interpretation::new(), Event::tuple_in("C", tuple![5]));
        assert!(
            evaluate(&q, &db, ChainBudget::default(), &mut EvalCache::default())
                .unwrap()
                .is_one()
        );
    }

    #[test]
    fn interned_chain_matches_legacy_structure() {
        let (q, db) = walk_query(1);
        let mut cache = EvalCache::default();
        let legacy = build_chain(&q, &db, ChainBudget::default()).unwrap();
        let interned = build_chain_interned(&q, &db, ChainBudget::default(), &mut cache).unwrap();
        assert_eq!(legacy.len(), interned.len());
        // Resolving every interned state yields exactly the legacy state
        // set, with identical outgoing rows modulo the index permutation.
        for i in 0..interned.len() {
            let db_i: &Database = cache.chain.store.resolve(*interned.state(i));
            let li = legacy.index_of(db_i).expect("state in legacy chain");
            for (j, p) in interned.row(i) {
                let db_j: &Database = cache.chain.store.resolve(*interned.state(*j));
                let lj = legacy.index_of(db_j).unwrap();
                assert_eq!(legacy.prob(li, lj), p.clone());
            }
        }
    }

    #[test]
    fn kernel_rows_are_reused_across_evaluations() {
        let (q1, db) = walk_query(1);
        let mut cache = EvalCache::default();
        evaluate(&q1, &db, ChainBudget::default(), &mut cache).unwrap();
        let cold = cache.stats();
        assert_eq!(cold.kernel_hits, 0);
        assert_eq!(cold.kernel_misses, 3);
        assert_eq!(cold.db_states, 3);
        // Same kernel, different event: every row is served from the memo.
        let (q2, _) = walk_query(2);
        let p = evaluate(&q2, &db, ChainBudget::default(), &mut cache).unwrap();
        assert_eq!(p, Ratio::new(1, 4));
        let warm = cache.stats();
        assert_eq!(warm.kernel_hits, 3);
        assert_eq!(warm.kernel_misses, 3);
        assert_eq!(warm.db_states, 3);
    }
}
