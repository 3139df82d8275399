//! Exact non-inflationary evaluation — Proposition 5.4 and Theorem 5.5.
//!
//! Builds the explicit Markov chain of reachable database instances by
//! evaluating the transition kernel on each state, then computes the
//! long-run (time-average) distribution: directly by sparse GTH
//! elimination when the chain is irreducible (Prop. 5.4), or via
//! absorption into the closed SCCs of the condensation in general
//! (Thm. 5.5). The query result is the summed long-run probability of
//! event states.

use crate::cache::{ChainCache, ChainState, LongRun};
use crate::{CoreError, EvalCache, ForeverQuery};
use pfq_algebra::{AlgebraError, CompiledKernel};
use pfq_data::{Database, StateId};
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
/// The public way to obtain a `MarkovChain<Database>` for mixing-time
/// and conductance analysis. It runs the same [`CompiledKernel`] as the
/// engine but keys the chain on whole databases (every dedup an
/// `O(|db|)` comparison, every successor a database copy); evaluation
/// never calls it: the engine, [`evaluate`] and the burn-in probe explore
/// interned target-only states with [`build_chain_interned`].
pub fn build_chain(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
) -> Result<MarkovChain<Database>, CoreError> {
    let kernel = CompiledKernel::new(&query.kernel, db)?;
    let chain = MarkovChain::explore(
        [db.clone()],
        |state: &Database| -> Result<Distribution<Database>, AlgebraError> {
            let next = kernel.enumerate(&kernel.targets_of(state), Some(budget.world_limit))?;
            Ok(next.map(|targets| kernel.with_targets(state, targets)))
        },
        Some(budget.max_states),
    )?;
    Ok(chain)
}

/// The relations `query`'s kernel writes, in name order: the layout of
/// its chain states.
pub(crate) fn kernel_targets(query: &ForeverQuery) -> Vec<&str> {
    query.kernel.iter().map(|(name, _)| name).collect()
}

/// Theorem 5.5 chain construction over interned states. The kernel is
/// compiled once, against `db`; a state is `db`'s unchanging part (one
/// interned base id) plus the relations the kernel writes, hash-consed
/// to a [`StateId`] in the cache (dedup becomes a `u32` compare). Kernel
/// rows are memoized per `(kernel id, StateId)`, where the kernel id
/// names the kernel value itself, so re-evaluating the same query — or
/// any query with an equal kernel — reuses every transition already
/// computed. The first state is `db`'s.
pub fn build_chain_interned(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
    cache: &mut EvalCache,
) -> Result<MarkovChain<StateId>, CoreError> {
    let kernel = CompiledKernel::new(&query.kernel, db)?;
    let memo = &mut cache.chain;
    let kid = memo.kernel_id(&query.kernel);
    let start = memo.intern_start(&kernel, db);
    explore(&kernel, kid, start, budget, memo)
}

/// The number of states of the chain of `query` from `db` when its
/// long-run distribution is memoized (the planner's chain probe then
/// explores nothing); `None` otherwise. Counts no memo lookup: the
/// evaluation that follows counts its own.
pub(crate) fn memoized_states(
    query: &ForeverQuery,
    db: &Database,
    cache: &mut EvalCache,
) -> Result<Option<usize>, CoreError> {
    let kernel = CompiledKernel::new(&query.kernel, db)?;
    let memo = &mut cache.chain;
    let kid = memo.kernel_id(&query.kernel);
    let start = memo.intern_start(&kernel, db);
    Ok(memo
        .long_runs
        .peek(kid, start)
        .map(|long_run| long_run.states))
}

/// Explores the chain of `kernel` (id `kid`) from the interned state
/// `start`, through the kernel-row memo.
fn explore(
    kernel: &CompiledKernel,
    kid: StateId,
    start: StateId,
    budget: ChainBudget,
    memo: &mut ChainCache,
) -> Result<MarkovChain<StateId>, CoreError> {
    let ChainCache { states, steps, .. } = memo;
    let chain = MarkovChain::explore(
        [start],
        |&sid: &StateId| -> Result<Distribution<StateId>, AlgebraError> {
            if let Some(row) = steps.get(kid, sid) {
                return Ok(row.iter().cloned().collect());
            }
            let state = states.resolve(sid);
            let base = state.base;
            let next = kernel.enumerate(&state.targets, Some(budget.world_limit))?;
            let mut row = Vec::with_capacity(next.support_size());
            for (targets, q) in next.into_iter() {
                row.push((states.intern(ChainState { base, targets }), q));
            }
            let row = Arc::new(row);
            steps.insert(kid, sid, row.clone());
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
/// elimination, and sums the event states' mass. The solved distribution
/// is memoized per `(kernel id, start state)`, so a later query with an
/// equal kernel and start database only compiles the kernel, interns its
/// start and sums its event: it explores nothing, and so charges nothing
/// to `budget`. Pass a fresh `EvalCache::default()` for a one-off query.
pub fn evaluate(
    query: &ForeverQuery,
    db: &Database,
    budget: ChainBudget,
    cache: &mut EvalCache,
) -> Result<Ratio, CoreError> {
    let kernel = CompiledKernel::new(&query.kernel, db)?;
    let memo = &mut cache.chain;
    let kid = memo.kernel_id(&query.kernel);
    let start = memo.intern_start(&kernel, db);
    let long_run = match memo.long_runs.get(kid, start) {
        Some(long_run) => long_run,
        None => {
            let chain = explore(&kernel, kid, start, budget, memo)?;
            let mass = long_run_distribution(&chain, 0)?;
            let long_run = Arc::new(LongRun {
                states: chain.len(),
                mass: chain
                    .states()
                    .iter()
                    .zip(mass)
                    .filter(|(_, p)| !p.is_zero())
                    .map(|(sid, p)| (*sid, p))
                    .collect(),
            });
            memo.long_runs.insert(kid, start, long_run.clone());
            long_run
        }
    };
    let targets = kernel_targets(query);
    let mut total = Ratio::zero();
    for (sid, p) in &long_run.mass {
        if query
            .event
            .holds_in(&|name| memo.relation(&targets, *sid, name))
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
    use crate::{Engine, EvalRequest, Event, Strategy};
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
        let targets = kernel_targets(&q);
        for i in 0..interned.len() {
            let db_i = cache.chain.database(&targets, *interned.state(i));
            let li = legacy.index_of(&db_i).expect("state in legacy chain");
            for (j, p) in interned.row(i) {
                let db_j = cache.chain.database(&targets, *interned.state(*j));
                let lj = legacy.index_of(&db_j).unwrap();
                assert_eq!(legacy.prob(li, lj), p.clone());
            }
        }
    }

    #[test]
    fn states_of_different_start_databases_stay_apart() {
        // One kernel, two start databases that differ only in the
        // non-target edge weights, with the walker at node 1 in both. The
        // chain states pair equal walker relations with different bases:
        // were the base left out of the state key, the second run would
        // reuse the first run's kernel rows and answer wrongly.
        let (q, lopsided) = walk(&[(1, 2, 3), (1, 3, 1), (2, 1, 1), (3, 1, 1)], 1, 2);
        let (_, even) = walk(&[(1, 2, 1), (1, 3, 1), (2, 1, 1), (3, 1, 1)], 1, 2);
        assert_eq!(lopsided.get("C"), even.get("C"));
        let mut engine = Engine::new();
        let mut sizes = 0;
        for db in [&lopsided, &even] {
            let request = EvalRequest::forever(&q, db).with_strategy(Strategy::ExactChain);
            let shared = engine.run(&request).unwrap().into_exact().unwrap();
            let fresh = Engine::new().run(&request).unwrap().into_exact().unwrap();
            assert_eq!(shared, fresh);
            sizes += build_chain(&q, db, ChainBudget::default()).unwrap().len();
        }
        assert_eq!(engine.stats().db_states, sizes);
        assert_eq!(sizes, 6);
    }

    #[test]
    fn kernel_rows_are_reused_across_evaluations() {
        let (q1, db) = walk_query(1);
        let mut cache = EvalCache::default();
        evaluate(&q1, &db, ChainBudget::default(), &mut cache).unwrap();
        let cold = cache.stats();
        assert_eq!((cold.result_hits, cold.result_misses), (0, 1));
        assert_eq!((cold.kernel_hits, cold.kernel_misses), (0, 3));
        assert_eq!(cold.db_states, 3);
        // Same kernel and start, different event: the long-run vector is
        // served from the memo, and no kernel row is even looked up.
        let (q2, _) = walk_query(2);
        let p = evaluate(&q2, &db, ChainBudget::default(), &mut cache).unwrap();
        assert_eq!(p, Ratio::new(1, 4));
        let warm = cache.stats();
        assert_eq!((warm.result_hits, warm.result_misses), (1, 1));
        assert_eq!((warm.kernel_hits, warm.kernel_misses), (0, 3));
        assert_eq!(warm.db_states, 3);
    }

    #[test]
    fn another_start_of_an_explored_chain_reuses_its_rows() {
        // The walker starts at 2 instead of 1: a new start state, so a
        // long-run miss, but its chain is the one already explored, so
        // every kernel row is a hit.
        let edges = [
            (1, 2, Value::frac(1, 2)),
            (1, 3, Value::frac(1, 2)),
            (2, 1, Value::from(1)),
            (3, 1, Value::from(1)),
        ];
        let (q, from_1) = walk(&edges, 1, 1);
        let (_, from_2) = walk(&edges, 2, 1);
        let mut cache = EvalCache::default();
        evaluate(&q, &from_1, ChainBudget::default(), &mut cache).unwrap();
        let p = evaluate(&q, &from_2, ChainBudget::default(), &mut cache).unwrap();
        assert_eq!(p, Ratio::new(1, 2));
        let stats = cache.stats();
        assert_eq!((stats.result_hits, stats.result_misses), (0, 2));
        assert_eq!((stats.kernel_hits, stats.kernel_misses), (3, 3));
        assert_eq!(stats.db_states, 3);
    }

    /// Under `Strategy::Auto` the planner's chain probe consults the
    /// long-run memo before exploring: a repeated query looks up no
    /// kernel row, in the probe or in the evaluation.
    #[test]
    fn auto_probe_is_served_by_the_long_run_memo() {
        let (q1, db) = walk_query(1);
        let (q2, _) = walk_query(2);
        let mut engine = Engine::new();
        let p1 = engine.run(&EvalRequest::forever(&q1, &db)).unwrap();
        assert_eq!(p1.into_exact().unwrap(), Ratio::new(1, 2));
        // The probe explores the chain and the evaluation walks it again
        // through the row memo.
        let cold = engine.stats();
        assert_eq!((cold.result_hits, cold.result_misses), (0, 1));
        assert_eq!((cold.kernel_hits, cold.kernel_misses), (3, 3));
        let p2 = engine.run(&EvalRequest::forever(&q2, &db)).unwrap();
        assert_eq!(p2.into_exact().unwrap(), Ratio::new(1, 4));
        let warm = engine.stats();
        assert_eq!((warm.result_hits, warm.result_misses), (1, 1));
        assert_eq!((warm.kernel_hits, warm.kernel_misses), (3, 3));
    }

    /// A warm memo serves the long-run vector without charging the chain
    /// budget: the budget bounds exploration actually performed, as the
    /// node budget does for trees.
    #[test]
    fn warm_memo_bypasses_chain_budget() {
        let (q, db) = walk_query(1);
        let mut cache = EvalCache::default();
        evaluate(&q, &db, ChainBudget::default(), &mut cache).unwrap();
        let none = ChainBudget {
            max_states: 0,
            world_limit: 0,
        };
        assert_eq!(
            evaluate(&q, &db, none, &mut cache).unwrap(),
            Ratio::new(1, 2)
        );
        assert!(evaluate(&q, &db, none, &mut EvalCache::default()).is_err());
    }
}
