//! Exact inflationary evaluation — Proposition 4.4.
//!
//! The algorithm traverses the full tree of possible computations down to
//! all fixpoints (exponentially many nodes, polynomial depth), summing
//! the probability weight of fixpoints on which the query event holds.
//! When the input is a probabilistic c-table, the outer loop iterates
//! over its possible worlds first (§3.2: pc-table choices are made
//! *once*, at the beginning).

use crate::cache::{FixpointMemo, Row};
use crate::{CoreError, DatalogQuery, EvalCache};
use pfq_ctable::PcDatabase;
use pfq_data::{Database, StateId};
use pfq_datalog::eval::CompiledProgram;
use pfq_datalog::inflationary::{charge_node_budget, step_distribution, EngineState};
use pfq_datalog::{DatalogError, Program};
use pfq_num::{Distribution, Ratio};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Resource limits for exact evaluation; both default to unbounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactBudget {
    /// Maximum computation-tree nodes to expand per input world.
    pub node_budget: Option<usize>,
    /// Maximum input-database worlds to iterate (pc-table input only),
    /// counted as variable valuations
    /// ([`PcDatabase::valuation_count`]) and checked before any world
    /// is built.
    pub world_budget: Option<usize>,
}

/// One program's memoized traversal: its memo id, and its rules,
/// compiled the first time a tree misses the whole-tree memo.
struct Tree<'a> {
    program: &'a Program,
    id: StateId,
    compiled: Option<CompiledProgram>,
    memo: &'a mut FixpointMemo,
}

impl<'a> Tree<'a> {
    fn new(program: &'a Program, memo: &'a mut FixpointMemo) -> Tree<'a> {
        Tree {
            program,
            id: memo.program_id(program),
            compiled: None,
            memo,
        }
    }

    /// The fixpoint distribution from `db`; see [`enumerate_fixpoints_memo`].
    fn fixpoints(
        &mut self,
        db: &Database,
        node_budget: Option<usize>,
    ) -> Result<Arc<Distribution<Database>>, DatalogError> {
        let memo = &mut *self.memo;
        let initial = memo.states.intern(EngineState::initial(self.program, db)?);
        if let Some(done) = memo.results.get(self.id, initial) {
            return Ok(done);
        }
        let compiled = self
            .compiled
            .get_or_insert_with(|| CompiledProgram::new(self.program));
        let mut frontier: BTreeMap<StateId, Ratio> = BTreeMap::new();
        frontier.insert(initial, Ratio::one());
        let mut fixpoints = Distribution::new();
        let mut expanded = 0usize;
        while let Some((sid, p)) = frontier.pop_first() {
            charge_node_budget(&mut expanded, node_budget)?;
            let row = match memo.steps.get(self.id, sid) {
                Some(row) => row,
                None => {
                    let state = memo.states.resolve(sid).clone();
                    let row: Option<Row> = step_distribution(compiled, &state)?.map(|successors| {
                        Arc::new(
                            successors
                                .into_iter()
                                .map(|(next, q)| (memo.states.intern(next), q))
                                .collect(),
                        )
                    });
                    memo.steps.insert(self.id, sid, row.clone());
                    row
                }
            };
            match row {
                None => fixpoints.add(memo.states.resolve(sid).db.clone(), p),
                Some(successors) => {
                    for (next, q) in successors.iter() {
                        let mass = p.mul_ref(q);
                        frontier
                            .entry(*next)
                            .and_modify(|m| *m = m.add_ref(&mass))
                            .or_insert(mass);
                    }
                }
            }
        }
        let fixpoints = Arc::new(fixpoints);
        memo.results.insert(self.id, initial, fixpoints.clone());
        Ok(fixpoints)
    }
}

/// Memoized Proposition 4.4 — the twin of
/// [`build_chain_interned`](crate::exact_noninflationary::build_chain_interned):
/// like the reference [`enumerate_fixpoints`], but the frontier runs on
/// interned [`StateId`]s (dedup is a `u32` compare), successor rows are
/// reused across evaluations through `cache`, and the complete fixpoint
/// distribution per `(program, initial state)` is memoized, so repeated
/// queries over the same program and database skip the traversal
/// entirely. Rows are keyed by the program value, never by its text.
///
/// Returns bit-identical distributions to [`enumerate_fixpoints`]:
/// rational mass is merged exactly, so traversal order cannot change the
/// result. `node_budget` charges only nodes actually processed — work
/// served from the memo is free, so a budget that fails cold can succeed
/// warm.
///
/// [`enumerate_fixpoints`]: pfq_datalog::inflationary::enumerate_fixpoints
pub fn enumerate_fixpoints_memo(
    program: &Program,
    db: &Database,
    node_budget: Option<usize>,
    cache: &mut EvalCache,
) -> Result<Arc<Distribution<Database>>, DatalogError> {
    Tree::new(program, &mut cache.fixpoints).fixpoints(db, node_budget)
}

/// Computes the exact probability of the query event over a certain
/// (non-probabilistic) input database — the Prop. 4.4 traversal, memoized
/// through `cache`. Repeated queries over the same program and database
/// are served from the whole-tree result memo, whatever their events.
/// Tree states hold the whole database, so distinct inputs never meet in
/// the memo. Pass a fresh `EvalCache::default()` for a one-off query.
pub fn evaluate(
    query: &DatalogQuery,
    db: &Database,
    budget: ExactBudget,
    cache: &mut EvalCache,
) -> Result<Ratio, CoreError> {
    let fixpoints = enumerate_fixpoints_memo(&query.program, db, budget.node_budget, cache)?;
    Ok(fixpoints.probability_that(|db| query.event.holds(db)))
}

/// Computes the exact probability of the query event over a probabilistic
/// c-table input: `Σ_worlds Pr(world) · Pr(event | world)` (§3.2). Tree
/// states hold the whole database, so two worlds never share a state or
/// a successor row; what the cache shares is whole-tree results, across
/// repeated queries over the same program and world. Sharing work across
/// worlds needs IDB-only states and lazy branching on pc-table variables
/// (`ROADMAP.md`). The program is interned once per call and compiled at
/// most once, not once per world. The world budget is checked against
/// [`PcDatabase::valuation_count`] before any world is built.
pub fn evaluate_pc(
    query: &DatalogQuery,
    input: &PcDatabase,
    budget: ExactBudget,
    cache: &mut EvalCache,
) -> Result<Ratio, CoreError> {
    let valuations = input.valuation_count();
    if let Some(limit) = budget.world_budget.filter(|&limit| valuations > limit) {
        return Err(CoreError::BadParameter(format!(
            "input has {valuations} valuations, over the world budget of {limit}"
        )));
    }
    let worlds = input.enumerate_worlds()?;
    let mut tree = Tree::new(&query.program, &mut cache.fixpoints);
    let mut total = Ratio::zero();
    for (world, p) in worlds.iter() {
        let conditional = tree
            .fixpoints(world, budget.node_budget)?
            .probability_that(|db| query.event.holds(db));
        total = total.add_ref(&p.mul_ref(&conditional));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fork_db, reach_query};
    use pfq_ctable::{Condition, PcTable, RandomVariable};
    use pfq_data::{tuple, Relation, Schema};
    use pfq_datalog::inflationary::enumerate_fixpoints;
    use pfq_datalog::parse_program;

    #[test]
    fn example_3_9_exact() {
        assert_eq!(
            evaluate(
                &reach_query("w"),
                &fork_db(),
                ExactBudget::default(),
                &mut EvalCache::default()
            )
            .unwrap(),
            Ratio::new(1, 2)
        );
        assert_eq!(
            evaluate(
                &reach_query("v"),
                &fork_db(),
                ExactBudget::default(),
                &mut EvalCache::default()
            )
            .unwrap(),
            Ratio::one()
        );
        assert_eq!(
            evaluate(
                &reach_query("nowhere"),
                &fork_db(),
                ExactBudget::default(),
                &mut EvalCache::default()
            )
            .unwrap(),
            Ratio::zero()
        );
    }

    #[test]
    fn weighted_fork() {
        // Weights 1:3 instead of 1/2:1/2.
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j", "p"]),
                [tuple!["v", "w", 1], tuple!["v", "u", 3]],
            ),
        );
        assert_eq!(
            evaluate(
                &reach_query("u"),
                &db,
                ExactBudget::default(),
                &mut EvalCache::default()
            )
            .unwrap(),
            Ratio::new(3, 4)
        );
    }

    #[test]
    fn two_hop_probability_multiplies() {
        // v → {w (1/2), u (1/2)}, w → {t (1/2), s (1/2)}.
        // Pr[t ∈ C] = 1/2 · 1/2 = 1/4.
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j", "p"]),
                [
                    tuple!["v", "w", 1],
                    tuple!["v", "u", 1],
                    tuple!["w", "t", 1],
                    tuple!["w", "s", 1],
                ],
            ),
        );
        assert_eq!(
            evaluate(
                &reach_query("t"),
                &db,
                ExactBudget::default(),
                &mut EvalCache::default()
            )
            .unwrap(),
            Ratio::new(1, 4)
        );
    }

    #[test]
    fn pc_table_input_mixes_worlds() {
        // Edge (v, w) exists iff coin x = 1; event: w reached.
        let mut input = PcDatabase::new();
        input
            .declare_variable(RandomVariable::fair_coin("x"))
            .unwrap();
        input.add_table(
            "E",
            PcTable::new(Schema::new(["i", "j", "p"]))
                .with(tuple!["v", "w", 1], Condition::eq("x", 1)),
        );
        let p = evaluate_pc(
            &reach_query("w"),
            &input,
            ExactBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap();
        assert_eq!(p, Ratio::new(1, 2));
    }

    #[test]
    fn pc_world_budget_enforced() {
        // Four coins each gating a distinct edge → 16 distinct worlds.
        let mut input = PcDatabase::new();
        let mut table = PcTable::new(Schema::new(["i", "j", "p"]));
        for i in 0..4 {
            input
                .declare_variable(RandomVariable::fair_coin(format!("x{i}")))
                .unwrap();
            table.add(
                tuple!["v", format!("w{i}").as_str(), 1],
                Condition::eq(format!("x{i}"), 1),
            );
        }
        input.add_table("E", table);
        let budget = ExactBudget {
            node_budget: None,
            world_budget: Some(3),
        };
        assert!(matches!(
            evaluate_pc(
                &reach_query("w0"),
                &input,
                budget,
                &mut EvalCache::default()
            ),
            Err(CoreError::BadParameter(_))
        ));
        // The budget counts valuations: a single gated edge plus three
        // unused coins is 2 distinct worlds but 16 valuations, so a
        // budget of 15 fails and one of exactly 16 succeeds.
        let mut small = PcDatabase::new();
        for i in 0..4 {
            small
                .declare_variable(RandomVariable::fair_coin(format!("y{i}")))
                .unwrap();
        }
        small.add_table(
            "E",
            PcTable::new(Schema::new(["i", "j", "p"]))
                .with(tuple!["v", "w", 1], Condition::eq("y0", 1)),
        );
        assert_eq!(small.valuation_count(), 16);
        let run = |limit| {
            let budget = ExactBudget {
                node_budget: None,
                world_budget: Some(limit),
            };
            evaluate_pc(&reach_query("w"), &small, budget, &mut EvalCache::default())
        };
        assert!(matches!(run(15), Err(CoreError::BadParameter(_))));
        assert_eq!(run(16).unwrap(), Ratio::new(1, 2));
    }

    #[test]
    fn world_budget_is_checked_before_enumerating() {
        // 2^64 valuations: enumerating them would never return.
        let mut input = PcDatabase::new();
        let mut table = PcTable::new(Schema::new(["i", "j", "p"]));
        for i in 0..64 {
            input
                .declare_variable(RandomVariable::fair_coin(format!("x{i}")))
                .unwrap();
            table.add(
                tuple!["v", format!("w{i}").as_str(), 1],
                Condition::eq(format!("x{i}"), 1),
            );
        }
        input.add_table("E", table);
        assert_eq!(input.valuation_count(), usize::MAX);
        let budget = ExactBudget {
            node_budget: None,
            world_budget: Some(8),
        };
        assert!(matches!(
            evaluate_pc(
                &reach_query("w0"),
                &input,
                budget,
                &mut EvalCache::default()
            ),
            Err(CoreError::BadParameter(_))
        ));
    }

    #[test]
    fn node_budget_enforced() {
        let budget = ExactBudget {
            node_budget: Some(0),
            world_budget: None,
        };
        assert!(evaluate(
            &reach_query("w"),
            &fork_db(),
            budget,
            &mut EvalCache::default()
        )
        .is_err());
    }

    #[test]
    fn cached_path_matches_unmemoized_oracle() {
        let db = fork_db();
        let mut shared = EvalCache::default();
        for target in ["w", "v", "u", "nowhere"] {
            let q = reach_query(target);
            let memoized = evaluate(&q, &db, ExactBudget::default(), &mut shared).unwrap();
            let oracle = enumerate_fixpoints(&q.program, &db, None)
                .unwrap()
                .probability_that(|db| q.event.holds(db));
            assert_eq!(memoized, oracle);
        }
        assert!(shared.stats().engine_states > 0);
    }

    #[test]
    fn repeated_queries_share_the_result_memo() {
        // Same program over the same database: only the event differs,
        // so the second query is a whole-tree memo hit.
        let db = fork_db();
        let mut cache = EvalCache::default();
        evaluate(&reach_query("w"), &db, ExactBudget::default(), &mut cache).unwrap();
        assert_eq!(cache.stats().result_hits, 0);
        let p = evaluate(&reach_query("u"), &db, ExactBudget::default(), &mut cache).unwrap();
        assert_eq!(p, Ratio::new(1, 2));
        assert_eq!(cache.stats().result_hits, 1);
        assert_eq!(cache.stats().result_misses, 1);
    }

    #[test]
    fn pc_worlds_share_one_cache() {
        let mut input = PcDatabase::new();
        input
            .declare_variable(RandomVariable::fair_coin("x"))
            .unwrap();
        input.add_table(
            "E",
            PcTable::new(Schema::new(["i", "j", "p"]))
                .with(tuple!["v", "w", 1], Condition::eq("x", 1)),
        );
        let mut cache = EvalCache::default();
        let q = reach_query("w");
        let p = evaluate_pc(&q, &input, ExactBudget::default(), &mut cache).unwrap();
        assert_eq!(p, Ratio::new(1, 2));
        // Two worlds were enumerated cold …
        assert_eq!(cache.stats().result_misses, 2);
        // … and a repeat of the whole pc query is served from the memo.
        let p2 = evaluate_pc(&q, &input, ExactBudget::default(), &mut cache).unwrap();
        assert_eq!(p2, p);
        assert_eq!(cache.stats().result_hits, 2);
        assert_eq!(cache.stats().result_misses, 2);
    }

    #[test]
    fn memoized_engine_matches_legacy_bit_for_bit() {
        let cases: Vec<(Program, Database)> = vec![
            (reach_query("w").program, fork_db()),
            (
                parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap(),
                Database::new().with(
                    "E",
                    Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2], tuple![2, 3]]),
                ),
            ),
            (
                parse_program("H(Y) @P :- R(Y, P).").unwrap(),
                Database::new().with(
                    "R",
                    Relation::from_rows(Schema::new(["v", "p"]), [tuple![10, 1], tuple![20, 3]]),
                ),
            ),
        ];
        let mut cache = EvalCache::default();
        for (program, db) in &cases {
            let legacy = enumerate_fixpoints(program, db, None).unwrap();
            let memoized = enumerate_fixpoints_memo(program, db, None, &mut cache).unwrap();
            assert_eq!(&legacy, memoized.as_ref());
        }
    }

    #[test]
    fn repeated_enumeration_hits_the_result_memo() {
        let program = reach_query("w").program;
        let db = fork_db();
        let mut cache = EvalCache::default();
        let first = enumerate_fixpoints_memo(&program, &db, None, &mut cache).unwrap();
        let cold = cache.stats();
        assert_eq!(cold.result_hits, 0);
        assert_eq!(cold.result_misses, 1);
        assert!(cold.engine_states > 0);
        assert!(cold.approx_bytes > 0);
        let second = enumerate_fixpoints_memo(&program, &db, None, &mut cache).unwrap();
        let warm = cache.stats();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second run must be served from the memo"
        );
        assert_eq!(warm.result_hits, 1);
        assert_eq!(
            warm.engine_states, cold.engine_states,
            "no new states on a warm run"
        );
        // A *different* program over the same database shares no entries
        // but re-uses the interner.
        let other = parse_program("D(X, Y) :- E(X, Y, P).").unwrap();
        enumerate_fixpoints_memo(&other, &db, None, &mut cache).unwrap();
        assert_eq!(cache.stats().result_hits, 1);
        assert_eq!(cache.stats().result_misses, 2);
    }

    /// A warm memo serves results without charging the node budget: the
    /// budget bounds work actually performed, not work reused.
    #[test]
    fn warm_memo_bypasses_node_budget() {
        let program = reach_query("w").program;
        let db = fork_db();
        let mut cache = EvalCache::default();
        enumerate_fixpoints_memo(&program, &db, None, &mut cache).unwrap();
        assert!(enumerate_fixpoints_memo(&program, &db, Some(0), &mut cache).is_ok());
    }

    /// A cold memo charges the same node budget boundary as the
    /// unmemoized engine (`inflationary::tests::budget_boundary_is_exact`).
    #[test]
    fn cold_memo_budget_boundary_is_exact() {
        // Deterministic 3-node path tree: initial, one rule-1 step, one
        // rule-2 step reaching the fixpoint.
        let p = parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap();
        let db = Database::new().with(
            "E",
            Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2], tuple![2, 3]]),
        );
        assert!(enumerate_fixpoints_memo(&p, &db, Some(3), &mut EvalCache::default()).is_ok());
        assert!(matches!(
            enumerate_fixpoints_memo(&p, &db, Some(2), &mut EvalCache::default()),
            Err(DatalogError::BudgetExceeded { limit: 2, .. })
        ));
    }
}
