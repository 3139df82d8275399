//! Exact inflationary evaluation — Proposition 4.4.
//!
//! The algorithm traverses the full tree of possible computations down to
//! all fixpoints (exponentially many nodes, polynomial depth), summing
//! the probability weight of fixpoints on which the query event holds.
//! When the input is a probabilistic c-table, the outer loop iterates
//! over its possible worlds first (§3.2: pc-table choices are made
//! *once*, at the beginning).

use crate::cache::{FixpointMemo, Row, TreeState};
use crate::{CoreError, DatalogQuery, EvalCache};
use pfq_ctable::PcDatabase;
use pfq_data::{Database, StateId};
use pfq_datalog::eval::CompiledProgram;
use pfq_datalog::inflationary::{charge_node_budget, step_distribution, EngineState, StepScratch};
use pfq_datalog::{DatalogError, Program};
use pfq_num::{Distribution, Ratio};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The resource limit of exact evaluation; defaults to unbounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactBudget {
    /// Maximum units of work: one per computation-tree node processed,
    /// and for a pc-table input one per variable valuation
    /// ([`PcDatabase::valuation_count`]), summed over all its worlds.
    /// Work served from the memo is free.
    pub node_budget: Option<usize>,
}

/// One program's memoized traversal: its memo id, its rules, compiled
/// the first time a tree misses the whole-tree memo, and the step
/// buffers every node it steps reuses.
struct Tree<'a> {
    program: &'a Program,
    id: StateId,
    compiled: Option<CompiledProgram>,
    scratch: StepScratch,
    memo: &'a mut FixpointMemo,
}

impl<'a> Tree<'a> {
    fn new(program: &'a Program, memo: &'a mut FixpointMemo) -> Tree<'a> {
        Tree {
            program,
            id: memo.program_id(program),
            compiled: None,
            scratch: StepScratch::default(),
            memo,
        }
    }

    /// The fixpoint distribution from `db`; see [`enumerate_fixpoints_memo`].
    /// Each node processed is charged to `spent`, which must stay within
    /// `node_budget`.
    fn fixpoints(
        &mut self,
        db: &Database,
        node_budget: Option<usize>,
        spent: &mut usize,
    ) -> Result<Arc<Distribution<Database>>, DatalogError> {
        let memo = &mut *self.memo;
        let (edb, engine) = EngineState::initial(self.program, db)?;
        let base = memo.bases.intern(edb);
        let initial = memo.states.intern(TreeState { base, engine });
        if let Some(done) = memo.results.get(self.id, initial) {
            return Ok(done);
        }
        let compiled = self
            .compiled
            .get_or_insert_with(|| CompiledProgram::new(self.program));
        let edb = memo.bases.resolve(base).clone();
        // Each node's mass and one parent (none for the root), from which
        // a missed row fires by Δ: any parent serves, so the parent is
        // never part of a key.
        let mut frontier: BTreeMap<StateId, (Ratio, Option<StateId>)> = BTreeMap::new();
        frontier.insert(initial, (Ratio::one(), None));
        let mut fixpoints = Distribution::new();
        while let Some((sid, (p, parent))) = frontier.pop_first() {
            charge_node_budget(spent, node_budget)?;
            let row = match memo.steps.get(self.id, sid) {
                Some(row) => row,
                None => {
                    let state = &memo.states.resolve(sid).engine;
                    let delta = parent.map(|up| state.delta_from(&memo.states.resolve(up).engine));
                    let successors = step_distribution(
                        compiled,
                        &edb,
                        state,
                        delta.as_ref(),
                        &mut self.scratch,
                    )?;
                    let row: Option<Row> = successors.map(|successors| {
                        Arc::new(
                            successors
                                .into_iter()
                                .map(|(engine, q)| {
                                    (memo.states.intern(TreeState { base, engine }), q)
                                })
                                .collect(),
                        )
                    });
                    memo.steps.insert(self.id, sid, row.clone());
                    row
                }
            };
            match row {
                None => fixpoints.add(memo.states.resolve(sid).engine.database(&edb), p),
                Some(successors) => {
                    for (next, q) in successors.iter() {
                        let mass = p.mul_ref(q);
                        frontier
                            .entry(*next)
                            .and_modify(|(m, _)| *m = m.add_ref(&mass))
                            .or_insert((mass, Some(sid)));
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
/// A tree node is the id of `db`'s prepared EDB, interned once per
/// input, plus an IDB-only [`EngineState`]. The root matches every rule
/// in full; a node below it whose row misses fires from Δ, the IDB tuples
/// it has and the parent that first reached it lacks
/// ([`step_distribution`] with `Some(Δ)`), and it is stepped where it
/// lies in the interner, not copied out. Fixpoint leaves are rebuilt as
/// whole databases.
///
/// Returns bit-identical distributions to [`enumerate_fixpoints`], which
/// matches in full at every node: Δ firing finds the same new
/// valuations, and rational mass is merged exactly, so traversal order
/// cannot change the result. `node_budget` charges only nodes actually
/// processed — work served from the memo is free, so a budget that fails
/// cold can succeed warm.
///
/// [`enumerate_fixpoints`]: pfq_datalog::inflationary::enumerate_fixpoints
pub fn enumerate_fixpoints_memo(
    program: &Program,
    db: &Database,
    node_budget: Option<usize>,
    cache: &mut EvalCache,
) -> Result<Arc<Distribution<Database>>, DatalogError> {
    Tree::new(program, &mut cache.fixpoints).fixpoints(db, node_budget, &mut 0)
}

/// Computes the exact probability of the query event over a certain
/// (non-probabilistic) input database — the Prop. 4.4 traversal, memoized
/// through `cache`. Repeated queries over the same program and database
/// are served from the whole-tree result memo, whatever their events.
/// Tree states name their input's EDB base, so inputs with different
/// EDBs never meet in the memo. Pass a fresh `EvalCache::default()` for a
/// one-off query.
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
/// c-table input: `Σ_worlds Pr(world) · Pr(event | world)` (§3.2). Each
/// world's EDB is interned as a base of its own, and tree states name
/// their base, so two worlds share no state or successor row unless
/// their EDBs are equal; what the cache shares is whole-tree results,
/// across repeated queries over the same program and world. Sharing work
/// across worlds with different EDBs needs lazy branching on pc-table
/// variables (`ROADMAP.md`). The program is interned once per call and
/// compiled at most once, not once per world.
///
/// One budget bounds the whole call: it is charged one unit per variable
/// valuation ([`PcDatabase::valuation_count`]), then one per tree node
/// processed in any world. The valuations are charged before any world
/// is built, so an input with more valuations than the budget fails at
/// once.
pub fn evaluate_pc(
    query: &DatalogQuery,
    input: &PcDatabase,
    budget: ExactBudget,
    cache: &mut EvalCache,
) -> Result<Ratio, CoreError> {
    let mut spent = input.valuation_count();
    if let Some(limit) = budget.node_budget.filter(|&limit| spent > limit) {
        return Err(DatalogError::BudgetExceeded {
            what: "pc-table valuations",
            limit,
        }
        .into());
    }
    let worlds = input.enumerate_worlds()?;
    let mut tree = Tree::new(&query.program, &mut cache.fixpoints);
    let mut total = Ratio::zero();
    for (world, p) in worlds.iter() {
        let conditional = tree
            .fixpoints(world, budget.node_budget, &mut spent)?
            .probability_that(|db| query.event.holds(db));
        total = total.add_ref(&p.mul_ref(&conditional));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{coin_edge, fork_db, reach_query};
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
        let input = coin_edge();
        let p = evaluate_pc(
            &reach_query("w"),
            &input,
            ExactBudget::default(),
            &mut EvalCache::default(),
        )
        .unwrap();
        assert_eq!(p, Ratio::new(1, 2));
    }

    /// `gated` fair coins, each gating its own edge `(v, w{i})`, beside
    /// `4 - gated` unused coins: always 16 valuations, `2^gated` worlds.
    fn gated_edges(gated: usize) -> PcDatabase {
        let mut input = PcDatabase::new();
        let mut table = PcTable::new(Schema::new(["i", "j", "p"]));
        for i in 0..4 {
            input
                .declare_variable(RandomVariable::fair_coin(format!("x{i}")))
                .unwrap();
            if i < gated {
                table.add(
                    tuple!["v", format!("w{i}").as_str(), 1],
                    Condition::eq(format!("x{i}"), 1),
                );
            }
        }
        input.add_table("E", table);
        input
    }

    fn nodes(limit: usize) -> ExactBudget {
        ExactBudget {
            node_budget: Some(limit),
        }
    }

    fn over(result: Result<Ratio, CoreError>, budget: &str) -> bool {
        matches!(result, Err(CoreError::Datalog(DatalogError::BudgetExceeded { what, .. })) if what == budget)
    }

    #[test]
    fn pc_budget_charges_valuations_then_nodes() {
        let run = |input: &PcDatabase, limit| {
            evaluate_pc(
                &reach_query("w0"),
                input,
                nodes(limit),
                &mut EvalCache::default(),
            )
        };
        // 16 distinct worlds: a budget of 3 fails before any is built.
        assert!(over(run(&gated_edges(4), 3), "pc-table valuations"));
        // The budget counts valuations, not worlds: one gated edge beside
        // three unused coins is 2 distinct worlds but 16 valuations, so 15
        // fails at once. Then the two worlds' trees (4 nodes to reach w0,
        // 2 without the edge) are charged on top.
        let small = gated_edges(1);
        assert_eq!(small.valuation_count(), 16);
        assert!(over(run(&small, 15), "pc-table valuations"));
        assert!(over(run(&small, 16 + 5), "computation-tree expansion"));
        assert_eq!(run(&small, 16 + 6).unwrap(), Ratio::new(1, 2));
        // Work served from the memo is free: only the valuations are
        // charged again.
        let mut warm = EvalCache::default();
        evaluate_pc(&reach_query("w0"), &small, nodes(22), &mut warm).unwrap();
        let p = evaluate_pc(&reach_query("w0"), &small, nodes(16), &mut warm).unwrap();
        assert_eq!(p, Ratio::new(1, 2));
    }

    #[test]
    fn pc_budget_is_a_total_across_worlds() {
        // One coin gating the edge (v, w): two valuations, two worlds.
        let input = coin_edge();
        let query = reach_query("w");
        // The fewest nodes each world's tree needs on its own.
        let trees: Vec<usize> = input
            .enumerate_worlds()
            .unwrap()
            .iter()
            .map(|(world, _)| {
                (0..)
                    .find(|&limit| {
                        enumerate_fixpoints_memo(
                            &query.program,
                            world,
                            Some(limit),
                            &mut EvalCache::default(),
                        )
                        .is_ok()
                    })
                    .unwrap()
            })
            .collect();
        assert_eq!(trees.len(), 2);
        let run = |limit| evaluate_pc(&query, &input, nodes(limit), &mut EvalCache::default());
        // Each tree fits beside the 2 valuations on its own …
        let one_at_a_time = 2 + trees.iter().max().unwrap();
        assert!(over(run(one_at_a_time), "computation-tree expansion"));
        // … but only their sum fits them all.
        let together = 2 + trees.iter().sum::<usize>();
        assert!(one_at_a_time < together);
        assert!(over(run(together - 1), "computation-tree expansion"));
        assert_eq!(run(together).unwrap(), Ratio::new(1, 2));
    }

    #[test]
    fn pc_valuations_are_charged_before_enumerating() {
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
        let result = evaluate_pc(
            &reach_query("w0"),
            &input,
            nodes(8),
            &mut EvalCache::default(),
        );
        assert!(over(result.clone(), "pc-table valuations"));
        assert!(result.unwrap_err().is_budget_exceeded());
    }

    #[test]
    fn node_budget_enforced() {
        assert!(evaluate(
            &reach_query("w"),
            &fork_db(),
            nodes(0),
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
        let input = coin_edge();
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
