//! The paper's inflationary semantics for probabilistic datalog (§3.3):
//!
//! ```text
//! Repeat forever {
//!   In parallel, for each rule r: R(X̄, Ȳ)@P ← B(X̄, Ȳ, Z̄) do {
//!     newVals[r] := valuations of the body of r on the old state − oldVals[r];
//!     oldVals[r] := oldVals[r] ∪ newVals[r];
//!     R := R ∪ repair-key_X̄@P(π_{X̄,Ȳ,P}(newVals[r]));
//!   }
//! }
//! ```
//!
//! Three engines share the single-step machinery:
//! * [`step_distribution`] — the exact successor distribution of one step
//!   (all rules fire in parallel; choices across rules and key groups are
//!   independent, so probabilities multiply);
//! * [`enumerate_fixpoints`] — Proposition 4.4's exhaustive traversal of
//!   the computation tree down to all fixpoints (exponential, exact);
//! * [`sample_fixpoint`] — one top-to-bottom random path through the
//!   computation tree, the inner loop of Theorem 4.3's sampler.
//!
//! A probabilistic datalog query must reach a fixpoint on every path:
//! `oldVals` grows strictly on every non-fixpoint step and is bounded by
//! the (polynomially many) valuations over the active domain.

use crate::ast::Program;
use crate::eval::{prepare_database, CompiledProgram, CompiledRule};
use crate::DatalogError;
use pfq_data::{Database, Tuple};
use pfq_num::{dist::pick_weighted_index, Distribution, Ratio};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// A node of the computation tree: the current database plus the
/// per-rule `oldVals` bookkeeping. `Ord` lets identical nodes reached by
/// different choice paths merge their probability mass; `Hash` lets the
/// memoizing engine intern nodes to dense ids.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EngineState {
    /// The current (inflationary) database.
    pub db: Database,
    /// `oldVals[r]`: body valuations of rule `r` already consumed,
    /// encoded over the rule's canonical variable order.
    old_vals: Vec<BTreeSet<Tuple>>,
}

impl EngineState {
    /// The initial state: IDB relations declared, all `oldVals` empty.
    pub fn initial(program: &Program, db: &Database) -> Result<EngineState, DatalogError> {
        Ok(EngineState {
            db: prepare_database(program, db)?,
            old_vals: vec![BTreeSet::new(); program.rules.len()],
        })
    }

    /// `oldVals`, one set per rule, in rule order.
    pub fn old_vals(&self) -> &[BTreeSet<Tuple>] {
        &self.old_vals
    }
}

/// One repair-key choice group: candidate head tuples with their
/// (unnormalized) weights, in parallel vectors.
#[derive(Default)]
struct ChoiceGroup {
    tuples: Vec<Tuple>,
    weights: Vec<Ratio>,
}

/// What one rule contributes to one step: its repair-key choice groups.
struct RuleFiring {
    groups: Vec<ChoiceGroup>,
    /// The valuation encodings consumed (to be added to `oldVals`).
    consumed: BTreeSet<Tuple>,
}

/// Computes rule `r`'s firing against the *old* database.
fn fire_rule(
    rule: &CompiledRule,
    state: &EngineState,
    rule_index: usize,
) -> Result<Option<RuleFiring>, DatalogError> {
    let old_vals = &state.old_vals[rule_index];
    let mut consumed = BTreeSet::new();
    // π_{X̄,Ȳ,P}(newVals): project new valuations onto the head tuple and
    // weight, de-duplicating (set semantics of the projection).
    let mut projected: BTreeSet<(Tuple, Ratio)> = BTreeSet::new();
    rule.for_each_valuation(&state.db, None, |vals| {
        if old_vals.contains(vals) {
            return Ok(());
        }
        consumed.insert(Tuple::new(vals.to_vec()));
        projected.insert((rule.head_tuple(vals)?, rule.weight(vals)?));
        Ok(())
    })?;
    if consumed.is_empty() {
        return Ok(None);
    }
    // Group by the key (underlined) positions.
    let mut groups: BTreeMap<Tuple, ChoiceGroup> = BTreeMap::new();
    for (t, w) in projected {
        let group = groups.entry(rule.head_key(&t)).or_default();
        group.tuples.push(t);
        group.weights.push(w);
    }
    Ok(Some(RuleFiring {
        groups: groups.into_values().collect(),
        consumed,
    }))
}

/// Every rule's firing against `state`, in rule order; empty at a
/// fixpoint.
fn fire_all(
    program: &CompiledProgram,
    state: &EngineState,
) -> Result<Vec<(usize, RuleFiring)>, DatalogError> {
    let mut firings = Vec::new();
    for (i, rule) in program.rules().iter().enumerate() {
        if let Some(f) = fire_rule(rule, state, i)? {
            firings.push((i, f));
        }
    }
    Ok(firings)
}

/// Whether `state` is a fixpoint: no rule has new valuations.
pub fn is_fixpoint(program: &CompiledProgram, state: &EngineState) -> Result<bool, DatalogError> {
    for (i, rule) in program.rules().iter().enumerate() {
        if fire_rule(rule, state, i)?.is_some() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The exact distribution of successor states after one parallel step.
///
/// Returns `None` if `state` is a fixpoint. Probabilities multiply across
/// rules and across key groups (independent repair-key applications).
pub fn step_distribution(
    program: &CompiledProgram,
    state: &EngineState,
) -> Result<Option<Distribution<EngineState>>, DatalogError> {
    let firings = fire_all(program, state)?;
    if firings.is_empty() {
        return Ok(None);
    }

    // Deterministic part of the successor: updated oldVals.
    let mut base = state.clone();
    for (i, f) in &firings {
        base.old_vals[*i].extend(f.consumed.iter().cloned());
    }

    // Probabilistic part: the product over all choice groups.
    let mut out = Distribution::singleton(base);
    for (i, f) in &firings {
        let relation = &program.rules()[*i].rule().head.relation;
        for group in &f.groups {
            let total: Ratio = group.weights.iter().sum();
            let choice: Distribution<&Tuple> = group
                .tuples
                .iter()
                .zip(&group.weights)
                .map(|(t, w)| (t, w.div_ref(&total)))
                .collect();
            out = out.product(&choice, |s: &EngineState, t: &&Tuple| {
                let mut next = s.clone();
                next.db
                    .insert_tuple(relation, (*t).clone())
                    .expect("IDB relation was prepared");
                next
            });
        }
    }
    Ok(Some(out))
}

/// Checks the node budget *before* any work on the node is done: with
/// `node_budget = Some(L)`, at most `L` tree nodes (fixpoint leaves
/// included) are ever processed. Historically the check ran after
/// `expanded += 1` and only for non-fixpoint nodes, which both admitted
/// `limit + 1` expansions and let fixpoint-only trees escape the budget
/// entirely. Both the reference traversal and the memoized one in
/// `pfq_core::exact_inflationary` charge through it.
pub fn charge_node_budget(
    expanded: &mut usize,
    node_budget: Option<usize>,
) -> Result<(), DatalogError> {
    *expanded += 1;
    if let Some(limit) = node_budget {
        if *expanded > limit {
            return Err(DatalogError::BudgetExceeded {
                what: "computation-tree expansion",
                limit,
            });
        }
    }
    Ok(())
}

/// Proposition 4.4: exhaustively traverses the computation tree, merging
/// probability mass of identical states, and returns the exact
/// distribution over fixpoint databases.
///
/// `node_budget` bounds the number of tree nodes processed (fixpoint
/// leaves included, charged before expansion); exceeding it aborts with
/// [`DatalogError::BudgetExceeded`].
///
/// This is the un-memoized engine, kept as the reference implementation
/// that the differential tests compare the memoized traversal
/// (`pfq_core::exact_inflationary::enumerate_fixpoints_memo`) against.
pub fn enumerate_fixpoints(
    program: &Program,
    db: &Database,
    node_budget: Option<usize>,
) -> Result<Distribution<Database>, DatalogError> {
    let compiled = CompiledProgram::new(program);
    let mut frontier: BTreeMap<EngineState, Ratio> = BTreeMap::new();
    frontier.insert(EngineState::initial(program, db)?, Ratio::one());
    let mut fixpoints = Distribution::new();
    let mut expanded = 0usize;
    while let Some((state, p)) = frontier.pop_first() {
        charge_node_budget(&mut expanded, node_budget)?;
        match step_distribution(&compiled, &state)? {
            None => fixpoints.add(state.db, p),
            Some(successors) => {
                for (next, q) in successors.into_iter() {
                    let mass = p.mul_ref(&q);
                    frontier
                        .entry(next)
                        .and_modify(|m| *m = m.add_ref(&mass))
                        .or_insert(mass);
                }
            }
        }
    }
    Ok(fixpoints)
}

/// One random computation path to a fixpoint — the sampling primitive of
/// Theorem 4.3 — from `start` (an [`EngineState::initial`] of the
/// program `program` was compiled from). `max_steps` is a defensive
/// bound; the semantics guarantees termination.
///
/// The rng is drawn once per choice group, in rule order and then key
/// order, so a fixed seed gives a fixed path.
pub fn sample_fixpoint<R: Rng + ?Sized>(
    program: &CompiledProgram,
    start: &EngineState,
    rng: &mut R,
    max_steps: usize,
) -> Result<Database, DatalogError> {
    let mut state = start.clone();
    for _ in 0..max_steps {
        // Compute all firings against the old state before mutating.
        let firings = fire_all(program, &state)?;
        if firings.is_empty() {
            return Ok(state.db);
        }
        for (i, f) in firings {
            state.old_vals[i].extend(f.consumed);
            let relation = &program.rules()[i].rule().head.relation;
            for mut group in f.groups {
                let pick = pick_weighted_index(&group.weights, rng.gen::<u64>());
                state
                    .db
                    .insert_tuple(relation, group.tuples.swap_remove(pick))
                    .expect("IDB relation was prepared");
            }
        }
    }
    Err(DatalogError::BudgetExceeded {
        what: "inflationary sampling steps",
        limit: max_steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use pfq_data::{tuple, Relation, Schema, Value};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Example 3.9's database: E = {(v,w,1/2), (v,u,1/2)}.
    fn fork_db() -> Database {
        Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j", "p"]),
                [
                    tuple!["v", "w", Value::frac(1, 2)],
                    tuple!["v", "u", Value::frac(1, 2)],
                ],
            ),
        )
    }

    fn reach_program() -> Program {
        parse_program(
            "C(v).\n\
             C2(X!, Y) @P :- C(X), E(X, Y, P).\n\
             C(Y) :- C2(X, Y).",
        )
        .unwrap()
    }

    #[test]
    fn example_3_9_fixpoint_distribution() {
        // Each of w and u is reached with probability 1/2 as the single
        // chosen successor of v; then no new valuations appear (one more
        // C2 step for the second node may fire — trace per the paper:
        // the *other* valuation is no longer new, so only the chosen
        // branch extends C).
        let worlds = enumerate_fixpoints(&reach_program(), &fork_db(), None).unwrap();
        assert!(worlds.is_proper());
        let p_w = worlds.probability_that(|db| db.get("C").unwrap().contains(&tuple!["w"]));
        let p_u = worlds.probability_that(|db| db.get("C").unwrap().contains(&tuple!["u"]));
        assert_eq!(p_w, Ratio::new(1, 2));
        assert_eq!(p_u, Ratio::new(1, 2));
        // v is always in C.
        let p_v = worlds.probability_that(|db| db.get("C").unwrap().contains(&tuple!["v"]));
        assert!(p_v.is_one());
    }

    #[test]
    fn deterministic_program_single_fixpoint() {
        let p = parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap();
        let db = Database::new().with(
            "E",
            Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2], tuple![2, 3]]),
        );
        let worlds = enumerate_fixpoints(&p, &db, None).unwrap();
        assert_eq!(worlds.support_size(), 1);
        let (only, p1) = worlds.iter().next().unwrap();
        assert!(p1.is_one());
        // Exactly the transitive closure of E.
        let closure = Relation::from_rows(
            Schema::new(["c0", "c1"]),
            [tuple![1, 2], tuple![1, 3], tuple![2, 3]],
        );
        assert_eq!(only.get("T"), Some(&closure));
    }

    #[test]
    fn example_3_6_reuse_subtlety() {
        // Example 3.6's moral: without staging the choice through C2,
        // probabilistic grouping degenerates. Here the key is Y itself,
        // so every successor forms its own singleton group, *all* of them
        // are added, and Pr[b ∈ C] = 1 — the paper's "all tuples appear
        // with probability 1" observation. (Example 3.9 restores the
        // by-source choice by staging through C2 with key X.)
        let program = parse_program("C(a).\nC(Y!) @P :- C(X), E(X, Y, P).").unwrap();
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j", "p"]),
                [
                    tuple!["a", "b", Value::frac(1, 2)],
                    tuple!["a", "c", Value::frac(1, 2)],
                ],
            ),
        );
        let worlds = enumerate_fixpoints(&program, &db, None).unwrap();
        let p_b = worlds.probability_that(|d| d.get("C").unwrap().contains(&tuple!["b"]));
        assert!(p_b.is_one());
    }

    #[test]
    fn rules_fire_in_parallel_on_old_state() {
        // Two rules copying through a chain: after one step, B has a's
        // successor but C (fed by B) only fires next step.
        let p = parse_program("B(X) :- A(X).\nC(X) :- B(X).").unwrap();
        let db = Database::new().with("A", Relation::from_rows(Schema::new(["v"]), [tuple![1]]));
        let init = EngineState::initial(&p, &db).unwrap();
        let compiled = CompiledProgram::new(&p);
        let step1 = step_distribution(&compiled, &init).unwrap().unwrap();
        assert_eq!(step1.support_size(), 1);
        let (s1, _) = step1.iter().next().unwrap();
        assert!(s1.db.get("B").unwrap().contains(&tuple![1]));
        assert!(s1.db.get("C").unwrap().is_empty());
        let step2 = step_distribution(&compiled, s1).unwrap().unwrap();
        let (s2, _) = step2.iter().next().unwrap();
        assert!(s2.db.get("C").unwrap().contains(&tuple![1]));
        assert!(is_fixpoint(&compiled, s2).unwrap());
    }

    #[test]
    fn facts_fire_exactly_once() {
        let p = parse_program("C(v).").unwrap();
        let worlds = enumerate_fixpoints(&p, &Database::new(), None).unwrap();
        assert_eq!(worlds.support_size(), 1);
        let (db, _) = worlds.iter().next().unwrap();
        assert_eq!(db.get("C").unwrap().len(), 1);
    }

    #[test]
    fn weighted_choice_distribution() {
        // No keys marked, so the whole head forms one group, with
        // weights 1 and 3: probabilities 1/4 and 3/4.
        let p = parse_program("H(Y) @P :- R(Y, P).").unwrap();
        let db = Database::new().with(
            "R",
            Relation::from_rows(Schema::new(["v", "p"]), [tuple![10, 1], tuple![20, 3]]),
        );
        let worlds = enumerate_fixpoints(&p, &db, None).unwrap();
        assert!(worlds.is_proper());
        let p10 = worlds.probability_that(|d| d.get("H").unwrap().contains(&tuple![10]));
        let p20 = worlds.probability_that(|d| d.get("H").unwrap().contains(&tuple![20]));
        assert_eq!(p10, Ratio::new(1, 4));
        assert_eq!(p20, Ratio::new(3, 4));
    }

    #[test]
    fn mass_merges_across_paths() {
        // Two independent single-choice rules whose order of effect
        // doesn't matter: both paths reach the same fixpoint.
        let p = parse_program("A(X!) :- R(X).\nB(X!) :- R(X).").unwrap();
        let db = Database::new().with("R", Relation::from_rows(Schema::new(["v"]), [tuple![1]]));
        let worlds = enumerate_fixpoints(&p, &db, None).unwrap();
        assert_eq!(worlds.support_size(), 1);
        assert!(worlds.is_proper());
    }

    #[test]
    fn budget_exceeded() {
        let program = reach_program();
        let err = enumerate_fixpoints(&program, &fork_db(), Some(0)).unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { .. }));
    }

    /// Pins the fixed node-budget semantics: every processed tree node
    /// counts (fixpoint leaves included) and the check runs before the
    /// node is expanded, so `Some(L)` admits exactly `L` nodes.
    #[test]
    fn budget_boundary_is_exact() {
        // Deterministic 3-node path tree: initial, one rule-1 step, one
        // rule-2 step reaching the fixpoint.
        let p = parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap();
        let db = Database::new().with(
            "E",
            Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2], tuple![2, 3]]),
        );
        assert!(enumerate_fixpoints(&p, &db, Some(3)).is_ok());
        assert!(matches!(
            enumerate_fixpoints(&p, &db, Some(2)),
            Err(DatalogError::BudgetExceeded { limit: 2, .. })
        ));
    }

    /// Regression: fixpoint-only trees used to bypass the budget
    /// entirely; now the single leaf is charged too.
    #[test]
    fn budget_charges_fixpoint_leaves() {
        let p = parse_program("T(X, Y) :- E(X, Y).").unwrap();
        let db = Database::new().with("E", Relation::empty(Schema::new(["i", "j"])));
        assert!(enumerate_fixpoints(&p, &db, Some(1)).is_ok());
        assert!(matches!(
            enumerate_fixpoints(&p, &db, Some(0)),
            Err(DatalogError::BudgetExceeded { limit: 0, .. })
        ));
    }

    #[test]
    fn sampling_agrees_with_enumeration() {
        let program = reach_program();
        let db = fork_db();
        let exact = enumerate_fixpoints(&program, &db, None).unwrap();
        let p_w_exact = exact.probability_that(|d| d.get("C").unwrap().contains(&tuple!["w"]));
        let compiled = CompiledProgram::new(&program);
        let start = EngineState::initial(&program, &db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 4000;
        let hits = (0..n)
            .filter(|_| {
                let fp = sample_fixpoint(&compiled, &start, &mut rng, 10_000).unwrap();
                fp.get("C").unwrap().contains(&tuple!["w"])
            })
            .count();
        assert!((hits as f64 / n as f64 - p_w_exact.to_f64()).abs() < 0.03);
    }

    #[test]
    fn negation_blocks_and_unblocks_operationally() {
        // Guard(X) :- A(X), not B(X). B is derived one step after A, so
        // under parallel firing Guard sees the B-free state first: the
        // valuation fires in step 2 (A present, B not yet).
        let p = parse_program("A(1).\nB(X) :- A(X).\nGuard(X) :- A(X), not B(X).").unwrap();
        let worlds = enumerate_fixpoints(&p, &Database::new(), None).unwrap();
        assert_eq!(worlds.support_size(), 1);
        let (db, _) = worlds.iter().next().unwrap();
        // Step 1: A = {1}. Step 2 (parallel, old state has no B): both
        // B(1) and Guard(1) fire.
        assert!(db.get("Guard").unwrap().contains(&tuple![1]));
        assert!(db.get("B").unwrap().contains(&tuple![1]));

        // With B present from the start, the guard never fires.
        let db0 = Database::new().with(
            "Binit",
            Relation::from_rows(Schema::new(["v"]), [tuple![1]]),
        );
        let p2 = parse_program("A(1).\nB(X) :- Binit(X).\nGuard(X) :- A(X), not B(X).").unwrap();
        let worlds = enumerate_fixpoints(&p2, &db0, None).unwrap();
        let (db, _) = worlds.iter().next().unwrap();
        // B(1) appears in step 1 together with A(1); in step 2 the guard
        // valuation {X=1} is evaluated against a state where B(1) holds,
        // so it is filtered out and never re-fires.
        assert!(db.get("Guard").unwrap().is_empty());
    }

    #[test]
    fn three_node_chain_reaches_end_with_probability_one() {
        // v → w → u linearly: no real choices, end always reached.
        let program = reach_program();
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j", "p"]),
                [tuple!["v", "w", 1], tuple!["w", "u", 1]],
            ),
        );
        let worlds = enumerate_fixpoints(&program, &db, None).unwrap();
        let p_u = worlds.probability_that(|d| d.get("C").unwrap().contains(&tuple!["u"]));
        assert!(p_u.is_one());
    }
}
