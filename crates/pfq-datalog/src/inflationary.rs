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
//! A computation state ([`EngineState`]) holds only the IDB relations —
//! the ones rule heads write — and `oldVals`. The rest of the prepared
//! input, the EDB, never changes along a computation, so it is split off
//! once per input ([`EngineState::initial`]) and passed beside the state;
//! matching reads the IDB first, then the EDB ([`Layered`]).
//!
//! A step only adds tuples, so it need not match every rule against the
//! whole database. After the step from a parent to a child, `oldVals`
//! holds every valuation that held on the parent. A negated atom that
//! fails on the (larger) child failed on the parent too, so a valuation
//! new at the child uses, in some positive atom, a tuple of Δ: the IDB
//! tuples the child has and that parent lacks ([`EngineState::delta_from`]).
//! Given `Some(Δ)`, a step matches each rule once per positive body atom
//! whose relation has tuples in Δ, with that atom reading Δ; given `None`
//! it matches every rule in full. Both find the same new valuations, in
//! the same groups, so they give the same successors and the same draws.
//!
//! Three engines share the single-step machinery:
//! * [`step_distribution`] — the exact successor distribution of one step
//!   (all rules fire in parallel; choices across rules and key groups are
//!   independent, so probabilities multiply);
//! * [`enumerate_fixpoints`] — Proposition 4.4's exhaustive traversal of
//!   the computation tree down to all fixpoints (exponential, exact). It
//!   is the reference oracle and matches in full at every node;
//! * [`sample_fixpoint`] — one top-to-bottom random path through the
//!   computation tree, the inner loop of Theorem 4.3's sampler; each step
//!   after the first fires from the tuples the last one inserted.
//!
//! A probabilistic datalog query must reach a fixpoint on every path:
//! `oldVals` grows strictly on every non-fixpoint step and is bounded by
//! the (polynomially many) valuations over the active domain.

use crate::ast::Program;
use crate::eval::{
    prepare_database, valuation_schema, CompiledProgram, CompiledRule, Layered, MatchScratch,
};
use crate::DatalogError;
use pfq_data::database::reset_shared;
use pfq_data::{Database, Relation, Schema, Tuple, Value};
use pfq_num::{dist::pick_weighted_index, Distribution, Ratio};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A node of the computation tree: the IDB relations plus the per-rule
/// `oldVals` bookkeeping. The EDB it is read over is kept apart (see the
/// module docs). `Ord` lets identical nodes reached by different choice
/// paths merge their probability mass; `Hash` lets the memoizing engine
/// intern nodes to dense ids.
///
/// Every relation, IDB and `oldVals` alike, sits behind an `Arc` and is
/// copied only when written while shared, so a successor shares with
/// its parent every relation the step leaves unchanged, and hashing a
/// state reads each relation's cached hash.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EngineState {
    /// The current (inflationary) IDB relations, every one declared.
    pub idb: Database,
    /// `oldVals[r]`: body valuations of rule `r` already consumed, as a
    /// relation over the rule's positive body variables in the order
    /// the matcher binds them ([`valuation_schema`]).
    old_vals: Vec<Arc<Relation>>,
}

impl EngineState {
    /// Prepares `db` for `program` ([`prepare_database`]) and splits it
    /// into its EDB and the initial state: the IDB relations as given
    /// (declared empty if absent), all `oldVals` empty.
    pub fn initial(
        program: &Program,
        db: &Database,
    ) -> Result<(Database, EngineState), DatalogError> {
        let old_vals = program
            .rules
            .iter()
            .map(|rule| Arc::new(Relation::empty(valuation_schema(rule))))
            .collect();
        EngineState::split(program, db, old_vals)
    }

    /// [`initial`](Self::initial) for the program `compiled` was
    /// compiled from, its empty `oldVals` shared with `compiled` rather
    /// than built again: the form for a caller that starts many
    /// computations, such as a sampler drawing an input world per trial.
    pub fn initial_compiled(
        compiled: &CompiledProgram,
        db: &Database,
    ) -> Result<(Database, EngineState), DatalogError> {
        let old_vals = compiled
            .rules()
            .iter()
            .map(|rule| rule.empty_old_vals().clone())
            .collect();
        EngineState::split(compiled.program(), db, old_vals)
    }

    /// `db` prepared for `program`, split into its EDB and the state with
    /// its IDB relations and `old_vals`.
    fn split(
        program: &Program,
        db: &Database,
        old_vals: Vec<Arc<Relation>>,
    ) -> Result<(Database, EngineState), DatalogError> {
        let mut edb = prepare_database(program, db)?;
        let mut idb = Database::new();
        for (name, _) in program.idb_arities()? {
            let rel = edb.remove(&name).expect("IDB relation was prepared");
            idb.set(name, rel);
        }
        Ok((edb, EngineState { idb, old_vals }))
    }

    /// `oldVals`, one relation per rule, in rule order.
    pub fn old_vals(&self) -> &[Arc<Relation>] {
        &self.old_vals
    }

    /// Δ from `parent` to `self`: per IDB relation, the tuples `self`
    /// has and `parent` lacks. Relations with none are left out, so an
    /// empty database means no rule can have a new valuation. A relation
    /// the step did not write is still shared with `parent` and costs a
    /// pointer compare.
    pub fn delta_from(&self, parent: &EngineState) -> Database {
        self.idb.added_since(&parent.idb)
    }

    /// The whole database the state stands for: `edb` with the IDB
    /// relations set (shared, not copied).
    pub fn database(&self, edb: &Database) -> Database {
        let mut db = edb.clone();
        db.overlay(&self.idb);
        db
    }

    /// Makes `self` equal to `start`, reusing what it holds: relations
    /// still shared with `start` stay, ones held only here are
    /// overwritten in place, and a state of another shape (other IDB
    /// names or schemas, another rule count) is replaced by a clone.
    fn reset_from(&mut self, start: &EngineState) {
        self.idb.reset_from(&start.idb);
        if self.old_vals.len() == start.old_vals.len() {
            for (mine, theirs) in self.old_vals.iter_mut().zip(&start.old_vals) {
                reset_shared(mine, theirs);
            }
        } else {
            self.old_vals.clone_from(&start.old_vals);
        }
    }
}

/// One repair-key option: a head tuple and its (unnormalized) weight.
type Choice = (Tuple, Ratio);

/// What one rule contributes to one step, in flat buffers the next step
/// refills.
#[derive(Default)]
struct RuleFiring {
    /// The new valuations, as `oldVals` tuples, sorted and deduplicated:
    /// a valuation that reads Δ in two atoms is found twice.
    consumed: Vec<Tuple>,
    /// π_{X̄,Ȳ,P}(newVals): the (head, weight) options, sorted by the
    /// head's key columns, then the head, then the weight, and
    /// deduplicated (set semantics of the projection).
    options: Vec<Choice>,
    /// Where each repair-key group ends in `options`, in key order.
    ends: Vec<usize>,
}

impl RuleFiring {
    /// The choice groups in key order, each its options in (head,
    /// weight) order; none if the rule has no new valuation.
    fn groups(&self) -> impl Iterator<Item = &[Choice]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.options[s..e])
    }
}

/// The buffers inflationary steps fill, kept from one step to the next
/// so that stepping does not allocate them again: one rule firing per
/// rule, the matcher's buffers, the weights a sampled step draws from,
/// the tuples the last sampled step inserted (Δ) and the state a
/// sampled path walks. A tree traversal keeps one for all its nodes, a
/// sampling worker one for all its trials. Any scratch serves any
/// program: the path state is reset from each trial's start state and
/// replaced when that start has another shape.
#[derive(Default)]
pub struct StepScratch {
    rules: Vec<RuleFiring>,
    matcher: MatchScratch,
    weights: Vec<Ratio>,
    delta: Database,
    path: Option<EngineState>,
}

/// Computes rule `r`'s firing against the *old* state over `edb` into
/// `out`: in full with `delta = None`, else once per positive body atom
/// whose relation has tuples in `delta`, that atom reading them. Returns
/// whether the rule has new valuations.
fn fire_rule(
    rule: &CompiledRule,
    edb: &Database,
    state: &EngineState,
    rule_index: usize,
    delta: Option<&Database>,
    matcher: &mut MatchScratch,
    out: &mut RuleFiring,
) -> Result<bool, DatalogError> {
    let db = Layered {
        idb: &state.idb,
        edb,
    };
    let old_vals = &*state.old_vals[rule_index];
    let RuleFiring {
        consumed,
        options,
        ends,
    } = out;
    consumed.clear();
    options.clear();
    ends.clear();
    let mut take = |vals: &[Value]| {
        if !old_vals.contains_values(vals) {
            consumed.push(Tuple::from_slice(vals));
            options.push((rule.head_tuple(vals)?, rule.weight(vals)?));
        }
        Ok(())
    };
    match delta {
        None => rule.for_each_valuation(&db, None, matcher, &mut take)?,
        Some(delta) => {
            for (i, atom) in rule.rule().body.iter().enumerate() {
                if let Some(new) = delta.get(&atom.relation).filter(|r| !r.is_empty()) {
                    rule.for_each_valuation(&db, Some((i, new)), matcher, &mut take)?;
                }
            }
        }
    }
    if consumed.is_empty() {
        return Ok(false);
    }
    consumed.sort_unstable();
    consumed.dedup();
    // Group by the key (underlined) positions.
    options.sort_unstable_by(|(s, v), (t, w)| {
        rule.cmp_keys(s.values(), t.values())
            .then_with(|| s.cmp(t))
            .then_with(|| v.cmp(w))
    });
    options.dedup();
    for (i, pair) in options.windows(2).enumerate() {
        if rule
            .cmp_keys(pair[0].0.values(), pair[1].0.values())
            .is_ne()
        {
            ends.push(i + 1);
        }
    }
    ends.push(options.len());
    Ok(true)
}

/// Every rule's firing against `state`, into `rules` in rule order;
/// returns whether any rule has new valuations (none at a fixpoint).
fn fire_all(
    program: &CompiledProgram,
    edb: &Database,
    state: &EngineState,
    delta: Option<&Database>,
    rules: &mut Vec<RuleFiring>,
    matcher: &mut MatchScratch,
) -> Result<bool, DatalogError> {
    rules.resize_with(program.rules().len(), RuleFiring::default);
    let mut fired = false;
    for (i, (rule, out)) in program.rules().iter().zip(rules.iter_mut()).enumerate() {
        fired |= fire_rule(rule, edb, state, i, delta, matcher, out)?;
    }
    Ok(fired)
}

/// Whether `state` over `edb` is a fixpoint: no rule, matched in full,
/// has new valuations.
pub fn is_fixpoint(
    program: &CompiledProgram,
    edb: &Database,
    state: &EngineState,
    scratch: &mut StepScratch,
) -> Result<bool, DatalogError> {
    let StepScratch { rules, matcher, .. } = scratch;
    rules.resize_with(program.rules().len(), RuleFiring::default);
    for (i, (rule, out)) in program.rules().iter().zip(rules.iter_mut()).enumerate() {
        if fire_rule(rule, edb, state, i, None, matcher, out)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The exact distribution of successor states after one parallel step
/// of `state` over `edb`.
///
/// `delta` is `None` to match every rule in full, or Δ from one parent
/// of `state` ([`EngineState::delta_from`]) to fire only from the tuples
/// that step added; both give the same distribution (module docs). The
/// initial state has no parent and needs `None`.
///
/// Returns `None` if `state` is a fixpoint. Probabilities multiply across
/// rules and across key groups (independent repair-key applications).
/// Each combination of choices, one option per group, is built once: a
/// clone of the state with every rule's `oldVals` updated, plus the
/// chosen tuples, carrying the product of their probabilities. A clone
/// shares every relation; only the relations a successor writes are
/// copied.
/// Combinations that insert the same tuples merge their mass.
pub fn step_distribution(
    program: &CompiledProgram,
    edb: &Database,
    state: &EngineState,
    delta: Option<&Database>,
    scratch: &mut StepScratch,
) -> Result<Option<Distribution<EngineState>>, DatalogError> {
    let StepScratch {
        rules,
        matcher,
        weights,
        ..
    } = scratch;
    if !fire_all(program, edb, state, delta, rules, matcher)? {
        return Ok(None);
    }

    // Deterministic part of the successor: updated oldVals (a rule that
    // did not fire keeps sharing its parent's).
    let mut base = state.clone();
    for (old, f) in base.old_vals.iter_mut().zip(rules.iter_mut()) {
        if !f.consumed.is_empty() {
            Arc::make_mut(old).extend(f.consumed.drain(..));
        }
    }

    // Probabilistic part: every group's options beside the relation its
    // rule writes and where the options' normalized probabilities start
    // in `weights`.
    weights.clear();
    let mut groups: Vec<(&str, &[Choice], usize)> = Vec::new();
    for (rule, f) in program.rules().iter().zip(rules.iter()) {
        let relation = rule.rule().head.relation.as_str();
        for options in f.groups() {
            let total: Ratio = options.iter().map(|(_, w)| w).sum();
            groups.push((relation, options, weights.len()));
            weights.extend(options.iter().map(|(_, w)| w.div_ref(&total)));
        }
    }

    // An odometer over the groups: `choice[g]` is group g's option; the
    // last group turns fastest.
    let mut out = Distribution::new();
    let mut choice = vec![0usize; groups.len()];
    loop {
        let mut next = base.clone();
        let mut p = Ratio::one();
        for (&(relation, options, first), &c) in groups.iter().zip(&choice) {
            next.idb
                .insert_tuple(relation, options[c].0.clone())
                .expect("IDB relation was prepared");
            p = p.mul_ref(&weights[first + c]);
        }
        out.add(next, p);
        let Some(g) = (0..groups.len()).rposition(|g| choice[g] + 1 < groups[g].1.len()) else {
            break;
        };
        choice[g] += 1;
        choice[g + 1..].fill(0);
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
/// It matches every rule in full at every node (`delta = None`), so it
/// also checks the memoized traversal's Δ-driven firing.
pub fn enumerate_fixpoints(
    program: &Program,
    db: &Database,
    node_budget: Option<usize>,
) -> Result<Distribution<Database>, DatalogError> {
    let compiled = CompiledProgram::new(program);
    let (edb, initial) = EngineState::initial(program, db)?;
    let mut frontier: BTreeMap<EngineState, Ratio> = BTreeMap::new();
    frontier.insert(initial, Ratio::one());
    let mut fixpoints = Distribution::new();
    let mut expanded = 0usize;
    let mut scratch = StepScratch::default();
    while let Some((state, p)) = frontier.pop_first() {
        charge_node_budget(&mut expanded, node_budget)?;
        match step_distribution(&compiled, &edb, &state, None, &mut scratch)? {
            None => fixpoints.add(state.database(&edb), p),
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
/// Theorem 4.3 — from `start` over `edb` (the split
/// [`EngineState::initial`] returns, for the program `program` was
/// compiled from). Returns the fixpoint state; its database is
/// [`EngineState::database`] over `edb`. `max_steps` is a defensive
/// bound; the semantics guarantees termination. The steps fill the
/// buffers of `scratch`, which a caller drawing many paths keeps.
///
/// The path is walked in a state kept in `scratch` (the returned one,
/// valid until the scratch's next use), not in a clone of `start`: each
/// call resets it from `start` in place, so a relation the last path did
/// not write is still shared with `start`, and one it wrote is
/// overwritten in its own storage. A scratch last used with a start of
/// another shape (another program) takes a clone instead.
///
/// The first step matches in full; every later one fires from Δ, the
/// tuples the step before it inserted. The rng is drawn once per choice
/// group, in rule order and then key order, so a fixed seed gives a
/// fixed path.
pub fn sample_fixpoint<'s, R: Rng + ?Sized>(
    program: &CompiledProgram,
    edb: &Database,
    start: &EngineState,
    rng: &mut R,
    max_steps: usize,
    scratch: &'s mut StepScratch,
) -> Result<&'s EngineState, DatalogError> {
    let StepScratch {
        rules,
        matcher,
        weights,
        delta,
        path,
    } = scratch;
    if let Some(state) = path.as_mut() {
        state.reset_from(start);
    } else {
        *path = Some(start.clone());
    }
    let state = path.as_mut().expect("the path state was just set");
    for step in 0..max_steps {
        // Compute all firings against the old state before mutating.
        let from = (step > 0).then_some(&*delta);
        if !fire_all(program, edb, state, from, rules, matcher)? {
            return Ok(state);
        }
        delta.clear_tuples();
        let firings = program.rules().iter().zip(rules.iter_mut());
        for ((rule, f), old) in firings.zip(&mut state.old_vals) {
            // A rule with no new valuation has no choice group.
            if f.consumed.is_empty() {
                continue;
            }
            Arc::make_mut(old).extend(f.consumed.drain(..));
            let relation = &rule.rule().head.relation;
            for options in f.groups() {
                weights.clear();
                weights.extend(options.iter().map(|(_, w)| w.clone()));
                let (t, _) = &options[pick_weighted_index(weights, rng.gen::<u64>())];
                let new = state
                    .idb
                    .insert_tuple(relation, t.clone())
                    .expect("IDB relation was prepared");
                if new {
                    let schema = state.idb.get(relation).expect("just written").schema();
                    add_to_delta(delta, relation, schema, t);
                }
            }
        }
    }
    Err(DatalogError::BudgetExceeded {
        what: "inflationary sampling steps",
        limit: max_steps,
    })
}

/// Adds `t` to relation `name` of the sampler's Δ. The relation is
/// declared with `schema` the first time, and kept (emptied) for later
/// steps; one a scratch kept from another program is replaced.
fn add_to_delta(delta: &mut Database, name: &str, schema: &Schema, t: &Tuple) {
    match delta.get_mut(name) {
        Some(rel) if rel.schema() == schema => {
            rel.insert(t.clone());
        }
        _ => delta.set(name, Relation::from_rows(schema.clone(), [t.clone()])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use pfq_data::{tuple, Relation, Schema, Value};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

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
        let (edb, init) = EngineState::initial(&p, &db).unwrap();
        assert_eq!(edb.relation_names().collect::<Vec<_>>(), ["A"]);
        assert_eq!(init.idb.relation_names().collect::<Vec<_>>(), ["B", "C"]);
        let compiled = CompiledProgram::new(&p);
        // One scratch for every step, as a traversal keeps.
        let mut scratch = StepScratch::default();
        let step1 = step_distribution(&compiled, &edb, &init, None, &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!(step1.support_size(), 1);
        let (s1, _) = step1.iter().next().unwrap();
        assert!(s1.idb.get("B").unwrap().contains(&tuple![1]));
        assert!(s1.idb.get("C").unwrap().is_empty());
        let delta1 = s1.delta_from(&init);
        let step2 = step_distribution(&compiled, &edb, s1, Some(&delta1), &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!(
            step_distribution(&compiled, &edb, s1, None, &mut scratch).unwrap(),
            Some(step2.clone())
        );
        let (s2, _) = step2.iter().next().unwrap();
        assert!(s2.idb.get("C").unwrap().contains(&tuple![1]));
        let delta2 = s2.delta_from(s1);
        assert_eq!(
            step_distribution(&compiled, &edb, s2, Some(&delta2), &mut scratch).unwrap(),
            None
        );
        assert!(is_fixpoint(&compiled, &edb, s2, &mut scratch).unwrap());
    }

    /// Three choice groups across two rules writing `C`, by hand:
    /// rule 1 picks one of C(1,1) (already present) and C(1,2) for key
    /// 1, and one of C(2,5), C(2,6) (weights 1 : 3) for key 2; rule 2
    /// picks one of C(1,2), C(1,3) (weights 1 : 2) for key 1. Of the
    /// 2·2·2 = 8 combinations, the two that add only C(1,2) for key 1
    /// (C(1,1) with C(1,2), and C(1,2) twice) give one successor per
    /// rule-1 key-2 choice, so there are 6 successors.
    #[test]
    fn every_combination_of_choices_is_built_and_equal_ones_merge() {
        let p = parse_program(
            "C(K!, Y) @P :- E(K, Y, P).\n\
             C(K!, Y) @P :- F(K, Y, P).",
        )
        .unwrap();
        let db = Database::new()
            .with(
                "E",
                Relation::from_rows(
                    Schema::new(["k", "v", "p"]),
                    [
                        tuple![1, 1, 1],
                        tuple![1, 2, 1],
                        tuple![2, 5, 1],
                        tuple![2, 6, 3],
                    ],
                ),
            )
            .with(
                "F",
                Relation::from_rows(
                    Schema::new(["k", "v", "p"]),
                    [tuple![1, 2, 1], tuple![1, 3, 2]],
                ),
            )
            .with(
                "C",
                Relation::from_rows(Schema::new(["k", "v"]), [tuple![1, 1]]),
            );
        let (edb, init) = EngineState::initial(&p, &db).unwrap();
        let step = step_distribution(
            &CompiledProgram::new(&p),
            &edb,
            &init,
            None,
            &mut StepScratch::default(),
        )
        .unwrap()
        .unwrap();
        let got: Vec<(Vec<Tuple>, Ratio)> = step
            .iter()
            .map(|(s, q)| (s.idb.get("C").unwrap().iter().cloned().collect(), q.clone()))
            .collect();
        let c = |rows: &[(i64, i64)]| rows.iter().map(|&(k, v)| tuple![k, v]).collect();
        let want: Vec<(Vec<Tuple>, Ratio)> = vec![
            (c(&[(1, 1), (1, 2), (1, 3), (2, 5)]), Ratio::new(1, 12)),
            (c(&[(1, 1), (1, 2), (1, 3), (2, 6)]), Ratio::new(1, 4)),
            (c(&[(1, 1), (1, 2), (2, 5)]), Ratio::new(1, 12)),
            (c(&[(1, 1), (1, 2), (2, 6)]), Ratio::new(1, 4)),
            (c(&[(1, 1), (1, 3), (2, 5)]), Ratio::new(1, 12)),
            (c(&[(1, 1), (1, 3), (2, 6)]), Ratio::new(1, 4)),
        ];
        assert_eq!(got, want);
        // Every successor consumed all six valuations.
        for (s, _) in step.iter() {
            assert_eq!(
                s.old_vals().iter().map(|r| r.len()).collect::<Vec<_>>(),
                [4, 2]
            );
        }
    }

    /// One scratch serves two programs with the same IDB names (C, C2)
    /// and rule count but other arities: C is unary in one and binary
    /// in the other, and so is the second rule's valuation. Its path
    /// state is reset from each start, so every sampled path equals the
    /// one a fresh scratch draws, in either order and after a switch.
    #[test]
    fn one_scratch_samples_programs_of_other_arities() {
        let unary = reach_program();
        let binary = parse_program(
            "C(v, v).\n\
             C2(X!, Y) @P :- C(X, Z), E(X, Y, P).\n\
             C(Y, X) :- C2(X, Y).",
        )
        .unwrap();
        let mut shared = StepScratch::default();
        for seed in 0..8 {
            for program in [&unary, &binary, &binary, &unary] {
                let compiled = CompiledProgram::new(program);
                let (edb, start) = EngineState::initial(program, &fork_db()).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut fresh = StepScratch::default();
                let want = sample_fixpoint(&compiled, &edb, &start, &mut rng, 10, &mut fresh)
                    .unwrap()
                    .clone();
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let got =
                    sample_fixpoint(&compiled, &edb, &start, &mut rng, 10, &mut shared).unwrap();
                assert_eq!(*got, want, "seed {seed}");
                assert_eq!(got.old_vals().len(), 3);
            }
        }
    }

    /// A head whose key is its *second* column, `C(Y, K!)`. By key,
    /// K = 1 comes first, with options C(5, 1) (weight 2) and C(9, 1)
    /// (weight 1), then K = 2, with C(3, 2) and C(7, 2). Sorting by the
    /// whole head would start with C(3, 2) and split both groups.
    #[test]
    fn groups_follow_the_key_columns_not_the_whole_head() {
        let p = parse_program("C(Y, K!) @P :- E(K, Y, P).").unwrap();
        let db = Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["k", "v", "p"]),
                [
                    tuple![1, 9, 1],
                    tuple![1, 5, 2],
                    tuple![2, 3, 1],
                    tuple![2, 7, 1],
                ],
            ),
        );
        let (edb, init) = EngineState::initial(&p, &db).unwrap();
        let compiled = CompiledProgram::new(&p);
        let mut scratch = StepScratch::default();
        let StepScratch { rules, matcher, .. } = &mut scratch;
        assert!(fire_all(&compiled, &edb, &init, None, rules, matcher).unwrap());
        // Valuations are (K, Y, P), the body's binding order.
        assert_eq!(
            rules[0].consumed,
            [
                tuple![1, 5, 2],
                tuple![1, 9, 1],
                tuple![2, 3, 1],
                tuple![2, 7, 1]
            ]
        );
        let groups: Vec<Vec<Choice>> = rules[0].groups().map(<[_]>::to_vec).collect();
        let one = Ratio::one();
        assert_eq!(
            groups,
            [
                vec![
                    (tuple![5, 1], Ratio::new(2, 1)),
                    (tuple![9, 1], one.clone())
                ],
                vec![(tuple![3, 2], one.clone()), (tuple![7, 2], one)],
            ]
        );
        // The one step draws once per group, K = 1 first: C(5, 1) when
        // draw / 2⁶⁴ < 2/3, and C(3, 2) when the next is < 1/2. The step
        // after it fires nothing.
        for seed in 0..16 {
            let mut draws = ChaCha8Rng::seed_from_u64(seed);
            let first = if u128::from(draws.gen::<u64>()) * 3 < 2 << 64 {
                tuple![5, 1]
            } else {
                tuple![9, 1]
            };
            let second = if u128::from(draws.gen::<u64>()) * 2 < 1 << 64 {
                tuple![3, 2]
            } else {
                tuple![7, 2]
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fp = sample_fixpoint(&compiled, &edb, &init, &mut rng, 10, &mut scratch).unwrap();
            assert_eq!(
                fp.idb.get("C").unwrap().iter().collect::<BTreeSet<_>>(),
                BTreeSet::from([&first, &second]),
                "seed {seed}"
            );
        }
    }

    /// Δ holds A(1) and A(2), and `P(X, Y) :- A(X), A(Y)` reads A twice:
    /// each of the four valuations is found once through each atom, and
    /// is consumed, and offered, once.
    #[test]
    fn a_valuation_found_through_two_delta_atoms_is_taken_once() {
        let p = parse_program("A(X) :- B(X).\nP(X, Y) :- A(X), A(Y).").unwrap();
        let a = Relation::from_rows(Schema::new(["v"]), [tuple![1], tuple![2]]);
        let db = Database::new().with("B", a.clone()).with("A", a.clone());
        let (edb, state) = EngineState::initial(&p, &db).unwrap();
        let delta = Database::new().with("A", a);
        let compiled = CompiledProgram::new(&p);
        let mut scratch = StepScratch::default();
        let StepScratch { rules, matcher, .. } = &mut scratch;
        assert!(fire_all(&compiled, &edb, &state, Some(&delta), rules, matcher).unwrap());
        // Rule 0 reads only B, which is not in Δ.
        assert!(rules[0].consumed.is_empty() && rules[0].options.is_empty());
        let pairs = [tuple![1, 1], tuple![1, 2], tuple![2, 1], tuple![2, 2]];
        assert_eq!(rules[1].consumed, pairs);
        // A deterministic head is all key: one single-option group each.
        let groups: Vec<Vec<Choice>> = rules[1].groups().map(<[_]>::to_vec).collect();
        let singles: Vec<Vec<Choice>> = pairs
            .iter()
            .map(|t| vec![(t.clone(), Ratio::one())])
            .collect();
        assert_eq!(groups, singles);
        let step = step_distribution(&compiled, &edb, &state, Some(&delta), &mut scratch)
            .unwrap()
            .unwrap();
        assert_eq!(step.support_size(), 1);
        let (next, q) = step.iter().next().unwrap();
        assert!(q.is_one());
        assert_eq!(next.idb.get("P").unwrap().len(), 4);
        assert_eq!(next.old_vals()[1].len(), 4);
    }

    #[test]
    fn a_compiled_start_equals_a_fresh_one_and_shares_its_old_vals() {
        let p = parse_program("B(X, Y) :- A(X), E(X, Y).\nC(Y) :- B(X, Y), not A(Y).").unwrap();
        let db = Database::new()
            .with("A", Relation::from_rows(Schema::new(["v"]), [tuple![1]]))
            .with(
                "E",
                Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2]]),
            );
        let compiled = CompiledProgram::new(&p);
        let fresh = EngineState::initial(&p, &db).unwrap();
        let (edb, start) = EngineState::initial_compiled(&compiled, &db).unwrap();
        assert_eq!((&edb, &start), (&fresh.0, &fresh.1));
        assert_eq!(start.old_vals()[0].schema(), &Schema::new(["X", "Y"]));
        let (_, again) = EngineState::initial_compiled(&compiled, &db).unwrap();
        for (a, b) in start.old_vals().iter().zip(again.old_vals()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn delta_holds_only_the_new_idb_tuples() {
        let p = parse_program("B(X) :- A(X).\nC(X) :- B(X).").unwrap();
        let db = Database::new()
            .with("A", Relation::from_rows(Schema::new(["v"]), [tuple![1]]))
            .with("B", Relation::from_rows(Schema::new(["v"]), [tuple![7]]));
        let (edb, init) = EngineState::initial(&p, &db).unwrap();
        // An IDB relation given in the input starts the state with its
        // tuples, and the whole database is rebuilt from both parts.
        assert!(init.idb.get("B").unwrap().contains(&tuple![7]));
        assert_eq!(init.database(&edb), prepare_database(&p, &db).unwrap());
        assert!(init.delta_from(&init).relation_names().next().is_none());
        let compiled = CompiledProgram::new(&p);
        let step = step_distribution(&compiled, &edb, &init, None, &mut StepScratch::default())
            .unwrap()
            .unwrap();
        let (next, _) = step.iter().next().unwrap();
        let delta = next.delta_from(&init);
        assert_eq!(delta.relation_names().collect::<Vec<_>>(), ["B", "C"]);
        assert_eq!(
            delta.get("B").unwrap().iter().collect::<Vec<_>>(),
            [&tuple![1]]
        );
        assert_eq!(
            delta.get("C").unwrap().iter().collect::<Vec<_>>(),
            [&tuple![7]]
        );
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
        let (edb, start) = EngineState::initial(&program, &db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut scratch = StepScratch::default();
        let n = 4000;
        let hits = (0..n)
            .filter(|_| {
                let fp = sample_fixpoint(&compiled, &edb, &start, &mut rng, 10_000, &mut scratch)
                    .unwrap();
                fp.idb.get("C").unwrap().contains(&tuple!["w"])
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
