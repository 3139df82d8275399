//! Classical (non-probabilistic) datalog evaluation with semi-naive
//! deltas and *stratified negation* — the “(linear) datalog without
//! probabilistic rules” baseline of Table 1, extended with the standard
//! stratified semantics so the while-language difference idiom
//! (`not Cold(X)`) is expressible.

use crate::ast::Program;
use crate::eval::{prepare_database, CompiledProgram, CompiledRule};
use crate::DatalogError;
use pfq_data::{Database, Relation};
use std::collections::BTreeMap;

/// Assigns each IDB relation a stratum such that positive dependencies
/// stay within a stratum or go upward, and negative dependencies go
/// strictly upward. Errors if the program is not stratifiable (recursion
/// through negation).
///
/// Returns `(stratum_of_relation, number_of_strata)`.
pub fn stratify(program: &Program) -> Result<(BTreeMap<String, usize>, usize), DatalogError> {
    let idb: Vec<String> = program
        .idb_relations()
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut stratum: BTreeMap<String, usize> = idb.iter().map(|r| (r.clone(), 1)).collect();
    // Classic iteration: stratum(h) ≥ stratum(b) for positive IDB b,
    // stratum(h) ≥ stratum(c) + 1 for negated IDB c. Any stratum
    // exceeding |IDB| certifies a cycle through negation.
    let limit = idb.len().max(1);
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let h = rule.head.relation.clone();
            let mut needed = stratum[&h];
            for atom in &rule.body {
                if let Some(&s) = stratum.get(&atom.relation) {
                    needed = needed.max(s);
                }
            }
            for atom in &rule.negatives {
                if let Some(&s) = stratum.get(&atom.relation) {
                    needed = needed.max(s + 1);
                }
            }
            if needed > stratum[&h] {
                if needed > limit {
                    return Err(DatalogError::Structure(format!(
                        "program is not stratifiable: recursion through negation involving {h:?}"
                    )));
                }
                stratum.insert(h, needed);
                changed = true;
            }
        }
        if !changed {
            let max = stratum.values().copied().max().unwrap_or(0);
            return Ok((stratum, max));
        }
    }
}

/// Evaluates a deterministic (possibly stratified-negation) datalog
/// program to its perfect-model fixpoint.
///
/// Errors if the program contains probabilistic rules (use the
/// [`crate::inflationary`] engines for those) or is not stratifiable.
pub fn evaluate(program: &Program, db: &Database) -> Result<Database, DatalogError> {
    if program.is_probabilistic() {
        return Err(DatalogError::Structure(
            "semi-naive evaluation requires a non-probabilistic program".into(),
        ));
    }
    let (stratum_of, n_strata) = stratify(program)?;
    let compiled = CompiledProgram::new(program);
    let mut total = prepare_database(program, db)?;
    for s in 1..=n_strata {
        let rules: Vec<usize> = program
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| stratum_of[&r.head.relation] == s)
            .map(|(i, _)| i)
            .collect();
        evaluate_stratum(&compiled, &rules, &mut total)?;
    }
    Ok(total)
}

/// Runs one stratum's rules to their fixpoint over `total`, with
/// semi-naive deltas on the stratum's own IDB relations. Negated atoms
/// read `total` directly (their relations belong to lower strata and are
/// already complete).
fn evaluate_stratum(
    program: &CompiledProgram,
    rule_indices: &[usize],
    total: &mut Database,
) -> Result<(), DatalogError> {
    let heads: Vec<String> = {
        let mut v: Vec<String> = rule_indices
            .iter()
            .map(|&i| program.rules()[i].rule().head.relation.clone())
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let empty_deltas = |total: &Database| -> BTreeMap<String, Relation> {
        heads
            .iter()
            .map(|r| {
                (
                    r.clone(),
                    Relation::empty(total.get(r).unwrap().schema().clone()),
                )
            })
            .collect()
    };

    // Round 0: naive evaluation of every rule of the stratum once.
    let mut delta = empty_deltas(total);
    for &i in rule_indices {
        derive(&program.rules()[i], total, None, &mut delta)?;
    }

    // Semi-naive rounds: new derivations must pass through a delta of a
    // same-stratum relation in a *positive* position.
    loop {
        let mut next_delta = empty_deltas(total);
        for &ri in rule_indices {
            let rule = &program.rules()[ri];
            for (i, atom) in rule.rule().body.iter().enumerate() {
                let Some(d) = delta.get(&atom.relation) else {
                    continue;
                };
                if d.is_empty() {
                    continue;
                }
                derive(rule, total, Some((i, d)), &mut next_delta)?;
            }
        }
        if next_delta.values().all(Relation::is_empty) {
            return Ok(());
        }
        delta = next_delta;
    }
}

/// Fires `rule` once against `total` (atom `i` reading `delta` when
/// given) and inserts the derived head tuples into `total`, recording
/// the new ones in `new_tuples`.
fn derive(
    rule: &CompiledRule,
    total: &mut Database,
    delta: Option<(usize, &Relation)>,
    new_tuples: &mut BTreeMap<String, Relation>,
) -> Result<(), DatalogError> {
    let mut derived = Vec::new();
    rule.for_each_valuation(total, delta, |vals| {
        derived.push(rule.head_tuple(vals)?);
        Ok(())
    })?;
    let relation = &rule.rule().head.relation;
    let target = total.get_mut(relation).expect("prepared IDB");
    for t in derived {
        if target.insert(t.clone()) {
            new_tuples.get_mut(relation).unwrap().insert(t);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use pfq_data::{tuple, Schema};

    fn edge_db(edges: &[(i64, i64)]) -> Database {
        Database::new().with(
            "E",
            Relation::from_rows(
                Schema::new(["i", "j"]),
                edges.iter().map(|&(i, j)| tuple![i, j]),
            ),
        )
    }

    #[test]
    fn transitive_closure() {
        let p = parse_program(
            "T(X, Y) :- E(X, Y).\n\
             T(X, Z) :- T(X, Y), E(Y, Z).",
        )
        .unwrap();
        let db = edge_db(&[(1, 2), (2, 3), (3, 4)]);
        let out = evaluate(&p, &db).unwrap();
        let t = out.get("T").unwrap();
        assert_eq!(t.len(), 6); // all ordered pairs along the path
        assert!(t.contains(&tuple![1, 4]));
        assert!(!t.contains(&tuple![4, 1]));
    }

    #[test]
    fn facts_fire_once() {
        let p = parse_program("C(v).\nC(w).").unwrap();
        let out = evaluate(&p, &Database::new()).unwrap();
        assert_eq!(out.get("C").unwrap().len(), 2);
    }

    #[test]
    fn reachability_from_start() {
        let p = parse_program(
            "R(1).\n\
             R(Y) :- R(X), E(X, Y).",
        )
        .unwrap();
        let db = edge_db(&[(1, 2), (2, 3), (5, 6)]);
        let out = evaluate(&p, &db).unwrap();
        let r = out.get("R").unwrap();
        assert_eq!(r.len(), 3); // 1, 2, 3 but not the 5→6 island
        assert!(!r.contains(&tuple![5]));
    }

    #[test]
    fn cycles_terminate() {
        let p = parse_program("R(1).\nR(Y) :- R(X), E(X, Y).").unwrap();
        let db = edge_db(&[(1, 2), (2, 1)]);
        let out = evaluate(&p, &db).unwrap();
        assert_eq!(out.get("R").unwrap().len(), 2);
    }

    #[test]
    fn mutually_recursive_rules() {
        let p = parse_program(
            "Even(0).\n\
             Odd(Y) :- Even(X), S(X, Y).\n\
             Even(Y) :- Odd(X), S(X, Y).",
        )
        .unwrap();
        let db = Database::new().with(
            "S",
            Relation::from_rows(Schema::new(["n", "sn"]), (0..6).map(|i| tuple![i, i + 1])),
        );
        let out = evaluate(&p, &db).unwrap();
        let even = out.get("Even").unwrap();
        let odd = out.get("Odd").unwrap();
        assert!(even.contains(&tuple![0]));
        assert!(even.contains(&tuple![4]));
        assert!(odd.contains(&tuple![5]));
        assert!(!even.contains(&tuple![3]));
        assert_eq!(even.len() + odd.len(), 7);
    }

    #[test]
    fn probabilistic_program_rejected() {
        let p = parse_program("H(X!, Y) :- E(X, Y).").unwrap();
        assert!(matches!(
            evaluate(&p, &edge_db(&[(1, 2)])),
            Err(DatalogError::Structure(_))
        ));
    }

    #[test]
    fn rule_with_unknown_edb_fails() {
        let p = parse_program("H(X) :- Nope(X).").unwrap();
        assert!(matches!(
            evaluate(&p, &Database::new()),
            Err(DatalogError::UnknownRelation(_))
        ));
    }

    #[test]
    fn zero_ary_flag_derivation() {
        let p = parse_program("Done :- R(X, Y), R(Y, X).\nR(1, 2).\nR(2, 1).").unwrap();
        let out = evaluate(&p, &Database::new()).unwrap();
        assert_eq!(out.get("Done").unwrap().len(), 1);
    }

    #[test]
    fn idempotent_on_fixpoint() {
        let p = parse_program("T(X, Y) :- E(X, Y).\nT(X, Z) :- T(X, Y), E(Y, Z).").unwrap();
        let db = edge_db(&[(1, 2), (2, 3)]);
        let once = evaluate(&p, &db).unwrap();
        let twice = evaluate(&p, &once).unwrap();
        assert_eq!(once, twice);
    }

    // ── Stratified negation. ──

    #[test]
    fn negation_over_edb() {
        // Nodes with no outgoing edge.
        let p = parse_program(
            "N(X) :- E(X, Y).\nN(Y) :- E(X, Y).\nSink(X) :- N(X), not HasOut(X).\nHasOut(X) :- E(X, Y).",
        )
        .unwrap();
        let db = edge_db(&[(1, 2), (2, 3)]);
        let out = evaluate(&p, &db).unwrap();
        let sink = out.get("Sink").unwrap();
        assert_eq!(sink.len(), 1);
        assert!(sink.contains(&tuple![3]));
    }

    #[test]
    fn unreachable_via_negation() {
        // Classic: Unreachable = Node − Reach, two strata.
        let p = parse_program(
            "Reach(1).\n\
             Reach(Y) :- Reach(X), E(X, Y).\n\
             Node(X) :- E(X, Y).\n\
             Node(Y) :- E(X, Y).\n\
             Unreach(X) :- Node(X), not Reach(X).",
        )
        .unwrap();
        let db = edge_db(&[(1, 2), (5, 6)]);
        let out = evaluate(&p, &db).unwrap();
        let u = out.get("Unreach").unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.contains(&tuple![5]));
        assert!(u.contains(&tuple![6]));
    }

    #[test]
    fn stratification_orders_strata() {
        let p = parse_program(
            "A(X) :- Base(X).\nB(X) :- A(X).\nC(X) :- Base(X), not B(X).\nD(X) :- C(X), not A(X).",
        )
        .unwrap();
        let (strata, n) = stratify(&p).unwrap();
        assert_eq!(strata["A"], 1);
        assert_eq!(strata["B"], 1);
        assert_eq!(strata["C"], 2);
        // D needs max(stratum(C), stratum(A) + 1) = 2.
        assert_eq!(strata["D"], 2);
        assert_eq!(n, 2);
    }

    #[test]
    fn recursion_through_negation_rejected() {
        let p = parse_program("Win(X) :- Move(X, Y), not Win(Y).").unwrap();
        assert!(matches!(stratify(&p), Err(DatalogError::Structure(_))));
        assert!(evaluate(
            &p,
            &Database::new().with(
                "Move",
                Relation::from_rows(Schema::new(["a", "b"]), [tuple![1, 2]]),
            )
        )
        .is_err());
    }

    #[test]
    fn negation_of_same_stratum_positive_cycle_ok() {
        // A and B are mutually recursive (one stratum); C negates them
        // from the stratum above.
        let p = parse_program(
            "A(X) :- Base(X).\nA(X) :- B(X).\nB(X) :- A(X).\nC(X) :- All(X), not A(X).",
        )
        .unwrap();
        let db = Database::new()
            .with("Base", Relation::from_rows(Schema::new(["v"]), [tuple![1]]))
            .with(
                "All",
                Relation::from_rows(Schema::new(["v"]), [tuple![1], tuple![2]]),
            );
        let out = evaluate(&p, &db).unwrap();
        assert!(out.get("C").unwrap().contains(&tuple![2]));
        assert_eq!(out.get("C").unwrap().len(), 1);
    }

    #[test]
    fn double_negation_three_strata() {
        let p = parse_program(
            "P(X) :- Base(X).\n\
             Q(X) :- All(X), not P(X).\n\
             R(X) :- All(X), not Q(X).",
        )
        .unwrap();
        let db = Database::new()
            .with("Base", Relation::from_rows(Schema::new(["v"]), [tuple![1]]))
            .with(
                "All",
                Relation::from_rows(Schema::new(["v"]), [tuple![1], tuple![2]]),
            );
        let out = evaluate(&p, &db).unwrap();
        // Q = {2}; R = All − Q = {1}.
        assert_eq!(out.get("Q").unwrap().len(), 1);
        assert!(out.get("R").unwrap().contains(&tuple![1]));
        assert_eq!(out.get("R").unwrap().len(), 1);
    }
}
