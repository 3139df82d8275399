//! Body matching — the `valuations of the body of r` step of the
//! paper's inflationary pseudocode, shared by every engine.
//!
//! Each rule is compiled once per program into a slot plan
//! ([`CompiledRule`]). The rule's variables get dense indices in
//! [`Rule::all_variables`] order, which is both the order the body binds
//! them in and the column order of the paper's `oldVals[r]` tuples, so a
//! valuation is a `&[Value]` that *is* its `oldVals` encoding. Body atoms
//! test constants and already bound slots before anything is cloned, and
//! leading bound or constant columns become a prefix range scan on the
//! relation's ordered tuple set.

use crate::ast::{Atom, Program, Rule, Term};
use crate::DatalogError;
use pfq_data::{Database, Relation, Schema, Tuple, Value};
use pfq_num::Ratio;
use std::collections::BTreeMap;

/// Where matching reads relations from: a whole [`Database`], or a
/// computation state's IDB read before its input's EDB ([`Layered`]).
pub trait Relations {
    /// The relation named `name`, if present.
    fn relation(&self, name: &str) -> Option<&Relation>;
}

impl Relations for Database {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.get(name)
    }
}

/// The relations rule heads write (`idb`) over the rest of the input
/// (`edb`): a name resolves in `idb` first, then in `edb`.
#[derive(Clone, Copy, Debug)]
pub struct Layered<'a> {
    /// The IDB relations.
    pub idb: &'a Database,
    /// The EDB relations.
    pub edb: &'a Database,
}

impl Relations for Layered<'_> {
    fn relation(&self, name: &str) -> Option<&Relation> {
        self.idb.get(name).or_else(|| self.edb.get(name))
    }
}

/// Where a compiled rule reads a value from.
#[derive(Clone, Debug)]
enum Operand {
    /// A constant of the rule text.
    Const(Value),
    /// Slot `i` of the valuation being built.
    Slot(usize),
    /// A variable the positive body never binds (an unsafe rule that
    /// bypassed [`Program::new`]); reading it is an error.
    Unbound(String),
}

impl Operand {
    fn compile(term: &Term, slots: &BTreeMap<&str, usize>) -> Operand {
        match term {
            Term::Const(c) => Operand::Const(c.clone()),
            Term::Var(v) => match slots.get(v.as_str()) {
                Some(&i) => Operand::Slot(i),
                None => Operand::Unbound(v.clone()),
            },
        }
    }

    /// The value under `vals`, or the unbound variable's name.
    fn read<'a>(&'a self, vals: &'a [Value]) -> Result<&'a Value, &'a str> {
        match self {
            Operand::Const(c) => Ok(c),
            Operand::Slot(i) => Ok(&vals[*i]),
            Operand::Unbound(v) => Err(v),
        }
    }
}

/// The scan plan of one positive body atom.
#[derive(Clone, Debug)]
struct AtomPlan {
    /// Leading columns fixed before the scan (constants and slots bound
    /// by earlier atoms): the range-scan prefix.
    prefix: Vec<Operand>,
    /// Later columns that must equal a constant or an earlier slot.
    checks: Vec<(usize, Operand)>,
    /// Later columns that must equal an earlier column of the same
    /// tuple (a variable repeated within the atom).
    repeats: Vec<(usize, usize)>,
    /// Columns that bind new slots, in slot order.
    binds: Vec<usize>,
}

/// One rule compiled to slot form; see the module docs.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// The source rule: relation names, arities and error messages.
    rule: Rule,
    body: Vec<AtomPlan>,
    /// Each positive body atom as a slot list (every operand bound).
    atoms: Vec<Vec<Operand>>,
    negatives: Vec<Vec<Operand>>,
    head: Vec<Operand>,
    /// Head positions that are key (underlined), in order.
    key: Vec<usize>,
    weight: Option<Operand>,
    /// Slots bound by the positive body.
    slots: usize,
    /// Total prefix length over all atoms (the key buffer's size).
    key_len: usize,
}

impl CompiledRule {
    /// Compiles `rule`. Never fails: an unsafe rule compiles, and
    /// matching it reports [`DatalogError::UnsafeRule`] at the first
    /// valuation that reads an unbound variable.
    pub fn new(rule: &Rule) -> CompiledRule {
        let mut slots: BTreeMap<&str, usize> = BTreeMap::new();
        let mut body = Vec::with_capacity(rule.body.len());
        let mut key_len = 0;
        for atom in &rule.body {
            let fixed = atom
                .terms
                .iter()
                .take_while(|t| t.as_var().is_none_or(|v| slots.contains_key(v)))
                .count();
            let prefix: Vec<Operand> = atom.terms[..fixed]
                .iter()
                .map(|t| Operand::compile(t, &slots))
                .collect();
            let mut plan = AtomPlan {
                prefix,
                checks: Vec::new(),
                repeats: Vec::new(),
                binds: Vec::new(),
            };
            key_len += fixed;
            let mut first_col: BTreeMap<&str, usize> = BTreeMap::new();
            for (col, term) in atom.terms.iter().enumerate().skip(fixed) {
                match term.as_var() {
                    Some(v) if !slots.contains_key(v) => match first_col.get(v) {
                        Some(&earlier) => plan.repeats.push((col, earlier)),
                        None => {
                            first_col.insert(v, col);
                            plan.binds.push(col);
                        }
                    },
                    _ => plan.checks.push((col, Operand::compile(term, &slots))),
                }
            }
            for &col in &plan.binds {
                let next = slots.len();
                slots.insert(atom.terms[col].as_var().expect("bind column"), next);
            }
            body.push(plan);
        }
        let compile_all =
            |terms: &[Term]| terms.iter().map(|t| Operand::compile(t, &slots)).collect();
        CompiledRule {
            atoms: rule.body.iter().map(|a| compile_all(&a.terms)).collect(),
            negatives: rule
                .negatives
                .iter()
                .map(|a| compile_all(&a.terms))
                .collect(),
            head: compile_all(&rule.head.terms),
            key: (0..rule.head.terms.len())
                .filter(|&i| rule.head.keys[i])
                .collect(),
            weight: rule
                .head
                .weight
                .as_ref()
                .map(|w| Operand::compile(&Term::Var(w.clone()), &slots)),
            slots: slots.len(),
            key_len,
            body,
            rule: rule.clone(),
        }
    }

    /// The source rule.
    pub fn rule(&self) -> &Rule {
        &self.rule
    }

    /// Calls `emit` with every valuation of the positive body, against
    /// the relations of `db`, that no negated atom blocks. The slice holds the body
    /// variables in [`Rule::all_variables`] order — the rule's `oldVals`
    /// tuple. `delta = Some((i, rel))` reads atom `i` from `rel` instead
    /// of `db`: the inflationary engines pass the tuples their last step
    /// added, so only valuations that use one are found.
    ///
    /// Errors if a body or negated relation is missing from `db` or has
    /// the wrong arity, if a negated atom reads an unbound variable, or
    /// with whatever `emit` returns.
    pub fn for_each_valuation<D, F>(
        &self,
        db: &D,
        delta: Option<(usize, &Relation)>,
        mut emit: F,
    ) -> Result<(), DatalogError>
    where
        D: Relations + ?Sized,
        F: FnMut(&[Value]) -> Result<(), DatalogError>,
    {
        let mut rels = Vec::with_capacity(self.rule.body.len() + self.rule.negatives.len());
        for (i, atom) in self.rule.body.iter().enumerate() {
            let rel = match delta {
                Some((d, rel)) if d == i => rel,
                _ => lookup(db, atom)?,
            };
            check_arity(atom, rel)?;
            rels.push(rel);
        }
        for atom in &self.rule.negatives {
            let rel = lookup(db, atom)?;
            check_arity(atom, rel)?;
            rels.push(rel);
        }
        let (body_rels, negative_rels) = rels.split_at(self.body.len());
        let mut vals = Vec::with_capacity(self.slots);
        let mut key = vec![Value::Int(0); self.key_len];
        let mut matcher = Matcher {
            rule: self,
            body_rels,
            negative_rels,
            ground: Vec::new(),
            emit: &mut emit,
        };
        matcher.descend(0, &mut vals, &mut key)
    }

    /// The head tuple under a valuation from
    /// [`CompiledRule::for_each_valuation`].
    pub fn head_tuple(&self, vals: &[Value]) -> Result<Tuple, DatalogError> {
        let mut out = Vec::with_capacity(self.head.len());
        for op in &self.head {
            out.push(
                op.read(vals)
                    .map_err(|v| unsafe_rule(&self.rule.head, v))?
                    .clone(),
            );
        }
        Ok(Tuple::new(out))
    }

    /// Positive body atom `atom` grounded under a valuation from
    /// [`CompiledRule::for_each_valuation`]: the tuple that atom matched.
    pub fn body_tuple(&self, atom: usize, vals: &[Value]) -> Tuple {
        let values: Vec<Value> = self.atoms[atom]
            .iter()
            .map(|op| op.read(vals).expect("body operands are bound").clone())
            .collect();
        Tuple::new(values)
    }

    /// The key part of a head tuple (values at key positions) — the
    /// repair-key group identity.
    pub fn head_key(&self, head: &Tuple) -> Tuple {
        head.project(&self.key)
    }

    /// The rule weight under a valuation: the value bound to the `@`
    /// variable (checked positive), or 1 for uniform rules.
    pub fn weight(&self, vals: &[Value]) -> Result<Ratio, DatalogError> {
        match &self.weight {
            None => Ok(Ratio::one()),
            Some(op) => op
                .read(vals)
                .map_err(|v| unsafe_rule(&self.rule, v))?
                .as_weight()
                .map_err(DatalogError::BadWeight),
        }
    }
}

/// A program with every rule compiled, in rule order.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    rules: Vec<CompiledRule>,
}

impl CompiledProgram {
    /// Compiles every rule of `program`.
    pub fn new(program: &Program) -> CompiledProgram {
        CompiledProgram {
            rules: program.rules.iter().map(CompiledRule::new).collect(),
        }
    }

    /// The compiled rules, in program order.
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }
}

/// One matching run of a [`CompiledRule`]: the resolved relations plus
/// the grounding buffer for negated atoms.
struct Matcher<'a, F> {
    rule: &'a CompiledRule,
    body_rels: &'a [&'a Relation],
    negative_rels: &'a [&'a Relation],
    ground: Vec<Value>,
    emit: &'a mut F,
}

impl<F> Matcher<'_, F>
where
    F: FnMut(&[Value]) -> Result<(), DatalogError>,
{
    /// Depth-first nested-loop join over body atoms `level..`. `vals`
    /// holds the slots bound so far; `key` is the prefix buffer of this
    /// atom and every later one.
    fn descend(
        &mut self,
        level: usize,
        vals: &mut Vec<Value>,
        key: &mut [Value],
    ) -> Result<(), DatalogError> {
        let Some(plan) = self.rule.body.get(level) else {
            return if self.blocked(vals)? {
                Ok(())
            } else {
                (self.emit)(vals)
            };
        };
        let (prefix, rest) = key.split_at_mut(plan.prefix.len());
        for (k, op) in prefix.iter_mut().zip(&plan.prefix) {
            k.clone_from(op.read(vals).expect("prefix operands are bound"));
        }
        'tuples: for t in self.body_rels[level].prefix_scan(prefix) {
            let cols = t.values();
            for (col, op) in &plan.checks {
                if cols[*col] != *op.read(vals).expect("check operands are bound") {
                    continue 'tuples;
                }
            }
            for &(col, earlier) in &plan.repeats {
                if cols[col] != cols[earlier] {
                    continue 'tuples;
                }
            }
            let depth = vals.len();
            vals.extend(plan.binds.iter().map(|&c| cols[c].clone()));
            let descended = self.descend(level + 1, vals, rest);
            vals.truncate(depth);
            descended?;
        }
        Ok(())
    }

    /// Whether some negated atom, grounded under `vals`, holds.
    fn blocked(&mut self, vals: &[Value]) -> Result<bool, DatalogError> {
        let negatives = self.rule.rule.negatives.iter();
        for ((atom, ops), rel) in negatives.zip(&self.rule.negatives).zip(self.negative_rels) {
            self.ground.clear();
            for op in ops {
                let v = op.read(vals).map_err(|v| unsafe_rule(atom, v))?;
                self.ground.push(v.clone());
            }
            if rel.contains_values(&self.ground) {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

fn lookup<'a, D: Relations + ?Sized>(db: &'a D, atom: &Atom) -> Result<&'a Relation, DatalogError> {
    db.relation(&atom.relation)
        .ok_or_else(|| DatalogError::UnknownRelation(atom.relation.clone()))
}

fn check_arity(atom: &Atom, rel: &Relation) -> Result<(), DatalogError> {
    if rel.schema().arity() != atom.terms.len() {
        return Err(DatalogError::ArityMismatch {
            relation: atom.relation.clone(),
            expected: rel.schema().arity(),
            found: atom.terms.len(),
        });
    }
    Ok(())
}

fn unsafe_rule(rendered: &impl std::fmt::Display, variable: &str) -> DatalogError {
    DatalogError::UnsafeRule {
        rule: rendered.to_string(),
        variable: variable.to_string(),
    }
}

/// The schema [`prepare_database`] declares an absent IDB relation of
/// `arity` with: generated column names `c0, c1, …`.
pub fn idb_schema(arity: usize) -> Schema {
    Schema::new((0..arity).map(|i| format!("c{i}")))
}

/// Declares every IDB relation of `program` in `db` (if absent) with
/// inferred arity and generated column names ([`idb_schema`]), and checks that
/// every body atom's arity matches its relation.
pub fn prepare_database(program: &Program, db: &Database) -> Result<Database, DatalogError> {
    let mut out = db.clone();
    for (name, arity) in program.idb_arities()? {
        match out.get(&name) {
            Some(rel) if rel.schema().arity() != arity => {
                return Err(DatalogError::Structure(format!(
                    "relation {name:?} exists with arity {} but heads have arity {arity}",
                    rel.schema().arity()
                )));
            }
            Some(_) => {}
            None => out.declare(name, idb_schema(arity)),
        }
    }
    for rule in &program.rules {
        for atom in rule.body.iter().chain(rule.negatives.iter()) {
            check_arity(atom, lookup(&out, atom)?)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Head;
    use crate::parse_program;
    use pfq_data::tuple;

    fn db() -> Database {
        let e = Relation::from_rows(
            Schema::new(["i", "j"]),
            [tuple![1, 2], tuple![1, 3], tuple![2, 3]],
        );
        let c = Relation::from_rows(Schema::new(["n"]), [tuple![1]]);
        Database::new().with("E", e).with("C", c)
    }

    fn rule_of(src: &str) -> CompiledRule {
        CompiledRule::new(&parse_program(src).unwrap().rules[0])
    }

    /// Every valuation of the rule, as `oldVals` tuples in match order.
    fn valuations(rule: &CompiledRule, db: &Database) -> Result<Vec<Tuple>, DatalogError> {
        let mut out = Vec::new();
        rule.for_each_valuation(db, None, |vals| {
            out.push(Tuple::new(vals.to_vec()));
            Ok(())
        })?;
        Ok(out)
    }

    #[test]
    fn single_atom_valuations() {
        let vals = valuations(&rule_of("H(X, Y) :- E(X, Y)."), &db()).unwrap();
        assert_eq!(vals, [tuple![1, 2], tuple![1, 3], tuple![2, 3]]);
    }

    #[test]
    fn join_on_shared_variable() {
        // C = {1}, edges from 1: (1,2), (1,3).
        let vals = valuations(&rule_of("H(X, Y) :- C(X), E(X, Y)."), &db()).unwrap();
        assert_eq!(vals, [tuple![1, 2], tuple![1, 3]]);
    }

    #[test]
    fn constant_first_atom_scans_its_prefix() {
        let rule = rule_of("H(Y) :- E(2, Y).");
        assert_eq!(rule.body[0].prefix.len(), 1);
        assert_eq!(valuations(&rule, &db()).unwrap(), [tuple![3]]);
    }

    #[test]
    fn constant_after_a_bind_is_checked() {
        let rule = rule_of("H(X) :- E(X, 3).");
        assert!(rule.body[0].prefix.is_empty());
        assert_eq!(rule.body[0].checks.len(), 1);
        assert_eq!(valuations(&rule, &db()).unwrap(), [tuple![1], tuple![2]]);
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut database = db();
        database.insert_tuple("E", tuple![5, 5]).unwrap();
        let rule = rule_of("H(X) :- E(X, X).");
        assert_eq!(rule.body[0].repeats, [(1, 0)]);
        assert_eq!(valuations(&rule, &database).unwrap(), [tuple![5]]);
    }

    #[test]
    fn bound_prefix_scan_stops_at_the_boundary() {
        // X = 1 fixes E's first column: the scan yields (1,2), (1,3) and
        // stops before (2,3); Y then fixes a two-column prefix of F.
        let mut database = db();
        database.declare("F", Schema::new(["a", "b", "c"]));
        for t in [
            tuple![1, 2, 7],
            tuple![1, 3, 8],
            tuple![1, 3, 9],
            tuple![2, 2, 0],
        ] {
            database.insert_tuple("F", t).unwrap();
        }
        let rule = rule_of("H(Y, Z) :- C(X), E(X, Y), F(X, Y, Z).");
        assert_eq!(rule.body[1].prefix.len(), 1);
        assert_eq!(rule.body[2].prefix.len(), 2);
        assert_eq!(
            valuations(&rule, &database).unwrap(),
            [tuple![1, 2, 7], tuple![1, 3, 8], tuple![1, 3, 9]]
        );
    }

    #[test]
    fn transitive_join_chain() {
        // Paths of length 2: 1→2→3.
        let vals = valuations(&rule_of("H(X, Z) :- E(X, Y), E(Y, Z)."), &db()).unwrap();
        assert_eq!(vals, [tuple![1, 2, 3]]);
    }

    #[test]
    fn empty_body_is_single_empty_valuation() {
        assert_eq!(
            valuations(&rule_of("C(v)."), &db()).unwrap(),
            [Tuple::empty()]
        );
    }

    #[test]
    fn negated_atom_is_grounded_under_the_valuation() {
        // E(X, Y), not E(Y, X), with E ∪ {(3, 1)}: (1,3) is blocked by
        // (3,1) and (3,1) by (1,3).
        let mut database = db();
        database.insert_tuple("E", tuple![3, 1]).unwrap();
        let rule = rule_of("H(X, Y) :- E(X, Y), not E(Y, X).");
        assert_eq!(
            valuations(&rule, &database).unwrap(),
            [tuple![1, 2], tuple![2, 3]]
        );
        // A constant inside the negated atom.
        let rule = rule_of("H(Y) :- E(1, Y), not E(Y, 3).");
        assert_eq!(valuations(&rule, &db()).unwrap(), [tuple![3]]);
    }

    #[test]
    fn delta_override_replaces_one_atom() {
        let rule = rule_of("H(X, Z) :- E(X, Y), E(Y, Z).");
        let delta = Relation::from_rows(Schema::new(["i", "j"]), [tuple![3, 9]]);
        let mut out = Vec::new();
        rule.for_each_valuation(&db(), Some((1, &delta)), |vals| {
            out.push(Tuple::new(vals.to_vec()));
            Ok(())
        })
        .unwrap();
        // Paths 1→3→9 and 2→3→9 through the delta edge only.
        assert_eq!(out, [tuple![1, 3, 9], tuple![2, 3, 9]]);
    }

    #[test]
    fn unknown_relation_and_arity_errors() {
        assert!(matches!(
            valuations(&rule_of("H(X) :- Zed(X)."), &db()),
            Err(DatalogError::UnknownRelation(_))
        ));
        assert!(matches!(
            valuations(&rule_of("H(X) :- E(X)."), &db()),
            Err(DatalogError::ArityMismatch { .. })
        ));
        assert!(matches!(
            valuations(&rule_of("H(X) :- C(X), not E(X)."), &db()),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn head_key_and_ratio_weight_column() {
        let p = parse_program("H(X!, Y, 7) @P :- E(X, Y), W(P).").unwrap();
        let rule = CompiledRule::new(&p.rules[0]);
        let database = db().with(
            "W",
            Relation::from_rows(Schema::new(["p"]), [tuple![Value::frac(1, 2)]]),
        );
        let mut seen = Vec::new();
        rule.for_each_valuation(&database, None, |vals| {
            let head = rule.head_tuple(vals)?;
            seen.push((head.clone(), rule.head_key(&head), rule.weight(vals)?));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        // Keys: X (marked) and the constant 7.
        assert_eq!(seen[0], (tuple![1, 2, 7], tuple![1, 7], Ratio::new(1, 2)));
        let uniform = rule_of("H(X) :- C(X).");
        assert_eq!(uniform.weight(&[Value::int(1)]).unwrap(), Ratio::one());
    }

    #[test]
    fn bad_weight_value() {
        let rule = rule_of("H(X) @P :- R(X, P).");
        assert!(matches!(
            rule.weight(&[Value::int(1), Value::int(0)]),
            Err(DatalogError::BadWeight(_))
        ));
        assert!(matches!(
            rule.weight(&[Value::int(1), Value::str("x")]),
            Err(DatalogError::BadWeight(_))
        ));
    }

    #[test]
    fn unsafe_rule_bypassing_program_new_still_errors() {
        // `Program::new` rejects these; built directly, matching reports
        // the unbound variable once a valuation reads it.
        let head_unsafe = Rule::new(
            Head::deterministic("H", [Term::var("X"), Term::var("Q")]),
            [Atom::new("E", [Term::var("X"), Term::var("Y")])],
        );
        assert!(Program::new([head_unsafe.clone()]).is_err());
        let rule = CompiledRule::new(&head_unsafe);
        let err = rule
            .for_each_valuation(&db(), None, |vals| rule.head_tuple(vals).map(drop))
            .unwrap_err();
        assert_eq!(
            err,
            DatalogError::UnsafeRule {
                rule: "H(X, Q)".into(),
                variable: "Q".into()
            }
        );
        let negative_unsafe = Rule::with_negatives(
            Head::deterministic("H", [Term::var("X")]),
            [Atom::new("C", [Term::var("X")])],
            [Atom::new("E", [Term::var("X"), Term::var("Q")])],
        );
        assert!(matches!(
            valuations(&CompiledRule::new(&negative_unsafe), &db()),
            Err(DatalogError::UnsafeRule { variable, .. }) if variable == "Q"
        ));
        let weight_unsafe = Rule::new(
            Head::probabilistic("H", [Term::var("X")], vec![false], Some("P".into())),
            [Atom::new("C", [Term::var("X")])],
        );
        let rule = CompiledRule::new(&weight_unsafe);
        assert!(matches!(
            rule.for_each_valuation(&db(), None, |vals| rule.weight(vals).map(drop)),
            Err(DatalogError::UnsafeRule { variable, .. }) if variable == "P"
        ));
    }

    #[test]
    fn slots_follow_all_variables_order() {
        let p = parse_program("H(Z, X) :- E(X, Y), E(Y, Z), C(X).").unwrap();
        let rule = CompiledRule::new(&p.rules[0]);
        assert_eq!(p.rules[0].all_variables(), ["X", "Y", "Z"]);
        assert_eq!(rule.slots, 3);
        let mut database = db();
        database.insert_tuple("E", tuple![3, 4]).unwrap();
        assert_eq!(
            valuations(&rule, &database).unwrap(),
            [tuple![1, 2, 3], tuple![1, 3, 4]]
        );
    }

    #[test]
    fn prepare_database_declares_idbs() {
        let p = parse_program("C(v).\nC2(X!, Y) :- C(X), E(X, Y).").unwrap();
        let base = Database::new().with(
            "E",
            Relation::from_rows(Schema::new(["i", "j"]), [tuple!["v", "w"]]),
        );
        let prepared = prepare_database(&p, &base).unwrap();
        assert!(prepared.contains_relation("C"));
        assert!(prepared.contains_relation("C2"));
        assert_eq!(prepared.get("C2").unwrap().schema().arity(), 2);
    }

    #[test]
    fn prepare_database_checks_arity_conflicts() {
        let p = parse_program("C(X, Y) :- E(X, Y).").unwrap();
        let base = Database::new()
            .with(
                "E",
                Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2]]),
            )
            .with("C", Relation::empty(Schema::new(["only_one"])));
        assert!(matches!(
            prepare_database(&p, &base),
            Err(DatalogError::Structure(_))
        ));
    }
}
