//! The abstract syntax of (probabilistic) datalog programs.

use crate::DatalogError;
use pfq_data::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A datalog variable (capitalized in the concrete syntax).
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Variable constructor.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// Constant constructor.
    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

/// A body atom: `relation(term, …)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The relation name.
    pub relation: String,
    /// The positional terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Builds an atom.
    pub fn new(relation: impl Into<String>, terms: impl Into<Vec<Term>>) -> Atom {
        Atom {
            relation: relation.into(),
            terms: terms.into(),
        }
    }

    /// Variables appearing in the atom.
    pub fn variables(&self) -> impl Iterator<Item = &str> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }
}

/// A rule head: `relation(term[!], …) [@ Weight]`.
///
/// `keys[i]` is the paper's *underline* on position `i`. The invariant
/// maintained by constructors: constants are always key positions, and a
/// head with no explicit marking and no weight is fully keyed
/// (deterministic).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Head {
    /// The defined (IDB) relation.
    pub relation: String,
    /// The positional terms.
    pub terms: Vec<Term>,
    /// Which positions are key (underlined) — parallel to `terms`.
    pub keys: Vec<bool>,
    /// The weight variable of `@P`, if any.
    pub weight: Option<String>,
}

impl Head {
    /// A fully deterministic head (all positions key).
    pub fn deterministic(relation: impl Into<String>, terms: impl Into<Vec<Term>>) -> Head {
        let terms = terms.into();
        let keys = vec![true; terms.len()];
        Head {
            relation: relation.into(),
            terms,
            keys,
            weight: None,
        }
    }

    /// A probabilistic head with explicit key marking and optional weight.
    /// Constant positions are forced to key (they never vary within a
    /// group).
    pub fn probabilistic(
        relation: impl Into<String>,
        terms: impl Into<Vec<Term>>,
        mut keys: Vec<bool>,
        weight: Option<String>,
    ) -> Head {
        let terms = terms.into();
        assert_eq!(terms.len(), keys.len(), "keys must parallel terms");
        for (i, t) in terms.iter().enumerate() {
            if matches!(t, Term::Const(_)) {
                keys[i] = true;
            }
        }
        Head {
            relation: relation.into(),
            terms,
            keys,
            weight,
        }
    }

    /// Whether every position is key — i.e. the rule adds all derivable
    /// tuples like classical datalog.
    pub fn is_deterministic(&self) -> bool {
        self.keys.iter().all(|&k| k)
    }

    /// Whether this head survives a print → parse round trip. A
    /// probabilistic head with no `@` weight is recognizable only from
    /// its `!` marks, and the printer can place those only on keyed
    /// *variable* positions — so a weightless head whose keys all sit
    /// on constants (or nowhere) prints exactly like a deterministic
    /// head and cannot be expressed in the concrete syntax.
    pub fn is_renderable(&self) -> bool {
        self.is_deterministic()
            || self.weight.is_some()
            || self
                .terms
                .iter()
                .zip(&self.keys)
                .any(|(t, &k)| k && t.as_var().is_some())
    }

    /// The key-position variables, in order.
    pub fn key_vars(&self) -> Vec<&str> {
        self.terms
            .iter()
            .zip(&self.keys)
            .filter(|(_, &k)| k)
            .filter_map(|(t, _)| t.as_var())
            .collect()
    }

    /// Variables appearing in the head (including the weight variable).
    pub fn variables(&self) -> impl Iterator<Item = &str> + '_ {
        self.terms
            .iter()
            .filter_map(Term::as_var)
            .chain(self.weight.as_deref())
    }
}

/// A rule `head :- body.`; a fact is a rule with an empty body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    /// The head.
    pub head: Head,
    /// The positive body atoms (conjunction); empty for facts.
    pub body: Vec<Atom>,
    /// Negated body atoms (`not R(X, …)` in the concrete syntax) — an
    /// extension beyond the paper's positive programs, needed to express
    /// the while-language difference idiom (`C − Cold` of Example 3.5).
    /// Safety: every variable of a negated atom must be bound by the
    /// positive body.
    pub negatives: Vec<Atom>,
}

impl Rule {
    /// Builds a positive rule.
    pub fn new(head: Head, body: impl Into<Vec<Atom>>) -> Rule {
        Rule {
            head,
            body: body.into(),
            negatives: Vec::new(),
        }
    }

    /// Builds a rule with negated body atoms.
    pub fn with_negatives(
        head: Head,
        body: impl Into<Vec<Atom>>,
        negatives: impl Into<Vec<Atom>>,
    ) -> Rule {
        Rule {
            head,
            body: body.into(),
            negatives: negatives.into(),
        }
    }

    /// A ground fact.
    pub fn fact(relation: impl Into<String>, values: impl IntoIterator<Item = Value>) -> Rule {
        let terms: Vec<Term> = values.into_iter().map(Term::Const).collect();
        Rule::new(Head::deterministic(relation, terms), Vec::new())
    }

    /// Whether the rule has negated body atoms.
    pub fn has_negation(&self) -> bool {
        !self.negatives.is_empty()
    }

    /// Variables bound by the (positive) body.
    pub fn body_variables(&self) -> BTreeSet<&str> {
        self.body.iter().flat_map(Atom::variables).collect()
    }

    /// All distinct variables of the rule, in first-appearance order
    /// (body first) — the canonical valuation column order.
    pub fn all_variables(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for v in self
            .body
            .iter()
            .flat_map(Atom::variables)
            .chain(self.head.variables())
        {
            if seen.insert(v) {
                out.push(v.to_string());
            }
        }
        out
    }

    /// Range restriction: every head variable (and the weight variable),
    /// and every variable of a negated atom, must be bound by the
    /// positive body.
    pub fn check_safety(&self) -> Result<(), DatalogError> {
        let bound = self.body_variables();
        for v in self
            .head
            .variables()
            .chain(self.negatives.iter().flat_map(Atom::variables))
        {
            if !bound.contains(v) {
                return Err(DatalogError::UnsafeRule {
                    rule: self.to_string(),
                    variable: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Whether the rule fires deterministically (no repair-key choice).
    pub fn is_deterministic(&self) -> bool {
        self.head.is_deterministic()
    }
}

/// A datalog program: an ordered list of rules.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Builds a program, checking rule safety.
    pub fn new(rules: impl Into<Vec<Rule>>) -> Result<Program, DatalogError> {
        let program = Program {
            rules: rules.into(),
        };
        for r in &program.rules {
            r.check_safety()?;
        }
        Ok(program)
    }

    /// IDB relations: those defined by some rule head.
    pub fn idb_relations(&self) -> BTreeSet<&str> {
        self.rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect()
    }

    /// EDB relations: those read by bodies (positive or negated) but
    /// never defined.
    pub fn edb_relations(&self) -> BTreeSet<&str> {
        let idb = self.idb_relations();
        self.rules
            .iter()
            .flat_map(|r| r.body.iter().chain(r.negatives.iter()))
            .map(|a| a.relation.as_str())
            .filter(|r| !idb.contains(r))
            .collect()
    }

    /// Whether any rule uses negation.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(Rule::has_negation)
    }

    /// Whether any rule is probabilistic.
    pub fn is_probabilistic(&self) -> bool {
        self.rules.iter().any(|r| !r.is_deterministic())
    }

    /// Arity of each IDB relation (from heads); errors if two heads of
    /// the same relation disagree.
    pub fn idb_arities(&self) -> Result<Vec<(String, usize)>, DatalogError> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for r in &self.rules {
            let name = &r.head.relation;
            let arity = r.head.terms.len();
            match out.iter().find(|(n, _)| n == name) {
                Some((_, a)) if *a != arity => {
                    return Err(DatalogError::Structure(format!(
                        "relation {name:?} has heads of arity {a} and {arity}"
                    )));
                }
                Some(_) => {}
                None => out.push((name.clone(), arity)),
            }
        }
        out.sort();
        Ok(out)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            // An integral Ratio displays as a bare integer, which the
            // parser would read back as Value::Int — keep the `/den`
            // suffix so `parse(render(t)) == t` for every constant.
            Term::Const(Value::Ratio(r)) => write!(f, "{}/{}", r.numer(), r.denom()),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        // Suppress `!` marks only on genuinely deterministic heads (no
        // weight): a fully keyed head *with* a weight, e.g. `H(X!) @P`,
        // must keep its marks, or it would reparse with no key
        // positions — a different repair-key grouping.
        let implicit = self.is_deterministic() && self.weight.is_none();
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
            if self.keys[i] && !implicit && t.as_var().is_some() {
                write!(f, "!")?;
            }
        }
        write!(f, ")")?;
        if let Some(w) = &self.weight {
            write!(f, " @{w}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() || !self.negatives.is_empty() {
            write!(f, " :- ")?;
            let mut first = true;
            for a in &self.body {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{a}")?;
            }
            for a in &self.negatives {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "not {a}")?;
            }
        }
        write!(f, ".")
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reach_program() -> Program {
        // Example 3.9.
        Program::new(vec![
            Rule::fact("C", [Value::str("v")]),
            Rule::new(
                Head::probabilistic(
                    "C2",
                    vec![Term::var("X"), Term::var("Y")],
                    vec![true, false],
                    Some("P".into()),
                ),
                vec![
                    Atom::new("C", vec![Term::var("X")]),
                    Atom::new("E", vec![Term::var("X"), Term::var("Y"), Term::var("P")]),
                ],
            ),
            Rule::new(
                Head::deterministic("C", vec![Term::var("Y")]),
                vec![Atom::new("C2", vec![Term::var("X"), Term::var("Y")])],
            ),
        ])
        .unwrap()
    }

    #[test]
    fn idb_edb_split() {
        let p = reach_program();
        let idb: Vec<&str> = p.idb_relations().into_iter().collect();
        assert_eq!(idb, vec!["C", "C2"]);
        let edb: Vec<&str> = p.edb_relations().into_iter().collect();
        assert_eq!(edb, vec!["E"]);
        assert!(p.is_probabilistic());
    }

    #[test]
    fn determinism_flags() {
        let p = reach_program();
        assert!(p.rules[0].is_deterministic()); // fact
        assert!(!p.rules[1].is_deterministic()); // repair-key head
        assert!(p.rules[2].is_deterministic());
    }

    #[test]
    fn key_vars() {
        let p = reach_program();
        assert_eq!(p.rules[1].head.key_vars(), vec!["X"]);
        assert!(p.rules[1].head.weight.as_deref() == Some("P"));
    }

    #[test]
    fn safety_check() {
        let bad = Rule::new(
            Head::deterministic("H", vec![Term::var("Z")]),
            vec![Atom::new("R", vec![Term::var("X")])],
        );
        assert!(matches!(
            bad.check_safety(),
            Err(DatalogError::UnsafeRule { .. })
        ));
        // Weight variable must be bound too.
        let bad_w = Rule::new(
            Head::probabilistic("H", vec![Term::var("X")], vec![true], Some("P".into())),
            vec![Atom::new("R", vec![Term::var("X")])],
        );
        assert!(matches!(
            bad_w.check_safety(),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn constants_forced_to_key() {
        let h = Head::probabilistic(
            "H",
            vec![Term::val(1), Term::var("X")],
            vec![false, false],
            None,
        );
        assert!(h.keys[0]);
        assert!(!h.keys[1]);
    }

    #[test]
    fn arity_conflict_detected() {
        let p = Program::new(vec![
            Rule::fact("C", [Value::int(1)]),
            Rule::fact("C", [Value::int(1), Value::int(2)]),
        ])
        .unwrap();
        assert!(matches!(p.idb_arities(), Err(DatalogError::Structure(_))));
    }

    #[test]
    fn all_variables_order() {
        let p = reach_program();
        assert_eq!(p.rules[1].all_variables(), vec!["X", "Y", "P"]);
    }

    #[test]
    fn negation_safety_and_display() {
        // C − Cold as a rule: New(X) :- C(X), not Cold(X).
        let r = Rule::with_negatives(
            Head::deterministic("New", vec![Term::var("X")]),
            vec![Atom::new("C", vec![Term::var("X")])],
            vec![Atom::new("Cold", vec![Term::var("X")])],
        );
        r.check_safety().unwrap();
        assert!(r.has_negation());
        assert_eq!(r.to_string(), "New(X) :- C(X), not Cold(X).");
        // A negated atom with an unbound variable is unsafe.
        let bad = Rule::with_negatives(
            Head::deterministic("New", vec![Term::var("X")]),
            vec![Atom::new("C", vec![Term::var("X")])],
            vec![Atom::new("Cold", vec![Term::var("Z")])],
        );
        assert!(matches!(
            bad.check_safety(),
            Err(DatalogError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn negated_edb_detection() {
        let r = Rule::with_negatives(
            Head::deterministic("H", vec![Term::var("X")]),
            vec![Atom::new("A", vec![Term::var("X")])],
            vec![Atom::new("B", vec![Term::var("X")])],
        );
        let p = Program::new(vec![r]).unwrap();
        assert!(p.has_negation());
        let edb: Vec<&str> = p.edb_relations().into_iter().collect();
        assert_eq!(edb, vec!["A", "B"]);
    }

    #[test]
    fn display_roundtrip_shape() {
        let p = reach_program();
        let s = p.to_string();
        assert!(s.contains("C2(X!, Y) @P :- C(X), E(X, Y, P)."));
        assert!(s.contains("C(\"v\")."));
        assert!(s.contains("C(Y) :- C2(X, Y)."));
    }

    /// Regression: an integral Ratio constant used to render as a bare
    /// integer (`Ratio::new(2, 1)` → `2`), so re-parsing produced
    /// `Value::Int(2)` and `parse(render(ast)) != ast`.
    #[test]
    fn integral_ratio_constant_roundtrips() {
        let t = Term::val(Value::ratio(pfq_num::Ratio::new(2, 1)));
        assert_eq!(t.to_string(), "2/1");
        let rule = Rule::fact("F", [Value::ratio(pfq_num::Ratio::new(2, 1))]);
        let p = Program::new(vec![rule]).unwrap();
        let reparsed = crate::parse_program(&p.to_string()).unwrap();
        assert_eq!(reparsed, p);
    }

    /// Regression: a fully keyed head *with* a weight (`H(X!) @P`) used
    /// to print without its `!` marks, so re-parsing yielded
    /// `keys = [false]` — a different repair-key grouping.
    #[test]
    fn fully_keyed_weighted_head_roundtrips() {
        let r = Rule::new(
            Head::probabilistic("H", vec![Term::var("X")], vec![true], Some("P".into())),
            vec![Atom::new("R", vec![Term::var("X"), Term::var("P")])],
        );
        assert_eq!(r.to_string(), "H(X!) @P :- R(X, P).");
        let p = Program::new(vec![r]).unwrap();
        let reparsed = crate::parse_program(&p.to_string()).unwrap();
        assert_eq!(reparsed, p);
        // Whole-relation choice heads (no key vars) still print bare.
        let whole = crate::parse_program("H(X) @P :- R(X, P).").unwrap();
        assert_eq!(whole.to_string().trim(), "H(X) @P :- R(X, P).");
        assert_eq!(crate::parse_program(&whole.to_string()).unwrap(), whole);
    }

    /// A weightless probabilistic head with no keyed variable prints
    /// exactly like a deterministic head — `is_renderable` flags it so
    /// generators and shrinkers can avoid the unprintable corner.
    #[test]
    fn renderability_detects_the_unprintable_head() {
        let unprintable = Head::probabilistic("H", vec![Term::var("X")], vec![false], None);
        assert!(!unprintable.is_renderable());
        let weighted =
            Head::probabilistic("H", vec![Term::var("X")], vec![false], Some("P".into()));
        assert!(weighted.is_renderable());
        let marked = Head::probabilistic(
            "H",
            vec![Term::var("X"), Term::var("Y")],
            vec![true, false],
            None,
        );
        assert!(marked.is_renderable());
        assert!(Head::deterministic("H", vec![Term::var("X")]).is_renderable());
    }
}
