//! The algebra expression AST.

use crate::Pred;
use pfq_data::Relation;
use std::fmt;

/// A relational-algebra expression, optionally containing `repair-key`.
///
/// Expressions are built with the fluent constructors below, e.g. the
/// random-walk kernel of paper Example 3.3:
///
/// ```
/// use pfq_algebra::Expr;
/// // ρ_I(π_J(repair-key_{I@P}(C ⋈ E)))
/// let kernel = Expr::rel("C")
///     .join(Expr::rel("E"))
///     .repair_key(["i"], Some("p"))
///     .project(["j"])
///     .rename([("j", "i")]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A named base relation.
    Rel(String),
    /// An inline constant relation.
    Const(Relation),
    /// Selection σ_pred.
    Select(Pred, Box<Expr>),
    /// Projection π onto named columns (order matters).
    Project(Vec<String>, Box<Expr>),
    /// Renaming ρ with `(old, new)` pairs.
    Rename(Vec<(String, String)>, Box<Expr>),
    /// Natural join ⋈ on shared column names.
    Join(Box<Expr>, Box<Expr>),
    /// Cartesian product × (schemas must be disjoint).
    Product(Box<Expr>, Box<Expr>),
    /// Set union ∪ (schemas must match).
    Union(Box<Expr>, Box<Expr>),
    /// Set difference − (schemas must match).
    Difference(Box<Expr>, Box<Expr>),
    /// `let name = value in body`: evaluates `value` once (one world),
    /// binds it as a temporary relation named `name`, and evaluates
    /// `body` with that binding in scope. The one-world evaluation is
    /// the point: mentioning `name` twice in `body` *shares* a single
    /// probabilistic outcome, whereas repeating a `repair-key`
    /// subexpression would sample it independently each time.
    Let {
        /// The temporary relation name bound in `body`.
        name: String,
        /// The expression evaluated once.
        value: Box<Expr>,
        /// The expression evaluated with `name` bound.
        body: Box<Expr>,
    },
    /// `repair-key key⃗@weight(input)` — the probabilistic operator.
    /// `weight: None` means the uniform variant `repair-key key⃗(input)`.
    RepairKey {
        /// Key columns Ā; the empty vector groups the whole relation
        /// (the paper's `repair-key∅@P`, choosing a single tuple).
        key: Vec<String>,
        /// The weight column P, or `None` for uniform weighting.
        weight: Option<String>,
        /// The expression whose result is repaired.
        input: Box<Expr>,
    },
}

impl Expr {
    /// Reference to the base relation `name`.
    pub fn rel(name: impl Into<String>) -> Expr {
        Expr::Rel(name.into())
    }

    /// An inline constant relation.
    pub fn constant(rel: Relation) -> Expr {
        Expr::Const(rel)
    }

    /// σ_pred(self).
    pub fn select(self, pred: Pred) -> Expr {
        Expr::Select(pred, Box::new(self))
    }

    /// π_cols(self).
    pub fn project<S: Into<String>>(self, cols: impl IntoIterator<Item = S>) -> Expr {
        Expr::Project(cols.into_iter().map(Into::into).collect(), Box::new(self))
    }

    /// ρ with `(old, new)` name pairs.
    pub fn rename<A: Into<String>, B: Into<String>>(
        self,
        pairs: impl IntoIterator<Item = (A, B)>,
    ) -> Expr {
        Expr::Rename(
            pairs
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
            Box::new(self),
        )
    }

    /// self ⋈ other (natural join).
    pub fn join(self, other: Expr) -> Expr {
        Expr::Join(Box::new(self), Box::new(other))
    }

    /// self × other.
    pub fn product(self, other: Expr) -> Expr {
        Expr::Product(Box::new(self), Box::new(other))
    }

    /// self ∪ other.
    pub fn union(self, other: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(other))
    }

    /// self − other.
    pub fn difference(self, other: Expr) -> Expr {
        Expr::Difference(Box::new(self), Box::new(other))
    }

    /// `let name = self in body`.
    pub fn bind(self, name: impl Into<String>, body: Expr) -> Expr {
        Expr::Let {
            name: name.into(),
            value: Box::new(self),
            body: Box::new(body),
        }
    }

    /// `repair-key key⃗@weight(self)`.
    pub fn repair_key<S: Into<String>>(
        self,
        key: impl IntoIterator<Item = S>,
        weight: Option<&str>,
    ) -> Expr {
        Expr::RepairKey {
            key: key.into_iter().map(Into::into).collect(),
            weight: weight.map(str::to_string),
            input: Box::new(self),
        }
    }

    /// Whether the expression contains any `repair-key` (i.e. is
    /// genuinely probabilistic).
    pub fn is_probabilistic(&self) -> bool {
        match self {
            Expr::Rel(_) | Expr::Const(_) => false,
            Expr::RepairKey { .. } => true,
            Expr::Let { value, body, .. } => value.is_probabilistic() || body.is_probabilistic(),
            Expr::Select(_, e) | Expr::Project(_, e) | Expr::Rename(_, e) => e.is_probabilistic(),
            Expr::Join(a, b) | Expr::Product(a, b) | Expr::Union(a, b) | Expr::Difference(a, b) => {
                a.is_probabilistic() || b.is_probabilistic()
            }
        }
    }

    /// Names of all base relations the expression reads.
    pub fn input_relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_inputs(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_inputs(&self, out: &mut Vec<String>) {
        match self {
            Expr::Rel(name) => out.push(name.clone()),
            Expr::Const(_) => {}
            Expr::Select(_, e) | Expr::Project(_, e) | Expr::Rename(_, e) => e.collect_inputs(out),
            Expr::Join(a, b) | Expr::Product(a, b) | Expr::Union(a, b) | Expr::Difference(a, b) => {
                a.collect_inputs(out);
                b.collect_inputs(out);
            }
            Expr::RepairKey { input, .. } => input.collect_inputs(out),
            Expr::Let { name, value, body } => {
                value.collect_inputs(out);
                let mut inner = Vec::new();
                body.collect_inputs(&mut inner);
                // The binding shadows any base relation of the same name.
                out.extend(inner.into_iter().filter(|r| r != name));
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Rel(name) => write!(f, "{name}"),
            Expr::Const(rel) => write!(f, "const{rel}"),
            Expr::Select(p, e) => write!(f, "select[{p}]({e})"),
            Expr::Project(cols, e) => write!(f, "project[{}]({e})", cols.join(", ")),
            Expr::Rename(pairs, e) => {
                let body: Vec<String> = pairs.iter().map(|(a, b)| format!("{a}->{b}")).collect();
                write!(f, "rename[{}]({e})", body.join(", "))
            }
            Expr::Join(a, b) => write!(f, "({a} join {b})"),
            Expr::Product(a, b) => write!(f, "({a} x {b})"),
            Expr::Union(a, b) => write!(f, "({a} union {b})"),
            Expr::Difference(a, b) => write!(f, "({a} - {b})"),
            Expr::RepairKey { key, weight, input } => {
                write!(f, "repair-key[{}", key.join(", "))?;
                if let Some(w) = weight {
                    write!(f, " @ {w}")?;
                }
                write!(f, "]({input})")
            }
            Expr::Let { name, value, body } => {
                write!(f, "let {name} = ({value}) in ({body})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilistic_detection() {
        assert!(!Expr::rel("E").is_probabilistic());
        assert!(Expr::rel("E").repair_key(["i"], None).is_probabilistic());
        assert!(Expr::rel("C")
            .join(Expr::rel("E").repair_key(["i"], None))
            .is_probabilistic());
    }

    #[test]
    fn input_relations() {
        let e = Expr::rel("C")
            .join(Expr::rel("E"))
            .union(Expr::rel("C").join(Expr::rel("E")));
        assert_eq!(e.input_relations(), vec!["C".to_string(), "E".to_string()]);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"));
        assert_eq!(e.to_string(), "repair-key[i @ p]((C join E))");
    }
}
