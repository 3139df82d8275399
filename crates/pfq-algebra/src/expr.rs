//! The algebra expression AST and static schema inference.

use crate::{AlgebraError, Pred};
use pfq_data::{Database, Relation, Schema};
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

    /// Infers the output schema against the given database, checking all
    /// column references and schema compatibility statically.
    pub fn schema(&self, db: &Database) -> Result<Schema, AlgebraError> {
        self.schema_in(db, &mut Vec::new())
    }

    /// [`schema`](Self::schema) under the `let` bindings in `scope`
    /// (innermost last).
    fn schema_in(
        &self,
        db: &Database,
        scope: &mut Vec<(String, Schema)>,
    ) -> Result<Schema, AlgebraError> {
        match self {
            Expr::Rel(name) => match scope.iter().rev().find(|(n, _)| n == name) {
                Some((_, schema)) => Ok(schema.clone()),
                None => db
                    .get(name)
                    .map(|r| r.schema().clone())
                    .ok_or_else(|| AlgebraError::MissingRelation(name.clone())),
            },
            Expr::Const(rel) => Ok(rel.schema().clone()),
            Expr::Select(_, e) => e.schema_in(db, scope),
            Expr::Project(cols, e) => {
                let s = e.schema_in(db, scope)?;
                for c in cols {
                    if !s.contains(c) {
                        return Err(AlgebraError::MissingColumn {
                            column: c.clone(),
                            schema: s.to_string(),
                        });
                    }
                }
                Ok(Schema::new(cols.clone()))
            }
            Expr::Rename(pairs, e) => renamed(&e.schema_in(db, scope)?, pairs),
            Expr::Join(a, b) => {
                let (sa, sb) = (a.schema_in(db, scope)?, b.schema_in(db, scope)?);
                Ok(sa.join_schema(&sb))
            }
            Expr::Product(a, b) => {
                let (sa, sb) = (a.schema_in(db, scope)?, b.schema_in(db, scope)?);
                if !sa.common_columns(&sb).is_empty() {
                    return Err(AlgebraError::SchemaMismatch {
                        context: "product (operands share columns)",
                        left: sa.to_string(),
                        right: sb.to_string(),
                    });
                }
                Ok(sa.join_schema(&sb))
            }
            Expr::Union(a, b) | Expr::Difference(a, b) => {
                let (sa, sb) = (a.schema_in(db, scope)?, b.schema_in(db, scope)?);
                if sa != sb {
                    return Err(AlgebraError::SchemaMismatch {
                        context: "set operation",
                        left: sa.to_string(),
                        right: sb.to_string(),
                    });
                }
                Ok(sa)
            }
            Expr::RepairKey { key, weight, input } => {
                let s = input.schema_in(db, scope)?;
                for c in key.iter().chain(weight.iter()) {
                    if !s.contains(c) {
                        return Err(AlgebraError::MissingColumn {
                            column: c.clone(),
                            schema: s.to_string(),
                        });
                    }
                }
                Ok(s)
            }
            Expr::Let { name, value, body } => {
                let vs = value.schema_in(db, scope)?;
                scope.push((name.clone(), vs));
                let out = body.schema_in(db, scope);
                scope.pop();
                out
            }
        }
    }
}

/// The schema `rename[pairs]` gives a relation of `schema`; every old
/// column must exist.
pub(crate) fn renamed(schema: &Schema, pairs: &[(String, String)]) -> Result<Schema, AlgebraError> {
    for (old, _) in pairs {
        if !schema.contains(old) {
            return Err(AlgebraError::MissingColumn {
                column: old.clone(),
                schema: schema.to_string(),
            });
        }
    }
    Ok(Schema::new(schema.columns().iter().map(|c| {
        pairs
            .iter()
            .find(|(old, _)| old == c)
            .map(|(_, new)| new.clone())
            .unwrap_or_else(|| c.clone())
    })))
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
    use pfq_data::tuple;

    fn db() -> Database {
        let e = Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [tuple![1, 2, 1], tuple![2, 1, 1]],
        );
        let c = Relation::from_rows(Schema::new(["i"]), [tuple![1]]);
        Database::new().with("E", e).with("C", c)
    }

    #[test]
    fn schema_inference_chain() {
        let db = db();
        let e = Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")]);
        assert_eq!(e.schema(&db).unwrap(), Schema::new(["i"]));
    }

    #[test]
    fn schema_errors() {
        let db = db();
        assert!(matches!(
            Expr::rel("Z").schema(&db),
            Err(AlgebraError::MissingRelation(_))
        ));
        assert!(matches!(
            Expr::rel("E").project(["zz"]).schema(&db),
            Err(AlgebraError::MissingColumn { .. })
        ));
        assert!(matches!(
            Expr::rel("E").union(Expr::rel("C")).schema(&db),
            Err(AlgebraError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            Expr::rel("E").product(Expr::rel("C")).schema(&db),
            Err(AlgebraError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            Expr::rel("E").repair_key(["zz"], None).schema(&db),
            Err(AlgebraError::MissingColumn { .. })
        ));
    }

    #[test]
    fn join_vs_product_schema() {
        let db = db();
        let j = Expr::rel("C").join(Expr::rel("E"));
        assert_eq!(j.schema(&db).unwrap(), Schema::new(["i", "j", "p"]));
        let renamed = Expr::rel("C").rename([("i", "x")]);
        let p = renamed.product(Expr::rel("C"));
        assert_eq!(p.schema(&db).unwrap(), Schema::new(["x", "i"]));
    }

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
