//! Named relation schemas.

use std::fmt;
use std::sync::Arc;

/// The schema of a relation: an ordered list of distinct column names.
///
/// Column names drive natural joins and `repair-key` key selection, so
/// schemas are first-class and checked at every algebra operation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Schema {
    columns: Arc<[String]>,
}

impl Schema {
    /// Builds a schema; panics on duplicate column names (a schema built
    /// in code with duplicates is a construction bug). Column lists that
    /// come from user input go through [`try_new`](Self::try_new).
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Schema {
        Schema::try_new(columns).unwrap_or_else(|c| panic!("duplicate column name {c:?} in schema"))
    }

    /// Builds a schema, or returns the first column name that repeats.
    pub fn try_new<S: Into<String>>(
        columns: impl IntoIterator<Item = S>,
    ) -> Result<Schema, String> {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].contains(c) {
                return Err(c.clone());
            }
        }
        Ok(Schema {
            columns: columns.into(),
        })
    }

    /// The 0-ary schema (for boolean/flag relations).
    pub fn empty() -> Schema {
        Schema::new(Vec::<String>::new())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Name of column `i`.
    pub fn column(&self, i: usize) -> &str {
        &self.columns[i]
    }

    /// Index of the column named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Indices of several columns; `Err` names the first missing one.
    pub fn indices_of(&self, names: &[impl AsRef<str>]) -> Result<Vec<usize>, String> {
        names
            .iter()
            .map(|n| {
                self.index_of(n.as_ref())
                    .ok_or_else(|| format!("no column {:?} in schema {self}", n.as_ref()))
            })
            .collect()
    }

    /// Whether a column named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Columns shared with `other` (in `self`'s order) — the natural-join
    /// columns.
    pub fn common_columns(&self, other: &Schema) -> Vec<String> {
        self.columns
            .iter()
            .filter(|c| other.contains(c))
            .cloned()
            .collect()
    }

    /// Schema of the natural join `self ⋈ other`: all of `self`'s columns
    /// followed by `other`'s non-shared columns.
    pub fn join_schema(&self, other: &Schema) -> Schema {
        let mut cols: Vec<String> = self.columns.to_vec();
        cols.extend(other.columns.iter().filter(|c| !self.contains(c)).cloned());
        Schema::new(cols)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let s = Schema::new(["i", "j", "p"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(1), "j");
        assert_eq!(s.index_of("p"), Some(2));
        assert_eq!(s.index_of("q"), None);
        assert!(s.contains("i"));
        assert_eq!(Schema::empty().arity(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Schema::new(["a", "a"]);
    }

    #[test]
    fn try_new_names_the_first_repeated_column() {
        assert_eq!(Schema::try_new(["a", "b", "b", "a"]), Err("b".to_string()));
        assert_eq!(Schema::try_new(["a", "b"]), Ok(Schema::new(["a", "b"])));
    }

    #[test]
    fn indices_of() {
        let s = Schema::new(["a", "b", "c"]);
        assert_eq!(s.indices_of(&["c", "a"]).unwrap(), vec![2, 0]);
        assert!(s.indices_of(&["z"]).is_err());
    }

    #[test]
    fn join_schemas() {
        let a = Schema::new(["i", "j"]);
        let b = Schema::new(["j", "k"]);
        assert_eq!(a.common_columns(&b), vec!["j".to_string()]);
        assert_eq!(a.join_schema(&b), Schema::new(["i", "j", "k"]));
        // Disjoint schemas: join is the product.
        let c = Schema::new(["x"]);
        assert_eq!(a.common_columns(&c), Vec::<String>::new());
        assert_eq!(a.join_schema(&c), Schema::new(["i", "j", "x"]));
    }

    #[test]
    fn display() {
        assert_eq!(Schema::new(["a", "b"]).to_string(), "(a, b)");
        assert_eq!(Schema::empty().to_string(), "()");
    }
}
