//! Errors raised by algebra construction and evaluation.

use std::fmt;

/// An error from building or evaluating an algebra expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AlgebraError {
    /// The expression refers to a relation the database does not have.
    MissingRelation(String),
    /// A projection/selection/key refers to a column the input lacks.
    MissingColumn {
        /// The missing column name.
        column: String,
        /// The schema it was looked up in (rendered).
        schema: String,
    },
    /// Two operands of a set operation have different schemas, or a
    /// product's operands share column names.
    SchemaMismatch {
        /// Which operation detected the mismatch.
        context: &'static str,
        /// The left operand's schema (rendered).
        left: String,
        /// The right operand's schema (rendered).
        right: String,
    },
    /// A projection or renaming would give its result two columns of the
    /// same name.
    DuplicateColumn {
        /// The repeated column name.
        column: String,
        /// Which operation produced it.
        context: &'static str,
    },
    /// A `repair-key` weight was non-numeric or not strictly positive.
    BadWeight(String),
    /// `repair-key` appeared where only deterministic algebra is allowed.
    RepairKeyNotAllowed,
    /// Exact world enumeration exceeded the configured limit.
    WorldLimitExceeded {
        /// The configured world-count limit.
        limit: usize,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::MissingRelation(name) => {
                write!(f, "no relation named {name:?}")
            }
            AlgebraError::MissingColumn { column, schema } => {
                write!(f, "no column {column:?} in schema {schema}")
            }
            AlgebraError::SchemaMismatch {
                context,
                left,
                right,
            } => {
                write!(f, "schema mismatch in {context}: {left} vs {right}")
            }
            AlgebraError::DuplicateColumn { column, context } => {
                write!(f, "duplicate column {column:?} in {context} result")
            }
            AlgebraError::BadWeight(msg) => write!(f, "bad repair-key weight: {msg}"),
            AlgebraError::RepairKeyNotAllowed => {
                write!(f, "repair-key is not allowed in a deterministic context")
            }
            AlgebraError::WorldLimitExceeded { limit } => {
                write!(
                    f,
                    "possible-world enumeration exceeded the limit of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for AlgebraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            AlgebraError::MissingRelation("E".into()).to_string(),
            "no relation named \"E\""
        );
        assert!(AlgebraError::MissingColumn {
            column: "p".into(),
            schema: "(i, j)".into()
        }
        .to_string()
        .contains("no column \"p\""));
        assert!(AlgebraError::WorldLimitExceeded { limit: 10 }
            .to_string()
            .contains("10"));
    }
}
