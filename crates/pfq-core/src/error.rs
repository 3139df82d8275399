//! The unified error type of the query-evaluation layer.

use pfq_algebra::AlgebraError;
use pfq_ctable::CtableError;
use pfq_datalog::DatalogError;
use pfq_markov::chain::ChainError;
use std::fmt;

/// An error from query evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoreError {
    /// From the relational-algebra layer.
    Algebra(AlgebraError),
    /// From the datalog layer.
    Datalog(DatalogError),
    /// From the Markov-chain layer.
    Chain(ChainError),
    /// From the pc-table layer.
    Ctable(CtableError),
    /// From stationary/absorption analysis.
    Analysis(String),
    /// Invalid evaluation parameters (ε, δ, budgets).
    BadParameter(String),
    /// A query event the start database cannot answer: it reads an
    /// unknown relation, or a tuple of the wrong arity.
    BadEvent(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Algebra(e) => write!(f, "{e}"),
            CoreError::Datalog(e) => write!(f, "{e}"),
            CoreError::Chain(e) => write!(f, "{e}"),
            CoreError::Ctable(e) => write!(f, "{e}"),
            CoreError::Analysis(msg) => write!(f, "{msg}"),
            CoreError::BadParameter(msg) => write!(f, "invalid parameter: {msg}"),
            CoreError::BadEvent(msg) => write!(f, "bad event: {msg}"),
        }
    }
}

impl CoreError {
    /// Whether this is a budget exhaustion (an exact path over its node,
    /// state or world budget) rather than a structural error: the planner
    /// falls back to sampling on it, and the fuzzer counts it as a skip.
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(
            self,
            CoreError::Datalog(DatalogError::BudgetExceeded { .. })
                | CoreError::Chain(ChainError::StateLimitExceeded { .. })
                | CoreError::Algebra(AlgebraError::WorldLimitExceeded { .. })
        )
    }
}

impl std::error::Error for CoreError {}

impl From<AlgebraError> for CoreError {
    fn from(e: AlgebraError) -> Self {
        CoreError::Algebra(e)
    }
}

impl From<DatalogError> for CoreError {
    fn from(e: DatalogError) -> Self {
        CoreError::Datalog(e)
    }
}

impl From<ChainError> for CoreError {
    fn from(e: ChainError) -> Self {
        CoreError::Chain(e)
    }
}

impl From<CtableError> for CoreError {
    fn from(e: CtableError) -> Self {
        CoreError::Ctable(e)
    }
}

impl From<pfq_markov::absorption::AbsorptionError> for CoreError {
    fn from(e: pfq_markov::absorption::AbsorptionError) -> Self {
        CoreError::Analysis(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = AlgebraError::MissingRelation("E".into()).into();
        assert!(e.to_string().contains("\"E\""));
        let e: CoreError = DatalogError::UnknownRelation("R".into()).into();
        assert!(matches!(e, CoreError::Datalog(_)));
        let e: CoreError = ChainError::StateLimitExceeded { limit: 5 }.into();
        assert!(e.to_string().contains('5'));
    }
}
