//! Probabilistic first-order interpretations (paper Definition 3.1).
//!
//! An [`Interpretation`] assigns to (some) relations of a schema a kernel
//! expression; applying it to a database evaluates *all* kernels against
//! the *old* state (“rules fire in parallel”) and replaces each target
//! relation with its kernel's result. Relations without a kernel are
//! carried over unchanged — the paper writes these as explicit identity
//! kernels (`E := E  % unchanged`).

use crate::{AlgebraError, CompiledKernel, Expr};
use pfq_data::Database;
use pfq_num::Distribution;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A probabilistic transition kernel between database instances: a tuple
/// of queries `(Q_1, …, Q_k)`, one per (re)defined relation.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Interpretation {
    kernels: BTreeMap<String, Expr>,
}

impl Interpretation {
    /// The empty interpretation (identity on every relation).
    pub fn new() -> Interpretation {
        Interpretation::default()
    }

    /// Adds/overrides the kernel for `relation`.
    pub fn define(&mut self, relation: impl Into<String>, kernel: Expr) -> &mut Self {
        self.kernels.insert(relation.into(), kernel);
        self
    }

    /// Builder-style [`define`](Self::define).
    pub fn with(mut self, relation: impl Into<String>, kernel: Expr) -> Interpretation {
        self.define(relation, kernel);
        self
    }

    /// The kernel for `relation`, if one is defined.
    pub fn kernel(&self, relation: &str) -> Option<&Expr> {
        self.kernels.get(relation)
    }

    /// Iterates `(relation, kernel)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Expr)> + '_ {
        self.kernels.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Whether any kernel contains `repair-key`.
    pub fn is_probabilistic(&self) -> bool {
        self.kernels.values().any(Expr::is_probabilistic)
    }

    /// Exactly enumerates the distribution of successor databases of `db`.
    ///
    /// Kernels are independent (Definition 3.1: the world probability is
    /// the *product* over the per-relation results), so the successor
    /// distribution is the product distribution over per-kernel worlds.
    /// A one-off step: compiles a [`CompiledKernel`] and builds each
    /// successor database; chain builders compile once and step over
    /// target-only states instead.
    pub fn enumerate_step(
        &self,
        db: &Database,
        limit: Option<usize>,
    ) -> Result<Distribution<Database>, AlgebraError> {
        let kernel = CompiledKernel::new(self, db)?;
        let next = kernel.enumerate(&kernel.targets_of(db), limit)?;
        Ok(next.map(|state| kernel.with_targets(db, state)))
    }

    /// Samples one successor database of `db` (a one-off
    /// [`CompiledKernel`] step).
    pub fn sample_step<R: Rng + ?Sized>(
        &self,
        db: &Database,
        rng: &mut R,
    ) -> Result<Database, AlgebraError> {
        let kernel = CompiledKernel::new(self, db)?;
        let next = kernel.sample(&kernel.targets_of(db), rng)?;
        Ok(kernel.with_targets(db, next))
    }

    /// Derives the inflationary version: each kernel `Q_i` becomes
    /// `R_i ∪ Q_i`, so every possible world of a step is a superset of the
    /// old state (Definition 3.4).
    pub fn inflationary(self) -> Interpretation {
        let kernels = self
            .kernels
            .into_iter()
            .map(|(name, kernel)| {
                let wrapped = Expr::rel(name.clone()).union(kernel);
                (name, wrapped)
            })
            .collect();
        Interpretation { kernels }
    }
}

impl fmt::Display for Interpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, kernel) in &self.kernels {
            writeln!(f, "{name} := {kernel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pred;
    use pfq_data::{tuple, Relation, Schema, Value};
    use pfq_num::Ratio;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn walk_db() -> Database {
        let e = Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [
                tuple![1, 2, Value::frac(1, 2)],
                tuple![1, 3, Value::frac(1, 2)],
                tuple![2, 1, 1],
                tuple![3, 1, 1],
            ],
        );
        let c = Relation::from_rows(Schema::new(["i"]), [tuple![1]]);
        Database::new().with("E", e).with("C", c)
    }

    fn walk_interp() -> Interpretation {
        Interpretation::new().with(
            "C",
            Expr::rel("C")
                .join(Expr::rel("E"))
                .repair_key(["i"], Some("p"))
                .project(["j"])
                .rename([("j", "i")]),
        )
    }

    #[test]
    fn step_distribution_of_random_walk() {
        let db = walk_db();
        let succ = walk_interp().enumerate_step(&db, None).unwrap();
        assert!(succ.is_proper());
        assert_eq!(succ.support_size(), 2);
        // E unchanged, C moved to {2} or {3}, each with probability 1/2.
        for (next, p) in succ.iter() {
            assert_eq!(next.get("E"), db.get("E"));
            assert_eq!(next.get("C").unwrap().len(), 1);
            assert_eq!(p, &Ratio::new(1, 2));
        }
    }

    #[test]
    fn parallel_firing_reads_old_state() {
        // Cold := C; C := C ∪ σ_false(C). Cold must get the *old* C even
        // though C's kernel also runs in the same step.
        let db = Database::new()
            .with("C", Relation::from_rows(Schema::new(["i"]), [tuple![1]]))
            .with("Cold", Relation::empty(Schema::new(["i"])));
        let interp = Interpretation::new()
            .with("Cold", Expr::rel("C"))
            .with("C", Expr::rel("C").select(Pred::True.not()));
        let succ = interp.enumerate_step(&db, None).unwrap();
        assert_eq!(succ.support_size(), 1);
        let (next, _) = succ.iter().next().unwrap();
        assert_eq!(next.get("Cold").unwrap().len(), 1); // got old C
        assert!(next.get("C").unwrap().is_empty());
    }

    #[test]
    fn unkerneled_relations_are_identity() {
        let db = walk_db();
        let succ = walk_interp().enumerate_step(&db, None).unwrap();
        for (next, _) in succ.iter() {
            assert_eq!(next.get("E"), db.get("E"));
        }
    }

    #[test]
    fn independent_kernels_multiply() {
        // Two independent coins → 4 worlds, each 1/4.
        let coin = Relation::from_rows(Schema::new(["k", "v"]), [tuple![0, 0], tuple![0, 1]]);
        let db = Database::new()
            .with("A", coin.clone())
            .with("B", coin.clone());
        let interp = Interpretation::new()
            .with("A", Expr::rel("A").repair_key(["k"], None))
            .with("B", Expr::rel("B").repair_key(["k"], None));
        let succ = interp.enumerate_step(&db, None).unwrap();
        assert!(succ.is_proper());
        assert_eq!(succ.support_size(), 4);
        for (_, p) in succ.iter() {
            assert_eq!(p, &Ratio::new(1, 4));
        }
    }

    #[test]
    fn sample_step_only_changes_kerneled_relations() {
        let db = walk_db();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let next = walk_interp().sample_step(&db, &mut rng).unwrap();
        assert_eq!(next.get("E"), db.get("E"));
        assert_eq!(next.get("C").unwrap().len(), 1);
    }

    #[test]
    fn inflationary_wrapper_makes_supersets() {
        let db = walk_db();
        let infl = walk_interp().inflationary();
        let succ = infl.enumerate_step(&db, None).unwrap();
        for (next, _) in succ.iter() {
            assert!(next.is_superset(&db));
            assert_eq!(next.get("C").unwrap().len(), 2); // {1} ∪ {next}
        }
    }

    #[test]
    fn display_lists_kernels() {
        let s = walk_interp().to_string();
        assert!(s.starts_with("C := "));
        assert!(s.contains("repair-key"));
    }
}
