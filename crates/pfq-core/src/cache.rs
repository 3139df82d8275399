//! Shared evaluation caches for the exact evaluators.
//!
//! One [`EvalCache`] holds every memo the exact engines use: the
//! inflationary engine's [`FixpointMemo`] (interned computation-tree
//! nodes, successor rows, whole-tree results) and the non-inflationary
//! engine's [`ChainCache`] (interned chain states plus kernel rows).
//! All entries are keyed by `(fingerprint, StateId)` over *immutable*
//! values, so there is no invalidation story: a cache can be shared
//! across queries, across the possible worlds of a pc-table, and across
//! repeated evaluations for the lifetime of a process.
//!
//! This memoized path is the only one the engine runs. The un-memoized
//! `enumerate_fixpoints` and the fuzzer's `Database`-keyed reference
//! chain stay as oracles; `tests/memo_consistency.rs` pins the engine to
//! bit-identical results against them.

use pfq_algebra::CompiledKernel;
use pfq_data::intern::{database_approx_bytes, relation_approx_bytes, Interner, TransitionCache};
use pfq_data::{Database, Relation, StateId};
use pfq_datalog::inflationary::FixpointMemo;
use pfq_num::Ratio;
use std::fmt;
use std::sync::Arc;

/// A memoized kernel row: the successor states (interned) with their
/// exact one-step probabilities.
pub(crate) type KernelRow = Arc<Vec<(StateId, Ratio)>>;

/// A non-inflationary chain state: the id of its start database's
/// unchanging part (every relation the kernel does not write) and the
/// relations the kernel writes, in kernel-name order.
///
/// The non-target relations are equal along a chain, so two states are
/// equal exactly when the databases they stand for are.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ChainState {
    pub(crate) base: StateId,
    pub(crate) targets: Vec<Relation>,
}

/// Memo state of the non-inflationary engine: chain states interned to
/// dense [`StateId`]s, the bases they share, and kernel rows cached per
/// `(kernel fingerprint, StateId)`.
pub struct ChainCache {
    /// Each distinct start database's non-target relations, once.
    pub(crate) bases: Interner<Database>,
    pub(crate) states: Interner<ChainState>,
    pub(crate) steps: TransitionCache<KernelRow>,
}

impl ChainCache {
    /// An empty chain cache.
    pub fn new() -> ChainCache {
        ChainCache {
            bases: Interner::with_sizer(database_approx_bytes),
            states: Interner::with_sizer(|s: &ChainState| {
                s.targets.iter().map(relation_approx_bytes).sum()
            }),
            steps: TransitionCache::new(),
        }
    }

    /// Interns the state `db` is in under `kernel`, compiled against it.
    pub(crate) fn intern_start(&mut self, kernel: &CompiledKernel, db: &Database) -> StateId {
        let mut base = Database::new();
        for (name, rel) in db.iter() {
            if !kernel.targets().iter().any(|t| t == name) {
                base.set(name, rel.clone());
            }
        }
        let base = self.bases.intern(base);
        self.states.intern(ChainState {
            base,
            targets: kernel.targets_of(db),
        })
    }

    /// The relation `name` of state `id`, under a kernel writing
    /// `targets`: targets first, then the base.
    pub(crate) fn relation<'c>(
        &'c self,
        targets: &[&str],
        id: StateId,
        name: &str,
    ) -> Option<&'c Relation> {
        let state = self.states.resolve(id);
        match targets.iter().position(|&t| t == name) {
            Some(i) => Some(&state.targets[i]),
            None => self.bases.resolve(state.base).get(name),
        }
    }

    /// The database state `id` stands for, under a kernel writing
    /// `targets`.
    #[cfg(test)]
    pub(crate) fn database(&self, targets: &[&str], id: StateId) -> Database {
        let state = self.states.resolve(id);
        let mut db = (**self.bases.resolve(state.base)).clone();
        for (name, rel) in targets.iter().zip(&state.targets) {
            db.set(*name, rel.clone());
        }
        db
    }

    /// Distinct chain states interned so far (bases not counted).
    pub fn states(&self) -> usize {
        self.states.len()
    }

    /// Estimated logical bytes of the interned states and bases.
    pub fn approx_bytes(&self) -> usize {
        self.states.approx_bytes() + self.bases.approx_bytes()
    }
}

impl Default for ChainCache {
    fn default() -> Self {
        ChainCache::new()
    }
}

/// The combined cache threaded through the exact evaluators.
pub struct EvalCache {
    pub(crate) fixpoints: FixpointMemo,
    pub(crate) chain: ChainCache,
}

impl EvalCache {
    /// A fresh, empty cache.
    pub fn new() -> EvalCache {
        EvalCache {
            fixpoints: FixpointMemo::new(),
            chain: ChainCache::new(),
        }
    }

    /// A snapshot of every counter, suitable for `--stats` reporting.
    pub fn stats(&self) -> CacheStats {
        let fx = self.fixpoints.stats();
        CacheStats {
            engine_states: fx.states,
            db_states: self.chain.states(),
            approx_bytes: fx.approx_bytes + self.chain.approx_bytes(),
            step_hits: fx.step_hits,
            step_misses: fx.step_misses,
            result_hits: fx.result_hits,
            result_misses: fx.result_misses,
            kernel_hits: self.chain.steps.hits(),
            kernel_misses: self.chain.steps.misses(),
        }
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

/// Counters exposed by [`EvalCache::stats`]. Every field is
/// deterministic for a fixed input — no wall times — so rendered stats
/// are byte-stable and golden-testable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Distinct inflationary computation-tree nodes interned.
    pub engine_states: usize,
    /// Distinct non-inflationary chain states interned by the chain
    /// builder (each one database instance).
    pub db_states: usize,
    /// Estimated logical bytes across both interners.
    pub approx_bytes: usize,
    /// Inflationary successor-row lookups served from the memo.
    pub step_hits: u64,
    /// Inflationary successor-row lookups that evaluated the rules.
    pub step_misses: u64,
    /// Whole-tree result lookups served from the memo.
    pub result_hits: u64,
    /// Whole-tree result lookups that traversed the tree.
    pub result_misses: u64,
    /// Kernel-row lookups served from the memo (non-inflationary).
    pub kernel_hits: u64,
    /// Kernel-row lookups that evaluated the kernel.
    pub kernel_misses: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "states {} engine + {} db ({} B); steps {} hit / {} miss; \
             results {} hit / {} miss; kernel rows {} hit / {} miss",
            self.engine_states,
            self.db_states,
            self.approx_bytes,
            self.step_hits,
            self.step_misses,
            self.result_hits,
            self.result_misses,
            self.kernel_hits,
            self.kernel_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cache_stats_are_zero() {
        let stats = EvalCache::default().stats();
        assert_eq!(stats, CacheStats::default());
    }

    #[test]
    fn stats_render_is_deterministic() {
        let stats = CacheStats {
            engine_states: 12,
            db_states: 5,
            approx_bytes: 2345,
            step_hits: 10,
            step_misses: 4,
            result_hits: 3,
            result_misses: 1,
            kernel_hits: 0,
            kernel_misses: 0,
        };
        assert_eq!(
            stats.to_string(),
            "states 12 engine + 5 db (2345 B); steps 10 hit / 4 miss; \
             results 3 hit / 1 miss; kernel rows 0 hit / 0 miss"
        );
    }
}
