//! The memo layer of the exact evaluators.
//!
//! One [`EvalCache`] holds every memo the exact engines use: the tree
//! memo of the Prop. 4.4 traversal (interned computation-tree nodes
//! over their inputs' interned EDBs, successor rows, whole-tree results)
//! and the chain memo of the Thm. 5.5 construction (interned chain
//! states over their start databases' interned bases, plus kernel rows).
//!
//! Every row is keyed by `(program id, StateId)`. The program id is the
//! dense id an `Interner<Program>` (tree) or `Interner<Interpretation>`
//! (chain) hands out for the program value itself, so two queries share
//! rows exactly when their programs are equal, and an event plays no
//! part in the key. Keys and values are *immutable*, so there is no
//! invalidation story: a cache can be shared across queries, across the
//! possible worlds of a pc-table, and across repeated evaluations for
//! the lifetime of a process.
//!
//! This memoized path is the only one the engine runs. The un-memoized
//! `enumerate_fixpoints` and the fuzzer's `Database`-keyed reference
//! chain stay as oracles; `tests/memo_consistency.rs` pins the engine to
//! bit-identical results against them.

use pfq_algebra::{CompiledKernel, Interpretation};
use pfq_data::intern::{
    database_approx_bytes, relation_approx_bytes, value_approx_bytes, Interner,
};
use pfq_data::{Database, Relation, StateId};
use pfq_datalog::inflationary::EngineState;
use pfq_datalog::Program;
use pfq_num::{Distribution, Ratio};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// A memo table keyed by `(program id, StateId)` with hit/miss counters.
/// Values are cloned out on a hit, so each is an `Arc` (or an `Option`
/// of one).
pub(crate) struct TransitionCache<V> {
    map: HashMap<(StateId, StateId), V>,
    hits: u64,
    misses: u64,
}

impl<V: Clone> TransitionCache<V> {
    fn new() -> TransitionCache<V> {
        TransitionCache {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the entry for `(program, state)`, counting a hit or a
    /// miss.
    pub(crate) fn get(&mut self, program: StateId, state: StateId) -> Option<V> {
        let found = self.map.get(&(program, state)).cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Stores the entry for `(program, state)`.
    pub(crate) fn insert(&mut self, program: StateId, state: StateId, value: V) {
        self.map.insert((program, state), value);
    }
}

/// The id of `value` in `interner`, cloning it in only on first sight.
fn id_of<T: Clone + Eq + Hash>(interner: &mut Interner<T>, value: &T) -> StateId {
    match interner.lookup(value) {
        Some(id) => id,
        None => interner.intern(value.clone()),
    }
}

/// A memoized successor row: the successor states (interned) with their
/// exact one-step probabilities.
pub(crate) type Row = Arc<Vec<(StateId, Ratio)>>;

/// A computation-tree node: the id of its input's prepared EDB and the
/// [`EngineState`] (IDB relations and `oldVals`) read over it.
///
/// Nodes of different inputs differ in their base, so they never share
/// a row, unless the two inputs have equal EDBs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct TreeState {
    pub(crate) base: StateId,
    pub(crate) engine: EngineState,
}

/// Memo state of the Prop. 4.4 traversal: programs and computation-tree
/// nodes interned to dense ids, the EDB bases the nodes share, successor
/// rows per `(program id, node)` (`None` marks a fixpoint), and
/// whole-tree fixpoint distributions per `(program id, initial node)`.
pub(crate) struct FixpointMemo {
    programs: Interner<Program>,
    /// Each distinct input's prepared EDB, once.
    pub(crate) bases: Interner<Database>,
    pub(crate) states: Interner<TreeState>,
    pub(crate) steps: TransitionCache<Option<Row>>,
    pub(crate) results: TransitionCache<Arc<Distribution<Database>>>,
}

/// Estimated logical bytes of one computation-tree node: IDB content
/// plus `oldVals` bookkeeping (its base is counted once, with the bases).
fn tree_state_approx_bytes(state: &TreeState) -> usize {
    let vals: usize = state
        .engine
        .old_vals()
        .iter()
        .flatten()
        .map(|t| t.values().iter().map(value_approx_bytes).sum::<usize>())
        .sum();
    database_approx_bytes(&state.engine.idb) + vals
}

impl FixpointMemo {
    fn new() -> FixpointMemo {
        FixpointMemo {
            programs: Interner::new(),
            bases: Interner::with_sizer(database_approx_bytes),
            states: Interner::with_sizer(tree_state_approx_bytes),
            steps: TransitionCache::new(),
            results: TransitionCache::new(),
        }
    }

    /// The id keying `program`'s rows.
    pub(crate) fn program_id(&mut self, program: &Program) -> StateId {
        id_of(&mut self.programs, program)
    }
}

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

/// Memo state of the Thm. 5.5 chain construction: kernels and chain
/// states interned to dense ids, the bases the states share, and kernel
/// rows per `(kernel id, StateId)`.
pub(crate) struct ChainCache {
    kernels: Interner<Interpretation>,
    /// Each distinct start database's non-target relations, once.
    bases: Interner<Database>,
    pub(crate) states: Interner<ChainState>,
    pub(crate) steps: TransitionCache<Row>,
}

impl ChainCache {
    fn new() -> ChainCache {
        ChainCache {
            kernels: Interner::new(),
            bases: Interner::with_sizer(database_approx_bytes),
            states: Interner::with_sizer(|s: &ChainState| {
                s.targets.iter().map(relation_approx_bytes).sum()
            }),
            steps: TransitionCache::new(),
        }
    }

    /// The id keying `kernel`'s rows.
    pub(crate) fn kernel_id(&mut self, kernel: &Interpretation) -> StateId {
        id_of(&mut self.kernels, kernel)
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
    /// `approx_bytes` sizes states and the bases they share, each
    /// distinct base once; the program and kernel interners are not
    /// counted, and neither are bases in the state counts.
    pub fn stats(&self) -> CacheStats {
        let (tree, chain) = (&self.fixpoints, &self.chain);
        CacheStats {
            engine_states: tree.states.len(),
            db_states: chain.states.len(),
            approx_bytes: tree.states.approx_bytes()
                + tree.bases.approx_bytes()
                + chain.states.approx_bytes()
                + chain.bases.approx_bytes(),
            step_hits: tree.steps.hits,
            step_misses: tree.steps.misses,
            result_hits: tree.results.hits,
            result_misses: tree.results.misses,
            kernel_hits: chain.steps.hits,
            kernel_misses: chain.steps.misses,
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
    /// Estimated logical bytes of both memos' states and bases.
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
    fn transition_cache_counts_hits_and_misses() {
        let mut ids: Interner<u64> = Interner::new();
        let (p, q, s) = (ids.intern(0), ids.intern(1), ids.intern(2));
        let mut cache: TransitionCache<u32> = TransitionCache::new();
        assert_eq!(cache.get(p, s), None);
        cache.insert(p, s, 42);
        assert_eq!(cache.get(p, s), Some(42));
        assert_eq!(cache.get(q, s), None); // other program, same state
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }

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
