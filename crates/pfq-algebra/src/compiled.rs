//! The compiled kernel evaluator: the one production path for applying
//! an [`Interpretation`] (Definition 3.1) and for evaluating an [`Expr`].
//! Compiling is also the only place an expression is typed: every column
//! reference is resolved and every node's schema computed here, so each
//! schema error an expression can have is raised by compiling it.
//!
//! [`CompiledKernel::new`] resolves an interpretation once, against its
//! start database, into a plan of nodes whose column references are
//! positions and whose relation references are resolved:
//!
//! * a relation the kernel writes (a *target*) is a borrowed leaf, read
//!   from the current state with no copy;
//! * a `let` binding is an environment slot, so no database is built
//!   per bound world;
//! * `rename` and identity projections are column maps: they relabel a
//!   result or vanish, and never copy a tuple;
//! * a subtree that reads no target (and no enclosing `let`) is
//!   *static*. Deterministic static subtrees are evaluated once, at
//!   compile time. A probabilistic static subtree keeps its enumerated
//!   distribution for the exact path (computed on first use), and the
//!   `repair-key` groups of its static inputs for sampling, which still
//!   draws at every step;
//! * a join whose right operand's leading columns are exactly the join
//!   columns probes it with [`Relation::prefix_scan`]; other joins build
//!   a per-call hash index.
//!
//! Runtime values keep the schema they were computed under only as a
//! label: every column reference was resolved at compile time, so a
//! borrowed relation flows through `rename` untouched. A value is
//! relabelled to its node's schema only when it becomes owned output.
//!
//! The tree-walking interpreter this replaces lives on as the fuzzer's
//! reference oracle (`pfq_fuzz::oracle::reference_enumerate`), which the
//! kernel differential test compares against this plan.

use crate::repair_key::Groups;
use crate::{AlgebraError, Expr, Interpretation, Operand, Pred};
use pfq_data::hash::FxHashMap;
use pfq_data::{Database, Relation, Schema, Tuple, Value};
use pfq_num::Distribution;
use rand::Rng;
use std::borrow::Cow;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An [`Interpretation`] compiled against a start database: one plan per
/// target relation, applied to states that hold only those targets.
///
/// Relations the kernel does not write never change along a chain, so
/// the plan captures them at compile time; a state is just the target
/// relations in [`targets`](Self::targets) order.
///
/// ```
/// use pfq_algebra::{CompiledKernel, Expr, Interpretation};
/// use pfq_data::{tuple, Database, Relation, Schema};
/// let db = Database::new()
///     .with("E", Relation::from_rows(Schema::new(["i", "j"]), [tuple![1, 2], tuple![2, 1]]))
///     .with("C", Relation::from_rows(Schema::new(["i"]), [tuple![1]]));
/// let step = Expr::rel("C").join(Expr::rel("E")).project(["j"]).rename([("j", "i")]);
/// let kernel = CompiledKernel::new(&Interpretation::new().with("C", step), &db).unwrap();
/// let next = kernel.enumerate(&kernel.targets_of(&db), None).unwrap();
/// let (state, _) = next.iter().next().unwrap();
/// assert!(state[0].contains(&tuple![2]));
/// ```
pub struct CompiledKernel {
    targets: Vec<String>,
    roots: Vec<Node>,
}

impl CompiledKernel {
    /// Checks that `interp` is a Definition 3.1 interpretation over `db`
    /// and compiles one plan per kernel. Kernel by kernel, in name order:
    /// a target `db` lacks is [`AlgebraError::MissingRelation`]; compiling
    /// the kernel raises any error in its expression; and a result schema
    /// other than the target's is [`AlgebraError::SchemaMismatch`].
    pub fn new(interp: &Interpretation, db: &Database) -> Result<CompiledKernel, AlgebraError> {
        let targets: Vec<String> = interp.iter().map(|(name, _)| name.to_string()).collect();
        let compiler = Compiler {
            db,
            targets: &targets,
        };
        let roots = interp
            .iter()
            .map(|(name, kernel)| {
                let target = db
                    .get(name)
                    .ok_or_else(|| AlgebraError::MissingRelation(name.to_string()))?;
                let root = compiler.compile(kernel, &mut Vec::new())?;
                if &root.schema != target.schema() {
                    return Err(AlgebraError::SchemaMismatch {
                        context: "interpretation kernel result vs target relation",
                        left: root.schema.to_string(),
                        right: target.schema().to_string(),
                    });
                }
                Ok(root)
            })
            .collect::<Result<_, _>>()?;
        Ok(CompiledKernel { targets, roots })
    }

    /// The relations the kernel writes, in name order: the layout of a
    /// state.
    pub fn targets(&self) -> &[String] {
        &self.targets
    }

    /// The state `db` is in: its target relations, cloned, in
    /// [`targets`](Self::targets) order.
    ///
    /// # Panics
    /// If `db` lacks a target (compilation checked the start database).
    pub fn targets_of(&self, db: &Database) -> Vec<Relation> {
        self.targets
            .iter()
            .map(|name| db.get(name).expect("target relation present").clone())
            .collect()
    }

    /// `db` with its target relations replaced by `state`.
    pub fn with_targets(&self, db: &Database, state: Vec<Relation>) -> Database {
        let mut out = db.clone();
        for (name, rel) in self.targets.iter().zip(state) {
            out.set(name.clone(), rel);
        }
        out
    }

    /// Exactly enumerates the successor states of `state`. Kernels are
    /// independent (Definition 3.1), so this is the product distribution
    /// over per-kernel worlds. `limit` bounds the worlds carried by any
    /// subexpression and by the product, failing with
    /// [`AlgebraError::WorldLimitExceeded`] exactly where the tree walker
    /// would.
    pub fn enumerate(
        &self,
        state: &[Relation],
        limit: Option<usize>,
    ) -> Result<Distribution<Vec<Relation>>, AlgebraError> {
        let mut out: Option<Distribution<Vec<Relation>>> = None;
        let mut env = Vec::new();
        for root in &self.roots {
            let worlds = enumerate(root, state, &mut env, limit)?;
            let next = match out {
                None => worlds.into_owned().map(|rel| vec![rel]),
                Some(acc) => acc.product(&worlds, |prefix, rel| {
                    let mut next = prefix.clone();
                    next.push(rel.clone());
                    next
                }),
            };
            check(limit, next.support_size())?;
            out = Some(next);
        }
        Ok(out.unwrap_or_else(|| Distribution::singleton(Vec::new())))
    }

    /// Samples one successor state of `state`, kernels in name order and
    /// each kernel's operands left to right: the tree walker's RNG
    /// consumption, draw for draw.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        state: &[Relation],
        rng: &mut R,
    ) -> Result<Vec<Relation>, AlgebraError> {
        let mut env = Vec::new();
        self.roots
            .iter()
            .map(|root| Ok(sample(root, state, &mut env, rng)?.into_owned(&root.schema)))
            .collect()
    }
}

/// A compiled standalone expression: the plan [`crate::eval`]'s one-off
/// entry points run, with every relation read from the database.
pub(crate) struct CompiledExpr(Node);

impl CompiledExpr {
    pub(crate) fn new(expr: &Expr, db: &Database) -> Result<CompiledExpr, AlgebraError> {
        let compiler = Compiler { db, targets: &[] };
        Ok(CompiledExpr(compiler.compile(expr, &mut Vec::new())?))
    }

    pub(crate) fn eval(&self) -> Result<Relation, AlgebraError> {
        Ok(eval(&self.0, &[], &mut Vec::new())?.into_owned(&self.0.schema))
    }

    pub(crate) fn enumerate(
        &self,
        limit: Option<usize>,
    ) -> Result<Distribution<Relation>, AlgebraError> {
        Ok(enumerate(&self.0, &[], &mut Vec::new(), limit)?.into_owned())
    }

    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Relation, AlgebraError> {
        Ok(sample(&self.0, &[], &mut Vec::new(), rng)?.into_owned(&self.0.schema))
    }
}

/// One plan node.
struct Node {
    op: Op,
    /// The output schema (the tree walker's result schema).
    schema: Schema,
    flags: Flags,
    /// For a static probabilistic subtree: its distribution, enumerated
    /// on first use under the limit it was first asked with.
    worlds: Option<OnceLock<StaticWorlds>>,
}

type StaticWorlds = (Option<usize>, Result<Distribution<Relation>, AlgebraError>);

/// What a subtree depends on.
#[derive(Clone, Copy, Default)]
struct Flags {
    /// Whether it contains `repair-key`.
    prob: bool,
    /// Whether it reads a target relation.
    reads_state: bool,
    /// How many enclosing `let` slots it reaches (0: none).
    free: usize,
}

impl Flags {
    fn of(children: &[&Node]) -> Flags {
        Flags {
            prob: children.iter().any(|c| c.flags.prob),
            reads_state: children.iter().any(|c| c.flags.reads_state),
            free: children.iter().map(|c| c.flags.free).max().unwrap_or(0),
        }
    }
}

enum Op {
    /// Target relation `i` of the current state.
    Target(usize),
    /// The `let` slot `k` bindings out (0: innermost).
    Slot(usize),
    /// A static deterministic subtree, evaluated at compile time.
    Value(Result<Relation, AlgebraError>),
    Select(CPred, Box<Node>),
    Project(Vec<usize>, Box<Node>),
    /// Relabels the child's columns; moves no data.
    Rename(Box<Node>),
    Join(JoinPlan, Box<Node>, Box<Node>),
    Union(Box<Node>, Box<Node>),
    Difference(Box<Node>, Box<Node>),
    RepairKey {
        key: Vec<usize>,
        weight: Option<usize>,
        input: Box<Node>,
        /// The groups of a static input, built once.
        groups: Option<Result<Groups, AlgebraError>>,
    },
    Let(Box<Node>, Box<Node>),
}

impl Node {
    fn new(op: Op, schema: Schema, flags: Flags) -> Node {
        Node {
            op,
            schema,
            flags,
            worlds: None,
        }
    }

    fn is_static(&self) -> bool {
        !self.flags.reads_state && self.flags.free == 0
    }

    /// Precomputes a static subtree: a deterministic one becomes its
    /// value, a probabilistic one gets a distribution cache.
    fn fold(mut self) -> Node {
        if !self.is_static() || matches!(self.op, Op::Value(_)) {
            return self;
        }
        if self.flags.prob {
            self.worlds = Some(OnceLock::new());
            return self;
        }
        let value = eval(&self, &[], &mut Vec::new()).map(|v| v.into_owned(&self.schema));
        Node::new(Op::Value(value), self.schema, Flags::default())
    }
}

/// Resolves expressions against a database and a target list.
struct Compiler<'c> {
    db: &'c Database,
    targets: &'c [String],
}

impl Compiler<'_> {
    /// Compiles `expr` under the `let` bindings in `scope` (innermost
    /// last), raising the first schema error in operand order.
    fn compile(
        &self,
        expr: &Expr,
        scope: &mut Vec<(String, Schema)>,
    ) -> Result<Node, AlgebraError> {
        let node = match expr {
            Expr::Rel(name) => {
                if let Some(pos) = scope.iter().rposition(|(n, _)| n == name) {
                    let k = scope.len() - 1 - pos;
                    let flags = Flags {
                        free: k + 1,
                        ..Flags::default()
                    };
                    Node::new(Op::Slot(k), scope[pos].1.clone(), flags)
                } else {
                    let rel = self
                        .db
                        .get(name)
                        .ok_or_else(|| AlgebraError::MissingRelation(name.clone()))?;
                    let schema = rel.schema().clone();
                    match self.targets.iter().position(|t| t == name) {
                        Some(i) => {
                            let flags = Flags {
                                reads_state: true,
                                ..Flags::default()
                            };
                            Node::new(Op::Target(i), schema, flags)
                        }
                        None => Node::new(Op::Value(Ok(rel.clone())), schema, Flags::default()),
                    }
                }
            }
            Expr::Const(rel) => Node::new(
                Op::Value(Ok(rel.clone())),
                rel.schema().clone(),
                Flags::default(),
            ),
            Expr::Select(pred, e) => {
                let child = self.compile(e, scope)?;
                let pred = CPred::compile(pred, &child.schema);
                let (schema, flags) = (child.schema.clone(), Flags::of(&[&child]));
                Node::new(Op::Select(pred, Box::new(child)), schema, flags)
            }
            Expr::Project(cols, e) => {
                let child = self.compile(e, scope)?;
                let idx = cols
                    .iter()
                    .map(|c| column(&child.schema, c))
                    .collect::<Result<Vec<_>, _>>()?;
                if idx.iter().copied().eq(0..child.schema.arity()) {
                    return Ok(child); // identity projection
                }
                let schema = distinct(cols.iter().cloned(), "projection")?;
                let flags = Flags::of(&[&child]);
                Node::new(Op::Project(idx, Box::new(child)), schema, flags)
            }
            Expr::Rename(pairs, e) => {
                let child = self.compile(e, scope)?;
                let schema = renamed(&child.schema, pairs)?;
                if schema == child.schema {
                    return Ok(child);
                }
                let flags = Flags::of(&[&child]);
                Node::new(Op::Rename(Box::new(child)), schema, flags)
            }
            Expr::Join(a, b) | Expr::Product(a, b) => {
                let (a, b) = (self.compile(a, scope)?, self.compile(b, scope)?);
                if matches!(expr, Expr::Product(..))
                    && !a.schema.common_columns(&b.schema).is_empty()
                {
                    return Err(AlgebraError::SchemaMismatch {
                        context: "product (operands share columns)",
                        left: a.schema.to_string(),
                        right: b.schema.to_string(),
                    });
                }
                let plan = JoinPlan::new(&a.schema, &b.schema);
                let (schema, flags) = (a.schema.join_schema(&b.schema), Flags::of(&[&a, &b]));
                Node::new(Op::Join(plan, Box::new(a), Box::new(b)), schema, flags)
            }
            Expr::Union(a, b) | Expr::Difference(a, b) => {
                let (a, b) = (self.compile(a, scope)?, self.compile(b, scope)?);
                if a.schema != b.schema {
                    return Err(AlgebraError::SchemaMismatch {
                        context: "set operation",
                        left: a.schema.to_string(),
                        right: b.schema.to_string(),
                    });
                }
                let (schema, flags) = (a.schema.clone(), Flags::of(&[&a, &b]));
                let op = match expr {
                    Expr::Union(..) => Op::Union(Box::new(a), Box::new(b)),
                    _ => Op::Difference(Box::new(a), Box::new(b)),
                };
                Node::new(op, schema, flags)
            }
            Expr::RepairKey { key, weight, input } => {
                let input = self.compile(input, scope)?;
                let key = key
                    .iter()
                    .map(|c| column(&input.schema, c))
                    .collect::<Result<Vec<_>, _>>()?;
                let weight = weight
                    .as_ref()
                    .map(|w| column(&input.schema, w))
                    .transpose()?;
                let groups = match &input.op {
                    Op::Value(rel) => Some(
                        rel.clone()
                            .and_then(|rel| Groups::new(&rel, &input.schema, &key, weight)),
                    ),
                    _ => None,
                };
                let schema = input.schema.clone();
                let flags = Flags {
                    prob: true,
                    ..Flags::of(&[&input])
                };
                let op = Op::RepairKey {
                    key,
                    weight,
                    input: Box::new(input),
                    groups,
                };
                Node::new(op, schema, flags)
            }
            Expr::Let { name, value, body } => {
                let value = self.compile(value, scope)?;
                scope.push((name.clone(), value.schema.clone()));
                let body = self.compile(body, scope);
                scope.pop();
                let body = body?;
                let schema = body.schema.clone();
                let flags = Flags {
                    free: value.flags.free.max(body.flags.free.saturating_sub(1)),
                    ..Flags::of(&[&value, &body])
                };
                Node::new(Op::Let(Box::new(value), Box::new(body)), schema, flags)
            }
        };
        Ok(node.fold())
    }
}

/// The position of `name` in `schema`, or the tree walker's error.
fn column(schema: &Schema, name: &str) -> Result<usize, AlgebraError> {
    schema
        .index_of(name)
        .ok_or_else(|| AlgebraError::MissingColumn {
            column: name.to_string(),
            schema: schema.to_string(),
        })
}

/// The schema `rename[pairs]` gives a relation of `schema`: every old
/// column must exist, and the result's names must stay distinct.
fn renamed(schema: &Schema, pairs: &[(String, String)]) -> Result<Schema, AlgebraError> {
    for (old, _) in pairs {
        column(schema, old)?;
    }
    let columns = schema.columns().iter().map(|c| {
        pairs
            .iter()
            .find(|(old, _)| old == c)
            .map_or(c, |(_, new)| new)
            .clone()
    });
    distinct(columns, "rename")
}

/// The schema of `columns`, which `context`'s result must keep distinct.
fn distinct(
    columns: impl IntoIterator<Item = String>,
    context: &'static str,
) -> Result<Schema, AlgebraError> {
    Schema::try_new(columns).map_err(|column| AlgebraError::DuplicateColumn { column, context })
}

/// A runtime value: a relation borrowed from the state, the plan or a
/// `let` slot, or one computed here. Only an owned value is guaranteed
/// to carry its node's schema; see [`Val::into_owned`].
#[derive(Clone)]
enum Val<'a> {
    Ref(&'a Relation),
    Shared(Arc<Relation>),
    Own(Relation),
}

impl Deref for Val<'_> {
    type Target = Relation;

    fn deref(&self) -> &Relation {
        match self {
            Val::Ref(rel) => rel,
            Val::Shared(rel) => rel,
            Val::Own(rel) => rel,
        }
    }
}

impl Val<'_> {
    /// The value as an owned relation labelled `schema`: an owned value
    /// is moved, a borrowed one copied once.
    fn into_owned(self, schema: &Schema) -> Relation {
        let rel = match self {
            Val::Own(rel) => return rel,
            Val::Ref(rel) => rel.clone(),
            Val::Shared(rel) => Arc::try_unwrap(rel).unwrap_or_else(|rel| (*rel).clone()),
        };
        if rel.schema() == schema {
            rel
        } else {
            rel.into_schema(schema.clone())
        }
    }

    /// The value as a `let` binding: owned results move behind an `Arc`.
    fn share(self) -> Self {
        match self {
            Val::Own(rel) => Val::Shared(Arc::new(rel)),
            other => other,
        }
    }
}

/// Fails once a node carries more than `limit` worlds.
fn check(limit: Option<usize>, support: usize) -> Result<(), AlgebraError> {
    match limit {
        Some(limit) if support > limit => Err(AlgebraError::WorldLimitExceeded { limit }),
        _ => Ok(()),
    }
}

/// Deterministic evaluation of any node; `repair-key` is an error.
fn eval<'a>(
    node: &'a Node,
    state: &'a [Relation],
    env: &mut Vec<Val<'a>>,
) -> Result<Val<'a>, AlgebraError> {
    let schema = &node.schema;
    Ok(match &node.op {
        Op::Target(i) => Val::Ref(&state[*i]),
        Op::Slot(k) => env[env.len() - 1 - k].clone(),
        Op::Value(rel) => Val::Ref(rel.as_ref().map_err(Clone::clone)?),
        Op::Select(pred, e) => Val::Own(select(pred, &*eval(e, state, env)?, schema)?),
        Op::Project(idx, e) => Val::Own(project(idx, &*eval(e, state, env)?, schema)),
        Op::Rename(e) => relabel(eval(e, state, env)?, schema),
        Op::Join(plan, a, b) => {
            let left = eval(a, state, env)?;
            Val::Own(plan.run(&left, &*eval(b, state, env)?, schema))
        }
        Op::Union(a, b) => {
            let left = eval(a, state, env)?;
            union(left, eval(b, state, env)?, schema)
        }
        Op::Difference(a, b) => {
            let left = eval(a, state, env)?;
            difference(left, eval(b, state, env)?, schema)
        }
        Op::RepairKey { .. } => return Err(AlgebraError::RepairKeyNotAllowed),
        Op::Let(value, body) => {
            let bound = eval(value, state, env)?.share();
            env.push(bound);
            let out = eval(body, state, env);
            env.pop();
            out?
        }
    })
}

/// Exact enumeration of a node's worlds. A static probabilistic node
/// lends its cached distribution.
fn enumerate<'a>(
    node: &'a Node,
    state: &'a [Relation],
    env: &mut Vec<Val<'a>>,
    limit: Option<usize>,
) -> Result<Cow<'a, Distribution<Relation>>, AlgebraError> {
    if !node.flags.prob {
        check(limit, 1)?;
        let rel = eval(node, state, env)?.into_owned(&node.schema);
        return Ok(Cow::Owned(Distribution::singleton(rel)));
    }
    let Some(cache) = &node.worlds else {
        return enumerate_op(node, state, env, limit).map(Cow::Owned);
    };
    let (cached_limit, worlds) = cache.get_or_init(|| {
        let worlds = enumerate_op(node, &[], &mut Vec::new(), limit);
        (limit, worlds)
    });
    if *cached_limit == limit {
        return worlds.as_ref().map(Cow::Borrowed).map_err(Clone::clone);
    }
    enumerate_op(node, &[], &mut Vec::new(), limit).map(Cow::Owned)
}

/// [`enumerate`] for a probabilistic node, bypassing its cache.
fn enumerate_op<'a>(
    node: &'a Node,
    state: &'a [Relation],
    env: &mut Vec<Val<'a>>,
    limit: Option<usize>,
) -> Result<Distribution<Relation>, AlgebraError> {
    let schema = &node.schema;
    let out = match &node.op {
        Op::Select(pred, e) => enumerate(e, state, env, limit)?
            .into_owned()
            .try_map(|rel| select(pred, &rel, schema))?,
        Op::Project(idx, e) => enumerate(e, state, env, limit)?
            .into_owned()
            .map(|rel| project(idx, &rel, schema)),
        Op::Rename(e) => enumerate(e, state, env, limit)?
            .into_owned()
            .map(|rel| rel.into_schema(schema.clone())),
        Op::Join(plan, a, b) => combine(a, b, state, env, limit, schema, |l, r| {
            Val::Own(plan.run(&l, &r, schema))
        })?,
        Op::Union(a, b) => combine(a, b, state, env, limit, schema, |l, r| union(l, r, schema))?,
        Op::Difference(a, b) => combine(a, b, state, env, limit, schema, |l, r| {
            difference(l, r, schema)
        })?,
        Op::RepairKey {
            key,
            weight,
            input,
            groups,
        } => match groups {
            Some(groups) => {
                check(limit, 1)?; // the static input's own world
                groups.as_ref().map_err(Clone::clone)?.enumerate(limit)?
            }
            None => {
                let mut out = Distribution::new();
                for (world, p) in enumerate(input, state, env, limit)?.iter() {
                    let groups = Groups::new(world, schema, key, *weight)?;
                    out.merge(groups.enumerate(limit)?.scale(p));
                }
                out
            }
        },
        Op::Let(value, body) => {
            // One `value` world is fixed for the whole `body` evaluation:
            // this is exactly what distinguishes `let` from inlining.
            let mut out = Distribution::new();
            let mut bind = |bound: Val<'a>, p: &pfq_num::Ratio, env: &mut Vec<Val<'a>>| {
                env.push(bound);
                let worlds = enumerate(body, state, env, limit);
                env.pop();
                out.merge(worlds?.into_owned().scale(p));
                Ok::<_, AlgebraError>(())
            };
            match enumerate(value, state, env, limit)? {
                Cow::Borrowed(worlds) => {
                    for (world, p) in worlds.iter() {
                        bind(Val::Ref(world), p, env)?;
                    }
                }
                Cow::Owned(worlds) => {
                    for (world, p) in worlds.into_iter() {
                        bind(Val::Shared(Arc::new(world)), &p, env)?;
                    }
                }
            }
            out
        }
        Op::Target(_) | Op::Slot(_) | Op::Value(_) => unreachable!("deterministic leaf"),
    };
    check(limit, out.support_size())?;
    Ok(out)
}

/// Every pair of operand worlds through `op`. A deterministic operand
/// is evaluated once and stays borrowed.
fn combine<'a>(
    a: &'a Node,
    b: &'a Node,
    state: &'a [Relation],
    env: &mut Vec<Val<'a>>,
    limit: Option<usize>,
    schema: &Schema,
    op: impl for<'v> Fn(Val<'v>, Val<'v>) -> Val<'v>,
) -> Result<Distribution<Relation>, AlgebraError> {
    let mut out = Distribution::new();
    if !a.flags.prob {
        check(limit, 1)?;
        let left = eval(a, state, env)?;
        for (right, p) in enumerate(b, state, env, limit)?.iter() {
            out.add(
                op(Val::Ref(&left), Val::Ref(right)).into_owned(schema),
                p.clone(),
            );
        }
    } else {
        let left = enumerate(a, state, env, limit)?;
        if !b.flags.prob {
            check(limit, 1)?;
            let right = eval(b, state, env)?;
            for (l, p) in left.iter() {
                out.add(
                    op(Val::Ref(l), Val::Ref(&right)).into_owned(schema),
                    p.clone(),
                );
            }
        } else {
            let right = enumerate(b, state, env, limit)?;
            for (l, pl) in left.iter() {
                for (r, pr) in right.iter() {
                    out.add(
                        op(Val::Ref(l), Val::Ref(r)).into_owned(schema),
                        pl.mul_ref(pr),
                    );
                }
            }
        }
    }
    Ok(out)
}

/// One sampled world of a node: operands left to right, one `u64` per
/// `repair-key` group.
fn sample<'a, R: Rng + ?Sized>(
    node: &'a Node,
    state: &'a [Relation],
    env: &mut Vec<Val<'a>>,
    rng: &mut R,
) -> Result<Val<'a>, AlgebraError> {
    if !node.flags.prob {
        return eval(node, state, env);
    }
    let schema = &node.schema;
    Ok(match &node.op {
        Op::Select(pred, e) => Val::Own(select(pred, &*sample(e, state, env, rng)?, schema)?),
        Op::Project(idx, e) => Val::Own(project(idx, &*sample(e, state, env, rng)?, schema)),
        Op::Rename(e) => relabel(sample(e, state, env, rng)?, schema),
        Op::Join(plan, a, b) => {
            let left = sample(a, state, env, rng)?;
            Val::Own(plan.run(&left, &*sample(b, state, env, rng)?, schema))
        }
        Op::Union(a, b) => {
            let left = sample(a, state, env, rng)?;
            union(left, sample(b, state, env, rng)?, schema)
        }
        Op::Difference(a, b) => {
            let left = sample(a, state, env, rng)?;
            difference(left, sample(b, state, env, rng)?, schema)
        }
        Op::RepairKey {
            key,
            weight,
            input,
            groups,
        } => match groups {
            Some(groups) => Val::Own(groups.as_ref().map_err(Clone::clone)?.sample(rng)),
            None => {
                let world = sample(input, state, env, rng)?;
                Val::Own(Groups::new(&world, schema, key, *weight)?.sample(rng))
            }
        },
        Op::Let(value, body) => {
            let bound = sample(value, state, env, rng)?.share();
            env.push(bound);
            let out = sample(body, state, env, rng);
            env.pop();
            out?
        }
        Op::Target(_) | Op::Slot(_) | Op::Value(_) => unreachable!("deterministic leaf"),
    })
}

/// `rename`: an owned value takes the new labels; a borrowed one is
/// left as is (its labels are never read).
fn relabel<'v>(val: Val<'v>, schema: &Schema) -> Val<'v> {
    match val {
        Val::Own(rel) => Val::Own(rel.into_schema(schema.clone())),
        other => other,
    }
}

fn select(pred: &CPred, rel: &Relation, schema: &Schema) -> Result<Relation, AlgebraError> {
    let mut out = Relation::empty(schema.clone());
    for t in rel.iter() {
        if pred.eval(t)? {
            out.insert(t.clone());
        }
    }
    Ok(out)
}

fn project(idx: &[usize], rel: &Relation, schema: &Schema) -> Relation {
    let mut out = Relation::empty(schema.clone());
    for t in rel.iter() {
        out.insert(t.project(idx));
    }
    out
}

/// Set union, reusing an owned operand's tuple set.
fn union<'v>(left: Val<'v>, right: Val<'v>, schema: &Schema) -> Val<'v> {
    if right.is_empty() {
        return left;
    }
    if left.is_empty() {
        return right;
    }
    let (mut out, other) = match (left, right) {
        (Val::Own(l), r) => (l, r),
        (l, Val::Own(r)) => (r, l),
        (l, r) => (l.into_owned(schema), r),
    };
    for t in other.iter() {
        if !out.contains(t) {
            out.insert(t.clone());
        }
    }
    Val::Own(out)
}

/// Set difference, removing in place from an owned left operand.
fn difference<'v>(left: Val<'v>, right: Val<'v>, schema: &Schema) -> Val<'v> {
    if right.is_empty() || left.is_empty() {
        return left;
    }
    match left {
        Val::Own(mut out) => {
            for t in right.iter() {
                out.remove(t);
            }
            Val::Own(out)
        }
        left => {
            let mut out = Relation::empty(schema.clone());
            for t in left.iter().filter(|t| !right.contains(t)) {
                out.insert(t.clone());
            }
            Val::Own(out)
        }
    }
}

/// A natural join (or product) resolved to column positions.
struct JoinPlan {
    /// Left join columns, in the order of their right positions.
    left_key: Vec<usize>,
    /// Right join columns, aligned with `left_key`.
    right_key: Vec<usize>,
    /// Right columns kept in the output, after the left's.
    right_rest: Vec<usize>,
    /// Whether the right join columns are exactly its leading columns,
    /// so matches are one [`Relation::prefix_scan`] away.
    prefix: bool,
}

impl JoinPlan {
    fn new(left: &Schema, right: &Schema) -> JoinPlan {
        let mut pairs: Vec<(usize, usize)> = left
            .common_columns(right)
            .iter()
            .map(|c| (right.index_of(c).unwrap(), left.index_of(c).unwrap()))
            .collect();
        pairs.sort_unstable();
        let prefix = pairs.iter().enumerate().all(|(i, &(r, _))| r == i);
        JoinPlan {
            left_key: pairs.iter().map(|&(_, l)| l).collect(),
            right_key: pairs.iter().map(|&(r, _)| r).collect(),
            right_rest: (0..right.arity())
                .filter(|i| !pairs.iter().any(|&(r, _)| r == *i))
                .collect(),
            prefix,
        }
    }

    fn run(&self, left: &Relation, right: &Relation, schema: &Schema) -> Relation {
        let mut out = Relation::empty(schema.clone());
        let emit = |out: &mut Relation, l: &Tuple, r: &Tuple| {
            let rest = self.right_rest.iter().map(|&i| r.get(i));
            out.insert(l.values().iter().chain(rest).cloned().collect());
        };
        let mut key: Vec<Value> = Vec::with_capacity(self.left_key.len());
        if self.prefix {
            for l in left.iter() {
                key.clear();
                key.extend(self.left_key.iter().map(|&i| l.get(i).clone()));
                for r in right.prefix_scan(&key) {
                    emit(&mut out, l, r);
                }
            }
            return out;
        }
        let mut index: FxHashMap<Vec<Value>, Vec<&Tuple>> = FxHashMap::default();
        for r in right.iter() {
            let k = self.right_key.iter().map(|&i| r.get(i).clone()).collect();
            index.entry(k).or_default().push(r);
        }
        for l in left.iter() {
            key.clear();
            key.extend(self.left_key.iter().map(|&i| l.get(i).clone()));
            for r in index.get(&key).into_iter().flatten() {
                emit(&mut out, l, r);
            }
        }
        out
    }
}

/// A selection predicate over column positions. A column the input
/// lacks stays an error, raised when a tuple is tested, as the tree
/// walker raises it.
enum CPred {
    True,
    Cmp(Cmp, COperand, COperand),
    And(Box<CPred>, Box<CPred>),
    Or(Box<CPred>, Box<CPred>),
    Not(Box<CPred>),
}

#[derive(Clone, Copy)]
enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
}

enum COperand {
    Col(usize),
    Lit(Value),
    Missing(AlgebraError),
}

impl COperand {
    fn resolve<'t>(&'t self, t: &'t Tuple) -> Result<&'t Value, AlgebraError> {
        match self {
            COperand::Col(i) => Ok(t.get(*i)),
            COperand::Lit(v) => Ok(v),
            COperand::Missing(e) => Err(e.clone()),
        }
    }
}

impl CPred {
    fn compile(pred: &Pred, schema: &Schema) -> CPred {
        let operand = |o: &Operand| match o {
            Operand::Lit(v) => COperand::Lit(v.clone()),
            Operand::Col(name) => match column(schema, name) {
                Ok(i) => COperand::Col(i),
                Err(e) => COperand::Missing(e),
            },
        };
        let cmp = |c, a, b| CPred::Cmp(c, operand(a), operand(b));
        let boxed = |p: &Pred| Box::new(CPred::compile(p, schema));
        match pred {
            Pred::True => CPred::True,
            Pred::Eq(a, b) => cmp(Cmp::Eq, a, b),
            Pred::Ne(a, b) => cmp(Cmp::Ne, a, b),
            Pred::Lt(a, b) => cmp(Cmp::Lt, a, b),
            Pred::Le(a, b) => cmp(Cmp::Le, a, b),
            Pred::And(a, b) => CPred::And(boxed(a), boxed(b)),
            Pred::Or(a, b) => CPred::Or(boxed(a), boxed(b)),
            Pred::Not(p) => CPred::Not(boxed(p)),
        }
    }

    fn eval(&self, t: &Tuple) -> Result<bool, AlgebraError> {
        Ok(match self {
            CPred::True => true,
            CPred::Cmp(cmp, a, b) => {
                let (a, b) = (a.resolve(t)?, b.resolve(t)?);
                match cmp {
                    Cmp::Eq => a == b,
                    Cmp::Ne => a != b,
                    Cmp::Lt => a < b,
                    Cmp::Le => a <= b,
                }
            }
            CPred::And(a, b) => a.eval(t)? && b.eval(t)?,
            CPred::Or(a, b) => a.eval(t)? || b.eval(t)?,
            CPred::Not(p) => !p.eval(t)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::tuple;
    use pfq_num::Ratio;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn coin(rows: &[(i64, i64)]) -> Relation {
        Relation::from_rows(
            Schema::new(["k", "v"]),
            rows.iter().map(|&(k, v)| tuple![k, v]),
        )
    }

    /// The one successor of a deterministic kernel.
    fn only_successor(kernel: &CompiledKernel, db: &Database) -> Vec<Relation> {
        let next = kernel.enumerate(&kernel.targets_of(db), None).unwrap();
        assert_eq!(next.support_size(), 1);
        next.into_iter().next().unwrap().0
    }

    #[test]
    fn let_binding_shadows_base_and_target_relations() {
        let db = Database::new()
            .with("C", coin(&[(0, 1)]))
            .with("E", coin(&[(7, 7), (8, 8)]));
        // `E` in the body is the binding (C's rows), not the base relation.
        let base = Interpretation::new().with("C", Expr::rel("C").bind("E", Expr::rel("E")));
        let kernel = CompiledKernel::new(&base, &db).unwrap();
        assert_eq!(only_successor(&kernel, &db), vec![coin(&[(0, 1)])]);
        // `C` in the body is the binding (E's rows), not the state.
        let target = Interpretation::new().with("C", Expr::rel("E").bind("C", Expr::rel("C")));
        let kernel = CompiledKernel::new(&target, &db).unwrap();
        assert_eq!(only_successor(&kernel, &db), vec![coin(&[(7, 7), (8, 8)])]);
    }

    #[test]
    fn static_repair_key_is_independent_under_each_let_world() {
        // `a` and the inner repair-key flip the same static coin, but
        // independently: the inner flip is enumerated once and reused
        // under both worlds of `a`, and still drawn once per step.
        let db = Database::new()
            .with("A", coin(&[(0, 1), (0, 2)]))
            .with("C", coin(&[]));
        let flip = || Expr::rel("A").repair_key(["k"], None);
        let interp =
            Interpretation::new().with("C", flip().bind("a", Expr::rel("a").union(flip())));
        let kernel = CompiledKernel::new(&interp, &db).unwrap();
        let next = kernel.enumerate(&kernel.targets_of(&db), None).unwrap();
        assert_eq!(next.support_size(), 3);
        assert_eq!(next.mass(&vec![coin(&[(0, 1)])]), Ratio::new(1, 4));
        assert_eq!(next.mass(&vec![coin(&[(0, 2)])]), Ratio::new(1, 4));
        assert_eq!(next.mass(&vec![coin(&[(0, 1), (0, 2)])]), Ratio::new(1, 2));

        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut twice = rng.clone();
        kernel.sample(&kernel.targets_of(&db), &mut rng).unwrap();
        twice.gen::<u64>();
        twice.gen::<u64>();
        assert_eq!(rng.gen::<u64>(), twice.gen::<u64>());
    }

    #[test]
    fn single_choice_group_still_draws_one_u64() {
        let db = Database::new().with("C", coin(&[(0, 1), (1, 5), (1, 6)]));
        let interp = Interpretation::new().with("C", Expr::rel("C").repair_key(["k"], None));
        let kernel = CompiledKernel::new(&interp, &db).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut expected = rng.clone();
        let next = kernel.sample(&kernel.targets_of(&db), &mut rng).unwrap();
        assert_eq!(next[0].len(), 2, "one tuple per group");
        // Group k = 0 has one choice, k = 1 two: two draws in all.
        expected.gen::<u64>();
        expected.gen::<u64>();
        assert_eq!(rng.gen::<u64>(), expected.gen::<u64>());
    }

    /// Example 3.3's walk database: edges `E(i, j, p)`, position `C(i)`.
    fn walk_db() -> Database {
        let e = Relation::from_rows(
            Schema::new(["i", "j", "p"]),
            [tuple![1, 2, 1], tuple![2, 1, 1]],
        );
        let c = Relation::from_rows(Schema::new(["i"]), [tuple![1]]);
        Database::new().with("E", e).with("C", c)
    }

    fn walk_step() -> Expr {
        Expr::rel("C")
            .join(Expr::rel("E"))
            .repair_key(["i"], Some("p"))
            .project(["j"])
            .rename([("j", "i")])
    }

    #[test]
    fn walk_kernel_schema_is_inferred() {
        let db = walk_db();
        // Aimed at `E`, the walk kernel reports the schema it infers.
        let aimed_at_e = Interpretation::new().with("E", walk_step());
        assert_eq!(
            CompiledKernel::new(&aimed_at_e, &db).err(),
            Some(AlgebraError::SchemaMismatch {
                context: "interpretation kernel result vs target relation",
                left: "(i)".to_string(),
                right: "(i, j, p)".to_string(),
            })
        );
    }

    #[test]
    fn schema_errors() {
        let db = walk_db();
        let error = |e: Expr| crate::eval::eval(&e, &db).unwrap_err();
        assert_eq!(
            error(Expr::rel("Z")),
            AlgebraError::MissingRelation("Z".to_string())
        );
        assert!(matches!(
            error(Expr::rel("E").project(["zz"])),
            AlgebraError::MissingColumn { .. }
        ));
        assert!(matches!(
            error(Expr::rel("E").union(Expr::rel("C"))),
            AlgebraError::SchemaMismatch { .. }
        ));
        assert!(matches!(
            error(Expr::rel("E").product(Expr::rel("C"))),
            AlgebraError::SchemaMismatch { .. }
        ));
        assert!(matches!(
            error(Expr::rel("E").repair_key(["zz"], None)),
            AlgebraError::MissingColumn { .. }
        ));
    }

    #[test]
    fn join_vs_product_schema() {
        let db = walk_db();
        let schema = |e: Expr| crate::eval::eval(&e, &db).unwrap().schema().clone();
        assert_eq!(
            schema(Expr::rel("C").join(Expr::rel("E"))),
            Schema::new(["i", "j", "p"])
        );
        let renamed = Expr::rel("C").rename([("i", "x")]);
        assert_eq!(
            schema(renamed.product(Expr::rel("C"))),
            Schema::new(["x", "i"])
        );
    }

    #[test]
    fn kernel_checks_target_and_result_schema() {
        let db = walk_db();
        let walk = Interpretation::new().with("C", walk_step());
        assert!(CompiledKernel::new(&walk, &db).is_ok());
        let bad = Interpretation::new().with("C", Expr::rel("E"));
        assert!(matches!(
            CompiledKernel::new(&bad, &db),
            Err(AlgebraError::SchemaMismatch { .. })
        ));
        let missing = Interpretation::new().with("Z", Expr::rel("E"));
        assert!(matches!(
            CompiledKernel::new(&missing, &db),
            Err(AlgebraError::MissingRelation(_))
        ));
    }

    /// Kernels are checked in name order, and a kernel's missing target
    /// is reported ahead of the errors in its own expression.
    #[test]
    fn missing_target_precedes_expression_errors() {
        let db = walk_db();
        let first_missing = Interpretation::new()
            .with("A", Expr::rel("E").project(["zz"]))
            .with("C", Expr::rel("Q"));
        assert_eq!(
            CompiledKernel::new(&first_missing, &db).err(),
            Some(AlgebraError::MissingRelation("A".to_string()))
        );
        let last_missing = Interpretation::new()
            .with("C", Expr::rel("Q"))
            .with("Z", Expr::rel("E").project(["zz"]));
        assert_eq!(
            CompiledKernel::new(&last_missing, &db).err(),
            Some(AlgebraError::MissingRelation("Q".to_string()))
        );
    }

    #[test]
    fn ill_formed_kernels_are_rejected() {
        let db = Database::new()
            .with(
                "Pick",
                Relation::from_rows(Schema::new(["node"]), [tuple![1]]),
            )
            .with(
                "W",
                Relation::from_rows(Schema::new(["node", "w"]), [tuple![1, 1]]),
            );
        let interp = Interpretation::new().with(
            "Pick",
            Expr::rel("W").repair_key([] as [&str; 0], Some("w")),
        );
        assert!(matches!(
            CompiledKernel::new(&interp, &db),
            Err(AlgebraError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn prefix_joins_and_indexed_joins_agree() {
        // E's leading column is the join column (a prefix scan); F's
        // join column is its second one (a per-call index).
        let db = Database::new()
            .with(
                "C",
                Relation::from_rows(Schema::new(["i"]), [tuple![1], tuple![2]]),
            )
            .with(
                "E",
                Relation::from_rows(
                    Schema::new(["i", "j"]),
                    [tuple![1, 5], tuple![2, 6], tuple![3, 7]],
                ),
            )
            .with(
                "F",
                Relation::from_rows(
                    Schema::new(["j", "i"]),
                    [tuple![5, 1], tuple![6, 2], tuple![7, 3]],
                ),
            );
        let via = |rel: &str| {
            let interp = Interpretation::new().with(
                "C",
                Expr::rel("C")
                    .join(Expr::rel(rel))
                    .project(["j"])
                    .rename([("j", "i")]),
            );
            let kernel = CompiledKernel::new(&interp, &db).unwrap();
            only_successor(&kernel, &db)
        };
        let want = vec![Relation::from_rows(
            Schema::new(["i"]),
            [tuple![5], tuple![6]],
        )];
        assert_eq!(via("E"), want);
        assert_eq!(via("F"), want);
    }
}
