//! Seeded, size-bounded generation of valid probabilistic datalog
//! programs with matching input databases and query events.
//!
//! Every generated case is valid *by construction*: rules are range
//! restricted (safety), head variables are distinct (so the §3.3
//! non-inflationary translation applies), IDB arities are consistent,
//! every body relation is either a generated EDB relation or an IDB
//! relation defined by some head, and weight variables only ever bind
//! the dedicated weight column of an EDB relation, whose values are all
//! strictly positive (so repair-key normalization never fails).
//!
//! The shapes are biased toward what the paper exercises: repair-key
//! heads with partial key marks (§2.2 underlines), recursion through
//! the rule's own head relation and through earlier IDB relations
//! (multi-SCC chains), and — where legal — stratified-style negation
//! with all negated variables bound by the positive body.

use pfq_core::Event;
use pfq_data::{Database, Relation, Schema, Tuple, Value};
use pfq_datalog::eval::CompiledProgram;
use pfq_datalog::inflationary::{sample_fixpoint, EngineState};
use pfq_datalog::{Atom, Head, Program, Rule, Term};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// The variable pool for ordinary (join) variables. The weight variable
/// [`WEIGHT_VAR`] is deliberately *not* in this pool, so a weight
/// binding can never collide with a head or join variable.
const VARS: [&str; 4] = ["X", "Y", "Z", "W"];

/// The reserved weight variable of `@P` heads.
const WEIGHT_VAR: &str = "P";

/// Size knobs for the generator. All counts are inclusive upper bounds;
/// the generator draws each case's actual size uniformly below them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum rules per program.
    pub max_rules: usize,
    /// Maximum positive body atoms per rule.
    pub max_body_atoms: usize,
    /// Maximum EDB relations.
    pub max_edb_relations: usize,
    /// Maximum IDB relation *names* available for heads (the program
    /// only materializes the ones actually used).
    pub max_idb_relations: usize,
    /// Maximum tuples per EDB relation.
    pub max_edb_tuples: usize,
    /// Maximum data arity (EDB relations get one extra weight column).
    pub max_arity: usize,
    /// Whether to generate negated body atoms.
    pub negation: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_rules: 4,
            max_body_atoms: 2,
            max_edb_relations: 2,
            max_idb_relations: 3,
            max_edb_tuples: 3,
            max_arity: 2,
            negation: true,
        }
    }
}

impl GenConfig {
    /// Scales the default knobs by a single `--max-size` notion: `size`
    /// bounds the rule count, and the other knobs grow slowly with it.
    pub fn sized(size: usize) -> GenConfig {
        let size = size.max(1);
        GenConfig {
            max_rules: size,
            max_body_atoms: 2 + size / 4,
            max_edb_relations: (1 + size / 2).min(3),
            max_idb_relations: (1 + size / 2).min(4),
            max_edb_tuples: (2 + size / 2).min(5),
            max_arity: 2,
            negation: true,
        }
    }
}

/// One generated fuzz case: a valid program, its input database, and a
/// `t ∈ R` query event over an IDB relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// The (safety-checked) program.
    pub program: Program,
    /// The EDB input database.
    pub db: Database,
    /// The observed IDB relation of the event.
    pub event_relation: String,
    /// The observed tuple.
    pub event_tuple: Tuple,
}

impl FuzzCase {
    /// The query event, `event_tuple ∈ event_relation`.
    pub fn event(&self) -> Event {
        Event::tuple_in(self.event_relation.clone(), self.event_tuple.clone())
    }
}

/// The pool of ordinary data constants.
fn data_pool() -> Vec<Value> {
    vec![Value::int(1), Value::int(2), Value::str("a")]
}

/// The pool of weight-column constants — all strictly positive numerics
/// so any binding passes `as_weight`.
fn weight_pool() -> Vec<Value> {
    vec![
        Value::int(1),
        Value::int(2),
        Value::frac(1, 2),
        Value::frac(1, 3),
        Value::frac(3, 2),
    ]
}

fn pick<'a, T>(rng: &mut ChaCha8Rng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Generates one case from the given RNG. Deterministic: the same RNG
/// state and config always yield the same case.
///
/// Most cases are free-form draws from the grammar; a fixed fraction
/// follows the *confluent choice* idiom (whole-relation repair-key +
/// closure + guard), the shape whose computation trees converge on
/// shared engine states — the pattern that exercises frontier-mass
/// merging in the exact inflationary engine, which free-form draws hit
/// only rarely.
pub fn generate(cfg: &GenConfig, rng: &mut ChaCha8Rng) -> FuzzCase {
    if cfg.max_rules >= 3 && rng.gen_bool(0.2) {
        return generate_confluent(cfg, rng);
    }
    generate_freeform(cfg, rng)
}

fn generate_freeform(cfg: &GenConfig, rng: &mut ChaCha8Rng) -> FuzzCase {
    let data = data_pool();
    let weights = weight_pool();

    // --- EDB relations: `E{k}(c0, …, c{a-1})`, last column a weight. ---
    let n_edb = rng.gen_range(1..=cfg.max_edb_relations.max(1));
    let mut db = Database::new();
    let mut edb: Vec<(String, usize)> = Vec::new(); // (name, arity incl. weight)
    for k in 0..n_edb {
        let name = format!("E{k}");
        let data_arity = rng.gen_range(1..=cfg.max_arity.max(1));
        let arity = data_arity + 1;
        let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let n_tuples = rng.gen_range(1..=cfg.max_edb_tuples.max(1));
        let mut rel = Relation::empty(Schema::new(cols));
        for _ in 0..n_tuples {
            let mut vals: Vec<Value> = (0..data_arity).map(|_| pick(rng, &data).clone()).collect();
            vals.push(pick(rng, &weights).clone());
            rel.insert(Tuple::new(vals));
        }
        db.set(name.clone(), rel);
        edb.push((name, arity));
    }

    // --- IDB name pool with fixed arities; heads draw from it. ---
    let n_idb = rng.gen_range(1..=cfg.max_idb_relations.max(1));
    let idb: Vec<(String, usize)> = (0..n_idb)
        .map(|k| (format!("R{k}"), rng.gen_range(1..=cfg.max_arity.max(1))))
        .collect();

    // Head relation per rule, drawn up front so bodies may reference
    // *any* rule's head relation (forward references give multi-SCC
    // chains and mutual recursion).
    let n_rules = rng.gen_range(1..=cfg.max_rules.max(1));
    let head_picks: Vec<usize> = (0..n_rules).map(|_| rng.gen_range(0..idb.len())).collect();
    let defined: Vec<(String, usize)> = {
        let mut seen: Vec<usize> = Vec::new();
        for &i in &head_picks {
            if !seen.contains(&i) {
                seen.push(i);
            }
        }
        seen.sort_unstable();
        seen.iter().map(|&i| idb[i].clone()).collect()
    };

    let mut rules: Vec<Rule> = Vec::new();
    for &head_idx in &head_picks {
        let (head_rel, head_arity) = idb[head_idx].clone();
        rules.push(generate_rule(
            cfg, rng, &edb, &defined, &head_rel, head_arity, &data,
        ));
    }
    let program = Program::new(rules).expect("generated rules are safe by construction");

    // --- Query event over a defined IDB relation. ---
    let (event_relation, event_arity) = pick(rng, &defined).clone();
    let event_tuple = event_tuple(&program, &db, &event_relation, event_arity, &data, rng);

    FuzzCase {
        program,
        db,
        event_relation,
        event_tuple,
    }
}

/// The *confluent choice* idiom: a whole-relation repair-key over `E0`
/// (no key marks, so every possible world keeps exactly one tuple), a
/// closure rule that then re-derives every alternative, and a guard
/// over two specific choices. The guard's head relation `R0` compares
/// before the choice relation `R1`, so on the step where the closure
/// completes, every branch's engine state still sorts *before* the
/// shared successor they converge on — the scenario in which the
/// inflationary frontier must merge mass into a state that is already
/// enqueued.
fn generate_confluent(cfg: &GenConfig, rng: &mut ChaCha8Rng) -> FuzzCase {
    let weights = weight_pool();
    let mut pool = data_pool();
    let n = rng.gen_range(2..=pool.len());
    let mut chosen: Vec<Value> = Vec::new();
    for _ in 0..n {
        chosen.push(pool.remove(rng.gen_range(0..pool.len())));
    }

    let mut rel = Relation::empty(Schema::new(["c0", "c1"]));
    for v in &chosen {
        rel.insert(Tuple::new(vec![v.clone(), pick(rng, &weights).clone()]));
    }
    let mut db = Database::new();
    db.set("E0", rel);

    // R1(X) @P :- E0(X, P).   — one winner per world.
    let choice = Rule::with_negatives(
        Head::probabilistic(
            "R1",
            vec![Term::var("X")],
            vec![false],
            Some(WEIGHT_VAR.to_string()),
        ),
        vec![Atom::new("E0", vec![Term::var("X"), Term::var(WEIGHT_VAR)])],
        Vec::new(),
    );
    // R0(g) :- R1(a), R1(b).  — fires only once the closure completes.
    let guard = Rule::with_negatives(
        Head::deterministic("R0", vec![Term::Const(pick(rng, &chosen).clone())]),
        vec![
            Atom::new("R1", vec![Term::Const(chosen[0].clone())]),
            Atom::new("R1", vec![Term::Const(chosen[1].clone())]),
        ],
        Vec::new(),
    );
    // R1(Y) :- R1(X), E0(Y, W).  — re-derives every alternative.
    let closure = Rule::with_negatives(
        Head::deterministic("R1", vec![Term::var("Y")]),
        vec![
            Atom::new("R1", vec![Term::var("X")]),
            Atom::new("E0", vec![Term::var("Y"), Term::var("W")]),
        ],
        Vec::new(),
    );
    let mut rules = vec![choice, guard, closure];
    // Occasionally a free-form fourth rule for diversity.
    if cfg.max_rules > 3 && rng.gen_bool(0.3) {
        let edb = [("E0".to_string(), 2)];
        let defined = [("R0".to_string(), 1), ("R1".to_string(), 1)];
        let head = if rng.gen_bool(0.5) { "R0" } else { "R1" };
        rules.push(generate_rule(
            cfg,
            rng,
            &edb,
            &defined,
            head,
            1,
            &data_pool(),
        ));
    }
    let program = Program::new(rules).expect("confluent template rules are safe");

    let event_relation = if rng.gen_bool(0.5) { "R0" } else { "R1" }.to_string();
    let event_tuple = event_tuple(&program, &db, &event_relation, 1, &data_pool(), rng);
    FuzzCase {
        program,
        db,
        event_relation,
        event_tuple,
    }
}

/// Generates one safe rule with head relation `head_rel` of arity
/// `head_arity`. Body atoms draw from `edb` and the defined IDB heads.
fn generate_rule(
    cfg: &GenConfig,
    rng: &mut ChaCha8Rng,
    edb: &[(String, usize)],
    defined: &[(String, usize)],
    head_rel: &str,
    head_arity: usize,
    data: &[Value],
) -> Rule {
    // Ground facts: no body, all-constant head.
    if rng.gen_bool(0.2) {
        let values: Vec<Value> = (0..head_arity).map(|_| pick(rng, data).clone()).collect();
        return Rule::fact(head_rel, values);
    }

    // --- Positive body. ---
    let n_body = rng.gen_range(1..=cfg.max_body_atoms.max(1));
    let mut body: Vec<Atom> = Vec::new();
    for _ in 0..n_body {
        let (rel, arity, is_edb) = pick_body_relation(rng, edb, defined, head_rel);
        let terms: Vec<Term> = (0..arity)
            .map(|i| {
                if is_edb && i + 1 == arity {
                    // Weight column: always a variable, so joins on it
                    // never force spurious weight-value equalities and
                    // a weight binding stays available.
                    Term::var(*pick(rng, &VARS))
                } else if rng.gen_bool(0.75) {
                    Term::var(*pick(rng, &VARS))
                } else {
                    Term::Const(pick(rng, data).clone())
                }
            })
            .collect();
        body.push(Atom::new(rel, terms));
    }

    // --- Optional weight: bind `P` to the weight column of one EDB
    // body atom (overwriting whatever variable was there *before* head
    // terms are chosen, so the head can never depend on it). ---
    let edb_positions: Vec<usize> = body
        .iter()
        .enumerate()
        .filter(|(_, a)| edb.iter().any(|(n, _)| n == &a.relation))
        .map(|(i, _)| i)
        .collect();
    let weight = if !edb_positions.is_empty() && rng.gen_bool(0.5) {
        let at = *pick(rng, &edb_positions);
        let last = body[at].terms.len() - 1;
        body[at].terms[last] = Term::var(WEIGHT_VAR);
        Some(WEIGHT_VAR.to_string())
    } else {
        None
    };

    // --- Head terms: distinct bound variables or constants. ---
    let bound: Vec<String> = {
        let mut vars: Vec<String> = Vec::new();
        for a in &body {
            for v in a.variables() {
                if v != WEIGHT_VAR && !vars.iter().any(|w| w == v) {
                    vars.push(v.to_string());
                }
            }
        }
        vars
    };
    let mut available = bound.clone();
    let terms: Vec<Term> = (0..head_arity)
        .map(|_| {
            if !available.is_empty() && rng.gen_bool(0.75) {
                let i = rng.gen_range(0..available.len());
                Term::var(available.remove(i))
            } else {
                Term::Const(pick(rng, data).clone())
            }
        })
        .collect();

    // --- Repair-key marks. ---
    let head = if weight.is_some() || rng.gen_bool(0.4) {
        let keys: Vec<bool> = terms.iter().map(|_| rng.gen_bool(0.5)).collect();
        let h = Head::probabilistic(head_rel, terms.clone(), keys, weight);
        if h.is_renderable() {
            h
        } else {
            // A weightless choice with no keyed variable has no
            // concrete syntax — fall back to a deterministic head so
            // every generated program survives print → parse.
            Head::deterministic(head_rel, terms)
        }
    } else {
        Head::deterministic(head_rel, terms)
    };

    // --- Optional negated atom; all its variables must be bound. ---
    let negatives = if cfg.negation && rng.gen_bool(0.25) {
        let (rel, arity, _) = pick_body_relation(rng, edb, defined, head_rel);
        let terms: Vec<Term> = (0..arity)
            .map(|_| {
                if !bound.is_empty() && rng.gen_bool(0.6) {
                    Term::var(pick(rng, &bound).clone())
                } else {
                    Term::Const(pick(rng, data).clone())
                }
            })
            .collect();
        vec![Atom::new(rel, terms)]
    } else {
        Vec::new()
    };

    let rule = Rule::with_negatives(head, body, negatives);
    debug_assert!(rule.check_safety().is_ok(), "generator produced {rule}");
    rule
}

/// Picks a body relation: EDB relations, the rule's own head relation
/// (direct recursion bias), or any defined IDB head. Returns
/// `(name, arity, is_edb)`.
fn pick_body_relation(
    rng: &mut ChaCha8Rng,
    edb: &[(String, usize)],
    defined: &[(String, usize)],
    head_rel: &str,
) -> (String, usize, bool) {
    let roll = rng.gen::<f64>();
    if roll < 0.55 || defined.is_empty() {
        let (n, a) = pick(rng, edb).clone();
        (n, a, true)
    } else if roll < 0.75 {
        // Direct recursion through the head's own relation.
        let (n, a) = defined
            .iter()
            .find(|(n, _)| n == head_rel)
            .cloned()
            .unwrap_or_else(|| pick(rng, defined).clone());
        (n, a, false)
    } else {
        let (n, a) = pick(rng, defined).clone();
        (n, a, false)
    }
}

/// Chooses the event tuple: preferably a tuple the program can actually
/// derive (probed with one cheap sampled fixpoint run), else random
/// constants — events with probability strictly between 0 and 1 are the
/// interesting ones for differential checks.
fn event_tuple(
    program: &Program,
    db: &Database,
    relation: &str,
    arity: usize,
    data: &[Value],
    rng: &mut ChaCha8Rng,
) -> Tuple {
    let fixpoint = EngineState::initial(program, db).and_then(|(edb, start)| {
        let fixpoint = sample_fixpoint(&CompiledProgram::new(program), &edb, &start, rng, 64)?;
        Ok(fixpoint.database(&edb))
    });
    if let Ok(fixpoint) = fixpoint {
        if let Some(rel) = fixpoint.get(relation) {
            if !rel.is_empty() && rng.gen_bool(0.8) {
                let tuples: Vec<&Tuple> = rel.iter().collect();
                return (*pick(rng, &tuples)).clone();
            }
        }
    }
    Tuple::new(
        (0..arity)
            .map(|_| pick(rng, data).clone())
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_cases_are_valid() {
        for seed in 0..200 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let case = generate(&GenConfig::default(), &mut rng);
            // Safety re-validates.
            Program::new(case.program.rules.clone()).unwrap();
            // Every body relation resolves to an EDB relation in the
            // database or an IDB head.
            let idb = case.program.idb_relations();
            for rule in &case.program.rules {
                for atom in rule.body.iter().chain(rule.negatives.iter()) {
                    assert!(
                        case.db.get(&atom.relation).is_some()
                            || idb.contains(atom.relation.as_str()),
                        "unresolved relation {} in seed {seed}",
                        atom.relation
                    );
                }
            }
            // Consistent IDB arities.
            case.program.idb_arities().unwrap();
            // The event observes a defined IDB relation.
            assert!(idb.contains(case.event_relation.as_str()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&GenConfig::default(), &mut ChaCha8Rng::seed_from_u64(7));
        let b = generate(&GenConfig::default(), &mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn sized_config_scales() {
        let small = GenConfig::sized(1);
        let large = GenConfig::sized(8);
        assert_eq!(small.max_rules, 1);
        assert_eq!(large.max_rules, 8);
        assert!(large.max_edb_tuples > small.max_edb_tuples);
    }
}
