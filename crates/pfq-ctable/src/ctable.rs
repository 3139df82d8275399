//! pc-tables and pc-databases: conditioned tuples plus a joint variable
//! distribution, with exact world enumeration and world sampling.

use crate::condition::Condition;
use crate::var::{enumerate_valuations, sample_valuation, RandomVariable, Valuation};
use pfq_data::{Database, Relation, Schema, Tuple};
use pfq_num::Distribution;
use rand::Rng;
use std::collections::BTreeSet;
use std::fmt;

/// Errors from pc-table construction or evaluation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CtableError {
    /// A condition references a variable not declared in the database.
    UndeclaredVariable(String),
    /// A variable name was declared twice.
    DuplicateVariable(String),
    /// Condition evaluation failed.
    Eval(String),
}

impl fmt::Display for CtableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtableError::UndeclaredVariable(v) => {
                write!(f, "condition references undeclared variable {v:?}")
            }
            CtableError::DuplicateVariable(v) => write!(f, "variable {v:?} declared twice"),
            CtableError::Eval(msg) => write!(f, "condition evaluation failed: {msg}"),
        }
    }
}

impl std::error::Error for CtableError {}

/// One c-table: a relation whose tuples carry conditions.
#[derive(Clone, PartialEq, Debug)]
pub struct PcTable {
    schema: Schema,
    rows: Vec<(Tuple, Condition)>,
}

impl PcTable {
    /// An empty c-table with the given schema.
    pub fn new(schema: Schema) -> PcTable {
        PcTable {
            schema,
            rows: Vec::new(),
        }
    }

    /// Adds a conditioned tuple; panics on arity mismatch.
    pub fn add(&mut self, tuple: Tuple, condition: Condition) -> &mut Self {
        assert_eq!(
            tuple.arity(),
            self.schema.arity(),
            "tuple {tuple} has wrong arity for schema {}",
            self.schema
        );
        self.rows.push((tuple, condition));
        self
    }

    /// Builder-style [`add`](Self::add).
    pub fn with(mut self, tuple: Tuple, condition: Condition) -> PcTable {
        self.add(tuple, condition);
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The conditioned rows.
    pub fn rows(&self) -> &[(Tuple, Condition)] {
        &self.rows
    }

    /// All variables mentioned by any condition.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (_, c) in &self.rows {
            out.extend(c.variables());
        }
        out
    }

    /// Instantiates the table under a valuation: keeps exactly the tuples
    /// whose conditions hold.
    pub fn instantiate(&self, valuation: &Valuation) -> Result<Relation, CtableError> {
        let mut rel = Relation::empty(self.schema.clone());
        for (t, c) in &self.rows {
            if c.eval(valuation).map_err(CtableError::Eval)? {
                rel.insert(t.clone());
            }
        }
        Ok(rel)
    }
}

/// A probabilistic database given as pc-tables over shared independent
/// variables, plus optional certain (unconditioned) relations.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PcDatabase {
    variables: Vec<RandomVariable>,
    tables: Vec<(String, PcTable)>,
    certain: Database,
}

impl PcDatabase {
    /// An empty pc-database.
    pub fn new() -> PcDatabase {
        PcDatabase::default()
    }

    /// Declares a random variable; errors on duplicates.
    pub fn declare_variable(&mut self, var: RandomVariable) -> Result<(), CtableError> {
        if self.variables.iter().any(|v| v.name() == var.name()) {
            return Err(CtableError::DuplicateVariable(var.name().to_string()));
        }
        self.variables.push(var);
        Ok(())
    }

    /// Adds a pc-table under `name`.
    pub fn add_table(&mut self, name: impl Into<String>, table: PcTable) {
        self.tables.push((name.into(), table));
    }

    /// Adds a certain (unconditioned) relation under `name`.
    pub fn add_certain(&mut self, name: impl Into<String>, rel: Relation) {
        self.certain.set(name, rel);
    }

    /// The declared variables.
    pub fn variables(&self) -> &[RandomVariable] {
        &self.variables
    }

    /// The pc-tables.
    pub fn tables(&self) -> &[(String, PcTable)] {
        &self.tables
    }

    /// The certain relations.
    pub fn certain(&self) -> &Database {
        &self.certain
    }

    /// Checks that every condition only references declared variables.
    pub fn validate(&self) -> Result<(), CtableError> {
        let declared: BTreeSet<&str> = self.variables.iter().map(RandomVariable::name).collect();
        for (_, table) in &self.tables {
            for v in table.variables() {
                if !declared.contains(v.as_str()) {
                    return Err(CtableError::UndeclaredVariable(v));
                }
            }
        }
        Ok(())
    }

    /// Builds the database instance for one valuation.
    pub fn instantiate(&self, valuation: &Valuation) -> Result<Database, CtableError> {
        let mut db = self.certain.clone();
        for (name, table) in &self.tables {
            db.set(name.clone(), table.instantiate(valuation)?);
        }
        Ok(db)
    }

    /// The schema of relation `name` in every possible world: the last
    /// pc-table of that name, as in [`instantiate`](Self::instantiate),
    /// else the certain relation.
    pub fn schema(&self, name: &str) -> Option<&Schema> {
        match self.tables.iter().rev().find(|(table, _)| table == name) {
            Some((_, table)) => Some(table.schema()),
            None => self.certain.get(name).map(|r| r.schema()),
        }
    }

    /// The number of variable valuations, [`enumerate_worlds`]'s
    /// iteration count: the product of the variables' outcome counts,
    /// saturating at `usize::MAX`. Distinct valuations may yield equal
    /// worlds, so this bounds the distinct-world count from above.
    ///
    /// [`enumerate_worlds`]: Self::enumerate_worlds
    pub fn valuation_count(&self) -> usize {
        self.variables
            .iter()
            .fold(1, |acc, v| acc.saturating_mul(v.outcomes().len()))
    }

    /// Exactly enumerates the distribution over possible worlds —
    /// exponential in the number of variables, as Proposition 4.4's
    /// PSPACE iteration implies.
    pub fn enumerate_worlds(&self) -> Result<Distribution<Database>, CtableError> {
        self.validate()?;
        enumerate_valuations(&self.variables).try_map(|val| self.instantiate(&val))
    }

    /// Samples one possible world.
    pub fn sample_world<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Database, CtableError> {
        self.validate()?;
        let val = sample_valuation(&self.variables, rng);
        self.instantiate(&val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::{tuple, Value};
    use pfq_num::Ratio;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The paper's reduction-style table: A(l) holds literal l, with
    /// A(v) ⇔ x = 0 and A(¬v) ⇔ x = 1.
    fn literal_db() -> PcDatabase {
        let mut db = PcDatabase::new();
        db.declare_variable(RandomVariable::fair_coin("x")).unwrap();
        let table = PcTable::new(Schema::new(["l"]))
            .with(tuple!["v"], Condition::eq("x", 0))
            .with(tuple!["not_v"], Condition::eq("x", 1));
        db.add_table("A", table);
        db
    }

    #[test]
    fn two_worlds_each_half() {
        let worlds = literal_db().enumerate_worlds().unwrap();
        assert_eq!(worlds.support_size(), 2);
        assert!(worlds.is_proper());
        for (w, p) in worlds.iter() {
            assert_eq!(w.get("A").unwrap().len(), 1);
            assert_eq!(p, &Ratio::new(1, 2));
        }
    }

    #[test]
    fn certain_relations_in_every_world() {
        let mut db = literal_db();
        db.add_certain(
            "O",
            Relation::from_rows(Schema::new(["c1", "c2"]), [tuple![1, 2]]),
        );
        let worlds = db.enumerate_worlds().unwrap();
        for (w, _) in worlds.iter() {
            assert_eq!(w.get("O").unwrap().len(), 1);
        }
    }

    #[test]
    fn schema_follows_the_world_layout() {
        // A table overrides a certain relation of its name, and of two
        // tables with one name the last wins, as in `instantiate`.
        let mut db = literal_db();
        db.add_certain("A", Relation::empty(Schema::new(["c1", "c2"])));
        db.add_certain("O", Relation::empty(Schema::new(["c1", "c2"])));
        db.add_table("A", PcTable::new(Schema::new(["m", "n", "o"])));
        let world = db
            .instantiate(&Valuation::from([("x".to_string(), Value::Int(0))]))
            .unwrap();
        for name in ["A", "O"] {
            assert_eq!(db.schema(name), Some(world.get(name).unwrap().schema()));
        }
        assert_eq!(db.schema("A").unwrap().arity(), 3);
        assert_eq!(db.schema("missing"), None);
    }

    #[test]
    fn shared_variable_correlates_tuples() {
        // Both tuples conditioned on the same variable: worlds have both
        // or neither, never exactly one.
        let mut db = PcDatabase::new();
        db.declare_variable(RandomVariable::fair_coin("x")).unwrap();
        let table = PcTable::new(Schema::new(["v"]))
            .with(tuple![1], Condition::eq("x", 1))
            .with(tuple![2], Condition::eq("x", 1));
        db.add_table("R", table);
        let worlds = db.enumerate_worlds().unwrap();
        assert_eq!(worlds.support_size(), 2);
        for (w, _) in worlds.iter() {
            let n = w.get("R").unwrap().len();
            assert!(n == 0 || n == 2);
        }
    }

    #[test]
    fn negated_and_compound_conditions() {
        let mut db = PcDatabase::new();
        db.declare_variable(RandomVariable::fair_coin("x")).unwrap();
        db.declare_variable(RandomVariable::fair_coin("y")).unwrap();
        let table = PcTable::new(Schema::new(["v"])).with(
            tuple![1],
            Condition::eq("x", 1).and(Condition::eq("y", 1).not()),
        );
        db.add_table("R", table);
        let worlds = db.enumerate_worlds().unwrap();
        let p = worlds.probability_that(|w| !w.get("R").unwrap().is_empty());
        assert_eq!(p, Ratio::new(1, 4));
    }

    #[test]
    fn undeclared_variable_rejected() {
        let mut db = PcDatabase::new();
        let table = PcTable::new(Schema::new(["v"])).with(tuple![1], Condition::eq("ghost", 0));
        db.add_table("R", table);
        assert_eq!(
            db.enumerate_worlds().unwrap_err(),
            CtableError::UndeclaredVariable("ghost".to_string())
        );
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut db = PcDatabase::new();
        db.declare_variable(RandomVariable::fair_coin("x")).unwrap();
        assert_eq!(
            db.declare_variable(RandomVariable::fair_coin("x")),
            Err(CtableError::DuplicateVariable("x".to_string()))
        );
    }

    #[test]
    fn sampling_matches_enumeration() {
        let db = literal_db();
        let worlds = db.enumerate_worlds().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 10_000;
        let v_world = worlds
            .iter()
            .find(|(w, _)| w.get("A").unwrap().contains(&tuple!["v"]))
            .map(|(w, _)| w.clone())
            .unwrap();
        let hits = (0..n)
            .filter(|_| db.sample_world(&mut rng).unwrap() == v_world)
            .count();
        assert!((hits as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn n_variables_give_2n_worlds() {
        let mut db = PcDatabase::new();
        let mut table = PcTable::new(Schema::new(["l"]));
        for i in 0..5 {
            db.declare_variable(RandomVariable::fair_coin(format!("x{i}")))
                .unwrap();
            table.add(tuple![i], Condition::eq(format!("x{i}"), 1));
        }
        db.add_table("A", table);
        let worlds = db.enumerate_worlds().unwrap();
        assert_eq!(worlds.support_size(), 32);
        assert!(worlds.is_proper());
        let all_in = worlds.probability_that(|w| w.get("A").unwrap().len() == 5);
        assert_eq!(all_in, Ratio::new(1, 32));
    }

    #[test]
    fn value_typed_variables() {
        let mut db = PcDatabase::new();
        db.declare_variable(RandomVariable::new(
            "team",
            [
                (Value::str("lakers"), Ratio::new(17, 20)),
                (Value::str("knicks"), Ratio::new(3, 20)),
            ],
        ))
        .unwrap();
        let table = PcTable::new(Schema::new(["player", "team"]))
            .with(tuple!["bryant", "lakers"], Condition::eq("team", "lakers"))
            .with(tuple!["bryant", "knicks"], Condition::eq("team", "knicks"));
        db.add_table("R", table);
        let worlds = db.enumerate_worlds().unwrap();
        let p =
            worlds.probability_that(|w| w.get("R").unwrap().contains(&tuple!["bryant", "lakers"]));
        assert_eq!(p, Ratio::new(17, 20));
    }
}
