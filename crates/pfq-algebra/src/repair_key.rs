//! The `repair-key` operator (paper §2.2).
//!
//! `repair-key A⃗@P(R)` groups the tuples of `R` by their `A⃗`-value and,
//! independently per group, keeps exactly one tuple, chosen with
//! probability proportional to its (strictly positive) `P`-weight. The
//! result is a *distribution over sub-relations* of `R` — one possible
//! world per combination of per-group choices, with probability the
//! product of the normalized choice weights.

use crate::AlgebraError;
use pfq_data::{Relation, Schema, Tuple};
use pfq_num::{Distribution, Ratio};
use rand::Rng;
use std::collections::BTreeMap;

/// The choice groups of one `repair-key` application: the input's
/// tuples grouped by key value, in key order, each with its weights.
/// Compiled kernels build these once for an input that never changes
/// and draw from them at every step.
pub(crate) struct Groups {
    /// Schema of the input, and so of every repair.
    schema: Schema,
    groups: Vec<Group>,
}

/// A weighted choice group: the tuples sharing one key value.
struct Group {
    /// The tuples, in tuple order.
    tuples: Vec<Tuple>,
    /// Their weights, aligned with `tuples`.
    weights: Vec<Ratio>,
    /// Sum of the weights (for normalization).
    total: Ratio,
}

impl Groups {
    /// Groups the tuples of `rel` by the columns at `key` and weighs each
    /// by the column at `weight` (uniformly if `None`). `schema` names
    /// the repairs' columns.
    pub(crate) fn new(
        rel: &Relation,
        schema: &Schema,
        key: &[usize],
        weight: Option<usize>,
    ) -> Result<Groups, AlgebraError> {
        let mut groups: BTreeMap<Tuple, Group> = BTreeMap::new();
        for t in rel.iter() {
            let w = match weight {
                Some(i) => t.get(i).as_weight().map_err(AlgebraError::BadWeight)?,
                None => Ratio::one(),
            };
            let g = groups.entry(t.project(key)).or_insert_with(|| Group {
                tuples: Vec::new(),
                weights: Vec::new(),
                total: Ratio::zero(),
            });
            g.total = g.total.add_ref(&w);
            g.tuples.push(t.clone());
            g.weights.push(w);
        }
        Ok(Groups {
            schema: schema.clone(),
            groups: groups.into_values().collect(),
        })
    }

    /// Every repair with its probability; `limit` bounds the worlds
    /// carried after each group.
    pub(crate) fn enumerate(
        &self,
        limit: Option<usize>,
    ) -> Result<Distribution<Relation>, AlgebraError> {
        let mut worlds = Distribution::singleton(Relation::empty(self.schema.clone()));
        for g in &self.groups {
            let choice: Distribution<&Tuple> = g
                .tuples
                .iter()
                .zip(&g.weights)
                .map(|(t, w)| (t, w.div_ref(&g.total)))
                .collect();
            worlds = worlds.product(&choice, |world, t| {
                let mut w = world.clone();
                w.insert((*t).clone());
                w
            });
            if let Some(limit) = limit {
                if worlds.support_size() > limit {
                    return Err(AlgebraError::WorldLimitExceeded { limit });
                }
            }
        }
        Ok(worlds)
    }

    /// One repair, drawing one `u64` per group in key order (a group
    /// with a single choice still draws). The picks come in key order,
    /// which is not tuple order when the key is not the leading column,
    /// so they are sorted once rather than inserted one by one.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Relation {
        let picked = self.groups.iter().map(|g| {
            let i = pfq_num::dist::pick_weighted_index(&g.weights, rng.gen::<u64>());
            g.tuples[i].clone()
        });
        Relation::from_rows(self.schema.clone(), picked)
    }
}

/// Resolves `key` and `weight` to column positions of `rel` and groups it.
fn group(rel: &Relation, key: &[String], weight: Option<&str>) -> Result<Groups, AlgebraError> {
    let schema = rel.schema();
    let key_idx = schema.indices_of(key).map_err(|_| missing(key, rel))?;
    let weight_idx = match weight {
        Some(w) => Some(
            schema
                .index_of(w)
                .ok_or_else(|| AlgebraError::MissingColumn {
                    column: w.to_string(),
                    schema: schema.to_string(),
                })?,
        ),
        None => None,
    };
    Groups::new(rel, schema, &key_idx, weight_idx)
}

fn missing(key: &[String], rel: &Relation) -> AlgebraError {
    let schema = rel.schema();
    let col = key
        .iter()
        .find(|c| !schema.contains(c))
        .cloned()
        .unwrap_or_default();
    AlgebraError::MissingColumn {
        column: col,
        schema: schema.to_string(),
    }
}

/// Exactly enumerates all repairs of `rel` with their probabilities.
///
/// The number of worlds is the product of the group sizes — exponential in
/// general; `limit` (if given) aborts enumeration with
/// [`AlgebraError::WorldLimitExceeded`] once exceeded.
pub fn enumerate_repairs(
    rel: &Relation,
    key: &[String],
    weight: Option<&str>,
    limit: Option<usize>,
) -> Result<Distribution<Relation>, AlgebraError> {
    group(rel, key, weight)?.enumerate(limit)
}

/// Samples one repair of `rel`, choosing independently per group.
pub fn sample_repair<R: Rng + ?Sized>(
    rel: &Relation,
    key: &[String],
    weight: Option<&str>,
    rng: &mut R,
) -> Result<Relation, AlgebraError> {
    Ok(group(rel, key, weight)?.sample(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfq_data::{tuple, Schema, Value};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The paper's Table 2: basketball players with belief weights.
    fn basketball() -> Relation {
        Relation::from_rows(
            Schema::new(["player", "team", "belief"]),
            [
                tuple!["bryant", "lakers", 17],
                tuple!["bryant", "knicks", 3],
                tuple!["iverson", "sixers", 8],
                tuple!["iverson", "grizzlies", 7],
            ],
        )
    }

    #[test]
    fn example_2_2_world_probabilities() {
        let worlds =
            enumerate_repairs(&basketball(), &["player".into()], Some("belief"), None).unwrap();
        assert_eq!(worlds.support_size(), 4);
        assert!(worlds.is_proper());
        // P(bryant→lakers, iverson→sixers) = 17/20 · 8/15 = 136/300 = 34/75.
        let world = Relation::from_rows(
            Schema::new(["player", "team", "belief"]),
            [
                tuple!["bryant", "lakers", 17],
                tuple!["iverson", "sixers", 8],
            ],
        );
        assert_eq!(worlds.mass(&world), Ratio::new(34, 75));
    }

    #[test]
    fn uniform_when_no_weight_column() {
        let r = Relation::from_rows(
            Schema::new(["k", "v"]),
            [tuple![1, 10], tuple![1, 20], tuple![1, 30]],
        );
        let worlds = enumerate_repairs(&r, &["k".into()], None, None).unwrap();
        assert_eq!(worlds.support_size(), 3);
        for (_, p) in worlds.iter() {
            assert_eq!(p, &Ratio::new(1, 3));
        }
    }

    #[test]
    fn empty_key_selects_single_tuple() {
        // repair-key∅@P(R): one group containing everything.
        let r = Relation::from_rows(
            Schema::new(["v", "p"]),
            [tuple![1, Value::frac(1, 4)], tuple![2, Value::frac(3, 4)]],
        );
        let worlds = enumerate_repairs(&r, &[], Some("p"), None).unwrap();
        assert_eq!(worlds.support_size(), 2);
        let w1 = Relation::from_rows(Schema::new(["v", "p"]), [tuple![1, Value::frac(1, 4)]]);
        assert_eq!(worlds.mass(&w1), Ratio::new(1, 4));
    }

    #[test]
    fn empty_relation_has_single_empty_world() {
        let r = Relation::empty(Schema::new(["k", "v"]));
        let worlds = enumerate_repairs(&r, &["k".into()], None, None).unwrap();
        assert_eq!(worlds.support_size(), 1);
        assert!(worlds.is_proper());
        let (only, _) = worlds.iter().next().unwrap();
        assert!(only.is_empty());
    }

    #[test]
    fn bad_weight_errors() {
        let r = Relation::from_rows(Schema::new(["k", "p"]), [tuple![1, 0]]);
        assert!(matches!(
            enumerate_repairs(&r, &["k".into()], Some("p"), None),
            Err(AlgebraError::BadWeight(_))
        ));
        let r = Relation::from_rows(Schema::new(["k", "p"]), [tuple![1, "oops"]]);
        assert!(matches!(
            enumerate_repairs(&r, &["k".into()], Some("p"), None),
            Err(AlgebraError::BadWeight(_))
        ));
    }

    #[test]
    fn world_limit_enforced() {
        // 2^10 worlds from 10 binary groups.
        let mut r = Relation::empty(Schema::new(["k", "v"]));
        for k in 0..10 {
            r.insert(tuple![k, 0]);
            r.insert(tuple![k, 1]);
        }
        assert!(matches!(
            enumerate_repairs(&r, &["k".into()], None, Some(100)),
            Err(AlgebraError::WorldLimitExceeded { limit: 100 })
        ));
        let ok = enumerate_repairs(&r, &["k".into()], None, Some(2000)).unwrap();
        assert_eq!(ok.support_size(), 1024);
        assert!(ok.is_proper());
    }

    #[test]
    fn sampled_frequencies_match_enumeration() {
        let rel = basketball();
        let worlds = enumerate_repairs(&rel, &["player".into()], Some("belief"), None).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 20_000;
        let mut counts: BTreeMap<Relation, usize> = BTreeMap::new();
        for _ in 0..n {
            let s = sample_repair(&rel, &["player".into()], Some("belief"), &mut rng).unwrap();
            *counts.entry(s).or_default() += 1;
        }
        for (world, p) in worlds.iter() {
            let freq = *counts.get(world).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (freq - p.to_f64()).abs() < 0.02,
                "world frequency {freq} far from probability {}",
                p.to_f64()
            );
        }
    }

    #[test]
    fn sample_always_one_tuple_per_group() {
        let rel = basketball();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            let s = sample_repair(&rel, &["player".into()], Some("belief"), &mut rng).unwrap();
            assert_eq!(s.len(), 2); // one per player
        }
    }
}
