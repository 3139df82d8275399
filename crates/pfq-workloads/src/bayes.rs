//! Bayesian networks in probabilistic datalog — Example 3.10.
//!
//! A network over boolean variables with in-degree ≤ K is encoded in the
//! paper's relations `S_k(N0, …, Nk)` (parent lists) and
//! `T_k(N0, V0, V1, …, Vk, P)` (conditional probability tables); the
//! K+1-rule program assigns every variable exactly one value per
//! possible world, and marginals are probabilities of query events.

use pfq_core::{DatalogQuery, Event};
use pfq_data::{Database, Relation, Schema, Tuple, Value};
use pfq_num::Ratio;
use rand::Rng;

/// A Bayesian network over boolean variables `0..n`.
///
/// Invariant (checked in [`BayesNet::new`]): `parents[i]` only references
/// smaller indices, so the network is a DAG in topological order, and
/// each CPT row set is a proper conditional distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct BayesNet {
    /// `parents[i]`: the parent indices of variable `i` (all `< i`).
    pub parents: Vec<Vec<usize>>,
    /// `cpt[i]`: for each parent-assignment bitmask `m` (bit `b` is the
    /// value of `parents[i][b]`), the probability that variable `i` is 1.
    pub cpt: Vec<Vec<Ratio>>,
}

impl BayesNet {
    /// Builds a network, validating the DAG order and CPT shapes.
    pub fn new(parents: Vec<Vec<usize>>, cpt: Vec<Vec<Ratio>>) -> BayesNet {
        assert_eq!(parents.len(), cpt.len());
        for (i, ps) in parents.iter().enumerate() {
            assert!(
                ps.iter().all(|&p| p < i),
                "variable {i}: parents must have smaller indices (topological order)"
            );
            assert_eq!(
                cpt[i].len(),
                1 << ps.len(),
                "variable {i}: CPT must have one row per parent assignment"
            );
            for p in &cpt[i] {
                assert!(
                    p.is_probability(),
                    "variable {i}: CPT entry {p} outside [0, 1]"
                );
            }
        }
        BayesNet { parents, cpt }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether the network has no variables.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Maximum in-degree K.
    pub fn max_in_degree(&self) -> usize {
        self.parents.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// A random network: variable `i` gets up to `max_k` parents drawn
    /// from `0..i`, and CPT entries uniform over `{1/8, …, 7/8}`.
    pub fn random<R: Rng + ?Sized>(n: usize, max_k: usize, rng: &mut R) -> BayesNet {
        let mut parents = Vec::with_capacity(n);
        let mut cpt = Vec::with_capacity(n);
        for i in 0..n {
            let k = rng.gen_range(0..=max_k.min(i));
            let mut ps: Vec<usize> = Vec::new();
            while ps.len() < k {
                let p = rng.gen_range(0..i);
                if !ps.contains(&p) {
                    ps.push(p);
                }
            }
            ps.sort_unstable();
            let rows = (0..(1 << ps.len()))
                .map(|_| Ratio::new(rng.gen_range(1..=7), 8))
                .collect();
            parents.push(ps);
            cpt.push(rows);
        }
        BayesNet::new(parents, cpt)
    }

    /// The exact joint probability of a full assignment (bit `i` of
    /// `assignment` is the value of variable `i`).
    pub fn joint_probability(&self, assignment: u64) -> Ratio {
        let mut p = Ratio::one();
        for i in 0..self.len() {
            let mut mask = 0usize;
            for (b, &par) in self.parents[i].iter().enumerate() {
                if assignment >> par & 1 == 1 {
                    mask |= 1 << b;
                }
            }
            let p1 = &self.cpt[i][mask];
            let factor = if assignment >> i & 1 == 1 {
                p1.clone()
            } else {
                Ratio::one().sub_ref(p1)
            };
            p = p.mul_ref(&factor);
        }
        p
    }

    /// Brute-force reference: the exact marginal probability that all
    /// `(variable, value)` pairs hold, by summing the joint over all
    /// 2ⁿ assignments.
    pub fn marginal_reference(&self, observed: &[(usize, bool)]) -> Ratio {
        let n = self.len();
        assert!(n <= 24, "brute force only supports small networks");
        let mut total = Ratio::zero();
        for assignment in 0..1u64 << n {
            if observed
                .iter()
                .all(|&(v, val)| (assignment >> v & 1 == 1) == val)
            {
                total = total.add_ref(&self.joint_probability(assignment));
            }
        }
        total
    }

    /// The paper's relational encoding: `S_k` and `T_k` relations for
    /// every in-degree `k` occurring in the network.
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        let max_k = self.max_in_degree();
        for k in 0..=max_k {
            // S_k(n0, n1, …, nk)
            let s_cols: Vec<String> = (0..=k).map(|i| format!("n{i}")).collect();
            let mut s = Relation::empty(Schema::new(s_cols));
            // T_k(n0, v0, v1, …, vk, p)
            let mut t_cols = vec!["n0".to_string(), "v0".to_string()];
            t_cols.extend((1..=k).map(|i| format!("v{i}")));
            t_cols.push("p".to_string());
            let mut t = Relation::empty(Schema::new(t_cols));

            for (i, ps) in self.parents.iter().enumerate() {
                if ps.len() != k {
                    continue;
                }
                let mut s_row = vec![Value::int(i as i64)];
                s_row.extend(ps.iter().map(|&p| Value::int(p as i64)));
                s.insert(Tuple::new(s_row));
                for mask in 0..(1usize << k) {
                    let p1 = &self.cpt[i][mask];
                    for v0 in [0i64, 1] {
                        let p = if v0 == 1 {
                            p1.clone()
                        } else {
                            Ratio::one().sub_ref(p1)
                        };
                        if p.is_zero() {
                            continue; // zero-probability rows are omitted
                        }
                        let mut row = vec![Value::int(i as i64), Value::int(v0)];
                        row.extend((0..k).map(|b| Value::int((mask >> b & 1) as i64)));
                        row.push(Value::ratio(p));
                        t.insert(Tuple::new(row));
                    }
                }
            }
            db.set(format!("S{k}"), s);
            db.set(format!("T{k}"), t);
        }
        db
    }

    /// The Example 3.10 program for networks of in-degree ≤ `max_k`:
    /// one rule per `k`, assigning `V(N0, V0)` with the CPT weights.
    pub fn program(&self) -> pfq_datalog::Program {
        let max_k = self.max_in_degree();
        let mut src = String::new();
        for k in 0..=max_k {
            // V(N0!, V0_) @P :- Tk(N0, V0_, V1_, …, Vk_, P),
            //                   Sk(N0, N1, …, Nk),
            //                   V(N1, V1_), …, V(Nk, Vk_).
            let t_args: Vec<String> = ["N0".to_string(), "W0".to_string()]
                .into_iter()
                .chain((1..=k).map(|i| format!("W{i}")))
                .chain(["P".to_string()])
                .collect();
            let s_args: Vec<String> = (0..=k).map(|i| format!("N{i}")).collect();
            let mut body = vec![
                format!("T{k}({})", t_args.join(", ")),
                format!("S{k}({})", s_args.join(", ")),
            ];
            for i in 1..=k {
                body.push(format!("V(N{i}, W{i})"));
            }
            src.push_str(&format!("V(N0!, W0) @P :- {}.\n", body.join(", ")));
        }
        pfq_datalog::parse_program(&src).expect("generated program parses")
    }

    /// The marginal query `Pr[∧ (variable = value)]` as an inflationary
    /// datalog query (the `q ← V(X, x), V(Y, y)` rule of Example 3.10).
    pub fn marginal_query(&self, observed: &[(usize, bool)]) -> DatalogQuery {
        let mut program = self.program();
        let body: Vec<String> = observed
            .iter()
            .map(|&(v, val)| format!("V({}, {})", v, val as i64))
            .collect();
        let q_src = format!("Q :- {}.", body.join(", "));
        let q_rules = pfq_datalog::parse_program(&q_src).expect("query rule parses");
        program.rules.extend(q_rules.rules);
        DatalogQuery::new(program, Event::non_empty("Q"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::tree_probability;

    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The classic two-node net: rain → sprinkler-ish chain.
    /// Pr[x0 = 1] = 1/4; Pr[x1 = 1 | x0] = 3/4 if x0 else 1/4.
    fn two_node() -> BayesNet {
        BayesNet::new(
            vec![vec![], vec![0]],
            vec![
                vec![Ratio::new(1, 4)],
                vec![Ratio::new(1, 4), Ratio::new(3, 4)],
            ],
        )
    }

    #[test]
    fn joint_probability_hand_check() {
        let net = two_node();
        // Pr[x0=1, x1=1] = 1/4 · 3/4 = 3/16.
        assert_eq!(net.joint_probability(0b11), Ratio::new(3, 16));
        // Pr[x0=0, x1=0] = 3/4 · 3/4 = 9/16.
        assert_eq!(net.joint_probability(0b00), Ratio::new(9, 16));
        // Sums to 1 over all assignments.
        let total: Ratio = (0..4u64).map(|a| net.joint_probability(a)).sum();
        assert!(total.is_one());
    }

    #[test]
    fn marginal_reference_hand_check() {
        let net = two_node();
        assert_eq!(net.marginal_reference(&[(0, true)]), Ratio::new(1, 4));
        // Pr[x1=1] = 1/4·3/4 + 3/4·1/4 = 6/16 = 3/8.
        assert_eq!(net.marginal_reference(&[(1, true)]), Ratio::new(3, 8));
        assert_eq!(net.marginal_reference(&[]), Ratio::one());
    }

    #[test]
    fn datalog_marginal_matches_brute_force() {
        let net = two_node();
        let db = net.to_database();
        for observed in [
            vec![(0usize, true)],
            vec![(1, true)],
            vec![(0, true), (1, true)],
            vec![(0, false), (1, true)],
        ] {
            let q = net.marginal_query(&observed);
            let got = tree_probability(&q, &db);
            let want = net.marginal_reference(&observed);
            assert_eq!(got, want, "observed {observed:?}");
        }
    }

    #[test]
    fn random_network_matches_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let net = BayesNet::random(4, 2, &mut rng);
        let db = net.to_database();
        let q = net.marginal_query(&[(3, true)]);
        let got = tree_probability(&q, &db);
        assert_eq!(got, net.marginal_reference(&[(3, true)]));
    }

    #[test]
    fn random_networks_are_well_formed() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for n in [1, 3, 6] {
            let net = BayesNet::random(n, 3, &mut rng);
            assert_eq!(net.len(), n);
            assert!(net.max_in_degree() <= 3);
            let total: Ratio = (0..1u64 << n).map(|a| net.joint_probability(a)).sum();
            assert!(total.is_one());
        }
    }

    #[test]
    fn encoding_shapes() {
        let net = two_node();
        let db = net.to_database();
        assert_eq!(db.get("S0").unwrap().len(), 1); // variable 0
        assert_eq!(db.get("S1").unwrap().len(), 1); // variable 1
        assert_eq!(db.get("T0").unwrap().len(), 2); // v0 ∈ {0, 1}
        assert_eq!(db.get("T1").unwrap().len(), 4); // v0 × parent value
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn forward_parent_rejected() {
        BayesNet::new(
            vec![vec![1], vec![]],
            vec![vec![Ratio::new(1, 2); 2], vec![Ratio::new(1, 2)]],
        );
    }
}
