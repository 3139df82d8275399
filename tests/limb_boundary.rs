//! The boundary between inline and heap limbs of `BigUint`.
//!
//! A `BigUint` keeps up to two limbs inline and spills wider values to
//! the heap. Each value has one form whichever way it was built, so
//! equality, order and hashing — which key every memo and interner —
//! cannot tell the builds apart. These tests build 0, 1, 2⁶⁴ − 1, 2⁶⁴,
//! 2¹²⁸ − 1 and 2¹²⁸ by constructors, shifts and arithmetic that cross
//! the boundary in both directions, and compare every build.

use pfq::data::hash::FxHasher;
use pfq::num::BigUint;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The boundary values, in increasing order, as trimmed limbs.
fn boundary_values() -> Vec<Vec<u64>> {
    vec![
        vec![],
        vec![1],
        vec![u64::MAX],
        vec![0, 1],
        vec![u64::MAX, u64::MAX],
        vec![0, 0, 1],
    ]
}

fn hash_with<H: Hasher + Default>(v: &BigUint) -> u64 {
    let mut h = H::default();
    v.hash(&mut h);
    h.finish()
}

/// Every way this test builds the value whose trimmed limbs are `limbs`.
fn builds(limbs: &[u64]) -> Vec<(String, BigUint)> {
    let one = BigUint::one();
    let value = BigUint::from_limbs(limbs.to_vec());
    // Far above the boundary: 2²⁰⁰, and 2¹³⁰ + 3, which has no factor
    // in common with a power of two.
    let huge = one.shl_bits(200);
    let odd = one.shl_bits(130).add_ref(&BigUint::from(3u64));
    let mut padded = limbs.to_vec();
    padded.extend([0, 0]);
    let mut out = vec![
        (
            "from_limbs, trailing zeros".to_string(),
            BigUint::from_limbs(padded),
        ),
        ("shl 67, shr 67".into(), value.shl_bits(67).shr_bits(67)),
        ("shl 128, shr 128".into(), value.shl_bits(128).shr_bits(128)),
        (
            "+ 2^200 - 2^200".into(),
            value.add_ref(&huge).sub_ref(&huge),
        ),
        ("+ 1 - 1".into(), value.add_ref(&one).sub_ref(&one)),
        ("* odd / odd".into(), value.mul_ref(&odd).div_rem(&odd).0),
    ];
    if let Some(v) = value.to_u128() {
        out.push(("From<u128>".into(), BigUint::from(v)));
    }
    if let Some(v) = value.to_u64() {
        out.push(("From<u64>".into(), BigUint::from(v)));
    }
    if !value.is_zero() {
        out.push(("(v - 1) + 1".into(), value.sub_ref(&one).add_ref(&one)));
    }
    let word = one.shl_bits(64);
    let five = BigUint::from(5u64);
    let (q, r) = value.mul_ref(&word).add_ref(&five).div_rem(&word);
    assert_eq!(r, five);
    out.push(("(v * 2^64 + 5) / 2^64".into(), q));
    out
}

#[test]
fn every_build_of_a_boundary_value_is_the_same_value() {
    let values = boundary_values();
    for (i, limbs) in values.iter().enumerate() {
        let canonical = BigUint::from_limbs(limbs.clone());
        assert_eq!(canonical.limbs(), &limbs[..]);
        for (how, v) in builds(limbs) {
            assert_eq!(v, canonical, "{how} of {limbs:?}");
            assert_eq!(v.limbs(), &limbs[..], "{how} of {limbs:?}");
            assert_ne!(v.limbs().last(), Some(&0), "{how} of {limbs:?}");
            assert_eq!(
                hash_with::<FxHasher>(&v),
                hash_with::<FxHasher>(&canonical),
                "{how} of {limbs:?}"
            );
            assert_eq!(
                hash_with::<DefaultHasher>(&v),
                hash_with::<DefaultHasher>(&canonical),
                "{how} of {limbs:?}"
            );
            for (j, other) in values.iter().enumerate() {
                let other = BigUint::from_limbs(other.clone());
                assert_eq!(v.cmp(&other), i.cmp(&j), "{how} of {limbs:?}");
            }
        }
    }
}

#[test]
fn hashes_are_those_of_the_limb_vector() {
    // Maps keyed by numbers iterate in hash order, so the hash of a value
    // must not depend on where its limbs are stored.
    for limbs in boundary_values() {
        let v = BigUint::from_limbs(limbs.clone());
        assert_eq!(hash_with::<FxHasher>(&v), {
            let mut h = FxHasher::default();
            limbs.hash(&mut h);
            h.finish()
        });
        assert_eq!(hash_with::<DefaultHasher>(&v), {
            let mut h = DefaultHasher::default();
            limbs.hash(&mut h);
            h.finish()
        });
    }
}

#[test]
fn arithmetic_crosses_the_boundary_both_ways() {
    let one = BigUint::one();
    let word_max = BigUint::from(u64::MAX);
    let double_max = BigUint::from(u128::MAX);
    // Up: one limb to two, two to three.
    assert_eq!(word_max.add_ref(&one).limbs(), &[0, 1]);
    assert_eq!(double_max.add_ref(&one).limbs(), &[0, 0, 1]);
    assert_eq!(word_max.mul_ref(&word_max).limbs(), &[1, u64::MAX - 1]);
    assert_eq!(double_max.mul_ref(&double_max).limbs().len(), 4);
    // Down: three limbs to two, two to one, and to zero.
    let spilled = double_max.add_ref(&one);
    assert_eq!(spilled.sub_ref(&one), double_max);
    assert_eq!(spilled.shr_bits(64).limbs(), &[0, 1]);
    assert_eq!(spilled.div_rem(&spilled), (one.clone(), BigUint::zero()));
    assert_eq!(spilled.sub_ref(&spilled).limbs(), &[] as &[u64]);
    assert_eq!(
        double_max.mul_ref(&double_max).div_rem(&double_max),
        (double_max.clone(), BigUint::zero())
    );
    assert_eq!(word_max.add_ref(&one).sub_ref(&one), word_max);
    assert_eq!(
        spilled.cmp(&double_max).then(double_max.cmp(&word_max)),
        Ordering::Greater
    );
}
