//! Entropies of relations and the paper's special relations.
//!
//! Section 3.2: "Given a V-relation `P`, its entropy is the entropy of the
//! joint distribution on `V`, uniform on the support of `P`."  This module
//! computes that entropy (as an [`RealSetFunction`], since entropies of
//! arbitrary relations are irrational), builds the paper's special relations —
//! the two-tuple step relation `P_W`, the parity relation of Example B.4, and
//! group-characterizable relations from GF(2) vector spaces — and exposes the
//! correspondence between normal *functions* and normal *relations*
//! (Table 1): the entropy of a normal relation built from integral step
//! multiplicities is exactly the corresponding combination of step functions
//! with `log2` coefficients.

use crate::setfn::{all_masks, RealSetFunction};
use crate::stepfn::NormalFunction;
use bqc_arith::Rational;
use bqc_relational::{VRelation, Value};
use std::collections::BTreeMap;

/// Computes the entropy vector of the uniform distribution over the rows of a
/// relation.  The result has one value per subset of columns, in bits.
pub fn relation_entropy(relation: &VRelation) -> RealSetFunction {
    let columns = relation.columns().to_vec();
    let n = columns.len();
    let total = relation.len() as f64;
    let mut values = vec![0.0; 1 << n];
    if relation.is_empty() {
        return RealSetFunction::from_values(columns, values);
    }
    for mask in all_masks(n) {
        if mask == 0 {
            continue;
        }
        let indices: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let mut counts: BTreeMap<Vec<&Value>, usize> = BTreeMap::new();
        for row in relation.rows() {
            let key: Vec<&Value> = indices.iter().map(|&i| &row[i]).collect();
            *counts.entry(key).or_insert(0) += 1;
        }
        let mut entropy = 0.0;
        for &count in counts.values() {
            let p = count as f64 / total;
            entropy -= p * p.log2();
        }
        values[mask as usize] = entropy;
    }
    RealSetFunction::from_values(columns, values)
}

/// The parity relation of Example B.4:
/// `P = {(x, y, z) ∈ {0,1}³ : x ⊕ y ⊕ z = 0}`, whose entropy is the parity
/// function (1 on singletons, 2 elsewhere) — an entropic function that is
/// **not** normal.
pub fn parity_relation(columns: [&str; 3]) -> VRelation {
    let cols: Vec<String> = columns.iter().map(|s| s.to_string()).collect();
    let mut rel = VRelation::new(cols);
    for x in 0..2i64 {
        for y in 0..2i64 {
            rel.insert(vec![Value::int(x), Value::int(y), Value::int(x ^ y)]);
        }
    }
    rel
}

/// A group-characterizable relation from GF(2) vector spaces (a concrete
/// instance of the Chan–Yeung construction used in Lemma 4.8): the group is
/// `GF(2)^dim` under addition and each variable `i` is assigned the subgroup
/// `G_i = { v : v[j] = 0 for all j ∈ coords[i] }`, so the relation is
/// `{ (a + G_1, …, a + G_n) : a ∈ GF(2)^dim }` with cosets encoded by the
/// coordinates listed in `coords[i]`.
///
/// The resulting relation is totally uniform and its entropy is
/// `h(S) = |⋃_{i ∈ S} coords[i]|` bits.
pub fn gf2_group_relation(columns: &[&str], dim: usize, coords: &[Vec<usize>]) -> VRelation {
    assert_eq!(
        columns.len(),
        coords.len(),
        "one coordinate list per column"
    );
    assert!(dim <= 20, "GF(2) dimension capped at 20");
    for list in coords {
        for &c in list {
            assert!(c < dim, "coordinate {c} out of range for dimension {dim}");
        }
    }
    let cols: Vec<String> = columns.iter().map(|s| s.to_string()).collect();
    let mut rel = VRelation::new(cols);
    for a in 0u32..(1 << dim) {
        let row: Vec<Value> = coords
            .iter()
            .map(|list| {
                // The coset a + G_i is determined by the coordinates in `list`.
                let projected: i64 = list
                    .iter()
                    .fold(0i64, |acc, &c| (acc << 1) | ((a >> c) & 1) as i64);
                Value::int(projected)
            })
            .collect();
        rel.insert(row);
    }
    rel
}

/// Materializes a normal function with **integer** coefficients as a normal
/// relation: each step coefficient `c_W` contributes the step relation with
/// `2^{c_W}` tuples, and the factors are combined with the domain product
/// (Definition B.1).  The entropy of the result is exactly
/// `Σ_W c_W · h_W` bits.
///
/// The rows are flat [`Value::Int`]s rather than the nested pairs of
/// [`VRelation::domain_product`]: a value of the product is a sequence of
/// one digit per step function (`0` in a column of `W`, `j ∈ 0..2^{c_W}`
/// elsewhere), and it is encoded as one mixed-radix integer, first step
/// most significant.  The encoding is a bijection shared by every column
/// and preserves the order of digit sequences, so the relation is
/// isomorphic to the fold of [`VRelation::step_relation`] and
/// `domain_product` — same rows in the same order, same equalities within
/// and across columns — and every hom count over it is the same.
///
/// Returns `None` if any coefficient is not a non-negative integer or if the
/// construction would exceed `max_rows` rows.
pub fn normal_relation_from_function(normal: &NormalFunction, max_rows: u64) -> Option<VRelation> {
    let columns: Vec<String> = normal.vars().to_vec();
    // Start with a single all-zero row (the empty domain product).
    let mut rows: Vec<Vec<i64>> = vec![vec![0; columns.len()]];
    for (&w, coeff) in normal.coefficients() {
        if !coeff.is_integer() || coeff.is_negative() {
            return None;
        }
        let exponent = coeff.numer().to_u64()?;
        let multiplicity = 1u64.checked_shl(u32::try_from(exponent).ok()?)?;
        if (rows.len() as u64).checked_mul(multiplicity)? > max_rows {
            return None;
        }
        let radix = i64::try_from(multiplicity).ok()?;
        rows = rows
            .iter()
            .flat_map(|row| {
                (0..radix).map(move |j| {
                    row.iter()
                        .enumerate()
                        .map(|(column, &high)| {
                            let digit = if w & (1 << column) != 0 { 0 } else { j };
                            high * radix + digit
                        })
                        .collect()
                })
            })
            .collect();
    }
    let rows = rows
        .into_iter()
        .map(|row| row.into_iter().map(Value::Int).collect());
    Some(VRelation::from_rows(columns, rows))
}

/// Numerically compares the entropy of a relation against an exact set
/// function (both over the same column order), returning the largest absolute
/// deviation.  Used in tests to validate the normal-function ↔ normal-relation
/// correspondence.
pub fn entropy_deviation(relation: &VRelation, expected: &crate::setfn::SetFunction) -> f64 {
    let actual = relation_entropy(relation);
    let mut worst: f64 = 0.0;
    for mask in all_masks(expected.num_vars()) {
        let expected_value = expected.value(mask).to_f64();
        let names = expected.names_of(mask);
        let actual_value = actual.value_of(names.iter().map(|s| s.as_str()));
        worst = worst.max((expected_value - actual_value).abs());
    }
    worst
}

/// The exact entropy of a **totally uniform** relation: `h(X) = log2|Π_X(P)|`.
/// Only meaningful when [`VRelation::is_totally_uniform`] holds; the value is
/// returned as an f64 because projections are generally not powers of two.
pub fn totally_uniform_entropy(relation: &VRelation) -> RealSetFunction {
    let columns = relation.columns().to_vec();
    let n = columns.len();
    let mut values = vec![0.0; 1 << n];
    for mask in all_masks(n) {
        if mask == 0 {
            continue;
        }
        let selected: Vec<String> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| columns[i].clone())
            .collect();
        values[mask as usize] = (relation.project(&selected).len() as f64).log2();
    }
    RealSetFunction::from_values(columns, values)
}

/// Convenience: the scaled step coefficient `log2(m)` as a rational when `m`
/// is a power of two, `None` otherwise.
pub fn log2_exact(m: u64) -> Option<Rational> {
    if m == 0 || m.count_ones() != 1 {
        return None;
    }
    Some(Rational::from(m.trailing_zeros() as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setfn::SetFunction;
    use crate::stepfn::NormalFunction;
    use bqc_arith::int;
    use std::collections::BTreeSet;

    #[test]
    fn parity_relation_entropy_matches_parity_function() {
        let rel = parity_relation(["X", "Y", "Z"]);
        assert_eq!(rel.len(), 4);
        assert!(rel.is_totally_uniform());
        let expected = SetFunction::from_values(
            vec!["X".into(), "Y".into(), "Z".into()],
            vec![
                int(0),
                int(1),
                int(1),
                int(2),
                int(1),
                int(2),
                int(2),
                int(2),
            ],
        );
        assert!(entropy_deviation(&rel, &expected) < 1e-9);
    }

    #[test]
    fn step_relation_entropy_is_scaled_step_function() {
        let columns = vec!["A".to_string(), "B".to_string(), "C".to_string()];
        let w: BTreeSet<String> = ["B".to_string()].into_iter().collect();
        let rel = VRelation::step_relation(&columns, &w, 8);
        let step = crate::stepfn::step_function(columns.clone(), 0b010).scale(&int(3));
        assert!(entropy_deviation(&rel, &step) < 1e-9);
    }

    #[test]
    fn uniform_relation_entropy() {
        // A product relation of sizes 2 and 4: h(X)=1, h(Y)=2, h(XY)=3.
        let rel = VRelation::product(&[
            ("X".to_string(), (0..2).map(Value::int).collect()),
            ("Y".to_string(), (0..4).map(Value::int).collect()),
        ]);
        let h = relation_entropy(&rel);
        assert!((h.value_of(["X"]) - 1.0).abs() < 1e-9);
        assert!((h.value_of(["Y"]) - 2.0).abs() < 1e-9);
        assert!((h.value_of(["X", "Y"]) - 3.0).abs() < 1e-9);
        assert!(h.is_approx_polymatroid(1e-9));
        // For totally uniform relations the projection-size formula agrees.
        let tu = totally_uniform_entropy(&rel);
        assert!((tu.value_of(["X", "Y"]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_relation_entropy_is_not_log_of_counts() {
        let rel = VRelation::from_rows(
            vec!["X".to_string(), "Y".to_string()],
            vec![
                vec![Value::int(0), Value::int(0)],
                vec![Value::int(0), Value::int(1)],
                vec![Value::int(1), Value::int(0)],
            ],
        );
        let h = relation_entropy(&rel);
        // Marginal on X: {0: 2/3, 1: 1/3}, entropy ≈ 0.918.
        assert!((h.value_of(["X"]) - 0.9182958340544896).abs() < 1e-9);
        assert!((h.value_of(["X", "Y"]) - (3.0f64).log2()).abs() < 1e-9);
        assert!(h.is_approx_polymatroid(1e-9));
    }

    #[test]
    fn gf2_group_relations_are_totally_uniform() {
        // Three variables reading coordinates {0}, {1}, {0,1} of GF(2)^2: this is
        // exactly the parity pattern.
        let rel = gf2_group_relation(&["X", "Y", "Z"], 2, &[vec![0], vec![1], vec![0, 1]]);
        assert_eq!(rel.len(), 4);
        assert!(rel.is_totally_uniform());
        let h = relation_entropy(&rel);
        assert!((h.value_of(["X"]) - 1.0).abs() < 1e-9);
        assert!((h.value_of(["Z"]) - 2.0).abs() < 1e-9);
        assert!((h.value_of(["X", "Y"]) - 2.0).abs() < 1e-9);
        assert!((h.value_of(["X", "Y", "Z"]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn normal_relation_realizes_normal_function() {
        // h = 2·h_∅ + 1·h_{X}: realized by a 4-row step relation ⊗ 2-row step relation.
        let mut nf = NormalFunction::zero(vec!["X".into(), "Y".into()]);
        nf.add_step(0b00, int(2));
        nf.add_step(0b01, int(1));
        let rel = normal_relation_from_function(&nf, 1_000_000).unwrap();
        assert_eq!(rel.len(), 8);
        assert!(rel.is_totally_uniform());
        assert!(entropy_deviation(&rel, &nf.to_set_function()) < 1e-9);
    }

    #[test]
    fn normal_relation_rejects_fractional_or_huge_coefficients() {
        let mut nf = NormalFunction::zero(vec!["X".into(), "Y".into()]);
        nf.add_step(0b00, bqc_arith::ratio(1, 2));
        assert!(normal_relation_from_function(&nf, 1_000_000).is_none());

        let mut huge = NormalFunction::zero(vec!["X".into(), "Y".into()]);
        huge.add_step(0b00, int(40));
        assert!(normal_relation_from_function(&huge, 1_000).is_none());
    }

    #[test]
    fn empty_relation_entropy_is_zero() {
        let rel = VRelation::new(vec!["X".to_string()]);
        let h = relation_entropy(&rel);
        assert_eq!(h.value_of(["X"]), 0.0);
    }

    #[test]
    fn log2_exact_cases() {
        assert_eq!(log2_exact(8), Some(int(3)));
        assert_eq!(log2_exact(1), Some(int(0)));
        assert_eq!(log2_exact(6), None);
        assert_eq!(log2_exact(0), None);
    }
}
