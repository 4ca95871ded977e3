//! Theorem 6.1 (Shannon-cone version): a valid max-linear inequality is
//! witnessed by a convex combination.
//!
//! Theorem 6.1 states that `0 ≤ max_ℓ E_ℓ(h)` holds for every (almost-)
//! entropic `h` iff there are `λ_ℓ ≥ 0`, `Σ λ_ℓ = 1`, such that the single
//! linear inequality `0 ≤ Σ_ℓ λ_ℓ E_ℓ(h)` is valid.  The theorem is proved for
//! any closed convex cone (Theorem F.1); this module instantiates it for the
//! **polymatroid** cone `Γ_n`, where both directions are effectively
//! computable:
//!
//! * a convex combination that is a non-negative combination of elemental
//!   Shannon inequalities certifies validity over `Γ_n`;
//! * conversely, if the max-inequality is valid over `Γ_n`, LP duality
//!   (Farkas) guarantees such a combination exists with rational `λ`.
//!
//! The search is a single LP feasibility problem over the unknowns
//! `λ_ℓ` and the multipliers `μ_k` of the elemental inequalities (plus
//! multipliers `ν_S ≥ 0` of the variable bounds `h(S) ≥ 0`).

use crate::inequality::MaxInequality;
use bqc_arith::Rational;
use bqc_entropy::{all_masks, elemental_ids, ElementalId, Mask, SetFunction};
use bqc_lp::{ConstraintOp, LpProblem, LpStatus, Sense, VarBound, VarId};
use std::collections::HashMap;

/// A certificate that `Σ_ℓ λ_ℓ E_ℓ` is a Shannon inequality.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvexCertificate {
    /// The convex weights, one per disjunct (non-negative, summing to one).
    pub lambdas: Vec<Rational>,
}

/// The two-sided answer of the certificate LP: either an explicit Farkas
/// certificate of validity over `Γ_n`, or an explicit violating polymatroid.
#[derive(Clone, Debug)]
pub(crate) enum CertificateOutcome {
    /// Convex weights mixing the disjuncts into a Shannon inequality.
    Certificate {
        /// The convex weights over the disjuncts.
        certificate: ConvexCertificate,
        /// The elemental inequalities carrying nonzero multipliers in the
        /// Farkas proof.  Seeding a `Γ_n` relaxation with exactly these rows
        /// makes it infeasible outright (the proof combines only them), so
        /// the separation loop caches this set for same-shaped re-probes.
        support: Vec<ElementalId>,
    },
    /// A polymatroid `h` with `E_ℓ(h) ≤ −1` for every disjunct.
    Counterexample(SetFunction),
}

/// Decides validity over `Γ_n` through the **certificate LP** of
/// Theorem 6.1, in the primal-dual form that answers both directions:
///
/// ```text
///   maximize  Σ_ℓ μ_ℓ
///   s.t.      Σ_ℓ μ_ℓ E_{ℓ,S} − Σ_k λ_k a_{k,S} − ν_S = 0   for every S ≠ ∅
///             Σ_ℓ μ_ℓ ≤ 1,          μ, λ, ν ≥ 0
/// ```
///
/// where `a_k` ranges over the elemental inequalities of `Γ_n` and `ν`
/// carries the variable bounds `h(S) ≥ 0`.  The system is homogeneous
/// except for the cap, so the optimum is exactly 1 (some convex combination
/// `Σ μ_ℓ E_ℓ` is a non-negative combination of elemental rows — a Farkas
/// proof of validity) or exactly 0 (no such combination).  In the latter
/// case the **dual vector** at the optimum is the refutation: dual
/// feasibility of the `λ` columns puts `h = −y` inside `Γ_n`, of the `ν`
/// columns makes it non-negative, and of the `μ` columns forces
/// `E_ℓ(h) ≤ θ − 1 = −1` for every disjunct — precisely the violating
/// polymatroid, already normalized.
///
/// The LP has `2^n` rows — compare `n + C(n,2)·2^{n−2}` for the row-eager
/// cone — which is what makes this the fast path for **valid** inequalities
/// whose certificates touch many elemental rows (the separation loop in
/// `prover` excels at shallow certificates and at refutations, and
/// escalates here when a probe runs deep).
pub(crate) fn certificate_decision(inequality: &MaxInequality) -> CertificateOutcome {
    let variables = &inequality.variables;
    let n = variables.len();
    let index_of: HashMap<&str, usize> = variables
        .iter()
        .enumerate()
        .map(|(index, name)| (name.as_str(), index))
        .collect();
    let masks = 1usize << n;

    let mut lp = LpProblem::new(Sense::Maximize);
    // One μ per disjunct, then one λ per elemental inequality, then one ν
    // per non-empty subset; rows are assembled per mask.
    let mu: Vec<VarId> = (0..inequality.disjuncts.len())
        .map(|_| lp.add_variable_anonymous(VarBound::NonNegative))
        .collect();
    lp.set_objective(mu.iter().map(|&v| (v, Rational::one())).collect::<Vec<_>>());

    let mut rows: Vec<Vec<(VarId, Rational)>> = vec![Vec::new(); masks];
    for (l, disjunct) in inequality.disjuncts.iter().enumerate() {
        let mut dense = vec![Rational::zero(); masks];
        for (set, coeff) in disjunct.terms() {
            let mut mask: Mask = 0;
            for v in set {
                mask |= 1 << index_of[v.as_str()];
            }
            dense[mask as usize] = &dense[mask as usize] + coeff;
        }
        for (mask, coeff) in dense.into_iter().enumerate() {
            if mask != 0 && !coeff.is_zero() {
                rows[mask].push((mu[l], coeff));
            }
        }
    }
    let mut lambda_vars: Vec<(VarId, ElementalId)> = Vec::new();
    for id in elemental_ids(n) {
        let lambda = lp.add_variable_anonymous(VarBound::NonNegative);
        lambda_vars.push((lambda, id));
        let (terms, len) = id.terms(n);
        for (mask, coeff) in &terms[..len] {
            if *mask != 0 && *coeff != 0 {
                rows[*mask as usize].push((lambda, Rational::from_integer(-*coeff)));
            }
        }
    }

    // Per-mask balance rows, in ascending mask order (row index = mask − 1).
    for mask in all_masks(n) {
        if mask == 0 {
            continue;
        }
        let nu = lp.add_variable_anonymous(VarBound::NonNegative);
        let mut coeffs = std::mem::take(&mut rows[mask as usize]);
        coeffs.push((nu, -Rational::one()));
        lp.add_constraint(coeffs, ConstraintOp::Eq, Rational::zero());
    }
    lp.add_constraint(
        mu.iter().map(|&v| (v, Rational::one())).collect::<Vec<_>>(),
        ConstraintOp::Le,
        Rational::one(),
    );

    let solution = lp.solve_with_duals();
    assert_eq!(
        solution.status,
        LpStatus::Optimal,
        "the certificate LP is feasible (0) and bounded (cap)"
    );
    let optimum = solution.objective.clone().expect("optimal objective");
    if optimum == Rational::one() {
        let lambdas = mu.iter().map(|&v| solution.values[v.0].clone()).collect();
        let support = lambda_vars
            .iter()
            .filter(|(var, _)| !solution.values[var.0].is_zero())
            .map(|(_, id)| *id)
            .collect();
        return CertificateOutcome::Certificate {
            certificate: ConvexCertificate { lambdas },
            support,
        };
    }
    assert!(
        optimum.is_zero(),
        "homogeneity forces the certificate optimum to 0 or 1"
    );
    let duals = solution
        .duals
        .expect("optimal solves report dual multipliers");
    let mut values = vec![Rational::zero(); masks];
    for mask in 1..masks {
        values[mask] = -&duals[mask - 1];
    }
    CertificateOutcome::Counterexample(SetFunction::from_values(variables.clone(), values))
}

/// Searches for convex weights `λ` such that `Σ_ℓ λ_ℓ E_ℓ(h) ≥ 0` holds for
/// every polymatroid.  By Theorem 6.1 (specialized to `Γ_n`) such weights
/// exist exactly when the max-inequality is valid over `Γ_n`.
pub fn find_convex_certificate(inequality: &MaxInequality) -> Option<ConvexCertificate> {
    certificate_or_refutation(inequality).ok()
}

/// Decides validity over `Γ_n` with an **explicit witness either way**: a
/// convex certificate when the max-inequality is valid (Theorem 6.1), or a
/// violating polymatroid — already normalized to `E_ℓ(h) ≤ −1` on every
/// disjunct — when it is not (the Farkas dual of the certificate LP).
pub fn certificate_or_refutation(
    inequality: &MaxInequality,
) -> Result<ConvexCertificate, SetFunction> {
    match certificate_decision(inequality) {
        CertificateOutcome::Certificate { certificate, .. } => Ok(certificate),
        CertificateOutcome::Counterexample(counterexample) => Err(counterexample),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inequality::LinearInequality;
    use crate::prover::GammaProver;
    use bqc_arith::int;
    use bqc_entropy::EntropyExpr;

    /// Shannon-cone validity on a fresh prover, no budget.
    fn shannon_valid(inequality: &MaxInequality) -> bool {
        GammaProver::new()
            .check_max_inequality(inequality, &Budget::unlimited())
            .unwrap()
            .is_valid()
    }
    use bqc_obs::Budget;

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn expr(terms: &[(i64, &[&str])]) -> EntropyExpr {
        let mut e = EntropyExpr::zero();
        for (coeff, set) in terms {
            e.add_term(int(*coeff), set.iter().copied());
        }
        e
    }

    #[test]
    fn valid_linear_inequality_has_trivial_certificate() {
        let ineq = LinearInequality::new(
            vars(&["X", "Y"]),
            expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]),
        );
        let cert = find_convex_certificate(&ineq.to_max()).expect("certificate must exist");
        assert_eq!(cert.lambdas, vec![int(1)]);
    }

    #[test]
    fn symmetric_max_inequality_mixes_disjuncts() {
        // max(h(X)-h(Y), h(Y)-h(X)) >= 0: λ = (1/2, 1/2) gives the zero
        // expression, which is trivially Shannon.
        let d1 = expr(&[(1, &["X"]), (-1, &["Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X"])]);
        let max = MaxInequality::new(vars(&["X", "Y"]), vec![d1, d2]);
        let cert = find_convex_certificate(&max).expect("certificate must exist");
        let total: Rational = cert.lambdas.iter().sum();
        assert_eq!(total, int(1));
        assert!(cert.lambdas.iter().all(|l| !l.is_negative()));
        // The combined expression must indeed be Shannon-valid.
        let mut combined = EntropyExpr::zero();
        for (l, d) in cert.lambdas.iter().zip(&max.disjuncts) {
            combined = combined.add(&d.scale(l));
        }
        let combined_ineq = LinearInequality::new(vars(&["X", "Y"]), combined);
        assert!(shannon_valid(&combined_ineq.to_max()));
    }

    #[test]
    fn example_3_8_has_a_certificate() {
        // The paper proves Example 3.8 by averaging the three disjuncts with
        // weight 1/3 each; the LP may find that or any other valid mixture.
        let universe = vars(&["X1", "X2", "X3"]);
        let make = |top: &[&str], y: &str, x: &str| {
            let mut e = EntropyExpr::zero();
            e.add_term(int(1), top.iter().copied());
            e.add_conditional(int(1), &bqc_entropy::varset([y]), &bqc_entropy::varset([x]));
            e.add_term(int(-1), ["X1", "X2", "X3"]);
            e
        };
        let max = MaxInequality::new(
            universe.clone(),
            vec![
                make(&["X1", "X2"], "X2", "X1"),
                make(&["X2", "X3"], "X3", "X2"),
                make(&["X1", "X3"], "X1", "X3"),
            ],
        );
        assert!(shannon_valid(&max));
        let cert = find_convex_certificate(&max).expect("certificate must exist");
        let total: Rational = cert.lambdas.iter().sum();
        assert_eq!(total, int(1));
        // Verify the mixture is Shannon-valid.
        let mut combined = EntropyExpr::zero();
        for (l, d) in cert.lambdas.iter().zip(&max.disjuncts) {
            combined = combined.add(&d.scale(l));
        }
        assert!(shannon_valid(
            &LinearInequality::new(universe, combined).to_max()
        ));
    }

    #[test]
    fn invalid_inequalities_have_no_certificate() {
        let d1 = expr(&[(1, &["X"]), (-1, &["X", "Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X", "Y"])]);
        let max = MaxInequality::new(vars(&["X", "Y"]), vec![d1, d2]);
        assert!(!shannon_valid(&max));
        assert!(find_convex_certificate(&max).is_none());
    }

    #[test]
    fn certificate_duals_are_violating_polymatroids() {
        // When the certificate LP tops out at 0, its dual vector must be a
        // genuine polymatroid on which every disjunct evaluates <= -1 (the
        // Farkas refutation the prover's escalation path relies on).
        let universe = vars(&["X", "Y", "Z"]);
        let cases = vec![
            vec![expr(&[(1, &["X"]), (-1, &["Y"])])],
            vec![expr(&[(1, &["X", "Y"]), (-1, &["X"]), (-1, &["Y"])])],
            vec![
                expr(&[(1, &["X"]), (-1, &["X", "Y"])]),
                expr(&[(1, &["Y"]), (-1, &["X", "Y"])]),
            ],
            vec![expr(&[(1, &["Z"]), (-1, &["X", "Y", "Z"])])],
        ];
        for disjuncts in cases {
            let max = MaxInequality::new(universe.clone(), disjuncts);
            match certificate_decision(&max) {
                CertificateOutcome::Counterexample(h) => {
                    assert!(bqc_entropy::is_polymatroid(&h));
                    for d in &max.disjuncts {
                        assert!(d.evaluate(&h) <= -int(1), "disjunct {d} not refuted");
                    }
                }
                CertificateOutcome::Certificate { .. } => {
                    panic!("these inequalities are invalid over the cone")
                }
            }
        }
    }

    #[test]
    fn certificate_support_seeds_an_infeasible_relaxation() {
        // The support rows of a valid inequality's certificate must by
        // themselves refute every candidate violator: a cone relaxation
        // holding only those rows plus the disjunct rows is infeasible.
        let ineq = LinearInequality::new(
            vars(&["X", "Y", "Z"]),
            expr(&[
                (1, &["X", "Z"]),
                (1, &["Y", "Z"]),
                (-1, &["X", "Y", "Z"]),
                (-1, &["Z"]),
            ]),
        );
        let max = ineq.to_max();
        let CertificateOutcome::Certificate {
            certificate,
            support,
        } = certificate_decision(&max)
        else {
            panic!("conditional submodularity is valid");
        };
        let total: Rational = certificate.lambdas.iter().sum();
        assert_eq!(total, int(1));
        assert!(!support.is_empty());
        use bqc_lp::{ConstraintOp, LpProblem, Sense, VarBound};
        let mut lp = LpProblem::new(Sense::Minimize);
        let n = 3usize;
        let columns: Vec<_> = (0..(1usize << n))
            .map(|mask| (mask != 0).then(|| lp.add_variable_anonymous(VarBound::NonNegative)))
            .collect();
        for id in &support {
            let (terms, len) = id.terms(n);
            lp.add_constraint_small(
                terms[..len]
                    .iter()
                    .filter_map(|(m, c)| columns[*m as usize].map(|v| (v, *c))),
                ConstraintOp::Ge,
                0,
            );
        }
        // The disjunct E <= -1 over the same columns.
        let mut dense = vec![Rational::zero(); 1 << n];
        for (set, coeff) in max.disjuncts[0].terms() {
            let mut mask = 0usize;
            for v in set {
                mask |= 1 << ["X", "Y", "Z"].iter().position(|x| x == v).unwrap();
            }
            dense[mask] = &dense[mask] + coeff;
        }
        lp.add_constraint(
            dense
                .iter()
                .enumerate()
                .filter_map(|(m, c)| columns[m].map(|v| (v, c.clone()))),
            ConstraintOp::Le,
            -Rational::one(),
        );
        assert!(!lp.is_feasible(&Budget::unlimited()).unwrap());
    }

    #[test]
    fn certificate_existence_matches_validity() {
        // Agreement between the two decision procedures on a small batch.
        let universe = vars(&["X", "Y", "Z"]);
        let candidates = [
            expr(&[(1, &["X", "Y"]), (-1, &["X"])]),
            expr(&[(1, &["X"]), (-1, &["X", "Y", "Z"])]),
            expr(&[
                (1, &["X", "Z"]),
                (1, &["Y", "Z"]),
                (-1, &["X", "Y", "Z"]),
                (-1, &["Z"]),
            ]),
            expr(&[(2, &["X"]), (-1, &["Y"]), (-1, &["Z"])]),
        ];
        for (i, a) in candidates.iter().enumerate() {
            for b in candidates.iter().skip(i) {
                let max = MaxInequality::new(universe.clone(), vec![a.clone(), b.clone()]);
                let valid = shannon_valid(&max);
                let has_cert = find_convex_certificate(&max).is_some();
                assert_eq!(valid, has_cert, "mismatch for disjuncts {a} and {b}");
            }
        }
    }
}
