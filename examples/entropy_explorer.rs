//! A tour of the information-theoretic substrate (Sections 3.2, Appendix B/C).
//!
//! * the parity relation and its entropy (an entropic function that is a
//!   polymatroid but **not** normal — Corollary B.8);
//! * the Möbius inverse / I-measure;
//! * the Lemma 3.7 constructions (modularization and normalization);
//! * Shannon-provability of classic inequalities, and the Zhang–Yeung
//!   inequality as a non-Shannon example;
//! * Theorem 6.1: convex certificates for valid max-inequalities.
//!
//! Run with: `cargo run --example entropy_explorer`

use bag_query_containment::prelude::*;
use bqc_arith::int;
use bqc_entropy::modularize;

fn main() {
    // ---- The parity function --------------------------------------------
    let relation = parity_relation(["X", "Y", "Z"]);
    println!(
        "parity relation (X ⊕ Y ⊕ Z = 0), {} tuples:",
        relation.len()
    );
    for line in relation.to_string().lines() {
        println!("  {line}");
    }
    let empirical = relation_entropy(&relation);
    println!(
        "empirical entropies: h(X) = {}, h(XY) = {}, h(XYZ) = {}",
        empirical.value_of(["X"]),
        empirical.value_of(["X", "Y"]),
        empirical.value_of(["X", "Y", "Z"]),
    );

    let parity = SetFunction::from_values(
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
    println!(
        "exact parity function is a polymatroid: {}",
        is_polymatroid(&parity)
    );
    println!(
        "exact parity function is modular:       {}",
        is_modular(&parity)
    );
    println!(
        "exact parity function is normal:        {}",
        is_normal(&parity)
    );
    let mobius = parity.mobius_inverse();
    println!(
        "Möbius inverse g (Appendix B): g(∅)={}, g(X)={}, g(XYZ)={}",
        mobius[0], mobius[0b001], mobius[0b111]
    );
    println!();

    // ---- Lemma 3.7: dominate the parity function from below --------------
    let modular = modularize(&parity);
    let normal = normalize(&parity);
    println!(
        "Lemma 3.7(1) modularization: h'(XYZ) = {} (= h(XYZ)), h'(Z) = {}",
        modular.value_of(["X", "Y", "Z"]),
        modular.value_of(["Z"])
    );
    println!(
        "Lemma 3.7(2) normalization:  h'(XYZ) = {}, h'(X) = {}, h'(Y) = {}, h'(Z) = {} (all singletons preserved)",
        normal.value_of(["X", "Y", "Z"]),
        normal.value_of(["X"]),
        normal.value_of(["Y"]),
        normal.value_of(["Z"]),
    );
    println!("normalized function is normal: {}", is_normal(&normal));
    let decomposition = NormalFunction::try_from_set_function(&normal).unwrap();
    println!("its step decomposition: {decomposition}");
    println!();

    // ---- Shannon-provability ---------------------------------------------
    // One prover serves every probe; an unlimited budget never cuts one short.
    let mut prover = GammaProver::new();
    let mut shannon = |max: &MaxInequality| {
        prover
            .check_max_inequality(max, &Budget::unlimited())
            .expect("an unlimited budget cannot run out")
    };
    let mut submodularity = EntropyExpr::zero();
    submodularity.add_term(int(1), ["X"]);
    submodularity.add_term(int(1), ["Y"]);
    submodularity.add_term(int(-1), ["X", "Y"]);
    let ineq = LinearInequality::new(vec!["X".into(), "Y".into()], submodularity);
    println!(
        "submodularity h(X)+h(Y) >= h(XY) is Shannon-provable: {}",
        shannon(&ineq.to_max()).is_valid()
    );

    // The Zhang–Yeung inequality is valid for entropic functions but not
    // Shannon-provable; the prover reports the violating polymatroid.
    let zy = zhang_yeung();
    match shannon(&zy.to_max()) {
        bqc_iip::GammaValidity::NotShannonProvable { counterexample } => {
            println!(
                "Zhang–Yeung is NOT Shannon-provable; violating polymatroid has h(ABCD) = {}",
                counterexample.value(counterexample.full_mask())
            );
        }
        bqc_iip::GammaValidity::ValidShannon => unreachable!("ZY is not a Shannon inequality"),
    }
    println!();

    // ---- Theorem 6.1 -------------------------------------------------------
    let mut d1 = EntropyExpr::zero();
    d1.add_term(int(1), ["X"]);
    d1.add_term(int(-1), ["Y"]);
    let d2 = d1.negate();
    let max = MaxInequality::new(vec!["X".into(), "Y".into()], vec![d1, d2]);
    println!(
        "max(h(X)-h(Y), h(Y)-h(X)) >= 0 is valid: {}",
        shannon(&max).is_valid()
    );
    let certificate = find_convex_certificate(&max).expect("Theorem 6.1 certificate");
    println!(
        "Theorem 6.1 convex certificate: lambda = ({})",
        certificate
            .lambdas
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// The Zhang–Yeung non-Shannon information inequality
/// `2 I(C;D) ≤ I(A;B) + I(A;CD) + 3 I(C;D|A) + I(C;D|B)` as a linear
/// inequality in entropies.
fn zhang_yeung() -> LinearInequality {
    let universe: Vec<String> = ["A", "B", "C", "D"].iter().map(|s| s.to_string()).collect();
    let mut expr = EntropyExpr::zero();
    let mutual = |coeff: i64, a: &[&str], b: &[&str], cond: &[&str], expr: &mut EntropyExpr| {
        let join = |x: &[&str], y: &[&str]| -> Vec<String> {
            let mut out: Vec<String> = x.iter().map(|s| s.to_string()).collect();
            for s in y {
                if !out.contains(&s.to_string()) {
                    out.push(s.to_string());
                }
            }
            out
        };
        expr.add_term(int(coeff), join(a, cond));
        expr.add_term(int(coeff), join(b, cond));
        let ab: Vec<String> = join(a, b);
        let ab_refs: Vec<&str> = ab.iter().map(|s| s.as_str()).collect();
        expr.add_term(int(-coeff), join(&ab_refs, cond));
        expr.add_term(int(-coeff), cond.iter().map(|s| s.to_string()));
    };
    mutual(1, &["A"], &["B"], &[], &mut expr);
    mutual(1, &["A"], &["C", "D"], &[], &mut expr);
    mutual(3, &["C"], &["D"], &["A"], &mut expr);
    mutual(1, &["C"], &["D"], &["B"], &mut expr);
    mutual(-2, &["C"], &["D"], &[], &mut expr);
    LinearInequality::new(universe, expr)
}
