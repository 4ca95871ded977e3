//! The witness stage's two building blocks, checked against fixed figures
//! and against the constructions they replace.
//!
//! * `normal_relation_from_function` emits flat integer rows; here it is
//!   compared with the Definition B.1 fold of `VRelation::step_relation`
//!   and `domain_product`, whose values are nested pairs.  The two must be
//!   isomorphic under one order-preserving value bijection shared by all
//!   columns, and every hom count over them must agree.
//! * The backtracking counter's search tree is pinned: hom counts and
//!   hom-step charges on the witness databases of the lp-bound refutation
//!   classes, and the enumeration order of `query_homomorphisms` (which
//!   fixes the disjunct order of Eq. (8)).

use bqc_arith::Rational;
use bqc_core::{
    decide_containment, query_homomorphisms, verify_witness, Budget, BudgetSpec, ContainmentAnswer,
};
use bqc_entropy::{normal_relation_from_function, Mask, NormalFunction, SetFunction};
use bqc_relational::{
    count_homomorphisms, parse_query, Atom, ConjunctiveQuery, Structure, VRelation, Value,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cycle(n: usize) -> ConjunctiveQuery {
    let atoms = (0..n)
        .map(|i| Atom::new("R", [format!("x{i}"), format!("x{}", (i + 1) % n)]))
        .collect();
    ConjunctiveQuery::boolean(format!("cycle{n}"), atoms).unwrap()
}

fn path(n: usize) -> ConjunctiveQuery {
    let atoms = (0..n)
        .map(|i| Atom::new("R", [format!("y{i}"), format!("y{}", i + 1)]))
        .collect();
    ConjunctiveQuery::boolean(format!("path{n}"), atoms).unwrap()
}

fn star(n: usize) -> ConjunctiveQuery {
    let atoms = (0..n)
        .map(|i| Atom::new("R", ["c".to_string(), format!("l{i}")]))
        .collect();
    ConjunctiveQuery::boolean(format!("star{n}"), atoms).unwrap()
}

/// The six lp-bound classes the LP refutes and the witness stage answers.
fn refutation_classes() -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
    vec![
        (cycle(3), star(1)),
        (cycle(4), star(1)),
        (path(2), path(1)),
        (path(2), star(2)),
        (path(2), star(3)),
        (path(3), star(2)),
    ]
}

/// The integral normal counterexample the decision of `q1 ⊑ q2` hands to
/// the witness stage.
fn counterexample(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> NormalFunction {
    let ContainmentAnswer::NotContained {
        counterexample: Some(h),
        ..
    } = decide_containment(q1, q2).unwrap()
    else {
        panic!("{q1} ⊑ {q2} is refuted by the LP");
    };
    let normal = NormalFunction::try_from_set_function(&h).expect("normal counterexample");
    normal.clear_denominators().0
}

/// Lemma 4.8's amplification: every coefficient times `k`.
fn amplify(normal: &NormalFunction, k: i64) -> NormalFunction {
    let mut scaled = NormalFunction::zero(normal.vars().to_vec());
    for (&w, c) in normal.coefficients() {
        scaled.add_step(w, c * &Rational::from(k));
    }
    scaled
}

/// Definition B.1 as a fold: the domain product of one step relation per
/// step function, starting from a single all-zero row.
fn domain_product_fold(normal: &NormalFunction) -> VRelation {
    let columns = normal.vars().to_vec();
    let names = SetFunction::zero(columns.clone());
    let mut result = VRelation::from_rows(
        columns.clone(),
        vec![columns.iter().map(|_| Value::int(0)).collect()],
    );
    for (&w, c) in normal.coefficients() {
        let m = 1u64 << c.numer().to_u64().unwrap();
        let step = VRelation::step_relation(&columns, &names.names_of(w), m);
        result = result.domain_product(&step);
    }
    result
}

/// `Ok` iff one order-preserving bijection of values, shared by all
/// columns, maps the rows of `old` onto the rows of `new`.  Such a map
/// keeps the sorted row order, so it must pair the rows in order.
fn isomorphic(old: &VRelation, new: &VRelation) -> Result<(), String> {
    if old.len() != new.len() {
        return Err(format!("{} rows against {}", old.len(), new.len()));
    }
    let mut forward: BTreeMap<&Value, &Value> = BTreeMap::new();
    let mut backward: BTreeMap<&Value, &Value> = BTreeMap::new();
    for (a, b) in old.rows().zip(new.rows()) {
        for (x, y) in a.iter().zip(b) {
            if *forward.entry(x).or_insert(y) != y || *backward.entry(y).or_insert(x) != x {
                return Err(format!("{x} and {y} are not matched one to one"));
            }
        }
    }
    // `forward` iterates in old-value order; the images must ascend too.
    let images: Vec<&Value> = forward.values().copied().collect();
    if images.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err("the value bijection does not preserve order".to_string());
    }
    Ok(())
}

/// `(|hom(Q1, D)|, |hom(Q2, D)|)` on `D = Π_{Q1}(P)`, and what
/// `verify_witness` makes of `P`.
type Counts = (u128, u128, Option<(u128, u128)>);

fn counts(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, relation: &VRelation) -> Counts {
    let unlimited = Budget::unlimited();
    let database = relation.induced_database(q1);
    let witness = verify_witness(q1, q2, relation, &unlimited).unwrap();
    (
        count_homomorphisms(q1, &database, &unlimited).unwrap(),
        count_homomorphisms(q2, &database, &unlimited).unwrap(),
        witness.map(|w| (w.hom_q1, w.hom_q2)),
    )
}

/// The hom count of `query` on `data` and the hom-steps it charged.
fn metered_count(query: &ConjunctiveQuery, data: &Structure) -> (u128, u64) {
    let meter = BudgetSpec {
        max_hom_steps: Some(u64::MAX),
        ..BudgetSpec::UNLIMITED
    }
    .start();
    let count = count_homomorphisms(query, data, &meter).unwrap();
    (count, meter.hom_steps_spent())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random normal functions over one to four variables with up to four
    /// step functions of coefficient 1–3, capped at 4096 rows.
    #[test]
    fn flat_normal_relation_is_isomorphic_to_the_domain_product_fold(
        n in 1usize..5,
        steps in vec((0u32..15, 1i64..4), 0..5),
    ) {
        let full: Mask = (1 << n) - 1;
        let vars: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let mut normal = NormalFunction::zero(vars);
        for (w, c) in steps {
            if w & full != full {
                normal.add_step(w & full, Rational::from(c));
            }
        }
        let Some(new) = normal_relation_from_function(&normal, 4096) else {
            return Ok(());
        };
        let old = domain_product_fold(&normal);
        prop_assert!(new.rows().flatten().all(|v| matches!(v, Value::Int(_))));
        if let Err(message) = isomorphic(&old, &new) {
            prop_assert!(false, "{}: {}", normal, message);
        }
    }
}

#[test]
fn counts_agree_with_the_fold_on_the_refutation_classes() {
    for (q1, q2) in refutation_classes() {
        let integral = counterexample(&q1, &q2);
        for k in 1..=3 {
            let amplified = amplify(&integral, k);
            let Some(new) = normal_relation_from_function(&amplified, 1024) else {
                break;
            };
            let old = domain_product_fold(&amplified);
            isomorphic(&old, &new).unwrap();
            assert_eq!(
                counts(&q1, &q2, &old),
                counts(&q1, &q2, &new),
                "{q1} ⊑ {q2} at k={k}"
            );
        }
    }
}

#[test]
fn counts_agree_with_the_fold_on_example_3_5() {
    // P = {(u,u,v,v) : u,v ∈ [n]} is the normal relation of
    // c·h_{x1'x2'} + c·h_{x1x2} with n = 2^c.
    let q1 =
        parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
            .unwrap();
    let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
    for c in 1..=3 {
        let mut normal = NormalFunction::zero(q1.vars().to_vec());
        normal.add_step(0b1100, Rational::from(c));
        normal.add_step(0b0011, Rational::from(c));
        let new = normal_relation_from_function(&normal, 1024).unwrap();
        let old = domain_product_fold(&normal);
        isomorphic(&old, &new).unwrap();
        // The columns share one domain: x1 and x1' both take the value
        // whose digits are all those of W's constant columns, so Π_{Q1}(P)
        // has 2n − 1 values per column pair, not n.  |P| = n² still beats
        // hom(Q2) = 2n − 1 (Fact 3.2).
        let n = 1u128 << c;
        let shared = 2 * n - 1;
        assert_eq!(
            counts(&q1, &q2, &new),
            (shared * shared, shared, Some((shared * shared, shared)))
        );
        assert_eq!(counts(&q1, &q2, &old), counts(&q1, &q2, &new));
    }
}

#[test]
fn hom_steps_on_witness_databases_are_pinned() {
    // (class, amplification k, rows, (hom(Q1), steps), (hom(Q2), steps)).
    // cycle₃ ⊑ star₁ first verifies at k = 2 and path₃ ⊑ star₂ at k = 1;
    // path₂ ⊑ star₃ verifies at k = 1 and is pinned on its larger k = 2
    // database.
    let pins = [
        (cycle(3), star(1), 2, 64, (190, 570), (46, 110)),
        (path(3), star(2), 1, 128, (224, 549), (52, 230)),
        (path(2), star(3), 2, 256, (256, 261), (127, 844)),
    ];
    for (q1, q2, k, rows, pin_q1, pin_q2) in pins {
        let relation =
            normal_relation_from_function(&amplify(&counterexample(&q1, &q2), k), 4096).unwrap();
        assert_eq!(relation.len(), rows, "{q1} ⊑ {q2}");
        let database = relation.induced_database(&q1);
        assert_eq!(metered_count(&q1, &database), pin_q1, "{q1} on {q1} ⊑ {q2}");
        assert_eq!(metered_count(&q2, &database), pin_q2, "{q2} on {q1} ⊑ {q2}");
    }
}

#[test]
fn query_homomorphism_order_is_pinned() {
    let render = |q2: &str, q1: &str| -> Vec<String> {
        let (q2, q1) = (parse_query(q2).unwrap(), parse_query(q1).unwrap());
        query_homomorphisms(&q2, &q1, &Budget::unlimited())
            .unwrap()
            .iter()
            .map(|h| h.values().cloned().collect::<Vec<_>>().join(""))
            .collect()
    };
    // hom(path₂, cycle₄): the rotations, in the order the search meets them.
    assert_eq!(
        render(
            "Q2() :- R(a,b), R(b,c)",
            "Q1() :- R(x,y), R(y,z), R(z,w), R(w,x)"
        ),
        ["wxy", "xyz", "yzw", "zwx"]
    );
    // Every variable of Q2 has four candidates, so the first is chosen by
    // name (a), not by first occurrence (z): the order follows a.
    assert_eq!(
        render(
            "Q2() :- R(z,a), R(a,m)",
            "Q1() :- R(x,y), R(y,z), R(z,w), R(w,x)"
        ),
        ["wxz", "xyw", "yzx", "zwy"]
    );
    // hom(Q2, Q1) for a pair with self-loops and a 2-cycle (values listed
    // in Q2's variable-name order a, b, c, d).
    assert_eq!(
        render(
            "Q2() :- R(a,b), R(b,c), R(a,d)",
            "Q1() :- R(x,y), R(y,x), R(y,y)"
        ),
        ["xyxy", "xyyy", "yxyx", "yxyy", "yyxx", "yyxy", "yyyx", "yyyy"]
    );
}

#[test]
fn mixed_arity_pairs_have_no_homomorphism() {
    // R is ternary in Q1 and binary in Q2: no atom of Q2 maps into Q1's
    // canonical database, so hom(Q1, D_{Q1}) = 1 > 0 = hom(Q2, D_{Q1}).
    let q1 = parse_query("Q1() :- R(x,y,x)").unwrap();
    let q2 = parse_query("Q2() :- R(u,v)").unwrap();
    assert!(query_homomorphisms(&q2, &q1, &Budget::unlimited())
        .unwrap()
        .is_empty());
    assert!(matches!(
        decide_containment(&q1, &q2).unwrap(),
        ContainmentAnswer::NotContained { .. }
    ));
}
