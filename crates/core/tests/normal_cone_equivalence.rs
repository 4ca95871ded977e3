//! Differential test of the normal-cone LP against the exact Γ_n prover.
//!
//! Inside the decidable class of Theorem 3.1 the pipeline decides the Eq. (8)
//! inequality with one LP over the step functions (Lemma 3.7(2) makes that
//! exact).  The Γ_n separation prover no longer runs on those instances; here
//! it is the oracle.  On every in-class pair the two verdicts must agree, and
//! every normal-cone counterexample must be a normal polymatroid on which
//! each disjunct is at most −1 in exact arithmetic.

use bqc_arith::Rational;
use bqc_core::{
    containment_inequality_from_homs, decide_containment_traced, query_homomorphisms, Budget,
    ContainmentAnswer, DecideContext, DecideOptions,
};
use bqc_entropy::{is_normal, is_polymatroid};
use bqc_hypergraph::{junction_tree, Graph};
use bqc_iip::{check_over_normal_cone, GammaProver, MaxInequality, NormalConeValidity};
use bqc_relational::{parse_query, Atom, ConjunctiveQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random Boolean conjunctive query over `R/2`, `S/2`, `U/1`,
/// deterministic in `seed`.
fn random_boolean_query(max_vars: usize, max_atoms: usize, seed: u64) -> ConjunctiveQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..max_vars + 1);
    let atom_count = rng.gen_range(1..max_atoms + 1);
    let relations: [(&str, usize); 3] = [("R", 2), ("S", 2), ("U", 1)];
    let atoms: Vec<Atom> = (0..atom_count)
        .map(|_| {
            let (relation, arity) = relations[rng.gen_range(0..relations.len())];
            let args: Vec<String> = (0..arity)
                .map(|_| format!("x{}", rng.gen_range(0..n)))
                .collect();
            Atom::new(relation, args)
        })
        .collect();
    ConjunctiveQuery::boolean("Q", atoms).expect("non-empty atom list")
}

/// The Eq. (8) inequality of a Boolean pair, when the pair is inside the
/// decidable class (`Q2` chordal, junction tree and composed expressions
/// simple) — the classification the pipeline's junction-tree stage makes.
fn in_class_inequality(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Option<MaxInequality> {
    let homs = query_homomorphisms(q2, q1, &Budget::unlimited()).unwrap();
    let mut gaifman = Graph::from_cliques(q2.hyperedges());
    for v in q2.vars() {
        gaifman.add_vertex(v.clone());
    }
    let td = junction_tree(&gaifman)?;
    let (inequality, composed) = containment_inequality_from_homs(q1, &td, &homs)?;
    (td.is_simple() && composed.iter().all(|e| e.is_simple())).then_some(inequality)
}

/// Compares the normal-cone verdict with a fresh Γ_n prover and checks the
/// counterexample; returns whether the inequality was valid.
fn check_against_gamma(inequality: &MaxInequality, label: &str) -> Result<bool, String> {
    let unlimited = Budget::unlimited();
    let normal = check_over_normal_cone(inequality, &unlimited).unwrap();
    let gamma = GammaProver::new()
        .check_max_inequality(inequality, &unlimited)
        .unwrap();
    if normal.is_valid() != gamma.is_valid() {
        return Err(format!(
            "{label}: normal cone says valid={}, Γ_n says valid={} for {inequality}",
            normal.is_valid(),
            gamma.is_valid()
        ));
    }
    if let NormalConeValidity::Violated { counterexample } = &normal {
        let h = counterexample.to_set_function();
        if !is_normal(&h) || !is_polymatroid(&h) {
            return Err(format!(
                "{label}: counterexample {counterexample} is not normal"
            ));
        }
        for disjunct in &inequality.disjuncts {
            let value = disjunct.evaluate(&h);
            if value > -Rational::one() {
                return Err(format!(
                    "{label}: disjunct {disjunct} is {value} > −1 on {counterexample}"
                ));
            }
        }
    }
    Ok(normal.is_valid())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random Boolean pairs, keeping the in-class ones: sixteen candidates
    /// per case, of which about a third are in the class (the rest have no
    /// homomorphism or fall outside it), half of those valid.
    #[test]
    fn normal_cone_matches_gamma_n_on_in_class_pairs(seed in 0u64..1_000_000) {
        for offset in 0..16u64 {
            let s = seed.wrapping_mul(16).wrapping_add(offset);
            let q1 = random_boolean_query(5, 5, s);
            let q2 = random_boolean_query(4, 3, s.wrapping_mul(0x2545_f491).wrapping_add(1));
            let Some(inequality) = in_class_inequality(&q1, &q2) else {
                continue;
            };
            if let Err(message) = check_against_gamma(&inequality, &format!("{q1} ; {q2}")) {
                prop_assert!(false, "{}", message);
            }
        }
    }
}

/// Named in-class pairs with known verdicts: the cycle-in-path family, and
/// corpus pairs whose counterexamples once failed to materialize witnesses.
#[test]
fn normal_cone_matches_gamma_n_on_named_pairs() {
    let pairs = [
        (
            "Q1() :- R(x0,x1), R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x0)",
            "Q2() :- R(y0,y1), R(y1,y2), R(y2,y3), R(y3,y4)",
            true,
        ),
        (
            "Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)",
            "Q2() :- R(y1,y2), R(y1,y3)",
            true,
        ),
        (
            "Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
            "Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)",
            false,
        ),
        (
            "Q1() :- R(v2,v1), R(v3,v2), R(v2,v0), U(v2), R(v0,v3)",
            "Q2() :- R(v2,v1), R(v2,v0), U(v2)",
            false,
        ),
        (
            "Q1() :- R(v0,v0), R(v1,v2), S(v2,v1), U(v0)",
            "Q2() :- R(v0,v0)",
            false,
        ),
    ];
    for (q1, q2, valid) in pairs {
        let q1 = parse_query(q1).unwrap();
        let q2 = parse_query(q2).unwrap();
        let inequality = in_class_inequality(&q1, &q2).expect("pair is in the decidable class");
        let label = format!("{q1} ; {q2}");
        assert_eq!(
            check_against_gamma(&inequality, &label),
            Ok(valid),
            "{label}"
        );
    }
}

/// Through the pipeline: with the counting refuter off, a refuted in-class
/// pair carries the normal-cone counterexample in its answer.
#[test]
fn pipeline_answers_carry_the_normal_counterexample() {
    let q1 = parse_query("Q1() :- R(v0,v0), R(v1,v2), S(v2,v1), U(v0)").unwrap();
    let q2 = parse_query("Q2() :- R(v0,v0)").unwrap();
    let options = DecideOptions {
        counting_refuter: false,
        ..DecideOptions::default()
    };
    let decision =
        decide_containment_traced(&mut DecideContext::new(), &q1, &q2, &options).unwrap();
    let ContainmentAnswer::NotContained {
        witness: Some(witness),
        counterexample: Some(h),
    } = &decision.answer
    else {
        panic!("expected a witnessed refutation, got {:?}", decision.answer);
    };
    assert!(witness.hom_q1 > witness.hom_q2);
    assert!(is_normal(h) && is_polymatroid(h));
    let inequality = in_class_inequality(&q1, &q2).unwrap();
    assert!(inequality
        .disjuncts
        .iter()
        .all(|d| d.evaluate(h) <= -Rational::one()));
}
