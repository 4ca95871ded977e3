//! Integration tests reproducing every worked example in the paper.
//!
//! Each test corresponds to one experiment id in EXPERIMENTS.md (E1–E7) and
//! exercises the public API across crates exactly the way the paper's text
//! walks through the example.

use bag_query_containment::prelude::*;
use bqc_arith::int;
use bqc_entropy::varset;
use std::collections::BTreeSet;

/// An unbudgeted homomorphism count.
fn count(query: &ConjunctiveQuery, data: &Structure) -> u128 {
    count_homomorphisms(query, data, &Budget::unlimited()).unwrap()
}

/// Shannon-cone validity on a fresh prover, no budget.
fn shannon_valid(inequality: &MaxInequality) -> bool {
    GammaProver::new()
        .check_max_inequality(inequality, &Budget::unlimited())
        .unwrap()
        .is_valid()
}

/// E1 — Example 4.3 (Eric Vee): the triangle is contained in the 2-out-star,
/// and the proof goes through the inequality of Example 3.8.
#[test]
fn example_4_3_and_3_8() {
    let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
    let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();

    // The decision procedure agrees with the paper.
    assert!(decide_containment(&triangle, &star).unwrap().is_contained());
    assert!(decide_containment(&star, &triangle)
        .unwrap()
        .is_not_contained());

    // Example 3.8's max-inequality h(X1X2X3) <= max(E1, E2, E3) is valid.
    let universe: Vec<String> = vec!["X1".into(), "X2".into(), "X3".into()];
    let make = |top: [&str; 2], y: &str, x: &str| {
        let mut e = EntropyExpr::zero();
        e.add_term(int(1), top);
        e.add_conditional(int(1), &varset([y]), &varset([x]));
        e.add_term(int(-1), ["X1", "X2", "X3"]);
        e
    };
    let inequality = MaxInequality::new(
        universe,
        vec![
            make(["X1", "X2"], "X2", "X1"),
            make(["X2", "X3"], "X3", "X2"),
            make(["X1", "X3"], "X1", "X3"),
        ],
    );
    assert!(shannon_valid(&inequality));

    // And the containment counts hold on concrete databases.
    for facts in [
        "R(1,2). R(2,3). R(3,1).",
        "R(1,1). R(1,2). R(2,1).",
        "R(1,2). R(1,3). R(2,3). R(3,2). R(2,1). R(3,1).",
    ] {
        let db = parse_structure(facts).unwrap();
        assert!(count(&triangle, &db) <= count(&star, &db));
    }
}

/// E2 — Example 3.5: a normal witness exists, no product witness does.
#[test]
fn example_3_5() {
    let q1 =
        parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
            .unwrap();
    let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();

    // Q2 is acyclic with a simple junction tree (the paper's chain
    // {y1,y3} - {y1,y2} - {y2,y4}).
    let graph = Graph::from_cliques(q2.hyperedges());
    let jt = junction_tree(&graph).expect("Q2 is chordal");
    assert!(jt.is_simple());
    assert_eq!(jt.num_nodes(), 3);

    // The paper's witness P = {(u,u,v,v) | u,v in [n]} works for every n > 1.
    for n in 2..=4i64 {
        let product = VRelation::product(&[
            ("u".to_string(), (1..=n).map(Value::int).collect()),
            ("v".to_string(), (1..=n).map(Value::int).collect()),
        ]);
        let psi: Vec<(String, BTreeSet<String>)> = vec![
            ("x1".to_string(), ["u".to_string()].into_iter().collect()),
            ("x2".to_string(), ["u".to_string()].into_iter().collect()),
            ("x1'".to_string(), ["v".to_string()].into_iter().collect()),
            ("x2'".to_string(), ["v".to_string()].into_iter().collect()),
        ];
        let witness_relation = VRelation::normal_relation(&product, &psi);
        let witness = verify_witness(&q1, &q2, &witness_relation, &Budget::unlimited())
            .unwrap()
            .expect("paper witness verifies");
        assert_eq!(witness.hom_q1, (n * n) as u128);
        assert_eq!(witness.hom_q2, n as u128);
    }

    // No product witness among all small product relations.
    assert!(search_product_witness(&q1, &q2, &[1, 2, 3], 100).is_none());

    // The decision procedure returns NotContained with a verified witness.
    // With default options the counting refuter separates the pair on the
    // canonical database of Q1 before any LP work, so no violating
    // polymatroid is attached.
    match decide_containment(&q1, &q2).unwrap() {
        ContainmentAnswer::NotContained {
            witness,
            counterexample,
        } => {
            assert!(counterexample.is_none());
            assert!(witness.is_some());
        }
        other => panic!("expected NotContained, got {other:?}"),
    }
    // With the refuter disabled the Theorem 3.1 LP path decides and attaches
    // its violating polymatroid.
    let lp_only = DecideOptions {
        counting_refuter: false,
        ..DecideOptions::default()
    };
    let decision = decide_containment_traced(&mut DecideContext::new(), &q1, &q2, &lp_only);
    match decision.unwrap().answer {
        ContainmentAnswer::NotContained {
            witness,
            counterexample,
        } => {
            assert!(counterexample.is_some());
            assert!(witness.is_some());
        }
        other => panic!("expected NotContained, got {other:?}"),
    }
}

/// E3 — Example 5.2 / Theorem 5.1: the reduction from (Max-)IIP to containment
/// with an acyclic containing query.
#[test]
fn example_5_2_reduction() {
    let mut expr = EntropyExpr::zero();
    expr.add_term(int(1), ["X1"]);
    expr.add_term(int(2), ["X2"]);
    expr.add_term(int(1), ["X3"]);
    expr.add_term(int(-1), ["X1", "X2"]);
    expr.add_term(int(-1), ["X2", "X3"]);
    let inequality = LinearInequality::new(vec!["X1".into(), "X2".into(), "X3".into()], expr);
    // Eq. (19) is a Shannon inequality.
    assert!(shannon_valid(&inequality.to_max()));

    // Uniformize (Lemma 5.3): q = 3 as in Eq. (20).
    let uniform = bqc_iip::uniformize(&inequality.to_max(), "U");
    uniform.validate().unwrap();
    assert_eq!(uniform.q, 3);

    // Build the queries (Section 5.3): Q2 is acyclic, Q1 has 3 adorned copies.
    let reduction = max_iip_to_containment(&uniform);
    assert_eq!(reduction.copies, 3);
    let hypergraph = Hypergraph::new(reduction.q2.hyperedges());
    assert!(hypergraph.is_alpha_acyclic());
    // The paper's Q1 has 9 variables over X1..X3; ours additionally carries the
    // split distinguished variable, giving 5 base variables per copy.
    assert_eq!(reduction.q1.num_vars(), 15);
}

/// E4 — Example B.4 / Fact B.5 / Corollary B.8: the parity function.
#[test]
fn example_b_4_parity() {
    let relation = parity_relation(["X", "Y", "Z"]);
    assert_eq!(relation.len(), 4);
    assert!(relation.is_totally_uniform());
    let empirical = relation_entropy(&relation);
    assert!((empirical.value_of(["X"]) - 1.0).abs() < 1e-9);
    assert!((empirical.value_of(["X", "Y"]) - 2.0).abs() < 1e-9);
    assert!((empirical.value_of(["X", "Y", "Z"]) - 2.0).abs() < 1e-9);

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
    assert!(is_polymatroid(&parity));
    assert!(!is_normal(&parity));
    // The Möbius inverse matches the table in Appendix B.
    let g = parity.mobius_inverse();
    assert_eq!(g[0b000], int(1));
    assert_eq!(g[0b111], int(2));
    for single in [0b001, 0b010, 0b100] {
        assert_eq!(g[single], int(-1));
    }
}

/// E5 — Example C.4 / Theorem C.3: normalizing the parity function.
#[test]
fn example_c_4_normalization() {
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
    let normalized = normalize(&parity);
    assert!(is_normal(&normalized));
    assert!(normalized.dominated_by(&parity));
    // Properties (2) and (3) of Theorem C.3.
    assert_eq!(
        normalized.value(parity.full_mask()),
        parity.value(parity.full_mask())
    );
    for v in ["X", "Y", "Z"] {
        assert_eq!(normalized.value_of([v]), parity.value_of([v]));
    }
    // Exactly one of the pair values drops from 2 to 1 (which one depends on
    // the elimination order), matching the figure in Example C.4.
    let pair_values: Vec<_> = [0b011u32, 0b101, 0b110]
        .iter()
        .map(|&mask| normalized.value(mask).clone())
        .collect();
    assert_eq!(pair_values.iter().filter(|v| **v == int(1)).count(), 1);
    assert_eq!(pair_values.iter().filter(|v| **v == int(2)).count(), 2);
}

/// E6 — Example A.2: the Boolean reduction of the Chaudhuri–Vardi queries.
#[test]
fn example_a_2_boolean_reduction() {
    let q1 = parse_query("Q1(x, z) :- P(x), S(u, x), S(v, z), R(z)").unwrap();
    let q2 = parse_query("Q2(x, z) :- P(x), S(u, y), S(v, y), R(z)").unwrap();
    let (b1, b2) = bqc_core::boolean_reduction(&q1, &q2).unwrap();
    assert!(b1.is_boolean());
    assert!(b2.is_boolean());
    // The bag-set answers relate as in the proof of Lemma A.1: summing the
    // grouped counts equals the Boolean count over the database extended with
    // full unary relations.
    let db = parse_structure("P(1). P(2). S(1,1). S(2,1). S(1,2). R(2). R(1).").unwrap();
    let answers1 = bag_set_answer(&q1, &db);
    let total: u128 = answers1.values().sum();
    let mut extended = db.clone();
    for value in db.active_domain() {
        extended.add_fact("U1", vec![value.clone()]);
        extended.add_fact("U2", vec![value.clone()]);
    }
    assert_eq!(count(&b1, &extended), total);
}

/// E7 — Example E.2: the locality property fails for the (non-normal) parity
/// relation, which is why Lemma E.1 needs normal counterexamples.
#[test]
fn example_e_2_locality_failure() {
    // Q1 = Q2 = R(X1,X2), S(X2,X3), T(X3,X1) (identical, hence contained).
    let q1 = parse_query("Q1() :- R(x1,x2), S(x2,x3), T(x3,x1)").unwrap();
    // The parity relation P over columns x1,x2,x3.
    let p = parity_relation(["x1", "x2", "x3"]);
    let d = p.induced_database(&q1);
    // Each relation of D is the full 2x2 square {0,1}^2.
    assert_eq!(d.num_facts("R"), 4);
    assert_eq!(d.num_facts("S"), 4);
    assert_eq!(d.num_facts("T"), 4);
    // hom(Q2, D) contains assignments that are in no single row of P: the paper
    // points at (1,1,1).  Concretely |hom| = 8 > |P| = 4.
    assert_eq!(count(&q1, &d), 8);
    assert_eq!(p.len(), 4);
    // (So P is *not* a witness against containment here — consistent with the
    //  queries being identical.)
    assert!(verify_witness(&q1, &q1, &p, &Budget::unlimited())
        .unwrap()
        .is_none());
}
