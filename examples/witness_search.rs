//! Witness shapes (Example 3.5 and Theorem 3.4).
//!
//! Example 3.5 of the paper exhibits a pair of queries where `Q1 ⋢ Q2`, the
//! containing query is chordal with a *simple* junction tree, and a *normal*
//! witness exists — but no *product* witness does.  This example reproduces
//! all three facts:
//!
//! 1. the decision procedure answers "not contained" and materializes a
//!    verified normal witness from the LP counterexample;
//! 2. the hand-written normal relation `P = {(u,u,v,v)}` of the paper also
//!    verifies;
//! 3. an exhaustive search over small product relations finds nothing.
//!
//! Run with: `cargo run --example witness_search`

use bag_query_containment::prelude::*;
use std::collections::BTreeSet;

fn main() {
    let q1 =
        parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
            .unwrap();
    let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
    println!("Q1: {q1}");
    println!("Q2: {q2}");
    println!();

    // The containing query is chordal with a simple junction tree.
    let graph = Graph::from_cliques(q2.hyperedges());
    let jt = junction_tree(&graph).expect("Q2 is chordal");
    println!("junction tree of Q2 (simple = {}):", jt.is_simple());
    for line in jt.to_string().lines() {
        println!("  {line}");
    }
    println!();

    // 1. The decision procedure.
    match decide_containment(&q1, &q2).unwrap() {
        ContainmentAnswer::NotContained {
            witness,
            counterexample,
        } => {
            println!("decision: Q1 ⋢ Q2");
            if let Some(h) = counterexample {
                println!("violating polymatroid found by the LP:");
                for line in h.to_string().lines() {
                    println!("  {line}");
                }
            }
            if let Some(witness) = witness {
                println!(
                    "materialized witness: |P| rows -> |hom(Q1,D)| = {}, |hom(Q2,D)| = {}",
                    witness.hom_q1, witness.hom_q2
                );
            }
        }
        other => panic!("unexpected answer {other:?}"),
    }
    println!();

    // 2. The paper's hand-written normal witness {(u,u,v,v) | u,v in [3]}.
    let product = VRelation::product(&[
        ("u".to_string(), (1..=3).map(Value::int).collect()),
        ("v".to_string(), (1..=3).map(Value::int).collect()),
    ]);
    let psi: Vec<(String, BTreeSet<String>)> = vec![
        ("x1".to_string(), ["u".to_string()].into_iter().collect()),
        ("x2".to_string(), ["u".to_string()].into_iter().collect()),
        ("x1'".to_string(), ["v".to_string()].into_iter().collect()),
        ("x2'".to_string(), ["v".to_string()].into_iter().collect()),
    ];
    let paper_witness = VRelation::normal_relation(&product, &psi);
    let verified = verify_witness(&q1, &q2, &paper_witness, &Budget::unlimited())
        .expect("no budget set")
        .expect("the paper's witness verifies");
    println!(
        "paper's normal witness P (n=3): |P| = {}, hom(Q1,D) = {}, hom(Q2,D) = {}",
        paper_witness.len(),
        verified.hom_q1,
        verified.hom_q2
    );

    // 3. No product witness exists (the paper proves none exists at any size;
    //    we check all small ones).
    let product_attempt = search_product_witness(&q1, &q2, &[1, 2, 3, 4], 512);
    println!(
        "exhaustive small product-witness search: {}",
        if product_attempt.is_none() {
            "none found (as the paper predicts)"
        } else {
            "FOUND?!"
        }
    );
    assert!(product_attempt.is_none());
}
