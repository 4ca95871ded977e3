//! Quickstart: decide bag-set containment for Example 4.3 of the paper.
//!
//! The triangle query `Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)` is contained in
//! the two-out-star query `Q2() :- R(y1,y2), R(y1,y3)`: on every database, the
//! number of (homomorphic) triangles is at most the number of out-stars.  The
//! reverse containment fails, and the decision procedure produces a concrete
//! counterexample database.
//!
//! Run with: `cargo run --example quickstart`

use bag_query_containment::prelude::*;

fn main() {
    let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
    let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();

    println!("Q1 (triangle):  {triangle}");
    println!("Q2 (two-star):  {star}");
    println!();

    // Direction 1: Q1 ⊑ Q2 (Example 4.3, attributed to Eric Vee).
    match decide_containment(&triangle, &star).unwrap() {
        ContainmentAnswer::Contained { inequality } => {
            println!("Q1 ⊑ Q2: CONTAINED (for every database, under bag-set semantics).");
            if let Some(inequality) = inequality {
                println!("  proven by the Shannon-valid max-information inequality");
                println!("  {inequality}");
            }
        }
        other => panic!("unexpected answer: {other:?}"),
    }
    println!();

    // Direction 2: Q2 ⊑ Q1 fails.
    match decide_containment(&star, &triangle).unwrap() {
        ContainmentAnswer::NotContained { witness, .. } => {
            println!("Q2 ⊑ Q1: NOT CONTAINED.");
            if let Some(witness) = witness {
                println!(
                    "  witness database with |hom(Q2,D)| = {} > |hom(Q1,D)| = {}:",
                    witness.hom_q1, witness.hom_q2
                );
                for line in witness.database.to_string().lines() {
                    println!("    {line}");
                }
            }
        }
        other => panic!("unexpected answer: {other:?}"),
    }
    println!();

    // Spot-check the containment on a few concrete databases.
    for facts in [
        "R(1,2). R(2,3). R(3,1).",
        "R(1,1).",
        "R(1,2). R(1,3). R(2,3). R(3,2).",
    ] {
        let db = parse_structure(facts).unwrap();
        let count = |q| count_homomorphisms(q, &db, &Budget::unlimited()).expect("no budget set");
        let (triangles, stars) = (count(&triangle), count(&star));
        println!("on D = {{ {facts} }}: #triangles = {triangles} <= #stars = {stars}");
        assert!(triangles <= stars);
    }
}
