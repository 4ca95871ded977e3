//! The two reductions of Theorem 2.7, round-tripped.
//!
//! Part 1 starts from the information inequality of Eq. (19),
//!
//! ```text
//!     0 ≤ h(X1) + 2·h(X2) + h(X3) − h(X1X2) − h(X2X3),
//! ```
//!
//! uniformizes it (Lemma 5.3) and builds the containment instance `Q1 ⊑ Q2?`
//! with acyclic `Q2` (Section 5.3, Example 5.2), reporting the structure of
//! the produced queries.  Part 2 performs the full *semantic* round-trip — the
//! containment inequality of Eq. (8) re-derived from the constructed queries
//! has the same Shannon-cone validity as the original inequality — on two
//! deliberately tiny inequalities (one valid, one invalid) so that the exact
//! LP stays small.
//!
//! Run with: `cargo run --example reduction_roundtrip`

use bag_query_containment::prelude::*;
use bqc_arith::int;
use bqc_hypergraph::Hypergraph;
use bqc_iip::uniformize;

fn main() {
    part_1_structure_of_example_5_2();
    println!();
    part_2_semantic_roundtrip();
}

fn part_1_structure_of_example_5_2() {
    // Eq. (19).
    let mut expr = EntropyExpr::zero();
    expr.add_term(int(1), ["X1"]);
    expr.add_term(int(2), ["X2"]);
    expr.add_term(int(1), ["X3"]);
    expr.add_term(int(-1), ["X1", "X2"]);
    expr.add_term(int(-1), ["X2", "X3"]);
    let original = LinearInequality::new(vec!["X1".into(), "X2".into(), "X3".into()], expr);
    println!("== Part 1: Example 5.2 =============================================");
    println!("original inequality:   {original}");
    println!(
        "Shannon-valid:         {}",
        shannon_valid(&original.to_max())
    );

    // Lemma 5.3: uniformize.  Eq. (20) of the paper rewrites Eq. (19) with
    // q = 3 copies of h(X1X2X3) on the left; the uniformization reproduces that.
    let uniform = uniformize(&original.to_max(), "U");
    uniform
        .validate()
        .expect("uniformization produces a Uniform-Max-IIP");
    println!(
        "uniformized: q = {}, n = {}, p = {}, {} disjunct(s)",
        uniform.q,
        uniform.expressions[0].head_count,
        uniform.expressions[0].chain.len(),
        uniform.expressions.len(),
    );

    // Section 5.3: build the queries.
    let reduction = max_iip_to_containment(&uniform);
    println!(
        "Q1: {} variables, {} atoms ({} adorned copies)",
        reduction.q1.num_vars(),
        reduction.q1.atoms().len(),
        reduction.copies
    );
    println!(
        "Q2: {} variables, {} atoms",
        reduction.q2.num_vars(),
        reduction.q2.atoms().len()
    );
    let hypergraph = Hypergraph::new(reduction.q2.hyperedges());
    println!("Q2 is alpha-acyclic: {}", hypergraph.is_alpha_acyclic());
    assert!(hypergraph.is_alpha_acyclic());
    // (The full LP for this instance has 2^15 columns — see EXPERIMENTS.md for
    // why the semantic check is done on smaller instances below.)
}

/// Shannon-cone validity of `inequality` on a fresh prover, no budget.
fn shannon_valid(inequality: &MaxInequality) -> bool {
    GammaProver::new()
        .check_max_inequality(inequality, &Budget::unlimited())
        .expect("an unlimited budget cannot run out")
        .is_valid()
}

fn part_2_semantic_roundtrip() {
    println!("== Part 2: semantic round-trip on small instances ==================");
    let universe = vec!["X".to_string()];
    let cases = [
        ("0 <= h(X)", EntropyExpr::term(int(1), ["X"])),
        ("0 <= -h(X)", EntropyExpr::term(int(-1), ["X"])),
    ];
    for (label, expr) in cases {
        let original = LinearInequality::new(universe.clone(), expr);
        let original_valid = shannon_valid(&original.to_max());
        let uniform = uniformize(&original.to_max(), "U");
        let reduction = max_iip_to_containment(&uniform);
        let hypergraph = Hypergraph::new(reduction.q2.hyperedges());
        let join_tree = hypergraph
            .join_tree()
            .expect("acyclic query has a join tree");
        let (containment, _) = containment_inequality(&reduction.q1, &reduction.q2, &join_tree)
            .expect("the construction always admits homomorphisms");
        let roundtrip_valid = shannon_valid(&containment);
        println!(
            "{label}: original valid = {original_valid}, containment inequality valid = {roundtrip_valid}  (Q1 has {} vars, Q2 has {} vars)",
            reduction.q1.num_vars(),
            reduction.q2.num_vars()
        );
        assert_eq!(
            original_valid, roundtrip_valid,
            "the reduction must preserve validity"
        );
    }
    println!(
        "round-trip successful: validity preserved through Lemma 5.3 + Section 5.3 + Eq. (8)."
    );
}
