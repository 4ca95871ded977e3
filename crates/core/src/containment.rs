//! The containment inequality (Eq. 8) connecting `Q1 ⊑ Q2` to a Max-II.
//!
//! Theorem 4.2: if the max-information inequality
//!
//! ```text
//!     h(vars(Q1))  ≤  max_{(T,χ) ∈ TD(Q2)}  max_{φ ∈ hom(Q2,Q1)}  (E_T ∘ φ)(h)
//! ```
//!
//! holds for every entropic `h`, then `Q1 ⊑ Q2`.  Theorem 4.4 shows the
//! converse when `Q2` is acyclic, and Lemma E.1 when `Q2` is chordal with a
//! simple junction tree — in both cases it suffices to take a single junction
//! tree on the right-hand side (see the remark closing Section 4.2).  This
//! module constructs that inequality for a *given* tree decomposition of `Q2`,
//! which is what the decision procedure in [`crate::decide`] consumes.

use crate::et::et_expression;
use bqc_arith::Rational;
use bqc_entropy::{ConditionalExpr, EntropyExpr};
use bqc_hypergraph::TreeDecomposition;
use bqc_iip::{GammaProver, MaxInequality};
use bqc_obs::{Budget, Exhausted};
use bqc_relational::{enumerate_homomorphisms, ConjunctiveQuery, Value};
use std::collections::BTreeMap;

/// A homomorphism `φ : Q2 → Q1` between queries, i.e. a mapping from `Q2`'s
/// variables to `Q1`'s variables preserving atoms.
pub type QueryHomomorphism = BTreeMap<String, String>;

/// Enumerates the homomorphisms `φ ∈ hom(Q2, Q1)` by evaluating `Q2` on the
/// canonical structure of `Q1`, under a cooperative work budget: charges one
/// hom-step per node of the backtracking search and aborts with
/// `Err(Exhausted)` when the budget runs out.  An aborted enumeration
/// certifies nothing (it must not be read as `hom(Q2, Q1) = ∅`).
pub fn query_homomorphisms(
    q2: &ConjunctiveQuery,
    q1: &ConjunctiveQuery,
    budget: &Budget,
) -> Result<Vec<QueryHomomorphism>, Exhausted> {
    let canonical = q1.canonical_structure();
    Ok(enumerate_homomorphisms(q2, &canonical, budget)?
        .into_iter()
        .map(|assignment| {
            assignment
                .into_iter()
                .map(|(var, value)| match value {
                    Value::Text(name) => (var, name),
                    other => panic!("canonical structure produced a non-text value {other}"),
                })
                .collect()
        })
        .collect())
}

/// The containment inequality of Eq. (8) for a fixed tree decomposition `T`
/// of `Q2`:
///
/// `0 ≤ max_{φ ∈ hom(Q2,Q1)} [ (E_T ∘ φ)(h) − h(vars(Q1)) ]`,
///
/// returned as a [`MaxInequality`] over `vars(Q1)`, together with the
/// composed conditional expressions (whose *simplicity* the decision
/// procedure inspects).  Returns `None` when `hom(Q2, Q1) = ∅` (in which case
/// `Q1 ⋢ Q2` outright, witnessed by the canonical database of `Q1`).
pub fn containment_inequality(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    td: &TreeDecomposition,
) -> Option<(MaxInequality, Vec<ConditionalExpr>)> {
    let homomorphisms =
        query_homomorphisms(q2, q1, &Budget::unlimited()).expect("unlimited budget cannot exhaust");
    containment_inequality_from_homs(q1, td, &homomorphisms)
}

/// [`containment_inequality`] with the homomorphisms `hom(Q2, Q1)` supplied
/// by the caller — the staged decision pipeline enumerates them once in its
/// hom-existence screen and reuses them here, instead of paying the
/// backtracking enumeration a second time.
pub fn containment_inequality_from_homs(
    q1: &ConjunctiveQuery,
    td: &TreeDecomposition,
    homomorphisms: &[QueryHomomorphism],
) -> Option<(MaxInequality, Vec<ConditionalExpr>)> {
    if homomorphisms.is_empty() {
        return None;
    }
    let et = et_expression(td);
    let q1_vars: Vec<String> = q1.vars().to_vec();
    let mut disjuncts: Vec<EntropyExpr> = Vec::with_capacity(homomorphisms.len());
    let mut composed: Vec<ConditionalExpr> = Vec::with_capacity(homomorphisms.len());
    for phi in homomorphisms {
        let et_phi = et.compose(phi);
        let mut expr = et_phi.flatten();
        expr.add_term(-Rational::one(), q1_vars.iter().cloned());
        disjuncts.push(expr);
        composed.push(et_phi);
    }
    Some((MaxInequality::new(q1_vars, disjuncts), composed))
}

/// Theorem 4.2 as a one-shot *sufficient* containment test: builds Eq. (8)
/// for the given tree decomposition of `Q2` and checks it over the Shannon
/// cone.  `true` means `Q1 ⊑ Q2` (for every database, under bag-set
/// semantics); `false` is inconclusive in general.
pub fn sufficient_containment_check(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    td: &TreeDecomposition,
) -> bool {
    match containment_inequality(q1, q2, td) {
        None => false,
        Some((inequality, _)) => GammaProver::new()
            .check_max_inequality(&inequality, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
            .is_valid(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_hypergraph::{junction_tree, Graph};
    use bqc_relational::parse_query;

    /// Shannon-cone validity on a fresh prover, no budget.
    fn shannon_valid(inequality: &MaxInequality) -> bool {
        GammaProver::new()
            .check_max_inequality(inequality, &Budget::unlimited())
            .unwrap()
            .is_valid()
    }

    fn junction_tree_of(q: &ConjunctiveQuery) -> TreeDecomposition {
        let graph = Graph::from_cliques(q.hyperedges());
        junction_tree(&graph).expect("query is chordal")
    }

    #[test]
    fn hom_enumeration_between_queries() {
        // Example 4.3: three homomorphisms from the 2-star into the triangle.
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        let homs = query_homomorphisms(&star, &triangle, &Budget::unlimited()).unwrap();
        assert_eq!(homs.len(), 3);
        for phi in &homs {
            // y2 and y3 must both be the successor of y1 in the triangle.
            assert_eq!(phi["y2"], phi["y3"]);
            assert_ne!(phi["y1"], phi["y2"]);
        }
    }

    #[test]
    fn example_4_3_inequality_is_valid() {
        // Vee's example: the triangle is contained in the 2-star.
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        let td = junction_tree_of(&star);
        assert!(td.is_simple());
        let (inequality, composed) =
            containment_inequality(&triangle, &star, &td).expect("homomorphisms exist");
        assert_eq!(inequality.num_disjuncts(), 3);
        assert!(composed.iter().all(|e| e.is_simple()));
        assert!(shannon_valid(&inequality));
        assert!(sufficient_containment_check(&triangle, &star, &td));
    }

    #[test]
    fn example_3_5_inequality_is_invalid() {
        // Example 3.5: Q1 (two disjoint "3-parallel-edge" patterns) is NOT
        // contained in Q2 = A(y1,y2), B(y1,y3), C(y4,y2).
        let q1 =
            parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
                .unwrap();
        let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
        let td = junction_tree_of(&q2);
        assert!(td.is_simple());
        let (inequality, composed) =
            containment_inequality(&q1, &q2, &td).expect("homomorphisms exist");
        assert!(composed.iter().all(|e| e.is_simple()));
        assert!(!shannon_valid(&inequality));
    }

    #[test]
    fn no_homomorphism_means_no_inequality() {
        // Q2 uses a relation S that Q1 does not mention at all.
        let q1 = parse_query("Q1() :- R(x,y)").unwrap();
        let q2 = parse_query("Q2() :- S(u,v)").unwrap();
        let td = junction_tree_of(&q2);
        assert!(containment_inequality(&q1, &q2, &td).is_none());
        assert!(!sufficient_containment_check(&q1, &q2, &td));
    }

    #[test]
    fn identical_queries_are_contained() {
        let q = parse_query("Q() :- R(x,y), S(y,z)").unwrap();
        let td = junction_tree_of(&q);
        assert!(sufficient_containment_check(&q, &q, &td));
    }

    #[test]
    fn sub_query_contains_super_query() {
        // Q1 = R(x,y), R(y,z) (2-path) is contained in Q2 = R(u,v) (single edge):
        // every database has at least as many edges as ... no wait, the 2-path can
        // have MORE homomorphisms than edges (e.g. a star).  The correct direction
        // here: Q1 = R(x,y) is contained in Q2 = R(u,v) trivially (same query).
        // A more interesting one: Q1 = R(x,y), S(x,y) is contained in Q2 = R(u,v):
        // every (x,y) satisfying both R and S also satisfies R.
        let q1 = parse_query("Q1() :- R(x,y), S(x,y)").unwrap();
        let q2 = parse_query("Q2() :- R(u,v)").unwrap();
        let td = junction_tree_of(&q2);
        assert!(sufficient_containment_check(&q1, &q2, &td));
    }

    #[test]
    fn two_path_not_contained_in_triangle() {
        // Q1 = 2-path, Q2 = triangle: on a triangle-free graph with edges,
        // hom(Q2) = 0 < hom(Q1), so containment fails.  There is no homomorphism
        // from the triangle into the 2-path, so the inequality does not even exist.
        let path = parse_query("Q1() :- R(x,y), R(y,z)").unwrap();
        let triangle = parse_query("Q2() :- R(a,b), R(b,c), R(c,a)").unwrap();
        // The triangle's Gaifman graph is a 3-clique, hence chordal.
        let td = junction_tree_of(&triangle);
        assert!(containment_inequality(&path, &triangle, &td).is_none());
    }
}
