//! Witnesses for non-containment (Fact 3.2, Theorem 3.4, Lemma 4.8).
//!
//! A *witness* for `Q1 ⋢ Q2` is a relation `P ⊆ D^{vars(Q1)}` with
//! `|P| > |hom(Q2, Π_{Q1}(P))|` (Fact 3.2) — the induced database `Π_{Q1}(P)`
//! then has more `Q1`-homomorphisms than `Q2`-homomorphisms.  Theorem 3.4
//! shows that when `Q2` is chordal with a totally disconnected (resp. simple)
//! junction tree, a *product* (resp. *normal*) witness exists whenever any
//! witness exists.  This module verifies candidate witnesses by explicit
//! counting, extracts normal witnesses from polymatroid counterexamples of the
//! containment inequality (via the Lemma 3.7 normalization and the Lemma 4.8
//! gap amplification), searches for product witnesses by enumeration, and
//! provides a brute-force containment oracle for small instances.

use bqc_arith::Rational;
use bqc_entropy::{normal_relation_from_function, normalize, NormalFunction, SetFunction};
use bqc_obs::{Budget, Exhausted};
use bqc_relational::{count_homomorphisms, ConjunctiveQuery, Structure, VRelation, Value};

/// A verified proof that `Q1 ⋢ Q2`.
#[derive(Clone, Debug)]
pub struct NonContainmentWitness {
    /// The witnessing relation `P` over `vars(Q1)`.
    pub relation: VRelation,
    /// The induced database `D = Π_{Q1}(P)`.
    pub database: Structure,
    /// `|hom(Q1, D)|` (always at least `|P|`).
    pub hom_q1: u128,
    /// `|hom(Q2, D)|` (strictly less than `hom_q1`).
    pub hom_q2: u128,
    /// The queries the counts refer to (these may be the saturated variants of
    /// the original instance; saturation preserves containment by Fact A.3).
    pub q1_name: String,
    /// Name of the containing query used for the counts.
    pub q2_name: String,
}

impl NonContainmentWitness {
    /// The margin `hom_q1 − hom_q2`.
    pub fn margin(&self) -> u128 {
        self.hom_q1 - self.hom_q2
    }
}

/// Checks whether `P` witnesses `Q1 ⋢ Q2` in the sense of Fact 3.2:
/// `|P| > |hom(Q2, Π_{Q1}(P))|`.  (Since every row of `P` is a homomorphism of
/// `Q1` into the induced database, this implies `hom(Q1, D) > hom(Q2, D)`.)
/// The stricter `|P|`-based criterion is the one Theorem 3.4's product/normal
/// witness shapes refer to — Example 3.5 has a normal witness but no product
/// witness precisely under this definition.
///
/// The two hom counts charge `budget` (one hom-step per backtracking node);
/// `Err` means the budget ran out before the candidate was decided either
/// way.
pub fn verify_witness(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    relation: &VRelation,
    budget: &Budget,
) -> Result<Option<NonContainmentWitness>, Exhausted> {
    if relation.is_empty() {
        return Ok(None);
    }
    let database = relation.induced_database(q1);
    let hom_q2 = count_homomorphisms(q2, &database, budget)?;
    if (relation.len() as u128) <= hom_q2 {
        return Ok(None);
    }
    let hom_q1 = count_homomorphisms(q1, &database, budget)?;
    Ok((hom_q1 > hom_q2).then(|| NonContainmentWitness {
        relation: relation.clone(),
        database,
        hom_q1,
        hom_q2,
        q1_name: q1.name.clone(),
        q2_name: q2.name.clone(),
    }))
}

/// Extracts a normal witness from a polymatroid counterexample of the
/// containment inequality (Eq. 8).
///
/// The counterexample is first pushed down into the normal functions
/// (Lemma 3.7 item 2 — sound because the composed expressions are simple when
/// `Q2`'s junction tree is simple), its step coefficients are scaled to
/// integers, and then the whole function is amplified by `k = 1, 2, …`
/// (Lemma 4.8) until the materialized normal relation verifies by counting or
/// the row budget `max_rows` is exhausted.  The verification counts charge
/// `budget`; `Err` means it ran out before a witness was found or ruled out.
pub fn witness_from_counterexample(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    counterexample: &SetFunction,
    max_rows: u64,
    budget: &Budget,
) -> Result<Option<NonContainmentWitness>, Exhausted> {
    let normalized = normalize(counterexample);
    let Some(normal) = NormalFunction::try_from_set_function(&normalized) else {
        return Ok(None);
    };
    let (integral, _denominator) = normal.clear_denominators();
    for amplification in 1..=16u32 {
        let scaled = scale_normal(&integral, amplification);
        let Some(relation) = normal_relation_from_function(&scaled, max_rows) else {
            // The relation would exceed the row budget; larger amplifications
            // only grow it further.
            return Ok(None);
        };
        if let Some(witness) = verify_witness(q1, q2, &relation, budget)? {
            return Ok(Some(witness));
        }
    }
    Ok(None)
}

fn scale_normal(normal: &NormalFunction, factor: u32) -> NormalFunction {
    let mut scaled = NormalFunction::zero(normal.vars().to_vec());
    let factor = Rational::from(factor as i64);
    for (&w, coeff) in normal.coefficients() {
        scaled.add_step(w, coeff * &factor);
    }
    scaled
}

/// Searches for a *product* witness (Theorem 3.4 item i) by enumerating
/// per-variable domain sizes from `sizes` (e.g. `[1, 2, 4]`) over all
/// variables of `Q1`, skipping candidates whose row count exceeds `max_rows`.
pub fn search_product_witness(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    sizes: &[u64],
    max_rows: u64,
) -> Option<NonContainmentWitness> {
    let vars = q1.vars().to_vec();
    let n = vars.len();
    let mut assignment = vec![0usize; n];
    loop {
        // Build the candidate for the current size assignment.
        let rows: u64 = assignment.iter().map(|&i| sizes[i]).product();
        if rows <= max_rows {
            let factors: Vec<(String, Vec<Value>)> = vars
                .iter()
                .zip(&assignment)
                .map(|(v, &i)| {
                    let values = (0..sizes[i])
                        .map(|j| Value::tagged(v.clone(), Value::int(j as i64)))
                        .collect();
                    (v.clone(), values)
                })
                .collect();
            let candidate = VRelation::product(&factors);
            let verified = verify_witness(q1, q2, &candidate, &Budget::unlimited())
                .expect("unlimited budget cannot exhaust");
            if verified.is_some() {
                return verified;
            }
        }
        // Advance the odometer.
        let mut position = 0;
        loop {
            if position == n {
                return None;
            }
            assignment[position] += 1;
            if assignment[position] < sizes.len() {
                break;
            }
            assignment[position] = 0;
            position += 1;
        }
    }
}

/// Brute-force containment oracle: checks `Q1(D) ≤ Q2(D)` for **every**
/// database over the active domain `{0, …, domain_size−1}` whose relations are
/// arbitrary subsets of all possible tuples.  Doubly exponential — use only
/// for tiny vocabularies in tests.  Returns a counterexample database if
/// containment fails.
pub fn exhaustive_containment_check(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    domain_size: usize,
) -> Result<(), Structure> {
    let mut vocabulary = q1.vocabulary();
    vocabulary.merge(&q2.vocabulary());
    // All possible facts over the domain.
    let mut all_facts: Vec<(String, Vec<Value>)> = Vec::new();
    for symbol in vocabulary.symbols() {
        let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
        for _ in 0..symbol.arity {
            let mut next = Vec::new();
            for prefix in &tuples {
                for v in 0..domain_size {
                    let mut t = prefix.clone();
                    t.push(Value::int(v as i64));
                    next.push(t);
                }
            }
            tuples = next;
        }
        for t in tuples {
            all_facts.push((symbol.name.clone(), t));
        }
    }
    assert!(
        all_facts.len() <= 20,
        "exhaustive check limited to at most 2^20 databases"
    );
    let unlimited = Budget::unlimited();
    for subset in 0u64..(1 << all_facts.len()) {
        let mut db = Structure::new(vocabulary.clone());
        for (i, (name, tuple)) in all_facts.iter().enumerate() {
            if subset & (1 << i) != 0 {
                db.add_fact(name, tuple.clone());
            }
        }
        let count = |q: &ConjunctiveQuery| {
            count_homomorphisms(q, &db, &unlimited).expect("unlimited budget cannot exhaust")
        };
        if count(q1) > count(q2) {
            return Err(db);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_relational::parse_query;
    use std::collections::BTreeSet;

    #[test]
    fn example_3_5_normal_witness_verifies() {
        // Example 3.5's witness P = {(u,u,v,v) | u,v ∈ [n]} for n = 3.
        let q1 =
            parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
                .unwrap();
        let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
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
        let normal = VRelation::normal_relation(&product, &psi);
        let witness = verify_witness(&q1, &q2, &normal, &Budget::unlimited())
            .unwrap()
            .expect("P is a witness");
        // |P| = 9, hom(Q2, D) = 3 (the paper: n^2 vs n).
        assert_eq!(witness.hom_q1, 9);
        assert_eq!(witness.hom_q2, 3);
        assert!(witness.margin() > 0);
    }

    #[test]
    fn example_3_5_has_no_small_product_witness() {
        // The paper argues no product relation witnesses Example 3.5.
        let q1 =
            parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
                .unwrap();
        let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
        assert!(search_product_witness(&q1, &q2, &[1, 2, 3], 200).is_none());
    }

    #[test]
    fn product_witness_found_when_one_exists() {
        // Q1 = R(x,y) vs Q2 = R(u,v), R(v,w): a single edge with no 2-path
        // (e.g. x≠y and no continuation) gives hom(Q1) = 1 > hom(Q2) = 0.
        let q1 = parse_query("Q1() :- R(x,y)").unwrap();
        let q2 = parse_query("Q2() :- R(u,v), R(v,w)").unwrap();
        let witness = search_product_witness(&q1, &q2, &[1, 2], 100).expect("witness exists");
        assert!(witness.hom_q1 > witness.hom_q2);
    }

    #[test]
    fn verify_witness_rejects_non_witnesses() {
        // The triangle IS contained in the 2-star, so no relation can witness
        // non-containment; verify a couple of candidates are rejected.
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        let candidate = VRelation::product(&[
            ("x1".to_string(), (0..2).map(Value::int).collect()),
            ("x2".to_string(), (0..2).map(Value::int).collect()),
            ("x3".to_string(), (0..2).map(Value::int).collect()),
        ]);
        assert!(
            verify_witness(&triangle, &star, &candidate, &Budget::unlimited())
                .unwrap()
                .is_none()
        );
        let empty = VRelation::new(triangle.vars().to_vec());
        assert!(
            verify_witness(&triangle, &star, &empty, &Budget::unlimited())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn exhaustive_oracle_agrees_on_small_cases() {
        // Triangle ⊑ 2-star holds on every database over a 2-element domain.
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        assert!(exhaustive_containment_check(&triangle, &star, 2).is_ok());

        // The reverse direction fails, and the oracle produces a counterexample.
        match exhaustive_containment_check(&star, &triangle, 2) {
            Err(db) => {
                assert!(
                    count_homomorphisms(&star, &db, &Budget::unlimited()).unwrap()
                        > count_homomorphisms(&triangle, &db, &Budget::unlimited()).unwrap()
                );
            }
            Ok(()) => panic!("2-star is not contained in the triangle"),
        }
    }

    #[test]
    fn witness_from_counterexample_for_example_3_5() {
        // End-to-end: build the containment inequality for Example 3.5, get a
        // polymatroid counterexample from the LP, normalize it and materialize
        // a verified witness database.
        use crate::containment::containment_inequality;
        use bqc_hypergraph::{junction_tree, Graph};

        let q1 =
            parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
                .unwrap();
        let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
        let graph = Graph::from_cliques(q2.hyperedges());
        let td = junction_tree(&graph).unwrap();
        let (inequality, _) = containment_inequality(&q1, &q2, &td).unwrap();
        let verdict = bqc_iip::GammaProver::new()
            .check_max_inequality(&inequality, &Budget::unlimited())
            .unwrap();
        let counterexample = match verdict {
            bqc_iip::GammaValidity::NotShannonProvable { counterexample } => counterexample,
            bqc_iip::GammaValidity::ValidShannon => panic!("Example 3.5 must be non-contained"),
        };
        let witness =
            witness_from_counterexample(&q1, &q2, &counterexample, 1 << 12, &Budget::unlimited())
                .unwrap()
                .expect("normal witness must verify");
        assert!(witness.hom_q1 > witness.hom_q2);
    }
}
