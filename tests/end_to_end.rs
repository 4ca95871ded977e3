//! Cross-crate integration tests: the full pipeline from parsed queries
//! through the containment inequality, the Shannon-cone LP, witness
//! extraction and back to concrete databases.

use bag_query_containment::prelude::*;
use bqc_core::{count_homomorphisms_acyclic, dom_to_containment, saturate_pair};

/// An unbudgeted homomorphism count.
fn count(query: &ConjunctiveQuery, data: &Structure) -> u128 {
    count_homomorphisms(query, data, &Budget::unlimited()).unwrap()
}

/// The decision procedure never contradicts evaluation on concrete databases:
/// whenever it answers "contained", spot-check the counts on a family of
/// databases; whenever it answers "not contained" with a witness, the witness
/// counts must hold.
#[test]
fn decisions_are_consistent_with_evaluation() {
    let instances = [
        (
            "Q1() :- R(x,y), R(y,z), R(z,x)",
            "Q2() :- R(u,v), R(u,w)",
            true,
        ),
        ("Q1() :- R(x,y), S(x,y)", "Q2() :- R(u,v)", true),
        ("Q1() :- R(x,y), R(y,x)", "Q2() :- R(u,v)", true),
        ("Q1() :- R(x,y), R(y,z)", "Q2() :- R(u,v)", false),
        (
            "Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
            "Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)",
            false,
        ),
    ];
    let test_databases = [
        "R(1,2). R(2,3). R(3,1). S(1,2). A(1,1). B(1,1). C(1,1).",
        "R(1,1). S(1,1). A(1,2). B(1,3). C(4,2).",
        "R(1,2). R(2,1). R(1,3). S(2,1). S(1,2). A(1,1). A(2,2). B(1,1). B(2,2). C(1,1). C(2,2).",
    ];
    for (t1, t2, expected_contained) in instances {
        let q1 = parse_query(t1).unwrap();
        let q2 = parse_query(t2).unwrap();
        let answer = decide_containment(&q1, &q2).unwrap();
        assert_eq!(
            answer.is_contained(),
            expected_contained,
            "unexpected answer for {t1} ⊑ {t2}"
        );
        match answer {
            ContainmentAnswer::Contained { .. } => {
                for facts in test_databases {
                    let db = parse_structure(facts).unwrap();
                    assert!(
                        count(&q1, &db) <= count(&q2, &db),
                        "containment violated on {facts} for {t1} ⊑ {t2}"
                    );
                }
            }
            ContainmentAnswer::NotContained { witness, .. } => {
                if let Some(witness) = witness {
                    assert!(witness.hom_q1 > witness.hom_q2);
                    // Re-count from scratch on the recorded database.
                    let d = &witness.database;
                    let recount_1 = count(&q1, d);
                    let recount_2 = count(&q2, d);
                    // The recorded counts may refer to the saturated queries;
                    // the original pair must still separate.
                    if recount_1 <= recount_2 {
                        let (s1, s2) = saturate_pair(&q1, &q2);
                        assert!(
                            count(&s1, d) > count(&s2, d),
                            "witness database does not separate the queries"
                        );
                    }
                }
            }
            ContainmentAnswer::Unknown { .. } => panic!("instance unexpectedly undecided"),
        }
    }
}

/// The sufficient condition of Theorem 4.2 with the trivial single-bag
/// decomposition is weaker than with a junction tree, but never unsound.
#[test]
fn single_bag_sufficient_condition_is_sound() {
    let q1 = parse_query("Q1() :- R(x,y), R(y,z), R(z,x)").unwrap();
    let q2 = parse_query("Q2() :- R(u,v), R(u,w)").unwrap();
    let single = TreeDecomposition::single_bag(q2.var_set());
    if sufficient_containment_check(&q1, &q2, &single) {
        // If it fires, containment must really hold (it does for this pair).
        for facts in ["R(1,2). R(2,3). R(3,1).", "R(1,1)."] {
            let db = parse_structure(facts).unwrap();
            assert!(count(&q1, &db) <= count(&q2, &db));
        }
    }
}

/// DOM (structure domination) agrees with query containment through the
/// structure ↔ query correspondence of Section 2.2.
#[test]
fn dom_and_containment_agree() {
    // A = directed 2-cycle, B = single edge: A is dominated by B
    // (hom(A,D) counts back-and-forth pairs, always at most the edge count).
    let a = parse_structure("E(p, q). E(q, p).").unwrap();
    let b = parse_structure("E(s, t).").unwrap();
    let (qa, qb) = dom_to_containment(&a, &b).unwrap();
    let answer = decide_containment(&qa, &qb).unwrap();
    assert!(answer.is_contained());
    // And B is not dominated by A.
    let reverse = decide_containment(&qb, &qa).unwrap();
    assert!(reverse.is_not_contained());
}

/// The two homomorphism counters agree on acyclic queries, including through
/// the bag-set (group-by) evaluation.
#[test]
fn counters_agree_and_group_by_sums_match() {
    let boolean = parse_query("Q() :- Orders(c,p), Stock(p,w)").unwrap();
    let grouped = parse_query("Q(c) :- Orders(c,p), Stock(p,w)").unwrap();
    let db = parse_structure(
        "Orders(a, x). Orders(a, y). Orders(b, x). Stock(x, w1). Stock(x, w2). Stock(y, w1).",
    )
    .unwrap();
    let total = count(&boolean, &db);
    assert_eq!(count_homomorphisms_acyclic(&boolean, &db), Some(total));
    let per_group = bag_set_answer(&grouped, &db);
    assert_eq!(per_group.values().sum::<u128>(), total);
    assert_eq!(per_group[&vec![Value::text("a")]], 3);
    assert_eq!(per_group[&vec![Value::text("b")]], 2);
}

/// Witness extraction produces databases that genuinely separate the queries,
/// across a small family of not-contained instances.
#[test]
fn extracted_witnesses_separate_queries() {
    let instances = [
        ("Q1() :- R(x,y), R(y,z)", "Q2() :- R(u,v), R(u,w)"),
        ("Q1() :- R(x,y), R(z,y)", "Q2() :- R(u,v), R(v,w)"),
    ];
    for (t1, t2) in instances {
        let q1 = parse_query(t1).unwrap();
        let q2 = parse_query(t2).unwrap();
        match decide_containment(&q1, &q2).unwrap() {
            ContainmentAnswer::NotContained { witness, .. } => {
                if let Some(witness) = witness {
                    assert!(
                        witness.hom_q1 > witness.hom_q2,
                        "witness does not separate {t1} and {t2}"
                    );
                }
            }
            ContainmentAnswer::Contained { .. } => {
                // If the procedure says contained, verify on a brutal little
                // database to make sure it is not lying.
                let db = parse_structure("R(1,1). R(1,2). R(2,1). R(2,2).").unwrap();
                assert!(count(&q1, &db) <= count(&q2, &db));
            }
            ContainmentAnswer::Unknown { .. } => {}
        }
    }
}

/// Bag-set evaluation of a non-Boolean query is exactly COUNT(*) GROUP BY.
#[test]
fn bag_set_semantics_matches_sql_group_by() {
    let q = parse_query("Q(x) :- R(x,y), R(y,z)").unwrap();
    let db = parse_structure("R(1,2). R(2,3). R(2,4). R(3,1).").unwrap();
    let answer = bag_set_answer(&q, &db);
    // Vertex 1 starts paths 1->2->3 and 1->2->4; vertex 2 starts 2->3->1;
    // vertex 3 starts 3->1->2.
    assert_eq!(answer[&vec![Value::int(1)]], 2);
    assert_eq!(answer[&vec![Value::int(2)]], 1);
    assert_eq!(answer[&vec![Value::int(3)]], 1);
    assert_eq!(answer.get(&vec![Value::int(4)]), None);
}
