//! Differential test of the backtracking homomorphism counter against a
//! brute-force counter that tries every one of the `|adom|^n` assignments.
//!
//! Queries mix unary, binary and ternary relations and repeat variables
//! inside atoms; databases draw facts over a three-value domain, as plain
//! integers or as text so that interning sees more than one kind of value.

use bqc_obs::Budget;
use bqc_relational::{
    count_homomorphisms, enumerate_homomorphisms, Assignment, Atom, ConjunctiveQuery, Structure,
    Value,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

const RELATIONS: [(&str, usize); 3] = [("U", 1), ("R", 2), ("T", 3)];

/// The query with one atom per `(relation, argument variables)` pair; an
/// atom takes the first `arity` of its drawn variables.
fn query(atoms: &[(usize, Vec<usize>)]) -> ConjunctiveQuery {
    let atoms = atoms
        .iter()
        .map(|(relation, vars)| {
            let (name, arity) = RELATIONS[*relation];
            Atom::new(name, vars[..arity].iter().map(|v| format!("x{v}")))
        })
        .collect();
    ConjunctiveQuery::boolean("Q", atoms).expect("non-empty atom list")
}

fn database(facts: &[(usize, Vec<i64>)], as_text: bool) -> Structure {
    let mut db = Structure::empty();
    for (relation, values) in facts {
        let (name, arity) = RELATIONS[*relation];
        let tuple = values[..arity]
            .iter()
            .map(|&v| {
                if as_text {
                    Value::text(format!("d{v}"))
                } else {
                    Value::int(v)
                }
            })
            .collect();
        db.add_fact(name, tuple);
    }
    db
}

/// Every assignment of the query's variables over the active domain under
/// which each atom's image is a fact.
fn brute_force(query: &ConjunctiveQuery, data: &Structure) -> BTreeSet<Assignment> {
    let domain: Vec<Value> = data.active_domain().into_iter().collect();
    let vars = query.vars();
    let mut result = BTreeSet::new();
    if domain.is_empty() {
        return result;
    }
    let mut digits = vec![0usize; vars.len()];
    loop {
        let assignment: Assignment = vars
            .iter()
            .zip(&digits)
            .map(|(var, &d)| (var.clone(), domain[d].clone()))
            .collect();
        let satisfied = query.atoms().iter().all(|atom| {
            let image = atom.args.iter().map(|v| assignment[v].clone()).collect();
            data.contains_fact(&atom.relation, &image)
        });
        if satisfied {
            result.insert(assignment);
        }
        // Advance the odometer.
        let mut position = 0;
        loop {
            if position == digits.len() {
                return result;
            }
            digits[position] += 1;
            if digits[position] < domain.len() {
                break;
            }
            digits[position] = 0;
            position += 1;
        }
    }
}

fn check(query: &ConjunctiveQuery, data: &Structure) -> Result<(), TestCaseError> {
    let expected = brute_force(query, data);
    let unlimited = Budget::unlimited();
    let count = count_homomorphisms(query, data, &unlimited).unwrap();
    prop_assert_eq!(
        count,
        expected.len() as u128,
        "count of {} on {}",
        query,
        data
    );
    let enumerated = enumerate_homomorphisms(query, data, &unlimited).unwrap();
    prop_assert_eq!(
        enumerated.len(),
        expected.len(),
        "duplicates in {:?}",
        enumerated
    );
    let enumerated: BTreeSet<Assignment> = enumerated.into_iter().collect();
    prop_assert_eq!(enumerated, expected, "enumeration of {} on {}", query, data);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Up to four variables (so at most 81 brute-force assignments), up to
    /// five atoms over `U/1`, `R/2`, `T/3`, up to twelve facts.
    #[test]
    fn backtracking_matches_brute_force(
        atoms in vec((0usize..3, vec(0usize..4, 3)), 1..6),
        facts in vec((0usize..3, vec(0i64..3, 3)), 0..13),
        as_text in 0usize..2,
    ) {
        check(&query(&atoms), &database(&facts, as_text == 1))?;
    }
}

#[test]
fn repeated_variables_in_every_position() {
    // T(x0,x0,x1), T(x1,x0,x0), R(x1,x1), U(x0): repeats at the start, at
    // the end and in a binary atom.
    let q = query(&[
        (2, vec![0, 0, 1]),
        (2, vec![1, 0, 0]),
        (1, vec![1, 1, 0]),
        (0, vec![0, 0, 0]),
    ]);
    let mut facts = Vec::new();
    for a in 0..3 {
        for b in 0..3 {
            facts.push((2, vec![a, a, b]));
            facts.push((2, vec![b, a, a]));
            facts.push((1, vec![a, b, 0]));
        }
    }
    facts.push((0, vec![1, 0, 0]));
    let db = database(&facts, false);
    check(&q, &db).unwrap();
    // x0 = 1 (the only U fact), and R(x1,x1) holds for every x1.
    assert_eq!(brute_force(&q, &db).len(), 3);
}

#[test]
fn atoms_of_the_wrong_arity_have_no_homomorphisms() {
    // R is binary in the database; an atom over R of any other arity
    // matches no fact, so no assignment is a homomorphism.
    let mut db = Structure::empty();
    for (a, b) in [(0, 1), (1, 0), (0, 0)] {
        db.add_fact("R", vec![Value::int(a), Value::int(b)]);
    }
    let unlimited = Budget::unlimited();
    for atom in [Atom::new("R", ["x", "y", "x"]), Atom::new("R", ["x"])] {
        let q = ConjunctiveQuery::boolean("Q", vec![atom]).unwrap();
        assert_eq!(count_homomorphisms(&q, &db, &unlimited).unwrap(), 0, "{q}");
        assert!(enumerate_homomorphisms(&q, &db, &unlimited)
            .unwrap()
            .is_empty());
    }
}
