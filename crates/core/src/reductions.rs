//! The paper's syntactic reductions between containment-style problems.
//!
//! * Lemma A.1 — containment of queries with head variables reduces to
//!   containment of **Boolean** queries by adding one fresh unary atom per
//!   head variable ([`boolean_reduction`]).
//! * Fact A.3 — queries can be *saturated* with projection atoms so that every
//!   tree-decomposition bag is covered by atoms; saturation preserves
//!   containment ([`saturate`], [`saturate_pair`]).
//! * Section 2.2 — the bag-bag variant reduces to the bag-set variant by
//!   adding a fresh attribute to every atom occurrence
//!   ([`bag_bag_to_bag_set`]).
//! * Section 2.1 / 2.2 — the domination problem DOM between structures is the
//!   same problem as BagCQC via the structure ↔ query correspondence
//!   ([`dom_to_containment`]), and the exponent-domination problem of
//!   Kopparty–Rossman reduces to DOM by taking disjoint powers
//!   ([`exponent_domination_to_containment`]).

use bqc_relational::{structure_to_query, Atom, ConjunctiveQuery, Structure};
use std::collections::BTreeSet;

/// Lemma A.1: reduces a containment instance with head variables to a Boolean
/// one.  Both queries must have the same number of head variables; the head
/// variables are paired up positionally and each pair receives the same fresh
/// unary relation `U{i}`.
///
/// Returns an error string when the head arities differ.
pub fn boolean_reduction(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<(ConjunctiveQuery, ConjunctiveQuery), String> {
    if q1.head().len() != q2.head().len() {
        return Err(format!(
            "cannot compare queries with different head arities ({} vs {})",
            q1.head().len(),
            q2.head().len()
        ));
    }
    if q1.is_boolean() {
        return Ok((q1.clone(), q2.clone()));
    }
    // Choose a relation-name prefix that collides with nothing in either query.
    let mut prefix = "U".to_string();
    let used: BTreeSet<String> = q1
        .atoms()
        .iter()
        .chain(q2.atoms().iter())
        .map(|a| a.relation.clone())
        .collect();
    while used.iter().any(|r| r.starts_with(&prefix)) {
        prefix.push('_');
    }
    Ok((q1.to_boolean(&prefix), q2.to_boolean(&prefix)))
}

/// Fact A.3: adds, for every atom `R(x_1,…,x_a)` and every non-empty proper
/// subset `S ⊂ [a]` of its positions, a projection atom `R__S(x_S)` over a
/// fresh relation name.  The transformed query is equivalent for containment
/// purposes (both queries of an instance must be saturated together, and the
/// projection relations of a database are derived from the base relations).
pub fn saturate(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut atoms: Vec<Atom> = query.atoms().to_vec();
    for atom in query.atoms() {
        let arity = atom.args.len();
        if arity <= 1 {
            continue;
        }
        for subset in 1u32..((1 << arity) - 1) {
            let positions: Vec<usize> = (0..arity).filter(|i| subset & (1 << i) != 0).collect();
            let name = format!(
                "{}__{}",
                atom.relation,
                positions
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join("_")
            );
            let args: Vec<String> = positions.iter().map(|&p| atom.args[p].clone()).collect();
            atoms.push(Atom::new(name, args));
        }
    }
    ConjunctiveQuery::new(format!("{}_sat", query.name), query.head().to_vec(), atoms)
        .expect("saturation of a valid query is valid")
}

/// Saturates both queries of a containment instance consistently.
pub fn saturate_pair(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> (ConjunctiveQuery, ConjunctiveQuery) {
    (saturate(q1), saturate(q2))
}

/// Section 2.2: reduces bag-bag containment to bag-set containment by adding
/// one fresh variable to every atom *occurrence* (modelling the tuple
/// multiplicity as an extra attribute).  Under this transformation repeated
/// atoms become distinct, as required by bag-bag semantics.
pub fn bag_bag_to_bag_set(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let atoms: Vec<Atom> = query
        .atoms()
        .iter()
        .enumerate()
        .map(|(i, atom)| {
            let mut args = atom.args.clone();
            args.push(format!("__mult_{}_{}", query.name, i));
            Atom::new(format!("{}_bb", atom.relation), args)
        })
        .collect();
    ConjunctiveQuery::new(
        format!("{}_bagbag", query.name),
        query.head().to_vec(),
        atoms,
    )
    .expect("bag-bag reduction of a valid query is valid")
}

/// The domination problem (Problem 2.1): `B` dominates `A` iff
/// `|hom(A,D)| ≤ |hom(B,D)|` for every `D`.  Via the structure ↔ query
/// correspondence of Section 2.2 this is the containment `Q_A ⊑ Q_B` of the
/// associated Boolean queries.  Returns `None` when either structure has no
/// tuples at all (its associated query would have an empty body; domination is
/// then settled directly by comparing domain sizes and is not interesting).
pub fn dom_to_containment(
    a: &Structure,
    b: &Structure,
) -> Option<(ConjunctiveQuery, ConjunctiveQuery)> {
    let (qa, isolated_a) = structure_to_query(a, "Q_A");
    let (qb, isolated_b) = structure_to_query(b, "Q_B");
    if !isolated_a.is_empty() || !isolated_b.is_empty() {
        return None;
    }
    Some((qa?, qb?))
}

/// Problem 2.2 (exponent domination): `|hom(A,D)|^c ≤ |hom(B,D)|` for all `D`,
/// with `c = num/den ≥ 0` rational, reduces to DOM via
/// `|hom(n·A, D)| = |hom(A,D)|^n`: the instance becomes
/// `num·A  ⊑-dominated-by  den·B`.
///
/// # Panics
///
/// Panics if `den` is zero.
pub fn exponent_domination_to_containment(
    a: &Structure,
    b: &Structure,
    num: usize,
    den: usize,
) -> Option<(ConjunctiveQuery, ConjunctiveQuery)> {
    assert!(den > 0, "exponent denominator must be positive");
    if num == 0 {
        // |hom(A,D)|^0 = 1 ≤ |hom(B,D)| iff B always has a homomorphism; treat
        // as the domination of the "single fact" structure... simplest honest
        // answer: not expressible as a containment of these two queries.
        return None;
    }
    let a_pow = a.disjoint_copies(num);
    let b_pow = b.disjoint_copies(den);
    dom_to_containment(&a_pow, &b_pow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_obs::Budget;
    use bqc_relational::{count_homomorphisms, parse_query, parse_structure, Value};

    /// An unbudgeted homomorphism count.
    fn count(query: &ConjunctiveQuery, data: &Structure) -> u128 {
        count_homomorphisms(query, data, &Budget::unlimited()).unwrap()
    }

    #[test]
    fn boolean_reduction_example_a_2() {
        // Example A.2 (from Chaudhuri–Vardi):
        //   Q1(x,z) :- P(x), S(u,x), S(v,z), R(z)
        //   Q2(x,z) :- P(x), S(u,y), S(v,y), R(z)
        let q1 = parse_query("Q1(x, z) :- P(x), S(u, x), S(v, z), R(z)").unwrap();
        let q2 = parse_query("Q2(x, z) :- P(x), S(u, y), S(v, y), R(z)").unwrap();
        let (b1, b2) = boolean_reduction(&q1, &q2).unwrap();
        assert!(b1.is_boolean() && b2.is_boolean());
        assert_eq!(b1.atoms().len(), 6);
        assert_eq!(b2.atoms().len(), 6);
        // The same unary relation names are used on both sides.
        let unary_names_1: BTreeSet<&str> = b1
            .atoms()
            .iter()
            .filter(|a| a.args.len() == 1 && a.relation.starts_with('U'))
            .map(|a| a.relation.as_str())
            .collect();
        let unary_names_2: BTreeSet<&str> = b2
            .atoms()
            .iter()
            .filter(|a| a.args.len() == 1 && a.relation.starts_with('U'))
            .map(|a| a.relation.as_str())
            .collect();
        assert_eq!(unary_names_1, unary_names_2);
        assert_eq!(unary_names_1.len(), 2);
    }

    #[test]
    fn boolean_reduction_preserves_counts_on_instances() {
        // Sanity-check the semantics of Lemma A.1 on a concrete database: the
        // total number of homomorphisms of the Boolean query over D extended
        // with singleton unary relations U_i = {d_i} equals Q[d](D).
        let q = parse_query("Q(x) :- R(x, y)").unwrap();
        let (b, _) = boolean_reduction(&q, &q).unwrap();
        let db = parse_structure("R(1,2). R(1,3). R(2,3).").unwrap();
        // d = (1): out-degree 2.
        let mut extended = db.clone();
        extended.add_fact("U1", vec![Value::int(1)]);
        assert_eq!(count(&b, &extended), 2);
        // d = (3): out-degree 0.
        let mut extended = db;
        extended.add_fact("U1", vec![Value::int(3)]);
        assert_eq!(count(&b, &extended), 0);
    }

    #[test]
    fn boolean_reduction_rejects_mismatched_heads() {
        let q1 = parse_query("Q1(x) :- R(x, y)").unwrap();
        let q2 = parse_query("Q2(x, y) :- R(x, y)").unwrap();
        assert!(boolean_reduction(&q1, &q2).is_err());
    }

    #[test]
    fn boolean_reduction_avoids_name_clashes() {
        let q1 = parse_query("Q1(x) :- U1(x, y)").unwrap();
        let q2 = parse_query("Q2(z) :- U1(z, w)").unwrap();
        let (b1, _) = boolean_reduction(&q1, &q2).unwrap();
        // The fresh unary relation must not be called U1 (already a binary symbol).
        let unary: Vec<&Atom> = b1.atoms().iter().filter(|a| a.args.len() == 1).collect();
        assert_eq!(unary.len(), 1);
        assert_ne!(unary[0].relation, "U1");
    }

    #[test]
    fn saturation_adds_projection_atoms() {
        let q = parse_query("Q() :- R(x, y, z)").unwrap();
        let saturated = saturate(&q);
        // One original atom + 2^3 - 2 = 6 proper non-empty projections.
        assert_eq!(saturated.atoms().len(), 7);
        assert!(saturated
            .atoms()
            .iter()
            .any(|a| a.relation == "R__0_1" && a.args == vec!["x", "y"]));
        assert!(saturated
            .atoms()
            .iter()
            .any(|a| a.relation == "R__2" && a.args == vec!["z"]));
        // Unary atoms are left alone.
        let q = parse_query("Q() :- P(x)").unwrap();
        assert_eq!(saturate(&q).atoms().len(), 1);
    }

    #[test]
    fn bag_bag_reduction_adds_multiplicity_attributes() {
        let q = parse_query("Q() :- R(x, y), R(x, y), S(y)").unwrap();
        // Under bag-set semantics the repeated atom was dropped at parse time,
        // so start from a query where the atoms are distinct.
        assert_eq!(q.atoms().len(), 2);
        let bb = bag_bag_to_bag_set(&q);
        assert_eq!(bb.atoms().len(), 2);
        for atom in bb.atoms() {
            assert!(atom.relation.ends_with("_bb"));
            assert!(atom.args.last().unwrap().starts_with("__mult_"));
        }
        // Arities grew by one.
        assert_eq!(bb.vocabulary().arity_of("R_bb"), Some(3));
        assert_eq!(bb.vocabulary().arity_of("S_bb"), Some(2));
    }

    #[test]
    fn dom_reduction_round_trips_homomorphism_counts() {
        // A = single edge, B = 2-path; the associated queries count the same
        // homomorphisms as the structures do.
        let a = parse_structure("R(a, b).").unwrap();
        let b = parse_structure("R(a, b). R(b, c).").unwrap();
        let (qa, qb) = dom_to_containment(&a, &b).unwrap();
        let target = parse_structure("R(1,2). R(2,3). R(3,1).").unwrap();
        assert_eq!(
            count(&qa, &target),
            bqc_relational::count_structure_homomorphisms(&a, &target)
        );
        assert_eq!(
            count(&qb, &target),
            bqc_relational::count_structure_homomorphisms(&b, &target)
        );
    }

    #[test]
    fn dom_reduction_rejects_structures_with_isolated_values() {
        let mut a = parse_structure("R(a, b).").unwrap();
        a.add_domain_value(Value::text("isolated"));
        let b = parse_structure("R(a, b).").unwrap();
        assert!(dom_to_containment(&a, &b).is_none());
    }

    #[test]
    fn exponent_domination_builds_powers() {
        let a = parse_structure("R(a, b).").unwrap();
        let b = parse_structure("R(a, b). R(b, c).").unwrap();
        // c = 2/1: compare hom(A,D)^2 with hom(B,D).
        let (qa, qb) = exponent_domination_to_containment(&a, &b, 2, 1).unwrap();
        let target = parse_structure("R(1,2). R(2,3).").unwrap();
        let hom_a = bqc_relational::count_structure_homomorphisms(&a, &target);
        let hom_b = bqc_relational::count_structure_homomorphisms(&b, &target);
        assert_eq!(count(&qa, &target), hom_a * hom_a);
        assert_eq!(count(&qb, &target), hom_b);
        assert!(exponent_domination_to_containment(&a, &b, 0, 1).is_none());
    }
}
