//! Homomorphism enumeration and counting.
//!
//! The central quantity of the paper is `|hom(Q, D)|`, the number of
//! homomorphisms from a conjunctive query (or a structure) to a database
//! instance: the bag-set answer of a Boolean conjunctive query is exactly this
//! count, and containment `Q1 ⊑ Q2` means `|hom(Q1, D)| ≤ |hom(Q2, D)|` for
//! every `D` (Section 2.2).
//!
//! The solver is a backtracking search with per-variable candidate sets
//! (the intersection, over all atoms containing the variable, of the values
//! occurring at the variable's positions) and eager checking of every atom as
//! soon as its last variable is bound.  This is exact and fast enough for the
//! instance sizes produced by the paper's constructions; an asymptotically
//! better junction-tree counting algorithm for acyclic queries lives in
//! `bqc-core::yannakakis` and is benchmarked against this one.

use crate::query::{Atom, ConjunctiveQuery, Var};
use crate::structure::Structure;
use crate::value::{Tuple, Value};
use bqc_obs::{Budget, Exhausted};
use std::collections::{BTreeMap, BTreeSet};

/// An assignment of query variables to domain values.
pub type Assignment = BTreeMap<Var, Value>;

/// Enumerates all homomorphisms from `query` to `data` under a cooperative
/// work budget: the search charges one hom-step per candidate value tried and
/// aborts with `Err(Exhausted)` when the budget runs out.  An aborted
/// enumeration certifies nothing — in particular it must not be confused
/// with an empty (completed) one.  Pass [`Budget::unlimited`] for an
/// unbounded search.
pub fn enumerate_homomorphisms(
    query: &ConjunctiveQuery,
    data: &Structure,
    budget: &Budget,
) -> Result<Vec<Assignment>, Exhausted> {
    let mut result = Vec::new();
    for_each_homomorphism(query, data, budget, |assignment| {
        result.push(assignment.clone())
    })?;
    Ok(result)
}

/// Counts the homomorphisms from `query` to `data` under a cooperative work
/// budget; see [`enumerate_homomorphisms`] for the abort semantics.
pub fn count_homomorphisms(
    query: &ConjunctiveQuery,
    data: &Structure,
    budget: &Budget,
) -> Result<u128, Exhausted> {
    let mut count: u128 = 0;
    for_each_homomorphism(query, data, budget, |_| count += 1)?;
    Ok(count)
}

/// Evaluates a (possibly non-Boolean) query under bag-set semantics: the
/// result maps each head tuple `d` to `|Q(D)[d]|`, the number of
/// homomorphisms agreeing with `d` on the head variables (the SQL
/// `COUNT(*) … GROUP BY head`).  Head tuples with count zero are absent.
pub fn bag_set_answer(query: &ConjunctiveQuery, data: &Structure) -> BTreeMap<Tuple, u128> {
    let mut result: BTreeMap<Tuple, u128> = BTreeMap::new();
    for_each_homomorphism(query, data, &Budget::unlimited(), |assignment| {
        let key: Tuple = query.head().iter().map(|v| assignment[v].clone()).collect();
        *result.entry(key).or_insert(0) += 1;
    })
    .expect("unlimited budget cannot exhaust");
    result
}

/// Invokes `callback` once per homomorphism from `query` to `data`, under a
/// cooperative work budget: one hom-step is charged per candidate value the
/// backtracking search tries (i.e. per search-tree node), so the abort
/// latency is bounded by a single atom check.  With an unlimited budget the
/// charge is one pointer test per node.
pub fn for_each_homomorphism<F: FnMut(&Assignment)>(
    query: &ConjunctiveQuery,
    data: &Structure,
    budget: &Budget,
    mut callback: F,
) -> Result<(), Exhausted> {
    let search = match SearchPlan::build(query, data) {
        Some(search) => search,
        None => return Ok(()), // some variable has no candidate value
    };
    let mut assignment = Assignment::new();
    search.run(0, &mut assignment, budget, &mut callback)
}

struct SearchPlan<'a> {
    /// Variables in the order they are assigned.
    order: Vec<Var>,
    /// Candidate values for each variable (same order as `order`).
    candidates: Vec<Vec<Value>>,
    /// For each position `i` in the order, the atoms whose variables are all
    /// assigned once `order[i]` is bound (checked eagerly at that point).
    checks: Vec<Vec<&'a Atom>>,
    /// For each position `i`, the atoms mentioning `order[i]` that are not yet
    /// fully assigned at `i` (filtered with a partial-consistency check).
    partial_checks: Vec<Vec<&'a Atom>>,
    data: &'a Structure,
}

impl<'a> SearchPlan<'a> {
    fn build(query: &'a ConjunctiveQuery, data: &'a Structure) -> Option<SearchPlan<'a>> {
        // Candidate sets: intersection over atoms/positions mentioning the variable.
        let mut candidates: BTreeMap<&Var, BTreeSet<Value>> = BTreeMap::new();
        for atom in query.atoms() {
            for (pos, var) in atom.args.iter().enumerate() {
                let values: BTreeSet<Value> =
                    data.facts(&atom.relation).map(|t| t[pos].clone()).collect();
                match candidates.get_mut(var) {
                    Some(existing) => {
                        existing.retain(|v| values.contains(v));
                    }
                    None => {
                        candidates.insert(var, values);
                    }
                }
            }
        }
        for var in query.vars() {
            if candidates.get(var).is_none_or(|c| c.is_empty()) {
                return None;
            }
        }

        // Assignment order: greedily pick the variable with the smallest
        // candidate set among those connected to already-ordered variables
        // (falling back to the globally smallest when none is connected).
        let edges = query.gaifman_edges();
        let mut neighbors: BTreeMap<&Var, BTreeSet<&Var>> = BTreeMap::new();
        for (a, b) in &edges {
            let (a_ref, b_ref) = (
                query
                    .vars()
                    .iter()
                    .find(|v| *v == a)
                    .expect("edge var in query"),
                query
                    .vars()
                    .iter()
                    .find(|v| *v == b)
                    .expect("edge var in query"),
            );
            neighbors.entry(a_ref).or_default().insert(b_ref);
            neighbors.entry(b_ref).or_default().insert(a_ref);
        }
        let mut remaining: BTreeSet<&Var> = query.vars().iter().collect();
        let mut order: Vec<Var> = Vec::with_capacity(remaining.len());
        let mut ordered_set: BTreeSet<&Var> = BTreeSet::new();
        while !remaining.is_empty() {
            let connected: Vec<&&Var> = remaining
                .iter()
                .filter(|v| {
                    neighbors
                        .get(**v)
                        .is_some_and(|ns| ns.iter().any(|n| ordered_set.contains(n)))
                })
                .collect();
            let pool: Vec<&Var> = if connected.is_empty() {
                remaining.iter().copied().collect()
            } else {
                connected.into_iter().copied().collect()
            };
            let chosen: &Var = pool
                .into_iter()
                .min_by_key(|v| candidates[*v].len())
                .expect("pool is non-empty");
            order.push(chosen.clone());
            ordered_set.insert(chosen);
            remaining.remove(chosen);
        }

        // Atom checks: an atom is fully checked at the first position where all
        // of its variables are assigned, and *partially* checked (does some
        // tuple agree with the assigned positions?) every time one of its
        // variables is assigned earlier.  The partial check is what keeps
        // wide-arity atoms (such as the ones produced by the Section 5
        // reduction) from exploding the search.
        let position_of: BTreeMap<&Var, usize> =
            order.iter().enumerate().map(|(i, v)| (v, i)).collect();
        let mut checks: Vec<Vec<&Atom>> = vec![Vec::new(); order.len()];
        let mut partial_checks: Vec<Vec<&Atom>> = vec![Vec::new(); order.len()];
        for atom in query.atoms() {
            let positions: Vec<usize> = atom
                .var_set()
                .iter()
                .map(|v| *position_of.get(v).expect("atom var is ordered"))
                .collect();
            let last = *positions
                .iter()
                .max()
                .expect("atom has at least one variable");
            checks[last].push(atom);
            for &p in &positions {
                if p != last {
                    partial_checks[p].push(atom);
                }
            }
        }

        let candidate_lists: Vec<Vec<Value>> = order
            .iter()
            .map(|v| candidates[v].iter().cloned().collect())
            .collect();
        Some(SearchPlan {
            order,
            candidates: candidate_lists,
            checks,
            partial_checks,
            data,
        })
    }

    fn run<F: FnMut(&Assignment)>(
        &self,
        depth: usize,
        assignment: &mut Assignment,
        budget: &Budget,
        callback: &mut F,
    ) -> Result<(), Exhausted> {
        if depth == self.order.len() {
            callback(assignment);
            return Ok(());
        }
        let var = &self.order[depth];
        for value in &self.candidates[depth] {
            budget.charge_hom_steps(1)?;
            assignment.insert(var.clone(), value.clone());
            if self.checks[depth]
                .iter()
                .all(|atom| self.atom_satisfied(atom, assignment))
                && self.partial_checks[depth]
                    .iter()
                    .all(|atom| self.atom_partially_satisfiable(atom, assignment))
            {
                self.run(depth + 1, assignment, budget, callback)?;
            }
        }
        assignment.remove(var);
        Ok(())
    }

    fn atom_satisfied(&self, atom: &Atom, assignment: &Assignment) -> bool {
        let tuple: Tuple = atom.args.iter().map(|v| assignment[v].clone()).collect();
        self.data.contains_fact(&atom.relation, &tuple)
    }

    /// `true` iff some tuple of the atom's relation agrees with the currently
    /// assigned positions (a semi-join style consistency filter).
    fn atom_partially_satisfiable(&self, atom: &Atom, assignment: &Assignment) -> bool {
        self.data.facts(&atom.relation).any(|tuple| {
            atom.args
                .iter()
                .zip(tuple.iter())
                .all(|(var, value)| assignment.get(var).is_none_or(|assigned| assigned == value))
        })
    }
}

/// Converts a structure into an isomorphic Boolean conjunctive query: each
/// domain value becomes a variable and each tuple becomes an atom
/// (Section 2.2: "DOM and BagCQC are essentially the same problem").
///
/// Returns the query together with the list of domain values that occur in no
/// tuple (isolated values), which the query cannot represent.
pub fn structure_to_query(
    structure: &Structure,
    name: &str,
) -> (Option<ConjunctiveQuery>, Vec<Value>) {
    let mut var_of: BTreeMap<Value, Var> = BTreeMap::new();
    let mut next = 0usize;
    let mut atoms = Vec::new();
    for symbol in structure.vocabulary().symbols() {
        for tuple in structure.facts(&symbol.name) {
            let args: Vec<Var> = tuple
                .iter()
                .map(|value| {
                    var_of
                        .entry(value.clone())
                        .or_insert_with(|| {
                            let v = format!("v{next}");
                            next += 1;
                            v
                        })
                        .clone()
                })
                .collect();
            atoms.push(Atom::new(symbol.name.clone(), args));
        }
    }
    let isolated: Vec<Value> = structure
        .active_domain()
        .into_iter()
        .filter(|v| !var_of.contains_key(v))
        .collect();
    let query = if atoms.is_empty() {
        None
    } else {
        Some(ConjunctiveQuery::boolean(name, atoms).expect("structure yields a valid query"))
    };
    (query, isolated)
}

/// Counts homomorphisms between structures: functions `f : dom(B) → dom(A)`
/// with `f(R^B) ⊆ R^A` for every relation symbol.
pub fn count_structure_homomorphisms(from: &Structure, to: &Structure) -> u128 {
    let (query, isolated) = structure_to_query(from, "hom_src");
    let base = match query {
        Some(query) => count_homomorphisms(&query, to, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust"),
        None => 1,
    };
    let domain_size = to.active_domain().len() as u128;
    let mut total = base;
    for _ in 0..isolated.len() {
        total *= domain_size;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Atom;

    /// An unbudgeted count.
    fn count(query: &ConjunctiveQuery, data: &Structure) -> u128 {
        count_homomorphisms(query, data, &Budget::unlimited()).unwrap()
    }

    fn path_query() -> ConjunctiveQuery {
        // Q() :- R(x,y), R(y,z)
        ConjunctiveQuery::boolean(
            "P",
            vec![Atom::new("R", ["x", "y"]), Atom::new("R", ["y", "z"])],
        )
        .unwrap()
    }

    fn cycle_structure(n: i64) -> Structure {
        let mut s = Structure::empty();
        for i in 0..n {
            s.add_fact("R", vec![Value::int(i), Value::int((i + 1) % n)]);
        }
        s
    }

    #[test]
    fn count_paths_in_cycle() {
        // In a directed n-cycle every vertex starts exactly one path of length 2.
        let q = path_query();
        for n in 2..6 {
            assert_eq!(count(&q, &cycle_structure(n)), n as u128);
        }
    }

    #[test]
    fn count_paths_in_complete_graph() {
        // In the complete directed graph with self loops on n vertices there are
        // n^3 homomorphic images of the 2-path.
        let q = path_query();
        let mut s = Structure::empty();
        let n = 4i64;
        for a in 0..n {
            for b in 0..n {
                s.add_fact("R", vec![Value::int(a), Value::int(b)]);
            }
        }
        assert_eq!(count(&q, &s), (n * n * n) as u128);
    }

    #[test]
    fn enumerate_matches_count() {
        let q = path_query();
        let s = cycle_structure(5);
        let homs = enumerate_homomorphisms(&q, &s, &Budget::unlimited()).unwrap();
        assert_eq!(homs.len() as u128, count(&q, &s));
        for h in &homs {
            assert_eq!(h.len(), 3);
            // verify both atoms
            assert!(s.contains_fact("R", &vec![h["x"].clone(), h["y"].clone()]));
            assert!(s.contains_fact("R", &vec![h["y"].clone(), h["z"].clone()]));
        }
    }

    #[test]
    fn budgeted_search_aborts_without_an_answer() {
        use bqc_obs::{BudgetResource, BudgetSpec};
        let q = path_query();
        let s = cycle_structure(5);
        // One hom-step cannot finish the search over a 5-cycle.
        let tight = BudgetSpec {
            max_hom_steps: Some(1),
            ..BudgetSpec::UNLIMITED
        }
        .start();
        let err = count_homomorphisms(&q, &s, &tight).unwrap_err();
        assert_eq!(err.resource, BudgetResource::HomSteps);
        // A generous budget reproduces the unbudgeted result exactly.
        let generous = BudgetSpec {
            max_hom_steps: Some(1 << 20),
            ..BudgetSpec::UNLIMITED
        }
        .start();
        assert_eq!(
            count_homomorphisms(&q, &s, &generous).unwrap(),
            count(&q, &s)
        );
        assert!(generous.hom_steps_spent() > 0);
    }

    #[test]
    fn repeated_variables_in_atoms() {
        // Q() :- R(x,x) counts self-loops.
        let q = ConjunctiveQuery::boolean("L", vec![Atom::new("R", ["x", "x"])]).unwrap();
        let mut s = cycle_structure(4);
        assert_eq!(count(&q, &s), 0);
        s.add_fact("R", vec![Value::int(7), Value::int(7)]);
        assert_eq!(count(&q, &s), 1);
    }

    #[test]
    fn empty_relation_means_no_homomorphisms() {
        let q =
            ConjunctiveQuery::boolean("Q", vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y"])])
                .unwrap();
        let s = cycle_structure(3);
        assert_eq!(count(&q, &s), 0);
        assert!(enumerate_homomorphisms(&q, &s, &Budget::unlimited())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bag_set_answer_group_by() {
        // Q(x) :- R(x,y): out-degree of every vertex.
        let q = ConjunctiveQuery::new("Q", vec!["x".to_string()], vec![Atom::new("R", ["x", "y"])])
            .unwrap();
        let mut s = cycle_structure(3);
        s.add_fact("R", vec![Value::int(0), Value::int(2)]);
        let answer = bag_set_answer(&q, &s);
        assert_eq!(answer[&vec![Value::int(0)]], 2);
        assert_eq!(answer[&vec![Value::int(1)]], 1);
        assert_eq!(answer[&vec![Value::int(2)]], 1);
    }

    #[test]
    fn triangle_vs_path_counts() {
        // Vee's example (Example 4.3): for every D, #triangles <= #2-out-stars.
        let triangle = ConjunctiveQuery::boolean(
            "T",
            vec![
                Atom::new("R", ["x1", "x2"]),
                Atom::new("R", ["x2", "x3"]),
                Atom::new("R", ["x3", "x1"]),
            ],
        )
        .unwrap();
        let star = ConjunctiveQuery::boolean(
            "S",
            vec![Atom::new("R", ["y1", "y2"]), Atom::new("R", ["y1", "y3"])],
        )
        .unwrap();
        for n in 2..6 {
            let s = cycle_structure(n);
            assert!(count(&triangle, &s) <= count(&star, &s));
        }
        let mut dense = Structure::empty();
        for a in 0..3i64 {
            for b in 0..3i64 {
                if a != b {
                    dense.add_fact("R", vec![Value::int(a), Value::int(b)]);
                }
            }
        }
        assert!(count(&triangle, &dense) <= count(&star, &dense));
    }

    #[test]
    fn structure_homomorphisms() {
        // Counting graph homomorphisms from an edge to a graph = #edges (as a structure hom).
        let mut edge = Structure::empty();
        edge.add_fact("R", vec![Value::text("a"), Value::text("b")]);
        let target = cycle_structure(5);
        assert_eq!(count_structure_homomorphisms(&edge, &target), 5);
        // Isolated domain values multiply by |dom|.
        let mut edge_iso = edge.clone();
        edge_iso.add_domain_value(Value::text("lonely"));
        assert_eq!(count_structure_homomorphisms(&edge_iso, &target), 25);
    }

    #[test]
    fn structure_to_query_roundtrip() {
        let s = cycle_structure(3);
        let (query, isolated) = structure_to_query(&s, "C3");
        let query = query.unwrap();
        assert!(isolated.is_empty());
        assert_eq!(query.atoms().len(), 3);
        assert_eq!(query.num_vars(), 3);
        // hom(C3, C3) as query-to-structure = 3 (rotations).
        assert_eq!(count(&query, &s), 3);
    }

    #[test]
    fn disjoint_copies_square_the_count() {
        let q = path_query();
        let s = cycle_structure(4);
        let single = count(&q, &s);
        let doubled_query = q.power(2);
        assert_eq!(count(&doubled_query, &s), single * single);
    }
}
