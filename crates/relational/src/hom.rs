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
//!
//! The search runs over dense integer ids, not [`Value`]s:
//!
//! * **Interned values.** Each call numbers the distinct values of the
//!   relations the query mentions `0, 1, …` in [`Value`] order, once, and
//!   re-encodes those facts as rows of ids.  Id order is value order, so
//!   candidate lists are in [`Value`] order.  A variable's binding is one
//!   `u32` in a slot indexed by the variable's position in
//!   [`ConjunctiveQuery::vars`].  An atom whose arity differs from its
//!   relation's matches no fact, so such a query has no homomorphism.
//! * **Per-depth key sets.** An atom is checked at every depth that binds
//!   one of its variables: fully at the depth that binds its last one, and
//!   partially (does some fact agree with the bound positions?) before
//!   that.  For each such (atom, depth) the plan holds the set of the fact
//!   projections onto the positions bound at that depth, shared between
//!   atoms with the same relation and bound positions; every check is one
//!   probe of that set.
//! * **The search tree depends only on values and names.** Variable order
//!   is greedy (smallest candidate set among variables adjacent to those
//!   already placed, ties in variable-name order), candidates are tried in
//!   [`Value`] order, and one hom-step is charged per candidate tried.  So
//!   counts, the enumeration order (which fixes the disjunct order of
//!   Eq. (8)) and budget charges do not depend on the id encoding.  The
//!   partial check has no repeated-variable filter: it would prune more
//!   and change the charges.  Counting never materializes an
//!   [`Assignment`]; enumeration builds one per homomorphism found.

use crate::query::{Atom, ConjunctiveQuery, Var};
use crate::structure::Structure;
use crate::value::{Tuple, Value};
use bqc_obs::{Budget, Exhausted};
use std::collections::{BTreeMap, HashMap, HashSet};

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
    let Some(search) = SearchPlan::build(query, data) else {
        return Ok(0);
    };
    let mut count: u128 = 0;
    search.run(budget, |_| count += 1)?;
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
    let Some(search) = SearchPlan::build(query, data) else {
        return Ok(()); // no homomorphism can exist
    };
    // One map, built once: its keys are the variables in name order, and
    // each homomorphism found overwrites the values.
    let mut assignment: Assignment = query
        .vars()
        .iter()
        .map(|v| (v.clone(), Value::Int(0)))
        .collect();
    let mut by_name: Vec<usize> = (0..query.num_vars()).collect();
    by_name.sort_by_key(|&i| &query.vars()[i]);
    search.run(budget, |ids| {
        for (slot, &var) in assignment.values_mut().zip(&by_name) {
            *slot = search.values[ids[var] as usize].clone();
        }
        callback(&assignment);
    })
}

/// The projections of a relation's facts onto some of its positions.
type KeySet = HashSet<Box<[u32]>>;

/// One atom check at one depth: the query variables at the atom's bound
/// positions (in position order) and the key set their ids must hit.
struct Probe {
    vars: Vec<usize>,
    keys: usize,
}

struct SearchPlan<'a> {
    /// The value of each id; ids are numbered in `Value` order.
    values: Vec<&'a Value>,
    /// Variable indices (into `query.vars()`) in the order they are bound.
    order: Vec<usize>,
    /// Candidate ids for each depth, ascending (same order as `order`).
    candidates: Vec<Vec<u32>>,
    /// For each depth, the full checks of the atoms whose last variable is
    /// bound there, then the partial checks of the atoms with a variable
    /// bound there and one bound later.
    probes: Vec<Vec<Probe>>,
    key_sets: Vec<KeySet>,
}

impl<'a> SearchPlan<'a> {
    fn build(query: &ConjunctiveQuery, data: &'a Structure) -> Option<SearchPlan<'a>> {
        // No fact can satisfy an atom whose arity differs from its relation's.
        let vocabulary = data.vocabulary();
        if query.atoms().iter().any(|atom| {
            vocabulary
                .arity_of(&atom.relation)
                .is_some_and(|arity| arity != atom.arity())
        }) {
            return None;
        }
        // Intern the values of every relation the query mentions.
        let relations: BTreeMap<&str, Vec<&'a Tuple>> = query
            .atoms()
            .iter()
            .map(|atom| (atom.relation.as_str(), data.facts(&atom.relation).collect()))
            .collect();
        let mut values: Vec<&'a Value> = relations.values().flatten().copied().flatten().collect();
        values.sort_unstable();
        values.dedup();
        let id_of = |value: &Value| values.binary_search(&value).expect("interned") as u32;
        let rows: BTreeMap<&str, Vec<Vec<u32>>> = relations
            .iter()
            .map(|(&name, facts)| {
                let encoded = facts
                    .iter()
                    .map(|t| t.iter().map(id_of).collect())
                    .collect();
                (name, encoded)
            })
            .collect();

        // Candidate sets: intersection over atoms/positions mentioning the variable.
        let vars = query.vars();
        let index_of = |var: &Var| {
            vars.iter()
                .position(|v| v == var)
                .expect("atom var in query")
        };
        let atom_vars: Vec<Vec<usize>> = query
            .atoms()
            .iter()
            .map(|atom| atom.args.iter().map(index_of).collect())
            .collect();
        let mut candidates: Vec<Option<Vec<u32>>> = vec![None; vars.len()];
        for (atom, args) in query.atoms().iter().zip(&atom_vars) {
            for (pos, &var) in args.iter().enumerate() {
                let mut column: Vec<u32> = rows[atom.relation.as_str()]
                    .iter()
                    .map(|row| row[pos])
                    .collect();
                column.sort_unstable();
                column.dedup();
                match &mut candidates[var] {
                    Some(existing) => existing.retain(|id| column.binary_search(id).is_ok()),
                    slot => *slot = Some(column),
                }
            }
        }
        let candidates: Vec<Vec<u32>> = candidates
            .into_iter()
            .map(|c| c.filter(|c| !c.is_empty()))
            .collect::<Option<_>>()?;

        // Assignment order: greedily pick the variable with the smallest
        // candidate set among those connected to already-ordered variables
        // (falling back to the globally smallest when none is connected),
        // ties broken in variable-name order.
        let mut adjacent = vec![vec![false; vars.len()]; vars.len()];
        for args in &atom_vars {
            for &a in args {
                for &b in args {
                    adjacent[a][b] |= a != b;
                }
            }
        }
        let mut by_name: Vec<usize> = (0..vars.len()).collect();
        by_name.sort_by_key(|&i| &vars[i]);
        let mut depth_of: Vec<Option<usize>> = vec![None; vars.len()];
        let mut order: Vec<usize> = Vec::with_capacity(vars.len());
        while order.len() < vars.len() {
            let remaining = by_name.iter().copied().filter(|&v| depth_of[v].is_none());
            let connected: Vec<usize> = remaining
                .clone()
                .filter(|&v| order.iter().any(|&u| adjacent[v][u]))
                .collect();
            let pool = if connected.is_empty() {
                remaining.collect()
            } else {
                connected
            };
            let chosen = pool
                .into_iter()
                .min_by_key(|&v| candidates[v].len())
                .expect("pool is non-empty");
            depth_of[chosen] = Some(order.len());
            order.push(chosen);
        }
        let depth_of: Vec<usize> = depth_of.into_iter().map(Option::unwrap).collect();

        // Atom checks: an atom is fully checked at the first depth where all
        // of its variables are assigned, and *partially* checked (does some
        // tuple agree with the assigned positions?) every time one of its
        // variables is assigned earlier.  The partial check is what keeps
        // wide-arity atoms (such as the ones produced by the Section 5
        // reduction) from exploding the search.
        let mut key_index: HashMap<(&str, Vec<usize>), usize> = HashMap::new();
        let mut key_sets: Vec<KeySet> = Vec::new();
        let mut full: Vec<Vec<Probe>> = (0..vars.len()).map(|_| Vec::new()).collect();
        let mut partial: Vec<Vec<Probe>> = (0..vars.len()).map(|_| Vec::new()).collect();
        for (atom, args) in query.atoms().iter().zip(&atom_vars) {
            let mut depths: Vec<usize> = args.iter().map(|&v| depth_of[v]).collect();
            depths.sort_unstable();
            depths.dedup();
            let last = *depths.last().expect("atom has at least one variable");
            for depth in depths {
                let positions: Vec<usize> = (0..args.len())
                    .filter(|&p| depth_of[args[p]] <= depth)
                    .collect();
                let vars = positions.iter().map(|&p| args[p]).collect();
                let relation = atom.relation.as_str();
                let keys =
                    *key_index
                        .entry((relation, positions))
                        .or_insert_with_key(|(_, positions)| {
                            key_sets.push(
                                rows[relation]
                                    .iter()
                                    .map(|row| positions.iter().map(|&p| row[p]).collect())
                                    .collect(),
                            );
                            key_sets.len() - 1
                        });
                let probe = Probe { vars, keys };
                if depth == last {
                    full[depth].push(probe);
                } else {
                    partial[depth].push(probe);
                }
            }
        }
        let probes = full
            .into_iter()
            .zip(partial)
            .map(|(mut full, partial)| {
                full.extend(partial);
                full
            })
            .collect();

        let candidates = order.iter().map(|&v| candidates[v].clone()).collect();
        Some(SearchPlan {
            values,
            order,
            candidates,
            probes,
            key_sets,
        })
    }

    /// Runs the search, calling `leaf` with the ids bound to each variable
    /// (indexed like `query.vars()`) once per homomorphism.
    fn run(&self, budget: &Budget, mut leaf: impl FnMut(&[u32])) -> Result<(), Exhausted> {
        let mut ids = vec![0u32; self.order.len()];
        let mut key = Vec::new();
        self.descend(0, &mut ids, &mut key, budget, &mut leaf)
    }

    fn descend(
        &self,
        depth: usize,
        ids: &mut [u32],
        key: &mut Vec<u32>,
        budget: &Budget,
        leaf: &mut impl FnMut(&[u32]),
    ) -> Result<(), Exhausted> {
        if depth == self.order.len() {
            leaf(ids);
            return Ok(());
        }
        let var = self.order[depth];
        for &id in &self.candidates[depth] {
            budget.charge_hom_steps(1)?;
            ids[var] = id;
            let admitted = self.probes[depth].iter().all(|probe| {
                key.clear();
                key.extend(probe.vars.iter().map(|&v| ids[v]));
                self.key_sets[probe.keys].contains(key.as_slice())
            });
            if admitted {
                self.descend(depth + 1, ids, key, budget, leaf)?;
            }
        }
        Ok(())
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
