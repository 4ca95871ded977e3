//! Junction-tree homomorphism counting for acyclic queries.
//!
//! For an α-acyclic Boolean conjunctive query the number of homomorphisms into
//! a database can be computed by dynamic programming over a join tree
//! (Yannakakis' algorithm, adapted to counting): each bag materializes the
//! satisfying assignments of its atoms, messages propagate partial counts from
//! the leaves towards the roots, and the total is the product over the roots
//! of the summed counts.  This is the classical `O(|D|·|Q|)`-ish alternative
//! to the generic backtracking counter in `bqc-relational`, and the benchmark
//! suite compares the two (experiment E10 in EXPERIMENTS.md).

use bqc_hypergraph::Hypergraph;
use bqc_relational::{Atom, ConjunctiveQuery, Structure, Value};
use std::collections::BTreeMap;

/// Counts `|hom(Q, D)|` for an α-acyclic Boolean query using join-tree
/// dynamic programming.  Returns `None` when the query is not acyclic (use
/// the backtracking counter instead) or has head variables.
pub fn count_homomorphisms_acyclic(query: &ConjunctiveQuery, data: &Structure) -> Option<u128> {
    if !query.is_boolean() {
        return None;
    }
    // Work with the distinct maximal hyperedges: dropping an edge contained in
    // another neither changes α-acyclicity nor coverage, and it guarantees
    // that every join-tree bag is the variable set of at least one atom.
    let mut unique: Vec<std::collections::BTreeSet<String>> = Vec::new();
    for edge in query.hyperedges() {
        if !unique.contains(&edge) {
            unique.push(edge);
        }
    }
    let maximal: Vec<std::collections::BTreeSet<String>> = unique
        .iter()
        .filter(|e| !unique.iter().any(|other| other != *e && e.is_subset(other)))
        .cloned()
        .collect();
    let hypergraph = Hypergraph::new(maximal);
    let join_tree = hypergraph.join_tree()?;

    // Assign every atom to a bag that covers it (its own hyperedge survives in
    // the join tree's bag list, possibly at a different index after empty-edge
    // filtering, so search for a covering bag).
    let bags = join_tree.bags();
    let mut atoms_of_bag: Vec<Vec<&Atom>> = vec![Vec::new(); bags.len()];
    for atom in query.atoms() {
        let vars = atom.var_set();
        let bag_index = (0..bags.len()).find(|&b| vars.is_subset(&bags[b]))?;
        atoms_of_bag[bag_index].push(atom);
    }

    // Materialize, per bag, the satisfying assignments of its atoms as tuples
    // ordered by the bag's (sorted) variables.
    let bag_vars: Vec<Vec<String>> = bags.iter().map(|b| b.iter().cloned().collect()).collect();
    let mut bag_rows: Vec<Vec<Vec<Value>>> = Vec::with_capacity(bags.len());
    for (b, vars) in bag_vars.iter().enumerate() {
        let rows = enumerate_bag_assignments(vars, &atoms_of_bag[b], data);
        bag_rows.push(rows);
    }

    // Bottom-up dynamic programming: children before parents.
    let parent = join_tree.rooted();
    let order = join_tree.topological_order();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); bags.len()];
    for (node, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(node);
        }
    }
    // messages[c]: separator assignment -> summed count, for the edge (c, parent(c)).
    let mut messages: Vec<BTreeMap<Vec<Value>, u128>> = vec![BTreeMap::new(); bags.len()];
    let mut root_totals: Vec<u128> = Vec::new();
    for &node in order.iter().rev() {
        let vars = &bag_vars[node];
        let mut total_here: BTreeMap<Vec<Value>, u128> = BTreeMap::new();
        for row in &bag_rows[node] {
            let mut count: u128 = 1;
            for child in &children[node] {
                // The separator values, in the child's variable order (the same
                // order the child used when building its message keys).
                let key: Vec<Value> = bag_vars[*child]
                    .iter()
                    .filter(|v| vars.contains(v))
                    .map(|v| {
                        let position = vars
                            .iter()
                            .position(|x| x == v)
                            .expect("separator var in bag");
                        row[position].clone()
                    })
                    .collect();
                count = count.saturating_mul(*messages[*child].get(&key).unwrap_or(&0));
                if count == 0 {
                    break;
                }
            }
            if count == 0 {
                continue;
            }
            match parent[node] {
                Some(p) => {
                    let parent_bag = &bags[p];
                    let key: Vec<Value> = vars
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| parent_bag.contains(*v))
                        .map(|(i, _)| row[i].clone())
                        .collect();
                    *total_here.entry(key).or_insert(0) += count;
                }
                None => {
                    *total_here.entry(Vec::new()).or_insert(0) += count;
                }
            }
        }
        if parent[node].is_some() {
            messages[node] = total_here;
        } else {
            root_totals.push(total_here.values().sum());
        }
    }
    Some(root_totals.into_iter().product())
}

/// Enumerates the assignments of the bag's variables (sorted order) that
/// satisfy every atom assigned to this bag, starting from the tuples of the
/// first atom.
fn enumerate_bag_assignments(
    vars: &[String],
    atoms: &[&Atom],
    data: &Structure,
) -> Vec<Vec<Value>> {
    // Drive the enumeration from the atom mentioning the most bag variables
    // (with maximal distinct bags, some atom mentions all of them).
    let Some(driver) = atoms.iter().max_by_key(|a| a.var_set().len()) else {
        return Vec::new();
    };
    let mut partials: Vec<BTreeMap<String, Value>> = Vec::new();
    'tuples: for tuple in data.facts(&driver.relation) {
        let mut assignment: BTreeMap<String, Value> = BTreeMap::new();
        for (position, var) in driver.args.iter().enumerate() {
            match assignment.get(var) {
                Some(existing) if existing != &tuple[position] => continue 'tuples,
                Some(_) => {}
                None => {
                    assignment.insert(var.clone(), tuple[position].clone());
                }
            }
        }
        partials.push(assignment);
    }
    // Extend over any bag variable the driver atom does not mention (only
    // possible for defensively handled degenerate bags).
    let missing: Vec<&String> = vars.iter().filter(|v| !driver.args.contains(*v)).collect();
    if !missing.is_empty() {
        let domain: Vec<Value> = data.active_domain().into_iter().collect();
        for var in missing {
            let mut extended = Vec::with_capacity(partials.len() * domain.len());
            for partial in &partials {
                for value in &domain {
                    let mut next = partial.clone();
                    next.insert(var.clone(), value.clone());
                    extended.push(next);
                }
            }
            partials = extended;
        }
    }
    // Keep assignments satisfying every atom of the bag.
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for assignment in partials {
        let satisfied = atoms.iter().all(|atom| {
            let image: Vec<Value> = atom.args.iter().map(|v| assignment[v].clone()).collect();
            data.contains_fact(&atom.relation, &image)
        });
        if satisfied {
            rows.push(vars.iter().map(|v| assignment[v].clone()).collect());
        }
    }
    rows.sort();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_obs::Budget;
    use bqc_relational::{count_homomorphisms, parse_query, parse_structure};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph_db(vertices: usize, edges: usize, seed: u64) -> Structure {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Structure::empty();
        for _ in 0..edges {
            let a = rng.gen_range(0..vertices);
            let b = rng.gen_range(0..vertices);
            db.add_fact("R", vec![Value::int(a as i64), Value::int(b as i64)]);
        }
        db
    }

    #[test]
    fn matches_backtracking_on_paths_and_stars() {
        let queries = [
            "Q() :- R(x,y)",
            "Q() :- R(x,y), R(y,z)",
            "Q() :- R(x,y), R(y,z), R(z,w)",
            "Q() :- R(c,a), R(c,b), R(c,d)",
            "Q() :- R(x,y), S(y,z)",
        ];
        let db = parse_structure("R(1,2). R(2,3). R(3,1). R(1,3). S(3,4). S(1,2).").unwrap();
        for text in queries {
            let q = parse_query(text).unwrap();
            let expected = count_homomorphisms(&q, &db, &Budget::unlimited()).unwrap();
            assert_eq!(
                count_homomorphisms_acyclic(&q, &db),
                Some(expected),
                "query {text}"
            );
        }
    }

    #[test]
    fn cyclic_queries_are_rejected() {
        let triangle = parse_query("Q() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let db = parse_structure("R(1,2).").unwrap();
        assert_eq!(count_homomorphisms_acyclic(&triangle, &db), None);
        let with_head = parse_query("Q(x) :- R(x,y)").unwrap();
        assert_eq!(count_homomorphisms_acyclic(&with_head, &db), None);
    }

    #[test]
    fn repeated_variables_and_multiple_atoms_per_bag() {
        let q = parse_query("Q() :- R(x,x), S(x,y), T(x,y)").unwrap();
        let db = parse_structure("R(1,1). R(2,3). S(1,2). S(1,3). T(1,2). T(4,4).").unwrap();
        let expected = count_homomorphisms(&q, &db, &Budget::unlimited()).unwrap();
        assert_eq!(count_homomorphisms_acyclic(&q, &db), Some(expected));
        assert_eq!(expected, 1);
    }

    #[test]
    fn disconnected_queries_multiply() {
        let q = parse_query("Q() :- R(x,y), S(a,b)").unwrap();
        let db = parse_structure("R(1,2). R(2,3). S(7,8). S(8,9). S(9,7).").unwrap();
        assert_eq!(count_homomorphisms_acyclic(&q, &db), Some(6));
    }

    #[test]
    fn matches_backtracking_on_random_databases() {
        let queries = [
            "Q() :- R(x,y), R(y,z)",
            "Q() :- R(x,y), R(x,z), R(z,w)",
            "Q() :- R(x,y), R(y,z), R(z,w), R(w,v)",
        ];
        for seed in 0..5u64 {
            let db = random_graph_db(6, 12, seed);
            for text in queries {
                let q = parse_query(text).unwrap();
                assert_eq!(
                    count_homomorphisms_acyclic(&q, &db),
                    Some(count_homomorphisms(&q, &db, &Budget::unlimited()).unwrap()),
                    "seed {seed}, query {text}"
                );
            }
        }
    }

    #[test]
    fn empty_database_gives_zero() {
        let q = parse_query("Q() :- R(x,y), R(y,z)").unwrap();
        let db = Structure::empty();
        assert_eq!(count_homomorphisms_acyclic(&q, &db), Some(0));
    }
}
