//! Property-based integration tests (proptest) on the invariants the paper's
//! correctness rests on.

use bag_query_containment::prelude::*;
use bqc_arith::int;
use bqc_core::count_homomorphisms_acyclic;
use bqc_entropy::{all_masks, modularize, relation_entropy, step_function};
use proptest::prelude::*;

/// An unbudgeted homomorphism count.
fn count(query: &ConjunctiveQuery, data: &Structure) -> u128 {
    count_homomorphisms(query, data, &Budget::unlimited()).unwrap()
}

/// Strategy: a random exact polymatroid built as a non-negative integer
/// combination of step functions over `n` variables (always normal, hence a
/// polymatroid — and a convenient exact generator).
fn normal_polymatroid(n: usize) -> impl Strategy<Value = SetFunction> {
    let subsets = (1usize << n) - 1; // proper subsets of the full set (masks 0..full)
    proptest::collection::vec(0u32..3, subsets).prop_map(move |coeffs| {
        let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
        let mut total = SetFunction::zero(vars.clone());
        for (w, &c) in coeffs.iter().enumerate() {
            if c > 0 {
                let step = step_function(vars.clone(), w as u32).scale(&int(c as i64));
                total = total.add(&step);
            }
        }
        total
    })
}

/// Strategy: a "capped modular" polymatroid h(X) = min(Σ_{i∈X} w_i, cap),
/// which is generally *not* normal — a good stress input for Lemma 3.7.
fn capped_polymatroid(n: usize) -> impl Strategy<Value = SetFunction> {
    (proptest::collection::vec(0i64..4, n), 1i64..6).prop_map(move |(weights, cap)| {
        let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
        let mut h = SetFunction::zero(vars);
        for mask in all_masks(n) {
            let total: i64 = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| weights[i])
                .sum();
            h.set_value(mask, int(total.min(cap)));
        }
        h
    })
}

/// Strategy: a random directed-graph database over a small domain.
fn small_graph() -> impl Strategy<Value = Structure> {
    proptest::collection::vec((0i64..4, 0i64..4), 0..10).prop_map(|edges| {
        let mut db = Structure::empty();
        db.add_domain_value(Value::int(0));
        for (a, b) in edges {
            db.add_fact("R", vec![Value::int(a), Value::int(b)]);
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Entropies of random relations are (approximately) polymatroids.
    #[test]
    fn relation_entropies_are_polymatroids(
        rows in proptest::collection::vec((0i64..3, 0i64..3, 0i64..3), 1..12)
    ) {
        let mut relation = VRelation::new(vec!["A".into(), "B".into(), "C".into()]);
        for (a, b, c) in rows {
            relation.insert(vec![Value::int(a), Value::int(b), Value::int(c)]);
        }
        let entropy = relation_entropy(&relation);
        prop_assert!(entropy.is_approx_polymatroid(1e-9));
    }

    /// Lemma 3.7 item (1): modularization lower-bounds the polymatroid and
    /// preserves the top value.
    #[test]
    fn modularization_invariants(h in capped_polymatroid(4)) {
        prop_assume!(is_polymatroid(&h));
        let modular = modularize(&h);
        prop_assert!(bqc_entropy::is_modular(&modular));
        prop_assert!(modular.dominated_by(&h));
        prop_assert_eq!(modular.value(h.full_mask()), h.value(h.full_mask()));
    }

    /// Lemma 3.7 item (2): normalization lower-bounds the polymatroid,
    /// preserves the top and all singletons, and lands in N_n.
    #[test]
    fn normalization_invariants(h in capped_polymatroid(4)) {
        prop_assume!(is_polymatroid(&h));
        let normalized = normalize(&h);
        prop_assert!(is_normal(&normalized));
        prop_assert!(is_polymatroid(&normalized));
        prop_assert!(normalized.dominated_by(&h));
        prop_assert_eq!(normalized.value(h.full_mask()), h.value(h.full_mask()));
        for i in 0..h.num_vars() {
            prop_assert_eq!(normalized.value(1 << i), h.value(1 << i));
        }
    }

    /// Möbius inversion round-trips on arbitrary normal polymatroids, and the
    /// step decomposition reconstructs the function.
    #[test]
    fn mobius_and_step_decomposition_roundtrip(h in normal_polymatroid(4)) {
        let g = h.mobius_inverse();
        let back = SetFunction::from_mobius(h.vars().to_vec(), &g);
        prop_assert_eq!(&back, &h);
        let normal = NormalFunction::try_from_set_function(&h).expect("input is normal");
        prop_assert_eq!(normal.to_set_function(), h);
    }

    /// The Shannon-cone prover accepts every non-negative combination of
    /// elemental inequalities (soundness of "ValidShannon" on easy cases) and
    /// its counterexamples really violate the inequality.
    #[test]
    fn prover_counterexamples_are_genuine(
        coeffs in proptest::collection::vec(-2i64..3, 4)
    ) {
        let universe: Vec<String> = vec!["A".into(), "B".into(), "C".into()];
        let sets: [&[&str]; 4] = [&["A"], &["B"], &["A", "B"], &["A", "B", "C"]];
        let mut expr = EntropyExpr::zero();
        for (coeff, set) in coeffs.iter().zip(sets.iter()) {
            expr.add_term(int(*coeff), set.iter().copied());
        }
        let inequality = LinearInequality::new(universe, expr);
        match GammaProver::new().check_linear_inequality(&inequality, &Budget::unlimited()).unwrap() {
            bqc_iip::GammaValidity::ValidShannon => {
                // Spot-check on a few concrete polymatroids.
                let bits = SetFunction::from_values(
                    inequality.variables.clone(),
                    (0..8).map(|m: u32| int(m.count_ones() as i64)).collect(),
                );
                prop_assert!(inequality.holds_on(&bits));
            }
            bqc_iip::GammaValidity::NotShannonProvable { counterexample } => {
                prop_assert!(is_polymatroid(&counterexample));
                prop_assert!(!inequality.holds_on(&counterexample));
            }
        }
    }

    /// Backtracking and junction-tree counting agree on acyclic queries over
    /// random databases.
    #[test]
    fn hom_counters_agree(db in small_graph()) {
        for text in ["Q() :- R(x,y), R(y,z)", "Q() :- R(x,y), R(x,z)", "Q() :- R(x,x), R(x,y)"] {
            let q = parse_query(text).unwrap();
            prop_assert_eq!(
                count_homomorphisms_acyclic(&q, &db),
                Some(count(&q, &db))
            );
        }
    }

    /// Soundness of "Contained" answers (Theorem 4.2): whenever the decision
    /// procedure says contained, random small databases never violate it.
    #[test]
    fn contained_answers_hold_on_random_databases(db in small_graph()) {
        let q1 = parse_query("Q1() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let q2 = parse_query("Q2() :- R(u,v), R(u,w)").unwrap();
        // (Decided once outside the loop would be better, but the decision is
        // cheap for this fixed pair and keeps the property self-contained.)
        let answer = decide_containment(&q1, &q2).unwrap();
        prop_assert!(answer.is_contained());
        prop_assert!(count(&q1, &db) <= count(&q2, &db));
    }

    /// Disjoint powers multiply homomorphism counts (the `n·A` construction
    /// behind the exponent-domination reduction).
    #[test]
    fn powers_multiply_counts(db in small_graph(), n in 1usize..4) {
        let q = parse_query("Q() :- R(x,y)").unwrap();
        let single = count(&q, &db);
        let powered = q.power(n);
        prop_assert_eq!(count(&powered, &db), single.pow(n as u32));
    }
}
