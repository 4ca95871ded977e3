//! Differential properties of the counting oracle against the decision
//! pipeline: on random conjunctive-query pairs — acyclic and cyclic, headed
//! and Boolean — every verdict must be consistent with explicit
//! homomorphism counts over small domains, with the counting refuter both
//! enabled and disabled.
//!
//! This is the in-tree, property-test-sized sibling of `bqc fuzz`: the
//! fuzzer runs millions of engine-scale pairs out of band, these properties
//! run on every `cargo test` and shrink naturally with the seed space.

use bqc_core::oracle::{check_answer, checked_count, count_violation, replay_witness};
use bqc_core::{
    decide_containment_traced, exhaustive_containment_check, ContainmentAnswer, DecideContext,
    DecideError, DecideOptions,
};
use bqc_relational::{Atom, ConjunctiveQuery, Structure, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random Boolean conjunctive query, deterministic in `seed` — same
/// vocabulary and shape as the pipeline-equivalence suite, so the two
/// property suites explore the same pair space from different angles.
fn random_boolean_query(max_vars: usize, max_atoms: usize, seed: u64) -> ConjunctiveQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..max_vars + 1);
    let atom_count = rng.gen_range(1..max_atoms + 1);
    let relations: [(&str, usize); 3] = [("R", 2), ("S", 2), ("U", 1)];
    let atoms: Vec<Atom> = (0..atom_count)
        .map(|_| {
            let (relation, arity) = relations[rng.gen_range(0..relations.len())];
            let args: Vec<String> = (0..arity)
                .map(|_| format!("x{}", rng.gen_range(0..n)))
                .collect();
            Atom::new(relation, args)
        })
        .collect();
    ConjunctiveQuery::boolean("Q", atoms).expect("non-empty atom list")
}

/// Gives a Boolean query a one-variable head, exercising the Lemma A.1
/// reduction and the oracle's pointwise per-head-tuple counting.
fn with_head(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        q.name.clone(),
        vec![q.vars()[0].clone()],
        q.atoms().to_vec(),
    )
    .expect("first variable occurs in the body")
}

/// A small in-test database family: the canonical databases plus seeded
/// random structures over 2- and 3-element domains (the bench crate's
/// family generator cannot be used here — bench depends on core).
fn small_family(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    seed: u64,
) -> Vec<(String, Structure)> {
    let mut family = vec![
        ("canonical(Q1)".to_string(), q1.canonical_structure()),
        ("canonical(Q2)".to_string(), q2.canonical_structure()),
    ];
    let mut vocabulary = q1.vocabulary();
    vocabulary.merge(&q2.vocabulary());
    let mut rng = StdRng::seed_from_u64(seed);
    for domain in 2..=3usize {
        let mut structure = Structure::new(vocabulary.clone());
        for value in 0..domain {
            structure.add_domain_value(Value::int(value as i64));
        }
        for symbol in vocabulary.symbols() {
            let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
            for _ in 0..symbol.arity {
                let mut next = Vec::new();
                for prefix in &tuples {
                    for v in 0..domain {
                        let mut t = prefix.clone();
                        t.push(Value::int(v as i64));
                        next.push(t);
                    }
                }
                tuples = next;
            }
            for tuple in tuples {
                if rng.gen_bool(0.5) {
                    structure.add_fact(&symbol.name, tuple);
                }
            }
        }
        family.push((format!("random(domain={domain})"), structure));
    }
    family
}

/// One decision under `options` on a fresh context.
fn decide_with(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> Result<ContainmentAnswer, DecideError> {
    decide_containment_traced(&mut DecideContext::new(), q1, q2, options).map(|d| d.answer)
}

/// One full differential check of a pair under one option set.
fn check_pair(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
    seed: u64,
) -> Result<(), String> {
    let answer = decide_with(q1, q2, options)
        .map_err(|e| format!("decision error for {q1} vs {q2}: {e}"))?;
    let family = small_family(q1, q2, seed);
    let report = check_answer(q1, q2, &answer, &family);
    if !report.ok() {
        return Err(format!(
            "oracle discrepancies for {q1} vs {q2} ({answer}): {:?}",
            report.discrepancies
        ));
    }
    // Ground truth by exhaustion: a `Contained` verdict must survive every
    // database over a 2-element domain, not just the generated family.
    if answer.is_contained() {
        if let Err(db) = exhaustive_containment_check(q1, q2, 2) {
            return Err(format!(
                "Contained verdict for {q1} vs {q2} refuted exhaustively on {db}"
            ));
        }
    }
    // A materialized witness must replay through the oracle's independent
    // counters exactly.
    if let ContainmentAnswer::NotContained {
        witness: Some(witness),
        ..
    } = &answer
    {
        replay_witness(q1, q2, witness).map_err(|d| format!("{q1} vs {q2}: {d}"))?;
    }
    Ok(())
}

fn refuter_off() -> DecideOptions {
    DecideOptions {
        counting_refuter: false,
        ..DecideOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Boolean pairs (cyclic and acyclic both arise from the generator):
    /// verdicts are count-consistent with the refuter on and off, and the
    /// two option sets never contradict each other.
    #[test]
    fn random_boolean_pairs_are_count_consistent(
        seed1 in 0u64..100_000,
        seed2 in 0u64..100_000,
    ) {
        let q1 = random_boolean_query(4, 4, seed1);
        let q2 = random_boolean_query(4, 4, seed2.wrapping_add(0x0dd5));
        for options in [DecideOptions::default(), refuter_off()] {
            if let Err(message) = check_pair(&q1, &q2, &options, seed1 ^ seed2) {
                prop_assert!(false, "{}", message);
            }
        }
        // Definite verdicts agree across the refuter toggle (the refuter
        // only ever converts would-be-unknowns/LP work into refutations,
        // never flips a definite verdict).
        let on = decide_with(&q1, &q2, &DecideOptions::default()).unwrap();
        let off = decide_with(&q1, &q2, &refuter_off()).unwrap();
        if !on.is_unknown() && !off.is_unknown() {
            prop_assert_eq!(
                on.is_contained(),
                off.is_contained(),
                "refuter toggle flipped {} vs {}", q1, q2
            );
        }
    }

    /// Headed pairs: the oracle counts pointwise per head tuple, so this
    /// exercises the Lemma A.1 Boolean reduction end to end.
    #[test]
    fn random_headed_pairs_are_count_consistent(
        seed1 in 0u64..100_000,
        seed2 in 0u64..100_000,
    ) {
        let q1 = with_head(&random_boolean_query(3, 3, seed1));
        let q2 = with_head(&random_boolean_query(3, 3, seed2.wrapping_add(0x0dd5)));
        if let Err(message) = check_pair(&q1, &q2, &DecideOptions::default(), seed1 ^ seed2) {
            prop_assert!(false, "{}", message);
        }
    }

    /// The consensus counters themselves agree on random query/database
    /// pairs (backtracking vs Yannakakis DP vs naive enumeration) — the
    /// oracle's own foundation, checked independently of any verdict.
    #[test]
    fn consensus_counters_agree(seed in 0u64..100_000) {
        let q = random_boolean_query(4, 4, seed);
        let other = random_boolean_query(4, 4, seed.wrapping_mul(0x2545_f491));
        for (label, db) in small_family(&q, &other, seed) {
            if let Err(d) = checked_count(&q, &db) {
                prop_assert!(false, "counter disagreement on {} for {}: {}", label, q, d);
            }
        }
    }
}

/// A deliberately wrong verdict is caught: feeding the oracle `Contained`
/// for a pair the family separates must produce a discrepancy.  This is the
/// unit-sized version of `bqc fuzz --self-test`.
#[test]
fn oracle_catches_a_lying_verdict() {
    use bqc_core::oracle::{check_summary, Discrepancy};
    use bqc_core::AnswerSummary;
    let q1 = bqc_relational::parse_query("Q1() :- R(u,v), R(u,w)").unwrap();
    let q2 = bqc_relational::parse_query("Q2() :- R(x,y), R(y,z), R(z,x)").unwrap();
    let family = small_family(&q1, &q2, 7);
    let report = check_summary(&q1, &q2, AnswerSummary::Contained, &family);
    assert!(!report.ok(), "a false Contained verdict went unchallenged");
    assert!(report
        .discrepancies
        .iter()
        .any(|d| matches!(d, Discrepancy::ContainedViolated { .. })));
}

/// The exhaustive ground truth and the count-violation primitive agree on a
/// decided corner: star vs triangle separates on a 2-element database, and
/// the violation the exhaustive search finds re-counts identically.
#[test]
fn exhaustive_search_and_count_violation_agree() {
    let q1 = bqc_relational::parse_query("Q1() :- R(u,v), R(u,w)").unwrap();
    let q2 = bqc_relational::parse_query("Q2() :- R(x,y), R(y,z), R(z,x)").unwrap();
    let db = exhaustive_containment_check(&q1, &q2, 2).unwrap_err();
    let violation = count_violation(&q1, &q2, &db)
        .expect("counters agree")
        .expect("exhaustively found database must separate");
    assert!(violation.hom_q1 > violation.hom_q2);
}
