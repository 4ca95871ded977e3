//! Determinism and payload properties of the staged decision pipeline.
//!
//! * **Trace determinism** — the stage sequence (and every note) of a
//!   decision is a pure function of the query pair and options: cold
//!   contexts, warm contexts, and repeated runs all produce identical trace
//!   signatures.  This mirrors the engine's cache-determinism invariant at
//!   the explanation level.
//! * **Bugfix regression** — the non-chordal single-bag fallback returns the
//!   violating polymatroid of its failed Γ_n check.
//!
//! Verdict correctness on random pairs is `oracle_differential.rs`'s job
//! (same generator, counting refuter on and off); the hand-written branch
//! pairs live in `examples/corpus/pipeline_branches.bqc`.

use bqc_core::{
    decide_containment, decide_containment_traced, ContainmentAnswer, DecideContext, DecideOptions,
    Decision,
};
use bqc_entropy::is_polymatroid;
use bqc_relational::{parse_query, Atom, ConjunctiveQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random *Boolean* conjunctive query, deterministic in `seed`: up to
/// `max_atoms` atoms over up to `max_vars` variables from a small mixed
/// vocabulary.  Boolean heads keep every generated pair decidable-or-unknown
/// (never a head-arity error) and the universes small enough for the exact
/// LP to stay fast.
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

fn witness_free() -> DecideOptions {
    DecideOptions {
        extract_witness: false,
        ..DecideOptions::default()
    }
}

fn decide_traced(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    options: &DecideOptions,
) -> Decision {
    decide_containment_traced(&mut DecideContext::new(), q1, q2, options)
        .expect("Boolean pairs have matching heads")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The trace signature (stages, statuses) and all notes are identical
    /// across repeated decisions of the same pair — cold context, warm
    /// context, any history.
    #[test]
    fn traces_are_deterministic(
        seed1 in 0u64..100_000,
        seed2 in 0u64..100_000,
    ) {
        let q1 = random_boolean_query(4, 4, seed1);
        let q2 = random_boolean_query(4, 4, seed2.wrapping_add(0x51f1));
        let options = witness_free();
        let cold = decide_traced(&q1, &q2, &options);
        // A warm context that has already decided other pairs (including
        // this one) must reproduce the same stage sequence and notes.
        let mut warm = DecideContext::new();
        let warmup = random_boolean_query(4, 4, seed1 ^ 0xabcd);
        let _ = decide_containment_traced(&mut warm, &warmup, &q2, &options);
        let first = decide_containment_traced(&mut warm, &q1, &q2, &options).unwrap();
        let second = decide_containment_traced(&mut warm, &q1, &q2, &options).unwrap();
        prop_assert_eq!(cold.trace.signature(), first.trace.signature());
        prop_assert_eq!(first.trace.signature(), second.trace.signature());
        let notes = |d: &Decision| -> Vec<Option<String>> {
            d.trace.reports().iter().map(|r| r.note.clone()).collect()
        };
        prop_assert_eq!(notes(&cold), notes(&first));
        prop_assert_eq!(notes(&first), notes(&second));
        // And the verdicts agree with the trace determinism.
        prop_assert_eq!(cold.answer.summary(), second.answer.summary());
    }
}

/// Regression: the non-chordal single-bag fallback used to discard the
/// violating polymatroid of the failed Γ_n check; the pipeline returns it,
/// and it is a genuine polymatroid.
#[test]
fn non_chordal_unknown_carries_the_violating_polymatroid() {
    // Q2 is a 4-cycle (not chordal); Q1 embeds it but has two extra
    // variables no homomorphism covers, so the single-bag sufficient check
    // fails and the instance is undecided.
    let q1 = parse_query("Q1() :- R(a,b), R(b,c), R(c,d), R(d,a), S(u,v)").unwrap();
    let q2 = parse_query("Q2() :- R(p,q), R(q,r), R(r,s), R(s,p)").unwrap();
    let answer = decide_containment(&q1, &q2).unwrap();
    match &answer {
        ContainmentAnswer::Unknown {
            obstruction,
            counterexample,
        } => {
            assert_eq!(obstruction.to_string(), "containing query is not chordal");
            let counterexample = counterexample
                .as_ref()
                .expect("the violating polymatroid must be returned, not discarded");
            assert!(is_polymatroid(counterexample));
        }
        other => panic!("expected Unknown, got {other:?}"),
    }
}
