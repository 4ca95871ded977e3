//! The cache-determinism invariant (ARCHITECTURE.md), end to end:
//! *a cached answer must equal the freshly computed one* — for every request
//! of an acceptance-style workload in which each distinct canonical pair
//! appears ≥ 4 times under shuffled variable names and atom orders.

use bqc_bench::engine_workload;
use bqc_core::decide_containment;
use bqc_engine::{canonicalize_pair, Engine, EngineOptions, Provenance};

fn engine() -> Engine {
    Engine::new(EngineOptions::default())
}

/// Every answer the engine produces for the workload — whether fresh, deduped
/// in flight, or served from a warm cache on a second pass — equals the
/// answer of a direct, uncached decision-procedure run on the canonical
/// representative of that request.
#[test]
fn cached_and_fresh_answers_agree_on_every_pair() {
    let workload = engine_workload(4, 20260728);
    let engine = engine();
    let first_pass = engine.decide_batch(&workload);
    let second_pass = engine.decide_batch(&workload);
    for (i, (q1, q2)) in workload.iter().enumerate() {
        let pair = canonicalize_pair(q1, q2);
        let fresh = decide_containment(&pair.q1.query, &pair.q2.query)
            .expect("workload heads match")
            .summary();
        let batch_answer = first_pass[i].answer.as_ref().expect("workload decides");
        let warm_answer = second_pass[i].answer.as_ref().expect("workload decides");
        assert_eq!(
            *batch_answer, fresh,
            "request {i}: batch answer must equal a fresh computation"
        );
        assert_eq!(
            *warm_answer, fresh,
            "request {i}: cache-served answer must equal a fresh computation"
        );
        assert_eq!(first_pass[i].pair_hash, pair.hash);
    }
    // The second pass must not have recomputed anything.
    assert!(second_pass
        .iter()
        .all(|r| r.provenance != Provenance::Fresh));
}

/// The engine verdicts also agree with the decision procedure run on the
/// *original* (un-canonicalized) spellings: the verdict is a semantic
/// property of the isomorphism class, not of the spelling.
#[test]
fn engine_verdicts_agree_with_direct_decides_on_original_spellings() {
    let workload = engine_workload(4, 7);
    let results = engine().decide_batch(&workload);
    for ((q1, q2), result) in workload.iter().zip(&results) {
        let direct = decide_containment(q1, q2)
            .expect("workload heads match")
            .summary();
        let engine_answer = result.answer.as_ref().expect("workload decides");
        assert_eq!(
            engine_answer.verdict(),
            direct.verdict(),
            "verdict must be spelling-independent for {q1} vs {q2}"
        );
    }
}

/// The trace-determinism invariant, mirrored through the engine: two
/// independent engines deciding the same workload produce identical stage
/// sequences (and notes) for every fresh computation, no matter which worker
/// thread or context history computed it.
#[test]
fn fresh_traces_are_deterministic_across_engines() {
    let workload = engine_workload(3, 31);
    let first: Vec<_> = engine().decide_batch(&workload);
    let second: Vec<_> = engine().decide_batch(&workload);
    let mut compared = 0;
    for (a, b) in first.iter().zip(&second) {
        match (&a.trace, &b.trace) {
            (Some(ta), Some(tb)) => {
                assert_eq!(ta.signature(), tb.signature());
                let notes = |t: &bqc_core::DecisionTrace| -> Vec<Option<String>> {
                    t.reports().iter().map(|r| r.note.clone()).collect()
                };
                assert_eq!(notes(ta), notes(tb));
                compared += 1;
            }
            (None, None) => {}
            other => panic!("trace presence must be deterministic, got {other:?}"),
        }
    }
    assert!(compared > 0, "the workload has fresh computations");
    // Per-stage telemetry is a pure fold of those traces, so the decided /
    // continued / inapplicable counters agree engine-to-engine as well.
}

/// Provenance bookkeeping on the acceptance workload: exactly one Fresh
/// computation per distinct canonical pair, everything else deduped in the
/// first batch; everything cache-served afterwards.
#[test]
fn one_fresh_computation_per_distinct_pair() {
    let repeats = 5;
    let workload = engine_workload(repeats, 99);
    let engine = engine();
    let results = engine.decide_batch(&workload);
    let fresh = results
        .iter()
        .filter(|r| r.provenance == Provenance::Fresh)
        .count();
    let deduped = results
        .iter()
        .filter(|r| r.provenance == Provenance::DedupedInFlight)
        .count();
    let distinct = {
        let mut hashes: Vec<u64> = results.iter().map(|r| r.pair_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes.len()
    };
    assert_eq!(fresh, distinct);
    assert_eq!(deduped, workload.len() - distinct);
    assert_eq!(engine.cache_stats().entries as usize, distinct);

    let warm = engine.decide_batch(&workload);
    assert_eq!(
        warm.iter()
            .filter(|r| r.provenance == Provenance::CachedHit)
            .count(),
        distinct,
        "one cache hit per distinct pair on the warm pass (rest deduped)"
    );
}
