//! The adversarial-corpus runner: every `examples/corpus/*.bqc` case must
//! produce its checked-in `EXPECT:` verdict, every checked-in `WITNESS:`
//! must separate by explicit counting (Fact 3.2), and every verdict must
//! survive the differential oracle's database-family replay.
//!
//! Corpus cases are regression pins: each one was once interesting — a
//! worked example from the paper, a boundary of the decidable class, or a
//! minimized `bqc fuzz` finding — and this runner keeps them all honest on
//! every `cargo test`.

use bag_query_containment::core::oracle::{check_summary, count_violation};
use bag_query_containment::engine::{parse_corpus, CorpusCase, ExpectedVerdict};
use bag_query_containment::prelude::*;
use bqc_bench::families::{database_family, FamilyConfig};
use std::path::PathBuf;

/// Every corpus file checked into `examples/corpus/`.  Kept explicit so a
/// new file must be added here (and a stale path fails loudly) instead of
/// silently riding on a directory glob.
const CORPUS_FILES: &[&str] = &[
    "examples/corpus/paper_examples.bqc",
    "examples/corpus/boolean_reduction.bqc",
    "examples/corpus/single_bag_fallback.bqc",
    "examples/corpus/near_miss.bqc",
    "examples/corpus/pipeline_branches.bqc",
    "examples/corpus/normal_cone.bqc",
];

fn load(path: &str) -> Vec<CorpusCase> {
    let full = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path);
    let text = std::fs::read_to_string(&full)
        .unwrap_or_else(|e| panic!("cannot read corpus file {}: {e}", full.display()));
    parse_corpus(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The directory is explicit in `CORPUS_FILES`; make sure nothing new
/// appeared on disk without being listed (a file a glob would pick up but
/// this runner would silently skip).
#[test]
fn corpus_directory_is_fully_listed() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/corpus");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/corpus exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".bqc"))
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = CORPUS_FILES
        .iter()
        .map(|p| p.rsplit('/').next().unwrap().to_string())
        .collect();
    listed.sort();
    assert_eq!(on_disk, listed, "corpus files on disk vs CORPUS_FILES");
}

#[test]
fn corpus_is_large_enough() {
    let total: usize = CORPUS_FILES.iter().map(|p| load(p).len()).sum();
    assert!(
        total >= 20,
        "adversarial corpus holds {total} cases, want >= 20"
    );
}

/// Every case produces its expected verdict, and each checked-in witness
/// separates by explicit counting — independent of the engine that once
/// produced the verdict.
#[test]
fn corpus_verdicts_and_witnesses_hold() {
    // Witness materialization is skipped: the corpus pins verdicts, and the
    // checked-in WITNESS databases are verified by direct counting below
    // (some headed refutations take seconds to *search* a witness for, but
    // microseconds to *check* one).
    let options = DecideOptions {
        extract_witness: false,
        ..DecideOptions::default()
    };
    for path in CORPUS_FILES {
        for case in load(path) {
            let at = format!("{path}:{} ({} ; {})", case.line, case.q1, case.q2);
            let answer =
                decide_containment_traced(&mut DecideContext::new(), &case.q1, &case.q2, &options)
                    .unwrap_or_else(|e| panic!("{at}: decision error {e}"))
                    .answer;
            let summary = answer.summary();
            let ok = match case.expect {
                ExpectedVerdict::Contained => summary.is_contained(),
                ExpectedVerdict::NotContained => summary.is_not_contained(),
                ExpectedVerdict::Unknown => summary.is_unknown(),
            };
            assert!(
                ok,
                "{at}: expected {}, engine answered {summary}",
                case.expect
            );
            if let Some(witness) = &case.witness {
                let violation = count_violation(&case.q1, &case.q2, witness)
                    .unwrap_or_else(|d| panic!("{at}: witness counting disagreed: {d}"))
                    .unwrap_or_else(|| panic!("{at}: checked-in WITNESS does not separate"));
                assert!(violation.hom_q1 > violation.hom_q2, "{at}: witness counts");
            }
        }
    }
}

/// The differential oracle replays every corpus verdict against the
/// generated database family: a `contained` verdict must never be
/// contradicted by explicit counts, and `unknown` obstructions must match
/// a fresh recomputation.
#[test]
fn corpus_survives_the_differential_oracle() {
    let options = DecideOptions {
        extract_witness: false,
        ..DecideOptions::default()
    };
    let config = FamilyConfig::default();
    for path in CORPUS_FILES {
        for case in load(path) {
            let at = format!("{path}:{} ({} ; {})", case.line, case.q1, case.q2);
            let answer =
                decide_containment_traced(&mut DecideContext::new(), &case.q1, &case.q2, &options)
                    .unwrap_or_else(|e| panic!("{at}: decision error {e}"))
                    .answer;
            let family = database_family(&case.q1, &case.q2, &config);
            let report = check_summary(&case.q1, &case.q2, answer.summary(), &family);
            assert!(
                report.ok(),
                "{at}: differential oracle found {:?}",
                report.discrepancies
            );
        }
    }
}
