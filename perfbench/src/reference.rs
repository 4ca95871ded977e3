//! The reference check, run after the timed region.
//!
//! Every distinct question answered in a run is checked once:
//! * lp-bound questions against the hand-written verdict of their class;
//! * every `NotContained` answer is re-derived on its canonical pair, and
//!   the witness is re-counted on its own database by `replay_witness`;
//! * every other answer is replayed through the counting oracle
//!   (`bqc_core::oracle`) over the database family of
//!   `bqc_bench::families::database_family` — a `Contained` answer must
//!   survive every database, an `Unknown` must carry the obstruction the
//!   pair really has.
//!
//! Every request of a question must then carry the same verdict.

use crate::gen::{Expect, Pair};
use bqc::bench::families::{database_family, FamilyConfig};
use bqc::core::oracle::{check_summary, replay_witness};
use bqc::core::{
    decide_containment_traced, AnswerSummary, ContainmentAnswer, DecideContext, DecideOptions,
};
use bqc::engine::canonicalize_pair;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the program answered one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Ok(AnswerSummary),
    Busy,
    Error(String),
}

/// One request of a timed run.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub base: usize,
    pub answer: Answer,
    /// Submission to answer back with the caller.
    pub latency_ms: f64,
    /// When the answer came back, in seconds of timed run.
    pub done_s: f64,
}

/// The verdict of the reference check on one question.
#[derive(Clone, Debug)]
pub struct BaseCheck {
    /// The answer that was checked; every request of the question must match.
    pub answer: AnswerSummary,
    /// Whether the answer passed every check.
    pub ok: bool,
    /// For `NotContained`: a witness was re-derived and re-counted.
    pub witness_replayed: bool,
    pub problem: Option<String>,
}

fn check_one(pair: &Pair, answer: AnswerSummary, expect: Option<Expect>) -> BaseCheck {
    let (q1, q2) = pair;
    let mut problems = Vec::new();
    match (expect, answer) {
        (None, _)
        | (Some(Expect::Contained), AnswerSummary::Contained)
        | (
            Some(Expect::Refuted),
            AnswerSummary::NotContained {
                witness_verified: true,
            },
        ) => {}
        (Some(expected), got) => problems.push(format!("expected {expected:?}, got {got}")),
    }
    let mut witness_replayed = false;
    if let AnswerSummary::NotContained { witness_verified } = answer {
        let canonical = canonicalize_pair(q1, q2);
        let decision = decide_containment_traced(
            &mut DecideContext::new(),
            &canonical.q1.query,
            &canonical.q2.query,
            &DecideOptions::default(),
        );
        match decision {
            Ok(decision) => {
                if decision.answer.summary() != answer {
                    problems.push(format!("re-derived {}", decision.answer.summary()));
                }
                if let ContainmentAnswer::NotContained {
                    witness: Some(witness),
                    ..
                } = &decision.answer
                {
                    match replay_witness(q1, q2, witness) {
                        Ok(()) => witness_replayed = true,
                        Err(d) => problems.push(format!("witness replay: {d:?}")),
                    }
                }
            }
            Err(error) => problems.push(format!("re-derivation failed: {error}")),
        }
        if witness_verified && !witness_replayed {
            problems.push("claimed witness did not replay".to_string());
        }
    }
    // A replayed witness already is a counting-oracle confirmation of a
    // refutation.  Every other answer is replayed over the family: a
    // `Contained` must survive every database, an `Unknown` must carry the
    // pair's real obstruction.  As in `bqc fuzz`, a witness-free refutation
    // the family cannot separate is unconfirmed, not wrong; it counts
    // against witness_frac.
    if !witness_replayed {
        let family = database_family(q1, q2, &FamilyConfig::default());
        let report = check_summary(q1, q2, answer, &family);
        if !report.ok() {
            problems.push(format!("oracle: {:?}", report.discrepancies[0]));
        }
    }
    BaseCheck {
        answer,
        ok: problems.is_empty(),
        witness_replayed,
        problem: problems.first().cloned(),
    }
}

/// Checks the first answer of every distinct question in `outcomes` not yet
/// in `checks`, on two threads, and adds the results to `checks`.
/// `pair_of` regenerates a question from its base index.
pub fn check_new(
    checks: &mut HashMap<usize, BaseCheck>,
    outcomes: &[Outcome],
    pair_of: &(dyn Fn(usize) -> Pair + Sync),
    expect_of: &(dyn Fn(usize) -> Option<Expect> + Sync),
) {
    let mut first: HashMap<usize, AnswerSummary> = HashMap::new();
    for o in outcomes {
        if let Answer::Ok(summary) = o.answer {
            if !checks.contains_key(&o.base) {
                first.entry(o.base).or_insert(summary);
            }
        }
    }
    let todo: Vec<(usize, AnswerSummary)> = first.into_iter().collect();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(std::mem::take(checks));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(base, answer)) = todo.get(i) else {
                    break;
                };
                let check = check_one(&pair_of(base), answer, expect_of(base));
                done.lock().unwrap().insert(base, check);
            });
        }
    });
    *checks = done.into_inner().unwrap();
}

/// Correctness tallies of one run.
#[derive(Debug, Default)]
pub struct Score {
    pub attempted: usize,
    pub answered: usize,
    pub decided: usize,
    pub not_contained: usize,
    pub witnessed: usize,
    pub ok: usize,
    pub problems: Vec<String>,
}

/// Scores every request: answered without error or `busy`, and agreeing
/// with its question's checked answer.  `witnessed` counts the
/// `NotContained` answers whose witness passed the independent re-count.
pub fn score(outcomes: &[Outcome], checks: &HashMap<usize, BaseCheck>) -> Score {
    let mut s = Score {
        attempted: outcomes.len(),
        ..Score::default()
    };
    for o in outcomes {
        let summary = match &o.answer {
            Answer::Ok(summary) => *summary,
            Answer::Busy => continue,
            Answer::Error(message) => {
                if s.problems.len() < 5 {
                    s.problems.push(format!("question {}: {message}", o.base));
                }
                continue;
            }
        };
        s.answered += 1;
        let check = &checks[&o.base];
        if matches!(
            summary,
            AnswerSummary::Contained | AnswerSummary::NotContained { .. }
        ) {
            s.decided += 1;
        }
        if let AnswerSummary::NotContained { witness_verified } = summary {
            s.not_contained += 1;
            if witness_verified && check.witness_replayed {
                s.witnessed += 1;
            }
        }
        if check.ok && summary == check.answer {
            s.ok += 1;
        } else if s.problems.len() < 5 {
            s.problems.push(format!(
                "question {}: answered {summary}; {}",
                o.base,
                check
                    .problem
                    .clone()
                    .unwrap_or_else(|| format!("other requests answered {}", check.answer))
            ));
        }
    }
    s
}
