//! The differential counting oracle: independent ground truth for verdicts.
//!
//! Everything else in this crate decides `Q1 ⊑ Q2` *symbolically* — junction
//! trees, Shannon-cone LPs, polymatroid counterexamples.  This module checks
//! those verdicts the only way Theorem 3.1 ultimately defines them: by
//! evaluating `|Q(D)|` exactly on explicit finite databases.
//!
//! * a **consensus counter** ([`checked_count`]) that computes `|hom(Q, D)|`
//!   three independent ways — the backtracking counter, the junction-tree DP
//!   (when `Q` is α-acyclic), and a brute-force `|adom|^n` enumeration (when
//!   affordable) — and reports a [`Discrepancy::CounterMismatch`] if they
//!   ever disagree, so a bug in the counting machinery cannot silently
//!   vouch for itself;
//! * a **verdict checker** ([`check_answer`] / [`check_summary`]) replaying a
//!   decision against a caller-supplied family of labeled databases:
//!   a `Contained` verdict with *any* database where `|Q1(D)| > |Q2(D)|`
//!   (pointwise per head tuple for non-Boolean pairs) is an unconditional
//!   soundness bug (Fact 3.2); a `NotContained` witness is re-counted on its
//!   own separating database ([`replay_witness`]); an `Unknown` obstruction
//!   is recomputed from `Q2`'s structure ([`check_obstruction`]);
//! * the [`Discrepancy`] type itself, which carries enough of the violating
//!   instance to emit a standalone repro.
//!
//! The oracle can only ever *refute*: a pair that survives every database in
//! a family is not thereby proven contained (the family is finite; Fact 3.2
//! quantifies over all databases).  What the families *can* catch is spelled
//! out in ARCHITECTURE.md ("The differential oracle").

use crate::containment::{containment_inequality_from_homs, query_homomorphisms};
use crate::decide::{AnswerSummary, ContainmentAnswer, Obstruction};
use crate::reductions::{boolean_reduction, saturate_pair};
use crate::witness::NonContainmentWitness;
use bqc_hypergraph::{junction_tree, Graph};
use bqc_obs::Budget;
use bqc_relational::{bag_set_answer, count_homomorphisms, ConjunctiveQuery, Structure, Tuple};
use std::fmt;

/// Largest number of assignments the brute-force enumerator of
/// [`naive_count`] is willing to walk (`|adom|^{|vars|}`).  Past this the
/// consensus falls back to the two structured counters.  Sized so the walk
/// stays microseconds on the fuzz harness's small-domain families while
/// still covering every database a minimized repro can contain.
pub const NAIVE_ENUMERATION_LIMIT: u128 = 1 << 16;

/// A verdict/count inconsistency found by the oracle.  Every variant is a
/// bug somewhere: either in the decision procedure (the first three) or in
/// the counting machinery itself (the last).
#[derive(Clone, Debug)]
pub enum Discrepancy {
    /// A `Contained` verdict, yet a concrete database has strictly more
    /// `Q1`-answers than `Q2`-answers — by Fact 3.2 the verdict is wrong.
    ContainedViolated {
        /// Label of the family member that separated the pair.
        family: String,
        /// The separating database.
        database: Structure,
        /// The violated head tuple (`None` for Boolean pairs).
        head: Option<Tuple>,
        /// `|Q1(D)|` on that head tuple.
        hom_q1: u128,
        /// `|Q2(D)|` on that head tuple (strictly smaller).
        hom_q2: u128,
    },
    /// A `NotContained` witness whose own database does not reproduce the
    /// claimed count separation under independent recounting.
    WitnessReplayFailed {
        /// The counts the witness claims.
        claimed: (u128, u128),
        /// The counts the oracle recomputed on the witness database (for the
        /// last query pair tried; see [`replay_witness`]).
        recomputed: (u128, u128),
    },
    /// An `Unknown` verdict whose reported obstruction does not match the
    /// actual structure of the (reduced) containing query.
    ObstructionInconsistent {
        /// The obstruction the verdict reported.
        claimed: Obstruction,
        /// What recomputation finds: `Some` other obstruction, or `None`
        /// meaning the instance is actually inside the decidable class and
        /// should never have been `Unknown`.
        actual: Option<Obstruction>,
    },
    /// Two evaluations of the *same* pair produced different verdicts — e.g.
    /// the engine's cached/batched answer vs a fresh direct decision.  A
    /// violation of the cache-determinism invariant rather than of Fact 3.2.
    VerdictMismatch {
        /// The verdict under scrutiny (e.g. the engine's).
        observed: AnswerSummary,
        /// The verdict a fresh decision produced.
        fresh: AnswerSummary,
    },
    /// Two independent homomorphism counters disagreed on `|hom(Q, D)|`.
    CounterMismatch {
        /// Name of the query being counted.
        query: String,
        /// The database the counters disagreed on.
        database: Structure,
        /// Each counter's name and result.
        counts: Vec<(&'static str, u128)>,
    },
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Discrepancy::ContainedViolated {
                family,
                head,
                hom_q1,
                hom_q2,
                ..
            } => {
                write!(
                    f,
                    "verdict Contained violated on {family}: |Q1(D)| = {hom_q1} > {hom_q2} = |Q2(D)|"
                )?;
                if let Some(head) = head {
                    write!(f, " for head tuple {head:?}")?;
                }
                Ok(())
            }
            Discrepancy::WitnessReplayFailed {
                claimed,
                recomputed,
            } => write!(
                f,
                "witness replay failed: claimed counts {} > {}, recomputed {} vs {}",
                claimed.0, claimed.1, recomputed.0, recomputed.1
            ),
            Discrepancy::ObstructionInconsistent { claimed, actual } => match actual {
                Some(actual) => write!(
                    f,
                    "obstruction mismatch: verdict says {claimed}, structure says {actual}"
                ),
                None => write!(
                    f,
                    "obstruction mismatch: verdict says {claimed}, but the instance is decidable"
                ),
            },
            Discrepancy::VerdictMismatch { observed, fresh } => write!(
                f,
                "verdicts disagree: observed {observed:?}, fresh decision {fresh:?}"
            ),
            Discrepancy::CounterMismatch { query, counts, .. } => {
                write!(f, "counters disagree on |hom({query}, D)|:")?;
                for (name, count) in counts {
                    write!(f, " {name}={count}")?;
                }
                Ok(())
            }
        }
    }
}

/// Brute-force homomorphism counter: walks all `|adom|^{|vars|}` assignments
/// of active-domain values to variables and checks every atom.  Shares no
/// code with the backtracking counter or the junction-tree DP — that
/// independence is its entire value.  Returns `None` when the walk would
/// exceed [`NAIVE_ENUMERATION_LIMIT`] assignments.
pub fn naive_count(query: &ConjunctiveQuery, data: &Structure) -> Option<u128> {
    let domain: Vec<_> = data.active_domain().into_iter().collect();
    let vars = query.vars();
    let total = (domain.len() as u128).checked_pow(vars.len() as u32)?;
    if total > NAIVE_ENUMERATION_LIMIT {
        return None;
    }
    if vars.is_empty() {
        // No variables: all atoms are ground 0-ary facts.
        let ok = query
            .atoms()
            .iter()
            .all(|a| data.contains_fact(&a.relation, &Vec::new()));
        return Some(if ok { 1 } else { 0 });
    }
    if domain.is_empty() {
        return Some(0);
    }
    let mut assignment = vec![0usize; vars.len()];
    let mut count = 0u128;
    loop {
        let satisfied = query.atoms().iter().all(|atom| {
            let tuple: Tuple = atom
                .args
                .iter()
                .map(|v| {
                    let i = vars.iter().position(|w| w == v).expect("var in vars()");
                    domain[assignment[i]].clone()
                })
                .collect();
            data.contains_fact(&atom.relation, &tuple)
        });
        if satisfied {
            count += 1;
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == assignment.len() {
                return Some(count);
            }
            assignment[i] += 1;
            if assignment[i] < domain.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Computes `|hom(query, data)|` by consensus: the backtracking counter
/// always, the junction-tree DP when `query` is α-acyclic, the brute-force
/// enumeration when affordable.  Any disagreement is reported as a
/// [`Discrepancy::CounterMismatch`] instead of a count.
pub fn checked_count(query: &ConjunctiveQuery, data: &Structure) -> Result<u128, Discrepancy> {
    let backtracking = count_homomorphisms(query, data, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust");
    let mut counts: Vec<(&'static str, u128)> = vec![("backtracking", backtracking)];
    if let Some(dp) = crate::yannakakis::count_homomorphisms_acyclic(query, data) {
        counts.push(("junction-tree-dp", dp));
    }
    if let Some(naive) = naive_count(query, data) {
        counts.push(("naive-enumeration", naive));
    }
    if counts.iter().all(|&(_, c)| c == backtracking) {
        Ok(backtracking)
    } else {
        Err(Discrepancy::CounterMismatch {
            query: query.name.clone(),
            database: data.clone(),
            counts,
        })
    }
}

/// A concrete count separation `|Q1(D)| > |Q2(D)|` on one database.
#[derive(Clone, Debug)]
pub struct CountViolation {
    /// The head tuple on which the counts separate (`None` for Boolean
    /// pairs, where the counts are the plain homomorphism counts).
    pub head: Option<Tuple>,
    /// `|Q1(D)|` restricted to that head tuple.
    pub hom_q1: u128,
    /// `|Q2(D)|` restricted to that head tuple.
    pub hom_q2: u128,
}

/// Evaluates both queries on `data` and returns the first head tuple whose
/// `Q1`-count strictly exceeds its `Q2`-count, or `None` when the database
/// respects containment.  Boolean pairs go through [`checked_count`]
/// (consensus of up to three counters); non-Boolean pairs are evaluated per
/// head tuple via [`bag_set_answer`], cross-checked against the consensus
/// total (every homomorphism projects to exactly one head tuple, so the
/// per-tuple counts must sum to `|hom(Q, D)|`).
pub fn count_violation(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    data: &Structure,
) -> Result<Option<CountViolation>, Discrepancy> {
    if q1.is_boolean() && q2.is_boolean() {
        let hom_q1 = checked_count(q1, data)?;
        let hom_q2 = checked_count(q2, data)?;
        return Ok((hom_q1 > hom_q2).then_some(CountViolation {
            head: None,
            hom_q1,
            hom_q2,
        }));
    }
    let answers_q1 = bag_set_answer(q1, data);
    let answers_q2 = bag_set_answer(q2, data);
    for (query, answers) in [(q1, &answers_q1), (q2, &answers_q2)] {
        let total: u128 = answers.values().sum();
        let consensus = checked_count(query, data)?;
        if total != consensus {
            return Err(Discrepancy::CounterMismatch {
                query: query.name.clone(),
                database: data.clone(),
                counts: vec![("bag-set-answer-total", total), ("consensus", consensus)],
            });
        }
    }
    for (head, &hom_q1) in &answers_q1 {
        let hom_q2 = answers_q2.get(head).copied().unwrap_or(0);
        if hom_q1 > hom_q2 {
            return Ok(Some(CountViolation {
                head: Some(head.clone()),
                hom_q1,
                hom_q2,
            }));
        }
    }
    Ok(None)
}

/// Independently re-verifies a [`NonContainmentWitness`] by recounting both
/// queries on the witness's own separating database.
///
/// The pipeline may have produced the witness for the Boolean reduction of
/// the pair, or for its saturated variant (Lemma A.1, Fact A.3) — so the
/// replay mirrors those transformations and accepts the witness if *any* of
/// the candidate pairs reproduces the claimed counts with a strict
/// separation.  The recomputed counts of the last candidate are reported on
/// failure.
pub fn replay_witness(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    witness: &NonContainmentWitness,
) -> Result<(), Discrepancy> {
    let base = if q1.is_boolean() && q2.is_boolean() {
        (q1.clone(), q2.clone())
    } else {
        match boolean_reduction(q1, q2) {
            Ok(reduced) => reduced,
            Err(_) => (q1.clone(), q2.clone()),
        }
    };
    let saturated = saturate_pair(&base.0, &base.1);
    let mut recomputed = (0, 0);
    for (p1, p2) in [&base, &saturated] {
        let hom_q1 = checked_count(p1, &witness.database)?;
        let hom_q2 = checked_count(p2, &witness.database)?;
        recomputed = (hom_q1, hom_q2);
        if hom_q1 == witness.hom_q1 && hom_q2 == witness.hom_q2 && hom_q1 > hom_q2 {
            return Ok(());
        }
    }
    Err(Discrepancy::WitnessReplayFailed {
        claimed: (witness.hom_q1, witness.hom_q2),
        recomputed,
    })
}

/// Recomputes what the decision pipeline's junction-tree stage would have
/// classified for this pair and checks it against a claimed obstruction:
/// `Q2`'s Gaifman graph not chordal ⇒ [`Obstruction::NotChordal`]; chordal
/// but the junction tree or a composed `E_T ∘ φ` not simple ⇒
/// [`Obstruction::JunctionTreeNotSimple`]; otherwise the instance is inside
/// the decidable class of Theorem 3.1 and an `Unknown` verdict is itself the
/// bug.  [`Obstruction::ResourceExhausted`] is non-structural (it reflects
/// the budget the decision ran under, not the pair) and is always accepted.
pub fn check_obstruction(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    claimed: Obstruction,
) -> Result<(), Discrepancy> {
    if let Obstruction::ResourceExhausted { .. } = claimed {
        // Not a structural claim: exhaustion depends on the budget (and, for
        // deadlines, on wall clock), not on the query pair, so there is
        // nothing to recompute and nothing to convict.
        return Ok(());
    }
    let (q1, q2) = if q1.is_boolean() && q2.is_boolean() {
        (q1.clone(), q2.clone())
    } else {
        match boolean_reduction(q1, q2) {
            Ok(reduced) => reduced,
            // Mismatched heads never reach a verdict; nothing to check.
            Err(_) => return Ok(()),
        }
    };
    let actual = actual_obstruction(&q1, &q2);
    if actual == Some(claimed) {
        Ok(())
    } else {
        Err(Discrepancy::ObstructionInconsistent { claimed, actual })
    }
}

/// The obstruction the (already Boolean) pair actually has, or `None` when
/// it is inside the decidable class.  Mirrors the pipeline's junction-tree
/// stage exactly, but recomputes everything from scratch.
fn actual_obstruction(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Option<Obstruction> {
    let mut gaifman = Graph::from_cliques(q2.hyperedges());
    for v in q2.vars() {
        gaifman.add_vertex(v.clone());
    }
    let Some(td) = junction_tree(&gaifman) else {
        return Some(Obstruction::NotChordal);
    };
    let homomorphisms =
        query_homomorphisms(q2, q1, &Budget::unlimited()).expect("unlimited budget cannot exhaust");
    let Some((_, composed)) = containment_inequality_from_homs(q1, &td, &homomorphisms) else {
        // No homomorphism Q2 → Q1: the pipeline decides NotContained before
        // ever classifying, so no obstruction applies.
        return None;
    };
    if td.is_simple() && composed.iter().all(|e| e.is_simple()) {
        None
    } else {
        Some(Obstruction::JunctionTreeNotSimple)
    }
}

/// The outcome of replaying one verdict against a database family.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// How many databases were evaluated.
    pub databases: usize,
    /// Label of the first family member with `|Q1(D)| > |Q2(D)|`, if any.
    /// For a `NotContained` verdict this is independent confirmation; for
    /// `Unknown` it is a sound separation the procedure declined to claim
    /// (allowed — the refuter is confined to the decidable class); for
    /// `Contained` it accompanies a [`Discrepancy::ContainedViolated`].
    pub separated_by: Option<String>,
    /// Every inconsistency found.  Empty means the verdict survived.
    pub discrepancies: Vec<Discrepancy>,
}

impl CheckReport {
    /// `true` iff no discrepancy was found.
    pub fn ok(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Replays a verdict summary against a family of labeled databases.  See
/// [`check_answer`] for the variant that additionally replays the witness
/// and obstruction payloads of a full [`ContainmentAnswer`].
pub fn check_summary(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    summary: AnswerSummary,
    family: &[(String, Structure)],
) -> CheckReport {
    let mut report = CheckReport::default();
    for (label, database) in family {
        report.databases += 1;
        match count_violation(q1, q2, database) {
            Ok(Some(violation)) => {
                if report.separated_by.is_none() {
                    report.separated_by = Some(label.clone());
                }
                if matches!(summary, AnswerSummary::Contained) {
                    report.discrepancies.push(Discrepancy::ContainedViolated {
                        family: label.clone(),
                        database: database.clone(),
                        head: violation.head,
                        hom_q1: violation.hom_q1,
                        hom_q2: violation.hom_q2,
                    });
                }
            }
            Ok(None) => {}
            Err(mismatch) => report.discrepancies.push(mismatch),
        }
    }
    if let AnswerSummary::Unknown { obstruction } = summary {
        if let Err(d) = check_obstruction(q1, q2, obstruction) {
            report.discrepancies.push(d);
        }
    }
    report
}

/// Replays a full [`ContainmentAnswer`] against a family of labeled
/// databases: the summary checks of [`check_summary`] plus, for
/// `NotContained` answers carrying a witness, an independent
/// [`replay_witness`] recount on the witness database.
pub fn check_answer(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    answer: &ContainmentAnswer,
    family: &[(String, Structure)],
) -> CheckReport {
    let mut report = check_summary(q1, q2, answer.summary(), family);
    if let ContainmentAnswer::NotContained {
        witness: Some(witness),
        ..
    } = answer
    {
        if let Err(d) = replay_witness(q1, q2, witness) {
            report.discrepancies.push(d);
        }
        if report.separated_by.is_none() {
            report.separated_by = Some("witness database".to_string());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide_containment;
    use bqc_relational::{parse_query, parse_structure, Value};

    fn db(text: &str) -> Structure {
        parse_structure(text).unwrap()
    }

    #[test]
    fn naive_count_matches_backtracking() {
        let q = parse_query("Q() :- R(x,y), R(y,z)").unwrap();
        let d = db("R(1,2). R(2,3). R(3,1). R(2,2).");
        assert_eq!(
            naive_count(&q, &d),
            Some(count_homomorphisms(&q, &d, &Budget::unlimited()).unwrap())
        );
        let zero_vars = parse_query("Q() :- R(x,x)").unwrap();
        let empty = Structure::empty();
        assert_eq!(naive_count(&zero_vars, &empty), Some(0));
    }

    #[test]
    fn checked_count_consensus() {
        let q = parse_query("Q() :- R(x,y), S(y,z)").unwrap();
        let d = db("R(1,2). S(2,3). S(2,4).");
        assert_eq!(checked_count(&q, &d).unwrap(), 2);
    }

    #[test]
    fn count_violation_boolean_and_headed() {
        // Triangle vs 2-star on the dense 2-loop database: star wins.
        let tri = parse_query("Q1() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let star = parse_query("Q2() :- R(u,v), R(u,w)").unwrap();
        let d = db("R(1,1). R(2,2). R(1,2).");
        assert!(count_violation(&tri, &star, &d).unwrap().is_none());
        // The reverse direction separates on the same database.
        let violation = count_violation(&star, &tri, &d).unwrap().unwrap();
        assert!(violation.hom_q1 > violation.hom_q2);
        // Headed: per-tuple comparison.
        let p1 = parse_query("P1(a) :- S(a,b), S(a,c)").unwrap();
        let p2 = parse_query("P2(a) :- S(a,b)").unwrap();
        let d = db("S(1,2). S(1,3).");
        let violation = count_violation(&p1, &p2, &d).unwrap().unwrap();
        assert_eq!(violation.head, Some(vec![Value::int(1)]));
        assert_eq!((violation.hom_q1, violation.hom_q2), (4, 2));
        assert!(count_violation(&p2, &p1, &d).unwrap().is_none());
    }

    #[test]
    fn witness_replay_accepts_pipeline_witnesses() {
        let star = parse_query("Q1() :- R(u,v), R(u,w)").unwrap();
        let tri = parse_query("Q2() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let answer = decide_containment(&star, &tri).unwrap();
        let ContainmentAnswer::NotContained {
            witness: Some(witness),
            ..
        } = &answer
        else {
            panic!("expected a witnessed refutation, got {answer}");
        };
        replay_witness(&star, &tri, witness).unwrap();
        // A corrupted count must be caught.
        let mut broken = witness.clone();
        broken.hom_q2 = broken.hom_q1 + 1;
        assert!(matches!(
            replay_witness(&star, &tri, &broken),
            Err(Discrepancy::WitnessReplayFailed { .. })
        ));
    }

    #[test]
    fn obstruction_checks() {
        // 4-cycle Q2 is not chordal.
        let q1 = parse_query("Q1() :- R(x,y)").unwrap();
        let square = parse_query("Q2() :- R(a,b), R(b,c), R(c,d), R(d,a)").unwrap();
        check_obstruction(&q1, &square, Obstruction::NotChordal).unwrap();
        assert!(matches!(
            check_obstruction(&q1, &square, Obstruction::JunctionTreeNotSimple),
            Err(Discrepancy::ObstructionInconsistent {
                actual: Some(Obstruction::NotChordal),
                ..
            })
        ));
        // A chordal, simple Q2: claiming any obstruction is inconsistent.
        let path = parse_query("Q2() :- R(a,b), R(b,c)").unwrap();
        assert!(matches!(
            check_obstruction(&q1, &path, Obstruction::NotChordal),
            Err(Discrepancy::ObstructionInconsistent { actual: None, .. })
        ));
    }

    #[test]
    fn check_answer_catches_flipped_verdicts() {
        let star = parse_query("Q1() :- R(u,v), R(u,w)").unwrap();
        let tri = parse_query("Q2() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let family = vec![
            ("canonical(Q1)".to_string(), star.canonical_structure()),
            ("dense-2".to_string(), db("R(1,1). R(1,2). R(2,1). R(2,2).")),
        ];
        let answer = decide_containment(&star, &tri).unwrap();
        let report = check_answer(&star, &tri, &answer, &family);
        assert!(report.ok(), "{:?}", report.discrepancies);
        assert!(report.separated_by.is_some());
        // Flip the verdict to Contained: the family must convict it.
        let flipped = check_summary(&star, &tri, AnswerSummary::Contained, &family);
        assert!(!flipped.ok());
        assert!(matches!(
            flipped.discrepancies[0],
            Discrepancy::ContainedViolated { .. }
        ));
    }
}
