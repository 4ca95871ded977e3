//! The staged decision pipeline behind [`decide_containment`](crate::decide_containment).
//!
//! The Theorem 3.1 decision procedure is a cascade of cheap structural
//! checks in front of one expensive Shannon-cone LP.  This module makes
//! that cascade explicit: a [`DecisionPipeline`] runs a cost-ordered list of
//! [`DecisionStage`]s, each of which either **decides** the instance,
//! **continues** after enriching the shared [`PipelineState`], or is
//! **inapplicable**.  Every answer comes back as a [`Decision`] carrying a
//! structured [`DecisionTrace`] — per-stage verdict, timing and paper
//! citation — which is what `bqc --explain` renders and what `bqc-engine`
//! aggregates into serving telemetry.
//!
//! The standard stage list ([`DecisionPipeline::standard`]) is, in cost
//! order:
//!
//! | # | stage | decides | paper |
//! |---|-------|---------|-------|
//! | 1 | `boolean-reduction` | — (rewrites the pair) | Lemma A.1 |
//! | 2 | `identity-shortcut` | Contained | reflexivity |
//! | 3 | `hom-existence` | NotContained | Fact 3.2 |
//! | 4 | `junction-tree` | — (Eq. 8 + decidable class) | Theorem 3.1 |
//! | 5 | `counting-refuter` | NotContained | Fact 3.2 |
//! | 6 | `shannon-lp` | Contained / Unknown | Theorems 3.6 & 4.2 |
//! | 7 | `witness-materialization` | NotContained | Lemmas 3.7 & 4.8 |
//!
//! **Verdicts.**  Stages 1–4, 6 and 7 are the Theorem 3.1 procedure's steps;
//! the counting refuter (stage 5) is confined to the decidable class, where
//! Theorem 3.1's completeness makes a count separation and a failed Γ_n check
//! the same verdict, so switching it off
//! ([`DecideOptions::counting_refuter`]) changes no verdict.  The verdicts are
//! checked against independent ground truth — the counting oracle
//! ([`crate::oracle`]), the `# EXPECT:` corpus and `bqc fuzz` — rather than
//! against an earlier implementation.

mod refuter;
mod stages;
mod state;
mod trace;

pub use refuter::{
    candidate_count, counting_refutation, witness_from_refutation, CountRefutation, MAX_DOMAIN,
    RANDOM_FAMILY_MIN_VARS, RANDOM_STRUCTURES,
};
pub use stages::{
    BooleanReduction, CountingRefuter, HomExistence, IdentityShortcut, JunctionTree, ShannonLp,
    WitnessMaterialization,
};
pub use state::PipelineState;
pub use trace::{DecisionTrace, StageReport, StageStatus};

use crate::decide::{ContainmentAnswer, DecideError, DecideOptions, Obstruction};
use bqc_iip::GammaProver;
use bqc_obs::Exhausted;
use bqc_relational::ConjunctiveQuery;
use std::time::Instant;

/// The decided `Unknown` a stage (or the run loop) produces when the
/// decision's resource budget runs out mid-flight: sound — never a wrong
/// verdict — and carrying how far the procedure got in its trace note.
///
/// The note embeds the budget's progress counters (including elapsed wall
/// time), which makes it the one deliberate exception to the
/// trace-determinism invariant; that is safe because budget-exhausted
/// answers are excluded from every cache (see `bqc-engine`).
pub fn budget_exhausted_result(state: &PipelineState<'_>, exhausted: Exhausted) -> StageResult {
    StageResult::decided(ContainmentAnswer::Unknown {
        obstruction: Obstruction::ResourceExhausted {
            resource: exhausted.resource,
        },
        counterexample: None,
    })
    .with_note(format!("{exhausted}; {}", state.budget.progress_note()))
}

/// What a stage concluded for the current instance.
#[allow(clippy::large_enum_variant)] // one outcome per stage execution
#[derive(Debug)]
pub enum StageOutcome {
    /// The stage produced the final answer; the pipeline stops here.
    Decided(ContainmentAnswer),
    /// The stage ran and enriched the state; the next stage takes over.
    Continue,
    /// The stage's precondition did not hold; nothing was computed.
    Inapplicable,
}

/// A stage's outcome plus an optional deterministic trace note.
#[derive(Debug)]
pub struct StageResult {
    /// The control-flow outcome.
    pub outcome: StageOutcome,
    /// Deterministic detail for the trace (shown by `--explain`).
    pub note: Option<String>,
}

impl StageResult {
    /// A `Decided` result.
    pub fn decided(answer: ContainmentAnswer) -> StageResult {
        StageResult {
            outcome: StageOutcome::Decided(answer),
            note: None,
        }
    }

    /// A `Continue` result.
    pub fn cont() -> StageResult {
        StageResult {
            outcome: StageOutcome::Continue,
            note: None,
        }
    }

    /// An `Inapplicable` result.
    pub fn inapplicable() -> StageResult {
        StageResult {
            outcome: StageOutcome::Inapplicable,
            note: None,
        }
    }

    /// Attaches a trace note.  Notes must be deterministic in the instance
    /// and options (the trace-determinism invariant).
    pub fn with_note(mut self, note: impl Into<String>) -> StageResult {
        self.note = Some(note.into());
        self
    }
}

/// One stage of the decision pipeline.
///
/// Implementations must be deterministic: the outcome (and note) may depend
/// only on the [`PipelineState`] — which is itself a deterministic function
/// of the query pair and options — never on wall-clock time, thread
/// identity, or iteration order of unordered containers.
pub trait DecisionStage: Send + Sync {
    /// Stable stage name, shared by traces and engine telemetry.
    fn name(&self) -> &'static str;

    /// The paper result the stage implements.
    fn citation(&self) -> &'static str;

    /// Runs the stage against the shared state.
    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageResult, DecideError>;
}

/// The final answer together with its end-to-end explanation.
#[derive(Clone, Debug)]
pub struct Decision {
    /// The containment answer.
    pub answer: ContainmentAnswer,
    /// Which stages ran, what each concluded, and what each cost.
    pub trace: DecisionTrace,
}

/// A cost-ordered list of [`DecisionStage`]s deciding `Q1 ⊑ Q2`.
pub struct DecisionPipeline {
    stages: Vec<Box<dyn DecisionStage>>,
}

impl DecisionPipeline {
    /// The standard seven-stage pipeline (see the module docs).
    pub fn standard() -> DecisionPipeline {
        DecisionPipeline::with_stages(vec![
            Box::new(BooleanReduction),
            Box::new(IdentityShortcut),
            Box::new(HomExistence),
            Box::new(JunctionTree),
            Box::new(CountingRefuter),
            Box::new(ShannonLp),
            Box::new(WitnessMaterialization),
        ])
    }

    /// A pipeline over a custom stage list.  The last reachable stage must
    /// decide every instance the earlier ones pass through, or
    /// [`DecideError::PipelineIncomplete`] is returned at run time.
    pub fn with_stages(stages: Vec<Box<dyn DecisionStage>>) -> DecisionPipeline {
        DecisionPipeline { stages }
    }

    /// The stage names, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Decides `q1 ⊑ q2`, returning the answer and its trace.
    ///
    /// `gamma` answers the Shannon-cone feasibility probes; pass a fresh
    /// prover for history-independent answers or a warm one for
    /// vertex-insensitive (witness-free) serving paths — the policy
    /// [`decide_containment_traced`](crate::decide_containment_traced)
    /// implements.
    pub fn run(
        &self,
        gamma: &mut GammaProver,
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        options: &DecideOptions,
    ) -> Result<Decision, DecideError> {
        let mut state = PipelineState::new(gamma, q1, q2, options);
        let mut trace = DecisionTrace::new();
        let _pipeline_span = bqc_obs::span("pipeline");
        for stage in &self.stages {
            bqc_obs::failpoint("pipeline::stage");
            let stage_span = bqc_obs::span(stage.name());
            let start = Instant::now();
            // The deadline is rechecked between stages so that work done by
            // budget-oblivious custom stages still cannot push a decision
            // past its deadline by more than one stage.
            let StageResult { outcome, note } = match state.budget.check_deadline() {
                Ok(()) => stage.run(&mut state)?,
                Err(exhausted) => budget_exhausted_result(&state, exhausted),
            };
            let micros = start.elapsed().as_micros() as u64;
            drop(stage_span);
            let status = match &outcome {
                StageOutcome::Decided(answer) => StageStatus::Decided(answer.summary().verdict()),
                StageOutcome::Continue => StageStatus::Continued,
                StageOutcome::Inapplicable => StageStatus::Inapplicable,
            };
            trace.push(StageReport {
                stage: stage.name(),
                citation: stage.citation(),
                status,
                note,
                micros,
            });
            if let StageOutcome::Decided(answer) = outcome {
                return Ok(Decision { answer, trace });
            }
        }
        Err(DecideError::PipelineIncomplete)
    }
}

impl Default for DecisionPipeline {
    fn default() -> DecisionPipeline {
        DecisionPipeline::standard()
    }
}

impl std::fmt::Debug for DecisionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionPipeline")
            .field("stages", &self.stage_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::AnswerSummary;
    use bqc_relational::parse_query;

    fn run_standard(t1: &str, t2: &str, options: &DecideOptions) -> Decision {
        let q1 = parse_query(t1).unwrap();
        let q2 = parse_query(t2).unwrap();
        DecisionPipeline::standard()
            .run(&mut GammaProver::default(), &q1, &q2, options)
            .unwrap()
    }

    #[test]
    fn standard_stage_list_is_cost_ordered() {
        assert_eq!(
            DecisionPipeline::standard().stage_names(),
            vec![
                "boolean-reduction",
                "identity-shortcut",
                "hom-existence",
                "junction-tree",
                "counting-refuter",
                "shannon-lp",
                "witness-materialization",
            ]
        );
    }

    #[test]
    fn identity_pairs_stop_at_the_shortcut() {
        let decision = run_standard(
            "Q() :- R(x,y), S(y,z)",
            "Q() :- S(y,z), R(x,y)",
            &DecideOptions::default(),
        );
        assert!(decision.answer.is_contained());
        assert_eq!(decision.trace.decided_by(), Some("identity-shortcut"));
        assert_eq!(decision.trace.reports().len(), 2);
    }

    #[test]
    fn disjoint_vocabularies_stop_at_the_hom_screen() {
        let decision = run_standard(
            "Q1() :- R(x,y)",
            "Q2() :- S(u,v)",
            &DecideOptions::default(),
        );
        assert!(decision.answer.is_not_contained());
        assert_eq!(decision.trace.decided_by(), Some("hom-existence"));
    }

    #[test]
    fn example_4_3_reaches_the_lp() {
        let decision = run_standard(
            "Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)",
            "Q2() :- R(y1,y2), R(y1,y3)",
            &DecideOptions::default(),
        );
        assert!(decision.answer.is_contained());
        assert_eq!(decision.trace.decided_by(), Some("shannon-lp"));
        // The refuter ran (decidable class) but could not separate counts —
        // containment holds.
        let refuter = &decision.trace.reports()[4];
        assert_eq!(refuter.stage, "counting-refuter");
        assert_eq!(refuter.status, StageStatus::Continued);
    }

    #[test]
    fn example_3_5_is_decided_by_the_counting_refuter() {
        let decision = run_standard(
            "Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
            "Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)",
            &DecideOptions::default(),
        );
        assert_eq!(decision.trace.decided_by(), Some("counting-refuter"));
        match &decision.answer {
            ContainmentAnswer::NotContained {
                witness,
                counterexample,
            } => {
                assert!(counterexample.is_none(), "no LP ran");
                let witness = witness.as_ref().expect("refuting database verifies");
                assert!(witness.hom_q1 > witness.hom_q2);
            }
            other => panic!("expected NotContained, got {other:?}"),
        }
    }

    #[test]
    fn refuter_defers_to_the_lp_when_the_witness_budget_is_too_small() {
        // Example 3.5's separation has 4 Q1-homomorphisms; with a 2-row
        // witness budget the refuter must not decide witness-free — it
        // continues, and the LP + Lemma 3.7 path decides (here: no witness
        // fits either).
        let options = DecideOptions {
            witness_max_rows: 2,
            ..DecideOptions::default()
        };
        let decision = run_standard(
            "Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
            "Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)",
            &options,
        );
        assert!(decision.answer.is_not_contained());
        assert_eq!(decision.trace.decided_by(), Some("witness-materialization"));
        let refuter = &decision.trace.reports()[4];
        assert_eq!(refuter.stage, "counting-refuter");
        assert_eq!(refuter.status, StageStatus::Continued);
        assert!(refuter
            .note
            .as_ref()
            .unwrap()
            .contains("exceeds the witness budget"));
        assert_eq!(
            decision.answer.summary(),
            AnswerSummary::NotContained {
                witness_verified: false
            }
        );
    }

    #[test]
    fn refuter_can_be_disabled() {
        let options = DecideOptions {
            counting_refuter: false,
            ..DecideOptions::default()
        };
        let decision = run_standard(
            "Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
            "Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)",
            &options,
        );
        assert!(decision.answer.is_not_contained());
        assert_eq!(
            decision.trace.decided_by(),
            Some("witness-materialization"),
            "with the refuter off the LP path decides"
        );
    }

    #[test]
    fn incomplete_custom_pipelines_report_an_error() {
        let pipeline = DecisionPipeline::with_stages(vec![Box::new(BooleanReduction)]);
        let q = parse_query("Q() :- R(x,y)").unwrap();
        let error = pipeline
            .run(
                &mut GammaProver::default(),
                &q,
                &q,
                &DecideOptions::default(),
            )
            .unwrap_err();
        assert_eq!(error, DecideError::PipelineIncomplete);
    }
}
