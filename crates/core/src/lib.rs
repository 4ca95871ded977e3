//! # bqc-core — bag query containment via information theory
//!
//! The primary contribution of *Bag Query Containment and Information Theory*
//! (Abo Khamis, Kolaitis, Ngo, Suciu — PODS 2020), implemented end to end:
//!
//! * [`et`] — the expression `E_T` of Eq. (7) attached to a tree
//!   decomposition, in its conditional, node/edge and inclusion–exclusion
//!   (Eq. 32) forms;
//! * [`containment`] — the containment inequality of Eq. (8) linking
//!   `Q1 ⊑ Q2` to a max-information inequality (Theorems 4.2 / 4.4);
//! * [`decide`] — the decision procedure of Theorem 3.1: containment is
//!   decidable (in exponential time) when the containing query is chordal and
//!   admits a simple junction tree; sound "contained" answers are produced for
//!   arbitrary `Q2` via Theorem 4.2;
//! * [`pipeline`] — the staged form of that procedure: a cost-ordered
//!   [`pipeline::DecisionPipeline`] of [`pipeline::DecisionStage`]s (cheap
//!   structural screens, the counting refuter, the Shannon-cone LP, witness
//!   materialization), every answer carrying a structured
//!   [`pipeline::DecisionTrace`];
//! * [`oracle`] — the differential counting oracle: consensus homomorphism
//!   counting (backtracking vs junction-tree DP vs brute-force enumeration)
//!   and verdict replay against explicit database families, the independent
//!   ground truth behind the adversarial corpus and `bqc fuzz`;
//! * [`witness`] — witnesses of non-containment (Fact 3.2), product and
//!   normal witnesses (Theorem 3.4), extraction of verified witnesses from
//!   polymatroid counterexamples (Lemma 3.7 + Lemma 4.8), and a brute-force
//!   oracle for small instances;
//! * [`reductions`] — the Boolean reduction (Lemma A.1), query saturation
//!   (Fact A.3), the bag-bag → bag-set reduction, and the DOM /
//!   exponent-domination reductions of Section 2;
//! * [`reduction_to_bagcqc`] — the other half of Theorem 2.7: the many-one
//!   reduction from Max-IIP to containment with an acyclic containing query
//!   (Section 5);
//! * [`yannakakis`] — junction-tree based homomorphism counting for acyclic
//!   queries, used as a faster alternative to backtracking and as an ablation
//!   baseline in the benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use bqc_core::decide_containment;
//! use bqc_relational::parse_query;
//!
//! // Example 4.3 (attributed to Eric Vee): the triangle query is contained in
//! // the two-out-star query under bag-set semantics.
//! let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
//! let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
//! assert!(decide_containment(&triangle, &star).unwrap().is_contained());
//! assert!(decide_containment(&star, &triangle).unwrap().is_not_contained());
//! ```

pub mod containment;
pub mod decide;
pub mod et;
// The oracle's `Err` is the full diagnostic (separating database, claimed
// vs recomputed counts) and only materializes when a checker finds a bug —
// the cold path by definition, so the large-variant lint does not apply.
#[allow(clippy::result_large_err)]
pub mod oracle;
pub mod pipeline;
pub mod reduction_to_bagcqc;
pub mod reductions;
pub mod witness;
pub mod yannakakis;

pub use containment::{
    containment_inequality, containment_inequality_from_homs, query_homomorphisms,
    sufficient_containment_check, QueryHomomorphism,
};
pub use decide::{
    decide_containment, decide_containment_traced, AnswerSummary, ContainmentAnswer, DecideContext,
    DecideError, DecideOptions, Obstruction,
};
pub use pipeline::{
    Decision, DecisionPipeline, DecisionStage, DecisionTrace, StageReport, StageStatus,
};
// Re-exported so engines can share separation skeletons across their worker
// contexts (see `DecideContext::with_skeletons`) without a direct
// `bqc-entropy` dependency.
pub use bqc_entropy::SkeletonCache;
// Re-exported so callers can configure `DecideOptions::budget` (and match on
// `Obstruction::ResourceExhausted`) without a direct `bqc-obs` dependency.
pub use bqc_obs::{Budget, BudgetResource, BudgetSpec, Exhausted};
pub use et::{et_expression, et_inclusion_exclusion, et_node_edge_form};
pub use oracle::{
    check_answer, check_obstruction, check_summary, checked_count, count_violation, naive_count,
    replay_witness, CheckReport, CountViolation, Discrepancy,
};
pub use reduction_to_bagcqc::{max_iip_to_containment, ReductionOutput};
pub use reductions::{
    bag_bag_to_bag_set, boolean_reduction, dom_to_containment, exponent_domination_to_containment,
    saturate, saturate_pair,
};
pub use witness::{
    exhaustive_containment_check, search_product_witness, verify_witness,
    witness_from_counterexample, NonContainmentWitness,
};
pub use yannakakis::count_homomorphisms_acyclic;
