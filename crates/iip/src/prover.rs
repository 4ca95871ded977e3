//! Validity of (max-)information inequalities over the Shannon cone `Γ_n`.
//!
//! Section 3.2: `Γ_n` is a polyhedral cone, so validity of a max-linear
//! inequality over `Γ_n` is decidable by linear programming.  Concretely,
//! `0 ≤ max_ℓ E_ℓ(h)` fails on `Γ_n` iff some polymatroid has `E_ℓ(h) < 0`
//! for every `ℓ`; because `Γ_n` is a cone this is equivalent to the
//! feasibility of
//!
//! ```text
//!     h ∈ Γ_n  (elemental Shannon inequalities),    E_ℓ(h) ≤ −1  for all ℓ,
//! ```
//!
//! which the exact simplex solver of `bqc-lp` decides.  The answer is
//! interpreted as follows:
//!
//! * **valid over `Γ_n`** ⇒ valid over the entropic functions `Γ*_n ⊆ Γ_n`
//!   (the inequality is a *Shannon* inequality);
//! * **invalid over `Γ_n`** ⇒ inconclusive for general inequalities (there are
//!   non-Shannon valid inequalities, Zhang–Yeung \[32\]); but for the
//!   *essentially Shannon* classes of Theorem 3.6 — in particular the
//!   containment inequalities produced by chordal queries with simple junction
//!   trees — the polymatroid counterexample can be pushed down into the normal
//!   functions and therefore refutes the inequality outright.
//!
//! ## Lazy separation
//!
//! `Γ_n` has `n + C(n,2)·2^{n−2}` elemental inequalities, and the seed
//! implementation materialized every one of them into the LP before each
//! probe — the `2^n` wall that kept `Γ_6`/`Γ_7` out of reach.  The prover
//! now runs a **cutting-plane loop** instead (the standard ITIP-scaling
//! technique):
//!
//! 1. solve a small relaxation holding only the `n` monotonicity seed rows,
//!    any elemental rows remembered from earlier same-shaped probes, and the
//!    disjunct rows `E_ℓ(h) ≤ −1`;
//! 2. if the relaxation is **infeasible**, the full program is too (the
//!    relaxation's feasible set is a superset) — the inequality is valid;
//! 3. otherwise hand the optimal point to the exact
//!    [`ShannonSeparator`], which scans *all* elemental inequalities in
//!    `O(n²·2^n)` arithmetic without materializing them; if none is violated
//!    the point is a genuine polymatroid counterexample;
//! 4. otherwise append the most-violated rows to the LP **incrementally**
//!    ([`bqc_lp::IncrementalSolver`] extends the optimal basis and re-enters
//!    via a bounded phase-1 restart) and repeat.
//!
//! Each round adds at least one elemental row that was never active before,
//! so the loop terminates; validity is only ever certified by relaxation
//! infeasibility, and a counterexample is only ever returned once the
//! separator finds no violated elemental inequality — the verdicts are
//! exactly those of the eager cone ([`check_max_inequality_eager`], the
//! property-test oracle and the escalation target of deep probes).

use crate::inequality::{LinearInequality, MaxInequality};
use bqc_arith::Rational;
use bqc_entropy::{
    all_masks, ElementalId, EntropyExpr, Mask, SetFunction, ShannonSeparator, SkeletonCache,
};
use bqc_lp::{ConstraintOp, LpBasis, LpProblem, LpStatus, Sense, VarBound, VarId};
use bqc_obs::{Budget, Exhausted, LazyCounter, LazyHistogram};
use std::collections::HashMap;

static PROBES: LazyCounter = LazyCounter::new("bqc_iip_probes_total");
static SEPARATION_ROUNDS: LazyCounter = LazyCounter::new("bqc_iip_separation_rounds_total");
static ROUNDS_PER_PROBE: LazyHistogram = LazyHistogram::new("bqc_iip_rounds_per_probe");
static ESCALATIONS: LazyCounter = LazyCounter::new("bqc_iip_escalations_total");
static WARM_SHAPE_HITS: LazyCounter = LazyCounter::new("bqc_iip_warm_shape_hits_total");
static FARKAS_SUPPORTS_HARVESTED: LazyCounter =
    LazyCounter::new("bqc_iip_farkas_supports_harvested_total");
static FARKAS_SUPPORT_HITS: LazyCounter = LazyCounter::new("bqc_iip_farkas_support_hits_total");
static BUDGET_EXHAUSTED: LazyCounter = LazyCounter::new("bqc_iip_budget_exhausted_total");

/// Outcome of a validity check over the polymatroid cone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GammaValidity {
    /// The inequality holds for every polymatroid (hence for every entropic
    /// function): it is a Shannon inequality.
    ValidShannon,
    /// Some polymatroid violates every disjunct simultaneously.  The witness
    /// satisfies `E_ℓ(h) ≤ −1` for all `ℓ`.
    NotShannonProvable {
        /// A violating polymatroid.
        counterexample: SetFunction,
    },
}

impl GammaValidity {
    /// `true` iff the inequality is Shannon-provable.
    pub fn is_valid(&self) -> bool {
        matches!(self, GammaValidity::ValidShannon)
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&SetFunction> {
        match self {
            GammaValidity::ValidShannon => None,
            GammaValidity::NotShannonProvable { counterexample } => Some(counterexample),
        }
    }
}

/// Internal helper: declares one anonymous LP column per non-empty subset of
/// an `n`-variable universe (no name `format!`, no per-column allocation).
fn declare_columns(lp: &mut LpProblem, n: usize) -> Vec<Option<VarId>> {
    let mut columns: Vec<Option<VarId>> = vec![None; 1 << n];
    for mask in all_masks(n) {
        if mask == 0 {
            continue;
        }
        // Polymatroids are non-negative (monotonicity from h(∅) = 0), so the
        // natural variable bound is ≥ 0; this also keeps the LP smaller.
        columns[mask as usize] = Some(lp.add_variable_anonymous(VarBound::NonNegative));
    }
    columns
}

/// Adds one elemental inequality as an LP row `Σ ±h(mask) ≥ 0`.
fn add_elemental_row(lp: &mut LpProblem, columns: &[Option<VarId>], id: &ElementalId, n: usize) {
    let (terms, len) = id.terms(n);
    lp.add_constraint_small(
        terms[..len]
            .iter()
            .filter_map(|(mask, coeff)| columns[*mask as usize].map(|var| (var, *coeff))),
        ConstraintOp::Ge,
        0,
    );
}

/// Internal helper: builds the **eager** `h ∈ Γ_n` constraint system (every
/// elemental inequality materialized), returning one LP variable per
/// non-empty subset of the universe.
fn shannon_cone_lp(variables: &[String]) -> (LpProblem, Vec<Option<VarId>>) {
    let n = variables.len();
    let mut lp = LpProblem::new(Sense::Minimize);
    let columns = declare_columns(&mut lp, n);
    for id in bqc_entropy::elemental_ids(n) {
        add_elemental_row(&mut lp, &columns, &id, n);
    }
    (lp, columns)
}

/// Converts an [`EntropyExpr`] into sparse LP coefficients with respect to the
/// ordered variable universe.
fn expr_coefficients(
    expr: &EntropyExpr,
    variables: &[String],
    columns: &[Option<VarId>],
) -> Vec<(VarId, Rational)> {
    let index_of: HashMap<&str, usize> = variables
        .iter()
        .enumerate()
        .map(|(index, name)| (name.as_str(), index))
        .collect();
    let mut coeffs = Vec::new();
    for (set, coeff) in expr.terms() {
        let mut mask: Mask = 0;
        for v in set {
            let index = index_of
                .get(v.as_str())
                .unwrap_or_else(|| panic!("variable {v} missing from the universe"));
            mask |= 1 << index;
        }
        if let Some(var) = columns[mask as usize] {
            coeffs.push((var, coeff.clone()));
        }
    }
    coeffs
}

/// Extracts the candidate point of a relaxation solve as one value per mask.
fn mask_values(solution_values: &[Rational], columns: &[Option<VarId>]) -> Vec<Rational> {
    columns
        .iter()
        .map(|column| match column {
            Some(var) => solution_values[var.0].clone(),
            None => Rational::zero(),
        })
        .collect()
}

/// How many violated rows a separation round may append.  Empirically the
/// loop is fastest with small batches (~2n): each LP re-entry then only has
/// to repair a handful of violated rows from the extended basis, and the
/// active set stays close to the rows that actually bind.  Large batches
/// push the re-entry toward a full cold phase 1 and were measurably slower
/// at n = 6..7.
fn separation_batch(n: usize) -> usize {
    (2 * n).max(8)
}

/// How many separation rounds a probe may run before escalating to the
/// certificate LP of Theorem 6.1 (`convex::certificate_decision`).
///
/// Shallow probes — the common containment inequalities, and any probe
/// warm-started with the active rows of an earlier same-shaped probe —
/// finish within a few rounds and never escalate.  Probes that run deep
/// (typically valid inequalities whose Farkas certificates combine many
/// elemental rows) converge much faster in the certificate formulation,
/// whose LP has `2^n` rows instead of `Θ(n²·2^n)`.
fn escalation_rounds(n: usize) -> usize {
    n.max(4)
}

/// Universe size up to and including which the prover materializes the cone
/// eagerly (with a warm-started basis) instead of running the separation
/// loop.  At n ≤ 4 the full cone has at most 28 rows: a single crash-basis
/// solve beats the loop's multiple re-entries and separator scans, and the
/// small-shape probes dominate the decision-procedure workloads of
/// `bqc-core`/`bqc-engine`.  Verdicts are identical either way.
fn eager_cutoff() -> usize {
    4
}

/// Remembered end state of the last probe of a given shape: which elemental
/// rows (beyond the monotonicity seeds) were active, and the final basis.
#[derive(Clone, Debug)]
struct WarmShape {
    active: Vec<ElementalId>,
    basis: Option<LpBasis>,
}

/// A stateful Shannon-cone prover running the **lazy separation loop**, with
/// warm-started LP probes.
///
/// Every validity check over `Γ_n` shares the same elemental-inequality
/// skeleton; only the handful of disjunct rows differ between inequalities.
/// The prover remembers, per probe *shape* (universe size, number of
/// disjuncts), the elemental rows that ended up active in the last probe and
/// its optimal basis, and seeds the next same-shaped probe with both — so a
/// decision loop's repeated probes usually start one separation round from
/// done, and the LP re-entry skips phase 1 whenever the remembered basis is
/// still feasible.  When it is not, the solver silently falls back to a cold
/// start, so answers never depend on the cache.
///
/// Skeletons (the immutable per-universe-size separation data) come from a
/// [`SkeletonCache`] that can be shared across provers and threads — batch
/// engines hand one cache to every worker.
///
/// **Caveat: counterexamples are history-dependent.**  The validity verdict
/// is always identical to a cold check, but when an inequality is *invalid*
/// the violating polymatroid handed back is whichever cone vertex the final
/// relaxation terminated at — a warm start can land on a different (equally
/// valid) vertex than a cold start would.  Callers that need the returned
/// counterexample to be a pure function of the inequality (e.g. to feed
/// deterministic caches) should probe with a fresh prover
/// (`GammaProver::new()`), which carries no history.
#[derive(Debug, Default)]
pub struct GammaProver {
    skeletons: SkeletonCache,
    /// Last probe end state per `(universe size, disjunct count)` shape.
    warm: HashMap<(usize, usize), WarmShape>,
    /// Last optimal basis per shape for the small-universe eager path.
    warm_eager: HashMap<(usize, usize), LpBasis>,
}

impl GammaProver {
    /// Creates a prover with an empty warm-start cache and a private
    /// skeleton cache.
    pub fn new() -> GammaProver {
        GammaProver::default()
    }

    /// Creates a prover drawing skeletons from a shared cache.
    ///
    /// Skeletons are immutable, so sharing them never affects verdicts or
    /// counterexamples; it only avoids rebuilding the per-universe-size
    /// separation data in every worker of a batch engine.
    pub fn with_skeletons(skeletons: SkeletonCache) -> GammaProver {
        GammaProver {
            skeletons,
            warm: HashMap::new(),
            warm_eager: HashMap::new(),
        }
    }

    /// The prover's skeleton cache (shareable; see
    /// [`GammaProver::with_skeletons`]).
    pub fn skeletons(&self) -> &SkeletonCache {
        &self.skeletons
    }

    /// Number of cached warm-start entries (one per probe shape seen so far).
    pub fn cached_bases(&self) -> usize {
        self.warm.len() + self.warm_eager.len()
    }

    /// The small-universe path: the full cone is tiny, so materialize it and
    /// solve once, warm-starting from the last same-shaped optimal basis
    /// exactly as the pre-separation prover did.
    fn check_small(
        &mut self,
        inequality: &MaxInequality,
        budget: &Budget,
    ) -> Result<GammaValidity, Exhausted> {
        let variables = &inequality.variables;
        let (mut lp, columns) = shannon_cone_lp(variables);
        for disjunct in &inequality.disjuncts {
            let coeffs = expr_coefficients(disjunct, variables, &columns);
            // E_ℓ(h) ≤ −1.
            lp.add_constraint(coeffs, ConstraintOp::Le, -Rational::one());
        }
        let shape = (variables.len(), inequality.disjuncts.len());
        // `?` on exhaustion happens before any warm-state insertion: an
        // aborted solve must leave the prover exactly as it found it.
        let (solution, basis) = lp.solve_from(self.warm_eager.get(&shape), budget)?;
        if let Some(basis) = basis {
            self.warm_eager.insert(shape, basis);
        }
        Ok(match solution.status {
            LpStatus::Infeasible => GammaValidity::ValidShannon,
            LpStatus::Optimal | LpStatus::Unbounded => GammaValidity::NotShannonProvable {
                counterexample: SetFunction::from_values(
                    variables.clone(),
                    mask_values(&solution.values, &columns),
                ),
            },
        })
    }

    /// Decides whether `0 ≤ max_ℓ E_ℓ(h)` holds for every polymatroid over
    /// the inequality's universe, using the lazy separation loop and reusing
    /// the cached active rows and basis when the shape matches.
    ///
    /// The probe runs under a decision [`Budget`] (pass
    /// [`Budget::unlimited`] for an unbounded one): pivots are charged inside
    /// the LP solves, each separation round charges the round cap, and the
    /// separator scan checks the deadline.  `Err` means the budget ran out
    /// before the probe finished.  On that path the prover's warm-start
    /// caches are **left untouched** — no active-row set or basis derived
    /// from the aborted probe is remembered, so later probes (budgeted or
    /// not) answer exactly as if the aborted probe had never run.
    pub fn check_max_inequality(
        &mut self,
        inequality: &MaxInequality,
        budget: &Budget,
    ) -> Result<GammaValidity, Exhausted> {
        self.check_max_inner(inequality, budget).inspect_err(|_| {
            BUDGET_EXHAUSTED.inc();
            bqc_obs::instant("budget-exhausted");
        })
    }

    fn check_max_inner(
        &mut self,
        inequality: &MaxInequality,
        budget: &Budget,
    ) -> Result<GammaValidity, Exhausted> {
        PROBES.inc();
        let _probe_span = bqc_obs::span("gamma-check");
        let variables = &inequality.variables;
        let n = variables.len();
        if n <= eager_cutoff() {
            return self.check_small(inequality, budget);
        }
        let skeleton = self.skeletons.get(n);
        let shape = (n, inequality.disjuncts.len());

        // Seed relaxation: monotonicity rows, the active rows remembered
        // from the last same-shaped probe, then the disjunct rows.
        let mut lp = LpProblem::new(Sense::Minimize);
        let columns = declare_columns(&mut lp, n);
        let mut active: Vec<ElementalId> = Vec::new();
        for id in skeleton.seed_rows() {
            add_elemental_row(&mut lp, &columns, &id, n);
        }
        if let Some(cached) = self.warm.get(&shape) {
            WARM_SHAPE_HITS.inc();
            if !cached.active.is_empty() {
                FARKAS_SUPPORT_HITS.inc();
            }
            for id in &cached.active {
                add_elemental_row(&mut lp, &columns, id, n);
            }
            active.extend(cached.active.iter().copied());
        }
        for disjunct in &inequality.disjuncts {
            let coeffs = expr_coefficients(disjunct, variables, &columns);
            // E_ℓ(h) ≤ −1.
            lp.add_constraint(coeffs, ConstraintOp::Le, -Rational::one());
        }

        let mut inc = lp.to_incremental();
        let warm_basis = self
            .warm
            .get(&shape)
            .and_then(|cached| cached.basis.clone());
        let mut solution = inc.solve_from(warm_basis.as_ref(), budget)?;
        let separator = ShannonSeparator::new(skeleton.clone());
        let batch = separation_batch(n);
        let mut rounds = 0usize;

        let verdict = loop {
            match solution.status {
                // The relaxation admits every polymatroid the full cone
                // does, so relaxation infeasibility certifies validity.
                LpStatus::Infeasible => break GammaValidity::ValidShannon,
                LpStatus::Optimal | LpStatus::Unbounded => {
                    // (Unbounded cannot occur for the zero feasibility
                    // objective; treat it like Optimal for uniformity, as
                    // the eager checker did.)
                    let h = mask_values(&solution.values, &columns);
                    let violated = separator.most_violated(&h, batch, budget)?;
                    if violated.is_empty() {
                        // The separator scanned every elemental inequality:
                        // h is a genuine polymatroid violating all disjuncts.
                        break GammaValidity::NotShannonProvable {
                            counterexample: SetFunction::from_values(variables.clone(), h),
                        };
                    }
                    rounds += 1;
                    SEPARATION_ROUNDS.inc();
                    budget.charge_separation_round()?;
                    bqc_obs::instant("separation-round");
                    if rounds > escalation_rounds(n) {
                        // A deep probe: separation at relaxation vertices
                        // has stopped paying for itself, so finish with one
                        // eager full-cone solve.  The certificate LP alone
                        // could decide both directions, but proving its
                        // optimum is 0 (the invalid case) is a degenerate
                        // crawl with chaotic cost — measured 1.3s-8s on
                        // near-identical Γ_7 refutations, against a stable
                        // ~1.2s for the eager solve — so the eager verdict
                        // comes first and the certificate runs only in its
                        // reliably-fast direction.  When the verdict is
                        // *valid*, harvest the Farkas support from the
                        // Theorem 6.1 certificate LP: seeded with exactly
                        // those rows, a later same-shaped relaxation is
                        // infeasible on its first solve, so warm re-probes
                        // of this shape skip both the loop and the
                        // escalation.
                        ESCALATIONS.inc();
                        bqc_obs::instant("escalation");
                        ROUNDS_PER_PROBE.observe(rounds as u64);
                        let verdict = check_max_inequality_eager(inequality, budget)?;
                        // The Farkas harvest is a warm-start optimization
                        // whose certificate LP is not budget-instrumented;
                        // under a limited budget it is skipped rather than
                        // allowed to overrun the deadline unchecked.
                        if verdict.is_valid() && budget.is_unlimited() {
                            if let crate::convex::CertificateOutcome::Certificate {
                                support, ..
                            } = crate::convex::certificate_decision(inequality)
                            {
                                let seeds: std::collections::HashSet<ElementalId> =
                                    skeleton.seed_rows().collect();
                                active = support
                                    .into_iter()
                                    .filter(|id| !seeds.contains(id))
                                    .collect();
                                FARKAS_SUPPORTS_HARVESTED.add(active.len() as u64);
                            }
                        }
                        self.warm.insert(
                            shape,
                            WarmShape {
                                active,
                                basis: None,
                            },
                        );
                        return Ok(verdict);
                    }
                    for id in &violated {
                        let (terms, len) = id.terms(n);
                        inc.add_constraint_small(
                            terms[..len].iter().filter_map(|(mask, coeff)| {
                                columns[*mask as usize].map(|var| (var, *coeff))
                            }),
                            ConstraintOp::Ge,
                            0,
                        );
                        active.push(*id);
                    }
                    solution = inc.solve(budget)?;
                }
            }
        };
        ROUNDS_PER_PROBE.observe(rounds as u64);
        self.warm.insert(
            shape,
            WarmShape {
                active,
                basis: inc.basis(),
            },
        );
        Ok(verdict)
    }

    /// Decides whether a linear information inequality is a Shannon
    /// inequality, reusing cached separation state when the shape matches;
    /// see [`GammaProver::check_max_inequality`] for the budget contract.
    pub fn check_linear_inequality(
        &mut self,
        inequality: &LinearInequality,
        budget: &Budget,
    ) -> Result<GammaValidity, Exhausted> {
        self.check_max_inequality(&inequality.to_max(), budget)
    }
}

/// Decides `0 ≤ max_ℓ E_ℓ(h)` over `Γ_n` with the **eager** cone: every
/// elemental inequality is materialized into one LP up front, and pivots are
/// charged to `budget` inside that single full-cone solve.
///
/// This is the seed implementation.  It is the independent oracle for the
/// lazy separation loop (property tests assert verdict equality) and the
/// finishing solve of deep probes that escalate out of the loop; callers
/// probing many inequalities should hold a [`GammaProver`] instead.
pub fn check_max_inequality_eager(
    inequality: &MaxInequality,
    budget: &Budget,
) -> Result<GammaValidity, Exhausted> {
    let variables = &inequality.variables;
    let (mut lp, columns) = shannon_cone_lp(variables);
    for disjunct in &inequality.disjuncts {
        let coeffs = expr_coefficients(disjunct, variables, &columns);
        // E_ℓ(h) ≤ −1.
        lp.add_constraint(coeffs, ConstraintOp::Le, -Rational::one());
    }
    let (solution, _) = lp.solve_from(None, budget)?;
    Ok(match solution.status {
        LpStatus::Infeasible => GammaValidity::ValidShannon,
        LpStatus::Optimal | LpStatus::Unbounded => {
            let h = mask_values(&solution.values, &columns);
            GammaValidity::NotShannonProvable {
                counterexample: SetFunction::from_values(variables.clone(), h),
            }
        }
    })
}

/// Computes the exact minimum of `E(h)` over the polymatroids with the
/// normalization `h(V) ≤ bound`; useful for quantifying *how far* from valid
/// an inequality is (the minimum is 0 for Shannon inequalities and negative
/// otherwise, scaling linearly in `bound`).
pub fn minimize_over_gamma(
    expr: &EntropyExpr,
    variables: &[String],
    bound: Rational,
) -> Option<Rational> {
    let (mut lp, columns) = shannon_cone_lp(variables);
    let full: Mask = ((1u64 << variables.len()) - 1) as Mask;
    if let Some(top) = columns[full as usize] {
        lp.add_constraint(vec![(top, Rational::one())], ConstraintOp::Le, bound);
    }
    lp.set_objective(expr_coefficients(expr, variables, &columns));
    let solution = lp.solve();
    match solution.status {
        LpStatus::Optimal => solution.objective,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::int;
    use bqc_entropy::varset;

    /// A one-shot lazy check on a fresh prover, no budget.
    fn check(inequality: &LinearInequality) -> GammaValidity {
        check_max(&inequality.to_max())
    }

    fn check_max(inequality: &MaxInequality) -> GammaValidity {
        GammaProver::new()
            .check_max_inequality(inequality, &Budget::unlimited())
            .unwrap()
    }

    fn vars(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn expr(terms: &[(i64, &[&str])]) -> EntropyExpr {
        let mut e = EntropyExpr::zero();
        for (coeff, set) in terms {
            e.add_term(int(*coeff), set.iter().copied());
        }
        e
    }

    #[test]
    fn basic_shannon_inequalities_are_valid() {
        // Submodularity: h(X) + h(Y) - h(XY) >= 0.
        let ineq = LinearInequality::new(
            vars(&["X", "Y"]),
            expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]),
        );
        assert!(check(&ineq).is_valid());
        // Monotonicity: h(XY) - h(X) >= 0.
        let ineq =
            LinearInequality::new(vars(&["X", "Y"]), expr(&[(1, &["X", "Y"]), (-1, &["X"])]));
        assert!(check(&ineq).is_valid());
        // Conditional submodularity on three variables:
        // h(XZ) + h(YZ) - h(XYZ) - h(Z) >= 0.
        let ineq = LinearInequality::new(
            vars(&["X", "Y", "Z"]),
            expr(&[
                (1, &["X", "Z"]),
                (1, &["Y", "Z"]),
                (-1, &["X", "Y", "Z"]),
                (-1, &["Z"]),
            ]),
        );
        assert!(check(&ineq).is_valid());
    }

    #[test]
    fn invalid_inequalities_produce_polymatroid_counterexamples() {
        // h(X) - h(Y) >= 0 is not valid.
        let ineq = LinearInequality::new(vars(&["X", "Y"]), expr(&[(1, &["X"]), (-1, &["Y"])]));
        match check(&ineq) {
            GammaValidity::NotShannonProvable { counterexample } => {
                assert!(bqc_entropy::is_polymatroid(&counterexample));
                assert!(ineq.evaluate(&counterexample) <= -int(1));
            }
            GammaValidity::ValidShannon => panic!("expected a counterexample"),
        }
        // Supermodularity h(XY) - h(X) - h(Y) >= 0 is not valid either.
        let ineq = LinearInequality::new(
            vars(&["X", "Y"]),
            expr(&[(1, &["X", "Y"]), (-1, &["X"]), (-1, &["Y"])]),
        );
        assert!(!check(&ineq).is_valid());
    }

    #[test]
    fn example_19_from_section_5_is_valid() {
        // Eq. (19): 0 <= h(X1) + 2 h(X2) + h(X3) - h(X1X2) - h(X2X3).
        let ineq = LinearInequality::new(
            vars(&["X1", "X2", "X3"]),
            expr(&[
                (1, &["X1"]),
                (2, &["X2"]),
                (1, &["X3"]),
                (-1, &["X1", "X2"]),
                (-1, &["X2", "X3"]),
            ]),
        );
        assert!(check(&ineq).is_valid());
    }

    #[test]
    fn example_3_8_max_inequality_is_valid() {
        // h(X1X2X3) <= max(E1, E2, E3) with
        //   E1 = h(X1X2) + h(X2|X1), E2 = h(X2X3) + h(X3|X2), E3 = h(X1X3) + h(X1|X3).
        let universe = vars(&["X1", "X2", "X3"]);
        let make = |top: &[&str], y: &str, x: &str| {
            let mut e = EntropyExpr::zero();
            e.add_term(int(1), top.iter().copied());
            e.add_conditional(int(1), &varset([y]), &varset([x]));
            e.add_term(int(-1), ["X1", "X2", "X3"]);
            e
        };
        let disjuncts = vec![
            make(&["X1", "X2"], "X2", "X1"),
            make(&["X2", "X3"], "X3", "X2"),
            make(&["X1", "X3"], "X1", "X3"),
        ];
        let max = MaxInequality::new(universe, disjuncts);
        assert!(check_max(&max).is_valid());
    }

    #[test]
    fn max_inequality_with_no_valid_disjunct_fails() {
        // max( h(X) - h(XY), h(Y) - h(XY) ) >= 0 fails: make X, Y independent
        // non-degenerate, then both disjuncts are negative.
        let universe = vars(&["X", "Y"]);
        let d1 = expr(&[(1, &["X"]), (-1, &["X", "Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X", "Y"])]);
        let max = MaxInequality::new(universe, vec![d1, d2]);
        match check_max(&max) {
            GammaValidity::NotShannonProvable { counterexample } => {
                assert!(max.evaluate(&counterexample).is_negative());
            }
            GammaValidity::ValidShannon => panic!("expected a counterexample"),
        }
    }

    #[test]
    fn max_beats_individual_disjuncts() {
        // Neither h(X) - h(Y) >= 0 nor h(Y) - h(X) >= 0 is valid, but their max is.
        let universe = vars(&["X", "Y"]);
        let d1 = expr(&[(1, &["X"]), (-1, &["Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X"])]);
        assert!(!check(&LinearInequality::new(universe.clone(), d1.clone())).is_valid());
        assert!(!check(&LinearInequality::new(universe.clone(), d2.clone())).is_valid());
        assert!(check_max(&MaxInequality::new(universe, vec![d1, d2])).is_valid());
    }

    #[test]
    fn zhang_yeung_inequality_is_not_shannon_provable() {
        // The Zhang–Yeung non-Shannon inequality (1998):
        //   2 I(C;D) <= I(A;B) + I(A;CD) + 3 I(C;D|A) + I(C;D|B)
        // is valid for entropic functions but NOT for all polymatroids, so the
        // Γ_n-checker must report a counterexample.
        let ineq = zhang_yeung();
        match check(&ineq) {
            GammaValidity::NotShannonProvable { counterexample } => {
                assert!(bqc_entropy::is_polymatroid(&counterexample));
                assert!(ineq.evaluate(&counterexample).is_negative());
            }
            GammaValidity::ValidShannon => panic!("Zhang–Yeung must not be Shannon-provable"),
        }
    }

    /// The Zhang–Yeung non-Shannon inequality over {A, B, C, D}.
    pub(crate) fn zhang_yeung() -> LinearInequality {
        let universe = vars(&["A", "B", "C", "D"]);
        let mut e = EntropyExpr::zero();
        let mi = |e: &mut EntropyExpr, coeff: i64, a: &[&str], b: &[&str], cond: &[&str]| {
            // coeff * I(a;b|cond) = coeff*(h(a,cond) + h(b,cond) - h(a,b,cond) - h(cond))
            let join = |x: &[&str], y: &[&str]| -> Vec<String> {
                let mut v: Vec<String> = x.iter().map(|s| s.to_string()).collect();
                for s in y {
                    if !v.contains(&s.to_string()) {
                        v.push(s.to_string());
                    }
                }
                v
            };
            e.add_term(int(coeff), join(a, cond));
            e.add_term(int(coeff), join(b, cond));
            e.add_term(
                int(-coeff),
                join(
                    &join(a, b).iter().map(|s| s.as_str()).collect::<Vec<_>>(),
                    cond,
                ),
            );
            e.add_term(int(-coeff), cond.iter().copied());
        };
        mi(&mut e, 1, &["A"], &["B"], &[]);
        mi(&mut e, 1, &["A"], &["C", "D"], &[]);
        mi(&mut e, 3, &["C"], &["D"], &["A"]);
        mi(&mut e, 1, &["C"], &["D"], &["B"]);
        mi(&mut e, -2, &["C"], &["D"], &[]);
        LinearInequality::new(universe, e)
    }

    #[test]
    fn stateful_prover_agrees_with_stateless_across_a_probe_sequence() {
        // A mixed sequence of valid and invalid inequalities over the same
        // universe: the prover's warm-started answers must match the
        // one-shot checks exactly, whichever state happens to be cached.
        let universe = vars(&["X", "Y", "Z"]);
        let sequence = vec![
            // Invalid: seeds the warm cache with a violating end state.
            expr(&[(1, &["X"]), (-1, &["Y"])]),
            // Another invalid one with the same shape.
            expr(&[(1, &["Z"]), (-1, &["X", "Y", "Z"])]),
            // Valid (submodularity): the cached state is infeasible here and
            // the solver must still prove validity.
            expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]),
            // Invalid again after a valid probe.
            expr(&[(1, &["Y"]), (-1, &["Z"])]),
            // Valid (monotonicity).
            expr(&[(1, &["X", "Y", "Z"]), (-1, &["X", "Y"])]),
        ];
        let mut prover = GammaProver::new();
        for e in sequence {
            let ineq = LinearInequality::new(universe.clone(), e);
            let stateless = check(&ineq);
            let stateful = prover
                .check_linear_inequality(&ineq, &Budget::unlimited())
                .unwrap();
            assert_eq!(stateful.is_valid(), stateless.is_valid());
            if let GammaValidity::NotShannonProvable { counterexample } = &stateful {
                assert!(bqc_entropy::is_polymatroid(counterexample));
                assert!(ineq.evaluate(counterexample).is_negative());
            }
        }
        assert!(prover.cached_bases() >= 1);
    }

    #[test]
    fn lazy_and_eager_checkers_agree_on_the_unit_suite() {
        let universe = vars(&["X", "Y", "Z"]);
        let cases = vec![
            expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]),
            expr(&[(1, &["X"]), (-1, &["Y"])]),
            expr(&[(1, &["X", "Y", "Z"]), (-1, &["X", "Y"])]),
            expr(&[(1, &["X", "Y"]), (-1, &["X"]), (-1, &["Y"])]),
            expr(&[
                (2, &["Y"]),
                (1, &["X"]),
                (-1, &["X", "Y"]),
                (-1, &["Y", "Z"]),
            ]),
        ];
        for e in cases {
            let ineq = LinearInequality::new(universe.clone(), e);
            let lazy = check(&ineq);
            let eager = check_max_inequality_eager(&ineq.to_max(), &Budget::unlimited()).unwrap();
            assert_eq!(lazy.is_valid(), eager.is_valid(), "{ineq:?}");
            for result in [&lazy, &eager] {
                if let GammaValidity::NotShannonProvable { counterexample } = result {
                    assert!(bqc_entropy::is_polymatroid(counterexample));
                    assert!(ineq.evaluate(counterexample) <= -int(1));
                }
            }
        }
    }

    #[test]
    fn shared_skeleton_caches_are_reused_across_provers() {
        let skeletons = SkeletonCache::new();
        let mut a = GammaProver::with_skeletons(skeletons.clone());
        let mut b = GammaProver::with_skeletons(skeletons.clone());
        // Five variables: above the small-universe cutoff, so the lazy
        // separation path (and with it the skeleton cache) is exercised.
        let ineq = LinearInequality::new(
            vars(&["V", "W", "X", "Y", "Z"]),
            expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]),
        );
        assert!(a
            .check_linear_inequality(&ineq, &Budget::unlimited())
            .unwrap()
            .is_valid());
        assert!(b
            .check_linear_inequality(&ineq, &Budget::unlimited())
            .unwrap()
            .is_valid());
        // One universe size probed => exactly one skeleton, shared by both.
        assert_eq!(skeletons.len(), 1);
        assert_eq!(a.skeletons().len(), 1);
        // Small universes skip the skeleton machinery entirely.
        let small = LinearInequality::new(
            vars(&["X", "Y"]),
            expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]),
        );
        assert!(a
            .check_linear_inequality(&small, &Budget::unlimited())
            .unwrap()
            .is_valid());
        assert_eq!(skeletons.len(), 1);
    }

    #[test]
    fn budget_exhaustion_leaves_the_prover_untouched() {
        use bqc_obs::{BudgetResource, BudgetSpec};
        // Five variables forces the separation loop.  The inequality is
        // invalid, so the relaxation must pivot through phase 1 (its
        // disjunct row is violated at h = 0) — a zero-pivot cap always
        // aborts before a verdict.
        let ineq = LinearInequality::new(
            vars(&["V", "W", "X", "Y", "Z"]),
            expr(&[(1, &["X"]), (-1, &["Y"])]),
        );
        let mut prover = GammaProver::new();
        let spec = BudgetSpec {
            max_pivots: Some(0),
            ..BudgetSpec::UNLIMITED
        };
        let err = prover
            .check_linear_inequality(&ineq, &spec.start())
            .expect_err("zero pivots cannot refute a Γ_5 probe");
        assert_eq!(err.resource, BudgetResource::Pivots);
        // No warm state was absorbed from the aborted probe...
        assert_eq!(prover.cached_bases(), 0);
        // ...and the verdict afterwards matches a stateless check.
        assert_eq!(
            prover
                .check_linear_inequality(&ineq, &Budget::unlimited())
                .unwrap()
                .is_valid(),
            check(&ineq).is_valid()
        );

        // A tiny separation-round cap aborts mid-loop on an invalid probe
        // (validity certificates can land before any round is charged).
        let deep = LinearInequality::new(
            vars(&["V", "W", "X", "Y", "Z"]),
            expr(&[(1, &["X"]), (-1, &["Y"])]),
        );
        let mut fresh = GammaProver::new();
        let spec = BudgetSpec {
            max_separation_rounds: Some(1),
            max_pivots: Some(10_000),
            ..BudgetSpec::UNLIMITED
        };
        match fresh.check_linear_inequality(&deep, &spec.start()) {
            // Either the round cap or the pivot cap fires first; both are
            // acceptable as long as nothing partial was kept on error.
            Err(_) => assert_eq!(fresh.cached_bases(), 0),
            Ok(verdict) => {
                assert_eq!(verdict.is_valid(), check(&deep).is_valid())
            }
        }
    }

    #[test]
    fn minimize_over_gamma_quantifies_violation() {
        let universe = vars(&["X", "Y"]);
        // Valid inequality: minimum is 0.
        let valid = expr(&[(1, &["X"]), (1, &["Y"]), (-1, &["X", "Y"])]);
        assert_eq!(minimize_over_gamma(&valid, &universe, int(1)), Some(int(0)));
        // Invalid inequality: minimum is -1 with h(XY) <= 1.
        let invalid = expr(&[(1, &["X"]), (-1, &["Y"])]);
        assert_eq!(
            minimize_over_gamma(&invalid, &universe, int(1)),
            Some(int(-1))
        );
    }
}
