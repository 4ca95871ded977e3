//! Incremental-row solving: append constraints to an already-solved program
//! and re-enter the simplex from the previous basis.
//!
//! This is the LP substrate of the lazy Shannon-cone separation loop in
//! `bqc-iip`: instead of materializing all `n + C(n,2)·2^{n−2}` elemental
//! inequalities of `Γ_n` up front, the prover solves over a small active row
//! set, asks a separator for violated rows, and appends them here.  The key
//! property of [`IncrementalSolver::add_constraint`] is that it **extends the
//! current optimal basis** instead of discarding it:
//!
//! * a new inequality row that the current point already satisfies enters the
//!   basis on its own slack/surplus column (primal-feasible immediately — the
//!   next solve often needs zero pivots for it);
//! * a **violated** row enters on its artificial column, carrying exactly the
//!   violation amount, and the next solve runs a *bounded* phase-1 restart
//!   that only has to clear those few artificials — not a cold crash-basis
//!   phase 1 over every row of the program.
//!
//! Appending rows never grows the structural column set, and each appended
//! inequality brings its own slack column, so the extended basis stays
//! square and nonsingular by construction.  When anything about the stored
//! basis is unusable (a prior solve ended infeasible/unbounded, or left an
//! artificial pinned on a redundant row), the solver silently falls back to
//! a cold solve — incrementality is an optimization only and never changes
//! an answer.

use crate::problem::{ConstraintOp, LpBasis, LpProblem, LpSolution, LpStatus, Sense, VarId};
use crate::revised::{solve_sparse, solve_sparse_resume, SimplexOutcome, SparseSolve};
use crate::scalar::Scalar;
use crate::sparse::SparseMatrix;
use bqc_arith::Rational;
use bqc_obs::{Budget, Exhausted, LazyCounter};
use std::collections::BTreeMap;

static ROWS_APPENDED: LazyCounter = LazyCounter::new("bqc_lp_rows_appended_total");
static RESUME_FALLBACKS: LazyCounter = LazyCounter::new("bqc_lp_resume_fallbacks_total");

/// Which column is basic for a constraint row in the stored basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BasisSlot {
    /// A structural or slack column of the standard form.
    Col(usize),
    /// The (virtual) artificial column of the given row.
    Artificial(usize),
}

/// A standard-form program that supports appending constraint rows between
/// solves, re-entering the simplex from the extended previous basis.
///
/// Created with [`LpProblem::to_incremental`]; the optimization sense,
/// variables, objective and initial constraints are taken from the problem,
/// after which the solver owns its own growing standard form.
///
/// ```
/// use bqc_arith::int;
/// use bqc_lp::{ConstraintOp, LpProblem, LpStatus, Sense, VarBound};
/// use bqc_obs::Budget;
///
/// let mut lp = LpProblem::new(Sense::Minimize);
/// let x = lp.add_variable("x", VarBound::NonNegative);
/// lp.set_objective(vec![(x, int(1))]);
/// lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(10));
/// let mut inc = lp.to_incremental();
/// assert_eq!(inc.solve(&Budget::unlimited()).unwrap().value(x), &int(0));
/// // Appending x >= 3 re-enters from the previous basis (bounded phase 1).
/// inc.add_constraint_small(vec![(x, 1)], ConstraintOp::Ge, 3);
/// assert_eq!(inc.solve(&Budget::unlimited()).unwrap().value(x), &int(3));
/// // Appending x <= 1 now makes the system infeasible.
/// inc.add_constraint_small(vec![(x, 1)], ConstraintOp::Le, 1);
/// assert_eq!(inc.solve(&Budget::unlimited()).unwrap().status, LpStatus::Infeasible);
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalSolver {
    sense: Sense,
    a: SparseMatrix,
    b: Vec<Scalar>,
    c: Vec<Scalar>,
    column_of_var: Vec<(usize, Option<usize>)>,
    num_declared: usize,
    /// Basic column per row after the last solve, extended by
    /// `add_constraint`; empty when no usable basis is stored.
    basis: Vec<BasisSlot>,
    /// Primal values per standard-form column after the last solve (only
    /// meaningful while `basis` is non-empty).
    x_cols: Vec<Scalar>,
    /// Once a solve proves infeasibility, appending rows cannot restore
    /// feasibility, so later solves short-circuit.
    decided_infeasible: bool,
}

impl LpProblem {
    /// Builds an [`IncrementalSolver`] owning this problem's standard form.
    pub fn to_incremental(&self) -> IncrementalSolver {
        let sf = self.standard_form(true);
        IncrementalSolver {
            sense: self.sense(),
            a: sf.a,
            b: sf.b,
            c: sf.c,
            column_of_var: sf.column_of_var,
            num_declared: self.num_variables(),
            basis: Vec::new(),
            x_cols: Vec::new(),
            decided_infeasible: false,
        }
    }
}

impl IncrementalSolver {
    /// Number of constraint rows currently in the program.
    pub fn num_constraints(&self) -> usize {
        self.a.num_rows()
    }

    /// Number of decision variables declared by the source problem.
    pub fn num_variables(&self) -> usize {
        self.num_declared
    }

    /// Appends the constraint `Σ coeff·var op rhs` and, when a basis from a
    /// previous solve is available, extends it in place (see the module
    /// docs).  The next [`IncrementalSolver::solve`] re-enters from that
    /// extended basis.
    pub fn add_constraint(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, Scalar)>,
        op: ConstraintOp,
        rhs: Scalar,
    ) {
        // Accumulate per standard-form column (free variables scatter into
        // their (x⁺, x⁻) pair; repeated variables sum).
        let mut entries: BTreeMap<usize, Scalar> = BTreeMap::new();
        for (var, coeff) in coeffs {
            let (pos, neg) = self.column_of_var[var.0];
            let slot = entries.entry(pos).or_default();
            *slot = slot.add(&coeff);
            if let Some(neg) = neg {
                let slot = entries.entry(neg).or_default();
                *slot = slot.sub(&coeff);
            }
        }
        // Canonicalize `≤` to `≥` by negation; only `Ge` and `Eq` remain.
        let (mut entries, mut rhs, op) = match op {
            ConstraintOp::Le => (
                entries
                    .into_iter()
                    .map(|(col, v)| (col, v.neg()))
                    .collect::<Vec<_>>(),
                rhs.neg(),
                ConstraintOp::Ge,
            ),
            other => (entries.into_iter().collect(), rhs, other),
        };

        let extend_basis = !self.basis.is_empty();
        let value_at_current: Scalar = if extend_basis {
            let mut v = Scalar::ZERO;
            for (col, coeff) in &entries {
                if !self.x_cols[*col].is_zero() {
                    v = v.add_mul(coeff, &self.x_cols[*col]);
                }
            }
            v
        } else {
            Scalar::ZERO
        };

        // For an equality row the basic column must be the artificial, whose
        // coefficient is +1; orient the row so its value `rhs − v` is ≥ 0.
        if op == ConstraintOp::Eq && extend_basis && rhs.sub(&value_at_current).is_negative() {
            for (_, v) in entries.iter_mut() {
                *v = v.neg();
            }
            rhs = rhs.neg();
        }

        ROWS_APPENDED.inc();
        let row = self.a.append_row(entries);
        self.b.push(rhs.clone());
        if op == ConstraintOp::Ge {
            // Surplus column, belonging to this row only.
            let slack = self.a.push_col(vec![(row, Scalar::from_int(-1))]);
            self.c.push(Scalar::ZERO);
            if extend_basis {
                let surplus = value_at_current.sub(&rhs);
                if surplus.is_negative() {
                    // Violated: artificial basic at the violation amount.
                    self.basis.push(BasisSlot::Artificial(row));
                    self.x_cols.push(Scalar::ZERO);
                } else {
                    self.basis.push(BasisSlot::Col(slack));
                    self.x_cols.push(surplus);
                }
            }
        } else if extend_basis {
            self.basis.push(BasisSlot::Artificial(row));
        }
    }

    /// [`IncrementalSolver::add_constraint`] with small integer data.
    pub fn add_constraint_small(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, i64)>,
        op: ConstraintOp,
        rhs: i64,
    ) {
        self.add_constraint(
            coeffs
                .into_iter()
                .map(|(var, coeff)| (var, Scalar::from_int(coeff))),
            op,
            Scalar::from_int(rhs),
        );
    }

    /// Solves the current program under a decision [`Budget`], re-entering
    /// from the stored (extended) basis when one is available.  `Err` means
    /// the budget ran out mid-solve; the solver's stored basis and primal
    /// point are **left untouched** (nothing partial is absorbed), so a later
    /// solve picks up exactly where the last *completed* solve left off.
    pub fn solve(&mut self, budget: &Budget) -> Result<LpSolution, Exhausted> {
        self.solve_from(None, budget)
    }

    /// [`IncrementalSolver::solve`], optionally seeding the *first* solve
    /// with a basis cached from another same-shaped program (the cross-probe
    /// warm-start of [`LpProblem::solve_from`]).  The solver's own stored
    /// basis, when present, takes precedence; an unusable basis of either
    /// kind falls back to a cold solve and never affects the answer.
    pub fn solve_from(
        &mut self,
        warm: Option<&LpBasis>,
        budget: &Budget,
    ) -> Result<LpSolution, Exhausted> {
        if self.decided_infeasible {
            return Ok(self.solution_without_point(LpStatus::Infeasible));
        }
        let n = self.a.num_cols();
        let resume_cols: Option<Vec<usize>> = if !self.basis.is_empty() {
            Some(
                self.basis
                    .iter()
                    .map(|slot| match slot {
                        BasisSlot::Col(j) => *j,
                        BasisSlot::Artificial(row) => n + row,
                    })
                    .collect(),
            )
        } else {
            warm.and_then(|basis| {
                (basis.rows == self.a.num_rows() && basis.cols_total == n)
                    .then(|| basis.cols.clone())
            })
        };
        let resumed = match resume_cols {
            Some(cols) => solve_sparse_resume(&self.a, &self.b, &self.c, &cols, false, budget)?
                .or_else(|| {
                    RESUME_FALLBACKS.inc();
                    None
                }),
            None => None,
        };
        let result = match resumed {
            Some(result) => result,
            None => self.cold_solve(budget)?,
        };
        Ok(self.absorb(result))
    }

    /// The stored optimal basis in the cacheable [`LpBasis`] form, when the
    /// last solve ended optimal on a clean (artificial-free) basis and no
    /// violated row has been appended since.
    pub fn basis(&self) -> Option<LpBasis> {
        if self.basis.is_empty() {
            return None;
        }
        let cols: Option<Vec<usize>> = self
            .basis
            .iter()
            .map(|slot| match slot {
                BasisSlot::Col(j) => Some(*j),
                BasisSlot::Artificial(_) => None,
            })
            .collect();
        cols.map(|cols| LpBasis {
            cols,
            rows: self.a.num_rows(),
            cols_total: self.a.num_cols(),
        })
    }

    /// Cold solve.  The crash-basis path requires `b ≥ 0`; rows appended
    /// after a solve are oriented for basis feasibility instead, so re-sign
    /// a copy when needed.
    fn cold_solve(&self, budget: &Budget) -> Result<SparseSolve, Exhausted> {
        if self.b.iter().all(|v| !v.is_negative()) {
            return solve_sparse(&self.a, &self.b, &self.c, None, false, budget);
        }
        let negate: Vec<bool> = self.b.iter().map(Scalar::is_negative).collect();
        let mut a = SparseMatrix::new(self.a.num_rows());
        for j in 0..self.a.num_cols() {
            a.push_col(self.a.col(j).iter().map(|(row, value)| {
                (
                    *row,
                    if negate[*row] {
                        value.neg()
                    } else {
                        value.clone()
                    },
                )
            }));
        }
        let b: Vec<Scalar> = self
            .b
            .iter()
            .zip(&negate)
            .map(|(v, flip)| if *flip { v.neg() } else { v.clone() })
            .collect();
        // Row re-signing changes neither the solution set nor which column
        // sets form a basis, so the outcome carries over verbatim.
        solve_sparse(&a, &b, &self.c, None, false, budget)
    }

    /// Stores the solver state from `result` and maps it back to the
    /// declared-variable space.
    fn absorb(&mut self, result: SparseSolve) -> LpSolution {
        match result.outcome {
            SimplexOutcome::Infeasible => {
                self.decided_infeasible = true;
                self.basis.clear();
                self.x_cols.clear();
                self.solution_without_point(LpStatus::Infeasible)
            }
            SimplexOutcome::Unbounded => {
                self.basis.clear();
                self.x_cols.clear();
                self.solution_without_point(LpStatus::Unbounded)
            }
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                match result.basis {
                    Some(cols) => {
                        self.basis = cols.into_iter().map(BasisSlot::Col).collect();
                        self.x_cols = solution
                            .iter()
                            .map(|v| Scalar::from_rational(v.clone()))
                            .collect();
                    }
                    None => {
                        // An artificial stayed pinned on a redundant row: the
                        // point is optimal but the basis is not reusable.
                        self.basis.clear();
                        self.x_cols.clear();
                    }
                }
                let mut values = Vec::with_capacity(self.num_declared);
                for (pos, neg) in &self.column_of_var {
                    let mut v = solution[*pos].clone();
                    if let Some(neg) = neg {
                        v = &v - &solution[*neg];
                    }
                    values.push(v);
                }
                let objective = match self.sense {
                    Sense::Minimize => objective,
                    Sense::Maximize => -objective,
                };
                LpSolution {
                    status: LpStatus::Optimal,
                    objective: Some(objective),
                    values,
                    duals: None,
                }
            }
        }
    }

    fn solution_without_point(&self, status: LpStatus) -> LpSolution {
        LpSolution {
            status,
            objective: None,
            values: vec![Rational::zero(); self.num_declared],
            duals: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::VarBound;
    use bqc_arith::{int, ratio};

    /// An unbudgeted solve.
    fn solve(inc: &mut IncrementalSolver) -> LpSolution {
        inc.solve(&Budget::unlimited()).unwrap()
    }

    #[test]
    fn matches_from_scratch_solves_across_row_appends() {
        // maximize 3x + 5y under a growing constraint set; after every append
        // the incremental answer must equal a cold rebuild.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        let y = lp.add_variable("y", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(3)), (y, int(5))]);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(4));

        let mut inc = lp.to_incremental();
        assert_eq!(solve(&mut inc).status, LpStatus::Unbounded);

        type Addition = (Vec<(VarId, i64)>, ConstraintOp, i64);
        let additions: Vec<Addition> = vec![
            (vec![(y, 2)], ConstraintOp::Le, 12),
            (vec![(x, 3), (y, 2)], ConstraintOp::Le, 18),
            (vec![(x, 1), (y, 1)], ConstraintOp::Ge, 5),
            (vec![(x, 1)], ConstraintOp::Eq, 2),
        ];
        for (i, (coeffs, op, rhs)) in additions.iter().enumerate() {
            inc.add_constraint_small(coeffs.clone(), *op, *rhs);
            lp.add_constraint_small(coeffs.clone(), *op, *rhs);
            let warm = solve(&mut inc);
            let cold = lp.solve();
            assert_eq!(warm.status, cold.status, "after append {i}");
            assert_eq!(warm.objective, cold.objective, "after append {i}");
            assert_eq!(warm.values, cold.values, "after append {i}");
        }
        assert_eq!(solve(&mut inc).objective, Some(int(36)));
    }

    #[test]
    fn violated_appends_run_bounded_phase_one() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        let y = lp.add_variable("y", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(1)), (y, int(1))]);
        let mut inc = lp.to_incremental();
        assert_eq!(solve(&mut inc).objective, Some(int(0)));
        // The optimum (0, 0) violates each appended lower bound in turn.
        inc.add_constraint_small(vec![(x, 1), (y, 2)], ConstraintOp::Ge, 4);
        let sol = solve(&mut inc);
        assert_eq!(sol.objective, Some(int(2)));
        inc.add_constraint_small(vec![(x, 2), (y, 1)], ConstraintOp::Ge, 4);
        let sol = solve(&mut inc);
        assert_eq!(sol.objective, Some(ratio(8, 3)));
        assert_eq!(sol.values, vec![ratio(4, 3), ratio(4, 3)]);
    }

    #[test]
    fn infeasibility_is_sticky() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(1));
        let mut inc = lp.to_incremental();
        assert_eq!(solve(&mut inc).status, LpStatus::Optimal);
        inc.add_constraint_small(vec![(x, 1)], ConstraintOp::Ge, 2);
        assert_eq!(solve(&mut inc).status, LpStatus::Infeasible);
        inc.add_constraint_small(vec![(x, 1)], ConstraintOp::Ge, 0);
        assert_eq!(solve(&mut inc).status, LpStatus::Infeasible);
    }

    #[test]
    fn free_variables_and_negative_rhs() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::Free);
        lp.set_objective(vec![(x, int(1))]);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Ge, int(-5));
        let mut inc = lp.to_incremental();
        assert_eq!(solve(&mut inc).values, vec![int(-5)]);
        // Tighten from below with a negative-rhs row (violated: -5 < -2).
        inc.add_constraint_small(vec![(x, 1)], ConstraintOp::Ge, -2);
        assert_eq!(solve(&mut inc).values, vec![int(-2)]);
        // And an equality append.
        inc.add_constraint_small(vec![(x, 1)], ConstraintOp::Eq, -1);
        assert_eq!(solve(&mut inc).values, vec![int(-1)]);
    }

    #[test]
    fn appending_before_the_first_solve_is_a_cold_build() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(1))]);
        let mut inc = lp.to_incremental();
        inc.add_constraint_small(vec![(x, 1)], ConstraintOp::Le, 7);
        // A negative-rhs append with no basis exercises the re-signed cold path.
        inc.add_constraint_small(vec![(x, -1)], ConstraintOp::Le, -2);
        let sol = solve(&mut inc);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values, vec![int(7)]);
        assert_eq!(inc.num_constraints(), 2);
        assert_eq!(inc.num_variables(), 1);
    }

    #[test]
    fn budget_exhaustion_leaves_stored_state_reusable() {
        use bqc_obs::{BudgetResource, BudgetSpec};
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        let y = lp.add_variable("y", VarBound::NonNegative);
        lp.set_objective(vec![(x, int(1)), (y, int(1))]);
        let mut inc = lp.to_incremental();
        assert_eq!(solve(&mut inc).objective, Some(int(0)));
        // A violated append forces a bounded phase-1 that needs pivots.
        inc.add_constraint_small(vec![(x, 1), (y, 2)], ConstraintOp::Ge, 4);
        let spec = BudgetSpec {
            max_pivots: Some(0),
            ..BudgetSpec::UNLIMITED
        };
        let err = inc
            .solve(&spec.start())
            .expect_err("a zero-pivot budget cannot clear the violation");
        assert_eq!(err.resource, BudgetResource::Pivots);
        // Nothing partial was absorbed: the next unbudgeted solve answers
        // exactly what a from-scratch solve would.
        let sol = solve(&mut inc);
        assert_eq!(sol.objective, Some(int(2)));
    }

    #[test]
    fn external_warm_basis_seeds_the_first_solve() {
        let build = |rhs: i64| {
            let mut lp = LpProblem::new(Sense::Minimize);
            let x = lp.add_variable("x", VarBound::NonNegative);
            let y = lp.add_variable("y", VarBound::NonNegative);
            lp.set_objective(vec![(x, int(1)), (y, int(2))]);
            lp.add_constraint(vec![(x, int(1)), (y, int(1))], ConstraintOp::Ge, int(rhs));
            lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(rhs + 3));
            lp
        };
        let mut first = build(2).to_incremental();
        solve(&mut first);
        let basis = first.basis().expect("clean optimal basis");
        let mut second = build(5).to_incremental();
        let warm = second
            .solve_from(Some(&basis), &Budget::unlimited())
            .unwrap();
        let cold = build(5).solve();
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.values, cold.values);
    }
}
