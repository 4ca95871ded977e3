//! # bqc-lp — exact linear programming over the rationals
//!
//! A self-contained **sparse revised simplex** solver working entirely in
//! exact rational arithmetic.  It exists because the decision procedures of
//! *Bag Query Containment and Information Theory* (PODS 2020) reduce query
//! containment to the validity of (max-)information inequalities over the
//! polymatroid cone `Γ_n`, which is a linear-programming feasibility question
//! that must be answered **exactly** — a floating-point solver would need an
//! arbitrary tolerance to distinguish "valid" from "invalid by an
//! exponentially small margin".
//!
//! The production solver (the `revised` module, driven through [`LpProblem`])
//! stores the constraint matrix column-major and sparse, maintains the basis
//! inverse as an eta file with periodic refactorization, prices with
//! Dantzig's rule over a rotating candidate window, and falls back to
//! Bland's anti-cycling rule after degenerate stalls, so it terminates on
//! every input.  Pivot arithmetic runs in an `i64`-pair small-rational
//! representation ([`crate::scalar`]) and promotes to arbitrary precision
//! only on overflow.  Sequences of same-shaped programs can reuse the
//! previous optimal basis through [`LpProblem::solve_from`].  Every
//! budget-aware entry point takes a `bqc_obs::Budget` (pass
//! `Budget::unlimited()` for an unbounded solve).  The original dense tableau
//! solver lives on only under `tests/`, as the independent oracle the
//! revised simplex is checked against.
//!
//! ## Example
//!
//! ```
//! use bqc_arith::{int, ratio};
//! use bqc_lp::{ConstraintOp, LpProblem, LpStatus, Sense, VarBound};
//!
//! // maximize x + y  subject to  x + 2y <= 4,  3x + y <= 6,  x, y >= 0
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_variable("x", VarBound::NonNegative);
//! let y = lp.add_variable("y", VarBound::NonNegative);
//! lp.set_objective(vec![(x, int(1)), (y, int(1))]);
//! lp.add_constraint(vec![(x, int(1)), (y, int(2))], ConstraintOp::Le, int(4));
//! lp.add_constraint(vec![(x, int(3)), (y, int(1))], ConstraintOp::Le, int(6));
//! let sol = lp.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert_eq!(sol.objective, Some(ratio(14, 5)));
//! assert_eq!(sol[x], ratio(8, 5));
//! assert_eq!(sol[y], ratio(6, 5));
//! ```

mod incremental;
mod problem;
mod revised;
pub mod scalar;
pub mod sparse;

pub use incremental::IncrementalSolver;
pub use problem::{
    ConstraintId, ConstraintOp, LpBasis, LpProblem, LpSolution, LpStatus, Sense, VarBound, VarId,
};
pub use revised::{solve_standard_form, SimplexOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::int;

    #[test]
    fn trivial_feasibility() {
        // x >= 1 and x <= 0 is infeasible.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x", VarBound::NonNegative);
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Ge, int(1));
        lp.add_constraint(vec![(x, int(1))], ConstraintOp::Le, int(0));
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }
}
