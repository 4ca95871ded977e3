//! A dense two-phase simplex, kept as a test-only correctness oracle.
//!
//! This was the original solver of `bqc-lp`: a dense tableau over exact
//! rationals with Bland's rule throughout.  The sparse revised simplex
//! (`bqc_lp::solve_standard_form`) replaced it everywhere; it lives on here
//! as the one independent implementation the revised simplex is checked
//! against — two solvers that agree on the exact objective and feasibility
//! status of randomized programs give much stronger evidence than either
//! alone.  It allocates a full `(m+1) × (n+m+1)` tableau of rationals and
//! pays `O(m·n)` exact-arithmetic work per pivot.

use bqc_arith::Rational;
use bqc_lp::SimplexOutcome;

/// A dense simplex tableau.  Row `m` (the last row) is the objective row; the
/// last column holds the right-hand side.
struct Tableau {
    /// `(m + 1) × (n + 1)` matrix.
    rows: Vec<Vec<Rational>>,
    /// Index of the basic variable of each of the `m` constraint rows.
    basis: Vec<usize>,
    m: usize,
    n: usize,
}

impl Tableau {
    fn rhs(&self, row: usize) -> &Rational {
        &self.rows[row][self.n]
    }

    fn objective_value(&self) -> Rational {
        -self.rows[self.m][self.n].clone()
    }

    /// Performs a single pivot on `(row, col)`.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let pivot_value = self.rows[pivot_row][pivot_col].clone();
        debug_assert!(!pivot_value.is_zero());
        let inv = pivot_value.recip();
        for value in self.rows[pivot_row].iter_mut() {
            *value = &*value * &inv;
        }
        for r in 0..=self.m {
            if r == pivot_row {
                continue;
            }
            let factor = self.rows[r][pivot_col].clone();
            if factor.is_zero() {
                continue;
            }
            for c in 0..=self.n {
                let delta = &factor * &self.rows[pivot_row][c];
                self.rows[r][c] = &self.rows[r][c] - &delta;
            }
        }
        self.basis[pivot_row] = pivot_col;
    }

    /// Runs the simplex iterations with Bland's rule until optimality or
    /// unboundedness.  `allowed_cols` restricts the entering candidates (used
    /// to keep artificial variables out of the basis during phase 2).
    fn optimize(&mut self, allowed_cols: usize) -> bool {
        loop {
            // Bland's rule: entering variable = smallest column index with a
            // negative reduced cost.
            let mut entering = None;
            for col in 0..allowed_cols {
                if self.rows[self.m][col].is_negative() {
                    entering = Some(col);
                    break;
                }
            }
            let Some(col) = entering else {
                return true; // optimal
            };

            // Ratio test; ties broken by the smallest basic-variable index.
            let mut leaving: Option<(usize, Rational)> = None;
            for row in 0..self.m {
                let coeff = &self.rows[row][col];
                if coeff.is_positive() {
                    let ratio = self.rhs(row) / coeff;
                    let better = match &leaving {
                        None => true,
                        Some((best_row, best_ratio)) => {
                            ratio < *best_ratio
                                || (ratio == *best_ratio && self.basis[row] < self.basis[*best_row])
                        }
                    };
                    if better {
                        leaving = Some((row, ratio));
                    }
                }
            }
            match leaving {
                Some((row, _)) => self.pivot(row, col),
                None => return false, // unbounded
            }
        }
    }
}

/// Solves the standard-form program `minimize c·x subject to A x = b, x ≥ 0`
/// with the dense tableau method (test/bench oracle — see the module docs).
///
/// * `a` is a dense `m × n` coefficient matrix (each inner vector a row).
/// * `b` is the right-hand side of length `m` (any sign; rows are re-signed
///   internally).
/// * `c` is the objective vector of length `n`.
///
/// # Panics
///
/// Panics if the dimensions of `a`, `b` and `c` are inconsistent.
pub fn solve_standard_form_dense(
    a: &[Vec<Rational>],
    b: &[Rational],
    c: &[Rational],
) -> SimplexOutcome {
    let m = a.len();
    assert_eq!(b.len(), m, "rhs length must equal the number of rows");
    let n = c.len();
    for (i, row) in a.iter().enumerate() {
        assert_eq!(row.len(), n, "row {i} has wrong length");
    }

    // Total columns: n structural + m artificial.
    let total = n + m;
    let mut rows: Vec<Vec<Rational>> = Vec::with_capacity(m + 1);
    for i in 0..m {
        let negate = b[i].is_negative();
        let mut row: Vec<Rational> = Vec::with_capacity(total + 1);
        for value in &a[i] {
            row.push(if negate { -value } else { value.clone() });
        }
        for j in 0..m {
            row.push(if i == j {
                Rational::one()
            } else {
                Rational::zero()
            });
        }
        row.push(if negate { -&b[i] } else { b[i].clone() });
        rows.push(row);
    }

    // Phase-1 objective: minimize the sum of artificial variables.  The
    // reduced-cost row starts as the cost vector and is then made consistent
    // with the initial (artificial) basis by subtracting each constraint row.
    let mut phase1_obj = vec![Rational::zero(); total + 1];
    for slot in &mut phase1_obj[n..total] {
        *slot = Rational::one();
    }
    for row in &rows {
        for (slot, delta) in phase1_obj.iter_mut().zip(row) {
            *slot = &*slot - delta;
        }
    }
    rows.push(phase1_obj);

    let mut tableau = Tableau {
        rows,
        basis: (n..total).collect(),
        m,
        n: total,
    };

    let phase1_bounded = tableau.optimize(total);
    debug_assert!(phase1_bounded, "phase 1 objective is bounded below by 0");
    if tableau.objective_value().is_positive() {
        return SimplexOutcome::Infeasible;
    }

    // Drive any artificial variable that is still basic (at value zero) out of
    // the basis, or drop its (redundant) row.
    let mut dropped_rows: Vec<usize> = Vec::new();
    for row in 0..m {
        if tableau.basis[row] >= n {
            let mut pivot_col = None;
            for col in 0..n {
                if !tableau.rows[row][col].is_zero() {
                    pivot_col = Some(col);
                    break;
                }
            }
            match pivot_col {
                Some(col) => tableau.pivot(row, col),
                None => dropped_rows.push(row),
            }
        }
    }

    // Phase 2: replace the objective row with the true objective, restricted
    // to the structural columns, and make it consistent with the current basis.
    let total_cols = tableau.n;
    let mut obj = vec![Rational::zero(); total_cols + 1];
    obj[..n].clone_from_slice(c);
    for row in 0..m {
        if dropped_rows.contains(&row) {
            continue;
        }
        let basic = tableau.basis[row];
        if basic < n && !obj[basic].is_zero() {
            let factor = obj[basic].clone();
            for (slot, cell) in obj.iter_mut().zip(&tableau.rows[row]) {
                let delta = &factor * cell;
                *slot = &*slot - &delta;
            }
        }
    }
    tableau.rows[m] = obj;

    // Redundant rows (with artificial basics that could not be pivoted out)
    // have all-zero structural coefficients; zero them fully so they can never
    // be selected by the ratio test for structural columns.
    for &row in &dropped_rows {
        for col in 0..n {
            debug_assert!(tableau.rows[row][col].is_zero());
        }
    }

    if !tableau.optimize(n) {
        return SimplexOutcome::Unbounded;
    }

    let mut solution = vec![Rational::zero(); n];
    for row in 0..m {
        let basic = tableau.basis[row];
        if basic < n {
            solution[basic] = tableau.rhs(row).clone();
        }
    }
    SimplexOutcome::Optimal {
        objective: tableau.objective_value(),
        solution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::{int, ratio};

    fn r(v: i64) -> Rational {
        int(v)
    }

    #[test]
    fn simple_equality_program() {
        // minimize x + y  s.t.  x + y = 2, x - y = 0, x, y >= 0 -> x = y = 1.
        let a = vec![vec![r(1), r(1)], vec![r(1), r(-1)]];
        let b = vec![r(2), r(0)];
        let c = vec![r(1), r(1)];
        match solve_standard_form_dense(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(2));
                assert_eq!(solution, vec![r(1), r(1)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn detects_infeasibility() {
        // x = 1 and x = 2 simultaneously.
        let a = vec![vec![r(1)], vec![r(1)]];
        let b = vec![r(1), r(2)];
        let c = vec![r(0)];
        assert_eq!(
            solve_standard_form_dense(&a, &b, &c),
            SimplexOutcome::Infeasible
        );
    }

    #[test]
    fn detects_unboundedness() {
        // minimize -x s.t. x - s = 0 (i.e. x >= 0 effectively unconstrained above).
        let a = vec![vec![r(1), r(-1)]];
        let b = vec![r(0)];
        let c = vec![r(-1), r(0)];
        assert_eq!(
            solve_standard_form_dense(&a, &b, &c),
            SimplexOutcome::Unbounded
        );
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // -x = -3  ->  x = 3.
        let a = vec![vec![r(-1)]];
        let b = vec![r(-3)];
        let c = vec![r(1)];
        match solve_standard_form_dense(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(3));
                assert_eq!(solution, vec![r(3)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn redundant_rows_are_tolerated() {
        // Two identical rows x + y = 1; minimize y.
        let a = vec![vec![r(1), r(1)], vec![r(1), r(1)]];
        let b = vec![r(1), r(1)];
        let c = vec![r(0), r(1)];
        match solve_standard_form_dense(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(0));
                assert_eq!(&solution[0] + &solution[1], r(1));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn fractional_optimum() {
        // minimize -x - y s.t. 2x + y + s1 = 3, x + 2y + s2 = 3 -> x = y = 1... but
        // with rational data: 2x + 3y = 5, 4x + y = 5 -> x = y = 1.
        let a = vec![vec![r(2), r(3)], vec![r(4), r(1)]];
        let b = vec![r(5), r(5)];
        let c = vec![r(-1), r(-1)];
        match solve_standard_form_dense(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(solution, vec![r(1), r(1)]);
                assert_eq!(objective, r(-2));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // A genuinely fractional one: x + 3y = 2, 3x + y = 2 -> x = y = 1/2.
        let a = vec![vec![r(1), r(3)], vec![r(3), r(1)]];
        let b = vec![r(2), r(2)];
        let c = vec![r(1), r(0)];
        match solve_standard_form_dense(&a, &b, &c) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(solution, vec![ratio(1, 2), ratio(1, 2)]);
                assert_eq!(objective, ratio(1, 2));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Beale's classic cycling example; Bland's rule must not cycle.
        let a = vec![
            vec![ratio(1, 4), r(-60), ratio(-1, 25), r(9), r(1), r(0), r(0)],
            vec![ratio(1, 2), r(-90), ratio(-1, 50), r(3), r(0), r(1), r(0)],
            vec![r(0), r(0), r(1), r(0), r(0), r(0), r(1)],
        ];
        let b = vec![r(0), r(0), r(1)];
        let c = vec![ratio(-3, 4), r(150), ratio(-1, 50), r(6), r(0), r(0), r(0)];
        match solve_standard_form_dense(&a, &b, &c) {
            SimplexOutcome::Optimal { objective, .. } => {
                assert_eq!(objective, ratio(-1, 20));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
}
