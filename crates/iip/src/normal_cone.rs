//! Max-inequality validity over the normal cone `N_n`.
//!
//! This is how the containment pipeline decides the Eq. (8) inequality inside
//! the decidable class of Theorem 3.1.  Inside that class of Theorem 3.1 (`Q2` chordal with a simple
//! junction tree) every composed disjunct subtracts only singleton or empty
//! terms, and Lemma 3.7(2) maps any polymatroid `h` to a normal `h' ≤ h` with
//! `h'(V) = h(V)` and `h' = h` on singletons.  Such an `h'` violates every
//! disjunct `h` violates, so Eq. (8) is Shannon-valid **iff** it holds on the
//! normal cone, which the `2^n − 1` step functions `s_W` (`W ⊊ V`) span.
//!
//! That turns the Γ_n separation loop into one small LP with one column per
//! step function and one row per disjunct (`k` disjuncts in all):
//!
//! ```text
//!     minimize   Σ_W (k·|V∖W| + Σ_i D_i(s_W)) · c_W
//!     subject to Σ_W c_W · D_i(s_W) ≤ −1     for every disjunct i
//!                c ≥ 0
//! ```
//!
//! * **Infeasible** means *valid*.  By Farkas' lemma there is then a `λ ≥ 0`
//!   with `Σ_i λ_i D_i(s_W) ≥ 0` for every `W`, so `Σ_i λ_i D_i(h) ≥ 0` on
//!   every normal `h` and some disjunct is non-negative on it.
//! * **Feasible** means *violated*: `h = Σ_W c_W s_W` is a normal polymatroid
//!   on which every disjunct is `≤ −1`.  The objective is non-negative, so a
//!   feasible program always has an optimum.
//!
//! **The objective picks the counterexample**, and with it the witness that
//! materialization builds.  Each Eq. (8) disjunct is `D_i = E_i − h(V)` with
//! `E_i ∘ φ` a non-negative sum of conditional entropies, so the objective is
//! `k·(Σ_x h({x}) − h(V)) + Σ_i E_i(h)`: `k` times the total correlation of
//! `h` plus the disjuncts' right-hand sides, both non-negative on
//! polymatroids.  The first term keeps the column domains of the normal
//! witness small; the second rewards counterexamples that violate *every*
//! disjunct by more than the unit margin, which is what bounds the `Q2`
//! homomorphisms that factor through each `φ` once the witness is amplified.
//! Over the 262,144 `random_pair` indices in canonical form, no pair that
//! had a witness from the normalized Γ_n vertex loses it, 297 gain one, and
//! the pairs whose witness is missing or over 256 rows fall from 368 to 69.
//! Minimizing `Σ_x h({x})` alone lost two witnesses.
//!
//! Each `D_i(s_W)` is the sum of the coefficients of the terms `h(S)` with
//! `S ⊄ W`, evaluated on term masks in the solver's small-rational
//! [`Scalar`] arithmetic.

use crate::inequality::MaxInequality;
use bqc_entropy::{mask_len, Mask, NormalFunction};
use bqc_lp::scalar::Scalar;
use bqc_lp::{ConstraintOp, LpProblem, LpStatus, Sense, VarBound};
use bqc_obs::{Budget, Exhausted};

/// The verdict of [`check_over_normal_cone`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NormalConeValidity {
    /// Some disjunct is non-negative on every normal function.
    Valid,
    /// A normal function on which every disjunct is at most `−1`.
    Violated {
        /// The optimal step-function combination of the LP above.
        counterexample: NormalFunction,
    },
}

impl NormalConeValidity {
    /// `true` iff the inequality holds on the whole normal cone.
    pub fn is_valid(&self) -> bool {
        matches!(self, NormalConeValidity::Valid)
    }
}

/// Decides `0 ≤ max_i D_i(h)` over the normal cone with the LP of the module
/// docs.  Each simplex pivot charges `budget`; `Err` means it ran out before
/// the LP was solved.
///
/// Over `N_n` this is exact for any inequality; it equals validity over Γ_n
/// when Lemma 3.7(2) applies, i.e. for Eq. (8) inside the decidable class.
pub fn check_over_normal_cone(
    inequality: &MaxInequality,
    budget: &Budget,
) -> Result<NormalConeValidity, Exhausted> {
    let vars = &inequality.variables;
    let n = vars.len();
    let k = inequality.num_disjuncts() as i64;
    let full: Mask = (1 << n) - 1;
    let mut lp = LpProblem::new(Sense::Minimize);
    // Column `w` is the coefficient of the step function at `W = w ⊊ V`.
    let columns: Vec<_> = (0..full)
        .map(|_| lp.add_variable_anonymous(VarBound::NonNegative))
        .collect();
    // Σ_i D_i(s_W) per column, for the objective.
    let mut column_sums = vec![Scalar::ZERO; full as usize];
    for disjunct in &inequality.disjuncts {
        let terms: Vec<(Mask, Scalar)> = disjunct
            .terms()
            .map(|(set, coeff)| {
                let mask = set.iter().fold(0, |mask, name| {
                    let index = vars.iter().position(|v| v == name);
                    mask | 1 << index.expect("disjunct variables are in the universe")
                });
                (mask, Scalar::from_rational(coeff.clone()))
            })
            .collect();
        let mut row = Vec::new();
        for w in 0..full {
            // D_i(s_W): the terms h(S) with S ⊄ W are 1 on s_W, the rest 0.
            let value = terms
                .iter()
                .filter(|(s, _)| s & !w != 0)
                .fold(Scalar::ZERO, |acc, (_, c)| acc.add(c));
            if !value.is_zero() {
                column_sums[w as usize] = column_sums[w as usize].add(&value);
                row.push((columns[w as usize], value));
            }
        }
        lp.add_constraint_scaled(row, ConstraintOp::Le, Scalar::from_int(-1));
    }
    lp.set_objective((0..full).map(|w| {
        let cost = Scalar::from_int(k * (n - mask_len(w)) as i64).add(&column_sums[w as usize]);
        // Never negative for Eq. (8) (see the module docs); the clamp keeps
        // the program bounded for any other inequality.
        let cost = if cost.is_negative() {
            Scalar::ZERO
        } else {
            cost
        };
        (columns[w as usize], cost.to_rational())
    }));
    let (solution, _) = lp.solve_from(None, budget)?;
    Ok(match solution.status {
        LpStatus::Infeasible => NormalConeValidity::Valid,
        LpStatus::Unbounded => unreachable!("the clamped costs are non-negative"),
        LpStatus::Optimal => {
            let mut counterexample = NormalFunction::zero(vars.clone());
            for w in 0..full {
                counterexample.add_step(w, solution.values[columns[w as usize].0].clone());
            }
            NormalConeValidity::Violated { counterexample }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::Rational;
    use bqc_entropy::EntropyExpr;
    use bqc_obs::BudgetSpec;

    /// `0 ≤ max_i Σ c·h(S)` from integer `(coefficient, set)` terms.
    fn max_inequality(vars: &[&str], disjuncts: &[&[(i64, &[&str])]]) -> MaxInequality {
        let disjuncts = disjuncts
            .iter()
            .map(|terms| {
                let mut expr = EntropyExpr::zero();
                for (coeff, set) in terms.iter() {
                    expr.add_term(Rational::from(*coeff), set.iter().copied());
                }
                expr
            })
            .collect();
        MaxInequality::new(vars.iter().map(|v| v.to_string()).collect(), disjuncts)
    }

    /// Example 4.3's Eq. (8): triangle ⊑ 2-star, one disjunct per rotation
    /// `2·h(x_i x_{i+1}) − h(x_i) − h(V)`.
    fn example_4_3() -> MaxInequality {
        let v: &[&str] = &["x1", "x2", "x3"];
        max_inequality(
            v,
            &[
                &[(2, &["x1", "x2"]), (-1, &["x1"]), (-1, v)],
                &[(2, &["x2", "x3"]), (-1, &["x2"]), (-1, v)],
                &[(2, &["x3", "x1"]), (-1, &["x3"]), (-1, v)],
            ],
        )
    }

    #[test]
    fn example_4_3_is_valid_over_the_normal_cone() {
        let verdict = check_over_normal_cone(&example_4_3(), &Budget::unlimited()).unwrap();
        assert!(verdict.is_valid());
    }

    #[test]
    fn counterexamples_violate_every_disjunct() {
        // 0 ≤ max(h(x) − h(xy), h(y) − h(xy)) fails on every modular h.
        let invalid = max_inequality(
            &["x", "y"],
            &[
                &[(1, &["x"]), (-1, &["x", "y"])],
                &[(1, &["y"]), (-1, &["x", "y"])],
            ],
        );
        let NormalConeValidity::Violated { counterexample } =
            check_over_normal_cone(&invalid, &Budget::unlimited()).unwrap()
        else {
            panic!("the inequality fails on h(x) = h(y) = 1, h(xy) = 2");
        };
        let h = counterexample.to_set_function();
        for disjunct in &invalid.disjuncts {
            assert!(disjunct.evaluate(&h) <= -Rational::one());
        }
    }

    #[test]
    fn rational_coefficients_are_exact() {
        // 0 ≤ max(½·h(x) − h(xy), h(y) − h(xy)) fails on s_{y} + ½·s_{x}:
        // both disjuncts are −1 there.
        let vars = vec!["x".to_string(), "y".to_string()];
        let mut first = EntropyExpr::term(Rational::from_pair(1, 2), ["x"]);
        first.add_term(-Rational::one(), ["x", "y"]);
        let mut second = EntropyExpr::term(Rational::one(), ["y"]);
        second.add_term(-Rational::one(), ["x", "y"]);
        let max = MaxInequality::new(vars, vec![first, second]);
        let verdict = check_over_normal_cone(&max, &Budget::unlimited()).unwrap();
        let NormalConeValidity::Violated { counterexample } = verdict else {
            panic!("s_{{y}} + ½·s_{{x}} violates both disjuncts");
        };
        let h = counterexample.to_set_function();
        assert!(max
            .disjuncts
            .iter()
            .all(|d| d.evaluate(&h) <= -Rational::one()));
    }

    #[test]
    fn one_pivot_budget_aborts_the_solve() {
        // Eq. (8) for the 3-edge path a→b→c→d ⊑ two disjoint edges: one
        // disjunct h(e1) + h(e2) − h(V) per pair of path edges.  Valid, but
        // proving it takes more than one pivot.
        let v: &[&str] = &["a", "b", "c", "d"];
        let edges: [&[&str]; 3] = [&["a", "b"], &["b", "c"], &["c", "d"]];
        let disjuncts: Vec<Vec<(i64, &[&str])>> = edges
            .iter()
            .flat_map(|e1| {
                edges
                    .iter()
                    .map(move |e2| vec![(1, *e1), (1, *e2), (-1, v)])
            })
            .collect();
        let slices: Vec<&[(i64, &[&str])]> = disjuncts.iter().map(Vec::as_slice).collect();
        let valid = max_inequality(v, &slices);
        let starved = BudgetSpec {
            max_pivots: Some(1),
            ..BudgetSpec::UNLIMITED
        }
        .start();
        assert!(check_over_normal_cone(&valid, &starved).is_err());
        let verdict = check_over_normal_cone(&valid, &Budget::unlimited()).unwrap();
        assert!(verdict.is_valid());
    }
}
