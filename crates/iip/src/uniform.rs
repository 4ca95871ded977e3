//! Uniform max-information inequalities and the reduction of Lemma 5.3.
//!
//! Section 5.1: an expression is *(n, p, q)-uniform* when it has the shape
//!
//! ```text
//!     E(h) = n·h(U) + Σ_{j=0..p} h(Y_j | X_j) − q·h(V)
//! ```
//!
//! over the full variable set `V` (which includes the distinguished variable
//! `U`), subject to the **chain condition** (`X_0 = ∅` and
//! `X_j ⊆ Y_{j−1} ∩ Y_j`) and the **connectedness condition** (`U ∈ X_j` for
//! `j ≥ 1`).  A Uniform-Max-IIP is a max-inequality all of whose disjuncts are
//! `(n, p, q)`-uniform with the *same* `n`, `p`, `q` and `U`.
//!
//! [`uniformize`] implements Lemma 5.3: every Max-IIP with integer
//! coefficients is transformed, in polynomial time, into an equivalent
//! Uniform-Max-IIP over one extra variable.  The uniform shape is exactly what
//! the query construction of Section 5.3 (in `bqc-core`) consumes.

use crate::inequality::MaxInequality;
use bqc_arith::{BigInt, Rational};
use bqc_entropy::{EntropyExpr, VarSet};
use std::collections::BTreeSet;
use std::fmt;

/// One `(n, p, q)`-uniform expression: `n·h(U) + Σ_j h(Y_j|X_j) − q·h(V)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UniformExpression {
    /// The multiplier of `h(U)`.
    pub head_count: usize,
    /// The chain `(Y_0, X_0), …, (Y_p, X_p)`.
    pub chain: Vec<(VarSet, VarSet)>,
}

impl UniformExpression {
    /// Flattens into a plain [`EntropyExpr`] over the given universe
    /// (`universe` = all variables including the distinguished one), with the
    /// trailing `− q·h(V)` term included.
    pub fn to_expr(&self, distinguished: &str, universe: &[String], q: usize) -> EntropyExpr {
        let mut expr = EntropyExpr::zero();
        expr.add_term(Rational::from(self.head_count as i64), [distinguished]);
        for (y, x) in &self.chain {
            expr.add_conditional(Rational::one(), y, x);
        }
        expr.add_term(Rational::from(-(q as i64)), universe.iter().cloned());
        expr
    }
}

/// A Uniform-Max-IIP: `0 ≤ max_ℓ E_ℓ(h)` with every `E_ℓ` uniform for the
/// same parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UniformMaxIip {
    /// The original variables `V` (not including the distinguished variable).
    pub variables: Vec<String>,
    /// The distinguished variable `U`.
    pub distinguished: String,
    /// The multiplier `q` of the negative `h(V)` term.
    pub q: usize,
    /// The uniform expressions (all with the same `n` and `p`).
    pub expressions: Vec<UniformExpression>,
}

/// Errors reported by [`UniformMaxIip::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UniformityError {
    /// Two expressions have different `n` (head count).
    MismatchedHeadCount,
    /// Two expressions have different `p` (chain length).
    MismatchedChainLength,
    /// `X_0` is not empty.
    FirstConditionNotEmpty,
    /// The chain condition `X_j ⊆ Y_{j−1} ∩ Y_j` fails at position `j`.
    ChainConditionViolated(usize),
    /// The connectedness condition `U ∈ X_j` fails at position `j ≥ 1`.
    ConnectednessViolated(usize),
}

impl fmt::Display for UniformityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniformityError::MismatchedHeadCount => write!(f, "expressions disagree on n"),
            UniformityError::MismatchedChainLength => write!(f, "expressions disagree on p"),
            UniformityError::FirstConditionNotEmpty => write!(f, "X_0 must be empty"),
            UniformityError::ChainConditionViolated(j) => {
                write!(f, "chain condition violated at position {j}")
            }
            UniformityError::ConnectednessViolated(j) => {
                write!(f, "connectedness condition violated at position {j}")
            }
        }
    }
}

impl std::error::Error for UniformityError {}

impl UniformMaxIip {
    /// The full variable universe `U ∪ V` (distinguished variable first).
    pub fn universe(&self) -> Vec<String> {
        let mut all = vec![self.distinguished.clone()];
        all.extend(self.variables.iter().cloned());
        all
    }

    /// Checks the uniformity conditions of Section 5.1.
    pub fn validate(&self) -> Result<(), UniformityError> {
        let mut head_count = None;
        let mut chain_length = None;
        for e in &self.expressions {
            match head_count {
                None => head_count = Some(e.head_count),
                Some(n) if n != e.head_count => return Err(UniformityError::MismatchedHeadCount),
                _ => {}
            }
            match chain_length {
                None => chain_length = Some(e.chain.len()),
                Some(p) if p != e.chain.len() => {
                    return Err(UniformityError::MismatchedChainLength)
                }
                _ => {}
            }
            if let Some((_, x0)) = e.chain.first() {
                if !x0.is_empty() {
                    return Err(UniformityError::FirstConditionNotEmpty);
                }
            }
            for j in 1..e.chain.len() {
                let (y_prev, _) = &e.chain[j - 1];
                let (y_j, x_j) = &e.chain[j];
                if !x_j.is_subset(y_prev) || !x_j.is_subset(y_j) {
                    return Err(UniformityError::ChainConditionViolated(j));
                }
                if !x_j.contains(&self.distinguished) {
                    return Err(UniformityError::ConnectednessViolated(j));
                }
            }
        }
        Ok(())
    }

    /// Converts into a plain [`MaxInequality`] over the full universe, for
    /// validity checking.
    pub fn to_max_inequality(&self) -> MaxInequality {
        let universe = self.universe();
        let disjuncts = self
            .expressions
            .iter()
            .map(|e| e.to_expr(&self.distinguished, &universe, self.q))
            .collect();
        MaxInequality::new(universe, disjuncts)
    }
}

/// Lemma 5.3: transforms an arbitrary Max-IIP into an equivalent
/// Uniform-Max-IIP.  Rational coefficients are first scaled (per the whole
/// inequality) to integers, which does not affect validity.
///
/// The distinguished variable receives the name `distinguished`, which must
/// not clash with an existing variable.
///
/// # Panics
///
/// Panics if `distinguished` already occurs in the inequality's universe.
pub fn uniformize(inequality: &MaxInequality, distinguished: &str) -> UniformMaxIip {
    assert!(
        !inequality.variables.iter().any(|v| v == distinguished),
        "distinguished variable name {distinguished} already in use"
    );
    let variables = inequality.variables.clone();
    let full_v: VarSet = variables.iter().cloned().collect();
    let u_set: VarSet = [distinguished.to_string()].into_iter().collect();

    // Scale every disjunct to integer coefficients (common denominator of the
    // whole inequality, so the transformation is uniform).
    let mut lcm = BigInt::one();
    for d in &inequality.disjuncts {
        for (_, coeff) in d.terms() {
            lcm = lcm.lcm(coeff.denom());
        }
    }
    let scale = Rational::from(lcm);

    // Step 1 (Eq. 23/24): per disjunct, expand into unit terms.
    struct Intermediate {
        positive_sets: Vec<VarSet>, // the Y_i of the unconditioned sum
        negative_sets: Vec<VarSet>, // the X_j of the conditional sum (h(V|X_j))
    }
    let mut intermediates = Vec::new();
    for d in &inequality.disjuncts {
        let scaled = d.scale(&scale);
        let mut positive_sets = Vec::new();
        let mut negative_sets = Vec::new();
        for (set, coeff) in scaled.terms() {
            let count = coeff
                .abs()
                .numer()
                .to_u64()
                .expect("scaled coefficients are integers of reasonable size");
            for _ in 0..count {
                if coeff.is_positive() {
                    positive_sets.push(set.clone());
                } else {
                    negative_sets.push(set.clone());
                }
            }
        }
        intermediates.push(Intermediate {
            positive_sets,
            negative_sets,
        });
    }

    // n = max_ℓ n_ℓ (number of negative unit terms).
    let n = intermediates
        .iter()
        .map(|i| i.negative_sets.len())
        .max()
        .unwrap_or(0);

    // Step 2: build, per disjunct, the chain over the extended universe UV.
    //   E'_ℓ = n·h(U) + h(U|∅)
    //        + Σ_j h(UV | U X_j)          for X_0 = ∅ and each negative set
    //        + Σ_i h(U Y_i | U)           for each positive set
    //        + (n − n_ℓ) · h(UV | U)      padding so every disjunct has the same p
    //        − (n + 1) · h(UV)
    // The chain condition holds because every Y on the left contains U and all
    // conditions after position 0 contain U; connectedness is immediate.
    let mut universe_set: VarSet = full_v.clone();
    universe_set.insert(distinguished.to_string());

    let mut expressions = Vec::new();
    let mut max_p = 0usize;
    let mut chains: Vec<Vec<(VarSet, VarSet)>> = Vec::new();
    for inter in &intermediates {
        let mut chain: Vec<(VarSet, VarSet)> = Vec::new();
        // Position 0: h(U | ∅).
        chain.push((u_set.clone(), BTreeSet::new()));
        // The conditional block: h(UV | U X_j), starting with X_0 = ∅ (i.e. h(UV|U)).
        chain.push((universe_set.clone(), u_set.clone()));
        for x in &inter.negative_sets {
            let mut condition = x.clone();
            condition.insert(distinguished.to_string());
            chain.push((universe_set.clone(), condition));
        }
        // Padding so every disjunct subtracts the same number of h(UV) terms.
        for _ in inter.negative_sets.len()..n {
            chain.push((universe_set.clone(), u_set.clone()));
        }
        // The unconditioned block, lifted by U: h(U Y_i | U).
        for y in &inter.positive_sets {
            let mut lifted = y.clone();
            lifted.insert(distinguished.to_string());
            chain.push((lifted, u_set.clone()));
        }
        max_p = max_p.max(chain.len());
        chains.push(chain);
    }
    // Final padding with h(U|U) (a zero term) so all chains have equal length.
    for chain in &mut chains {
        while chain.len() < max_p {
            chain.push((u_set.clone(), u_set.clone()));
        }
        expressions.push(UniformExpression {
            head_count: n,
            chain: chain.clone(),
        });
    }

    UniformMaxIip {
        variables,
        distinguished: distinguished.to_string(),
        q: n + 1,
        expressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inequality::LinearInequality;
    use crate::prover::GammaProver;
    use bqc_arith::{int, ratio};
    use bqc_obs::Budget;

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

    /// The uniformization must preserve validity over the polymatroid cone
    /// (the proof of Lemma 5.3 goes through verbatim for polymatroids).
    fn assert_equivalent(original: &MaxInequality) {
        let uniform = uniformize(original, "U");
        uniform
            .validate()
            .expect("uniformization must produce a uniform inequality");
        let transformed = uniform.to_max_inequality();
        let a = GammaProver::new()
            .check_max_inequality(original, &Budget::unlimited())
            .unwrap()
            .is_valid();
        let b = GammaProver::new()
            .check_max_inequality(&transformed, &Budget::unlimited())
            .unwrap()
            .is_valid();
        assert_eq!(a, b, "uniformization changed validity for {original}");
    }

    #[test]
    fn example_19_uniformizes_and_stays_valid() {
        // Eq. (19): 0 <= h(X1) + 2h(X2) + h(X3) - h(X1X2) - h(X2X3).
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
        assert_equivalent(&ineq.to_max());
        let uniform = uniformize(&ineq.to_max(), "U");
        // n = 2 negative unit terms, q = 3 (matching Eq. (20)'s 3·h(X1X2X3)).
        assert_eq!(uniform.q, 3);
        assert_eq!(uniform.expressions.len(), 1);
        assert_eq!(uniform.expressions[0].head_count, 2);
    }

    #[test]
    fn invalid_inequalities_stay_invalid() {
        let ineq = LinearInequality::new(vars(&["X", "Y"]), expr(&[(1, &["X"]), (-1, &["Y"])]));
        assert_equivalent(&ineq.to_max());
        // Supermodularity.
        let ineq = LinearInequality::new(
            vars(&["X", "Y"]),
            expr(&[(1, &["X", "Y"]), (-1, &["X"]), (-1, &["Y"])]),
        );
        assert_equivalent(&ineq.to_max());
    }

    #[test]
    fn max_inequalities_uniformize() {
        // Valid: max(h(X)-h(Y), h(Y)-h(X)).
        let d1 = expr(&[(1, &["X"]), (-1, &["Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X"])]);
        let max = MaxInequality::new(vars(&["X", "Y"]), vec![d1, d2]);
        assert_equivalent(&max);
        let uniform = uniformize(&max, "U");
        assert_eq!(uniform.expressions.len(), 2);
        // Both disjuncts share n and p after padding.
        assert_eq!(
            uniform.expressions[0].head_count,
            uniform.expressions[1].head_count
        );
        assert_eq!(
            uniform.expressions[0].chain.len(),
            uniform.expressions[1].chain.len()
        );

        // Invalid: max(h(X)-h(XY), h(Y)-h(XY)).
        let d1 = expr(&[(1, &["X"]), (-1, &["X", "Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X", "Y"])]);
        let max = MaxInequality::new(vars(&["X", "Y"]), vec![d1, d2]);
        assert_equivalent(&max);
    }

    #[test]
    fn rational_coefficients_are_scaled() {
        let mut e = EntropyExpr::zero();
        e.add_term(ratio(1, 2), ["X"]);
        e.add_term(ratio(-1, 3), ["Y"]);
        let max = MaxInequality::new(vars(&["X", "Y"]), vec![e]);
        let uniform = uniformize(&max, "U");
        uniform.validate().unwrap();
        // 1/2 h(X) - 1/3 h(Y) scaled by 6 = 3 h(X) - 2 h(Y): 2 negative units.
        assert_eq!(uniform.expressions[0].head_count, 2);
        assert_equivalent(&max);
    }

    #[test]
    fn validation_catches_broken_chains() {
        let bad = UniformMaxIip {
            variables: vars(&["X"]),
            distinguished: "U".to_string(),
            q: 1,
            expressions: vec![UniformExpression {
                head_count: 0,
                chain: vec![
                    (
                        bqc_entropy::varset(["U", "X"]),
                        bqc_entropy::varset([] as [&str; 0]),
                    ),
                    // X_1 = {X} satisfies the chain condition but does not
                    // contain U: connectedness violated.
                    (bqc_entropy::varset(["U", "X"]), bqc_entropy::varset(["X"])),
                ],
            }],
        };
        assert!(matches!(
            bad.validate(),
            Err(UniformityError::ConnectednessViolated(1))
        ));

        let bad_first = UniformMaxIip {
            variables: vars(&["X"]),
            distinguished: "U".to_string(),
            q: 1,
            expressions: vec![UniformExpression {
                head_count: 0,
                chain: vec![(bqc_entropy::varset(["U"]), bqc_entropy::varset(["X"]))],
            }],
        };
        assert!(matches!(
            bad_first.validate(),
            Err(UniformityError::FirstConditionNotEmpty)
        ));
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn clashing_distinguished_variable_panics() {
        let max = MaxInequality::new(vars(&["U", "X"]), vec![expr(&[(1, &["X"])])]);
        uniformize(&max, "U");
    }

    #[test]
    fn chain_condition_is_violated_when_detected() {
        let bad = UniformMaxIip {
            variables: vars(&["X", "Y"]),
            distinguished: "U".to_string(),
            q: 1,
            expressions: vec![UniformExpression {
                head_count: 0,
                chain: vec![
                    (
                        bqc_entropy::varset(["U", "X"]),
                        bqc_entropy::varset([] as [&str; 0]),
                    ),
                    // X_1 = {U, Y} is not a subset of Y_0 = {U, X}.
                    (
                        bqc_entropy::varset(["U", "Y"]),
                        bqc_entropy::varset(["U", "Y"]),
                    ),
                ],
            }],
        };
        assert!(matches!(
            bad.validate(),
            Err(UniformityError::ChainConditionViolated(1))
        ));
    }
}
