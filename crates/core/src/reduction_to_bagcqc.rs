//! The reduction Max-IIP ≤m BagCQC-A (Section 5.3, Theorem 5.1).
//!
//! Given a Uniform-Max-IIP `q·h(V) ≤ max_i E_i(h)` (produced by Lemma 5.3 /
//! [`bqc_iip::uniformize`]) with distinguished variable `U`, the construction
//! emits two Boolean conjunctive queries `Q1`, `Q2` with `Q2` acyclic such
//! that `Q1 ⊑ Q2` iff the inequality is valid.  The gist:
//!
//! * `U` is split into two variables `U1 U2`;
//! * `Q2` has one fresh binary atom `S_m(Ũ_m)` per unit of the `n·h(U)` term,
//!   plus a chain of atoms `R_0(X̃_0 Ỹ_0 Z̃), …, R_p(X̃_p Ỹ_p Z̃)` whose
//!   variable blocks are disjoint fresh copies `Y_{ij}^{(i,j)}` of the chain
//!   sets, stitched together by the shared copies `X̃_j ⊆ Ỹ_{j−1}` and the
//!   `k` chain-identifier variables `Z̃`;
//! * `Q1` is the conjunction of `q` disjoint adorned copies, each of which is
//!   the conjunction over `i ∈ [k]` of a sub-query that collapses every block
//!   other than the `i`-th to the distinguished variable and uses the `Z̃`
//!   positions to force any homomorphism to pick a single disjunct `i`.
//!
//! The containment inequality (Eq. 8) of the produced pair erases — in the
//! sense of Lemma 5.4 — back to the original inequality, which the tests below
//! verify both syntactically (conditions (a) and (b) of the lemma) and, for
//! small instances, semantically over the Shannon cone.

use bqc_iip::{UniformExpression, UniformMaxIip};
use bqc_relational::{Atom, ConjunctiveQuery};
use std::collections::BTreeSet;

/// The queries produced by [`max_iip_to_containment`], plus bookkeeping that
/// the tests and examples use to relate them back to the inequality.
#[derive(Clone, Debug)]
pub struct ReductionOutput {
    /// The contained query (a conjunction of `q` adorned copies).
    pub q1: ConjunctiveQuery,
    /// The containing query (acyclic).
    pub q2: ConjunctiveQuery,
    /// Name of the first half of the split distinguished variable.
    pub u1: String,
    /// Name of the second half of the split distinguished variable.
    pub u2: String,
    /// The number of adorned copies (`q` of the uniform inequality).
    pub copies: usize,
}

/// Suffix used to adorn `Q1`'s variable copies; copy `ℓ` of variable `v` is
/// named `v#ℓ`.
pub fn adorned_name(variable: &str, copy: usize) -> String {
    format!("{variable}#{copy}")
}

/// Strips the adornment introduced by [`adorned_name`], returning the base
/// variable name.
pub fn erase_adornment(variable: &str) -> String {
    match variable.rsplit_once('#') {
        Some((base, _)) => base.to_string(),
        None => variable.to_string(),
    }
}

/// Expands a chain variable set into an ordered list of concrete variable
/// names, splitting the distinguished variable into its two halves.
fn expand_block(set: &BTreeSet<String>, distinguished: &str, u1: &str, u2: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(set.len() + 1);
    for v in set {
        if v == distinguished {
            out.push(u1.to_string());
            out.push(u2.to_string());
        } else {
            out.push(v.clone());
        }
    }
    out
}

/// Builds the containment instance of Theorem 5.1 from a Uniform-Max-IIP.
///
/// # Panics
///
/// Panics if the input fails [`UniformMaxIip::validate`] or has no
/// expressions.
pub fn max_iip_to_containment(uniform: &UniformMaxIip) -> ReductionOutput {
    uniform
        .validate()
        .expect("input must be a valid Uniform-Max-IIP");
    assert!(
        !uniform.expressions.is_empty(),
        "need at least one disjunct"
    );
    let k = uniform.expressions.len();
    let n = uniform.expressions[0].head_count;
    let p = uniform.expressions[0].chain.len();
    let q = uniform.q;
    let u = &uniform.distinguished;
    let u1 = format!("{u}1");
    let u2 = format!("{u}2");

    // ---- Q2 ------------------------------------------------------------
    let mut q2_atoms: Vec<Atom> = Vec::new();
    // S_m(Ũ_m): binary atoms over disjoint fresh variable pairs.
    for m in 1..=n {
        q2_atoms.push(Atom::new(
            format!("S{m}"),
            [format!("us{m}_a"), format!("us{m}_b")],
        ));
    }
    // The chain identifiers Z̃.
    let z_vars: Vec<String> = (1..=k).map(|i| format!("zz{i}")).collect();
    // Copy of variable `v` used for block (i, j) of the Ỹ side.
    let copy_name = |v: &String, i: usize, j: usize| format!("{v}@{i}_{j}");
    // R_j(X̃_j Ỹ_j Z̃).
    for j in 0..p {
        let mut args: Vec<String> = Vec::new();
        if j > 0 {
            for (i, expr) in uniform.expressions.iter().enumerate() {
                let (_, x) = &expr.chain[j];
                for v in expand_block(x, u, &u1, &u2) {
                    // X̃_j uses the copies made for Ỹ_{j−1} (chain condition:
                    // X_{ij} ⊆ Y_{i(j−1)}).
                    args.push(copy_name(&v, i + 1, j - 1));
                }
            }
        }
        for (i, expr) in uniform.expressions.iter().enumerate() {
            let (y, _) = &expr.chain[j];
            for v in expand_block(y, u, &u1, &u2) {
                args.push(copy_name(&v, i + 1, j));
            }
        }
        args.extend(z_vars.iter().cloned());
        q2_atoms.push(Atom::new(format!("R{j}"), args));
    }
    let q2 =
        ConjunctiveQuery::boolean("Q2_reduction", q2_atoms).expect("reduction produces a valid Q2");

    // ---- Q1 ------------------------------------------------------------
    let mut q1_atoms: Vec<Atom> = Vec::new();
    for copy in 1..=q {
        let u1_c = adorned_name(&u1, copy);
        let u2_c = adorned_name(&u2, copy);
        for m in 1..=n {
            q1_atoms.push(Atom::new(format!("S{m}"), [u1_c.clone(), u2_c.clone()]));
        }
        for (i, _expr) in uniform.expressions.iter().enumerate() {
            let chain_index = i + 1;
            for j in 0..p {
                let mut args: Vec<String> = Vec::new();
                if j > 0 {
                    for (i2, expr2) in uniform.expressions.iter().enumerate() {
                        let (_, x) = &expr2.chain[j];
                        args.extend(block_for_copy(
                            x,
                            u,
                            &u1,
                            &u2,
                            i2 + 1 == chain_index,
                            copy,
                            &u1_c,
                        ));
                    }
                }
                for (i2, expr2) in uniform.expressions.iter().enumerate() {
                    let (y, _) = &expr2.chain[j];
                    args.extend(block_for_copy(
                        y,
                        u,
                        &u1,
                        &u2,
                        i2 + 1 == chain_index,
                        copy,
                        &u1_c,
                    ));
                }
                for m in 1..=k {
                    args.push(if m == chain_index {
                        u2_c.clone()
                    } else {
                        u1_c.clone()
                    });
                }
                q1_atoms.push(Atom::new(format!("R{j}"), args));
            }
        }
    }
    let q1 =
        ConjunctiveQuery::boolean("Q1_reduction", q1_atoms).expect("reduction produces a valid Q1");

    ReductionOutput {
        q1,
        q2,
        u1,
        u2,
        copies: q,
    }
}

/// The `Q1` variable block for a chain set: the adorned original variables
/// when this is the active disjunct `i`, and the adorned `U1` otherwise (one
/// occurrence per position of the expanded block).
fn block_for_copy(
    set: &BTreeSet<String>,
    distinguished: &str,
    u1: &str,
    u2: &str,
    active: bool,
    copy: usize,
    u1_adorned: &str,
) -> Vec<String> {
    let expanded = expand_block(set, distinguished, u1, u2);
    if active {
        expanded
            .into_iter()
            .map(|v| adorned_name(&v, copy))
            .collect()
    } else {
        expanded.iter().map(|_| u1_adorned.to_string()).collect()
    }
}

/// The flattened "erased" right-hand side of a uniform expression, with the
/// distinguished variable split into `U1 U2`:
/// `n·h(U1U2) + Σ_j h(Y_j | X_j)` (no `−q·h(V)` term).  Used by the tests to
/// state conditions (a)/(b) of Lemma 5.4.
pub fn erased_disjunct(
    expr: &UniformExpression,
    distinguished: &str,
    u1: &str,
    u2: &str,
) -> bqc_entropy::EntropyExpr {
    let mut out = bqc_entropy::EntropyExpr::zero();
    out.add_term(
        bqc_arith::Rational::from(expr.head_count as i64),
        [u1.to_string(), u2.to_string()],
    );
    for (y, x) in &expr.chain {
        let y_split: BTreeSet<String> =
            expand_block(y, distinguished, u1, u2).into_iter().collect();
        let x_split: BTreeSet<String> =
            expand_block(x, distinguished, u1, u2).into_iter().collect();
        out.add_conditional(bqc_arith::Rational::one(), &y_split, &x_split);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::containment_inequality;
    use bqc_arith::int;
    use bqc_entropy::EntropyExpr;
    use bqc_hypergraph::Hypergraph;
    use bqc_iip::{uniformize, GammaProver, LinearInequality, MaxInequality};
    use bqc_obs::Budget;
    use std::collections::BTreeMap;

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

    fn reduce(max: &MaxInequality) -> (ReductionOutput, bqc_iip::UniformMaxIip) {
        let uniform = uniformize(max, "UU");
        let output = max_iip_to_containment(&uniform);
        (output, uniform)
    }

    /// Conditions (a) and (b) of Lemma 5.4 for the produced instance: every
    /// composed expression `E_T ∘ φ` erases to some disjunct, and every
    /// disjunct has a constant adornment among the compositions.
    fn check_lemma_5_4_conditions(output: &ReductionOutput, uniform: &bqc_iip::UniformMaxIip) {
        let hypergraph = Hypergraph::new(output.q2.hyperedges());
        assert!(hypergraph.is_alpha_acyclic(), "Q2 must be acyclic");
        let td = hypergraph
            .join_tree()
            .expect("acyclic queries have join trees");
        let (_, composed) = containment_inequality(&output.q1, &output.q2, &td)
            .expect("the identity-style homomorphisms always exist");
        assert!(!composed.is_empty());

        let erased_disjuncts: Vec<EntropyExpr> = uniform
            .expressions
            .iter()
            .map(|e| erased_disjunct(e, &uniform.distinguished, &output.u1, &output.u2))
            .collect();

        // Condition (a): every E_T ∘ φ erases to one of the disjuncts.
        let mut seen_constant_adornments = vec![false; erased_disjuncts.len()];
        for conditional in &composed {
            let flat = conditional.flatten();
            // Erase the adornments.
            let rename: BTreeMap<String, String> = flat
                .variables()
                .into_iter()
                .map(|v| (v.clone(), erase_adornment(&v)))
                .collect();
            let erased = flat.compose(&rename);
            let position = erased_disjuncts.iter().position(|d| d == &erased);
            assert!(
                position.is_some(),
                "composed expression erased to {erased}, which is not a disjunct"
            );
            // Track constant adornments: all variables adorned with the same copy.
            let copies: BTreeSet<String> = flat
                .variables()
                .into_iter()
                .filter_map(|v| v.rsplit_once('#').map(|(_, l)| l.to_string()))
                .collect();
            if copies.len() <= 1 {
                seen_constant_adornments[position.expect("checked above")] = true;
            }
        }
        // Condition (b): every disjunct appears as a constant adornment.
        assert!(
            seen_constant_adornments.iter().all(|&b| b),
            "some disjunct has no constant adornment among hom(Q2, Q1)"
        );
    }

    #[test]
    fn reduction_of_a_valid_linear_inequality() {
        // 0 <= h(X): trivially valid.
        let ineq = LinearInequality::new(vars(&["X"]), expr(&[(1, &["X"])]));
        let (output, uniform) = reduce(&ineq.to_max());
        check_lemma_5_4_conditions(&output, &uniform);
        // Semantic equivalence over the Shannon cone (small enough to solve):
        // the containment inequality of (Q1, Q2) must be valid.
        let hypergraph = Hypergraph::new(output.q2.hyperedges());
        let td = hypergraph.join_tree().unwrap();
        let (containment, _) = containment_inequality(&output.q1, &output.q2, &td).unwrap();
        assert!(GammaProver::new()
            .check_max_inequality(&containment, &Budget::unlimited())
            .unwrap()
            .is_valid());
    }

    #[test]
    fn reduction_of_an_invalid_linear_inequality() {
        // 0 <= -h(X): invalid.
        let ineq = LinearInequality::new(vars(&["X"]), expr(&[(-1, &["X"])]));
        assert!(!GammaProver::new()
            .check_max_inequality(&ineq.to_max(), &Budget::unlimited())
            .unwrap()
            .is_valid());
        let (output, uniform) = reduce(&ineq.to_max());
        check_lemma_5_4_conditions(&output, &uniform);
        let hypergraph = Hypergraph::new(output.q2.hyperedges());
        let td = hypergraph.join_tree().unwrap();
        let (containment, _) = containment_inequality(&output.q1, &output.q2, &td).unwrap();
        assert!(!GammaProver::new()
            .check_max_inequality(&containment, &Budget::unlimited())
            .unwrap()
            .is_valid());
    }

    #[test]
    fn reduction_structure_of_example_5_2() {
        // Eq. (19): 0 <= h(X1) + 2h(X2) + h(X3) - h(X1X2) - h(X2X3).
        // The paper's Example 5.2 reduction has Q1 with 3 copies of 3 variables
        // (plus our U1/U2 split) and Q2 acyclic with a 3-atom chain plus unary
        // side atoms; our uniformization differs in inessential bookkeeping but
        // must produce an acyclic Q2 and satisfy Lemma 5.4.
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
        let (output, uniform) = reduce(&ineq.to_max());
        assert_eq!(uniform.q, 3);
        assert_eq!(output.copies, 3);
        // Q1 consists of 3 adorned copies of the same sub-query.
        let q1_vars: BTreeSet<String> = output
            .q1
            .vars()
            .iter()
            .map(|v| erase_adornment(v))
            .collect();
        // X1, X2, X3, UU1, UU2.
        assert_eq!(q1_vars.len(), 5);
        assert_eq!(output.q1.num_vars(), 15);
        let hypergraph = Hypergraph::new(output.q2.hyperedges());
        assert!(hypergraph.is_alpha_acyclic());
        check_lemma_5_4_conditions(&output, &uniform);
    }

    #[test]
    fn reduction_of_a_max_inequality() {
        // max(h(X) - h(Y), h(Y) - h(X)) >= 0 (valid, but only as a max).
        let d1 = expr(&[(1, &["X"]), (-1, &["Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X"])]);
        let max = MaxInequality::new(vars(&["X", "Y"]), vec![d1, d2]);
        let (output, uniform) = reduce(&max);
        assert_eq!(uniform.expressions.len(), 2);
        check_lemma_5_4_conditions(&output, &uniform);
        // With two disjuncts the chain atoms carry two Z variables.
        let r0 = output
            .q2
            .atoms()
            .iter()
            .find(|a| a.relation == "R0")
            .expect("chain atom R0 exists");
        let z_count = r0.args.iter().filter(|v| v.starts_with("zz")).count();
        assert_eq!(z_count, 2);
    }

    #[test]
    fn homomorphisms_pick_a_single_disjunct() {
        // Every homomorphism Q2 → Q1 maps the whole chain into one adorned
        // copy and one disjunct — check via the Z variables' images.
        let d1 = expr(&[(1, &["X"]), (-1, &["Y"])]);
        let d2 = expr(&[(1, &["Y"]), (-1, &["X"])]);
        let max = MaxInequality::new(vars(&["X", "Y"]), vec![d1, d2]);
        let (output, _uniform) = reduce(&max);
        let homs =
            crate::containment::query_homomorphisms(&output.q2, &output.q1, &Budget::unlimited())
                .unwrap();
        assert!(!homs.is_empty());
        for phi in &homs {
            let z_images: BTreeSet<&String> = phi
                .iter()
                .filter(|(v, _)| v.starts_with("zz"))
                .map(|(_, t)| t)
                .collect();
            // Exactly one Z variable maps to a U2 copy, the rest to the same U1 copy.
            let u2_images = z_images
                .iter()
                .filter(|t| erase_adornment(t).starts_with("UU2"))
                .count();
            assert_eq!(
                u2_images, 1,
                "homomorphism does not pick a single disjunct: {phi:?}"
            );
        }
    }
}
