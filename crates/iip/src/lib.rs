//! # bqc-iip — an information-inequality prover
//!
//! The decision problems at the heart of *Bag Query Containment and
//! Information Theory* (PODS 2020):
//!
//! * **IIP** (Problem 2.4): is `0 ≤ Σ_X c_X h(X)` valid for every entropic
//!   function?
//! * **Max-IIP** (Problem 2.5): is `0 ≤ max_ℓ Σ_X c_{ℓ,X} h(X)` valid?
//!
//! Both problems are open in general; what *is* decidable — and what the
//! paper's Theorem 3.6 reduces the containment problem to — is validity over
//! the polymatroid cone `Γ_n`, i.e. Shannon-provability.  This crate provides:
//!
//! * [`LinearInequality`] / [`MaxInequality`] — the inequality syntax;
//! * [`GammaProver`] — exact LP-based validity over `Γ_n` (in the style of
//!   Yeung's ITIP, extended to maxima, with lazy separation and warm starts),
//!   returning a violating polymatroid when the inequality is not
//!   Shannon-provable; every probe runs under a `bqc_obs::Budget`;
//! * [`uniformize`] — Lemma 5.3, the Uniform-Max-IIP normal form consumed by
//!   the reduction to query containment;
//! * [`find_convex_certificate`] — Theorem 6.1 over `Γ_n`: a valid
//!   max-inequality is witnessed by a convex combination of its disjuncts that
//!   is itself a Shannon inequality.
//!
//! ```
//! use bqc_arith::int;
//! use bqc_entropy::EntropyExpr;
//! use bqc_iip::{GammaProver, LinearInequality};
//! use bqc_obs::Budget;
//!
//! // Submodularity h(X) + h(Y) >= h(XY) is a Shannon inequality…
//! let mut e = EntropyExpr::zero();
//! e.add_term(int(1), ["X"]);
//! e.add_term(int(1), ["Y"]);
//! e.add_term(int(-1), ["X", "Y"]);
//! let ineq = LinearInequality::new(vec!["X".into(), "Y".into()], e);
//! let mut prover = GammaProver::new();
//! let verdict = prover.check_linear_inequality(&ineq, &Budget::unlimited());
//! assert!(verdict.unwrap().is_valid());
//! ```

pub mod convex;
pub mod inequality;
pub mod prover;
pub mod uniform;

pub use convex::{certificate_or_refutation, find_convex_certificate, ConvexCertificate};
pub use inequality::{LinearInequality, MaxInequality};
pub use prover::{check_max_inequality_eager, minimize_over_gamma, GammaProver, GammaValidity};
pub use uniform::{uniformize, UniformExpression, UniformMaxIip, UniformityError};
