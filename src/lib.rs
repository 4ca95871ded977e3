//! # bag-query-containment
//!
//! A full reproduction of *Bag Query Containment and Information Theory*
//! (Mahmoud Abo Khamis, Phokion G. Kolaitis, Hung Q. Ngo, Dan Suciu —
//! PODS 2020) as a Rust workspace.  This root crate re-exports the public
//! surface of every member crate so that downstream users can depend on a
//! single package:
//!
//! * [`arith`] — exact big integers and rationals;
//! * [`lp`] — exact sparse revised simplex with warm-startable bases;
//! * [`relational`] — conjunctive queries, structures, homomorphism counting,
//!   bag-set semantics, V-relations and a small query/instance parser;
//! * [`hypergraph`] — Gaifman graphs, acyclicity, chordality, junction trees;
//! * [`entropy`] — entropy vectors, polymatroids, Shannon inequalities,
//!   step/modular/normal functions, Möbius inversion, Lemma 3.7;
//! * [`iip`] — the (max-)information-inequality prover over the Shannon cone,
//!   uniformization (Lemma 5.3) and convex certificates (Theorem 6.1);
//! * [`core`] — the containment inequality (Eq. 8), the decision procedure of
//!   Theorem 3.1, witness extraction, and both reductions of Theorem 2.7;
//! * [`engine`] — the serving layer: query canonicalization, a sharded LRU
//!   decision cache, durable cache snapshots, and the concurrent batch
//!   executor behind the `bqc` CLI;
//! * [`serve`] — the `bqc serve` daemon: a thread-per-connection TCP
//!   listener speaking a newline-delimited protocol, micro-batching
//!   requests into the engine with admission control, and persisting the
//!   decision cache across restarts;
//! * [`mod@bench`] — deterministic workload generators, the differential-oracle
//!   database families, and the `bqc fuzz` campaign harness;
//! * [`obs`] — zero-dependency counters, log2-bucket histograms and
//!   hierarchical spans instrumenting the LP, the separation loop and the
//!   cache, with Chrome-trace / Prometheus-text / JSON exporters (the
//!   `bqc` CLI's `--trace-out` / `--metrics` flags).
//!
//! ## Quickstart
//!
//! ```
//! use bag_query_containment::prelude::*;
//!
//! let triangle = parse_query("Q1() :- R(x,y), R(y,z), R(z,x)").unwrap();
//! let star = parse_query("Q2() :- R(u,v), R(u,w)").unwrap();
//! assert!(decide_containment(&triangle, &star).unwrap().is_contained());
//! ```

pub use bqc_arith as arith;
pub use bqc_bench as bench;
pub use bqc_core as core;
pub use bqc_engine as engine;
pub use bqc_entropy as entropy;
pub use bqc_hypergraph as hypergraph;
pub use bqc_iip as iip;
pub use bqc_lp as lp;
pub use bqc_obs as obs;
pub use bqc_relational as relational;
pub use bqc_serve as serve;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use bqc_arith::{int, ratio, BigInt, Rational};
    pub use bqc_core::{
        containment_inequality, decide_containment, decide_containment_traced,
        exhaustive_containment_check, max_iip_to_containment, search_product_witness,
        sufficient_containment_check, verify_witness, witness_from_counterexample, AnswerSummary,
        Budget, ContainmentAnswer, DecideContext, DecideOptions, Decision, DecisionPipeline,
        DecisionTrace,
    };
    pub use bqc_engine::{canonicalize, canonicalize_pair, Engine, EngineOptions, Provenance};
    pub use bqc_entropy::{
        is_modular, is_normal, is_polymatroid, normalize, parity_relation, relation_entropy,
        EntropyExpr, NormalFunction, SetFunction,
    };
    pub use bqc_hypergraph::{junction_tree, Graph, Hypergraph, TreeDecomposition};
    pub use bqc_iip::{
        find_convex_certificate, uniformize, GammaProver, LinearInequality, MaxInequality,
    };
    pub use bqc_lp::{LpBasis, LpProblem, LpStatus};
    pub use bqc_relational::{
        bag_set_answer, count_homomorphisms, parse_query, parse_structure, Atom, ConjunctiveQuery,
        Structure, VRelation, Value,
    };
    pub use bqc_serve::{ServeOptions, Server};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_pipeline() {
        let q1 = parse_query("Q1() :- R(x,y), S(x,y)").unwrap();
        let q2 = parse_query("Q2() :- R(u,v)").unwrap();
        assert!(decide_containment(&q1, &q2).unwrap().is_contained());
    }
}
