//! The counting refuter: sound non-containment by counting on small databases.
//!
//! Fact 3.2 makes any concrete database `D` with
//! `|hom(Q1, D)| > |hom(Q2, D)|` an outright proof of `Q1 ⋢ Q2` — no LP, no
//! polymatroids.  This stage evaluates both counts on the canonical database
//! of `Q1` (the classic first candidate: every set-semantics separation lives
//! there, and so do many bag separations, e.g. Example 3.5) and then on a
//! small deterministic family of pseudo-random structures over the joint
//! vocabulary, refuting containment before any LP work whenever the counts
//! disagree.
//!
//! Counting goes through the junction-tree dynamic program
//! ([`crate::yannakakis::count_homomorphisms_acyclic`]) whenever the query is
//! α-acyclic and falls back to the exact backtracking counter otherwise; the
//! candidate structures are tiny (≤ [`MAX_DOMAIN`] elements), so either
//! counter is microseconds where a Shannon-cone probe is milliseconds.
//!
//! The family is a pure function of the query pair (fixed seed, sizes, and
//! count), which keeps pipeline verdicts — and decision traces — perfectly
//! deterministic, matching the engine's cache-determinism invariant.

use crate::witness::{verify_witness, NonContainmentWitness};
use bqc_obs::{Budget, Exhausted};
use bqc_relational::{
    count_homomorphisms, enumerate_homomorphisms, ConjunctiveQuery, Structure, VRelation, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of pseudo-random structures tried after the canonical database.
/// Two (one 2-element, one 3-element domain) is the sweet spot measured by
/// `pipeline/overhead/*`: enough to catch count separations the canonical
/// database misses (e.g. 5-cycle ⋢ 2-star needs the dense 3-element
/// structure), cheap enough that contained LP-bound decisions stay within
/// the 10% pipeline-overhead CI floor.
pub const RANDOM_STRUCTURES: usize = 2;

/// Largest domain used for the random structures.
pub const MAX_DOMAIN: usize = 3;

/// Smallest `|vars(Q1)|` for which the random family runs.  Below this the
/// Shannon-cone LP is on its cheap small-universe path and counting over
/// the whole candidate family would cost more than the LP it tries to
/// avoid, so only the canonical database (a few microseconds, and the
/// candidate that catches Example 3.5) is tried.  At and above it the LP is
/// the 2^n wall and the family is noise by comparison.
pub const RANDOM_FAMILY_MIN_VARS: usize = 5;

/// How many candidate databases [`counting_refutation`] evaluates for this
/// contained-candidate query (the canonical database, plus the random family
/// for universes of at least [`RANDOM_FAMILY_MIN_VARS`] variables).
pub fn candidate_count(q1: &ConjunctiveQuery) -> usize {
    if q1.num_vars() >= RANDOM_FAMILY_MIN_VARS {
        1 + RANDOM_STRUCTURES
    } else {
        1
    }
}

/// Per-relation cap on the tuples a random structure may hold (arity blowup
/// guard; irrelevant for the binary/unary vocabularies of practice).
const MAX_TUPLES_PER_RELATION: usize = 64;

/// Fixed seed of the structure family: the refuter is a pure function of the
/// query pair.
const FAMILY_SEED: u64 = 0x6261_675f_6371_6331; // "bag_cqc1"

/// A successful counting refutation: a concrete database separating the two
/// queries, with the counts that prove it.
#[derive(Clone, Debug)]
pub struct CountRefutation {
    /// The separating database.
    pub database: Structure,
    /// Which candidate produced it: `0` is the canonical database of `Q1`,
    /// `1..` are the members of the random family.
    pub candidate: usize,
    /// `|hom(Q1, database)|`.
    pub hom_q1: u128,
    /// `|hom(Q2, database)|` (strictly smaller).
    pub hom_q2: u128,
}

impl CountRefutation {
    /// Human label of the candidate that separated the queries.
    pub fn candidate_label(&self) -> String {
        if self.candidate == 0 {
            "canonical database of Q1".to_string()
        } else {
            format!("random structure #{}", self.candidate)
        }
    }
}

/// Counts `|hom(query, data)|`, preferring the acyclic junction-tree DP and
/// falling back to exact backtracking for cyclic queries.  Limited budgets
/// count by budgeted backtracking instead of the (budget-oblivious)
/// junction-tree DP; both counters are exact, so the count — and hence every
/// verdict derived from it — is the same either way.
fn count_homomorphisms_fast(
    query: &ConjunctiveQuery,
    data: &Structure,
    budget: &Budget,
) -> Result<u128, Exhausted> {
    if budget.is_unlimited() {
        if let Some(count) = crate::yannakakis::count_homomorphisms_acyclic(query, data) {
            return Ok(count);
        }
    }
    count_homomorphisms(query, data, budget)
}

/// Runs the counting refuter on a (Boolean) containment instance: evaluates
/// `|hom(Q1, D)|` vs `|hom(Q2, D)|` on the canonical database of `Q1` and —
/// for universes of at least [`RANDOM_FAMILY_MIN_VARS`] variables, where the
/// LP being avoided is expensive — on the deterministic random family,
/// returning the first separation found.
///
/// `Ok(None)` means *inconclusive* — containment may still fail on a
/// database outside the family; an `Ok(Some(_))` is an unconditional proof of
/// `Q1 ⋢ Q2` (Fact 3.2).  The hom counts charge hom-steps to `budget`, and
/// the scan aborts with `Err(Exhausted)` when it runs out; `Err` certifies
/// nothing — in particular it is not an inconclusive but completed scan.
pub fn counting_refutation(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    budget: &Budget,
) -> Result<Option<CountRefutation>, Exhausted> {
    let canonical = q1.canonical_structure();
    if let Some(refutation) = check_candidate(q1, q2, canonical, 0, budget)? {
        return Ok(Some(refutation));
    }
    if candidate_count(q1) == 1 {
        return Ok(None);
    }
    let mut rng = StdRng::seed_from_u64(FAMILY_SEED);
    for index in 1..=RANDOM_STRUCTURES {
        let domain = 2 + (index - 1) % (MAX_DOMAIN - 1);
        let candidate = random_structure(q1, q2, domain, &mut rng);
        if let Some(refutation) = check_candidate(q1, q2, candidate, index, budget)? {
            return Ok(Some(refutation));
        }
    }
    Ok(None)
}

/// Materializes a verified [`NonContainmentWitness`] from a counting
/// refutation: the witness relation is the *full* set of `Q1`-homomorphisms
/// into the separating database, one row per homomorphism over `vars(Q1)`.
///
/// This always verifies: the induced database `D' = Π_{Q1}(P)` is a
/// substructure of the separating `D` containing the image of every
/// `Q1`-homomorphism, so `|P| = hom(Q1, D) = hom(Q1, D')` while
/// `hom(Q2, D') ≤ hom(Q2, D) < hom(Q1, D)`.  Returns `None` only when the
/// relation would exceed `max_rows` — possible when `Q1` has many
/// homomorphisms into even a tiny database (e.g. many disconnected
/// components), in which case the refuter stage defers to the LP path
/// rather than returning a witness-free refutation.  The enumeration and the
/// verification counts charge `budget`.
pub fn witness_from_refutation(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    refutation: &CountRefutation,
    max_rows: u64,
    budget: &Budget,
) -> Result<Option<NonContainmentWitness>, Exhausted> {
    if refutation.hom_q1 > max_rows as u128 {
        return Ok(None);
    }
    let columns: Vec<String> = q1.vars().to_vec();
    let rows: Vec<Vec<Value>> = enumerate_homomorphisms(q1, &refutation.database, budget)?
        .into_iter()
        .map(|assignment| columns.iter().map(|v| assignment[v].clone()).collect())
        .collect();
    let relation = VRelation::from_rows(columns, rows);
    verify_witness(q1, q2, &relation, budget)
}

fn check_candidate(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    database: Structure,
    candidate: usize,
    budget: &Budget,
) -> Result<Option<CountRefutation>, Exhausted> {
    let hom_q1 = count_homomorphisms_fast(q1, &database, budget)?;
    if hom_q1 == 0 {
        // hom(Q2) can't be beaten by an empty count; skip the second count.
        return Ok(None);
    }
    let hom_q2 = count_homomorphisms_fast(q2, &database, budget)?;
    Ok(if hom_q1 > hom_q2 {
        Some(CountRefutation {
            database,
            candidate,
            hom_q1,
            hom_q2,
        })
    } else {
        None
    })
}

/// One member of the deterministic family: every possible fact over a domain
/// of `domain` elements is included independently with probability 1/2, per
/// relation of the joint vocabulary (capped at [`MAX_TUPLES_PER_RELATION`]
/// tuples per relation to guard against high arities).
fn random_structure(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    domain: usize,
    rng: &mut StdRng,
) -> Structure {
    let mut vocabulary = q1.vocabulary();
    vocabulary.merge(&q2.vocabulary());
    let mut structure = Structure::new(vocabulary.clone());
    for value in 0..domain {
        structure.add_domain_value(Value::int(value as i64));
    }
    for symbol in vocabulary.symbols() {
        let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
        for _ in 0..symbol.arity {
            let mut next = Vec::with_capacity(tuples.len() * domain);
            for prefix in &tuples {
                for value in 0..domain {
                    let mut tuple = prefix.clone();
                    tuple.push(Value::int(value as i64));
                    next.push(tuple);
                }
            }
            tuples = next;
            if tuples.len() > MAX_TUPLES_PER_RELATION {
                tuples.truncate(MAX_TUPLES_PER_RELATION);
            }
        }
        for tuple in tuples {
            if rng.gen_range(0..2) == 1 {
                structure.add_fact(&symbol.name, tuple);
            }
        }
    }
    structure
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_relational::parse_query;

    #[test]
    fn example_3_5_is_refuted_on_the_canonical_database() {
        let q1 =
            parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
                .unwrap();
        let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
        let refutation = counting_refutation(&q1, &q2, &Budget::unlimited())
            .unwrap()
            .expect("counts disagree");
        assert_eq!(refutation.candidate, 0);
        assert_eq!(refutation.candidate_label(), "canonical database of Q1");
        // Two blocks, each mappable to either block: 2^2 = 4 Q1-homs; the
        // containing query has one hom per block: 2.
        assert_eq!(refutation.hom_q1, 4);
        assert_eq!(refutation.hom_q2, 2);
    }

    #[test]
    fn contained_pairs_are_never_refuted() {
        // Triangle ⊑ 2-star (Example 4.3) and Q ⊑ Q: containment holds, so no
        // candidate database may separate the counts.
        let triangle = parse_query("Q1() :- R(x1,x2), R(x2,x3), R(x3,x1)").unwrap();
        let star = parse_query("Q2() :- R(y1,y2), R(y1,y3)").unwrap();
        assert!(counting_refutation(&triangle, &star, &Budget::unlimited())
            .unwrap()
            .is_none());
        assert!(counting_refutation(&star, &star, &Budget::unlimited())
            .unwrap()
            .is_none());
    }

    #[test]
    fn refuter_is_deterministic() {
        let q1 = parse_query("Q1() :- R(u,v), R(u,w)").unwrap();
        let q2 = parse_query("Q2() :- R(x,y), R(y,z)").unwrap();
        let first = counting_refutation(&q1, &q2, &Budget::unlimited()).unwrap();
        let second = counting_refutation(&q1, &q2, &Budget::unlimited()).unwrap();
        match (&first, &second) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.candidate, b.candidate);
                assert_eq!(a.hom_q1, b.hom_q1);
                assert_eq!(a.hom_q2, b.hom_q2);
                assert_eq!(a.database, b.database);
            }
            other => panic!("non-deterministic refuter: {other:?}"),
        }
    }

    #[test]
    fn fast_counter_matches_backtracking_on_cyclic_queries() {
        let triangle = parse_query("Q() :- R(x,y), R(y,z), R(z,x)").unwrap();
        let db = triangle.canonical_structure();
        assert_eq!(
            count_homomorphisms_fast(&triangle, &db, &Budget::unlimited()).unwrap(),
            count_homomorphisms(&triangle, &db, &Budget::unlimited()).unwrap()
        );
    }
}
