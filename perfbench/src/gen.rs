//! Workload generators.  Every input is a pure function of the run's seed:
//! the same seed gives the same request texts in the same order.

use bqc::bench::families::{random_pair, PairConfig};
use bqc::bench::{cycle_query, path_query, rename_shuffle, star_query};
use bqc::engine::canonicalize_pair;
use bqc::relational::{Atom, ConjunctiveQuery};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;

pub type Pair = (ConjunctiveQuery, ConjunctiveQuery);

/// A request of a workload: the question it asks (an index into the
/// workload's list of distinct questions) and the text sent to the program.
#[derive(Clone, Debug)]
pub struct Request {
    pub base: usize,
    pub line: String,
}

/// SplitMix64 finalizer: decorrelates `(seed, salt, index)` triples.
pub fn mix(seed: u64, salt: u64, index: u64) -> u64 {
    let mut z =
        seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, salt: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, salt, index))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

pub fn pair_line(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> String {
    format!("{q1} ; {q2}")
}

// ---------------------------------------------------------------------------
// lp-bound
// ---------------------------------------------------------------------------

/// The hand-written reference verdict of an lp-bound class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Contained, proven by the Shannon-cone LP.
    Contained,
    /// Not contained, refuted by the LP, with a verified witness.
    Refuted,
}

/// One lp-bound question class: a pair shape that passes every screen before
/// the `shannon-lp` stage, with its known verdict.
pub struct LpClass {
    pub name: &'static str,
    pub pair: Pair,
    pub expect: Expect,
}

/// The lp-bound classes: six containments the LP proves (cycle_k ⊑
/// path_{k−1} for k ≤ 5 and cycle ⊑ star) and six refutations the LP finds
/// and witness materialization turns into a verified counterexample.
/// Cycle₆ ⊑ path₅ (~0.5 s cold) is left out: one such decision would be
/// several percent of a run.
pub fn lp_classes() -> Vec<LpClass> {
    let class = |name, q1, q2, expect| LpClass {
        name,
        pair: (q1, q2),
        expect,
    };
    vec![
        class(
            "cycle3<=path2",
            cycle_query(3),
            path_query(2),
            Expect::Contained,
        ),
        class(
            "cycle4<=path3",
            cycle_query(4),
            path_query(3),
            Expect::Contained,
        ),
        class(
            "cycle5<=path4",
            cycle_query(5),
            path_query(4),
            Expect::Contained,
        ),
        class(
            "cycle3<=star2",
            cycle_query(3),
            star_query(2),
            Expect::Contained,
        ),
        class(
            "cycle3<=star3",
            cycle_query(3),
            star_query(3),
            Expect::Contained,
        ),
        class(
            "cycle4<=star3",
            cycle_query(4),
            star_query(3),
            Expect::Contained,
        ),
        class(
            "cycle3<=star1",
            cycle_query(3),
            star_query(1),
            Expect::Refuted,
        ),
        class(
            "cycle4<=star1",
            cycle_query(4),
            star_query(1),
            Expect::Refuted,
        ),
        class(
            "path2<=path1",
            path_query(2),
            path_query(1),
            Expect::Refuted,
        ),
        class(
            "path2<=star2",
            path_query(2),
            star_query(2),
            Expect::Refuted,
        ),
        class(
            "path2<=star3",
            path_query(2),
            star_query(3),
            Expect::Refuted,
        ),
        class(
            "path3<=star2",
            path_query(3),
            star_query(2),
            Expect::Refuted,
        ),
    ]
}

/// lp-bound requests per batch: every class twice, in seeded order, so all
/// batches carry the same class mix and cost.
pub const LP_BATCH: usize = 24;

fn rename_relations(query: &ConjunctiveQuery, suffix: &str) -> ConjunctiveQuery {
    let atoms = query
        .atoms()
        .iter()
        .map(|a| Atom::new(format!("{}{suffix}", a.relation), a.args.iter().cloned()))
        .collect();
    ConjunctiveQuery::new(query.name.clone(), query.head().to_vec(), atoms)
        .expect("renaming relations keeps the query valid")
}

/// The lp-bound request stream: instance `i` has its own relation names,
/// so no two instances share a cache key.
pub struct LpStream {
    seed: u64,
    classes: Vec<LpClass>,
    next: usize,
}

impl LpStream {
    pub fn new(seed: u64) -> LpStream {
        LpStream {
            seed,
            classes: lp_classes(),
            next: 0,
        }
    }

    pub fn classes(&self) -> &[LpClass] {
        &self.classes
    }

    /// The class of instance `i`: batch `i / LP_BATCH` holds every class
    /// twice, in an order drawn from the seed.
    pub fn class_of(&self, i: usize) -> usize {
        let mut order: Vec<usize> = (0..LP_BATCH).map(|k| k % self.classes.len()).collect();
        shuffle(
            &mut order,
            &mut rng(self.seed, 0x4f52, (i / LP_BATCH) as u64),
        );
        order[i % LP_BATCH]
    }

    /// Instance `i`: its class's pair with relations renamed to
    /// instance-unique names, variables renamed and atoms reordered.
    pub fn instance(&self, i: usize) -> Pair {
        let (q1, q2) = &self.classes[self.class_of(i)].pair;
        let tag = mix(self.seed, 0x4c50, 0) & 0xffff;
        let suffix = format!("x{tag:04x}i{i}");
        let q1 = rename_relations(q1, &suffix);
        let q2 = rename_relations(q2, &suffix);
        (
            rename_shuffle(&q1, mix(self.seed, 0x5131, i as u64)),
            rename_shuffle(&q2, mix(self.seed, 0x5132, i as u64)),
        )
    }

    /// The next `batches` batches of requests.
    pub fn take(&mut self, batches: usize) -> Vec<Request> {
        let start = self.next;
        self.next += batches * LP_BATCH;
        (start..self.next)
            .map(|i| {
                let (q1, q2) = self.instance(i);
                Request {
                    base: i,
                    line: pair_line(&q1, &q2),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// repeat-mix and serve-restart: pools of distinct random_pair questions
// ---------------------------------------------------------------------------

/// `random_pair` indices the pools draw from.
pub const POOL_DOMAIN: u64 = 1 << 18;

/// `random_pair` indices in `0..POOL_DOMAIN` whose decision needs a large
/// witness (see `scan.rs`): witness materialization on them takes 5 ms to
/// 3 s, so a handful would set a run's tail.  The pools never admit them.
/// The list is a deterministic property of the pair, produced by `perfbench
/// scan`, never by measured time.
const LARGE_WITNESS: &str = include_str!("../data/large_witness.txt");

pub fn large_witness_indices() -> HashSet<u64> {
    LARGE_WITNESS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("index list holds integers"))
        .collect()
}

/// Distinct (canonically unequal) questions drawn from `random_pair` with
/// the default `PairConfig`, in a seed-determined order.
pub struct Pool {
    pub pairs: Vec<Pair>,
}

/// Draws `count` questions whose canonical keys are not in `seen` (and adds
/// theirs), skipping indices in `excluded`.
pub fn draw_pool(
    seed: u64,
    salt: u64,
    count: usize,
    excluded: &HashSet<u64>,
    seen: &mut HashSet<String>,
) -> Pool {
    let config = PairConfig::default();
    let mut pairs = Vec::with_capacity(count);
    let mut k = 0u64;
    while pairs.len() < count {
        let index = mix(seed, salt, k) % POOL_DOMAIN;
        k += 1;
        if excluded.contains(&index) {
            continue;
        }
        let (q1, q2) = random_pair(index as usize, &config);
        if seen.insert(canonicalize_pair(&q1, &q2).key) {
            pairs.push((q1, q2));
        }
    }
    Pool { pairs }
}

/// Zipf(s) popularity over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A renamed, reordered copy of a pool question: only canonicalization can
/// tell it is a repeat.
pub fn renamed_line(pair: &Pair, rng: &mut StdRng) -> String {
    let q1 = rename_shuffle(&pair.0, rng.next_u64());
    let q2 = rename_shuffle(&pair.1, rng.next_u64());
    pair_line(&q1, &q2)
}

/// The repeat-mix request stream: Zipf-popular questions from the pool,
/// each request a fresh renaming.
pub struct ZipfStream<'a> {
    pool: &'a Pool,
    zipf: Zipf,
    /// Rank → pool index (a seeded permutation, so popularity is not tied
    /// to draw order).
    by_rank: Vec<usize>,
    rng: StdRng,
}

impl<'a> ZipfStream<'a> {
    pub fn new(pool: &'a Pool, exponent: f64, seed: u64) -> ZipfStream<'a> {
        let mut by_rank: Vec<usize> = (0..pool.pairs.len()).collect();
        let mut rng = rng(seed, 0x5a49, 0);
        shuffle(&mut by_rank, &mut rng);
        ZipfStream {
            pool,
            zipf: Zipf::new(pool.pairs.len(), exponent),
            by_rank,
            rng,
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let base = self.by_rank[self.zipf.sample(&mut self.rng)];
                Request {
                    base,
                    line: renamed_line(&self.pool.pairs[base], &mut self.rng),
                }
            })
            .collect()
    }
}
