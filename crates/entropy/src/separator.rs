//! Lazy separation over the Shannon cone `Γ_n`.
//!
//! The dual description of `Γ_n` has `n + C(n,2)·2^{n−2}` elemental
//! inequalities — exponential in the universe size — but a candidate point
//! `h` can be tested against **all** of them in `O(n²·2^n)` exact arithmetic
//! without ever materializing the constraint list: every elemental
//! inequality is determined by a compact [`ElementalId`] (a variable index
//! for monotonicity, a pair plus a context mask for submodularity), and its
//! left-hand side touches at most four entries of `h`.
//!
//! This is what turns the `Γ_n` validity check of `bqc-iip` from an eager
//! `2^n`-row LP build into a cutting-plane loop: solve a small relaxation,
//! hand the optimal point to [`ShannonSeparator::most_violated`], append the
//! returned rows, repeat.  The separator scanning *every* elemental
//! inequality is the loop's exactness invariant — an empty answer certifies
//! `h ∈ Γ_n`.
//!
//! [`ConeSkeleton`] carries the per-universe-size data the loop reuses
//! across probes (the variable-pair list, the seed monotonicity rows), and
//! [`SkeletonCache`] shares skeletons — they are immutable — across provers,
//! decision contexts and engine workers.

use crate::setfn::{all_masks, Mask};
use crate::shannon::elemental_count;
use bqc_arith::Rational;
use bqc_obs::{Budget, Exhausted, LazyCounter};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

static SEPARATION_SCANS: LazyCounter = LazyCounter::new("bqc_entropy_separation_scans_total");
static ELEMENTALS_SCANNED: LazyCounter = LazyCounter::new("bqc_entropy_elementals_scanned_total");
static VIOLATED_ROWS: LazyCounter = LazyCounter::new("bqc_entropy_violated_rows_total");

/// Compact identifier of one elemental inequality of `Γ_n`.
///
/// The constraint it denotes is recovered with [`ElementalId::terms`]; no
/// label or coefficient vector is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElementalId {
    /// Monotonicity at the top: `h(V) − h(V ∖ {i}) ≥ 0`.
    Monotone {
        /// The dropped variable `i`.
        i: usize,
    },
    /// Elemental submodularity
    /// `h(X∪{i}) + h(X∪{j}) − h(X∪{i,j}) − h(X) ≥ 0` with `i < j` and
    /// `X ⊆ V ∖ {i, j}`.
    Submodular {
        /// First variable of the pair.
        i: usize,
        /// Second variable of the pair (`i < j`).
        j: usize,
        /// The context set `X`, disjoint from `{i, j}`.
        context: Mask,
    },
}

impl ElementalId {
    /// The sparse terms `Σ coeff·h(mask) ≥ 0` of this inequality, as a fixed
    /// array plus its occupied length (allocation-free).  A term with mask 0
    /// refers to `h(∅) = 0` and may be dropped by LP builders.
    pub fn terms(&self, n: usize) -> ([(Mask, i64); 4], usize) {
        match *self {
            ElementalId::Monotone { i } => {
                let full: Mask = ((1u64 << n) - 1) as Mask;
                ([(full, 1), (full & !(1 << i), -1), (0, 0), (0, 0)], 2)
            }
            ElementalId::Submodular { i, j, context } => {
                let xi = context | (1 << i);
                let xj = context | (1 << j);
                let xij = xi | xj;
                ([(xi, 1), (xj, 1), (xij, -1), (context, -1)], 4)
            }
        }
    }

    /// Evaluates the left-hand side on a candidate `h`, given as one value
    /// per subset mask (`h[0]` must be zero).
    pub fn evaluate_on(&self, h: &[Rational], n: usize) -> Rational {
        let (terms, len) = self.terms(n);
        let mut acc = Rational::zero();
        for (mask, coeff) in &terms[..len] {
            match coeff {
                1 => acc += &h[*mask as usize],
                -1 => acc -= &h[*mask as usize],
                _ => {}
            }
        }
        acc
    }

    /// A human-readable label, synthesized on demand (matching the labels of
    /// [`crate::shannon::elemental_inequalities`]).
    pub fn label(&self) -> String {
        match *self {
            ElementalId::Monotone { i } => format!("mono({i})"),
            ElementalId::Submodular { i, j, context } => format!("submod({i},{j}|{context:b})"),
        }
    }
}

/// Enumerates the elemental inequalities of `Γ_n` as compact ids, in the
/// canonical order (monotonicity first, then submodularity by `(i, j)` and
/// ascending context mask) — without allocating labels or term vectors.
pub fn elemental_ids(n: usize) -> impl Iterator<Item = ElementalId> {
    let mono = (0..n).map(|i| ElementalId::Monotone { i });
    let submod = (0..n).flat_map(move |i| {
        ((i + 1)..n).flat_map(move |j| {
            all_masks(n).filter_map(move |context| {
                (context & (1 << i) == 0 && context & (1 << j) == 0)
                    .then_some(ElementalId::Submodular { i, j, context })
            })
        })
    });
    mono.chain(submod)
}

/// Immutable per-universe-size data shared by every lazy `Γ_n` probe: the
/// universe size, the precomputed variable-pair list driving the separation
/// scan, and the seed rows a relaxation starts from.
#[derive(Debug)]
pub struct ConeSkeleton {
    n: usize,
    pairs: Vec<(usize, usize)>,
}

impl ConeSkeleton {
    /// Builds the skeleton for an `n`-variable universe.
    pub fn new(n: usize) -> ConeSkeleton {
        let mut pairs = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j));
            }
        }
        ConeSkeleton { n, pairs }
    }

    /// The universe size `n`.
    pub fn universe_size(&self) -> usize {
        self.n
    }

    /// Total number of elemental inequalities of `Γ_n`.
    pub fn num_elemental(&self) -> usize {
        elemental_count(self.n)
    }

    /// The seed rows every relaxation starts from: the `n` monotonicity
    /// inequalities plus, for each variable pair, the two extreme
    /// submodularity contexts — `I(i;j | V∖{i,j}) ≥ 0` (full context) and
    /// `I(i;j) ≥ 0` (empty context).  That is `n + 2·C(n,2)` rows,
    /// quadratic in `n`.
    ///
    /// Monotonicity bounds the recession directions touching `h(V)` (which
    /// containment disjuncts always mention); the two submodularity fringes
    /// empirically pin relaxation vertices close enough to `Γ_n` that the
    /// separation loop converges in a few rounds instead of wandering
    /// through strongly supermodular vertices (measured ~25x on invalid
    /// `Γ_7` probes).
    pub fn seed_rows(&self) -> impl Iterator<Item = ElementalId> + '_ {
        let n = self.n;
        let full: Mask = if n == 0 { 0 } else { ((1u64 << n) - 1) as Mask };
        let mono = (0..n).map(|i| ElementalId::Monotone { i });
        let top = self
            .pairs
            .iter()
            .map(move |&(i, j)| ElementalId::Submodular {
                i,
                j,
                context: full & !(1 << i) & !(1 << j),
            });
        // For n = 2 the full and empty contexts coincide; emit one copy.
        let bottom = self
            .pairs
            .iter()
            .filter(move |_| n > 2)
            .map(|&(i, j)| ElementalId::Submodular { i, j, context: 0 });
        mono.chain(top).chain(bottom)
    }
}

/// Exact separation oracle for `Γ_n` over a shared [`ConeSkeleton`].
#[derive(Clone, Debug)]
pub struct ShannonSeparator {
    skeleton: Arc<ConeSkeleton>,
}

impl ShannonSeparator {
    /// Creates a separator over the given skeleton.
    pub fn new(skeleton: Arc<ConeSkeleton>) -> ShannonSeparator {
        ShannonSeparator { skeleton }
    }

    /// The underlying skeleton.
    pub fn skeleton(&self) -> &ConeSkeleton {
        &self.skeleton
    }

    /// Scans **all** elemental inequalities of `Γ_n` against the candidate
    /// `h` (one value per subset mask, `h[0] = 0`) and returns up to `limit`
    /// violated ones, most violated first (ties in canonical scan order).
    ///
    /// An empty result certifies `h ∈ Γ_n` — this is the exactness invariant
    /// of the separation loop.  The scan is `O(n²·2^n)` exact arithmetic and
    /// never materializes the constraint list.
    ///
    /// The scan runs under a decision [`Budget`]: the wall clock is checked
    /// between variable pairs, and an exhausted budget aborts the scan with
    /// `Err`.  The distinction between `Err` and `Ok(vec![])` is
    /// load-bearing: an empty *completed* scan certifies `h ∈ Γ_n`, while an
    /// aborted scan certifies nothing — a caller must never treat exhaustion
    /// as "no violated rows".
    pub fn most_violated(
        &self,
        h: &[Rational],
        limit: usize,
        budget: &Budget,
    ) -> Result<Vec<ElementalId>, Exhausted> {
        let n = self.skeleton.n;
        debug_assert_eq!(h.len(), 1 << n, "need one candidate value per subset");
        debug_assert!(limit > 0, "a separation round must be able to add a row");
        let mut violated: Vec<(Rational, ElementalId)> = Vec::new();
        let full: Mask = ((1u64 << n) - 1) as Mask;
        budget.check_deadline()?;
        for i in 0..n {
            let value = &h[full as usize] - &h[(full & !(1 << i)) as usize];
            if value.is_negative() {
                violated.push((value, ElementalId::Monotone { i }));
            }
        }
        for &(i, j) in &self.skeleton.pairs {
            // One wall-clock sample per pair bounds deadline overshoot to a
            // single 2^n context sweep.
            budget.check_deadline()?;
            let bits: Mask = (1 << i) | (1 << j);
            for context in all_masks(n) {
                if context & bits != 0 {
                    continue;
                }
                let xi = (context | (1 << i)) as usize;
                let xj = (context | (1 << j)) as usize;
                let xij = (context | bits) as usize;
                let mut value = &h[xi] + &h[xj];
                value -= &h[xij];
                value -= &h[context as usize];
                if value.is_negative() {
                    violated.push((value, ElementalId::Submodular { i, j, context }));
                }
            }
        }
        SEPARATION_SCANS.inc();
        ELEMENTALS_SCANNED.add(self.skeleton.num_elemental() as u64);
        violated.sort_by(|a, b| a.0.cmp(&b.0));
        violated.truncate(limit);
        VIOLATED_ROWS.add(violated.len() as u64);
        Ok(violated.into_iter().map(|(_, id)| id).collect())
    }
}

/// A thread-safe, cheaply clonable cache of [`ConeSkeleton`]s keyed by
/// universe size.  Clones share the underlying map, so a cache created by a
/// batch engine and handed to its per-worker decision contexts builds each
/// skeleton once per process, not once per worker or per probe.
#[derive(Clone, Debug, Default)]
pub struct SkeletonCache {
    inner: Arc<Mutex<HashMap<usize, Arc<ConeSkeleton>>>>,
}

impl SkeletonCache {
    /// Creates an empty cache.
    pub fn new() -> SkeletonCache {
        SkeletonCache::default()
    }

    /// The skeleton for an `n`-variable universe, building it on first use.
    pub fn get(&self, n: usize) -> Arc<ConeSkeleton> {
        let mut map = self.inner.lock().expect("skeleton cache poisoned");
        Arc::clone(
            map.entry(n)
                .or_insert_with(|| Arc::new(ConeSkeleton::new(n))),
        )
    }

    /// Number of universe sizes cached so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("skeleton cache poisoned").len()
    }

    /// The universe sizes with a built skeleton, in ascending order.  This is
    /// the cheap "warm-state manifest" a cache snapshot records: skeletons
    /// are pure functions of `n`, so persisting the sizes alone lets a
    /// restarted process rebuild exactly the skeletons its predecessor had
    /// warmed, without serializing the (large, reconstructible) row data.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .inner
            .lock()
            .expect("skeleton cache poisoned")
            .keys()
            .copied()
            .collect();
        sizes.sort_unstable();
        sizes
    }

    /// `true` iff no skeleton has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setfn::SetFunction;
    use crate::shannon::{elemental_inequalities, is_polymatroid};
    use bqc_arith::int;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ids_enumerate_exactly_the_elemental_inequalities() {
        for n in 0..=5 {
            let ids: Vec<ElementalId> = elemental_ids(n).collect();
            let eager = elemental_inequalities(n);
            assert_eq!(ids.len(), eager.len(), "count for n = {n}");
            for (id, constraint) in ids.iter().zip(&eager) {
                assert_eq!(id.label(), constraint.label, "label for n = {n}");
                let (terms, len) = id.terms(n);
                let sparse: Vec<(Mask, i64)> = terms[..len]
                    .iter()
                    .copied()
                    .filter(|(_, c)| *c != 0)
                    .collect();
                let eager_terms: Vec<(Mask, i64)> = constraint
                    .terms
                    .iter()
                    .map(|(mask, coeff)| (*mask, if coeff == &Rational::one() { 1 } else { -1 }))
                    .collect();
                assert_eq!(sparse, eager_terms, "terms of {}", id.label());
            }
        }
    }

    #[test]
    fn separator_certifies_polymatroids_and_flags_violations() {
        let cache = SkeletonCache::new();
        let separator = ShannonSeparator::new(cache.get(3));
        // The parity function is a polymatroid: nothing is violated.
        let parity = vec![
            int(0),
            int(1),
            int(1),
            int(2),
            int(1),
            int(2),
            int(2),
            int(2),
        ];
        assert!(separator
            .most_violated(&parity, 16, &Budget::unlimited())
            .unwrap()
            .is_empty());
        // A supermodular bump violates submodularity at the empty context.
        let bump = vec![
            int(0),
            int(1),
            int(1),
            int(3),
            int(1),
            int(2),
            int(2),
            int(3),
        ];
        let violated = separator
            .most_violated(&bump, 16, &Budget::unlimited())
            .unwrap();
        assert!(!violated.is_empty());
        for id in &violated {
            assert!(id.evaluate_on(&bump, 3).is_negative(), "{}", id.label());
        }
        // The most violated row comes first.
        let worst = id_violation(&violated[0], &bump);
        for id in &violated[1..] {
            assert!(id_violation(id, &bump) >= worst);
        }
        // The certified parity point really is a polymatroid.
        let h = SetFunction::from_values(names(&["X", "Y", "Z"]), parity);
        assert!(is_polymatroid(&h));
    }

    fn id_violation(id: &ElementalId, h: &[Rational]) -> Rational {
        id.evaluate_on(h, 3)
    }

    #[test]
    fn separator_respects_the_limit_and_scan_is_exact() {
        let cache = SkeletonCache::new();
        let separator = ShannonSeparator::new(cache.get(4));
        // A strongly supermodular function: h(S) = |S|² violates many rows.
        let h: Vec<Rational> = all_masks(4)
            .map(|mask| int((mask.count_ones() * mask.count_ones()) as i64))
            .collect();
        let all = separator
            .most_violated(&h, usize::MAX, &Budget::unlimited())
            .unwrap();
        let capped = separator
            .most_violated(&h, 3, &Budget::unlimited())
            .unwrap();
        assert_eq!(capped.len(), 3);
        assert_eq!(&all[..3], &capped[..]);
        // Exactness: every violated elemental id is in the uncapped answer.
        let brute: Vec<ElementalId> = elemental_ids(4)
            .filter(|id| id.evaluate_on(&h, 4).is_negative())
            .collect();
        assert_eq!(all.len(), brute.len());
        for id in brute {
            assert!(all.contains(&id), "{} missing", id.label());
        }
    }

    #[test]
    fn skeleton_cache_shares_one_skeleton_per_size() {
        let cache = SkeletonCache::new();
        assert!(cache.is_empty());
        let a = cache.get(5);
        let clone = cache.clone();
        let b = clone.get(5);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(a.universe_size(), 5);
        assert_eq!(a.num_elemental(), elemental_count(5));
        // n monotonicity + 2·C(n,2) extreme-context submodularity rows.
        assert_eq!(a.seed_rows().count(), 5 + 2 * 10);
        // n = 2 collapses the two submodularity fringes onto one row.
        assert_eq!(cache.get(2).seed_rows().count(), 2 + 1);
        assert_eq!(cache.get(1).seed_rows().count(), 1);
        // Seeds are genuine elemental inequalities (no duplicates).
        let seeds: Vec<ElementalId> = a.seed_rows().collect();
        let all: Vec<ElementalId> = crate::separator::elemental_ids(5).collect();
        for seed in &seeds {
            assert!(all.contains(seed), "{} not elemental", seed.label());
        }
        let distinct: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(distinct.len(), seeds.len());
    }
}
