//! Sparse revised simplex with a product-form basis inverse.
//!
//! This is the production solver behind [`crate::LpProblem`].  Compared with
//! the dense tableau retained in [`crate::oracle`], it
//!
//! * stores `A` column-major and sparse ([`crate::sparse::SparseMatrix`]) —
//!   the Shannon-cone elemental matrix is >95% structural zeros;
//! * represents the basis inverse as an **eta file** (product form): each
//!   pivot appends one sparse Gauss–Jordan eta vector, and the file is
//!   periodically collapsed by refactorizing (re-inverting) the current basis
//!   from scratch;
//! * prices with **Dantzig's rule over a rotating candidate window** (partial
//!   pricing) and falls back to **Bland's rule** after a run of degenerate
//!   pivots, which restores the termination guarantee without paying Bland's
//!   slow convergence on every iteration;
//! * performs all arithmetic in [`crate::scalar::Scalar`], the `i128`
//!   small-rational representation that promotes to `BigRational` only on
//!   overflow — pivots on ±1 entries (the overwhelming majority here) never
//!   allocate;
//! * accepts a **warm-start basis**: a caller that solves a sequence of
//!   same-shaped programs can seed each solve with the previous optimal
//!   basis and skip phase 1 entirely whenever that basis is still feasible.
//!
//! Phase 1 uses a **crash basis**: every row that owns a singleton column
//! with a feasible ratio (in particular every slack/surplus row with zero
//! right-hand side, i.e. almost every elemental-inequality row) starts basic
//! on that column, and only the remaining rows get artificial variables.  On
//! the cone programs this leaves a handful of artificials instead of one per
//! row.

use crate::scalar::Scalar;
use crate::sparse::SparseMatrix;
use bqc_arith::Rational;
use bqc_obs::{Budget, Exhausted, LazyCounter, LazyHistogram};

static PIVOTS: LazyCounter = LazyCounter::new("bqc_lp_pivots_total");
static DEGENERATE_PIVOTS: LazyCounter = LazyCounter::new("bqc_lp_degenerate_pivots_total");
static REINVERSIONS: LazyCounter = LazyCounter::new("bqc_lp_reinversions_total");
static BLAND_FALLBACKS: LazyCounter = LazyCounter::new("bqc_lp_bland_fallbacks_total");
static SOLVES: LazyCounter = LazyCounter::new("bqc_lp_solves_total");
static RESUME_SOLVES: LazyCounter = LazyCounter::new("bqc_lp_resume_solves_total");
static WARM_START_HITS: LazyCounter = LazyCounter::new("bqc_lp_warm_start_hits_total");
static WARM_START_REJECTS: LazyCounter = LazyCounter::new("bqc_lp_warm_start_rejects_total");
static PIVOTS_PER_SOLVE: LazyHistogram = LazyHistogram::new("bqc_lp_pivots_per_solve");
static BUDGET_EXHAUSTED: LazyCounter = LazyCounter::new("bqc_lp_budget_exhausted_total");

/// Result of running the simplex method on a standard-form program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// An optimal basic feasible solution was found.
    Optimal {
        /// Optimal objective value `c·x`.
        objective: Rational,
        /// Values of the standard-form variables (length = number of columns).
        solution: Vec<Rational>,
    },
    /// The constraint system `A x = b, x ≥ 0` has no solution.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

/// Outcome of [`solve_sparse`], carrying the final basis for warm-start reuse
/// and the optimal dual vector.
#[derive(Clone, Debug)]
pub(crate) struct SparseSolve {
    /// The classification and optimal point, as for the dense solver.
    pub outcome: SimplexOutcome,
    /// The optimal basis (one structural/slack column per row), when the
    /// solve ended `Optimal` with no artificial column left basic.
    pub basis: Option<Vec<usize>>,
    /// The optimal dual vector `y = c_B B⁻¹` (one multiplier per row), when
    /// the solve ended `Optimal`.  By strong duality `y·b` equals the
    /// optimal objective, and every column prices out non-negative; callers
    /// use this for Farkas-style certificate extraction.
    pub duals: Option<Vec<Rational>>,
}

/// Number of eta vectors accumulated before the basis is refactorized.
const REFACTOR_EVERY: usize = 64;

/// Consecutive degenerate pivots tolerated before switching to Bland's rule.
fn stall_limit(m: usize) -> usize {
    2 * m + 16
}

/// One Gauss–Jordan elementary matrix: identity except column `p`.
struct Eta {
    p: usize,
    /// Sparse column `p` of the matrix, **including** the diagonal entry
    /// `(p, 1/alpha_p)`.
    col: Vec<(usize, Scalar)>,
}

impl Eta {
    /// Builds the eta that maps the (dense) column `alpha` to `e_p`.
    fn from_pivot(alpha: &[Scalar], p: usize) -> Eta {
        let inv = alpha[p].recip();
        let mut col = Vec::with_capacity(8);
        for (i, value) in alpha.iter().enumerate() {
            if i == p {
                col.push((i, inv.clone()));
            } else if !value.is_zero() {
                col.push((i, value.mul(&inv).neg()));
            }
        }
        Eta { p, col }
    }
}

/// Applies the eta file left-to-right: computes `B⁻¹ v` in place.
fn ftran(etas: &[Eta], v: &mut [Scalar]) {
    for eta in etas {
        let vp = std::mem::take(&mut v[eta.p]);
        if vp.is_zero() {
            continue;
        }
        for (i, t) in &eta.col {
            v[*i] = v[*i].add_mul(t, &vp);
        }
    }
}

/// Applies the eta file right-to-left to a row vector: computes `u B⁻¹` in
/// place.
fn btran(etas: &[Eta], u: &mut [Scalar]) {
    for eta in etas.iter().rev() {
        let mut acc = Scalar::ZERO;
        for (i, t) in &eta.col {
            if !u[*i].is_zero() {
                acc = acc.add_mul(&u[*i], t);
            }
        }
        u[eta.p] = acc;
    }
}

/// Which objective the iteration loop is optimizing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Minimize the sum of artificial variables.
    One,
    /// Minimize the true cost vector.
    Two,
}

struct Solver<'a> {
    a: &'a SparseMatrix,
    b: &'a [Scalar],
    c: &'a [Scalar],
    m: usize,
    /// Structural + slack columns; `n..n + m` are virtual artificial columns.
    n: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Basic variable values, indexed by row.
    x: Vec<Scalar>,
    etas: Vec<Eta>,
    /// Rotating start of the partial-pricing window.
    pricing_start: usize,
    /// Consecutive degenerate pivots; triggers the Bland fallback.
    stalls: usize,
    bland: bool,
    /// Pivots executed by this solve, observed into the per-solve histogram.
    pivots: u64,
    /// The decision's resource budget, charged one pivot at a time.  The
    /// unlimited budget makes every charge a single pointer test, so the
    /// unbudgeted hot path is unchanged.
    budget: &'a Budget,
}

impl<'a> Solver<'a> {
    /// Scatters column `j` (real or virtual artificial) into `out`, which
    /// must be all-zero.
    fn scatter(&self, j: usize, out: &mut [Scalar]) {
        if j < self.n {
            self.a.scatter_col(j, out);
        } else {
            out[j - self.n] = Scalar::ONE;
        }
    }

    /// Sparse entry count of column `j`.
    fn col_len(&self, j: usize) -> usize {
        if j < self.n {
            self.a.col(j).len()
        } else {
            1
        }
    }

    /// Re-inverts the basis `cols` from scratch, producing a fresh eta file
    /// and the pivot row assigned to each basis slot.  Returns `None` when
    /// the columns are linearly dependent (possible for caller-supplied
    /// warm-start bases, never for a basis reached by pivoting).
    fn reinvert(&self, cols: &[usize]) -> Option<(Vec<Eta>, Vec<usize>)> {
        let m = self.m;
        debug_assert_eq!(cols.len(), m);
        // Process sparsest columns first: their etas stay small and unit
        // pivots are found early.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&slot| self.col_len(cols[slot]));

        let mut etas: Vec<Eta> = Vec::with_capacity(m);
        let mut pivoted = vec![false; m];
        let mut row_of_slot = vec![usize::MAX; m];
        let mut work = vec![Scalar::ZERO; m];
        for &slot in &order {
            self.scatter(cols[slot], &mut work);
            ftran(&etas, &mut work);
            // Prefer a unit pivot (no fraction growth), then any nonzero.
            let mut pivot = None;
            for (i, value) in work.iter().enumerate() {
                if pivoted[i] || value.is_zero() {
                    continue;
                }
                if value.is_unit() {
                    pivot = Some(i);
                    break;
                }
                if pivot.is_none() {
                    pivot = Some(i);
                }
            }
            let Some(p) = pivot else {
                return None; // singular
            };
            etas.push(Eta::from_pivot(&work, p));
            pivoted[p] = true;
            row_of_slot[slot] = p;
            work.iter_mut().for_each(|v| *v = Scalar::ZERO);
        }
        Some((etas, row_of_slot))
    }

    /// Replaces the eta file by a fresh factorization of the current basis
    /// and recomputes the basic values from `b`.
    fn refactorize(&mut self) {
        REINVERSIONS.inc();
        bqc_obs::instant("reinversion");
        let cols = self.basis.clone();
        let (etas, row_of_slot) = self
            .reinvert(&cols)
            .expect("a reached basis is nonsingular");
        self.etas = etas;
        for (slot, &row) in row_of_slot.iter().enumerate() {
            self.basis[row] = cols[slot];
        }
        self.recompute_x();
    }

    /// Sets `x = B⁻¹ b`.
    fn recompute_x(&mut self) {
        let mut v = self.b.to_vec();
        ftran(&self.etas, &mut v);
        self.x = v;
    }

    /// Cost of column `j` under `phase`.
    fn cost(&self, phase: Phase, j: usize) -> Scalar {
        match phase {
            Phase::One => {
                if j >= self.n {
                    Scalar::ONE
                } else {
                    Scalar::ZERO
                }
            }
            // Artificial columns still basic in phase 2 sit at value zero on
            // redundant rows; their cost contribution is zero.
            Phase::Two => {
                if j >= self.n {
                    Scalar::ZERO
                } else {
                    self.c[j].clone()
                }
            }
        }
    }

    /// The dual vector `y = c_B B⁻¹` for `phase`.  Returns `None` when
    /// `c_B = 0` (then every reduced cost is just `c_j`).
    fn duals(&self, phase: Phase) -> Option<Vec<Scalar>> {
        let mut u: Vec<Scalar> = (0..self.m)
            .map(|i| self.cost(phase, self.basis[i]))
            .collect();
        if u.iter().all(Scalar::is_zero) {
            return None;
        }
        btran(&self.etas, &mut u);
        Some(u)
    }

    /// Reduced cost of nonbasic column `j`.
    fn reduced_cost(&self, phase: Phase, y: Option<&[Scalar]>, j: usize) -> Scalar {
        let mut d = self.cost(phase, j);
        if let Some(y) = y {
            for (i, value) in self.a.col(j) {
                if !y[*i].is_zero() {
                    d = d.sub_mul(&y[*i], value);
                }
            }
        }
        d
    }

    /// Picks the entering column, or `None` at optimality.
    ///
    /// In Bland mode this is the smallest-index column with a negative
    /// reduced cost.  Otherwise a rotating window of candidates is scanned
    /// and the most negative reduced cost in the first non-empty window wins
    /// (Dantzig with partial pricing); the scan keeps sliding until the whole
    /// column range has been covered, so optimality claims are exact.
    fn price(&mut self, phase: Phase, y: Option<&[Scalar]>) -> Option<usize> {
        let n = self.n;
        if n == 0 {
            return None;
        }
        if self.bland {
            return (0..n)
                .find(|&j| !self.in_basis[j] && self.reduced_cost(phase, y, j).is_negative());
        }
        let window = (n / 8).clamp(32, 256);
        let mut scanned = 0;
        let mut cursor = self.pricing_start % n;
        while scanned < n {
            let mut best: Option<(usize, Scalar)> = None;
            let mut in_window = 0;
            while in_window < window && scanned < n {
                let j = cursor;
                cursor = (cursor + 1) % n;
                scanned += 1;
                in_window += 1;
                if self.in_basis[j] {
                    continue;
                }
                let d = self.reduced_cost(phase, y, j);
                if d.is_negative() {
                    let better = match &best {
                        None => true,
                        Some((_, bd)) => d.cmp_value(bd) == std::cmp::Ordering::Less,
                    };
                    if better {
                        best = Some((j, d));
                    }
                }
            }
            if let Some((j, _)) = best {
                self.pricing_start = cursor;
                return Some(j);
            }
        }
        None
    }

    /// The ratio test: picks the leaving row for entering column `alpha`.
    ///
    /// Ties are always broken by the smallest basic-variable index, which is
    /// exactly Bland's leaving rule, so the Bland fallback only has to change
    /// the entering rule.  In phase 2, any row still basic on an artificial
    /// variable blocks at ratio zero whenever `alpha` touches it (either
    /// sign): the artificial sits at value zero and must never move off it.
    fn leaving_row(&self, phase: Phase, alpha: &[Scalar]) -> Option<usize> {
        let mut best: Option<(usize, Scalar)> = None;
        for (i, coeff) in alpha.iter().enumerate() {
            if coeff.is_zero() {
                continue;
            }
            let artificial_block = phase == Phase::Two && self.basis[i] >= self.n;
            if !artificial_block && !coeff.is_positive() {
                continue;
            }
            let ratio = if artificial_block {
                debug_assert!(self.x[i].is_zero());
                Scalar::ZERO
            } else {
                self.x[i].div(coeff)
            };
            let better = match &best {
                None => true,
                Some((row, best_ratio)) => match ratio.cmp_value(best_ratio) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => self.basis[i] < self.basis[*row],
                    std::cmp::Ordering::Greater => false,
                },
            };
            if better {
                best = Some((i, ratio));
            }
        }
        best.map(|(row, _)| row)
    }

    /// Executes the pivot `(p, q)` with FTRANed entering column `alpha`.
    ///
    /// Charges the decision budget first: an exhausted budget aborts the
    /// solve *before* the basis mutates, so the pivot cap is strict.
    fn pivot(&mut self, p: usize, q: usize, alpha: &[Scalar]) -> Result<(), Exhausted> {
        if let Err(e) = self.budget.charge_pivots(1) {
            BUDGET_EXHAUSTED.inc();
            return Err(e);
        }
        self.pivots += 1;
        PIVOTS.inc();
        bqc_obs::instant("pivot");
        let t = self.x[p].div(&alpha[p]);
        if t.is_zero() {
            DEGENERATE_PIVOTS.inc();
            self.stalls += 1;
            if !self.bland && self.stalls > stall_limit(self.m) {
                self.bland = true;
                BLAND_FALLBACKS.inc();
                bqc_obs::instant("bland-fallback");
            }
        } else {
            self.stalls = 0;
            self.bland = false;
            for (i, coeff) in alpha.iter().enumerate() {
                if i != p && !coeff.is_zero() {
                    self.x[i] = self.x[i].sub_mul(coeff, &t);
                }
            }
        }
        self.x[p] = t;
        self.in_basis[self.basis[p]] = false;
        self.in_basis[q] = true;
        self.basis[p] = q;
        self.etas.push(Eta::from_pivot(alpha, p));
        if self.etas.len() >= REFACTOR_EVERY {
            self.refactorize();
        }
        Ok(())
    }

    /// Runs simplex iterations for `phase` until optimality or unboundedness.
    /// Returns `Ok(false)` on unboundedness (impossible in phase 1) and
    /// `Err` when the decision budget runs out mid-solve.
    fn optimize(&mut self, phase: Phase) -> Result<bool, Exhausted> {
        let mut work = vec![Scalar::ZERO; self.m];
        loop {
            let y = self.duals(phase);
            let Some(q) = self.price(phase, y.as_deref()) else {
                return Ok(true);
            };
            work.iter_mut().for_each(|v| *v = Scalar::ZERO);
            self.scatter(q, &mut work);
            ftran(&self.etas, &mut work);
            let Some(p) = self.leaving_row(phase, &work) else {
                debug_assert!(phase == Phase::Two, "phase 1 is bounded below by 0");
                return Ok(false);
            };
            self.pivot(p, q, &work)?;
        }
    }

    /// Sum of the artificial basic values (the phase-1 objective).
    fn infeasibility(&self) -> Scalar {
        let mut total = Scalar::ZERO;
        for i in 0..self.m {
            if self.basis[i] >= self.n {
                total = total.add(&self.x[i]);
            }
        }
        total
    }

    /// After phase 1 ends at objective zero, pivots every artificial that is
    /// still basic (at value zero) out of the basis wherever some structural
    /// column can replace it; rows whose entire structural part is zero are
    /// redundant and keep their artificial harmlessly pinned at zero.
    ///
    /// The scan repeats until a full pass makes no pivot: a pivot can trigger
    /// a refactorization, which re-permutes basis rows and may move a not-yet
    /// -processed artificial to a row the pass already visited.  Each pivot
    /// removes one artificial for good (they are never priced back in), so
    /// the outer loop terminates after at most `m + 1` passes.
    fn drive_out_artificials(&mut self) -> Result<(), Exhausted> {
        let mut work = vec![Scalar::ZERO; self.m];
        loop {
            let mut pivoted = false;
            for p in 0..self.m {
                if self.basis[p] < self.n {
                    continue;
                }
                // Row p of B⁻¹A: r = e_p B⁻¹, then r · a_j per column.
                let mut r = vec![Scalar::ZERO; self.m];
                r[p] = Scalar::ONE;
                btran(&self.etas, &mut r);
                let entering = (0..self.n).find(|&j| {
                    if self.in_basis[j] {
                        return false;
                    }
                    let mut dot = Scalar::ZERO;
                    for (i, value) in self.a.col(j) {
                        if !r[*i].is_zero() {
                            dot = dot.add_mul(&r[*i], value);
                        }
                    }
                    !dot.is_zero()
                });
                let Some(q) = entering else {
                    continue;
                };
                pivoted = true;
                work.iter_mut().for_each(|v| *v = Scalar::ZERO);
                self.scatter(q, &mut work);
                ftran(&self.etas, &mut work);
                debug_assert!(!work[p].is_zero());
                self.pivot(p, q, &work)?;
            }
            if !pivoted {
                break;
            }
        }
        Ok(())
    }

    /// Extracts the optimal outcome after a phase-2 optimum.  Dual
    /// extraction (one BTRAN over the eta file plus a `Rational` conversion
    /// per row) is skipped unless asked for — most callers are feasibility
    /// probes that never look at multipliers.
    fn extract(&self, want_duals: bool) -> SparseSolve {
        PIVOTS_PER_SOLVE.observe(self.pivots);
        let mut solution = vec![Rational::zero(); self.n];
        let mut objective = Rational::zero();
        let mut clean = true;
        for i in 0..self.m {
            let j = self.basis[i];
            if j < self.n {
                objective += self.c[j].mul(&self.x[i]).to_rational();
                solution[j] = self.x[i].to_rational();
            } else {
                debug_assert!(self.x[i].is_zero());
                clean = false;
            }
        }
        let duals = want_duals.then(|| {
            self.duals(Phase::Two)
                .unwrap_or_else(|| vec![Scalar::ZERO; self.m])
                .into_iter()
                .map(|y| y.to_rational())
                .collect()
        });
        SparseSolve {
            outcome: SimplexOutcome::Optimal {
                objective,
                solution,
            },
            basis: clean.then(|| self.basis.clone()),
            duals,
        }
    }
}

/// Re-enters the simplex from a caller-supplied starting basis, for the
/// incremental-row workflow of [`crate::IncrementalSolver`].
///
/// Unlike [`solve_sparse`]'s warm start, the basis may contain **artificial
/// columns**: index `n + i` stands for the artificial variable of row `i`
/// (the unit column `e_i`).  The caller arranges — by orienting each freshly
/// appended row so its basic slack or artificial takes a non-negative value —
/// that the basis is primal-feasible; the solve then runs a **bounded
/// phase-1 restart** (minimize the artificial sum, starting from this basis,
/// which only has to clear the handful of artificials on the new rows)
/// instead of a cold crash-basis phase 1 over every row.  `b` may contain
/// negative entries here: no crash basis is built, so the `b ≥ 0`
/// normalization of the cold path is not needed.
///
/// Returns `Ok(None)` when the basis is unusable (wrong length, repeated or
/// out-of-range columns, singular, or primal-infeasible after
/// factorization); the caller falls back to a cold solve.
///
/// `Err` means the decision `budget` ran out mid-solve; the partial basis is
/// discarded (never returned), so a budget-aborted solve can't poison a
/// warm-start cache with a half-optimized basis.
pub(crate) fn solve_sparse_resume(
    a: &SparseMatrix,
    b: &[Scalar],
    c: &[Scalar],
    basis: &[usize],
    want_duals: bool,
    budget: &Budget,
) -> Result<Option<SparseSolve>, Exhausted> {
    let m = a.num_rows();
    let n = a.num_cols();
    assert_eq!(b.len(), m, "rhs length must equal the number of rows");
    assert_eq!(c.len(), n, "cost length must equal the number of columns");

    RESUME_SOLVES.inc();
    SOLVES.inc();
    let _solve_span = bqc_obs::span("lp-solve");

    if basis.len() != m || basis.iter().any(|&j| j >= n + m) {
        return Ok(None);
    }
    let mut seen = vec![false; n + m];
    if !basis
        .iter()
        .all(|&j| !std::mem::replace(&mut seen[j], true))
    {
        return Ok(None);
    }

    let mut solver = Solver {
        a,
        b,
        c,
        m,
        n,
        basis: vec![0; m],
        in_basis: vec![false; n + m],
        x: Vec::new(),
        etas: Vec::new(),
        pricing_start: 0,
        stalls: 0,
        bland: false,
        pivots: 0,
        budget,
    };
    let Some((etas, row_of_slot)) = solver.reinvert(basis) else {
        return Ok(None);
    };
    solver.etas = etas;
    for (slot, &row) in row_of_slot.iter().enumerate() {
        solver.basis[row] = basis[slot];
    }
    solver.recompute_x();
    if solver.x.iter().any(Scalar::is_negative) {
        return Ok(None);
    }
    for &j in basis {
        solver.in_basis[j] = true;
    }

    // Bounded phase 1: only the artificials still carrying a positive value
    // (the violated appended rows) have to be driven to zero.
    if !solver.infeasibility().is_zero() {
        let bounded = solver.optimize(Phase::One)?;
        debug_assert!(bounded, "phase 1 objective is bounded below by 0");
        if solver.infeasibility().is_positive() {
            PIVOTS_PER_SOLVE.observe(solver.pivots);
            return Ok(Some(SparseSolve {
                outcome: SimplexOutcome::Infeasible,
                basis: None,
                duals: None,
            }));
        }
        solver.stalls = 0;
        solver.bland = false;
    }
    solver.drive_out_artificials()?;

    if !solver.optimize(Phase::Two)? {
        PIVOTS_PER_SOLVE.observe(solver.pivots);
        return Ok(Some(SparseSolve {
            outcome: SimplexOutcome::Unbounded,
            basis: None,
            duals: None,
        }));
    }
    Ok(Some(solver.extract(want_duals)))
}

/// Solves `minimize c·x  s.t.  A x = b, x ≥ 0` with `A` sparse and `b ≥ 0`,
/// optionally extracting the optimal duals, under a decision budget.
///
/// `warm` optionally supplies a starting basis (one column per row, all
/// structural); an unusable basis — wrong length, repeated or out-of-range
/// columns, singular, or infeasible for this `b` — silently falls back to
/// the crash cold start, so warm starting never affects correctness.
/// `Err` means the budget ran out mid-solve; no partial result escapes.
pub(crate) fn solve_sparse(
    a: &SparseMatrix,
    b: &[Scalar],
    c: &[Scalar],
    warm: Option<&[usize]>,
    want_duals: bool,
    budget: &Budget,
) -> Result<SparseSolve, Exhausted> {
    let m = a.num_rows();
    let n = a.num_cols();
    assert_eq!(b.len(), m, "rhs length must equal the number of rows");
    assert_eq!(c.len(), n, "cost length must equal the number of columns");
    debug_assert!(b.iter().all(|v| !v.is_negative()), "rhs must be re-signed");

    SOLVES.inc();
    let _solve_span = bqc_obs::span("lp-solve");

    let mut solver = Solver {
        a,
        b,
        c,
        m,
        n,
        basis: Vec::new(),
        in_basis: vec![false; n + m],
        x: Vec::new(),
        etas: Vec::new(),
        pricing_start: 0,
        stalls: 0,
        bland: false,
        pivots: 0,
        budget,
    };

    // Warm start: adopt the supplied basis if it factorizes and is feasible.
    let mut started = false;
    if let Some(cols) = warm {
        if cols.len() == m && cols.iter().all(|&j| j < n) && {
            let mut seen = vec![false; n];
            cols.iter().all(|&j| !std::mem::replace(&mut seen[j], true))
        } {
            if let Some((etas, row_of_slot)) = solver.reinvert(cols) {
                solver.etas = etas;
                solver.basis = vec![0; m];
                for (slot, &row) in row_of_slot.iter().enumerate() {
                    solver.basis[row] = cols[slot];
                }
                solver.recompute_x();
                if solver.x.iter().all(|v| !v.is_negative()) {
                    for &j in cols {
                        solver.in_basis[j] = true;
                    }
                    started = true;
                } else {
                    solver.etas.clear();
                }
            }
        }
    }

    if started {
        WARM_START_HITS.inc();
    } else if warm.is_some() {
        WARM_START_REJECTS.inc();
    }

    if !started {
        // Crash basis: rows take a singleton column when its ratio is
        // feasible (slack/surplus rows with zero rhs in particular), and an
        // artificial otherwise.
        let mut basis: Vec<usize> = (0..m).map(|i| n + i).collect();
        let mut x: Vec<Scalar> = b.to_vec();
        let mut taken = vec![false; m];
        for j in 0..n {
            if let [(i, value)] = a.col(j) {
                if !taken[*i] && (b[*i].is_zero() || value.is_positive()) {
                    taken[*i] = true;
                    basis[*i] = j;
                    x[*i] = b[*i].div(value);
                }
            }
        }
        solver.basis = basis;
        solver.x = x;
        for &j in &solver.basis {
            solver.in_basis[j] = true;
        }
        // The crash columns are singletons, so the basis is diagonal; its
        // inverse still needs etas for the non-unit entries.
        if solver.basis.iter().any(|&j| j < n) {
            let cols = solver.basis.clone();
            let (etas, row_of_slot) = solver
                .reinvert(&cols)
                .expect("a diagonal basis of nonzero singletons is nonsingular");
            solver.etas = etas;
            for (slot, &row) in row_of_slot.iter().enumerate() {
                solver.basis[row] = cols[slot];
            }
        }

        // Phase 1, skipped when the crash start is already feasible.
        if !solver.infeasibility().is_zero() {
            let bounded = solver.optimize(Phase::One)?;
            debug_assert!(bounded, "phase 1 objective is bounded below by 0");
            if solver.infeasibility().is_positive() {
                PIVOTS_PER_SOLVE.observe(solver.pivots);
                return Ok(SparseSolve {
                    outcome: SimplexOutcome::Infeasible,
                    basis: None,
                    duals: None,
                });
            }
        }
        solver.drive_out_artificials()?;
        solver.stalls = 0;
        solver.bland = false;
    }

    if !solver.optimize(Phase::Two)? {
        PIVOTS_PER_SOLVE.observe(solver.pivots);
        return Ok(SparseSolve {
            outcome: SimplexOutcome::Unbounded,
            basis: None,
            duals: None,
        });
    }
    Ok(solver.extract(want_duals))
}

/// Solves the standard-form program `minimize c·x subject to A x = b, x ≥ 0`.
///
/// * `a` is a dense `m × n` coefficient matrix (each inner vector a row).
/// * `b` is the right-hand side of length `m` (any sign; rows are re-signed
///   internally).
/// * `c` is the objective vector of length `n`.
///
/// This converts the input to sparse column-major form and runs the revised
/// simplex; it exists for API compatibility and for callers whose data is
/// genuinely dense.  [`crate::LpProblem`] builds the sparse form directly.
///
/// # Panics
///
/// Panics if the dimensions of `a`, `b` and `c` are inconsistent.
pub fn solve_standard_form(a: &[Vec<Rational>], b: &[Rational], c: &[Rational]) -> SimplexOutcome {
    let m = a.len();
    assert_eq!(b.len(), m, "rhs length must equal the number of rows");
    let n = c.len();
    for (i, row) in a.iter().enumerate() {
        assert_eq!(row.len(), n, "row {i} has wrong length");
    }
    let negate: Vec<bool> = b.iter().map(Rational::is_negative).collect();
    let mut sparse = SparseMatrix::new(m);
    for j in 0..n {
        sparse.push_col(a.iter().enumerate().filter_map(|(i, row)| {
            if row[j].is_zero() {
                None
            } else {
                let v = if negate[i] { -&row[j] } else { row[j].clone() };
                Some((i, Scalar::from_rational(v)))
            }
        }));
    }
    let b: Vec<Scalar> = b
        .iter()
        .zip(&negate)
        .map(|(v, flip)| Scalar::from_rational(if *flip { -v } else { v.clone() }))
        .collect();
    let c: Vec<Scalar> = c.iter().map(|v| Scalar::from_rational(v.clone())).collect();
    solve_sparse(&sparse, &b, &c, None, false, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
        .outcome
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
        match solve_standard_form(&a, &b, &c) {
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
        let a = vec![vec![r(1)], vec![r(1)]];
        let b = vec![r(1), r(2)];
        let c = vec![r(0)];
        assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let a = vec![vec![r(1), r(-1)]];
        let b = vec![r(0)];
        let c = vec![r(-1), r(0)];
        assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        let a = vec![vec![r(-1)]];
        let b = vec![r(-3)];
        let c = vec![r(1)];
        match solve_standard_form(&a, &b, &c) {
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
        let a = vec![vec![r(1), r(1)], vec![r(1), r(1)]];
        let b = vec![r(1), r(1)];
        let c = vec![r(0), r(1)];
        match solve_standard_form(&a, &b, &c) {
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
        let a = vec![vec![r(1), r(3)], vec![r(3), r(1)]];
        let b = vec![r(2), r(2)];
        let c = vec![r(1), r(0)];
        match solve_standard_form(&a, &b, &c) {
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
    fn beales_cycling_example_terminates() {
        let a = vec![
            vec![ratio(1, 4), r(-60), ratio(-1, 25), r(9), r(1), r(0), r(0)],
            vec![ratio(1, 2), r(-90), ratio(-1, 50), r(3), r(0), r(1), r(0)],
            vec![r(0), r(0), r(1), r(0), r(0), r(0), r(1)],
        ];
        let b = vec![r(0), r(0), r(1)];
        let c = vec![ratio(-3, 4), r(150), ratio(-1, 50), r(6), r(0), r(0), r(0)];
        match solve_standard_form(&a, &b, &c) {
            SimplexOutcome::Optimal { objective, .. } => {
                assert_eq!(objective, ratio(-1, 20));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn warm_start_reuses_a_feasible_basis() {
        // x + y = 2, x - y = 0 with objective x: optimal basis {x, y}.
        let mut a = SparseMatrix::new(2);
        let s = Scalar::from_int;
        a.push_col(vec![(0, s(1)), (1, s(1))]);
        a.push_col(vec![(0, s(1)), (1, s(-1))]);
        let b = vec![s(2), s(0)];
        let c = vec![s(1), Scalar::ZERO];
        let cold = solve_sparse(&a, &b, &c, None, false, &Budget::unlimited()).unwrap();
        let basis = cold.basis.expect("clean optimal basis");
        // Re-solve with a perturbed rhs from the old basis: feasible, so the
        // warm path must produce the same optimum as a cold solve.
        let b2 = vec![s(4), s(2)];
        let warm = solve_sparse(&a, &b2, &c, Some(&basis), false, &Budget::unlimited()).unwrap();
        let coldagain = solve_sparse(&a, &b2, &c, None, false, &Budget::unlimited()).unwrap();
        assert_eq!(warm.outcome, coldagain.outcome);
        match warm.outcome {
            SimplexOutcome::Optimal { solution, .. } => {
                assert_eq!(solution, vec![r(3), r(1)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // Garbage warm bases are ignored, not trusted.
        let garbage = vec![0usize, 0];
        let ignored =
            solve_sparse(&a, &b2, &c, Some(&garbage), false, &Budget::unlimited()).unwrap();
        assert_eq!(ignored.outcome, coldagain.outcome);
    }
}
