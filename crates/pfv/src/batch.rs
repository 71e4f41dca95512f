//! Vectorized batch evaluation of Lemma-1 densities over columnar leaves.
//!
//! The query hot path of the Gauss-tree spends most of its CPU time
//! evaluating the joint density `ln p(q|v)` (Lemma 1, see [`crate::combine`])
//! for every entry of every visited leaf. Doing that through per-entry
//! [`Pfv`] objects costs two pointer dereferences per entry (each `Pfv`
//! owns two separate boxed slices), a bounds-checked tuple load per
//! dimension, and a redundant `σv·σv` multiplication per dimension per
//! evaluation.
//!
//! [`ColumnarLeaf`] stores the same data struct-of-arrays: one contiguous
//! per-dimension column for the means, one for the sigmas, and one for the
//! **precomputed variances** `σv²`. Columns are padded to a multiple of
//! [`LANE_WIDTH`](crate::batch::LANE_WIDTH) entries with benign values so kernels can run fixed-width
//! blocks with no scalar tail. Construction additionally precomputes
//! `ln σv` per value and a conservative per-entry peak bound (the
//! log-normalisation constant `Σ −ln σv − d·ln √(2π)`, rounded outward) —
//! see [`ColumnarLeaf::ln_sigma_col`] and [`ColumnarLeaf::log_norm_col`].
//!
//! # The two kernel tiers
//!
//! * [`log_densities`](crate::batch::log_densities) — the **exact** batched kernel, bit-identical to the
//!   scalar path (contract below). This is the refinement tier: every
//!   density that reaches a query result went through it (or through its
//!   single-entry twin [`log_density_one`](crate::batch::log_density_one)).
//! * [`log_densities_upper`](crate::batch::log_densities_upper) — the **fast** tier: conservative per-entry
//!   *upper bounds* on the same densities, built from straight-line
//!   arithmetic ([`crate::fastlog::fast_ln`], reciprocal instead of
//!   `sqrt`+divide) that the auto-vectorizer can keep in SIMD registers.
//!   A bound may overshoot, but it never undershoots: an entry whose bound
//!   falls below the current candidate threshold provably cannot enter the
//!   result, so k-MLIQ can skip its exact evaluation (the paper's
//!   filter-refine design applied at entry granularity).
//!
//! # Bit-identity contract
//!
//! The batched exact kernel computes **bit-identical** results to the
//! scalar path `combine::log_joint(mode, v, q)` for every entry, including
//! NaN propagation and underflow to `-inf`:
//!
//! * the per-dimension term is the same expression tree as
//!   [`crate::gaussian::log_pdf`] (`-s.ln() - LN_SQRT_2PI - 0.5·z²` with
//!   `z = (μq − μv)/s`);
//! * the combined spread is built from the precomputed `σv²` column as
//!   `(σv² + σq²).sqrt()` — the identical multiply/add/sqrt sequence the
//!   scalar [`CombineMode::combine_sigma`] performs, merely with the
//!   `σv·σv` product hoisted to leaf-construction time;
//! * per-entry accumulation runs in dimension order starting from `0.0`,
//!   exactly like the scalar loop.
//!
//! This is also why the exact kernel keeps the per-entry `ln` and division:
//! rewriting `-ln √(σv²+σq²)` as `-½·ln(σv²+σq²)` or multiplying by a
//! precomputed reciprocal would be faster still but changes rounding, and
//! the equivalence tests (and the refinement algorithms' determinism
//! guarantees) demand exact agreement with the scalar path. Those faster
//! rewrites are exactly what the *fast tier* does — which is why it
//! produces bounds, not answers, and why the bit-identity contract lives
//! on the refine tier.

use crate::combine::CombineMode;
use crate::fastlog::{fast_ln, FAST_LN_ABS_ERROR};
use crate::vector::Pfv;
use crate::LN_SQRT_2PI;

/// Leaf columns are padded to a multiple of this many entries so the
/// kernels see fixed-width blocks (a full number of 512-bit lanes of f64).
pub const LANE_WIDTH: usize = 8;

/// Per-dimension outward rounding added to the precomputed peak bound
/// ([`ColumnarLeaf::log_norm_col`]): covers the at-most-few-ulp deviation
/// between `-0.5·ln(σ²)` over the stored (possibly rounded-up) variance
/// and the exact kernel's `-ln s` terms. `|ln σ| ≤ 21` for any admissible
/// σ, so true per-term rounding is `≲ 1e-14`; `1e-12` holds a 100×
/// margin.
pub const PEAK_SLACK_PER_DIM: f64 = 1e-12;

/// Relative slack of the fast-tier upper bound: the bound adds
/// `FAST_TIER_REL_SLACK × Σ|per-dim terms|` on top of the approximate
/// sum. The fast and exact tiers differ by a handful of roundings per
/// term (reciprocal-vs-sqrt, changed association), each `≤ 2⁻⁵²`
/// relative, so `1e-12` exceeds the worst accumulated deviation by more
/// than three orders of magnitude.
pub const FAST_TIER_REL_SLACK: f64 = 1e-12;

/// A struct-of-arrays view of a leaf's probabilistic feature vectors.
///
/// Layout is dimension-major with a padded stride: column `d` of the means
/// occupies `mu[d·stride .. d·stride + len]` where
/// `stride = len.next_multiple_of(LANE_WIDTH)`; the `len..stride` tail of
/// every column holds benign padding (`μ = 0`, `σ = σ² = 1`) that kernels
/// may read but whose results callers must ignore. The `var` column caches
/// `σv²` for the [`CombineMode::Convolution`] spread; the raw `sigma`
/// column serves [`CombineMode::AdditiveSigma`]; `ln_sigma` and the
/// per-entry `log_norm` peak bound serve the fast tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarLeaf {
    len: usize,
    dims: usize,
    stride: usize,
    mu: Box<[f64]>,
    sigma: Box<[f64]>,
    var: Box<[f64]>,
    ln_sigma: Box<[f64]>,
    log_norm: Box<[f64]>,
}

impl ColumnarLeaf {
    /// Transposes `vs` into columnar form, padding each column to a
    /// [`LANE_WIDTH`] multiple and precomputing `σv²`, `ln σv` and the
    /// per-entry peak bound (via [`ColumnarLeaf::from_columns`]).
    ///
    /// # Panics
    /// Panics if any pfv's dimensionality differs from `dims`.
    #[must_use]
    pub fn from_pfvs<'a>(dims: usize, vs: impl ExactSizeIterator<Item = &'a Pfv>) -> Self {
        let len = vs.len();
        let stride = len.next_multiple_of(LANE_WIDTH);
        let mut mu = vec![0.0f64; dims * stride].into_boxed_slice();
        let mut sigma = vec![1.0f64; dims * stride].into_boxed_slice();
        for (e, v) in vs.enumerate() {
            assert_eq!(v.dims(), dims, "dimensionality mismatch in leaf");
            for (d, (&m, &s)) in v.means().iter().zip(v.sigmas().iter()).enumerate() {
                mu[d * stride + e] = m;
                sigma[d * stride + e] = s;
            }
        }
        Self::from_columns(dims, len, mu, sigma)
    }

    /// Builds a leaf of `len` entries from dimension-major `μ`/`σ` columns
    /// that are already padded — value `(e, d)` at index `d·stride + e`,
    /// `stride = len.next_multiple_of(LANE_WIDTH)` — and derives the `σ²`,
    /// `ln σ` and peak-bound ([`ColumnarLeaf::log_norm_col`]) columns.
    ///
    /// This is the one place the derived columns are computed:
    /// [`ColumnarLeaf::from_pfvs`] transposes into columns and calls it,
    /// and page decoders that parse straight into columns call it without
    /// building a [`Pfv`] at all. Each entry's peak bound starts at
    /// `d·(`[`PEAK_SLACK_PER_DIM`]` − ln √(2π))` and subtracts `ln σ` in
    /// dimension order, so a leaf built either way is bit-identical.
    ///
    /// The values must already be what [`Pfv::new`] admits and stores:
    /// finite means, finite sigmas clamped to at least
    /// [`MIN_SIGMA`](crate::MIN_SIGMA). The padding lanes (`len..stride` of
    /// every column) are reset to the benign `μ = 0`, `σ = 1`, so their
    /// contents on input do not matter.
    ///
    /// # Panics
    /// Panics if either column is not `dims · stride` values long.
    #[must_use]
    pub fn from_columns(
        dims: usize,
        len: usize,
        mut mu: Box<[f64]>,
        mut sigma: Box<[f64]>,
    ) -> Self {
        let stride = len.next_multiple_of(LANE_WIDTH);
        assert_eq!(mu.len(), dims * stride, "mean column length mismatch");
        assert_eq!(sigma.len(), dims * stride, "sigma column length mismatch");
        let mut var = vec![1.0f64; dims * stride].into_boxed_slice();
        let mut ln_sigma = vec![0.0f64; dims * stride].into_boxed_slice();
        let mut log_norm = vec![f64::NEG_INFINITY; stride].into_boxed_slice();
        #[allow(clippy::cast_precision_loss)] // dims is a small page fan-in
        let norm_base = dims as f64 * (PEAK_SLACK_PER_DIM - LN_SQRT_2PI);
        log_norm[..len].fill(norm_base);
        for d in 0..dims {
            let col = d * stride..d * stride + len;
            let pad = d * stride + len..(d + 1) * stride;
            mu[pad.clone()].fill(0.0);
            sigma[pad].fill(1.0);
            for (((&s, v), l), norm) in sigma[col.clone()]
                .iter()
                .zip(&mut var[col.clone()])
                .zip(&mut ln_sigma[col])
                .zip(&mut log_norm[..len])
            {
                *v = s * s;
                let ls = s.ln();
                *l = ls;
                *norm -= ls;
            }
        }
        Self {
            len,
            dims,
            stride,
            mu,
            sigma,
            var,
            ln_sigma,
            log_norm,
        }
    }

    /// Number of entries in the leaf.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the leaf holds no entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored pfv.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Column length including the lane padding (a [`LANE_WIDTH`]
    /// multiple) — the size fast-tier scratch buffers must have.
    #[inline]
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.stride
    }

    /// The contiguous mean column of dimension `d` (one value per entry,
    /// padding excluded).
    #[inline]
    #[must_use]
    pub fn mu_col(&self, d: usize) -> &[f64] {
        &self.mu[d * self.stride..d * self.stride + self.len]
    }

    /// The contiguous sigma column of dimension `d` (padding excluded).
    #[inline]
    #[must_use]
    pub fn sigma_col(&self, d: usize) -> &[f64] {
        &self.sigma[d * self.stride..d * self.stride + self.len]
    }

    /// The contiguous precomputed `σ²` column of dimension `d` (padding
    /// excluded).
    #[inline]
    #[must_use]
    pub fn var_col(&self, d: usize) -> &[f64] {
        &self.var[d * self.stride..d * self.stride + self.len]
    }

    /// The contiguous precomputed `ln σ` column of dimension `d` (padding
    /// excluded). Computed with `f64::ln` at construction.
    #[inline]
    #[must_use]
    pub fn ln_sigma_col(&self, d: usize) -> &[f64] {
        &self.ln_sigma[d * self.stride..d * self.stride + self.len]
    }

    /// Per-entry conservative **peak bound**: index `e` holds
    /// `Σ_d −ln σv − d·ln √(2π) + d·`[`PEAK_SLACK_PER_DIM`] — an upper
    /// bound on `ln p(q|v)` for *any* query (the combined spread can only
    /// exceed σv, under either [`CombineMode`]). Query-independent, so a
    /// single comparison screens an entry before any kernel work.
    /// Padding lanes hold `-inf` (an absent entry can never qualify).
    #[inline]
    #[must_use]
    pub fn log_norm_col(&self) -> &[f64] {
        &self.log_norm[..self.len]
    }

    /// Every stored column with its padding lanes, in the order `μ`, `σ`,
    /// `σ²`, `ln σ` (each `dims · padded_len` values, dimension-major) and
    /// the peak bound (`padded_len` values). Two leaves whose columns agree
    /// bit for bit behave identically in every kernel; equivalence tests
    /// compare them with `to_bits`, since `f64 ==` hides `-0.0` vs `0.0`.
    #[must_use]
    pub fn padded_columns(&self) -> [&[f64]; 5] {
        [
            &self.mu,
            &self.sigma,
            &self.var,
            &self.ln_sigma,
            &self.log_norm,
        ]
    }

    fn mu_padded(&self, d: usize) -> &[f64] {
        &self.mu[d * self.stride..(d + 1) * self.stride]
    }

    fn sigma_padded(&self, d: usize) -> &[f64] {
        &self.sigma[d * self.stride..(d + 1) * self.stride]
    }

    fn var_padded(&self, d: usize) -> &[f64] {
        &self.var[d * self.stride..(d + 1) * self.stride]
    }

    /// Reassembles entry `e` as a [`Pfv`] (diagnostics / round-trip tests;
    /// the hot path never calls this).
    ///
    /// # Panics
    /// Panics if `e >= self.len()`.
    #[must_use]
    pub fn pfv(&self, e: usize) -> Pfv {
        assert!(e < self.len, "entry index out of range");
        let means: Vec<f64> = (0..self.dims)
            .map(|d| self.mu[d * self.stride + e])
            .collect();
        let sigmas: Vec<f64> = (0..self.dims)
            .map(|d| self.sigma[d * self.stride + e])
            .collect();
        // lint: allow(no-panic) -- the columnar leaf was built from Pfvs validated at insertion
        Pfv::new(means, sigmas).expect("columnar leaf holds valid pfv")
    }
}

/// Evaluates `ln p(q|v)` (Lemma 1) for **every** entry of `leaf` in one
/// sweep, writing entry `e`'s joint log density to `out[e]`.
///
/// Bit-identical to calling [`crate::combine::log_joint`] per entry — see
/// the [module docs](self) for the exact contract.
///
/// # Panics
/// Panics if `q.dims() != leaf.dims()` or `out.len() != leaf.len()`.
pub fn log_densities(mode: CombineMode, q: &Pfv, leaf: &ColumnarLeaf, out: &mut [f64]) {
    assert_eq!(q.dims(), leaf.dims(), "dimensionality mismatch");
    assert_eq!(out.len(), leaf.len(), "output buffer length mismatch");
    out.fill(0.0);
    for d in 0..leaf.dims() {
        let (mq, sq) = q.component(d);
        let mu = leaf.mu_col(d);
        match mode {
            CombineMode::Convolution => {
                let sq2 = sq * sq;
                let var = leaf.var_col(d);
                for ((o, &m), &va) in out.iter_mut().zip(mu).zip(var) {
                    let s = (va + sq2).sqrt();
                    let z = (mq - m) / s;
                    *o += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
                }
            }
            CombineMode::AdditiveSigma => {
                let sigma = leaf.sigma_col(d);
                for ((o, &m), &sv) in out.iter_mut().zip(mu).zip(sigma) {
                    let s = sv + sq;
                    let z = (mq - m) / s;
                    *o += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
                }
            }
        }
    }
}

/// Evaluates `ln p(q|v)` for the single entry `e` of `leaf`, bit-identical
/// to `out[e]` after [`log_densities`] — and therefore to the scalar path.
/// This is the refine-tier kernel: k-MLIQ calls it for exactly the entries
/// whose fast-tier bound survives the candidate threshold.
///
/// # Panics
/// Panics if `q.dims() != leaf.dims()` or `e >= leaf.len()`.
#[must_use]
pub fn log_density_one(mode: CombineMode, q: &Pfv, leaf: &ColumnarLeaf, e: usize) -> f64 {
    assert_eq!(q.dims(), leaf.dims(), "dimensionality mismatch");
    assert!(e < leaf.len(), "entry index out of range");
    let mut acc = 0.0;
    for d in 0..leaf.dims() {
        let (mq, sq) = q.component(d);
        let m = leaf.mu_col(d)[e];
        match mode {
            CombineMode::Convolution => {
                let sq2 = sq * sq;
                let va = leaf.var_col(d)[e];
                let s = (va + sq2).sqrt();
                let z = (mq - m) / s;
                acc += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
            }
            CombineMode::AdditiveSigma => {
                let sv = leaf.sigma_col(d)[e];
                let s = sv + sq;
                let z = (mq - m) / s;
                acc += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
            }
        }
    }
    acc
}

/// Reusable scratch for [`log_densities_upper`] (one per query loop; the
/// buffers grow to the largest leaf seen and are then reused).
#[derive(Debug, Clone, Default)]
pub struct FastScratch {
    acc: Vec<f64>,
    mag: Vec<f64>,
}

impl FastScratch {
    /// Empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bounds computed by the last [`log_densities_upper`] call:
    /// index `e < leaf.len()` holds a value `hi` with the guarantee
    /// `!(hi < exact)` — either a finite conservative upper bound on the
    /// exact log density, or NaN when the magnitudes overflowed (NaN
    /// compares false, so a `hi < threshold` screen never skips such an
    /// entry). Padding lanes hold meaningless values.
    #[must_use]
    pub fn upper(&self) -> &[f64] {
        &self.acc
    }
}

/// The fast tier: computes, for every entry of `leaf`, a **conservative
/// upper bound** on `ln p(q|v)` — never below the exact kernel's value —
/// using straight-line vectorisable arithmetic.
///
/// Per dimension the bound evaluates the same mathematical term as the
/// exact kernel but with `-½·fast_ln(σv²+σq²)` in place of
/// `-ln √(σv²+σq²)` and a reciprocal multiply in place of the division
/// (for [`CombineMode::AdditiveSigma`], `fast_ln(σv+σq)` in place of
/// `ln`). Conservativeness comes from three mechanisms, each of which can
/// only *raise* the bound or disable the screen:
///
/// * an additive `dims ×` [`FAST_LN_ABS_ERROR`] term covers the pinned
///   polynomial error of every [`fast_ln`] call;
/// * a relative [`FAST_TIER_REL_SLACK`] `× Σ|terms|` term covers the
///   few-ulp rounding divergence between the two expression trees
///   (reciprocal vs sqrt-divide, different association), with orders of
///   magnitude of margin;
/// * overflow safety: the `ln` argument is clamped to `f64::MAX` (the
///   exact term would be `-inf`, so a finite bound is conservative), a
///   `z²` that overflows to `+inf` drives the magnitude accumulator to
///   `+inf` and the final bound to NaN — and NaN fails every
///   `hi < threshold` comparison, so the entry is refined exactly rather
///   than skipped. Underflow in the reciprocal path only shrinks `z²`,
///   which raises the bound.
///
/// Results land in `scratch` (see [`FastScratch::upper`]); the scratch is
/// resized to [`ColumnarLeaf::padded_len`] and the kernel runs over full
/// padded lanes, so the entry-inner loop has no tail.
///
/// # Panics
/// Panics if `q.dims() != leaf.dims()`.
pub fn log_densities_upper(mode: CombineMode, q: &Pfv, leaf: &ColumnarLeaf, out: &mut FastScratch) {
    assert_eq!(q.dims(), leaf.dims(), "dimensionality mismatch");
    let stride = leaf.padded_len();
    out.acc.clear();
    out.acc.resize(stride, 0.0);
    out.mag.clear();
    out.mag.resize(stride, 0.0);
    for d in 0..leaf.dims() {
        let (mq, sq) = q.component(d);
        let mu = leaf.mu_padded(d);
        match mode {
            CombineMode::Convolution => {
                let sq2 = sq * sq;
                let var = leaf.var_padded(d);
                for ((a, g), (&m, &va)) in out
                    .acc
                    .iter_mut()
                    .zip(out.mag.iter_mut())
                    .zip(mu.iter().zip(var))
                {
                    let t = (va + sq2).min(f64::MAX);
                    let l = 0.5 * fast_ln(t) + LN_SQRT_2PI;
                    let u = 1.0 / t;
                    let dm = mq - m;
                    let z2h = 0.5 * ((dm * u) * dm);
                    *a -= l + z2h;
                    *g += l.abs() + z2h;
                }
            }
            CombineMode::AdditiveSigma => {
                let sigma = leaf.sigma_padded(d);
                for ((a, g), (&m, &sv)) in out
                    .acc
                    .iter_mut()
                    .zip(out.mag.iter_mut())
                    .zip(mu.iter().zip(sigma))
                {
                    let t = (sv + sq).min(f64::MAX);
                    let l = fast_ln(t) + LN_SQRT_2PI;
                    let u = 1.0 / t;
                    let zq = (mq - m) * u;
                    let z2h = 0.5 * (zq * zq);
                    *a -= l + z2h;
                    *g += l.abs() + z2h;
                }
            }
        }
    }
    #[allow(clippy::cast_precision_loss)] // dims is a small page fan-in
    let abs_slack = leaf.dims() as f64 * FAST_LN_ABS_ERROR;
    for (a, &g) in out.acc.iter_mut().zip(out.mag.iter()) {
        *a += abs_slack + FAST_TIER_REL_SLACK * g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine;

    fn sample_leaf(dims: usize, n: usize, seed: u64) -> (Vec<Pfv>, ColumnarLeaf) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let vs: Vec<Pfv> = (0..n)
            .map(|_| {
                let means: Vec<f64> = (0..dims).map(|_| next() * 20.0 - 10.0).collect();
                let sigmas: Vec<f64> = (0..dims).map(|_| 0.01 + next()).collect();
                Pfv::new(means, sigmas).unwrap()
            })
            .collect();
        let leaf = ColumnarLeaf::from_pfvs(dims, vs.iter());
        (vs, leaf)
    }

    #[test]
    fn columns_are_a_transpose() {
        let (vs, leaf) = sample_leaf(4, 7, 99);
        assert_eq!(leaf.len(), 7);
        assert_eq!(leaf.dims(), 4);
        for (e, v) in vs.iter().enumerate() {
            for d in 0..4 {
                assert_eq!(leaf.mu_col(d)[e], v.means()[d]);
                assert_eq!(leaf.sigma_col(d)[e], v.sigmas()[d]);
                assert_eq!(leaf.var_col(d)[e], v.sigmas()[d] * v.sigmas()[d]);
                assert_eq!(leaf.ln_sigma_col(d)[e], v.sigmas()[d].ln());
            }
            assert_eq!(leaf.pfv(e), *v);
        }
    }

    #[test]
    fn columns_are_padded_to_lane_multiples() {
        for n in [0usize, 1, 7, 8, 9, 48] {
            let (_, leaf) = sample_leaf(3, n, 17);
            assert_eq!(leaf.padded_len() % LANE_WIDTH, 0);
            assert!(leaf.padded_len() >= n);
            assert!(leaf.padded_len() < n + LANE_WIDTH);
            // Unpadded accessors never expose padding lanes.
            for d in 0..3 {
                assert_eq!(leaf.mu_col(d).len(), n);
                assert_eq!(leaf.sigma_col(d).len(), n);
                assert_eq!(leaf.var_col(d).len(), n);
                assert_eq!(leaf.ln_sigma_col(d).len(), n);
            }
            assert_eq!(leaf.log_norm_col().len(), n);
        }
    }

    #[test]
    fn log_norm_bounds_every_density() {
        let (vs, leaf) = sample_leaf(6, 33, 321);
        let q = Pfv::new(vec![0.25; 6], vec![0.15; 6]).unwrap();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            for (e, v) in vs.iter().enumerate() {
                let exact = combine::log_joint(mode, v, &q);
                assert!(
                    leaf.log_norm_col()[e] >= exact,
                    "peak bound below density for entry {e} ({mode:?})"
                );
            }
        }
    }

    #[test]
    fn batched_is_bit_identical_to_scalar() {
        let (vs, leaf) = sample_leaf(10, 48, 2024);
        let q = Pfv::new(vec![0.5; 10], vec![0.2; 10]).unwrap();
        let mut out = vec![f64::NAN; leaf.len()];
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            log_densities(mode, &q, &leaf, &mut out);
            for (v, &got) in vs.iter().zip(out.iter()) {
                let want = combine::log_joint(mode, v, &q);
                assert_eq!(got.to_bits(), want.to_bits(), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn single_entry_kernel_is_bit_identical_to_batch() {
        // Leaf sizes chosen to exercise non-trivial padding tails.
        for n in [1usize, 5, 8, 21, 48] {
            let (_, leaf) = sample_leaf(7, n, 1000 + n as u64);
            let q = Pfv::new(vec![0.1; 7], vec![0.3; 7]).unwrap();
            let mut out = vec![f64::NAN; leaf.len()];
            for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                log_densities(mode, &q, &leaf, &mut out);
                for (e, &want) in out.iter().enumerate() {
                    let got = log_density_one(mode, &q, &leaf, e);
                    assert_eq!(got.to_bits(), want.to_bits(), "entry {e} mode {mode:?}");
                }
            }
        }
    }

    #[test]
    fn fast_tier_never_undershoots_the_exact_density() {
        for (dims, n, seed) in [(2usize, 13usize, 5u64), (10, 48, 2024), (27, 30, 77)] {
            let (_, leaf) = sample_leaf(dims, n, seed);
            let mut exact = vec![0.0; leaf.len()];
            let mut scratch = FastScratch::new();
            for qseed in 0..8u64 {
                let (qs, _) = sample_leaf(dims, 1, 9000 + qseed);
                let q = &qs[0];
                for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                    log_densities(mode, q, &leaf, &mut exact);
                    log_densities_upper(mode, q, &leaf, &mut scratch);
                    assert_eq!(scratch.upper().len(), leaf.padded_len());
                    for (e, &want) in exact.iter().enumerate() {
                        let hi = scratch.upper()[e];
                        // The screening guarantee: `hi < want` must never
                        // hold (NaN bounds pass vacuously).
                        assert!(
                            hi.is_nan() || hi >= want,
                            "fast bound {hi} under exact {want} (entry {e}, {mode:?}, d={dims})"
                        );
                        // And the bound is tight enough to be useful.
                        if hi.is_finite() && want.is_finite() {
                            assert!(hi - want < 1e-6 * (1.0 + want.abs()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_tier_is_safe_under_underflow_and_overflow() {
        // A query astronomically far away: exact densities are -inf; the
        // fast bound must not compare below them (NaN or any value is
        // fine — `!(hi < -inf)` always holds; this documents no panic and
        // no bogus finite "skip" path).
        let (_, leaf) = sample_leaf(3, 9, 7);
        let q = Pfv::new(vec![1e200; 3], vec![0.1; 3]).unwrap();
        let mut scratch = FastScratch::new();
        let mut exact = vec![0.0; leaf.len()];
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            log_densities(mode, &q, &leaf, &mut exact);
            log_densities_upper(mode, &q, &leaf, &mut scratch);
            for (e, &want) in exact.iter().enumerate() {
                assert_eq!(want, f64::NEG_INFINITY);
                let hi = scratch.upper()[e];
                assert!(hi.is_nan() || hi >= want, "entry {e} mode {mode:?}");
            }
        }
    }

    #[test]
    fn padding_lanes_do_not_contribute() {
        // Two leaves sharing a 5-entry prefix, one with 3 extra entries:
        // the shared entries' exact densities and fast bounds must be
        // bit-identical, i.e. results depend only on the entry, never on
        // the padding or on neighbours.
        let (vs, _) = sample_leaf(4, 8, 4242);
        let short = ColumnarLeaf::from_pfvs(4, vs[..5].iter());
        let long = ColumnarLeaf::from_pfvs(4, vs.iter());
        let q = Pfv::new(vec![0.4; 4], vec![0.2; 4]).unwrap();
        let mut out_s = vec![0.0; 5];
        let mut out_l = vec![0.0; 8];
        let (mut fs, mut fl) = (FastScratch::new(), FastScratch::new());
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            log_densities(mode, &q, &short, &mut out_s);
            log_densities(mode, &q, &long, &mut out_l);
            log_densities_upper(mode, &q, &short, &mut fs);
            log_densities_upper(mode, &q, &long, &mut fl);
            for e in 0..5 {
                assert_eq!(out_s[e].to_bits(), out_l[e].to_bits());
                assert_eq!(fs.upper()[e].to_bits(), fl.upper()[e].to_bits());
            }
        }
    }

    #[test]
    fn underflow_maps_to_neg_infinity_like_scalar() {
        // A query astronomically far from every entry: z² overflows and the
        // density underflows to -inf, exactly as in the scalar path.
        let (vs, leaf) = sample_leaf(3, 5, 7);
        let q = Pfv::new(vec![1e200; 3], vec![0.1; 3]).unwrap();
        let mut out = vec![0.0; leaf.len()];
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
        for (v, &got) in vs.iter().zip(out.iter()) {
            let want = combine::log_joint(CombineMode::Convolution, v, &q);
            assert_eq!(got.to_bits(), want.to_bits());
            assert_eq!(got, f64::NEG_INFINITY);
        }
    }

    #[test]
    fn derived_columns_match_the_per_entry_definition() {
        // Recompute every derived value entry by entry, in the documented
        // order, and compare bit for bit (padding lanes included).
        for (dims, n) in [(1, 1), (4, 7), (10, 48), (27, 9), (3, 0)] {
            let (vs, leaf) = sample_leaf(dims, n, 31 + n as u64);
            let stride = leaf.padded_len();
            #[allow(clippy::cast_precision_loss)]
            let norm_base = dims as f64 * (PEAK_SLACK_PER_DIM - LN_SQRT_2PI);
            for e in 0..stride {
                let mut norm = norm_base;
                for d in 0..dims {
                    let i = d * stride + e;
                    let (m, s) = vs.get(e).map_or((0.0, 1.0), |v| v.component(d));
                    assert_eq!(leaf.mu[i].to_bits(), m.to_bits());
                    assert_eq!(leaf.sigma[i].to_bits(), s.to_bits());
                    assert_eq!(leaf.var[i].to_bits(), (s * s).to_bits());
                    assert_eq!(leaf.ln_sigma[i].to_bits(), s.ln().to_bits());
                    norm -= s.ln();
                }
                let want = if e < n { norm } else { f64::NEG_INFINITY };
                assert_eq!(leaf.log_norm[e].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn from_columns_resets_padding_lanes() {
        let (vs, leaf) = sample_leaf(3, 5, 77);
        let stride = leaf.padded_len();
        let mut mu = vec![f64::NAN; 3 * stride].into_boxed_slice();
        let mut sigma = vec![-4.0; 3 * stride].into_boxed_slice();
        for (e, v) in vs.iter().enumerate() {
            for d in 0..3 {
                (mu[d * stride + e], sigma[d * stride + e]) = v.component(d);
            }
        }
        let direct = ColumnarLeaf::from_columns(3, 5, mu, sigma);
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, b) in direct
            .padded_columns()
            .into_iter()
            .zip(leaf.padded_columns())
        {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn empty_leaf_is_fine() {
        let leaf = ColumnarLeaf::from_pfvs(2, std::iter::empty::<&Pfv>());
        assert!(leaf.is_empty());
        assert_eq!(leaf.padded_len(), 0);
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        let mut out: Vec<f64> = Vec::new();
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
        let mut scratch = FastScratch::new();
        log_densities_upper(CombineMode::Convolution, &q, &leaf, &mut scratch);
        assert!(scratch.upper().is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_wrong_query_dims() {
        let (_, leaf) = sample_leaf(3, 4, 1);
        let q = Pfv::new(vec![0.0], vec![0.1]).unwrap();
        let mut out = vec![0.0; 4];
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn rejects_short_output() {
        let (_, leaf) = sample_leaf(2, 4, 1);
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        let mut out = vec![0.0; 3];
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
    }
}
