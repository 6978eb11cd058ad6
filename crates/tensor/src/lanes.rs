//! Explicit SIMD-lane substrate for the dense kernels.
//!
//! Every dense primitive in [`crate::kernels`] is built on the
//! fixed-width chunk loops in this module: slices are traversed in
//! `f32x8` lanes (`chunks_exact(8)`), reductions keep one accumulator
//! per lane and combine them in a **fixed pairwise tree**, and the
//! scalar remainder is folded sequentially at the end. That fixed
//! combine order is the workspace's canonical floating-point semantics:
//! for a given input, every entry point — portable chunk loop or the
//! runtime-dispatched AVX2 path — produces bit-identical results.
//!
//! # Dispatch and the determinism contract
//!
//! On `x86_64` hosts with AVX2, the hot primitives run through
//! `core::arch` intrinsics; everywhere else (and whenever the scalar
//! fallback is forced) the portable chunk loop runs. Two rules keep the
//! paths bit-equal, which is what lets the golden-gradient fixtures,
//! the `Exact`-equals-dense property, and the stream/batch bitwise
//! contract hold on *any* host:
//!
//! * the AVX2 reduction keeps its 8 lane accumulators in one vector
//!   register and combines them through the **same** pairwise tree as
//!   the portable loop, and
//! * the AVX2 paths use separate multiply and add (`vmulps` +
//!   `vaddps`), **never fused multiply-add**: FMA skips the
//!   intermediate rounding step, so an FMA path would fork the float
//!   semantics between AVX2 hosts and the portable fallback.
//!
//! Elementwise kernels ([`axpy`], [`scale`], [`add_assign`], …) do not
//! reassociate anything, so laning them is bitwise-neutral by
//! construction; only the [`dot`] reduction defines new canonical
//! semantics (8 lanes instead of the previous 4-way unroll).
//!
//! # Forcing the scalar fallback
//!
//! Set `SNN_FORCE_SCALAR=1` in the environment (read once, on first
//! kernel use) or call [`set_force_scalar`] at runtime (used by the
//! kernel bench's lane sweep and the cross-path tests). Because the two
//! paths are bit-identical, flipping the switch mid-process can never
//! change results — only throughput.

use std::sync::atomic::{AtomicU8, Ordering};

/// Fixed lane width of the chunk loops (`f32x8`, one AVX2 register).
pub const LANES: usize = 8;

const MODE_UNSET: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_SIMD: u8 = 2;

/// Resolved dispatch mode: unset until first use, then scalar or SIMD.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// Whether the explicit SIMD path is active for this process (AVX2
/// detected, not overridden by `SNN_FORCE_SCALAR` or
/// [`set_force_scalar`]).
#[inline]
pub fn simd_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_SIMD => true,
        MODE_SCALAR => false,
        _ => resolve_mode(),
    }
}

/// Human-readable label of the active dispatch path (for bench
/// provenance notes).
pub fn path_label() -> &'static str {
    if simd_enabled() {
        "avx2"
    } else {
        "portable"
    }
}

/// Forces (`true`) or re-enables auto-detection of (`false`) the
/// portable scalar path, process-wide. Safe to flip at any time: the
/// two paths are bit-identical, so in-flight work on other threads is
/// unaffected beyond throughput.
pub fn set_force_scalar(force: bool) {
    MODE.store(
        if force { MODE_SCALAR } else { MODE_UNSET },
        Ordering::Relaxed,
    );
}

#[cold]
fn resolve_mode() -> bool {
    let forced = std::env::var_os("SNN_FORCE_SCALAR").is_some_and(|v| v != "0" && !v.is_empty());
    let enabled = !forced && detect_simd();
    MODE.store(
        if enabled { MODE_SIMD } else { MODE_SCALAR },
        Ordering::Relaxed,
    );
    enabled
}

fn detect_simd() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dot product in 8 lanes with the canonical fixed combine order:
/// per-lane accumulators over the `chunks_exact(8)` body, pairwise-tree
/// combine `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then the remainder
/// folded in sequentially.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: `simd_enabled` is only true after a successful AVX2
        // feature detection.
        return unsafe { avx2::dot(a, b) };
    }
    portable::dot(a, b)
}

/// `y += alpha * x`, laned. Elementwise: bit-identical on every path.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::axpy(alpha, x, y) };
        return;
    }
    portable::axpy(alpha, x, y);
}

/// `y += x`, laned (the `alpha = 1` axpy without the multiply).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_assign(x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "add_assign: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::add_assign(x, y) };
        return;
    }
    portable::add_assign(x, y);
}

/// `x *= alpha`, laned (leaky-integrator decay step).
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::scale(alpha, x) };
        return;
    }
    portable::scale(alpha, x);
}

/// `y[i] = a·x[i] + b·y[i]`, laned — the shared decay-and-charge
/// elementwise update of the state recursions (`h = β·h + O[t−1]`,
/// `dh = −ϑ·dv + β·dh`, `k = α·k + x[t]`). Elementwise, so
/// bit-identical to the scalar loop it replaces.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn decay_axpy(a: f32, x: &[f32], b: f32, y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "decay_axpy: length mismatch");
    portable::decay_axpy(a, x, b, y);
}

/// `carry[i] = add[i] + alpha·carry[i]; out[i] = carry[i]`, laned — the
/// BPTT synapse-trace adjoint recursion `dk[t] = Wᵀ·dv + α·dk[t+1]`
/// with its write-through to the downstream adjoint row.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn carry_decay_out(alpha: f32, add: &[f32], carry: &mut [f32], out: &mut [f32]) {
    assert_eq!(add.len(), carry.len(), "carry_decay_out: length mismatch");
    assert_eq!(add.len(), out.len(), "carry_decay_out: length mismatch");
    portable::carry_decay_out(alpha, add, carry, out);
}

/// `out[i] = alpha·x[i]`, laned (the hard-reset input-gain projection
/// `dx[t] = gain·Wᵀ·dv`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn scale_copy(alpha: f32, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "scale_copy: length mismatch");
    portable::scale_copy(alpha, x, out);
}

/// Collects the indices with `|x[i]| > eps` into `out` (cleared first,
/// ascending order). On AVX2 the compare runs 8 lanes at a time with a
/// movemask scan; index sets are exact, so the paths agree bitwise.
/// With `eps = 0.0` the set is exactly the nonzero entries (the BPTT
/// rebuilds spike-column lists from forward records this way).
#[inline]
pub fn threshold_mask(x: &[f32], eps: f32, out: &mut Vec<usize>) {
    out.clear();
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: gated on AVX2 detection.
        unsafe { avx2::threshold_indices(x, eps, out) };
        return;
    }
    portable::threshold_indices(x, eps, out);
}

/// Maximum over a slice, laned. Returns `f32::NEG_INFINITY` for an
/// empty slice. `max` is associative and commutative, so the lane
/// reduction is exact; NaN entries are skipped (`f32::max` semantics).
/// Portable-only: a peak scan is never hot enough to justify an
/// intrinsics path (and `_mm256_max_ps` differs from `f32::max` on
/// NaN, which would fork the semantics for no win).
#[inline]
pub fn reduce_max(x: &[f32]) -> f32 {
    let mut chunks = x.chunks_exact(LANES);
    let mut acc = [f32::NEG_INFINITY; LANES];
    for c in chunks.by_ref() {
        for l in 0..LANES {
            acc[l] = acc[l].max(c[l]);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for a in acc {
        m = m.max(a);
    }
    for &v in chunks.remainder() {
        m = m.max(v);
    }
    m
}

/// Portable chunk loops — the always-correct fallback and the canonical
/// definition of every kernel's float semantics.
mod portable {
    use super::LANES;

    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        let mut acc = [0.0f32; LANES];
        for (pa, pb) in ca.by_ref().zip(cb.by_ref()) {
            for l in 0..LANES {
                acc[l] += pa[l] * pb[l];
            }
        }
        let mut sum = combine_tree(&acc);
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            sum += x * y;
        }
        sum
    }

    /// The canonical pairwise-tree combine of the 8 lane accumulators.
    #[inline]
    pub fn combine_tree(acc: &[f32; LANES]) -> f32 {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    #[inline]
    pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut cy = y.chunks_exact_mut(LANES);
        for (px, py) in cx.by_ref().zip(cy.by_ref()) {
            for l in 0..LANES {
                py[l] += alpha * px[l];
            }
        }
        for (x, y) in cx.remainder().iter().zip(cy.into_remainder()) {
            *y += alpha * x;
        }
    }

    #[inline]
    pub fn add_assign(x: &[f32], y: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut cy = y.chunks_exact_mut(LANES);
        for (px, py) in cx.by_ref().zip(cy.by_ref()) {
            for l in 0..LANES {
                py[l] += px[l];
            }
        }
        for (x, y) in cx.remainder().iter().zip(cy.into_remainder()) {
            *y += x;
        }
    }

    #[inline]
    pub fn scale(alpha: f32, x: &mut [f32]) {
        let mut cx = x.chunks_exact_mut(LANES);
        for px in cx.by_ref() {
            for xl in px.iter_mut() {
                *xl *= alpha;
            }
        }
        for x in cx.into_remainder() {
            *x *= alpha;
        }
    }

    #[inline]
    pub fn decay_axpy(a: f32, x: &[f32], b: f32, y: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut cy = y.chunks_exact_mut(LANES);
        for (px, py) in cx.by_ref().zip(cy.by_ref()) {
            for l in 0..LANES {
                py[l] = a * px[l] + b * py[l];
            }
        }
        for (x, y) in cx.remainder().iter().zip(cy.into_remainder()) {
            *y = a * x + b * *y;
        }
    }

    #[inline]
    pub fn carry_decay_out(alpha: f32, add: &[f32], carry: &mut [f32], out: &mut [f32]) {
        let mut ca = add.chunks_exact(LANES);
        let mut cc = carry.chunks_exact_mut(LANES);
        let mut co = out.chunks_exact_mut(LANES);
        for ((pa, pc), po) in ca.by_ref().zip(cc.by_ref()).zip(co.by_ref()) {
            for l in 0..LANES {
                pc[l] = pa[l] + alpha * pc[l];
                po[l] = pc[l];
            }
        }
        for ((a, c), o) in ca
            .remainder()
            .iter()
            .zip(cc.into_remainder())
            .zip(co.into_remainder())
        {
            *c = a + alpha * *c;
            *o = *c;
        }
    }

    #[inline]
    pub fn scale_copy(alpha: f32, x: &[f32], out: &mut [f32]) {
        let mut cx = x.chunks_exact(LANES);
        let mut co = out.chunks_exact_mut(LANES);
        for (px, po) in cx.by_ref().zip(co.by_ref()) {
            for l in 0..LANES {
                po[l] = alpha * px[l];
            }
        }
        for (x, o) in cx.remainder().iter().zip(co.into_remainder()) {
            *o = alpha * x;
        }
    }

    #[inline]
    pub fn threshold_indices(x: &[f32], eps: f32, out: &mut Vec<usize>) {
        for (i, &v) in x.iter().enumerate() {
            if v.abs() > eps {
                out.push(i);
            }
        }
    }
}

/// AVX2 intrinsics paths. Separate multiply + add throughout (no FMA)
/// and the same pairwise-tree reduction as the portable loop, so every
/// function here is bit-identical to its portable counterpart.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{portable, LANES};
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            let va = unsafe { _mm256_loadu_ps(a.as_ptr().add(i * LANES)) };
            let vb = unsafe { _mm256_loadu_ps(b.as_ptr().add(i * LANES)) };
            // mul + add, not FMA: keeps the intermediate rounding the
            // portable loop performs.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut lanes = [0.0f32; LANES];
        // SAFETY: `lanes` is 8 f32s; storeu has no alignment demand.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        let mut sum = portable::combine_tree(&lanes);
        for (x, y) in a[chunks * LANES..].iter().zip(&b[chunks * LANES..]) {
            sum += x * y;
        }
        sum
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let chunks = x.len() / LANES;
        let va = _mm256_set1_ps(alpha);
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            unsafe {
                let px = _mm256_loadu_ps(x.as_ptr().add(i * LANES));
                let py = _mm256_loadu_ps(y.as_ptr().add(i * LANES));
                _mm256_storeu_ps(
                    y.as_mut_ptr().add(i * LANES),
                    _mm256_add_ps(py, _mm256_mul_ps(va, px)),
                );
            }
        }
        for (x, y) in x[chunks * LANES..].iter().zip(&mut y[chunks * LANES..]) {
            *y += alpha * x;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(x: &[f32], y: &mut [f32]) {
        let chunks = x.len() / LANES;
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            unsafe {
                let px = _mm256_loadu_ps(x.as_ptr().add(i * LANES));
                let py = _mm256_loadu_ps(y.as_ptr().add(i * LANES));
                _mm256_storeu_ps(y.as_mut_ptr().add(i * LANES), _mm256_add_ps(py, px));
            }
        }
        for (x, y) in x[chunks * LANES..].iter().zip(&mut y[chunks * LANES..]) {
            *y += x;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(alpha: f32, x: &mut [f32]) {
        let chunks = x.len() / LANES;
        let va = _mm256_set1_ps(alpha);
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            unsafe {
                let px = _mm256_loadu_ps(x.as_ptr().add(i * LANES));
                _mm256_storeu_ps(x.as_mut_ptr().add(i * LANES), _mm256_mul_ps(va, px));
            }
        }
        for x in &mut x[chunks * LANES..] {
            *x *= alpha;
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (callers gate on `simd_enabled`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn threshold_indices(x: &[f32], eps: f32, out: &mut Vec<usize>) {
        let chunks = x.len() / LANES;
        let veps = _mm256_set1_ps(eps);
        // Clearing the sign bit is `abs` for every finite and infinite
        // value; NaN stays NaN and compares false, same as the scalar
        // `v.abs() > eps`.
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        for i in 0..chunks {
            // SAFETY: i * LANES + LANES <= len by construction.
            let v = unsafe { _mm256_loadu_ps(x.as_ptr().add(i * LANES)) };
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_and_ps(v, abs_mask), veps);
            let mut bits = _mm256_movemask_ps(gt) as u32;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                out.push(i * LANES + l);
                bits &= bits - 1;
            }
        }
        for (i, &v) in x[chunks * LANES..].iter().enumerate() {
            if v.abs() > eps {
                out.push(chunks * LANES + i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    fn vec_rng(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
    }

    const LENS: [usize; 13] = [0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 33, 100, 1027];

    #[test]
    fn dot_matches_naive_across_lengths() {
        let mut rng = Rng::seed_from(1);
        for len in LENS {
            let a = vec_rng(len, &mut rng);
            let b = vec_rng(len, &mut rng);
            let fast = dot(&a, &b);
            let slow: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (fast - slow).abs() < 1e-3 * (1.0 + slow.abs()),
                "len {len}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn simd_and_portable_paths_agree_bitwise() {
        // The contract is *exact* equality (stronger than the 1-ULP
        // tolerance the refactor promised): no FMA, same combine tree.
        if !simd_enabled() {
            return; // nothing to cross-check on this host
        }
        let mut rng = Rng::seed_from(2);
        for len in LENS {
            let a = vec_rng(len, &mut rng);
            let b = vec_rng(len, &mut rng);
            let mut y_simd = vec_rng(len, &mut rng);
            let mut y_port = y_simd.clone();
            let mut m_simd = Vec::new();
            let mut m_port = Vec::new();

            let d_simd = dot(&a, &b);
            axpy(0.37, &a, &mut y_simd);
            add_assign(&b, &mut y_simd);
            scale(0.93, &mut y_simd);
            threshold_mask(&y_simd, 0.25, &mut m_simd);

            set_force_scalar(true);
            let d_port = dot(&a, &b);
            axpy(0.37, &a, &mut y_port);
            add_assign(&b, &mut y_port);
            scale(0.93, &mut y_port);
            threshold_mask(&y_port, 0.25, &mut m_port);
            set_force_scalar(false);

            assert_eq!(d_simd.to_bits(), d_port.to_bits(), "dot len {len}");
            for (s, p) in y_simd.iter().zip(&y_port) {
                assert_eq!(s.to_bits(), p.to_bits(), "elementwise len {len}");
            }
            assert_eq!(m_simd, m_port, "threshold_mask len {len}");
        }
    }

    #[test]
    fn repeated_runs_are_bitwise_deterministic() {
        let mut rng = Rng::seed_from(3);
        let a = vec_rng(517, &mut rng);
        let b = vec_rng(517, &mut rng);
        let first = dot(&a, &b);
        for _ in 0..10 {
            assert_eq!(first.to_bits(), dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn decay_axpy_matches_scalar_loop_bitwise() {
        let mut rng = Rng::seed_from(4);
        for len in LENS {
            let x = vec_rng(len, &mut rng);
            let mut y = vec_rng(len, &mut rng);
            let mut y_ref = y.clone();
            decay_axpy(-0.7, &x, 0.9, &mut y);
            for (yr, xr) in y_ref.iter_mut().zip(&x) {
                *yr = -0.7 * xr + 0.9 * *yr;
            }
            for (a, b) in y.iter().zip(&y_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn carry_decay_out_matches_scalar_loop_bitwise() {
        let mut rng = Rng::seed_from(5);
        for len in LENS {
            let add = vec_rng(len, &mut rng);
            let mut carry = vec_rng(len, &mut rng);
            let mut carry_ref = carry.clone();
            let mut out = vec![0.0f32; len];
            let mut out_ref = vec![0.0f32; len];
            carry_decay_out(0.6, &add, &mut carry, &mut out);
            for j in 0..len {
                carry_ref[j] = add[j] + 0.6 * carry_ref[j];
                out_ref[j] = carry_ref[j];
            }
            assert_eq!(carry, carry_ref, "carry len {len}");
            assert_eq!(out, out_ref, "out len {len}");
        }
    }

    #[test]
    fn scale_copy_matches_scalar_loop() {
        let mut rng = Rng::seed_from(6);
        let x = vec_rng(41, &mut rng);
        let mut out = vec![0.0f32; 41];
        scale_copy(1.5, &x, &mut out);
        for (o, x) in out.iter().zip(&x) {
            assert_eq!(o.to_bits(), (1.5 * x).to_bits());
        }
    }

    #[test]
    fn threshold_mask_is_exact_and_ascending() {
        let x = [0.0, 0.5, -0.5, 0.1, -2.0, 0.0, 0.3, f32::NAN, 1.0];
        let mut out = vec![7usize]; // must be cleared
        threshold_mask(&x, 0.25, &mut out);
        assert_eq!(out, vec![1, 2, 4, 6, 8]);
        threshold_mask(&x, 0.0, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn reduce_max_matches_fold() {
        let mut rng = Rng::seed_from(7);
        for len in LENS {
            let x = vec_rng(len, &mut rng);
            let want = x.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            assert_eq!(reduce_max(&x), want, "len {len}");
        }
        assert_eq!(reduce_max(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn lane_width_is_eight() {
        // The fixed combine tree above is written for 8 lanes; a width
        // change must be a deliberate, fixture-regenerating event.
        assert_eq!(LANES, 8);
    }
}
