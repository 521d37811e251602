//! AVX2 kernels that round exactly like scalar `C64` arithmetic.
//!
//! `C64` is `#[repr(C)]`, so a `[C64]` run is an interleaved
//! `[re, im, re, im]` `f64` stream and one 256-bit register holds two
//! amplitudes. The complex product `m * a` is `addsub(mr * a, mi *
//! swap(a))`: even lanes give `mr*a.re - mi*a.im`, odd lanes `mr*a.im +
//! mi*a.re` — the two roundings of each scalar product, then one rounding
//! for the sum, as in `C64::mul`. A butterfly's `m00*a0 + m01*a1 + ...`
//! is one more `add` per term, in the same operand order. No kernel here
//! uses FMA, so each lane performs the scalar expression's roundings in
//! the scalar order and every output equals its scalar twin under
//! `to_bits`.
//!
//! Two users:
//! * [`apply_mat1`], through `statevector::apply_mat1_exact`, is
//!   `StateVector::apply_mat1`'s kernel at every qubit (the dense
//!   reference paths keep their scalar bits on every host) and the fused
//!   engine's dense one-qubit kernel at qubit 0;
//! * the `*_q0` kernels are the fused engine's other kernels for ops
//!   touching qubit 0, where its AVX2+FMA kernels cannot pack two
//!   amplitudes of one quadrant into a register. Their scalar twins (in
//!   `engine`, and `statevector::apply_mat2_exact` for the dense
//!   two-qubit one) stay as the portable path and as the tests' oracle.
//!
//! At qubit 0 both amplitudes of a butterfly sit in one register `[a0,
//! a1]`. The kernels broadcast each half to a whole register and put the
//! matrix rows in the halves of the constants, so the low half computes
//! row 0 and the high half row 1 of the same butterfly.

use elivagar_circuit::math::{Mat2, Mat4, C64};
use std::arch::x86_64::*;

/// Whether the running CPU supports these kernels.
#[inline]
pub fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

/// `(re + i*im) * a` for two interleaved amplitudes `a`, with `sw` the
/// same amplitudes with real and imaginary lanes swapped.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmul(re: __m256d, im: __m256d, a: __m256d, sw: __m256d) -> __m256d {
    _mm256_addsub_pd(_mm256_mul_pd(re, a), _mm256_mul_pd(im, sw))
}

/// Real and imaginary constants holding `lo` in the low half and `hi` in
/// the high half of a register.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn halves(lo: C64, hi: C64) -> (__m256d, __m256d) {
    (
        _mm256_setr_pd(lo.re, lo.re, hi.re, hi.re),
        _mm256_setr_pd(lo.im, lo.im, hi.im, hi.im),
    )
}

/// `[a0, a0]` and `[a1, a1]` for the two amplitudes `[a0, a1]` at `p`,
/// each with its swapped twin for [`cmul`]. Each half is loaded straight
/// into both halves of a register, which costs no lane-crossing shuffle.
///
/// # Safety
/// Requires AVX2 (see [`available`]) and four readable `f64` at `p`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn broadcast_halves(p: *const f64) -> [(__m256d, __m256d); 2] {
    let lo = _mm_loadu_pd(p);
    let hi = _mm_loadu_pd(p.add(2));
    let a0 = _mm256_set_m128d(lo, lo);
    let a1 = _mm256_set_m128d(hi, hi);
    [
        (a0, _mm256_permute_pd(a0, 0b0101)),
        (a1, _mm256_permute_pd(a1, 0b0101)),
    ]
}

/// The butterfly of `statevector::apply_mat1_portable`, bit for bit. Like
/// it, walks whole `2^(q+1)` blocks and leaves a shorter tail alone.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn apply_mat1(amps: &mut [C64], q: usize, m: &Mat2) {
    let [[m00, m01], [m10, m11]] = m.0;
    if q == 0 {
        let (c0re, c0im) = halves(m00, m10);
        let (c1re, c1im) = halves(m01, m11);
        for pair in amps.chunks_exact_mut(2) {
            let p = pair.as_mut_ptr().cast::<f64>();
            let [(a0, s0), (a1, s1)] = broadcast_halves(p);
            let r = _mm256_add_pd(cmul(c0re, c0im, a0, s0), cmul(c1re, c1im, a1, s1));
            _mm256_storeu_pd(p, r);
        }
        return;
    }
    let re = [
        [_mm256_set1_pd(m00.re), _mm256_set1_pd(m01.re)],
        [_mm256_set1_pd(m10.re), _mm256_set1_pd(m11.re)],
    ];
    let im = [
        [_mm256_set1_pd(m00.im), _mm256_set1_pd(m01.im)],
        [_mm256_set1_pd(m10.im), _mm256_set1_pd(m11.im)],
    ];
    let stride = 1usize << q;
    for block in amps.chunks_exact_mut(stride << 1) {
        let (clear, set) = block.split_at_mut(stride);
        let pc = clear.as_mut_ptr().cast::<f64>();
        let ps = set.as_mut_ptr().cast::<f64>();
        // `stride` is even for q >= 1, so each half is a whole number
        // of two-amplitude registers.
        for k in (0..stride << 1).step_by(4) {
            let a0 = _mm256_loadu_pd(pc.add(k));
            let a1 = _mm256_loadu_pd(ps.add(k));
            let s0 = _mm256_permute_pd(a0, 0b0101);
            let s1 = _mm256_permute_pd(a1, 0b0101);
            let r0 = _mm256_add_pd(
                cmul(re[0][0], im[0][0], a0, s0),
                cmul(re[0][1], im[0][1], a1, s1),
            );
            let r1 = _mm256_add_pd(
                cmul(re[1][0], im[1][0], a0, s0),
                cmul(re[1][1], im[1][1], a1, s1),
            );
            _mm256_storeu_pd(pc.add(k), r0);
            _mm256_storeu_pd(ps.add(k), r1);
        }
    }
}

/// `engine::apply_diag1_slice_scalar` at `q = 0`, bit for bit: each
/// register `[clear, set]` is one block, scaled by `[d[0], d[1]]`.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn apply_diag1_q0(amps: &mut [C64], d: &[C64; 2]) {
    let (re, im) = halves(d[0], d[1]);
    for pair in amps.chunks_exact_mut(2) {
        let p = pair.as_mut_ptr().cast::<f64>();
        let a = _mm256_loadu_pd(p);
        _mm256_storeu_pd(p, cmul(re, im, a, _mm256_permute_pd(a, 0b0101)));
    }
}

/// `engine::apply_diag2_slice_scalar` for a pair whose low operand is
/// qubit 0, bit for bit. `d` is indexed `bit_0 + 2*bit_hi`, and `hi >= 1`
/// is the other operand. Each register is a `(bit_0 = 0, bit_0 = 1)`
/// pair, scaled by `[d[0], d[1]]` where bit `hi` is clear and by `[d[2],
/// d[3]]` where it is set.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn apply_diag2_q0(amps: &mut [C64], hi: usize, d: &[C64; 4]) {
    let scales = [halves(d[0], d[1]), halves(d[2], d[3])];
    for block in amps.chunks_exact_mut(1usize << (hi + 1)) {
        for (half, (re, im)) in block.chunks_exact_mut(1usize << hi).zip(scales) {
            for pair in half.chunks_exact_mut(2) {
                let p = pair.as_mut_ptr().cast::<f64>();
                let a = _mm256_loadu_pd(p);
                _mm256_storeu_pd(p, cmul(re, im, a, _mm256_permute_pd(a, 0b0101)));
            }
        }
    }
}

/// Row constants of a two-qubit butterfly at qubit 0: `[rows 0,1; rows
/// 2,3]`, each column `j` holding `m[2k][j]` in the low half and
/// `m[2k+1][j]` in the high half.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mat4_halves(m: &Mat4) -> [[(__m256d, __m256d); 4]; 2] {
    let mut c = [[(_mm256_setzero_pd(), _mm256_setzero_pd()); 4]; 2];
    for (k, rows) in c.iter_mut().enumerate() {
        for (j, col) in rows.iter_mut().enumerate() {
            *col = halves(m.0[2 * k][j], m.0[2 * k + 1][j]);
        }
    }
    c
}

/// `[f0, f1]` and `[f2, f3]`, `f_r = ((m_r0*a0 + m_r1*a1) + m_r2*a2) +
/// m_r3*a3`, for one butterfly with `[a0, a1]` at `x` and `[a2, a3]` at
/// `y`.
///
/// # Safety
/// Requires AVX2 (see [`available`]) and four readable `f64` at `x` and
/// at `y`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn butterfly4_q0(
    c: &[[(__m256d, __m256d); 4]; 2],
    x: *const f64,
    y: *const f64,
) -> [__m256d; 2] {
    let [b0, b1] = broadcast_halves(x);
    let [b2, b3] = broadcast_halves(y);
    let mut f = [_mm256_setzero_pd(); 2];
    for (fk, rows) in f.iter_mut().zip(c) {
        let mut sum = cmul(rows[0].0, rows[0].1, b0.0, b0.1);
        sum = _mm256_add_pd(sum, cmul(rows[1].0, rows[1].1, b1.0, b1.1));
        sum = _mm256_add_pd(sum, cmul(rows[2].0, rows[2].1, b2.0, b2.1));
        *fk = _mm256_add_pd(sum, cmul(rows[3].0, rows[3].1, b3.0, b3.1));
    }
    f
}

/// `statevector::apply_mat2_exact` for a pair whose low operand is
/// qubit 0, bit for bit. `m` is in the `(0, hi)` operand order (index
/// `bit_0 + 2*bit_hi`) and `hi >= 1`. Each butterfly is the register `[a0,
/// a1]` where bit `hi` is clear and `[a2, a3]` where it is set.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn apply_mat2_q0(amps: &mut [C64], hi: usize, m: &Mat4) {
    let c = mat4_halves(m);
    for block in amps.chunks_exact_mut(1usize << (hi + 1)) {
        let (h0, h1) = block.split_at_mut(1usize << hi);
        for (x, y) in h0.chunks_exact_mut(2).zip(h1.chunks_exact_mut(2)) {
            let px = x.as_mut_ptr().cast::<f64>();
            let py = y.as_mut_ptr().cast::<f64>();
            let [f01, f23] = butterfly4_q0(&c, px, py);
            _mm256_storeu_pd(px, f01);
            _mm256_storeu_pd(py, f23);
        }
    }
}

/// `engine::bilinear_mat1_scalar` at `q = 0`, bit for bit: the products
/// and each amplitude's dot term `l.re*f.re + l.im*f.im` run in the lanes,
/// and the dot terms join the scalar's single accumulator one at a time,
/// in its order.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn bilinear_mat1_q0(lam: &[C64], psi: &[C64], m: &Mat2) -> f64 {
    let [[m00, m01], [m10, m11]] = m.0;
    let (c0re, c0im) = halves(m00, m10);
    let (c1re, c1im) = halves(m01, m11);
    let mut acc = 0.0;
    for (l, p) in lam.chunks_exact(2).zip(psi.chunks_exact(2)) {
        let [(a0, s0), (a1, s1)] = broadcast_halves(p.as_ptr().cast());
        let f = _mm256_add_pd(cmul(c0re, c0im, a0, s0), cmul(c1re, c1im, a1, s1));
        let prod = _mm256_mul_pd(_mm256_loadu_pd(l.as_ptr().cast()), f);
        // [dot_clear, dot_clear, dot_set, dot_set]
        let d = _mm256_hadd_pd(prod, prod);
        acc += _mm256_cvtsd_f64(d);
        acc += _mm_cvtsd_f64(_mm256_extractf128_pd(d, 1));
    }
    acc
}

/// `engine::bilinear_mat2_scalar` for a pair whose low operand is qubit
/// 0, bit for bit (`m` and `hi` as in [`apply_mat2_q0`]). The four dot
/// terms of a butterfly join the single accumulator in quadrant order.
///
/// # Safety
/// Requires AVX2 (see [`available`]).
#[target_feature(enable = "avx2")]
pub unsafe fn bilinear_mat2_q0(lam: &[C64], psi: &[C64], hi: usize, m: &Mat4) -> f64 {
    let c = mat4_halves(m);
    let mut acc = 0.0;
    let block = 1usize << (hi + 1);
    for (lb, pb) in lam.chunks_exact(block).zip(psi.chunks_exact(block)) {
        let (lh0, lh1) = lb.split_at(1usize << hi);
        let (ph0, ph1) = pb.split_at(1usize << hi);
        let quads = lh0.chunks_exact(2).zip(lh1.chunks_exact(2));
        for ((lx, ly), (px, py)) in quads.zip(ph0.chunks_exact(2).zip(ph1.chunks_exact(2))) {
            let [f01, f23] = butterfly4_q0(&c, px.as_ptr().cast(), py.as_ptr().cast());
            let p01 = _mm256_mul_pd(_mm256_loadu_pd(lx.as_ptr().cast()), f01);
            let p23 = _mm256_mul_pd(_mm256_loadu_pd(ly.as_ptr().cast()), f23);
            // [d0, d2, d1, d3]
            let mut d = [0.0; 4];
            _mm256_storeu_pd(d.as_mut_ptr(), _mm256_hadd_pd(p01, p23));
            acc += d[0];
            acc += d[2];
            acc += d[1];
            acc += d[3];
        }
    }
    acc
}
