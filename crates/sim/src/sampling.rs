//! Distribution utilities: total variation distance, fidelity, and shot
//! histograms.

/// Total Variation Distance between two distributions (Eq. 1 of the paper).
///
/// # Panics
///
/// Panics if the distributions have different lengths.
pub fn tvd(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Outcomes per gathered block of [`pairwise_tvd_into`]: 32 outcomes of
/// 80 samples are a 20 KiB block, which stays in L1 while every pair
/// sweeps it.
const BLOCK_OUTCOMES: usize = 32;

/// Samples per SIMD register in [`pairwise_tvd_into`].
const LANES: usize = 4;

/// All pairwise total variation distances between `n = rows.len()`
/// equal-length distributions, written to the symmetric `n x n` matrix
/// `out` (`out[i * n + j]`; `out` is cleared and refilled).
///
/// Each entry is bit-identical to [`tvd`]`(rows[i], rows[j])`: every
/// pair still sums `|p_i(k) - p_j(k)|` in ascending `k`. The speed comes
/// from the layout, not from reassociating the sums: blocks of
/// `BLOCK_OUTCOMES` outcomes are gathered sample-minor into a scratch
/// block, and the SIMD lanes run across samples `j`, so one register
/// holds four pairs' running sums. `out` itself holds the running sums,
/// so the only other scratch is the `BLOCK_OUTCOMES x n` block.
///
/// # Panics
///
/// Panics if the distributions have different lengths.
pub fn pairwise_tvd_into(rows: &[&[f64]], out: &mut Vec<f64>) {
    let n = rows.len();
    let len = rows.first().map_or(0, |r| r.len());
    assert!(rows.iter().all(|r| r.len() == len), "distribution length mismatch");
    let padded = n.next_multiple_of(LANES);
    // While accumulating, row `i` of `out` (stride `padded`) holds the
    // running L1 sums of pairs (i, j >= i), started from -0.0 as
    // `Iterator::sum` starts.
    out.clear();
    out.resize(n * padded, -0.0);
    // Padding lanes `j >= n` stay zero; their sums are never read.
    let mut block = vec![0.0; BLOCK_OUTCOMES * padded];
    for k0 in (0..len).step_by(BLOCK_OUTCOMES) {
        let width = BLOCK_OUTCOMES.min(len - k0);
        for (j, row) in rows.iter().enumerate() {
            for (kk, &p) in row[k0..k0 + width].iter().enumerate() {
                block[kk * padded + j] = p;
            }
        }
        accumulate_l1(&block[..width * padded], padded, n, out);
    }
    // Compact to stride `n`: each row's sums move left, never over a
    // later row's, which starts at or beyond `(i + 1) * padded`.
    for i in 0..n {
        out.copy_within(i * padded + i..i * padded + n, i * n + i);
    }
    out.truncate(n * n);
    for i in 0..n {
        for j in i..n {
            let d = 0.5 * out[i * n + j];
            out[i * n + j] = d;
            out[j * n + i] = d;
        }
    }
}

/// Adds one gathered block (`block[kk * padded + j]` = outcome `kk` of
/// sample `j`) to the running L1 sums `acc[i * padded + j]`, `j >= i`, in
/// ascending `kk`.
fn accumulate_l1(block: &[f64], padded: usize, n: usize, acc: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if l1_simd::available() {
            // SAFETY: `available()` confirmed AVX2 at runtime.
            unsafe { l1_simd::accumulate_l1(block, padded, n, acc) };
            return;
        }
    }
    accumulate_l1_portable(block, padded, n, acc);
}

/// The portable [`accumulate_l1`]: one serial sum per pair.
fn accumulate_l1_portable(block: &[f64], padded: usize, n: usize, acc: &mut [f64]) {
    for i in 0..n {
        for j in i..n {
            let mut s = acc[i * padded + j];
            for line in block.chunks_exact(padded) {
                s += (line[i] - line[j]).abs();
            }
            acc[i * padded + j] = s;
        }
    }
}

/// AVX2 pairwise-L1 accumulation, lanes across samples. Each lane adds
/// `|x - y|` (sign bit cleared, exactly `f64::abs`) to its own running
/// sum, so the lanes round exactly like the portable per-pair loop.
#[cfg(target_arch = "x86_64")]
mod l1_simd {
    use super::LANES;
    use std::arch::x86_64::*;

    /// Whether the running CPU supports these kernels.
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx2")
    }

    /// `super::accumulate_l1_portable`, bit for bit. Row `i` sweeps the
    /// lane groups from the one holding `i` to `padded`; the few lanes
    /// below `i` (and the padding lanes) compute sums nobody reads.
    ///
    /// # Safety
    /// Requires AVX2 (see [`available`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_l1(block: &[f64], padded: usize, n: usize, acc: &mut [f64]) {
        assert!(padded.is_multiple_of(LANES) && n <= padded && block.len().is_multiple_of(padded));
        assert!(acc.len() >= n * padded);
        let width = block.len() / padded;
        let b = block.as_ptr();
        for i in 0..n {
            let row = acc.as_mut_ptr().add(i * padded);
            let mut j = i - i % LANES;
            while j + 4 * LANES <= padded {
                lanes::<4>(b, padded, width, i, j, row);
                j += 4 * LANES;
            }
            while j < padded {
                lanes::<1>(b, padded, width, i, j, row);
                j += LANES;
            }
        }
    }

    /// `V` registers of lanes `j .. j + V * LANES` of row `i`: the running
    /// sums stay in registers across the block's `width` outcomes.
    ///
    /// # Safety
    /// Requires AVX2, `i < padded`, `j + V * LANES <= padded`, `block`
    /// readable for `width * padded` values and `row` writable for
    /// `padded`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes<const V: usize>(
        block: *const f64,
        padded: usize,
        width: usize,
        i: usize,
        j: usize,
        row: *mut f64,
    ) {
        let sign = _mm256_set1_pd(-0.0);
        let mut sums = [_mm256_setzero_pd(); V];
        for (v, s) in sums.iter_mut().enumerate() {
            *s = _mm256_loadu_pd(row.add(j + v * LANES));
        }
        for kk in 0..width {
            let line = block.add(kk * padded);
            let x = _mm256_broadcast_sd(&*line.add(i));
            for (v, s) in sums.iter_mut().enumerate() {
                let y = _mm256_loadu_pd(line.add(j + v * LANES));
                *s = _mm256_add_pd(*s, _mm256_andnot_pd(sign, _mm256_sub_pd(x, y)));
            }
        }
        for (v, s) in sums.iter().enumerate() {
            _mm256_storeu_pd(row.add(j + v * LANES), *s);
        }
    }
}

/// Output fidelity `1 - TVD` between an ideal and a noisy distribution,
/// as used by the paper for both circuit fidelity and CNR (Eq. 1–2).
pub fn fidelity(ideal: &[f64], noisy: &[f64]) -> f64 {
    1.0 - tvd(ideal, noisy)
}

/// Converts a shot histogram into a normalized distribution.
///
/// # Panics
///
/// Panics if the histogram is empty or all-zero.
pub fn counts_to_distribution(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "empty histogram");
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Normalizes a non-negative vector in place to sum to one.
///
/// # Panics
///
/// Panics if the sum is (numerically) zero.
pub fn normalize(dist: &mut [f64]) {
    let total: f64 = dist.iter().sum();
    assert!(total > 1e-300, "cannot normalize zero mass");
    for d in dist.iter_mut() {
        *d /= total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n` random distributions over `len` outcomes. Some rows repeat
    /// earlier ones and some outcomes are exact zeros, so zero terms and
    /// zero distances occur.
    fn random_rows(n: usize, len: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for _ in 0..n {
            if !rows.is_empty() && rng.random_range(0..6) == 0 {
                let copy = rows[rng.random_range(0..rows.len())].clone();
                rows.push(copy);
                continue;
            }
            let mut row: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.random_range(0..5) == 0 {
                        0.0
                    } else {
                        rng.random::<f64>()
                    }
                })
                .collect();
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                row.iter_mut().for_each(|p| *p /= total);
            }
            rows.push(row);
        }
        rows
    }

    fn assert_matches_serial_tvd(rows: &[Vec<f64>]) {
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let mut out = vec![f64::NAN; 3];
        pairwise_tvd_into(&refs, &mut out);
        let n = rows.len();
        assert_eq!(out.len(), n * n);
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (i.min(j), i.max(j));
                assert_eq!(
                    out[i * n + j].to_bits(),
                    tvd(&rows[a], &rows[b]).to_bits(),
                    "pair ({i}, {j}) of {n} over {} outcomes",
                    rows[0].len()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn pairwise_tvd_matches_serial_tvd_bit_for_bit(
            n in 0usize..40,
            len in 1usize..100,
            seed in any::<u64>(),
        ) {
            assert_matches_serial_tvd(&random_rows(n, len, &mut StdRng::seed_from_u64(seed)));
        }

        #[test]
        fn portable_l1_accumulation_matches_the_dispatched_kernel(
            n in 1usize..30,
            width in 1usize..BLOCK_OUTCOMES + 1,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let padded = n.next_multiple_of(LANES);
            let block: Vec<f64> = (0..width * padded).map(|_| rng.random::<f64>()).collect();
            let acc: Vec<f64> = (0..n * padded).map(|_| rng.random::<f64>()).collect();
            let mut dispatched = acc.clone();
            accumulate_l1(&block, padded, n, &mut dispatched);
            let mut portable = acc;
            accumulate_l1_portable(&block, padded, n, &mut portable);
            for i in 0..n {
                for j in i..n {
                    prop_assert_eq!(
                        dispatched[i * padded + j].to_bits(),
                        portable[i * padded + j].to_bits(),
                        "pair ({}, {})", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn pairwise_tvd_matches_serial_tvd_at_repcap_scale() {
        // MNIST-10 RepCap's shape: 80 samples, 10 measured qubits.
        assert_matches_serial_tvd(&random_rows(80, 1024, &mut StdRng::seed_from_u64(3)));
    }

    #[test]
    fn pairwise_tvd_of_empty_distributions_is_serial_tvd() {
        assert_matches_serial_tvd(&[vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "distribution length mismatch")]
    fn pairwise_tvd_rejects_ragged_rows() {
        pairwise_tvd_into(&[&[0.5, 0.5], &[1.0]], &mut Vec::new());
    }

    #[test]
    fn tvd_bounds() {
        assert_eq!(tvd(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(tvd(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert!((tvd(&[0.5, 0.5], &[0.75, 0.25]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fidelity_is_one_minus_tvd() {
        assert!((fidelity(&[0.5, 0.5], &[0.75, 0.25]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn counts_normalize() {
        let d = counts_to_distribution(&[3, 1]);
        assert_eq!(d, vec![0.75, 0.25]);
    }

    #[test]
    fn normalize_in_place() {
        let mut d = vec![2.0, 6.0];
        normalize(&mut d);
        assert_eq!(d, vec![0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_histogram_panics() {
        counts_to_distribution(&[0, 0]);
    }
}
