//! Histogram computation and the tree-merge operator (the HIST kernel).

/// Values whose bins one pass of [`local_histogram`] computes before a
/// second pass counts them.
const BLOCK: usize = 256;

/// Compute the histogram of `values` over `bins` equal-width bins spanning
/// `[lo, hi)`. Values outside the range clamp to the end bins, as image
/// histogramming does, and NaN lands in bin 0.
///
/// A bin is `(v − lo) · scale` clamped to `[0, bins − 1]` and truncated,
/// which is its floor wherever it is not clamped: no libm call, so the
/// first pass over each block vectorises and the second only counts.
/// `bins` is at most 2³², so a bin is a `u32`.
pub fn local_histogram(values: &[f64], bins: usize, lo: f64, hi: f64) -> Vec<u32> {
    assert!(bins > 0 && hi > lo);
    let top = u32::try_from(bins - 1).expect("at most 2^32 bins");
    let mut h = vec![0u32; bins];
    let scale = bins as f64 / (hi - lo);
    let top = f64::from(top);
    let mut idx = [0u32; BLOCK];
    for block in values.chunks(BLOCK) {
        for (i, &v) in idx.iter_mut().zip(block) {
            let x = (v - lo) * scale;
            let clamped = if x < top { x } else { top };
            // False for NaN as for negatives, so NaN lands in bin 0.
            let clamped = if x >= 0.0 { clamped } else { 0.0 };
            *i = clamped as u32;
        }
        for &i in &idx[..block.len()] {
            h[i as usize] += 1;
        }
    }
    h
}

/// Merge `other` into `acc` (the tree-reduction combine step).
pub fn merge_histograms(acc: &mut [u32], other: &[u32]) {
    assert_eq!(acc.len(), other.len());
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel as it was before it lost `floor`: the oracle.
    fn floor_histogram(values: &[f64], bins: usize, lo: f64, hi: f64) -> Vec<u32> {
        assert!(bins > 0 && hi > lo);
        let mut h = vec![0u32; bins];
        let scale = bins as f64 / (hi - lo);
        for &v in values {
            let idx = ((v - lo) * scale).floor();
            let idx = (idx.max(0.0) as usize).min(bins - 1);
            h[idx] += 1;
        }
        h
    }

    /// Values on every edge of the bin rule, for bins over `[lo, hi)`.
    fn edge_values(bins: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            lo,
            hi,
            lo - 1e300,
            hi + 1e300,
        ];
        let width = (hi - lo) / bins as f64;
        for b in 0..=bins {
            let edge = lo + width * b as f64;
            v.extend([edge, edge.next_down(), edge.next_up(), edge - width / 2.0]);
        }
        v
    }

    #[test]
    fn bins_equal_the_floor_kernel_on_every_edge() {
        for (bins, lo, hi) in [
            (1, 0.0, 1.0),
            (3, 0.0, 3.0),
            (16, -50.0, 50.0),
            (512, 0.0, 256.0),
            (7, -1e-300, 1e-300),
            (1000, 1e15, 1e15 + 3.0),
        ] {
            let values = edge_values(bins, lo, hi);
            // Long enough to cross a block boundary with a partial block.
            let values: Vec<f64> = values
                .iter()
                .cycle()
                .take(3 * BLOCK + 17)
                .copied()
                .collect();
            assert_eq!(
                local_histogram(&values, bins, lo, hi),
                floor_histogram(&values, bins, lo, hi),
                "{bins} bins over [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn counts_land_in_correct_bins() {
        let h = local_histogram(&[0.0, 0.5, 1.5, 2.5, 2.9], 3, 0.0, 3.0);
        assert_eq!(h, vec![2, 1, 2]);
    }

    #[test]
    fn out_of_range_clamps() {
        let h = local_histogram(&[-5.0, 10.0], 4, 0.0, 1.0);
        assert_eq!(h, vec![1, 0, 0, 1]);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = vec![1, 2, 3];
        merge_histograms(&mut a, &[10, 20, 30]);
        assert_eq!(a, vec![11, 22, 33]);
    }

    proptest! {
        #[test]
        fn total_count_preserved(vals in prop::collection::vec(-100.0f64..100.0, 0..500)) {
            let h = local_histogram(&vals, 16, -50.0, 50.0);
            prop_assert_eq!(h.iter().sum::<u32>() as usize, vals.len());
        }

        #[test]
        fn bins_equal_the_floor_kernel_on_any_bits(
            bits in prop::collection::vec(any::<u64>(), 0..700),
            spread in prop::collection::vec(-0.1f64..1.1, 0..700),
            bins in 1usize..600,
            lo_bits in any::<u64>(),
            width_bits in any::<u64>(),
        ) {
            // Any finite `lo`, and any width that leaves `hi` above it.
            let lo = Some(f64::from_bits(lo_bits)).filter(|lo| lo.is_finite()).unwrap_or(0.0);
            let hi = lo + f64::from_bits(width_bits).abs();
            let hi = if hi > lo { hi } else { lo.next_up() };
            // Arbitrary bits mostly clamp; `spread` fills the bins between.
            let mut values: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
            values.extend(spread.iter().map(|u| lo + u * (hi - lo)));
            prop_assert_eq!(
                local_histogram(&values, bins, lo, hi),
                floor_histogram(&values, bins, lo, hi)
            );
        }

        #[test]
        fn merge_equals_concatenated_histogram(
            a in prop::collection::vec(0.0f64..10.0, 0..200),
            b in prop::collection::vec(0.0f64..10.0, 0..200),
        ) {
            let mut ha = local_histogram(&a, 8, 0.0, 10.0);
            let hb = local_histogram(&b, 8, 0.0, 10.0);
            merge_histograms(&mut ha, &hb);
            let mut both = a.clone();
            both.extend_from_slice(&b);
            prop_assert_eq!(ha, local_histogram(&both, 8, 0.0, 10.0));
        }
    }
}
