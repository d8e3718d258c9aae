//! Histogram computation and the tree-merge operator (the HIST kernel).

/// Compute the histogram of `values` over `bins` equal-width bins spanning
/// `[lo, hi)`. Values outside the range clamp to the end bins, as image
/// histogramming does.
pub fn local_histogram(values: &[f64], bins: usize, lo: f64, hi: f64) -> Vec<u32> {
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
