//! Hurst-exponent estimation by the aggregated-variance method.
//!
//! Used to verify that the self-similar baseline source really exhibits
//! long-range dependence (H > 0.5) while Poisson-like and periodic
//! traffic does not — part of the "parallel traffic is not media
//! traffic" comparison.

/// Estimate the Hurst exponent of a stationary series by the
/// aggregated-variance method: for block sizes `m`, the variance of the
/// block means scales as `m^{2H−2}`; H is recovered from the slope of a
/// least-squares fit in log–log space.
///
/// Returns `None` for series too short to aggregate (< 64 samples) or
/// with zero variance.
pub fn hurst_aggregated_variance(series: &[f64]) -> Option<f64> {
    if series.len() < 64 {
        return None;
    }
    let mut points = Vec::new();
    let mut m = 1usize;
    while series.len() / m >= 8 {
        let means: Vec<f64> = series
            .chunks_exact(m)
            .map(|c| c.iter().sum::<f64>() / m as f64)
            .collect();
        let n = means.len() as f64;
        let mu = means.iter().sum::<f64>() / n;
        let var = means.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / n;
        if var > 0.0 {
            points.push(((m as f64).ln(), var.ln()));
        }
        m *= 2;
    }
    if points.len() < 3 {
        return None;
    }
    // Least-squares slope.
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some((slope / 2.0 + 1.0).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::self_similar_trace;
    use fxnet_sim::{SimRng, SimTime};
    use fxnet_trace::TraceStore;

    #[test]
    fn iid_noise_has_h_near_half() {
        // Deterministic scrambled noise ≈ i.i.d.
        let series: Vec<f64> = (0..16384u64)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((z ^ (z >> 27)) % 1000) as f64
            })
            .collect();
        let h = hurst_aggregated_variance(&series).unwrap();
        assert!((h - 0.5).abs() < 0.12, "iid H = {h}");
    }

    #[test]
    fn self_similar_traffic_has_high_h() {
        let mut rng = SimRng::new(77);
        let tr = self_similar_trace(
            32,
            20_000.0,
            1.4,
            1.0,
            500,
            SimTime::from_secs(240),
            &mut rng,
        );
        let series = TraceStore::from_records(&tr)
            .view()
            .binned_bandwidth(SimTime::from_millis(100));
        let h = hurst_aggregated_variance(&series).unwrap();
        assert!(h > 0.6, "self-similar H = {h}");
    }

    #[test]
    fn short_series_rejected() {
        assert!(hurst_aggregated_variance(&[1.0; 10]).is_none());
    }

    #[test]
    fn constant_series_rejected() {
        assert!(hurst_aggregated_variance(&[5.0; 1000]).is_none());
    }

    #[test]
    fn trend_has_h_near_one() {
        let series: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let h = hurst_aggregated_variance(&series).unwrap();
        assert!(h > 0.9, "trend H = {h}");
    }
}
