//! Order statistics over samples.

/// The `p`-quantile (`0 <= p <= 1`) by linear interpolation between
/// closest ranks; sorts `samples` in place. 0 for no samples.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

/// The Harrell–Davis estimate of the `p`-quantile (`0 < p < 1`): a
/// Beta-weighted mean of every order statistic instead of the one or
/// two samples nearest rank `p n`. A benchmark mix is a handful of query
/// shapes with distinct latencies, so the plain sample quantile is the
/// latency of whichever shape sits at that rank, and jumps when two
/// shapes swap; this estimate moves smoothly instead. Sorts `samples` in
/// place; 0 for no samples.
pub fn harrell_davis(samples: &mut [f64], p: f64) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let a = (n as f64 + 1.0) * p;
    let b = (n as f64 + 1.0) * (1.0 - p);
    // Weight of order statistic i: the Beta(a, b) mass on [i/n, (i+1)/n],
    // integrated by the midpoint rule in log space and normalised.
    const STEPS: usize = 16;
    let log_density = |t: f64| (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln();
    let width = 1.0 / (n * STEPS) as f64;
    let logs: Vec<f64> = (0..n * STEPS)
        .map(|k| log_density((k as f64 + 0.5) * width))
        .collect();
    let peak = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut weighted, mut total) = (0.0, 0.0);
    for (i, x) in samples.iter().enumerate() {
        let w: f64 = logs[i * STEPS..(i + 1) * STEPS]
            .iter()
            .map(|l| (l - peak).exp())
            .sum();
        weighted += w * x;
        total += w;
    }
    weighted / total
}

/// The median; sorts `samples` in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn harrell_davis_is_symmetric_and_bounded() {
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((harrell_davis(&mut v, 0.5) - 5.0).abs() < 1e-9);
        let p90 = harrell_davis(&mut v, 0.9);
        assert!(p90 > 7.0 && p90 < 9.0, "{p90}");
        assert_eq!(harrell_davis(&mut [3.0], 0.9), 3.0);
        assert_eq!(harrell_davis(&mut [], 0.5), 0.0);
    }
}
