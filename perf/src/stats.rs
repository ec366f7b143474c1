//! Percentile, segment and spread arithmetic — the parts of the harness
//! that can silently lie, kept small and unit-tested.
//!
//! A run's value for a metric is the **median over segments** of the
//! per-segment value: one noisy-neighbour burst spoils one segment, not
//! the run.

/// A gated latency percentile needs this many samples beyond it in every
/// segment, or it measures a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// A gated percentile must sit at least this many percentage points away
/// from a boundary between operation classes, or a small shift in the mix
/// flips which class it reads.
pub const CLASS_MARGIN_POINTS: f64 = 10.0;

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller has at least one segment.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest-rank index of percentile `p` (0 < p <= 100) among `n`
/// sorted samples: the smallest rank with at least `p` % of samples at or
/// below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 100.0, "rank of p={p} over n={n}");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice: always a value
/// that was observed, never an interpolation between two classes.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// One completed, verified operation as the load generator saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Completion time, seconds from the start of the measured window.
    pub end_s: f64,
    /// Client-observed latency in milliseconds.
    pub latency_ms: f64,
    /// Operation class (index into the workload's class table).
    pub class: u8,
}

/// What one segment of the window measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentStats {
    /// Operations completed in the segment.
    pub count: usize,
    /// Seconds those operations took: from the start of the segment's
    /// head to its last completion. Dividing by this, not by the nominal
    /// head length, keeps the rate from being quantised to whole
    /// operations per segment.
    pub span_s: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile latency, ms (reported, never gated).
    pub p99_ms: f64,
}

/// Summarise one segment's latencies. Fails if fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond its p90.
pub fn segment_stats(
    index: usize,
    mut latencies_ms: Vec<f64>,
    span_s: f64,
) -> Result<SegmentStats, String> {
    let n = latencies_ms.len();
    if n == 0 || samples_beyond(n, 90.0) < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "segment {index} has {n} samples: fewer than {MIN_SAMPLES_BEYOND} beyond p90"
        ));
    }
    latencies_ms.sort_by(f64::total_cmp);
    Ok(SegmentStats {
        count: n,
        span_s,
        p50_ms: percentile_sorted(&latencies_ms, 50.0),
        p90_ms: percentile_sorted(&latencies_ms, 90.0),
        p99_ms: percentile_sorted(&latencies_ms, 99.0),
    })
}

impl SegmentStats {
    /// Operations per second over the time they took.
    pub fn rate(&self) -> f64 {
        self.count as f64 / self.span_s
    }
}

/// The run value of a per-segment quantity: the median over segments.
pub fn median_over_segments(segs: &[SegmentStats], f: impl Fn(&SegmentStats) -> f64) -> f64 {
    median(&segs.iter().map(f).collect::<Vec<_>>())
}

/// One operation class of a mixed workload, as observed.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassShare {
    /// Class name (for the error message).
    pub name: String,
    /// Operations of this class in the window.
    pub count: usize,
    /// Median latency of the class, ms.
    pub median_ms: f64,
}

/// Percentile positions (0–100) of the boundaries between classes when
/// the classes are ordered by their median latency. A single class has no
/// boundary.
pub fn class_boundaries(classes: &[ClassShare]) -> Vec<f64> {
    let mut ordered: Vec<&ClassShare> = classes.iter().filter(|c| c.count > 0).collect();
    ordered.sort_by(|a, b| a.median_ms.total_cmp(&b.median_ms));
    let total: usize = ordered.iter().map(|c| c.count).sum();
    let mut cum = 0usize;
    let mut out = Vec::new();
    for c in ordered.iter().take(ordered.len().saturating_sub(1)) {
        cum += c.count;
        out.push(100.0 * cum as f64 / total as f64);
    }
    out
}

/// Check that every gated percentile sits at least
/// [`CLASS_MARGIN_POINTS`] away from every class boundary.
pub fn check_class_margins(classes: &[ClassShare], gated: &[f64]) -> Result<(), String> {
    for b in class_boundaries(classes) {
        for &p in gated {
            if (p - b).abs() < CLASS_MARGIN_POINTS {
                return Err(format!(
                    "p{p} sits {:.1} points from the class boundary at {b:.1} % \
                     (need {CLASS_MARGIN_POINTS}): {classes:?}",
                    (p - b).abs()
                ));
            }
        }
    }
    Ok(())
}

/// Relative distance of an A/A pair: their distance over their mean.
pub fn pair_spread(a: f64, b: f64) -> f64 {
    (a - b).abs() / ((a + b) / 2.0).abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_is_an_observed_value() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        // Never interpolates: with two samples p50 is the lower one.
        assert_eq!(percentile_sorted(&[1.0, 9.0], 50.0), 1.0);
        assert_eq!(percentile_sorted(&[1.0, 9.0], 51.0), 9.0);
    }

    #[test]
    fn ten_samples_beyond_p90_needs_a_hundred() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(109, 90.0), 10);
    }

    #[test]
    fn a_segment_reports_observed_percentiles_and_its_rate() {
        // 200 operations in 2 s: latencies 1..=200 ms.
        let seg = segment_stats(0, (1..=200).rev().map(f64::from).collect(), 2.0).unwrap();
        assert_eq!((seg.count, seg.p50_ms, seg.p90_ms, seg.p99_ms), (200, 100.0, 180.0, 198.0));
        assert!((seg.rate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn one_spoiled_segment_does_not_move_the_run_value() {
        let segs: Vec<SegmentStats> = (0..6)
            .map(|k| segment_stats(k, vec![if k == 2 { 50.0 } else { 1.0 }; 100], 1.0).unwrap())
            .collect();
        assert_eq!(median_over_segments(&segs, |s| s.p90_ms), 1.0);
    }

    #[test]
    fn a_thin_segment_is_refused() {
        assert!(segment_stats(4, vec![1.0; 100], 1.0).is_ok());
        let err = segment_stats(4, vec![1.0; 99], 1.0).unwrap_err();
        assert!(err.contains("segment 4"), "{err}");
        assert!(segment_stats(0, Vec::new(), 1.0).is_err());
    }

    fn mix(shares: &[(&str, usize, f64)]) -> Vec<ClassShare> {
        shares
            .iter()
            .map(|&(n, c, m)| ClassShare { name: n.into(), count: c, median_ms: m })
            .collect()
    }

    #[test]
    fn boundaries_follow_latency_order_not_declaration_order() {
        let classes = mix(&[("score", 45, 0.4), ("slow", 25, 1.5), ("hit", 30, 0.1)]);
        assert_eq!(class_boundaries(&classes), vec![30.0, 75.0]);
        assert!(check_class_margins(&classes, &[50.0, 90.0]).is_ok());
    }

    #[test]
    fn a_percentile_near_a_boundary_is_refused() {
        // 55 % fast: p50 sits 5 points from the boundary.
        let classes = mix(&[("fast", 55, 0.1), ("slow", 45, 1.0)]);
        let err = check_class_margins(&classes, &[50.0, 90.0]).unwrap_err();
        assert!(err.contains("p50"), "{err}");
        // A homogeneous workload has no boundary at all.
        assert!(check_class_margins(&mix(&[("only", 100, 1.0)]), &[50.0, 90.0]).is_ok());
        // Empty classes do not create boundaries.
        let classes = mix(&[("a", 0, 0.1), ("b", 100, 1.0)]);
        assert!(class_boundaries(&classes).is_empty());
    }

    #[test]
    fn spread_of_a_pair_is_their_distance_over_their_mean() {
        assert!((pair_spread(100.0, 110.0) - 10.0 / 105.0).abs() < 1e-12);
        assert_eq!(pair_spread(3.0, 3.0), 0.0);
        assert_eq!(pair_spread(110.0, 100.0), pair_spread(100.0, 110.0));
    }
}
