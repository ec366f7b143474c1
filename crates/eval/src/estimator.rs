//! Estimator quality: series of (estimate, truth) pairs per metric, with
//! the MAE / MAPE / Pearson summaries the paper's tables report.

use kg_core::stats::{mae, mape, pearson};

/// Which ranking metric a series tracks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Metric {
    /// Mean reciprocal rank (the headline metric).
    Mrr,
    /// Hits@1.
    Hits1,
    /// Hits@3.
    Hits3,
    /// Hits@10.
    Hits10,
    /// Mean rank.
    MeanRank,
}

impl Metric {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Mrr => "MRR",
            Metric::Hits1 => "Hits@1",
            Metric::Hits3 => "Hits@3",
            Metric::Hits10 => "Hits@10",
            Metric::MeanRank => "MeanRank",
        }
    }
}

/// Paired series of estimated vs true metric values (e.g. one value per
/// validation epoch).
#[derive(Clone, Debug, Default)]
pub struct EstimatorSeries {
    estimates: Vec<f64>,
    truths: Vec<f64>,
}

impl EstimatorSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one (estimate, truth) pair.
    pub fn push(&mut self, estimate: f64, truth: f64) {
        self.estimates.push(estimate);
        self.truths.push(truth);
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }

    /// Mean absolute error (Table 6 / 15).
    pub fn mae(&self) -> f64 {
        mae(&self.estimates, &self.truths)
    }

    /// Mean absolute percentage error (Figures 4 / 5).
    pub fn mape(&self) -> f64 {
        mape(&self.estimates, &self.truths)
    }

    /// Pearson correlation (Tables 7 / 12–14); `None` when undefined.
    pub fn pearson(&self) -> Option<f64> {
        pearson(&self.estimates, &self.truths)
    }

    /// The estimate series.
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// The truth series.
    pub fn truths(&self) -> &[f64] {
        &self.truths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics() {
        let mut s = EstimatorSeries::new();
        s.push(0.5, 0.4);
        s.push(0.6, 0.5);
        s.push(0.7, 0.6);
        assert!((s.mae() - 0.1).abs() < 1e-12);
        assert!((s.pearson().unwrap() - 1.0).abs() < 1e-9, "perfectly correlated");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn anti_correlated_series() {
        let mut s = EstimatorSeries::new();
        for i in 0..5 {
            s.push(i as f64, -(i as f64));
        }
        assert!((s.pearson().unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn metric_names() {
        assert_eq!(Metric::Mrr.name(), "MRR");
    }

    #[test]
    fn empty_series_degenerates_gracefully() {
        let s = EstimatorSeries::new();
        assert_eq!(s.mae(), 0.0);
        assert_eq!(s.pearson(), None);
        assert!(s.is_empty());
    }
}
