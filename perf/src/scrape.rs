//! Reader for the server's `GET /metrics` text (Prometheus exposition
//! format, the subset kg-serve renders): series name with its label set,
//! verbatim, mapped to the value. Layer counters are read as the delta of
//! two scrapes around a window.

use std::collections::HashMap;

/// One scrape: `name{labels}` (exactly as rendered) → value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Parse exposition text. Comment lines, blank lines and lines whose
    /// value is not a number are skipped; a series seen twice keeps its
    /// last value.
    pub fn parse(text: &str) -> Scrape {
        let mut map = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated token *after*
            // the label set (label values may contain spaces).
            let split_at = match line.rfind('}') {
                Some(close) => close + 1,
                None => line.find(char::is_whitespace).unwrap_or(line.len()),
            };
            let (series, rest) = line.split_at(split_at);
            let Some(value) = rest.split_whitespace().next().and_then(|v| v.parse::<f64>().ok())
            else {
                continue;
            };
            map.insert(series.trim().to_string(), value);
        }
        Scrape(map)
    }

    /// Value of one series, 0 when absent (a counter nobody bumped yet is
    /// not rendered).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Sum of every series of a metric family, whatever its labels.
    pub fn family_sum(&self, family: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(family).is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Number of series parsed.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was parsed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Counter growth between two scrapes of one series.
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.get(series) - before.get(series)
}

/// Growth of a whole family (all label sets summed).
pub fn family_delta(before: &Scrape, after: &Scrape, family: &str) -> f64 {
    after.family_sum(family) - before.family_sum(family)
}

/// `numerator / denominator`, 0 when nothing happened.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP kg_serve_requests_total Requests handled, by endpoint.
# TYPE kg_serve_requests_total counter
kg_serve_requests_total{endpoint=\"/topk\"} 120
kg_serve_requests_total{endpoint=\"/score\"} 30

kg_serve_reactor_wakeups_total 450
kg_serve_latency_seconds{endpoint=\"/topk\",quantile=\"0.5\"} 0.00125
kg_serve_gateway_backend_errors_total{backend=\"127.0.0.1:1 odd\"} 2
kg_serve_requests_total_extra 7
not_a_number{x=\"y\"} abc
";

    #[test]
    fn parses_plain_labelled_and_float_series() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.len(), 6);
        assert_eq!(s.get("kg_serve_requests_total{endpoint=\"/topk\"}"), 120.0);
        assert_eq!(s.get("kg_serve_reactor_wakeups_total"), 450.0);
        assert_eq!(s.get("kg_serve_latency_seconds{endpoint=\"/topk\",quantile=\"0.5\"}"), 0.00125);
        // A label value with a space does not confuse the value split.
        assert_eq!(
            s.get("kg_serve_gateway_backend_errors_total{backend=\"127.0.0.1:1 odd\"}"),
            2.0
        );
        assert_eq!(s.get("absent_series"), 0.0);
    }

    #[test]
    fn family_sum_does_not_swallow_longer_names() {
        let s = Scrape::parse(TEXT);
        assert_eq!(s.family_sum("kg_serve_requests_total"), 150.0);
        assert_eq!(s.family_sum("kg_serve_requests_total_extra"), 7.0);
    }

    #[test]
    fn deltas_between_scrapes() {
        let before = Scrape::parse(TEXT);
        let after = Scrape::parse(
            "kg_serve_requests_total{endpoint=\"/topk\"} 200\n\
             kg_serve_requests_total{endpoint=\"/score\"} 30\n\
             kg_serve_topk_cache_hits_total 9\n",
        );
        assert_eq!(delta(&before, &after, "kg_serve_requests_total{endpoint=\"/topk\"}"), 80.0);
        assert_eq!(family_delta(&before, &after, "kg_serve_requests_total"), 80.0);
        // A counter first rendered after the window started counts from 0.
        assert_eq!(delta(&before, &after, "kg_serve_topk_cache_hits_total"), 9.0);
        assert_eq!(ratio(9.0, 0.0), 0.0);
        assert_eq!(ratio(9.0, 18.0), 0.5);
    }
}
