//! Small helpers for the time series and sweep curves the scenarios emit.

use serde::{Deserialize, Serialize};

/// A named series of `(x, y)` points — a curve in one of the paper's
/// figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TimeSeries {
    /// Curve label (e.g. `"Incoming"`, `"SDNFV"`).
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        TimeSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The y value at the point closest to `x`, if any points exist.
    pub fn value_near(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.0 - x)
                    .abs()
                    .partial_cmp(&(b.0 - x).abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(_, y)| *y)
    }

    /// Mean of the y values between `x_from` (inclusive) and `x_to`
    /// (exclusive); `None` if no points fall in the window.
    pub fn mean_between(&self, x_from: f64, x_to: f64) -> Option<f64> {
        let values: Vec<f64> = self
            .points
            .iter()
            .filter(|(x, _)| *x >= x_from && *x < x_to)
            .map(|(_, y)| *y)
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(values.iter().sum::<f64>() / values.len() as f64)
        }
    }

    /// Largest y value.
    pub fn max_y(&self) -> Option<f64> {
        self.points.iter().map(|(_, y)| *y).fold(None, |acc, y| {
            Some(match acc {
                None => y,
                Some(a) => a.max(y),
            })
        })
    }

    /// Renders the series as simple tab-separated text (used by the figure
    /// harness).
    pub fn to_tsv(&self) -> String {
        let mut out = format!("# {}\n", self.label);
        for (x, y) in &self.points {
            out.push_str(&format!("{x:.4}\t{y:.4}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let mut s = TimeSeries::new("test");
        assert!(s.is_empty());
        assert_eq!(s.value_near(1.0), None);
        assert_eq!(s.mean_between(0.0, 10.0), None);
        assert_eq!(s.max_y(), None);
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        s.push(2.0, 5.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value_near(1.2), Some(3.0));
        assert_eq!(s.mean_between(0.5, 2.5), Some(4.0));
        assert_eq!(s.max_y(), Some(5.0));
        let tsv = s.to_tsv();
        assert!(tsv.starts_with("# test"));
        assert!(tsv.contains("1.0000\t3.0000"));
    }
}
