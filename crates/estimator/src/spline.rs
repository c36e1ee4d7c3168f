//! Monotone cubic Hermite spline interpolation.
//!
//! The paper fits capacity→runtime curves with a "third degree
//! polynomial-based cubic Hermite spline" (§4.2.1). We use Fritsch–Carlson
//! tangent limiting, which preserves the monotonicity of the data — an
//! essential property here: provisioned capacity never *hurts* bandwidth,
//! so an interpolant that overshoots would let the solver hallucinate
//! performance cliffs that do not exist.

use serde::{Deserialize, Serialize};

use crate::error::EstimatorError;

/// A monotonicity-preserving piecewise-cubic interpolant.
///
/// ```
/// use cast_estimator::MonotoneSpline;
///
/// // Table 1's persSSD throughput points.
/// let reg = MonotoneSpline::fit(&[(100.0, 48.0), (250.0, 118.0), (500.0, 234.0)]).unwrap();
/// let mid = reg.eval(300.0);
/// assert!(mid > 118.0 && mid < 234.0);
/// // Clamped extrapolation: capacity beyond the profiled range saturates.
/// assert_eq!(reg.eval(10_000.0), 234.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonotoneSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Tangent (dy/dx) at each knot.
    ms: Vec<f64>,
}

impl MonotoneSpline {
    /// Fit a spline through `(x, y)` points. Points are sorted by `x`;
    /// at least one point is required and `x` values must be distinct
    /// and not NaN.
    pub fn fit(points: &[(f64, f64)]) -> Result<MonotoneSpline, EstimatorError> {
        if points.is_empty() {
            return Err(EstimatorError::EmptyFit);
        }
        if points.iter().any(|p| p.0.is_nan()) {
            return Err(EstimatorError::NanKnot);
        }
        let mut pts: Vec<(f64, f64)> = points.to_vec();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in pts.windows(2) {
            if (w[1].0 - w[0].0).abs() < 1e-12 {
                return Err(EstimatorError::DuplicateKnot(w[0].0));
            }
        }
        let n = pts.len();
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        if n == 1 {
            return Ok(MonotoneSpline {
                xs,
                ys,
                ms: vec![0.0],
            });
        }
        // Secant slopes.
        let d: Vec<f64> = (0..n - 1)
            .map(|i| (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]))
            .collect();
        // Initial tangents: one-sided at the ends, averaged inside.
        let mut ms = vec![0.0; n];
        ms[0] = d[0];
        ms[n - 1] = d[n - 2];
        for i in 1..n - 1 {
            ms[i] = if d[i - 1] * d[i] <= 0.0 {
                0.0
            } else {
                0.5 * (d[i - 1] + d[i])
            };
        }
        // Fritsch–Carlson limiting.
        for i in 0..n - 1 {
            if d[i] == 0.0 {
                ms[i] = 0.0;
                ms[i + 1] = 0.0;
                continue;
            }
            let a = ms[i] / d[i];
            let b = ms[i + 1] / d[i];
            let s = a * a + b * b;
            if s > 9.0 {
                let t = 3.0 / s.sqrt();
                ms[i] = t * a * d[i];
                ms[i + 1] = t * b * d[i];
            }
        }
        Ok(MonotoneSpline { xs, ys, ms })
    }

    /// Evaluate at `x`. Outside the knot range the spline extrapolates
    /// flat (clamped to the boundary value): capacity beyond the profiled
    /// range is assumed to have saturated.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if n == 1 || x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // Binary search for the containing interval.
        let mut lo = 0;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.xs[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let h = self.xs[hi] - self.xs[lo];
        let t = (x - self.xs[lo]) / h;
        let (t2, t3) = (t * t, t * t * t);
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        h00 * self.ys[lo] + h10 * h * self.ms[lo] + h01 * self.ys[hi] + h11 * h * self.ms[hi]
    }

    /// The knot x-coordinates.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }

    /// The knot y-values.
    pub fn values(&self) -> &[f64] {
        &self.ys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interpolates_knots_exactly() {
        let pts = [
            (100.0, 48.0),
            (250.0, 118.0),
            (500.0, 234.0),
            (1000.0, 400.0),
        ];
        let s = MonotoneSpline::fit(&pts).unwrap();
        for (x, y) in pts {
            assert!((s.eval(x) - y).abs() < 1e-9, "at {x}");
        }
    }

    #[test]
    fn clamps_outside_range() {
        let s = MonotoneSpline::fit(&[(1.0, 10.0), (2.0, 20.0)]).unwrap();
        assert_eq!(s.eval(0.0), 10.0);
        assert_eq!(s.eval(5.0), 20.0);
    }

    #[test]
    fn single_point_is_constant() {
        let s = MonotoneSpline::fit(&[(3.0, 7.0)]).unwrap();
        assert_eq!(s.eval(-10.0), 7.0);
        assert_eq!(s.eval(3.0), 7.0);
        assert_eq!(s.eval(99.0), 7.0);
    }

    #[test]
    fn unsorted_input_accepted() {
        let s = MonotoneSpline::fit(&[(2.0, 20.0), (1.0, 10.0)]).unwrap();
        assert!((s.eval(1.5) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_knot_rejected() {
        assert!(matches!(
            MonotoneSpline::fit(&[(1.0, 1.0), (1.0, 2.0)]),
            Err(EstimatorError::DuplicateKnot(_))
        ));
        assert!(matches!(
            MonotoneSpline::fit(&[]),
            Err(EstimatorError::EmptyFit)
        ));
    }

    #[test]
    fn nan_knot_is_an_error() {
        assert_eq!(
            MonotoneSpline::fit(&[(1.0, 1.0), (f64::NAN, 2.0)]),
            Err(EstimatorError::NanKnot)
        );
    }

    #[test]
    fn flat_data_stays_flat() {
        let s = MonotoneSpline::fit(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        for i in 0..=20 {
            let x = i as f64 * 0.1;
            assert!((s.eval(x) - 5.0).abs() < 1e-12);
        }
    }

    proptest! {
        /// Monotone data must produce a monotone interpolant (the whole
        /// point of Fritsch–Carlson).
        #[test]
        fn preserves_monotonicity(mut ys in proptest::collection::vec(0.0f64..1000.0, 3..10)) {
            ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let pts: Vec<(f64, f64)> = ys.iter().enumerate()
                .map(|(i, &y)| (i as f64 * 10.0, y))
                .collect();
            let s = MonotoneSpline::fit(&pts).unwrap();
            let mut prev = s.eval(-1.0);
            for i in 0..=((pts.len()-1) * 100) {
                let x = i as f64 * 0.1;
                let y = s.eval(x);
                prop_assert!(y >= prev - 1e-9, "non-monotone at x={x}: {y} < {prev}");
                prev = y;
            }
        }

        /// Values never overshoot the data range.
        #[test]
        fn bounded_by_data(ys in proptest::collection::vec(0.0f64..100.0, 2..8)) {
            let pts: Vec<(f64, f64)> = ys.iter().enumerate()
                .map(|(i, &y)| (i as f64, y))
                .collect();
            let s = MonotoneSpline::fit(&pts).unwrap();
            let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for i in 0..=((pts.len()-1) * 50) {
                let x = i as f64 / 50.0 * (pts.len()-1) as f64 / (pts.len()-1) as f64 * (pts.len()-1) as f64;
                let y = s.eval(x);
                prop_assert!(y >= lo - 1e-6 && y <= hi + 1e-6, "overshoot at {x}: {y} not in [{lo},{hi}]");
            }
        }

        /// Knot interpolation holds for arbitrary monotone-x data.
        #[test]
        fn hits_knots(pairs in proptest::collection::vec((0u32..1000, -100.0f64..100.0), 1..8)) {
            let mut pts: Vec<(f64, f64)> = pairs.iter()
                .map(|&(x, y)| (x as f64, y))
                .collect();
            pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            pts.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
            let s = MonotoneSpline::fit(&pts).unwrap();
            for &(x, y) in &pts {
                prop_assert!((s.eval(x) - y).abs() < 1e-9);
            }
        }
    }
}
