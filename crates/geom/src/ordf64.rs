//! A totally ordered `f64` wrapper for priority-queue keys.

use std::cmp::Ordering;
use std::fmt;

/// An `f64` that is `Ord`, for use as a priority-queue key.
///
/// Distances produced by the metric functions are never NaN (inputs are
/// finite coordinates, bounds may be `+inf`), and the constructor enforces
/// this, so the wrapper can expose the natural total order on the remaining
/// values.
#[derive(Clone, Copy, PartialEq)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Positive infinity (the key of pairs involving empty regions).
    pub const INFINITY: OrdF64 = OrdF64(f64::INFINITY);
    /// Zero.
    pub const ZERO: OrdF64 = OrdF64(0.0);

    /// Wraps a non-NaN float.
    ///
    /// # Panics
    /// Panics if `v` is NaN — distance functions never produce NaN, so this
    /// indicates a caller bug.
    #[must_use]
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "NaN is not a valid distance key");
        Self(v)
    }

    /// The wrapped value.
    #[inline]
    #[must_use]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        // The constructor rejects NaN, so `partial_cmp` always answers; the
        // fallback is unreachable. `total_cmp` would split -0.0 from +0.0,
        // which the derived `PartialEq` treats as equal.
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

impl fmt::Debug for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(v: f64) -> Self {
        Self::new(v)
    }
}

impl From<OrdF64> for f64 {
    fn from(v: OrdF64) -> f64 {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        assert!(OrdF64::new(1.0) < OrdF64::new(2.0));
        assert!(OrdF64::new(-1.0) < OrdF64::ZERO);
        assert!(OrdF64::new(1e308) < OrdF64::INFINITY);
        assert_eq!(OrdF64::new(3.5), OrdF64::new(3.5));
        assert_eq!(OrdF64::new(-0.0).cmp(&OrdF64::ZERO), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = OrdF64::new(f64::NAN);
    }

    #[test]
    fn sort_stability() {
        let mut v = vec![
            OrdF64::new(3.0),
            OrdF64::new(1.0),
            OrdF64::INFINITY,
            OrdF64::ZERO,
        ];
        v.sort();
        let raw: Vec<f64> = v.into_iter().map(OrdF64::get).collect();
        assert_eq!(raw, vec![0.0, 1.0, 3.0, f64::INFINITY]);
    }
}
