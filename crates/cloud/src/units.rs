//! Strongly-typed units used throughout the workspace.
//!
//! The CAST model mixes gigabytes, megabytes per second, dollars per
//! GB-month and wall-clock seconds; a single transposed constant silently
//! corrupts every downstream tiering decision. These newtypes keep the units
//! straight at compile time while staying `Copy` and arithmetic-friendly.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of bytes in one (decimal) gigabyte, matching cloud-provider
/// marketing units used in Table 1.
pub const BYTES_PER_GB: f64 = 1_000_000_000.0;
/// Number of bytes in one (decimal) megabyte.
pub const BYTES_PER_MB: f64 = 1_000_000.0;

/// An amount of data, stored internally in bytes.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct DataSize(f64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0.0);

    /// Construct from raw bytes.
    #[inline]
    pub fn from_bytes(bytes: f64) -> Self {
        debug_assert!(bytes.is_finite());
        DataSize(bytes)
    }

    /// Construct from decimal megabytes.
    #[inline]
    pub fn from_mb(mb: f64) -> Self {
        DataSize(mb * BYTES_PER_MB)
    }

    /// Construct from decimal gigabytes.
    #[inline]
    pub fn from_gb(gb: f64) -> Self {
        DataSize(gb * BYTES_PER_GB)
    }

    /// Construct from decimal terabytes.
    #[inline]
    pub fn from_tb(tb: f64) -> Self {
        DataSize(tb * 1000.0 * BYTES_PER_GB)
    }

    /// Raw bytes.
    #[inline]
    pub fn bytes(self) -> f64 {
        self.0
    }

    /// Decimal megabytes.
    #[inline]
    pub fn mb(self) -> f64 {
        self.0 / BYTES_PER_MB
    }

    /// Decimal gigabytes.
    #[inline]
    pub fn gb(self) -> f64 {
        self.0 / BYTES_PER_GB
    }

    /// True if this size is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: DataSize) -> DataSize {
        DataSize(self.0.max(other.0))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: DataSize) -> DataSize {
        DataSize(self.0.min(other.0))
    }

    /// Scale by a dimensionless factor (e.g. a selectivity ratio).
    #[inline]
    pub fn scale(self, factor: f64) -> DataSize {
        DataSize(self.0 * factor)
    }
}

impl Add for DataSize {
    type Output = DataSize;
    #[inline]
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 + rhs.0)
    }
}

impl AddAssign for DataSize {
    #[inline]
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 += rhs.0;
    }
}

impl Sub for DataSize {
    type Output = DataSize;
    #[inline]
    fn sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 - rhs.0)
    }
}

impl SubAssign for DataSize {
    #[inline]
    fn sub_assign(&mut self, rhs: DataSize) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for DataSize {
    type Output = DataSize;
    #[inline]
    fn mul(self, rhs: f64) -> DataSize {
        DataSize(self.0 * rhs)
    }
}

impl Div<f64> for DataSize {
    type Output = DataSize;
    #[inline]
    fn div(self, rhs: f64) -> DataSize {
        DataSize(self.0 / rhs)
    }
}

impl Div for DataSize {
    type Output = f64;
    #[inline]
    fn div(self, rhs: DataSize) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> DataSize {
        iter.fold(DataSize::ZERO, Add::add)
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gb = self.gb();
        if gb >= 1000.0 {
            write!(f, "{:.2} TB", gb / 1000.0)
        } else if gb >= 1.0 {
            write!(f, "{gb:.1} GB")
        } else {
            write!(f, "{:.1} MB", self.mb())
        }
    }
}

/// Sequential bandwidth, in decimal megabytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from MB/s.
    #[inline]
    pub fn from_mbps(mbps: f64) -> Self {
        debug_assert!(mbps >= 0.0 && mbps.is_finite());
        Bandwidth(mbps)
    }

    /// Construct from GB/s.
    #[inline]
    pub fn from_gbps(gbps: f64) -> Self {
        Bandwidth(gbps * 1000.0)
    }

    /// MB/s value.
    #[inline]
    pub fn mb_per_sec(self) -> f64 {
        self.0
    }

    /// Element-wise minimum — the effective rate of two serial bottlenecks.
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// Fair share of this bandwidth across `n` concurrent streams.
    #[inline]
    pub fn share(self, n: usize) -> Bandwidth {
        if n == 0 {
            self
        } else {
            Bandwidth(self.0 / n as f64)
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, Add::add)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MB/s", self.0)
    }
}

/// A span of (simulated) wall-clock time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Duration(f64);

impl Duration {
    /// Zero seconds.
    pub const ZERO: Duration = Duration(0.0);
    /// Positive infinity; used as "never" in event scheduling.
    pub const INFINITY: Duration = Duration(f64::INFINITY);

    /// Construct from seconds.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan());
        Duration(secs)
    }

    /// Construct from minutes.
    #[inline]
    pub fn from_mins(mins: f64) -> Self {
        Duration(mins * 60.0)
    }

    /// Construct from hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Duration(hours * 3600.0)
    }

    /// Seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// Minutes.
    #[inline]
    pub fn mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Hours.
    #[inline]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Whole billing hours, rounded up (cloud storage is billed hourly;
    /// Eq. 6 uses `ceil(T/60)` with `T` in minutes).
    #[inline]
    pub fn billing_hours(self) -> f64 {
        self.hours().ceil().max(1.0)
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// True if zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// True if finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: f64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div for Duration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Duration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.2} h", self.hours())
        } else if self.0 >= 60.0 {
            write!(f, "{:.1} min", self.mins())
        } else {
            write!(f, "{:.1} s", self.0)
        }
    }
}

/// US dollars.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Money(f64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0.0);

    /// Construct from a dollar amount.
    #[inline]
    pub fn from_dollars(d: f64) -> Self {
        debug_assert!(d.is_finite());
        Money(d)
    }

    /// Dollar amount.
    #[inline]
    pub fn dollars(self) -> f64 {
        self.0
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }
}

impl Add for Money {
    type Output = Money;
    #[inline]
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    #[inline]
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    #[inline]
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl Neg for Money {
    type Output = Money;
    #[inline]
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<f64> for Money {
    type Output = Money;
    #[inline]
    fn mul(self, rhs: f64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Div for Money {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Money) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.2}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasize_roundtrips_units() {
        let s = DataSize::from_gb(1.5);
        assert!((s.mb() - 1500.0).abs() < 1e-9);
        assert!((s.bytes() - 1.5e9).abs() < 1e-3);
        assert!((DataSize::from_tb(2.0).gb() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn datasize_arithmetic() {
        let a = DataSize::from_gb(10.0);
        let b = DataSize::from_gb(4.0);
        assert!(((a + b).gb() - 14.0).abs() < 1e-12);
        assert!(((a - b).gb() - 6.0).abs() < 1e-12);
        assert!(((a * 2.0).gb() - 20.0).abs() < 1e-12);
        assert!(((a / 2.0).gb() - 5.0).abs() < 1e-12);
        assert!((a / b - 2.5).abs() < 1e-12);
        let total: DataSize = [a, b].into_iter().sum();
        assert!((total.gb() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_share_is_fair() {
        let bw = Bandwidth::from_mbps(300.0);
        assert!((bw.share(3).mb_per_sec() - 100.0).abs() < 1e-12);
        // Sharing across zero streams leaves it untouched.
        assert_eq!(bw.share(0), bw);
    }

    #[test]
    fn billing_hours_round_up_with_minimum_of_one() {
        assert_eq!(Duration::from_mins(5.0).billing_hours(), 1.0);
        assert_eq!(Duration::from_hours(1.0).billing_hours(), 1.0);
        assert_eq!(Duration::from_mins(61.0).billing_hours(), 2.0);
        assert_eq!(Duration::ZERO.billing_hours(), 1.0);
    }

    #[test]
    fn duration_display_picks_sane_units() {
        assert_eq!(format!("{}", Duration::from_secs(30.0)), "30.0 s");
        assert_eq!(format!("{}", Duration::from_mins(5.0)), "5.0 min");
        assert_eq!(format!("{}", Duration::from_hours(2.0)), "2.00 h");
    }

    #[test]
    fn money_arithmetic() {
        let a = Money::from_dollars(10.0);
        let b = Money::from_dollars(2.5);
        assert!(((a + b).dollars() - 12.5).abs() < 1e-12);
        assert!(((a - b).dollars() - 7.5).abs() < 1e-12);
        assert!(((a * 3.0).dollars() - 30.0).abs() < 1e-12);
        assert!((a / b - 4.0).abs() < 1e-12);
    }

    #[test]
    fn datasize_display() {
        assert_eq!(format!("{}", DataSize::from_gb(1500.0)), "1.50 TB");
        assert_eq!(format!("{}", DataSize::from_gb(12.0)), "12.0 GB");
        assert_eq!(format!("{}", DataSize::from_mb(12.0)), "12.0 MB");
    }
}
