//! Data reuse patterns (§3.1.3).
//!
//! The paper evaluates two canonical patterns, both performing 7 re-accesses:
//! `reuse-lifetime (1 hr)` — one access every ~8 minutes for an hour — and
//! `reuse-lifetime (1 week)` — one access per day for a week. The pattern
//! changes which tier is cost-effective: short-lived hot data amortises
//! ephemeral-SSD staging, while week-long retention makes expensive tiers
//! pay rent long after the compute finished (Fig. 3).

use serde::{Deserialize, Serialize};

use cast_cloud::units::Duration;

/// How a dataset is re-accessed over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReusePattern {
    /// Total number of accesses (including the first).
    pub accesses: usize,
    /// Span from first to last access. Storage holding the dataset must be
    /// paid for at least this long.
    pub lifetime: Duration,
}

impl ReusePattern {
    /// Accessed exactly once; retained only while the job runs.
    pub fn none() -> ReusePattern {
        ReusePattern {
            accesses: 1,
            lifetime: Duration::ZERO,
        }
    }

    /// The paper's `reuse-lifetime (1 hr)`: 7 accesses over one hour
    /// (one every ~8 minutes).
    pub fn short_term() -> ReusePattern {
        ReusePattern {
            accesses: 7,
            lifetime: Duration::from_hours(1.0),
        }
    }

    /// The paper's `reuse-lifetime (1 week)`: 7 accesses over one week
    /// (one per day).
    pub fn long_term() -> ReusePattern {
        ReusePattern {
            accesses: 7,
            lifetime: Duration::from_hours(24.0 * 7.0),
        }
    }
}

impl Default for ReusePattern {
    fn default() -> Self {
        ReusePattern::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_patterns_do_seven_accesses() {
        assert_eq!(ReusePattern::short_term().accesses, 7);
        assert_eq!(ReusePattern::long_term().accesses, 7);
    }
}
