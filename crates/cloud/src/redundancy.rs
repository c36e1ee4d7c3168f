//! Redundancy schemes: how a storage tier keeps data alive.
//!
//! CAST treats durability as the provider's problem: every tier is a
//! black box that never loses bytes, its replication folded into the
//! price. This module makes the scheme explicit so the cost model can
//! charge for the raw capacity a scheme actually consumes, and the
//! `durability_sweep` experiment can price schemes of equal fault
//! tolerance against each other. The simulator never loses shards.
//!
//! * [`RedundancyScheme::Replicated`] — `copies` full replicas. Storage
//!   overhead `(copies − 1) × 100 %` (3× replication = 200 %), tolerates
//!   `copies − 1` simultaneous shard losses.
//! * [`RedundancyScheme::ErasureCoded`] — Reed–Solomon `data + parity`
//!   striping. Overhead `parity / data × 100 %` (4+2 = 50 %), tolerates
//!   `parity` losses.
//!
//! The default scheme everywhere is `Replicated { copies: 1 }`: the
//! provider-internal durability already folded into Table 1's prices.
//! Under it every cost is bit-identical to the pre-durability model.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::CloudError;

/// How a tier lays out one dataset's bytes across failure domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RedundancyScheme {
    /// `copies` full replicas of every byte.
    Replicated {
        /// Number of replicas (1 = provider-internal durability only).
        copies: u32,
    },
    /// Reed–Solomon erasure coding: `data` data shards plus `parity`
    /// parity shards per stripe.
    ErasureCoded {
        /// Data shards per stripe.
        data: u32,
        /// Parity shards per stripe.
        parity: u32,
    },
}

impl RedundancyScheme {
    /// The default scheme: one provider-managed copy, no modeled overhead.
    pub const NONE: RedundancyScheme = RedundancyScheme::Replicated { copies: 1 };

    /// Plain three-way replication (the classic hot/warm default).
    pub const TRIPLE: RedundancyScheme = RedundancyScheme::Replicated { copies: 3 };

    /// The 4+2 Reed–Solomon cold-tier configuration: 50 % overhead,
    /// tolerates two simultaneous shard failures — the same tolerance as
    /// [`RedundancyScheme::TRIPLE`] at half the raw capacity.
    pub const RS_4_2: RedundancyScheme = RedundancyScheme::ErasureCoded { data: 4, parity: 2 };

    /// Raw bytes stored per logical byte (`3.0` for 3× replication,
    /// `1.5` for 4+2 erasure coding).
    pub fn storage_factor(self) -> f64 {
        match self {
            RedundancyScheme::Replicated { copies } => copies.max(1) as f64,
            RedundancyScheme::ErasureCoded { data, parity } => {
                let d = data.max(1) as f64;
                (d + parity as f64) / d
            }
        }
    }

    /// Total shards (replicas or stripe fragments) holding one dataset.
    pub fn shard_count(self) -> u32 {
        match self {
            RedundancyScheme::Replicated { copies } => copies.max(1),
            RedundancyScheme::ErasureCoded { data, parity } => data.max(1) + parity,
        }
    }

    /// Minimum live shards required to serve a read: one replica, or the
    /// stripe's `data` fragments.
    pub fn read_threshold(self) -> u32 {
        match self {
            RedundancyScheme::Replicated { .. } => 1,
            RedundancyScheme::ErasureCoded { data, .. } => data.max(1),
        }
    }

    /// Simultaneous shard losses survivable without losing data.
    pub fn fault_tolerance(self) -> u32 {
        self.shard_count() - self.read_threshold()
    }

    /// Whether the scheme is erasure-coded.
    pub fn is_erasure_coded(self) -> bool {
        matches!(self, RedundancyScheme::ErasureCoded { .. })
    }

    /// Reject degenerate configurations (zero copies, zero data shards).
    pub fn validate(self) -> Result<(), CloudError> {
        match self {
            RedundancyScheme::Replicated { copies: 0 } => Err(CloudError::InvalidRedundancy(
                "replication needs at least one copy".to_string(),
            )),
            RedundancyScheme::ErasureCoded { data: 0, .. } => Err(CloudError::InvalidRedundancy(
                "erasure coding needs at least one data shard".to_string(),
            )),
            _ => Ok(()),
        }
    }
}

impl Default for RedundancyScheme {
    fn default() -> Self {
        RedundancyScheme::NONE
    }
}

impl fmt::Display for RedundancyScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedundancyScheme::Replicated { copies } => write!(f, "rep({copies})"),
            RedundancyScheme::ErasureCoded { data, parity } => write!(f, "rs({data}+{parity})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_tolerance_at_half_the_raw_bytes() {
        let rep3 = RedundancyScheme::TRIPLE;
        let ec = RedundancyScheme::RS_4_2;
        assert_eq!(rep3.fault_tolerance(), 2);
        assert_eq!(ec.fault_tolerance(), 2);
        assert!(ec.storage_factor() <= rep3.storage_factor() / 2.0);
    }

    #[test]
    fn shard_and_threshold_accounting() {
        assert_eq!(RedundancyScheme::RS_4_2.shard_count(), 6);
        assert_eq!(RedundancyScheme::RS_4_2.read_threshold(), 4);
        assert_eq!(RedundancyScheme::TRIPLE.shard_count(), 3);
        assert_eq!(RedundancyScheme::TRIPLE.read_threshold(), 1);
    }

    #[test]
    fn validation_rejects_degenerate_schemes() {
        assert!(RedundancyScheme::Replicated { copies: 0 }
            .validate()
            .is_err());
        assert!(RedundancyScheme::ErasureCoded { data: 0, parity: 2 }
            .validate()
            .is_err());
        assert!(RedundancyScheme::RS_4_2.validate().is_ok());
    }

    #[test]
    fn scheme_roundtrips_through_json() {
        for s in [
            RedundancyScheme::NONE,
            RedundancyScheme::TRIPLE,
            RedundancyScheme::RS_4_2,
        ] {
            let json = serde_json::to_string(&s).unwrap();
            let back: RedundancyScheme = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn display_labels() {
        assert_eq!(RedundancyScheme::TRIPLE.to_string(), "rep(3)");
        assert_eq!(RedundancyScheme::RS_4_2.to_string(), "rs(4+2)");
    }
}
