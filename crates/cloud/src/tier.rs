//! The four cloud storage tiers of Table 1.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::error::CloudError;

/// A cloud storage service class, as offered by the provider.
///
/// The names mirror the paper's Table 1:
///
/// * [`Tier::EphSsd`] — VM-local ephemeral SSD. Fastest, but **not
///   persistent**: data must be staged in from / out to [`Tier::ObjStore`].
/// * [`Tier::PersSsd`] — network-attached persistent SSD; bandwidth scales
///   with provisioned capacity.
/// * [`Tier::PersHdd`] — network-attached persistent HDD; cheapest block
///   storage, bandwidth also capacity-scaled.
/// * [`Tier::ObjStore`] — RESTful object storage; cheapest overall, good
///   sequential streams, but pays a connection-setup penalty per object
///   (the GCS-connector effect of §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tier {
    /// VM-local ephemeral SSD (`ephSSD`).
    EphSsd,
    /// Network-attached persistent SSD (`persSSD`).
    PersSsd,
    /// Network-attached persistent HDD (`persHDD`).
    PersHdd,
    /// Object storage (`objStore`).
    ObjStore,
}

impl Tier {
    /// All tiers, in Table 1 order.
    pub const ALL: [Tier; 4] = [Tier::EphSsd, Tier::PersSsd, Tier::PersHdd, Tier::ObjStore];

    /// The paper's name for this tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::EphSsd => "ephSSD",
            Tier::PersSsd => "persSSD",
            Tier::PersHdd => "persHDD",
            Tier::ObjStore => "objStore",
        }
    }

    /// Whether this is a block device (attached volume) rather than an
    /// object service.
    pub fn is_block(self) -> bool {
        !matches!(self, Tier::ObjStore)
    }

    /// Whether volume bandwidth scales with provisioned capacity.
    pub fn scales_with_capacity(self) -> bool {
        matches!(self, Tier::PersSsd | Tier::PersHdd)
    }

    /// Index of the tier in [`Tier::ALL`]; handy for dense per-tier arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Tier::EphSsd => 0,
            Tier::PersSsd => 1,
            Tier::PersHdd => 2,
            Tier::ObjStore => 3,
        }
    }

    /// Inverse of [`Tier::index`].
    pub fn from_index(i: usize) -> Option<Tier> {
        Tier::ALL.get(i).copied()
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Tier {
    type Err = CloudError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ephssd" | "eph" | "local-ssd" => Ok(Tier::EphSsd),
            "persssd" | "pd-ssd" | "ssd" => Ok(Tier::PersSsd),
            "pershdd" | "pd-standard" | "hdd" => Ok(Tier::PersHdd),
            "objstore" | "gcs" | "object" | "obj" => Ok(Tier::ObjStore),
            other => Err(CloudError::UnknownTier(other.to_string())),
        }
    }
}

/// A dense map from [`Tier`] to `T`, avoiding hash maps in hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PerTier<T> {
    values: [T; 4],
}

impl<T> PerTier<T> {
    /// Build from a function of each tier.
    pub fn from_fn(mut f: impl FnMut(Tier) -> T) -> Self {
        PerTier {
            values: [
                f(Tier::EphSsd),
                f(Tier::PersSsd),
                f(Tier::PersHdd),
                f(Tier::ObjStore),
            ],
        }
    }

    /// Shared access.
    #[inline]
    pub fn get(&self, tier: Tier) -> &T {
        &self.values[tier.index()]
    }

    /// Mutable access.
    #[inline]
    pub fn get_mut(&mut self, tier: Tier) -> &mut T {
        &mut self.values[tier.index()]
    }

    /// Iterate `(tier, &value)` pairs in Table 1 order.
    pub fn iter(&self) -> impl Iterator<Item = (Tier, &T)> {
        Tier::ALL.iter().map(move |&t| (t, self.get(t)))
    }

    /// Iterate `(tier, &mut value)` pairs in Table 1 order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Tier, &mut T)> {
        self.values
            .iter_mut()
            .enumerate()
            .map(|(i, v)| (Tier::from_index(i).expect("dense tier index"), v))
    }
}

impl<T> std::ops::Index<Tier> for PerTier<T> {
    type Output = T;
    #[inline]
    fn index(&self, tier: Tier) -> &T {
        self.get(tier)
    }
}

impl<T> std::ops::IndexMut<Tier> for PerTier<T> {
    #[inline]
    fn index_mut(&mut self, tier: Tier) -> &mut T {
        self.get_mut(tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_match_paper() {
        assert_eq!(Tier::EphSsd.name(), "ephSSD");
        assert_eq!(Tier::PersSsd.name(), "persSSD");
        assert_eq!(Tier::PersHdd.name(), "persHDD");
        assert_eq!(Tier::ObjStore.name(), "objStore");
    }

    #[test]
    fn only_network_block_tiers_scale() {
        assert!(!Tier::EphSsd.scales_with_capacity());
        assert!(Tier::PersSsd.scales_with_capacity());
        assert!(Tier::PersHdd.scales_with_capacity());
        assert!(!Tier::ObjStore.scales_with_capacity());
    }

    #[test]
    fn index_roundtrip() {
        for t in Tier::ALL {
            assert_eq!(Tier::from_index(t.index()), Some(t));
        }
        assert_eq!(Tier::from_index(4), None);
    }

    #[test]
    fn parse_accepts_paper_and_gcp_spellings() {
        assert_eq!("ephSSD".parse::<Tier>().unwrap(), Tier::EphSsd);
        assert_eq!("pd-ssd".parse::<Tier>().unwrap(), Tier::PersSsd);
        assert_eq!("persHDD".parse::<Tier>().unwrap(), Tier::PersHdd);
        assert_eq!("gcs".parse::<Tier>().unwrap(), Tier::ObjStore);
        assert!("floppy".parse::<Tier>().is_err());
    }

    #[test]
    fn per_tier_indexing() {
        let mut m = PerTier::from_fn(|t| t.index() * 10);
        assert_eq!(m[Tier::PersHdd], 20);
        m[Tier::PersHdd] = 99;
        assert_eq!(m[Tier::PersHdd], 99);
        let collected: Vec<_> = m.iter().map(|(t, v)| (t, *v)).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[3], (Tier::ObjStore, 30));
    }
}
