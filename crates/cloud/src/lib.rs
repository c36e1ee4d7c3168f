//! # cast-cloud
//!
//! Cloud provider model for the CAST storage-tiering framework (HPDC'15).
//!
//! This crate captures everything CAST needs to know about the cloud it is
//! deploying into:
//!
//! * the **storage service catalog** — the four Google Cloud services of
//!   Table 1 (`ephSSD`, `persSSD`, `persHDD`, `objStore`) with their
//!   capacity, throughput, IOPS and price characteristics
//!   ([`catalog::Catalog`]),
//! * **capacity→performance scaling** — network-attached volumes scale
//!   bandwidth with provisioned capacity ([`scaling`]),
//! * **provisioning rules** — volume granularity and per-VM attachment
//!   limits ([`provision`]),
//! * **shared-capacity accounting** — the per-shard capacity ledger and
//!   weighted max-min fair-share allocator multi-tenant serving draws
//!   epoch grants from ([`ledger`]),
//! * **VM shapes and prices** ([`vm`]), and
//! * **cost accounting** — the hourly-rounded storage billing and per-minute
//!   VM billing of Eq. 5/6 ([`cost`]).
//!
//! All quantities flow through the strongly-typed units in [`units`] so that
//! gigabytes, megabytes-per-second, dollars and seconds cannot be confused.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod catalog;
pub mod cost;
pub mod error;
pub mod ledger;
pub mod pricing;
pub mod provision;
pub mod redundancy;
pub mod scaling;
pub mod service;
pub mod tier;
pub mod units;
pub mod vm;

pub use catalog::Catalog;
pub use cost::{CostBreakdown, CostModel};
pub use error::CloudError;
pub use ledger::{weighted_max_min, CapacityLedger, ShareRequest};
pub use pricing::PriceSheet;
pub use provision::{ProvisionPlan, Provisioner};
pub use redundancy::RedundancyScheme;
pub use service::StorageService;
pub use tier::Tier;
pub use units::{Bandwidth, DataSize, Duration, Money};
pub use vm::VmType;
