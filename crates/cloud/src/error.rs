//! Error type for the cloud model.

use std::fmt;

/// Errors raised by catalog lookups, provisioning and cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub enum CloudError {
    /// A tier name could not be parsed.
    UnknownTier(String),
    /// Requested capacity violates a provisioning rule.
    InvalidCapacity {
        /// Tier the request was made against.
        tier: String,
        /// Requested capacity in GB.
        requested_gb: f64,
        /// Human-readable rule that was violated.
        rule: &'static str,
    },
    /// An attachment limit (e.g. 4 ephemeral volumes per VM) was exceeded.
    AttachmentLimit {
        /// Tier of the volumes being attached.
        tier: String,
        /// Number of volumes requested per VM.
        requested: usize,
        /// Maximum allowed per VM.
        limit: usize,
    },
    /// A cluster was configured with zero worker VMs.
    EmptyCluster,
    /// A redundancy scheme is degenerate (zero copies / zero data shards).
    InvalidRedundancy(String),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::UnknownTier(name) => write!(f, "unknown storage tier {name:?}"),
            CloudError::InvalidCapacity {
                tier,
                requested_gb,
                rule,
            } => write!(
                f,
                "invalid capacity {requested_gb} GB for tier {tier}: {rule}"
            ),
            CloudError::AttachmentLimit {
                tier,
                requested,
                limit,
            } => write!(
                f,
                "cannot attach {requested} {tier} volumes per VM (limit {limit})"
            ),
            CloudError::EmptyCluster => {
                write!(f, "cluster must have at least one worker VM")
            }
            CloudError::InvalidRedundancy(reason) => {
                write!(f, "invalid redundancy scheme: {reason}")
            }
        }
    }
}

impl std::error::Error for CloudError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CloudError::InvalidCapacity {
            tier: "persSSD".into(),
            requested_gb: -5.0,
            rule: "capacity must be positive",
        };
        let msg = e.to_string();
        assert!(msg.contains("persSSD"));
        assert!(msg.contains("-5"));
        assert!(msg.contains("positive"));
    }
}
