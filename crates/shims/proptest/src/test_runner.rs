//! Harness plumbing: config, RNG, and per-case outcome.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Runner configuration. Only `cases` is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }

    /// Cases a `proptest!` block runs: `PROPTEST_CASES` when it is set to
    /// a positive integer, else `self.cases`. Upstream proptest only uses
    /// the variable as the default, so an explicit `with_cases` wins
    /// there; here the variable wins, which is how a CI step runs
    /// properties deeper than `cargo test` does.
    pub fn cases_to_run(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        // Upstream defaults to 256; 64 keeps suite time reasonable while
        // still exercising the input space.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG used for sampling strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Fixed-seed RNG: every test run samples the same cases.
    pub fn deterministic() -> TestRng {
        TestRng {
            inner: StdRng::seed_from_u64(0x70726f70_74657374),
        }
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` discarded the case.
    Reject,
    /// `prop_assert*` failed with this message.
    Fail(String),
}
