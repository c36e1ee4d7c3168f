//! Offline stand-in for `proptest`: a deterministic random-testing harness
//! covering the API subset this workspace uses (`proptest!` blocks, range /
//! tuple / collection / sample strategies, `prop_map` / `prop_flat_map`,
//! and the `prop_assert*` family).
//!
//! No shrinking: a failing case reports its inputs via the panic message
//! of the assertion that fired. Sampling is seeded with a fixed constant,
//! so test runs are reproducible.
//!
//! `PROPTEST_CASES=N` in the environment runs `N` cases per property,
//! overriding even an explicit `ProptestConfig::with_cases`, so one
//! command can run a suite's properties at depth (see
//! [`test_runner::ProptestConfig::cases_to_run`]). Upstream proptest
//! reads the variable only as the default case count.

pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

pub use strategy::{Just, Strategy};

/// `prop::…` paths (`prop::collection::vec`, `prop::sample::select`).
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Define a block of property tests.
///
/// Supports an optional leading `#![proptest_config(expr)]` followed by
/// any number of `fn name(arg in strategy, ...) { body }` items carrying
/// their own attributes (`#[test]`, doc comments).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cases = $crate::test_runner::ProptestConfig::cases_to_run(&$cfg);
            let mut __rng = $crate::test_runner::TestRng::deterministic();
            let mut __ran: u32 = 0;
            let mut __attempts: u32 = 0;
            while __ran < __cases && __attempts < __cases.saturating_mul(16) {
                __attempts += 1;
                let __vals = ($($crate::strategy::Strategy::sample(&$strat, &mut __rng),)+);
                let __inputs = format!(
                    concat!("(", stringify!($($arg),+), ") = {:?}"),
                    &__vals
                );
                #[allow(unused_mut)]
                let ($($arg,)+) = __vals;
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    })();
                match __outcome {
                    Ok(()) => __ran += 1,
                    Err($crate::test_runner::TestCaseError::Reject) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{}` failed after {} cases: {}\n  inputs: {}",
                            stringify!($name), __ran, msg, __inputs
                        );
                    }
                }
            }
            assert!(
                __ran > 0,
                "property `{}`: every generated case was rejected by prop_assume!",
                stringify!($name)
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Assert inside a `proptest!` body; failure reports the case inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion `left == right` failed\n  left: {l:?}\n right: {r:?}"
            )));
        }
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l != r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion `left != right` failed\n  both: {l:?}"
            )));
        }
    }};
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}
