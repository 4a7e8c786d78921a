//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the subset of the proptest API its property tests use: the [`Strategy`](strategy::Strategy)
//! trait with `prop_map` / `prop_flat_map` / `prop_recursive`, integer-range
//! and tuple strategies, [`collection::vec`], [`option::of`],
//! [`arbitrary::any`], weighted [`prop_oneof!`], and the [`proptest!`]
//! test-harness macro with `#![proptest_config(..)]` support.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **no shrinking** — a failing case panics with its assertion's own
//!   message, not a minimized counterexample, and a drop guard prints the
//!   property's path and the case index (`case i/N`) to stderr;
//! * **derived determinism** — each `(test, case-index)` pair seeds a
//!   SplitMix64 stream, so failures reproduce exactly on re-run;
//! * `prop_assert!` / `prop_assert_eq!` panic immediately rather than
//!   returning `Err`.

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod test_runner;

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Discard the current case when `cond` is false. Real proptest re-draws;
/// this shim simply skips the remainder of the case body via early return,
/// which keeps the macro expansion shape (a plain loop body) simple.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// Weighted (or unweighted) choice among strategies for the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::BoxedStrategy::new($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::BoxedStrategy::new($strat))),+
        ])
    };
}

/// The proptest test-harness macro: expands each `fn name(pat in strategy)`
/// item into a `#[test]` running `cases` deterministic iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $( $pat:pat in $strat:expr ),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let __guard = $crate::test_runner::CaseGuard {
                    test: concat!(module_path!(), "::", stringify!($name)),
                    case: __case,
                    cases: __cfg.cases,
                };
                let mut __rng = $crate::test_runner::TestRng::for_case(__guard.test, __case);
                $( let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng); )+
                $body
            }
        }
        $crate::__proptest_items!{ ($cfg) $($rest)* }
    };
}
