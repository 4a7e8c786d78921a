//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no network access, so the workspace vendors
//! the subset of the criterion API its one remaining bench
//! (`crates/bench/benches/pq.rs`, a one-shot table) uses: the
//! [`Criterion`] handle and the [`criterion_group!`] / [`criterion_main!`]
//! macros. There is no timing engine — measurements are the ledger's job
//! (`bench/`, `BENCHMARK.json`) — and the command line cargo forwards
//! (`--bench`, `--test`, filter strings) is never read.

/// Top-level harness handle, passed to every function of a group.
pub struct Criterion;

/// Bundle benchmark functions into a group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generate `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion;
            $( $group(&mut c); )+
        }
    };
}
