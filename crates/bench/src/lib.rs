//! # rpq-bench — the workload library
//!
//! Not a measurement harness: the repo's one benchmark is the ledger
//! (`bench/`, declared by `BENCHMARK.json`). This crate holds the inputs
//! and the load driver that the ledger, the server tests, the examples and
//! CI share:
//!
//! * [`querygen`] — the paper's query generator (§6) with its five
//!   parameters `(|Vp|, |Ep|, |pred|, b, c)`. Its output per seed is part
//!   of the ledger's fingerprinted inputs — do not change it.
//! * [`loadgen`] — the closed-loop load generator driving `rpq-server`
//!   over its wire protocol (the `rpq-load` binary and the server
//!   acceptance tests are built on it).

pub mod loadgen;
pub mod querygen;
