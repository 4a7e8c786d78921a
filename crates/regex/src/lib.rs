//! # rpq-regex — the restricted regular-expression class F
//!
//! §2 of Fan et al. (ICDE 2011) defines edge constraints by the subclass
//!
//! ```text
//! F ::= c | c^k | c+ | FF
//! ```
//!
//! where `c` is an edge color or the wildcard `_`, `c^k` denotes
//! *one up to k* occurrences of `c` (the paper: `c ∪ c² ∪ … ∪ c^k`), and
//! `c+` one or more occurrences. An expression is thus a concatenation of
//! *atoms*, each a colored, bounded (or `+`-unbounded) repetition.
//!
//! The deliberately small class buys the paper its headline complexity
//! results: language containment is decidable by a linear scan
//! (Prop. 3.3(3)) instead of being PSPACE-complete as for general regular
//! expressions.
//!
//! This crate provides the AST ([`FRegex`], [`Atom`], [`Quant`]), a parser,
//! word matching, two containment deciders ([`contain`]), the run-normal
//! canonical form with its run-level containment fast path ([`canon`])
//! that the engine's semantic cache keys on, and the §7 general
//! expressions ([`GRegex`]).
//!
//! One automaton type, [`Nfa`], serves both classes through two
//! constructors: [`Nfa::from_regex`] for an F expression and
//! [`Nfa::from_general`] for a general one. The reference evaluators'
//! product-space search runs on it; the plans the engine picks do not.

pub mod ast;
pub mod canon;
pub mod contain;
pub mod general;
pub mod nfa;
pub mod parse;

pub use ast::{Atom, FRegex, Quant};
pub use general::{GParseError, GRegex};
pub use nfa::Nfa;
pub use parse::ParseError;
