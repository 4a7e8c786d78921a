//! Property-based tests for both regex classes: the class F and the §7
//! general extension, plus the relationships between them.

use proptest::prelude::*;
use rpq_graph::{Color, WILDCARD};
use rpq_regex::canon::equivalent_canonical;
use rpq_regex::contain::{contains_exact, contains_scan};
use rpq_regex::{Atom, FRegex, GRegex, Nfa, Quant};

const NUM_COLORS: usize = 3;

fn arb_color() -> impl Strategy<Value = Color> {
    prop_oneof![
        4 => (0..NUM_COLORS as u8).prop_map(Color),
        1 => Just(WILDCARD),
    ]
}

fn arb_quant() -> impl Strategy<Value = Quant> {
    prop_oneof![
        2 => Just(Quant::One),
        3 => (2u32..6).prop_map(Quant::AtMost),
        1 => Just(Quant::Plus),
    ]
}

fn arb_fregex() -> impl Strategy<Value = FRegex> {
    prop::collection::vec((arb_color(), arb_quant()), 1..5)
        .prop_map(|atoms| FRegex::new(atoms.into_iter().map(|(c, q)| Atom::new(c, q)).collect()))
}

fn arb_word() -> impl Strategy<Value = Vec<Color>> {
    prop::collection::vec((0..NUM_COLORS as u8).prop_map(Color), 0..10)
}

/// Recursive strategy for general regexes that are never nullable.
fn arb_gregex() -> impl Strategy<Value = GRegex> {
    let leaf = arb_color().prop_map(GRegex::Color);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(GRegex::Concat),
            prop::collection::vec(inner.clone(), 1..4).prop_map(GRegex::Union),
            inner.prop_map(|g| GRegex::Plus(Box::new(g))),
        ]
    })
}

proptest! {
    /// Empty word never matches (F has no ε).
    #[test]
    fn f_never_matches_epsilon(re in arb_fregex()) {
        prop_assert!(!re.matches(&[]));
    }

    /// Minimum word length is respected: words shorter than the atom count
    /// never match.
    #[test]
    fn f_minimum_length(re in arb_fregex(), w in arb_word()) {
        if (w.len() as u32) < re.min_word_len() {
            prop_assert!(!re.matches(&w));
        }
    }

    /// Maximum word length is respected.
    #[test]
    fn f_maximum_length(re in arb_fregex(), w in arb_word()) {
        if let Some(max) = re.max_word_len() {
            if w.len() as u64 > max {
                prop_assert!(!re.matches(&w));
            }
        }
    }

    /// NFA and matcher agree on arbitrary inputs.
    #[test]
    fn f_nfa_equals_matcher(re in arb_fregex(), w in arb_word()) {
        prop_assert_eq!(Nfa::from_regex(&re).accepts(&w), re.matches(&w));
    }

    /// The scan decider is sound w.r.t. the exact decider, and canonical
    /// equivalence implies word-level agreement.
    #[test]
    fn scan_sound_and_equivalence_consistent(a in arb_fregex(), b in arb_fregex(), w in arb_word()) {
        if contains_scan(&a, &b) {
            prop_assert!(contains_exact(&a, &b, NUM_COLORS));
            if a.matches(&w) {
                prop_assert!(b.matches(&w));
            }
        }
        if equivalent_canonical(&a, &b) {
            prop_assert_eq!(a.matches(&w), b.matches(&w));
        }
    }

    /// Widening any atom's bound only grows the language.
    #[test]
    fn widening_bounds_grows_language(re in arb_fregex(), w in arb_word(), extra in 1u32..4) {
        let widened = FRegex::new(
            re.atoms()
                .iter()
                .map(|a| {
                    let q = match a.quant {
                        Quant::One => Quant::AtMost(1 + extra),
                        Quant::AtMost(k) => Quant::AtMost(k + extra),
                        Quant::Plus => Quant::Plus,
                    };
                    Atom::new(a.color, q)
                })
                .collect(),
        );
        if re.matches(&w) {
            prop_assert!(widened.matches(&w), "widened regex lost a word");
        }
        prop_assert!(contains_scan(&re, &widened));
    }

    /// Replacing every color with the wildcard only grows the language.
    #[test]
    fn wildcarding_grows_language(re in arb_fregex(), w in arb_word()) {
        let wild = FRegex::new(
            re.atoms().iter().map(|a| Atom::new(WILDCARD, a.quant)).collect(),
        );
        if re.matches(&w) {
            prop_assert!(wild.matches(&w));
        }
    }

    /// The general-regex embedding of an F expression defines the same
    /// language.
    #[test]
    fn general_embedding_preserves_language(re in arb_fregex(), w in arb_word()) {
        let g = GRegex::from_fregex(&re);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.matches(&w), re.matches(&w));
    }

    /// General regexes generated without Star never accept ε, and their
    /// compiled NFA agrees with itself under display/parse round-trips.
    #[test]
    fn general_nfa_consistency(re in arb_gregex(), w in arb_word()) {
        prop_assert!(re.validate().is_ok());
        let nfa = Nfa::from_general(&re);
        prop_assert!(!nfa.accepts(&[]));
        prop_assert_eq!(nfa.accepts(&w), re.matches(&w));
        // plus is idempotent at the language level for already-plus exprs:
        // L(e) ⊆ L(e+)
        let plus = GRegex::Plus(Box::new(re.clone()));
        if re.matches(&w) {
            prop_assert!(plus.matches(&w));
        }
    }

    /// Concatenation of two general regexes matches split words.
    #[test]
    fn general_concat_splits(a in arb_gregex(), b in arb_gregex(), wa in arb_word(), wb in arb_word()) {
        if a.matches(&wa) && b.matches(&wb) {
            let cat = GRegex::Concat(vec![a, b]);
            let mut w = wa;
            w.extend(wb);
            prop_assert!(cat.matches(&w));
        }
    }

    /// Union behaves like language union.
    #[test]
    fn general_union_is_or(a in arb_gregex(), b in arb_gregex(), w in arb_word()) {
        let u = GRegex::Union(vec![a.clone(), b.clone()]);
        prop_assert_eq!(u.matches(&w), a.matches(&w) || b.matches(&w));
    }
}
