//! Language containment for the class F.
//!
//! [`contains_scan`] is the paper's linear-time decider (Prop. 3.3(3)):
//! containment requires the same number of atoms, per-atom color
//! compatibility, and per-atom bound domination, with `+` "treated as an
//! integer larger than any positive integer k" (case (c)).
//!
//! The paper states the bound test over *sums* of exponents; with distinct
//! adjacent colors the sound form is the per-position comparison
//! implemented here (the sum form would wrongly accept e.g.
//! `L(a^3 b) ⊆ L(a b^3)`). On the workloads the paper generates —
//! `c₁^b … c_k^b` chains — the two coincide.
//!
//! [`contains_exact`] is a reference decider over the automata (subset
//! construction on the right-hand side). It exists to validate the scan in
//! tests; it is exponential in the worst case but instantaneous on query-
//! sized expressions. It also decides the corner cases the scan
//! conservatively rejects, such as `L(a a) ⊆ L(a^2)` (different atom
//! counts) and wildcard-vs-concrete over a one-letter alphabet.

use crate::ast::FRegex;
use crate::nfa::Nfa;
use rpq_graph::Color;
use std::collections::{HashSet, VecDeque};

/// The paper's linear scan: is `L(sub) ⊆ L(sup)`?
///
/// Sound (never claims containment that does not hold); complete on
/// expressions whose consecutive atoms have distinct colors, which is the
/// shape the paper's query generator emits.
pub fn contains_scan(sub: &FRegex, sup: &FRegex) -> bool {
    if sub.len() != sup.len() {
        return false;
    }
    sub.atoms().iter().zip(sup.atoms()).all(|(a, b)| {
        b.color.admits(a.color) && a.quant.max_or_infinite() <= b.quant.max_or_infinite()
    })
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct SubsetKey(Vec<u64>);

fn subset_insert(bits: &mut [u64], s: u32) {
    bits[(s / 64) as usize] |= 1 << (s % 64);
}

/// Exact containment `L(sub) ⊆ L(sup)` over an alphabet of `num_colors`
/// concrete colors, by product construction of `sub`'s NFA with the
/// determinization of `sup`'s.
pub fn contains_exact(sub: &FRegex, sup: &FRegex, num_colors: usize) -> bool {
    assert!(num_colors >= 1, "containment needs a nonempty alphabet");
    let n1 = Nfa::from_regex(sub);
    let n2 = Nfa::from_regex(sup);
    let words = n2.state_count().div_ceil(64);

    let mut start2 = vec![0u64; words];
    subset_insert(&mut start2, n2.start());

    let mut seen: HashSet<(u32, SubsetKey)> = HashSet::new();
    let mut queue: VecDeque<(u32, Vec<u64>)> = VecDeque::new();
    seen.insert((n1.start(), SubsetKey(start2.clone())));
    queue.push_back((n1.start(), start2));

    let accepting2 = |bits: &[u64]| -> bool {
        n2.accepting_states()
            .any(|s| bits[(s / 64) as usize] & (1 << (s % 64)) != 0)
    };

    while let Some((s1, set2)) = queue.pop_front() {
        for color_idx in 0..num_colors {
            let sigma = Color(color_idx as u8);
            // deterministic step of sup
            let mut next2 = vec![0u64; words];
            let mut any2 = false;
            for (w, &word) in set2.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    let s = (w as u32) * 64 + b;
                    for t in n2.successors(s, sigma) {
                        subset_insert(&mut next2, t);
                        any2 = true;
                    }
                }
            }
            let _ = any2;
            for t1 in n1.successors(s1, sigma) {
                if n1.is_accepting(t1) && !accepting2(&next2) {
                    return false; // counterexample word found
                }
                let key = (t1, SubsetKey(next2.clone()));
                if seen.insert(key) {
                    queue.push_back((t1, next2.clone()));
                }
            }
        }
    }
    true
}

/// Exact language equality over `num_colors` concrete colors.
pub fn equivalent_exact(a: &FRegex, b: &FRegex, num_colors: usize) -> bool {
    contains_exact(a, b, num_colors) && contains_exact(b, a, num_colors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Quant};
    use rpq_graph::{Alphabet, WILDCARD};

    fn re(s: &str) -> FRegex {
        let al = Alphabet::from_names(["a", "b", "c", "d"]);
        FRegex::parse(s, &al).unwrap()
    }

    #[test]
    fn scan_basics() {
        assert!(contains_scan(&re("a"), &re("a")));
        assert!(contains_scan(&re("a"), &re("a^3")));
        assert!(contains_scan(&re("a^2"), &re("a^3")));
        assert!(!contains_scan(&re("a^3"), &re("a^2")));
        assert!(contains_scan(&re("a^3"), &re("a+")));
        assert!(!contains_scan(&re("a+"), &re("a^9")));
        assert!(contains_scan(&re("a+"), &re("a+")));
        assert!(!contains_scan(&re("a"), &re("b")));
        assert!(!contains_scan(&re("a b"), &re("a")));
    }

    #[test]
    fn scan_wildcard() {
        assert!(contains_scan(&re("a"), &re("_")));
        assert!(contains_scan(&re("a^2 b"), &re("_^2 _")));
        assert!(!contains_scan(&re("_"), &re("a")));
        assert!(contains_scan(&re("_^2"), &re("_+")));
    }

    #[test]
    fn scan_multi_atom() {
        // the paper's Q1 constraint against a relaxation
        assert!(contains_scan(&re("a^2 b"), &re("a^5 b^2")));
        assert!(!contains_scan(&re("a^5 b"), &re("a^2 b^2")));
        assert!(contains_scan(&re("a^2 b c+"), &re("_+ _+ _+")));
    }

    #[test]
    fn exact_agrees_on_scan_positives() {
        let pairs = [
            ("a", "a^3"),
            ("a^2 b", "a^5 b^2"),
            ("a^3", "a+"),
            ("a b c", "_ _ _"),
            ("a^2 b c+", "_+ _+ _+"),
        ];
        for (s, t) in pairs {
            assert!(contains_scan(&re(s), &re(t)), "{s} ⊆ {t} (scan)");
            assert!(contains_exact(&re(s), &re(t), 4), "{s} ⊆ {t} (exact)");
        }
    }

    #[test]
    fn exact_rejects_non_containment() {
        assert!(!contains_exact(&re("a^3"), &re("a^2"), 4));
        assert!(!contains_exact(&re("a"), &re("b"), 4));
        assert!(!contains_exact(&re("a+"), &re("a^7"), 4));
        // the sum-form pitfall: sums of bounds are equal but containment fails
        assert!(!contains_exact(&re("a^3 b"), &re("a b^3"), 4));
        assert!(!contains_scan(&re("a^3 b"), &re("a b^3")));
    }

    #[test]
    fn exact_decides_scan_blind_spots() {
        // same language, different atom counts: scan rejects, exact accepts
        let aa = FRegex::new(vec![
            Atom::new(rpq_graph::Color(0), Quant::One),
            Atom::new(rpq_graph::Color(0), Quant::One),
        ]);
        let a2 = re("a^2");
        assert!(!contains_scan(&aa, &a2));
        assert!(contains_exact(&aa, &a2, 4));
        assert!(!contains_exact(&a2, &aa, 4)); // "a" ∈ L(a^2) \ L(aa)

        // wildcard ⊆ concrete holds over a single-letter alphabet only
        let w = FRegex::atom(WILDCARD, Quant::One);
        let a = re("a");
        assert!(contains_exact(&w, &a, 1));
        assert!(!contains_exact(&w, &a, 2));
    }

    #[test]
    fn exact_equivalence() {
        assert!(equivalent_exact(&re("a^2 b"), &re("a^2 b"), 4));
        assert!(!equivalent_exact(&re("a^2 b"), &re("a^3 b"), 4));
    }

    #[test]
    fn scan_soundness_random() {
        // scan-positive pairs must be exact-positive (soundness); sample the
        // small structured space exhaustively-ish
        let quants = [Quant::One, Quant::AtMost(2), Quant::AtMost(3), Quant::Plus];
        let colors = [rpq_graph::Color(0), rpq_graph::Color(1), WILDCARD];
        let mut atoms = Vec::new();
        for &c in &colors {
            for &q in &quants {
                atoms.push(Atom::new(c, q));
            }
        }
        let mut exprs: Vec<FRegex> = Vec::new();
        for &a in &atoms {
            exprs.push(FRegex::new(vec![a]));
            for &b in &atoms {
                exprs.push(FRegex::new(vec![a, b]));
            }
        }
        for e1 in &exprs {
            for e2 in &exprs {
                if contains_scan(e1, e2) {
                    assert!(contains_exact(e1, e2, 2), "scan unsound: {e1:?} ⊆ {e2:?}");
                }
            }
        }
    }
}
