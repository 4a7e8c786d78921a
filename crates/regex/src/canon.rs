//! Run-normal canonical form for class-F expressions, plus the run-level
//! containment fast path built on it.
//!
//! ## The run view
//!
//! A maximal block of consecutive atoms with the *same* color `c` — a
//! **run** — denotes the language `{cᵐ : n ≤ m ≤ M}` where `n` is the
//! number of atoms in the run (every atom consumes at least one edge) and
//! `M` is the sum of the atoms' maxima (`∞` if any atom is `c+`). Every
//! count in the interval is achievable because per-atom choices sum
//! contiguously. The language of an F expression is therefore determined
//! by its sequence of runs — `(color, n, M)` triples — and *not* by how
//! bounds are distributed across the atoms of a run: `a^2 a`, `a a^2` and
//! `a^3`-minus-`a` spellings like them all denote `{a², a³}`.
//!
//! ## Canonical form
//!
//! [`canonicalize`] rewrites each run into the unique spelling
//! `c … c c^(M−n+1)` — `n−1` bare atoms followed by one tail atom carrying
//! all the slack (`c+` when `M = ∞`, a bare `c` when `M = n`). The rewrite
//! is language-exact per run, so **equal canonical forms imply equal
//! languages**; syntactic variants of one query collapse onto one memo
//! key, one plan, and one cache cell.
//!
//! ## Containment on runs
//!
//! [`contains_runs`] decides `L(sub) ⊆ L(sup)` whenever the two
//! expressions have the same number of runs: it requires each `sup` run's
//! color to admit the `sub` run's and its interval to enclose it
//! (`sup.n ≤ sub.n` and `sub.M ≤ sup.M`). This closes the documented
//! blind spot of the paper's atom-aligned scan — `L(a a) ⊆ L(a^2)` holds
//! but [`contains_scan`] cannot see it (different atom counts) — while
//! the scan still decides the cases where a wildcard run in `sup` spans
//! runs of *different* colors in `sub` (e.g. `a b ⊆ _ _`, one `sub` run
//! per color but a single merged `_` run in `sup`). [`contains_fast`]
//! takes the union of the two sound deciders.

use crate::ast::{Atom, FRegex, Quant};
use crate::contain::contains_scan;
use rpq_graph::{Color, WILDCARD};

/// One maximal same-color run: the language `{colorᵐ : min ≤ m ≤ max}`
/// (`max = None` meaning unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The run's color (possibly the wildcard).
    pub color: Color,
    /// Minimum occurrence count — the number of atoms in the run.
    pub min: u32,
    /// Maximum occurrence count (`None` = some atom is `c+`).
    pub max: Option<u64>,
}

impl Run {
    /// The maximum with `∞` mapped to `u64::MAX`, mirroring
    /// [`Quant::max_or_infinite`].
    #[inline]
    pub fn max_or_infinite(self) -> u64 {
        self.max.unwrap_or(u64::MAX)
    }
}

/// Decompose `re` into its maximal same-color runs, in order.
pub fn runs(re: &FRegex) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    for atom in re.atoms() {
        let step = atom.quant.max().map(u64::from);
        match out.last_mut() {
            Some(run) if run.color == atom.color => {
                run.min += 1;
                run.max = match (run.max, step) {
                    (Some(m), Some(k)) => Some(m + k),
                    _ => None,
                };
            }
            _ => out.push(Run {
                color: atom.color,
                min: 1,
                max: step,
            }),
        }
    }
    out
}

/// The regex's **skeleton**: its sequence of run colors. Two expressions
/// with different skeletons can only be related by containment through
/// wildcard runs, so the skeleton is a cheap bucketing key for candidate
/// indices (see the engine's semantic memo).
pub fn skeleton(re: &FRegex) -> Vec<Color> {
    runs(re).iter().map(|r| r.color).collect()
}

/// The all-wildcard skeleton — the single bucket every purely-wildcard
/// expression collapses to (adjacent `_` atoms form one run).
pub fn wildcard_skeleton() -> Vec<Color> {
    vec![WILDCARD]
}

/// Rewrite `re` into run-normal canonical form: each maximal same-color
/// run becomes `n−1` bare atoms plus one tail atom carrying the run's
/// entire slack (`c^(M−n+1)`, `c+` when unbounded, bare `c` when tight).
///
/// The rewrite preserves the language exactly, so equal canonical forms
/// imply equal languages — the soundness property the engine's semantic
/// memo keys on. Idempotent. The rare run whose slack overflows `u32`
/// (sum of bounds over `u32::MAX`) is left as written; the form is then
/// merely non-unique for that run, never wrong.
pub fn canonicalize(re: &FRegex) -> FRegex {
    let mut atoms: Vec<Atom> = Vec::with_capacity(re.len());
    let all = re.atoms();
    let mut start = 0;
    while start < all.len() {
        let color = all[start].color;
        let mut end = start + 1;
        while end < all.len() && all[end].color == color {
            end += 1;
        }
        let run = &all[start..end];
        let n = run.len() as u64;
        let max: Option<u64> = run
            .iter()
            .try_fold(0u64, |acc, a| a.quant.max().map(|k| acc + u64::from(k)));
        let tail = match max {
            None => Some(Quant::Plus),
            Some(m) => match u32::try_from(m - n + 1) {
                Ok(1) => Some(Quant::One),
                Ok(k) => Some(Quant::AtMost(k)),
                Err(_) => None, // slack unrepresentable: keep the spelling
            },
        };
        match tail {
            Some(q) => {
                for _ in 1..run.len() {
                    atoms.push(Atom::new(color, Quant::One));
                }
                atoms.push(Atom::new(color, q));
            }
            None => atoms.extend_from_slice(run),
        }
        start = end;
    }
    FRegex::new(atoms)
}

/// Is `re` already in run-normal canonical form?
pub fn is_canonical(re: &FRegex) -> bool {
    canonicalize(re) == *re
}

/// Canonical-form language equality: `L(a) = L(b)` decided by comparing
/// run-normal forms. Strictly stronger than [`contains_scan`] both ways
/// (it identifies `a^2 a` with `a a^2`), still linear time. The one
/// equality decider of the workspace (minPQs dedups constraints with it).
pub fn equivalent_canonical(a: &FRegex, b: &FRegex) -> bool {
    runs(a) == runs(b)
}

/// Run-level containment: `L(sub) ⊆ L(sup)` by run alignment. Requires
/// the same number of runs; each `sup` run must admit the `sub` run's
/// color and enclose its occurrence interval. Sound; conservative when a
/// wildcard run in `sup` would need to span several `sub` runs (decided
/// by [`contains_scan`] instead — use [`contains_fast`]).
pub fn contains_runs(sub: &FRegex, sup: &FRegex) -> bool {
    let (rs, rp) = (runs(sub), runs(sup));
    rs.len() == rp.len()
        && rs.iter().zip(&rp).all(|(a, b)| {
            b.color.admits(a.color) && b.min <= a.min && a.max_or_infinite() <= b.max_or_infinite()
        })
}

/// The union of the two sound linear deciders: the paper's atom-aligned
/// scan (Prop. 3.3(3)) and the run-level interval check. The one
/// containment decider of the workspace: the engine's subsumption cache,
/// RQ containment (`rpq_core::rq_contained_in`), PQ simulation's edge
/// entailment and minPQs all use it.
pub fn contains_fast(sub: &FRegex, sup: &FRegex) -> bool {
    contains_scan(sub, sup) || contains_runs(sub, sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contain::{contains_exact, equivalent_exact};
    use rpq_graph::Alphabet;

    fn re(s: &str) -> FRegex {
        let al = Alphabet::from_names(["a", "b", "c", "d"]);
        FRegex::parse(s, &al).unwrap()
    }

    #[test]
    fn runs_decompose_and_merge() {
        let r = runs(&re("a^2 a b"));
        assert_eq!(r.len(), 2);
        assert_eq!(
            r[0],
            Run {
                color: Color(0),
                min: 2,
                max: Some(3)
            }
        );
        assert_eq!(
            r[1],
            Run {
                color: Color(1),
                min: 1,
                max: Some(1)
            }
        );
        let p = runs(&re("a+ a"));
        assert_eq!(
            p,
            vec![Run {
                color: Color(0),
                min: 2,
                max: None
            }]
        );
        // wildcard atoms merge into one run too
        assert_eq!(runs(&re("_ _")).len(), 1);
    }

    #[test]
    fn canonical_form_unifies_variants() {
        // all spellings of {a², a³} collapse to `a a^2`
        let want = re("a a^2");
        assert_eq!(canonicalize(&re("a^2 a")), want);
        assert_eq!(canonicalize(&re("a a^2")), want);
        // unbounded slack moves to the tail
        assert_eq!(canonicalize(&re("a+ a")), re("a a+"));
        assert_eq!(canonicalize(&re("a a+ a^3")), re("a a a+"));
        // tight runs flatten to bare atoms
        assert_eq!(canonicalize(&re("a a a")), re("a a a"));
        // runs of different colors never merge
        assert_eq!(canonicalize(&re("a^2 b a")), re("a^2 b a"));
    }

    #[test]
    fn canonicalize_is_idempotent_and_language_exact() {
        let samples = [
            "a", "a^3", "a+", "a^2 a", "a a^2 a+", "a b a", "_^2 _", "a^2 b c+", "_ a _+",
        ];
        for s in samples {
            let r = re(s);
            let c = canonicalize(&r);
            assert_eq!(canonicalize(&c), c, "idempotent on {s}");
            assert!(equivalent_exact(&r, &c, 4), "language preserved on {s}");
            assert!(is_canonical(&c));
        }
        assert!(!is_canonical(&re("a^2 a")));
    }

    #[test]
    fn equivalent_canonical_beats_scan() {
        assert!(equivalent_canonical(&re("a^2 a"), &re("a a^2")));
        assert!(equivalent_canonical(&re("a+ a"), &re("a a+")));
        assert!(!equivalent_canonical(&re("a^2"), &re("a a")));
        assert!(!equivalent_canonical(&re("a b"), &re("b a")));
    }

    #[test]
    fn runs_containment_closes_the_scan_blind_spot() {
        // the documented blind spot: L(a a) ⊆ L(a^2) — scan can't see it
        assert!(!contains_scan(&re("a a"), &re("a^2")));
        assert!(contains_runs(&re("a a"), &re("a^2")));
        assert!(!contains_runs(&re("a^2"), &re("a a"))); // "a" not in L(a a)
                                                         // interval nesting with mixed spellings
        assert!(contains_runs(&re("a^2 a"), &re("a a^3")));
        assert!(contains_runs(&re("a^3"), &re("a+")));
        assert!(!contains_runs(&re("a+"), &re("a^3")));
        // wildcard sup run of the same shape
        assert!(contains_runs(&re("a a"), &re("_^3")));
    }

    #[test]
    fn fast_containment_is_a_sound_union() {
        // scan-only positive (wildcard run spans two sub colors)
        assert!(contains_fast(&re("a b"), &re("_ _")));
        assert!(!contains_runs(&re("a b"), &re("_ _")));
        // runs-only positive
        assert!(contains_fast(&re("a a"), &re("a^2")));
        // soundness sweep against the exact decider
        let exprs = [
            "a", "a^2", "a a", "a^3", "a+", "a a+", "b", "a b", "_ _", "_^2", "_+", "a^2 b",
        ];
        for s in &exprs {
            for t in &exprs {
                if contains_fast(&re(s), &re(t)) {
                    assert!(contains_exact(&re(s), &re(t), 4), "unsound: {s} ⊆ {t}");
                }
            }
        }
    }
}
