//! The one nondeterministic finite automaton type, for F expressions and
//! general ones alike.
//!
//! The reference evaluation strategies of §4 (BFS, and bi-directional
//! search without a distance matrix) explore the product of the data graph
//! with the automaton of the edge constraint, forward from candidate
//! sources and backward from candidate targets. [`Nfa::from_regex`] builds
//! that automaton for an F expression; [`Nfa::from_general`] for a §7
//! general expression (Thompson construction, then ε-elimination).
//!
//! For an atom `c^k` we materialize `k` counter states; `c+` is a single
//! state with a self-loop; so the automaton has `1 + Σ kᵢ` states — tiny for
//! the single-digit bounds the paper's workloads use. The count grows with
//! the bound, which is why no plan the engine picks builds an automaton.

use crate::ast::{FRegex, Quant};
use rpq_graph::Color;

/// NFA state index (0 is the start state).
pub type StateId = u32;

/// ε-free NFA for one F or general expression.
#[derive(Debug, Clone)]
pub struct Nfa {
    accepting: Vec<bool>,
    /// forward transitions: `fwd[s]` = (query color, successor)
    fwd: Vec<Vec<(Color, StateId)>>,
    /// reversed transitions
    bwd: Vec<Vec<(Color, StateId)>>,
}

impl Nfa {
    /// Compile `re` into an NFA.
    pub fn from_regex(re: &FRegex) -> Nfa {
        // state layout: 0 = start, then for atom i, `rep_i` consecutive
        // states meaning "consumed j ∈ 1..=rep_i edges of atom i"
        let reps: Vec<u32> = re
            .atoms()
            .iter()
            .map(|a| match a.quant {
                Quant::One | Quant::Plus => 1,
                Quant::AtMost(k) => k,
            })
            .collect();
        let mut base = Vec::with_capacity(reps.len());
        let mut next_free: StateId = 1;
        for &r in &reps {
            base.push(next_free);
            next_free += r;
        }
        let n_states = next_free as usize;
        let mut fwd: Vec<Vec<(Color, StateId)>> = vec![Vec::new(); n_states];
        let mut accepting = vec![false; n_states];

        for (i, atom) in re.atoms().iter().enumerate() {
            let first = base[i];
            // entry transitions into (i, 1)
            if i == 0 {
                fwd[0].push((atom.color, first));
            } else {
                let prev_first = base[i - 1];
                for j in 0..reps[i - 1] {
                    fwd[(prev_first + j) as usize].push((atom.color, first));
                }
            }
            // intra-atom transitions
            match atom.quant {
                Quant::One => {}
                Quant::Plus => {
                    fwd[first as usize].push((atom.color, first));
                }
                Quant::AtMost(k) => {
                    for j in 0..k - 1 {
                        fwd[(first + j) as usize].push((atom.color, first + j + 1));
                    }
                }
            }
        }
        let last = re.atoms().len() - 1;
        for j in 0..reps[last] {
            accepting[(base[last] + j) as usize] = true;
        }
        Nfa::new(accepting, fwd)
    }

    /// The automaton with these accepting states and forward transitions
    /// (state 0 starts); the reversed transitions are derived here, in
    /// forward order, for both constructors.
    pub(crate) fn new(accepting: Vec<bool>, fwd: Vec<Vec<(Color, StateId)>>) -> Nfa {
        let mut bwd: Vec<Vec<(Color, StateId)>> = vec![Vec::new(); fwd.len()];
        for (s, outs) in fwd.iter().enumerate() {
            for &(c, t) in outs {
                bwd[t as usize].push((c, s as StateId));
            }
        }
        Nfa {
            accepting,
            fwd,
            bwd,
        }
    }

    /// The start state (never accepting: a query language has no ε).
    #[inline]
    pub fn start(&self) -> StateId {
        0
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// Is `s` accepting?
    #[inline]
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting[s as usize]
    }

    /// All accepting states.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.accepting
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as StateId)
    }

    /// States reachable from `s` by consuming one data edge of color
    /// `data_color`.
    #[inline]
    pub fn successors(&self, s: StateId, data_color: Color) -> impl Iterator<Item = StateId> + '_ {
        self.fwd[s as usize]
            .iter()
            .filter(move |(qc, _)| qc.admits(data_color))
            .map(|&(_, t)| t)
    }

    /// States from which consuming one data edge of color `data_color`
    /// reaches `s`.
    #[inline]
    pub fn predecessors(
        &self,
        s: StateId,
        data_color: Color,
    ) -> impl Iterator<Item = StateId> + '_ {
        self.bwd[s as usize]
            .iter()
            .filter(move |(qc, _)| qc.admits(data_color))
            .map(|&(_, t)| t)
    }

    /// Run the NFA on a whole word (cross-checks [`FRegex::matches`];
    /// decides [`GRegex::matches`](crate::GRegex::matches)).
    pub fn accepts(&self, word: &[Color]) -> bool {
        let mut cur = vec![false; self.state_count()];
        cur[0] = true;
        for &c in word {
            let mut next = vec![false; self.state_count()];
            for (s, &live) in cur.iter().enumerate() {
                if live {
                    for t in self.successors(s as StateId, c) {
                        next[t as usize] = true;
                    }
                }
            }
            cur = next;
        }
        cur.iter()
            .enumerate()
            .any(|(s, &live)| live && self.accepting[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use rpq_graph::WILDCARD;

    fn c(i: u8) -> Color {
        Color(i)
    }

    #[test]
    fn state_layout() {
        let re = FRegex::new(vec![
            Atom::new(c(0), Quant::AtMost(3)),
            Atom::new(c(1), Quant::Plus),
            Atom::new(c(2), Quant::One),
        ]);
        let nfa = Nfa::from_regex(&re);
        assert_eq!(nfa.state_count(), 1 + 3 + 1 + 1);
        assert_eq!(nfa.accepting_states().count(), 1);
        assert!(!nfa.is_accepting(nfa.start()));
    }

    #[test]
    fn accepts_matches_regex_matcher() {
        let cases: Vec<FRegex> = vec![
            FRegex::atom(c(0), Quant::One),
            FRegex::atom(c(0), Quant::AtMost(3)),
            FRegex::atom(c(0), Quant::Plus),
            FRegex::new(vec![
                Atom::new(c(0), Quant::AtMost(2)),
                Atom::new(c(1), Quant::One),
            ]),
            FRegex::new(vec![
                Atom::new(WILDCARD, Quant::Plus),
                Atom::new(c(1), Quant::AtMost(2)),
            ]),
            FRegex::new(vec![
                Atom::new(c(0), Quant::AtMost(2)),
                Atom::new(c(0), Quant::One),
            ]),
        ];
        // all words over {c0, c1} up to length 5
        let alphabet = [c(0), c(1)];
        for re in &cases {
            let nfa = Nfa::from_regex(re);
            for len in 0..=5usize {
                let mut word = vec![c(0); len];
                loop {
                    assert_eq!(
                        nfa.accepts(&word),
                        re.matches(&word),
                        "disagreement on {word:?} for {re:?}"
                    );
                    // next word in lexicographic order
                    let mut i = len;
                    loop {
                        if i == 0 {
                            break;
                        }
                        i -= 1;
                        if word[i] == alphabet[0] {
                            word[i] = alphabet[1];
                            break;
                        }
                        word[i] = alphabet[0];
                        if i == 0 {
                            break;
                        }
                    }
                    if word.iter().all(|&x| x == alphabet[0]) {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn predecessors_invert_successors() {
        let re = FRegex::new(vec![
            Atom::new(c(0), Quant::AtMost(2)),
            Atom::new(c(1), Quant::Plus),
        ]);
        let nfa = Nfa::from_regex(&re);
        for s in 0..nfa.state_count() as StateId {
            for color in [c(0), c(1)] {
                for t in nfa.successors(s, color) {
                    assert!(
                        nfa.predecessors(t, color).any(|p| p == s),
                        "missing bwd edge {s} -{color:?}-> {t}"
                    );
                }
            }
        }
    }
}
