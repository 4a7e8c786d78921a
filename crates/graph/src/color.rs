//! Edge colors (types) and the finite alphabet Σ.
//!
//! Every edge of a data graph bears one color from a finite alphabet (the
//! paper's `f_C : E → Σ`). Colors are interned in an [`Alphabet`] and stored
//! as a single byte on each edge.

use std::collections::HashMap;
use std::fmt;

/// Interned edge color. Index into an [`Alphabet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Color(pub u8);

/// The wildcard `_` of the paper's regular-expression class: a variable that
/// stands for *any* color in Σ. It is not a member of the alphabet; it only
/// appears in queries, never on data edges.
pub const WILDCARD: Color = Color(u8::MAX);

impl Color {
    /// True if this is the query-side wildcard `_`.
    pub fn is_wildcard(self) -> bool {
        self == WILDCARD
    }

    /// Does a data edge of color `data` satisfy this (possibly wildcard)
    /// query color?
    pub fn admits(self, data: Color) -> bool {
        self.is_wildcard() || self == data
    }
}

/// Interner for color names — the alphabet Σ of a data graph.
#[derive(Debug, Default, Clone)]
pub struct Alphabet {
    names: Vec<String>,
    index: HashMap<String, Color>,
}

impl Alphabet {
    /// Empty alphabet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an alphabet from a list of names.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut a = Alphabet::new();
        for n in names {
            a.intern(n);
        }
        a
    }

    /// Intern `name`, returning its color (existing or fresh).
    ///
    /// # Panics
    /// If more than 255 distinct colors are interned (color 255 is reserved
    /// for the wildcard); [`try_intern`](Alphabet::try_intern) reports it
    /// instead. The paper's graphs use at most a handful.
    pub fn intern(&mut self, name: &str) -> Color {
        self.try_intern(name).expect("alphabet overflow")
    }

    /// Intern `name`, or `None` if it is new and every color is taken.
    pub fn try_intern(&mut self, name: &str) -> Option<Color> {
        if let Some(&c) = self.index.get(name) {
            return Some(c);
        }
        if self.names.len() >= usize::from(WILDCARD.0) {
            return None;
        }
        let c = Color(self.names.len() as u8);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), c);
        Some(c)
    }

    /// Look up an already-interned color by name. `"_"` resolves to the
    /// wildcard.
    pub fn get(&self, name: &str) -> Option<Color> {
        if name == "_" {
            return Some(WILDCARD);
        }
        self.index.get(name).copied()
    }

    /// The name behind `c` (`"_"` for the wildcard).
    pub fn name(&self, c: Color) -> &str {
        if c.is_wildcard() {
            "_"
        } else {
            &self.names[c.0 as usize]
        }
    }

    /// Number of concrete colors (excludes the wildcard).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no colors have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all concrete colors.
    pub fn colors(&self) -> impl Iterator<Item = Color> {
        (0..self.names.len() as u8).map(Color)
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard() {
            write!(f, "_")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_lookup() {
        let mut a = Alphabet::new();
        let fa = a.intern("fa");
        let fn_ = a.intern("fn");
        assert_eq!(a.intern("fa"), fa);
        assert_ne!(fa, fn_);
        assert_eq!(a.get("fn"), Some(fn_));
        assert_eq!(a.name(fa), "fa");
        assert_eq!(a.len(), 2);
        assert_eq!(a.colors().count(), 2);
    }

    #[test]
    fn wildcard_behaviour() {
        let a = Alphabet::from_names(["x", "y"]);
        assert_eq!(a.get("_"), Some(WILDCARD));
        assert_eq!(a.name(WILDCARD), "_");
        assert!(WILDCARD.admits(Color(0)));
        assert!(WILDCARD.admits(Color(7)));
        assert!(Color(1).admits(Color(1)));
        assert!(!Color(1).admits(Color(0)));
        // the wildcard does not count as an alphabet member
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(Color(3).to_string(), "c3");
        assert_eq!(WILDCARD.to_string(), "_");
    }
}
