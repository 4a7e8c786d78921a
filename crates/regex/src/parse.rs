//! Textual syntax for F expressions.
//!
//! Whitespace-separated atoms: `fa`, `fa^2`, `fa+`, wildcard `_`, `_^3`,
//! `_+`. Color names are resolved against an [`Alphabet`]. The paper writes
//! `fa²fn` / `fa≤2`; we use `^` for superscripts, e.g. the paper's Q1
//! constraint is written `"fa^2 fn"`.

use crate::ast::{Atom, FRegex, Quant};
use rpq_graph::Alphabet;
use std::fmt;

/// Why a string failed to parse as an F expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input had no atoms.
    Empty,
    /// An atom named a color absent from the alphabet.
    UnknownColor(String),
    /// `c^k` with an unparsable or zero `k`.
    BadBound(String),
    /// Trailing garbage after a quantifier, e.g. `fa+3`.
    Malformed(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty F expression"),
            ParseError::UnknownColor(c) => write!(f, "unknown edge color {c:?}"),
            ParseError::BadBound(t) => write!(f, "bad bound in atom {t:?} (need k ≥ 1)"),
            ParseError::Malformed(t) => write!(f, "malformed atom {t:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl FRegex {
    /// Parse a whitespace-separated atom sequence against `alphabet`.
    ///
    /// ```
    /// use rpq_graph::Alphabet;
    /// use rpq_regex::FRegex;
    /// let al = Alphabet::from_names(["fa", "fn"]);
    /// let re = FRegex::parse("fa^2 fn", &al).unwrap();
    /// assert_eq!(re.len(), 2);
    /// let fa = al.get("fa").unwrap();
    /// let f = al.get("fn").unwrap();
    /// assert!(re.matches(&[fa, fa, f]));
    /// ```
    pub fn parse(input: &str, alphabet: &Alphabet) -> Result<Self, ParseError> {
        let mut atoms = Vec::new();
        for token in input.split_whitespace() {
            atoms.push(parse_atom(token, alphabet)?);
        }
        if atoms.is_empty() {
            return Err(ParseError::Empty);
        }
        Ok(FRegex::new(atoms))
    }
}

fn parse_atom(token: &str, alphabet: &Alphabet) -> Result<Atom, ParseError> {
    let (name, quant) = if let Some(rest) = token.strip_suffix('+') {
        (rest, Quant::Plus)
    } else if let Some(caret) = token.find('^') {
        let (name, bound) = token.split_at(caret);
        let k: u32 = bound[1..]
            .parse()
            .map_err(|_| ParseError::BadBound(token.to_owned()))?;
        if k == 0 {
            return Err(ParseError::BadBound(token.to_owned()));
        }
        (name, Quant::AtMost(k))
    } else {
        (token, Quant::One)
    };
    if name.is_empty() || name.contains('+') || name.contains('^') {
        return Err(ParseError::Malformed(token.to_owned()));
    }
    let color = alphabet
        .get(name)
        .ok_or_else(|| ParseError::UnknownColor(name.to_owned()))?;
    Ok(Atom::new(color, quant))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpq_graph::WILDCARD;

    fn al() -> Alphabet {
        Alphabet::from_names(["fa", "fn", "sa", "sn"])
    }

    #[test]
    fn parse_atoms() {
        let al = al();
        let re = FRegex::parse("fa^2 fn sa+ _", &al).unwrap();
        assert_eq!(re.len(), 4);
        assert_eq!(re.atoms()[0].quant, Quant::AtMost(2));
        assert_eq!(re.atoms()[1].quant, Quant::One);
        assert_eq!(re.atoms()[2].quant, Quant::Plus);
        assert_eq!(re.atoms()[3].color, WILDCARD);
        assert_eq!(re.display(&al).to_string(), "fa^2 fn sa+ _");
    }

    #[test]
    fn parse_wildcard_quantified() {
        let al = al();
        let re = FRegex::parse("_^3 _+", &al).unwrap();
        assert_eq!(re.atoms()[0].color, WILDCARD);
        assert_eq!(re.atoms()[0].quant, Quant::AtMost(3));
        assert_eq!(re.atoms()[1].quant, Quant::Plus);
    }

    #[test]
    fn parse_normalizes_pow1() {
        let al = al();
        let re = FRegex::parse("fa^1", &al).unwrap();
        assert_eq!(re.atoms()[0].quant, Quant::One);
    }

    #[test]
    fn parse_errors() {
        let al = al();
        assert_eq!(FRegex::parse("", &al), Err(ParseError::Empty));
        assert_eq!(FRegex::parse("   ", &al), Err(ParseError::Empty));
        assert!(matches!(
            FRegex::parse("zz", &al),
            Err(ParseError::UnknownColor(_))
        ));
        assert!(matches!(
            FRegex::parse("fa^0", &al),
            Err(ParseError::BadBound(_))
        ));
        assert!(matches!(
            FRegex::parse("fa^x", &al),
            Err(ParseError::BadBound(_))
        ));
        assert!(matches!(
            FRegex::parse("fa^2^3", &al),
            Err(ParseError::BadBound(_))
        ));
        assert!(matches!(
            FRegex::parse("^3", &al),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            FRegex::parse("fa+^2", &al),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn error_display() {
        assert_eq!(ParseError::Empty.to_string(), "empty F expression");
        assert!(ParseError::UnknownColor("x".into())
            .to_string()
            .contains("unknown"));
    }

    /// Atom-shaped text: either token soup — names known and unknown,
    /// quantifiers with good, zero, signed, huge and missing bounds,
    /// blanks and arbitrary characters — or a well-formed expression; cut
    /// at an arbitrary character about half the time.
    fn hostile_text() -> impl Strategy<Value = String> {
        const PIECES: &[&str] = &[
            "fa",
            "fn",
            "sa",
            "sn",
            "_",
            "zz",
            "f",
            "^",
            "+",
            "^2",
            "^0",
            "^+3",
            "^-1",
            "^x",
            "^4294967296",
            "^4294967295",
            "++",
            " ",
            "\t",
            "\u{a0}",
            "é",
            "fa^2",
            "_+",
            "sn+",
        ];
        let token = prop_oneof![
            8 => (0..PIECES.len()).prop_map(|i| PIECES[i].to_owned()),
            1 => any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).map_or_else(String::new, String::from)),
        ];
        let soup = proptest::collection::vec(token, 0..16).prop_map(|t| t.concat());
        let atom = (0usize..5, 0usize..3, 1u32..6).prop_map(|(c, q, k)| {
            let name = ["fa", "fn", "sa", "sn", "_"][c];
            match q {
                0 => name.to_owned(),
                1 => format!("{name}^{k}"),
                _ => format!("{name}+"),
            }
        });
        let well_formed = proptest::collection::vec(atom, 1..6).prop_map(|a| a.join(" "));
        let text = prop_oneof![1 => soup, 1 => well_formed];
        (text, any::<u16>()).prop_map(|(text, cut)| {
            let keep = usize::from(cut) % (2 * text.chars().count() + 1);
            text.chars().take(keep).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// No text panics the parser, and what it accepts prints as text
        /// that parses back to the same expression.
        #[test]
        fn hostile_text_never_panics(text in hostile_text()) {
            let al = al();
            if let Ok(re) = FRegex::parse(&text, &al) {
                let shown = re.display(&al).to_string();
                prop_assert_eq!(FRegex::parse(&shown, &al), Ok(re), "{:?} prints as {:?}", text, shown);
            }
        }
    }
}
