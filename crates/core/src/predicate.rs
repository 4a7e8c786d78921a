//! Node search conditions.
//!
//! A query node carries a predicate: a conjunction of atomic formulas
//! `A op a` with `op ∈ {<, ≤, =, ≠, >, ≥}` (§2). A data node `v` *matches*
//! a query node `u` (written `v ∼ u`) if every atom holds on `f_A(v)`.
//!
//! Evaluation reads the graph by column: [`Predicate::select_bits`] ANDs
//! one pass per conjunct over the attribute's column into a node bitmap,
//! and [`Predicate::select`] lists it — `mat(u)`, the candidate set every
//! §4–§5 evaluator starts from. [`Predicate::matches`] tests one row.
//!
//! [`Predicate::implies`] is the syntactic implication test from the proof
//! of Prop. 3.3, used by the containment analyses: `p.implies(q)` holds iff
//! every atom of `q` is implied by the bounds/equalities/inequalities `p`
//! places on the same attribute. It is sound, and complete for the
//! case analysis the paper defines (it deliberately does not do
//! integer-gap reasoning such as `A>3 ∧ A<5 ⟹ A=4`, nor detect
//! unsatisfiable antecedents).

use rpq_graph::attr::{split_unquoted, unquote};
use rpq_graph::{AttrId, AttrValue, Attrs, Graph, NodeId, Schema};
use std::fmt;

/// Comparison operator of an atomic formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CompOp {
    /// Apply the operator to ordered values.
    #[inline]
    pub fn eval(self, lhs: &AttrValue, rhs: &AttrValue) -> bool {
        match self {
            CompOp::Lt => lhs < rhs,
            CompOp::Le => lhs <= rhs,
            CompOp::Eq => lhs == rhs,
            CompOp::Ne => lhs != rhs,
            CompOp::Gt => lhs > rhs,
            CompOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One atomic formula `A op a`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PredAtom {
    /// The attribute `A`.
    pub attr: AttrId,
    /// The comparison.
    pub op: CompOp,
    /// The constant `a`.
    pub value: AttrValue,
}

/// A conjunction of atomic formulas. The empty conjunction is `true` — the
/// predicate of the paper's *dummy nodes*, which "bear no condition".
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Predicate {
    atoms: Vec<PredAtom>,
}

impl Predicate {
    /// The trivial predicate (matches every node).
    pub fn always_true() -> Self {
        Predicate::default()
    }

    /// Build from atoms.
    pub fn new(atoms: Vec<PredAtom>) -> Self {
        Predicate { atoms }
    }

    /// Convenience: single equality `A = a`.
    pub fn eq(attr: AttrId, value: AttrValue) -> Self {
        Predicate::new(vec![PredAtom {
            attr,
            op: CompOp::Eq,
            value,
        }])
    }

    /// Add one more conjunct (builder style).
    pub fn and(mut self, attr: AttrId, op: CompOp, value: AttrValue) -> Self {
        self.atoms.push(PredAtom { attr, op, value });
        self
    }

    /// The conjuncts.
    pub fn atoms(&self) -> &[PredAtom] {
        &self.atoms
    }

    /// True for the empty conjunction.
    pub fn is_trivial(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Number of conjuncts (the experiment parameter `|pred|`).
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if there are no conjuncts.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Does the node tuple `attrs` satisfy every conjunct (`v ∼ u`)?
    ///
    /// A missing attribute, or one from the other value domain, fails the
    /// conjunct — the paper requires "there exists an attribute A in
    /// `f_A(v)`" with the stated comparison.
    pub fn matches(&self, attrs: &Attrs) -> bool {
        self.atoms.iter().all(|a| match attrs.get(a.attr) {
            Some(v) if v.same_domain(&a.value) => a.op.eval(v, &a.value),
            _ => false,
        })
    }

    /// The nodes of `g` that satisfy every conjunct, as a bitmap: bit
    /// `v % 64` of word `v / 64` is set iff
    /// [`matches`](Predicate::matches)`(g.attrs(v))` holds, and no bit at
    /// or past `g.node_count()` is. Each conjunct is one pass over its
    /// attribute's column ([`rpq_graph::Columns`]), ANDed in; a node
    /// without the attribute, or holding it in the other domain, is
    /// cleared, exactly where `matches` fails. The empty conjunction sets
    /// every node's bit without reading a column.
    pub fn select_bits(&self, g: &Graph) -> Vec<u64> {
        let n = g.node_count();
        let mut bits = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            bits[n / 64] = (1 << (n % 64)) - 1;
        }
        let columns = g.columns();
        for atom in &self.atoms {
            match &atom.value {
                AttrValue::Int(k) => match columns.ints(atom.attr) {
                    Some(col) => and_int(&mut bits, col.values(), col.present(), atom.op, *k),
                    None => bits.fill(0),
                },
                AttrValue::Str(s) => match columns.strs(atom.attr) {
                    Some(col) => {
                        and_code(&mut bits, col.codes(), col.present(), atom.op, col.rank(s))
                    }
                    None => bits.fill(0),
                },
            }
        }
        bits
    }

    /// `mat(u)` for this predicate: the nodes of `g` that satisfy it,
    /// ascending — [`select_bits`](Predicate::select_bits), listed.
    pub fn select(&self, g: &Graph) -> Vec<NodeId> {
        if self.is_trivial() {
            return g.nodes().collect();
        }
        listed(&self.select_bits(g))
    }

    /// Syntactic implication: does `self ⟹ other` hold (every node matching
    /// `self` matches `other`)?
    ///
    /// This is the paper's `u ⊢ w` once lifted to nodes: `u ⊢ w` iff
    /// `pred(u).implies(pred(w))`.
    pub fn implies(&self, other: &Predicate) -> bool {
        other.atoms.iter().all(|a| self.implies_atom(a))
    }

    /// Case analysis from the proof of Prop. 3.3. All bounds are derived
    /// from `self`'s conjuncts on the same attribute and domain.
    fn implies_atom(&self, goal: &PredAtom) -> bool {
        // derived bounds from self on goal.attr (same domain only)
        let mut eq: Option<&AttrValue> = None;
        let mut lo: Option<(&AttrValue, bool)> = None; // (bound, strict)
        let mut hi: Option<(&AttrValue, bool)> = None;
        let mut ne_exact = false;
        for a in &self.atoms {
            if a.attr != goal.attr || !a.value.same_domain(&goal.value) {
                continue;
            }
            match a.op {
                CompOp::Eq => {
                    eq = Some(&a.value);
                    tighten_lo(&mut lo, &a.value, false);
                    tighten_hi(&mut hi, &a.value, false);
                }
                CompOp::Ge => tighten_lo(&mut lo, &a.value, false),
                CompOp::Gt => tighten_lo(&mut lo, &a.value, true),
                CompOp::Le => tighten_hi(&mut hi, &a.value, false),
                CompOp::Lt => tighten_hi(&mut hi, &a.value, true),
                CompOp::Ne => {
                    if a.value == goal.value {
                        ne_exact = true;
                    }
                }
            }
        }
        let g = &goal.value;
        match goal.op {
            // Case (a): A = a implied iff the derived bounds pin A to a,
            // or A = a appears verbatim.
            CompOp::Eq => eq == Some(g) || (lo == Some((g, false)) && hi == Some((g, false))),
            // Case (b): A ≤ a implied iff some upper bound is at most a.
            CompOp::Le => match (eq, hi) {
                (Some(e), _) if e <= g => true,
                (_, Some((h, _))) => h <= g,
                _ => false,
            },
            // Case (c): strict/other inequalities, analogous.
            CompOp::Lt => match (eq, hi) {
                (Some(e), _) if e < g => true,
                (_, Some((h, strict))) => h < g || (h == g && strict),
                _ => false,
            },
            CompOp::Ge => match (eq, lo) {
                (Some(e), _) if e >= g => true,
                (_, Some((l, _))) => l >= g,
                _ => false,
            },
            CompOp::Gt => match (eq, lo) {
                (Some(e), _) if e > g => true,
                (_, Some((l, strict))) => l > g || (l == g && strict),
                _ => false,
            },
            // Case (d): A ≠ a implied iff A = e with e ≠ a, or A ≠ a
            // appears, or the bounds exclude a.
            CompOp::Ne => {
                ne_exact
                    || matches!(eq, Some(e) if e != g)
                    || matches!(lo, Some((l, strict)) if l > g || (l == g && strict))
                    || matches!(hi, Some((h, strict)) if h < g || (h == g && strict))
            }
        }
    }

    /// Render with attribute names from `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        DisplayPred { p: self, schema }
    }
}

/// Is node `v`'s bit set in a [`Predicate::select_bits`] bitmap?
#[inline]
pub fn selected(bits: &[u64], v: NodeId) -> bool {
    bits[v.index() / 64] >> (v.index() % 64) & 1 == 1
}

/// The nodes whose bits are set in a node bitmap, ascending.
pub fn listed(bits: &[u64]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
    for (i, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            out.push(NodeId((i * 64) as u32 + word.trailing_zeros()));
            word &= word - 1;
        }
    }
    out
}

/// AND into `bits`, word by word, the nodes of `present` whose value
/// passes `keep`. A word already clear is skipped; the others compare
/// their 64 values branch-free.
#[inline]
fn and_pass<T: Copy>(bits: &mut [u64], values: &[T], present: &[u64], keep: impl Fn(T) -> bool) {
    for ((word, &has), chunk) in bits.iter_mut().zip(present).zip(values.chunks(64)) {
        if *word == 0 {
            continue;
        }
        let mut m = 0u64;
        for (j, &x) in chunk.iter().enumerate() {
            m |= u64::from(keep(x)) << j;
        }
        *word &= has & m;
    }
}

/// One integer conjunct `A op k`.
fn and_int(bits: &mut [u64], values: &[i64], present: &[u64], op: CompOp, k: i64) {
    match op {
        CompOp::Lt => and_pass(bits, values, present, |x| x < k),
        CompOp::Le => and_pass(bits, values, present, |x| x <= k),
        CompOp::Eq => and_pass(bits, values, present, |x| x == k),
        CompOp::Ne => and_pass(bits, values, present, |x| x != k),
        CompOp::Gt => and_pass(bits, values, present, |x| x > k),
        CompOp::Ge => and_pass(bits, values, present, |x| x >= k),
    }
}

/// One string conjunct `A op s`, over dictionary codes. `rank` is
/// [`StrColumn::rank`](rpq_graph::StrColumn::rank) of `s`: `Ok(c)`
/// compares codes with `c` as the strings compare with `s`; for `Err(r)`,
/// `s` lies strictly between codes `r - 1` and `r`, so no code equals it,
/// `<` and `≤` mean `< r`, and `>` and `≥` mean `≥ r`.
fn and_code(bits: &mut [u64], codes: &[u32], present: &[u64], op: CompOp, rank: Result<u32, u32>) {
    match (op, rank) {
        (CompOp::Lt, Ok(c) | Err(c)) | (CompOp::Le, Err(c)) => {
            and_pass(bits, codes, present, |x| x < c)
        }
        (CompOp::Le, Ok(c)) => and_pass(bits, codes, present, |x| x <= c),
        (CompOp::Gt, Ok(c)) => and_pass(bits, codes, present, |x| x > c),
        (CompOp::Ge, Ok(c) | Err(c)) | (CompOp::Gt, Err(c)) => {
            and_pass(bits, codes, present, |x| x >= c)
        }
        (CompOp::Eq, Ok(c)) => and_pass(bits, codes, present, |x| x == c),
        (CompOp::Ne, Ok(c)) => and_pass(bits, codes, present, |x| x != c),
        (CompOp::Eq, Err(_)) => bits.fill(0),
        (CompOp::Ne, Err(_)) => {
            for (word, &has) in bits.iter_mut().zip(present) {
                *word &= has;
            }
        }
    }
}

fn tighten_lo<'a>(lo: &mut Option<(&'a AttrValue, bool)>, v: &'a AttrValue, strict: bool) {
    let better = match *lo {
        None => true,
        Some((cur, cur_strict)) => v > cur || (v == cur && strict && !cur_strict),
    };
    if better {
        *lo = Some((v, strict));
    }
}

fn tighten_hi<'a>(hi: &mut Option<(&'a AttrValue, bool)>, v: &'a AttrValue, strict: bool) {
    let better = match *hi {
        None => true,
        Some((cur, cur_strict)) => v < cur || (v == cur && strict && !cur_strict),
    };
    if better {
        *hi = Some((v, strict));
    }
}

struct DisplayPred<'a> {
    p: &'a Predicate,
    schema: &'a Schema,
}

impl fmt::Display for DisplayPred<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.p.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.p.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{} {} {}", self.schema.name(a.attr), a.op, a.value)?;
        }
        Ok(())
    }
}

/// Why a predicate string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredParseError {
    /// Attribute name not in the schema.
    UnknownAttr(String),
    /// Conjunct without a recognizable operator.
    NoOperator(String),
    /// Right-hand side was neither an integer nor a quoted string.
    BadValue(String),
}

impl fmt::Display for PredParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredParseError::UnknownAttr(a) => write!(f, "unknown attribute {a:?}"),
            PredParseError::NoOperator(c) => write!(f, "no comparison operator in {c:?}"),
            PredParseError::BadValue(v) => write!(f, "bad constant {v:?}"),
        }
    }
}

impl std::error::Error for PredParseError {}

impl Predicate {
    /// Parse `"job = \"doctor\" && age > 300"` against `schema`. Integer
    /// constants are bare; string constants are double-quoted, as
    /// [`AttrValue`]'s `Display` writes them (`\"` and `\\` escapes), so a
    /// displayed predicate parses back to itself. The empty string, and
    /// `true` (the trivial predicate's display), parse to the trivial
    /// predicate; a `true` conjunct adds no condition.
    pub fn parse(input: &str, schema: &Schema) -> Result<Self, PredParseError> {
        let mut atoms = Vec::new();
        for conjunct in split_unquoted(input, "&&") {
            let conjunct = conjunct.trim();
            if conjunct.is_empty() || conjunct == "true" {
                continue;
            }
            // longest operators first
            let op_table = [
                ("<=", CompOp::Le),
                (">=", CompOp::Ge),
                ("!=", CompOp::Ne),
                ("<", CompOp::Lt),
                (">", CompOp::Gt),
                ("=", CompOp::Eq),
            ];
            let (idx, opstr, op) = op_table
                .iter()
                .filter_map(|&(s, o)| conjunct.find(s).map(|i| (i, s, o)))
                .min_by_key(|&(i, s, _)| (i, std::cmp::Reverse(s.len())))
                .ok_or_else(|| PredParseError::NoOperator(conjunct.to_owned()))?;
            let name = conjunct[..idx].trim();
            let rhs = conjunct[idx + opstr.len()..].trim();
            let attr = schema
                .get(name)
                .ok_or_else(|| PredParseError::UnknownAttr(name.to_owned()))?;
            let value = if rhs.starts_with('"') {
                match unquote(rhs) {
                    Some((value, "")) => AttrValue::Str(value),
                    _ => return Err(PredParseError::BadValue(rhs.to_owned())),
                }
            } else {
                rhs.parse::<i64>()
                    .map(AttrValue::Int)
                    .map_err(|_| PredParseError::BadValue(rhs.to_owned()))?
            };
            atoms.push(PredAtom { attr, op, value });
        }
        Ok(Predicate::new(atoms))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.intern("job");
        s.intern("age");
        s.intern("view");
        s
    }

    fn attrs(s: &Schema, job: &str, age: i64) -> Attrs {
        Attrs::from_pairs(vec![
            (s.get("job").unwrap(), AttrValue::Str(job.into())),
            (s.get("age").unwrap(), AttrValue::Int(age)),
        ])
    }

    #[test]
    fn parse_and_match() {
        let s = schema();
        let p = Predicate::parse("job = \"doctor\" && age > 300", &s).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.matches(&attrs(&s, "doctor", 400)));
        assert!(!p.matches(&attrs(&s, "doctor", 300)));
        assert!(!p.matches(&attrs(&s, "biologist", 400)));
    }

    #[test]
    fn parse_all_ops_and_errors() {
        let s = schema();
        for (txt, op) in [
            ("age < 5", CompOp::Lt),
            ("age <= 5", CompOp::Le),
            ("age = 5", CompOp::Eq),
            ("age != 5", CompOp::Ne),
            ("age > 5", CompOp::Gt),
            ("age >= 5", CompOp::Ge),
        ] {
            let p = Predicate::parse(txt, &s).unwrap();
            assert_eq!(p.atoms()[0].op, op, "{txt}");
        }
        assert!(matches!(
            Predicate::parse("bogus = 1", &s),
            Err(PredParseError::UnknownAttr(_))
        ));
        assert!(matches!(
            Predicate::parse("age 5", &s),
            Err(PredParseError::NoOperator(_))
        ));
        assert!(matches!(
            Predicate::parse("age = abc", &s),
            Err(PredParseError::BadValue(_))
        ));
        assert!(matches!(
            Predicate::parse("job = \"unclosed", &s),
            Err(PredParseError::BadValue(_))
        ));
        assert!(Predicate::parse("", &s).unwrap().is_trivial());
    }

    #[test]
    fn trivial_matches_everything() {
        let s = schema();
        let t = Predicate::always_true();
        assert!(t.matches(&attrs(&s, "x", 0)));
        assert!(t.matches(&Attrs::new()));
    }

    #[test]
    fn missing_or_mistyped_attr_fails() {
        let s = schema();
        let p = Predicate::parse("view > 10", &s).unwrap();
        assert!(!p.matches(&attrs(&s, "doctor", 400)));
        // age is Int; a string comparison on it must fail, not panic
        let q = Predicate::parse("age = \"old\"", &s).unwrap();
        assert!(!q.matches(&attrs(&s, "doctor", 400)));
    }

    #[test]
    fn implication_equalities() {
        let s = schema();
        let p = Predicate::parse("job = \"doctor\" && age = 10", &s).unwrap();
        let q = Predicate::parse("job = \"doctor\"", &s).unwrap();
        assert!(p.implies(&q));
        assert!(!q.implies(&p));
        // everything implies the trivial predicate
        assert!(p.implies(&Predicate::always_true()));
        assert!(q.implies(&q));
    }

    #[test]
    fn implication_bounds() {
        let s = schema();
        let imp = |a: &str, b: &str| {
            Predicate::parse(a, &s)
                .unwrap()
                .implies(&Predicate::parse(b, &s).unwrap())
        };
        assert!(imp("age > 10", "age > 5"));
        assert!(imp("age > 10", "age >= 10"));
        assert!(imp("age >= 10", "age > 9"));
        assert!(!imp("age >= 10", "age > 10"));
        assert!(imp("age < 3", "age <= 3"));
        assert!(imp("age <= 3", "age < 4"));
        assert!(!imp("age < 5", "age < 4"));
        assert!(imp("age = 7", "age >= 7"));
        assert!(imp("age = 7", "age <= 7"));
        assert!(imp("age = 7", "age > 6"));
        assert!(imp("age >= 7 && age <= 7", "age = 7"));
        assert!(!imp("age >= 6 && age <= 8", "age = 7"));
    }

    #[test]
    fn implication_ne() {
        let s = schema();
        let imp = |a: &str, b: &str| {
            Predicate::parse(a, &s)
                .unwrap()
                .implies(&Predicate::parse(b, &s).unwrap())
        };
        assert!(imp("age != 5", "age != 5"));
        assert!(imp("age = 4", "age != 5"));
        assert!(!imp("age = 5", "age != 5"));
        assert!(imp("age > 5", "age != 5"));
        assert!(imp("age < 5", "age != 5"));
        assert!(imp("age >= 6", "age != 5"));
        assert!(!imp("age >= 5", "age != 5"));
    }

    #[test]
    fn implication_strings() {
        let s = schema();
        let p = Predicate::parse("job = \"doctor\"", &s).unwrap();
        let q = Predicate::parse("job != \"biologist\"", &s).unwrap();
        assert!(p.implies(&q));
        let r = Predicate::parse("job >= \"d\"", &s).unwrap();
        assert!(p.implies(&r)); // "doctor" >= "d" lexicographically
    }

    #[test]
    fn implication_is_sound_on_samples() {
        // brute-force soundness: whenever implies() says yes, every matching
        // tuple of p matches q
        let s = schema();
        let age = s.get("age").unwrap();
        let preds: Vec<Predicate> = [
            "age > 3",
            "age >= 3",
            "age < 7",
            "age <= 7",
            "age = 5",
            "age != 5",
            "age > 3 && age < 7",
            "age >= 5 && age <= 5",
            "",
        ]
        .iter()
        .map(|t| Predicate::parse(t, &s).unwrap())
        .collect();
        for p in &preds {
            for q in &preds {
                if p.implies(q) {
                    for v in -1..12i64 {
                        let a = Attrs::from_pairs(vec![(age, AttrValue::Int(v))]);
                        if p.matches(&a) {
                            assert!(q.matches(&a), "unsound: {:?} implies {:?} but v={v}", p, q);
                        }
                    }
                }
            }
        }
    }

    /// Per node: `mixed` a string (0), an integer (1) or missing (2), its
    /// string and integer, `num`, and `word`'s string.
    type NodeSpec = (u8, usize, i64, i64, usize);

    /// Held strings: every other letter, so constants fall on, between,
    /// below and above them.
    const HELD: [&str; 3] = ["b", "d", "f"];

    /// A graph over `mixed`, `num`, `word` and `unused` (interned, on no
    /// node) from `nodes`.
    fn column_graph(nodes: &[NodeSpec]) -> Graph {
        let mut b = rpq_graph::GraphBuilder::new();
        let (mixed, num, word) = (b.attr("mixed"), b.attr("num"), b.attr("word"));
        b.attr("unused");
        for (i, &(kind, s, k, x, w)) in nodes.iter().enumerate() {
            let mut pairs = vec![(num, AttrValue::Int(x)), (word, HELD[w].into())];
            match kind {
                0 => pairs.push((mixed, HELD[s].into())),
                1 => pairs.push((mixed, AttrValue::Int(k))),
                _ => {}
            }
            b.add_node(&format!("v{i}"), pairs);
        }
        b.build()
    }

    const OPS: [CompOp; 6] = [
        CompOp::Lt,
        CompOp::Le,
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Gt,
        CompOp::Ge,
    ];

    /// `A op a` over the four attributes, every operator, integer
    /// constants around the held ones and string constants `a`..`g`.
    fn random_atom() -> impl Strategy<Value = PredAtom> {
        let value = prop_oneof![
            (-4i64..5).prop_map(AttrValue::Int),
            (b'a'..b'h').prop_map(|c| AttrValue::Str((c as char).to_string())),
        ];
        (0u16..4, 0usize..6, value).prop_map(|(attr, op, value)| PredAtom {
            attr: AttrId(attr),
            op: OPS[op],
            value,
        })
    }

    fn row_filter(p: &Predicate, g: &Graph) -> Vec<NodeId> {
        g.nodes().filter(|&v| p.matches(g.attrs(v))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn select_equals_the_row_filter(
            nodes in prop_oneof![1 => Just(0usize), 1 => Just(64usize), 4 => 1usize..200]
                .prop_flat_map(|n| {
                    let node = (0u8..3, 0usize..3, -3i64..4, -3i64..4, 0usize..3);
                    prop::collection::vec(node, n..n + 1)
                }),
            atoms in prop::collection::vec(random_atom(), 0..4),
        ) {
            let g = column_graph(&nodes);
            let p = Predicate::new(atoms);
            let rows = row_filter(&p, &g);
            prop_assert_eq!(p.select(&g), rows.clone(), "{}", p.display(g.schema()));
            prop_assert_eq!(listed(&p.select_bits(&g)), rows);
        }
    }

    #[test]
    fn select_on_word_boundaries_and_absent_attributes() {
        let s = |t: &str, g: &Graph| Predicate::parse(t, g.schema()).unwrap();
        for n in [0usize, 1, 63, 64, 65, 130] {
            let nodes: Vec<NodeSpec> = (0..n)
                .map(|i| ((i % 3) as u8, i % 3, i as i64 % 7 - 3, 1, i % 3))
                .collect();
            let g = column_graph(&nodes);
            let all: Vec<NodeId> = g.nodes().collect();
            assert_eq!(Predicate::always_true().select(&g), all, "n = {n}");
            assert_eq!(
                listed(&Predicate::always_true().select_bits(&g)),
                all,
                "n = {n}"
            );
            for text in ["unused = 1", "unused != \"a\"", "num = \"b\"", "word > 0"] {
                assert!(s(text, &g).select(&g).is_empty(), "{text}, n = {n}");
            }
            for text in [
                "mixed != \"c\"",
                "mixed >= \"c\"",
                "mixed < 0",
                "num >= 1 && word <= \"e\"",
            ] {
                let p = s(text, &g);
                assert_eq!(p.select(&g), row_filter(&p, &g), "{text}, n = {n}");
            }
        }
    }

    #[test]
    fn display() {
        let s = schema();
        let p = Predicate::parse("job = \"doctor\" && age > 300", &s).unwrap();
        assert_eq!(p.display(&s).to_string(), "job = \"doctor\" && age > 300");
        assert_eq!(Predicate::always_true().display(&s).to_string(), "true");
    }

    /// String constants over printable ASCII, often the characters the
    /// predicate and pattern-text syntaxes give a meaning to, a tab and a
    /// letter outside ASCII.
    fn constant() -> impl Strategy<Value = String> {
        const SPECIAL: [char; 9] = ['"', '\\', '#', ';', '&', ' ', '=', '\t', 'é'];
        let c = prop_oneof![
            (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
            (0x20u8..0x7f).prop_map(char::from),
        ];
        prop::collection::vec(c, 0..8).prop_map(String::from_iter)
    }

    /// Conjunctions of `atoms` atoms over the first `attrs` attributes of
    /// a schema, with any operator and any integer or string constant.
    pub(crate) fn random_predicate(
        attrs: u16,
        atoms: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Predicate> {
        let value = prop_oneof![
            (-1000i64..1000).prop_map(AttrValue::Int),
            (0usize..2).prop_map(|i| AttrValue::Int([i64::MIN, i64::MAX][i])),
            constant().prop_map(AttrValue::Str),
        ];
        let atom = (0..attrs, 0usize..6, value).prop_map(|(attr, op, value)| PredAtom {
            attr: AttrId(attr),
            op: OPS[op],
            value,
        });
        prop::collection::vec(atom, atoms).prop_map(Predicate::new)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A displayed predicate parses back to itself, whatever its
        /// string constants hold: quotes, backslashes, `&&`, `#`, `;`.
        #[test]
        fn display_parses_back(p in random_predicate(3, 1..4)) {
            let s = schema();
            let text = p.display(&s).to_string();
            prop_assert_eq!(Predicate::parse(&text, &s), Ok(p), "{}", text);
        }
    }

    /// `text` cut at an arbitrary character about half the time.
    pub(crate) fn cut_anywhere(
        text: impl Strategy<Value = String>,
    ) -> impl Strategy<Value = String> {
        (text, any::<u16>()).prop_map(|(text, cut)| {
            let keep = usize::from(cut) % (2 * text.chars().count() + 1);
            text.chars().take(keep).collect()
        })
    }

    /// One of `pieces`, or (one time in nine) an arbitrary character.
    pub(crate) fn token(pieces: &'static [&'static str]) -> impl Strategy<Value = String> {
        prop_oneof![
            8 => (0..pieces.len()).prop_map(move |i| pieces[i].to_owned()),
            1 => any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).map_or_else(String::new, String::from)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// No text panics the parser — token soup of names, operators,
        /// constants quoted, unclosed and escaped, and `&&`, or a printed
        /// predicate, cut anywhere — and what it accepts prints as text
        /// that parses back to the same predicate.
        #[test]
        fn hostile_text_never_panics(
            text in cut_anywhere(prop_oneof![
                1 => prop::collection::vec(token(&[
                    "job", "age", "view", "nope", "true", " ", "=", "!=", "<=", ">=", "<", ">",
                    "&&", "&", "\"", "\\", "\"doctor\"", "\"a && b\"", "\"\\\"\"", "-3", "42",
                    "+7", "99999999999999999999", " && ", "é",
                ]), 0..16).prop_map(|t| t.concat()),
                1 => random_predicate(3, 0..4).prop_map(|p| p.display(&schema()).to_string()),
            ]),
        ) {
            let s = schema();
            if let Ok(p) = Predicate::parse(&text, &s) {
                let shown = p.display(&s).to_string();
                prop_assert_eq!(Predicate::parse(&shown, &s), Ok(p), "{:?} prints as {:?}", text, shown);
            }
        }
    }

    #[test]
    fn true_is_the_trivial_predicate() {
        let s = schema();
        let shown = Predicate::always_true().display(&s).to_string();
        assert_eq!(Predicate::parse(&shown, &s), Ok(Predicate::always_true()));
        assert_eq!(
            Predicate::parse("true && age > 3", &s),
            Predicate::parse("age > 3", &s)
        );
    }

    #[test]
    fn string_constants_take_the_quoted_syntax() {
        let s = schema();
        let job = |v: &str| Predicate::eq(s.get("job").unwrap(), AttrValue::Str(v.into()));
        for (text, value) in [
            (r#"job = "a\\b""#, r"a\b"),
            (r#"job = "say \"hi\"""#, r#"say "hi""#),
            (r#"job = "x && y""#, "x && y"),
            (r#"job = "\q""#, "q"),
        ] {
            assert_eq!(Predicate::parse(text, &s), Ok(job(value)), "{text}");
        }
        for bad in [r#"job = "open"#, r#"job = "a" b"#, r#"job = "a\""#] {
            assert!(Predicate::parse(bad, &s).is_err(), "{bad}");
        }
    }
}
