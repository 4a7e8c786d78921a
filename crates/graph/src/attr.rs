//! Node attributes.
//!
//! Each node of a data graph carries a tuple `(A1 = a1, …, An = an)` (the
//! paper's `f_A`). Attribute *names* are interned in a [`Schema`] so a node
//! only stores compact `(AttrId, AttrValue)` pairs, sorted by id for
//! logarithmic lookup.
//!
//! A graph keeps the same values a second time by column ([`Columns`]),
//! which is what query evaluation reads: selecting the nodes that satisfy
//! a predicate (`mat(u)`, §2) is one pass per conjunct over a dense
//! column, not a row lookup per node. Each attribute has an `i64` column
//! and a column of `u32` codes into a sorted dictionary of its distinct
//! strings, each with a presence bitmap, since a node may hold either
//! domain or none. The codes preserve string order, so a comparison with
//! a string constant is a comparison of codes. The rows stay for
//! single-node reads ([`Attrs`]); both live behind one `Arc` that a
//! graph derived by edge updates shares with its parent.

use std::collections::HashMap;
use std::fmt;

/// Interned attribute name. Index into [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u16);

/// An attribute value: either a 64-bit integer or a string.
///
/// The paper leaves the value domain abstract ("constant values"); integers
/// and strings cover every attribute used in its examples and experiments
/// (ids, categories, view counts, ages, names, …). Both domains are totally
/// ordered, so all six comparison operators are meaningful.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttrValue {
    /// Integer value, e.g. `age = 300`.
    Int(i64),
    /// String value, e.g. `cat = "Music"`. Ordered lexicographically.
    Str(String),
}

impl AttrValue {
    /// True if both values come from the same domain (Int vs Str) and are
    /// therefore comparable.
    pub fn same_domain(&self, other: &AttrValue) -> bool {
        matches!(
            (self, other),
            (AttrValue::Int(_), AttrValue::Int(_)) | (AttrValue::Str(_), AttrValue::Str(_))
        )
    }
}

/// Integers print bare; strings print as the one string-constant syntax
/// of graph files, predicates and pattern texts: in double quotes, with
/// `"` and `\` escaped by a backslash. [`unquote`] reads it back.
impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write;
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    if matches!(c, '"' | '\\') {
                        f.write_char('\\')?;
                    }
                    f.write_char(c)?;
                }
                f.write_char('"')
            }
        }
    }
}

/// Read the string constant `s` starts with, as [`AttrValue`]'s `Display`
/// writes it: its value, and the rest of `s` after the closing quote.
/// Inside the quotes a backslash takes the next character as it is.
/// `None` unless `s` starts with `"` and the constant is closed.
pub fn unquote(s: &str) -> Option<(String, &str)> {
    let inner = s.strip_prefix('"')?;
    let mut value = String::new();
    let mut chars = inner.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((value, &inner[i + 1..])),
            '\\' => value.push(chars.next()?.1),
            c => value.push(c),
        }
    }
    None
}

/// `s` cut at every `sep` that is not inside a string constant (an
/// unclosed constant runs to the end of `s`). `sep` is ASCII.
pub fn split_unquoted<'a>(s: &'a str, sep: &'a str) -> impl Iterator<Item = &'a str> {
    let first = sep.as_bytes()[0];
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let s = rest?;
        let mut from = 0;
        while let Some(i) = (s.as_bytes()[from..].iter())
            .position(|&b| b == b'"' || b == first)
            .map(|i| from + i)
        {
            if s.as_bytes()[i] == b'"' {
                let Some((_, after)) = unquote(&s[i..]) else {
                    break;
                };
                from = s.len() - after.len();
            } else if s[i..].starts_with(sep) {
                rest = Some(&s[i + sep.len()..]);
                return Some(&s[..i]);
            } else {
                from = i + 1;
            }
        }
        rest = None;
        Some(s)
    })
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Interner for attribute names, shared by a graph and the queries posed on
/// it. Query predicates and node tuples refer to attributes by [`AttrId`].
#[derive(Debug, Default, Clone)]
pub struct Schema {
    names: Vec<String>,
    index: HashMap<String, AttrId>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its id (existing or fresh).
    ///
    /// # Panics
    /// If more than 65 536 distinct names are interned ([`AttrId`] is a
    /// `u16`); [`try_intern`](Schema::try_intern) reports it instead.
    pub fn intern(&mut self, name: &str) -> AttrId {
        self.try_intern(name)
            .expect("more than 65 536 attribute names")
    }

    /// Intern `name`, or `None` if it is new and every [`AttrId`] is taken.
    pub fn try_intern(&mut self, name: &str) -> Option<AttrId> {
        if let Some(&id) = self.index.get(name) {
            return Some(id);
        }
        let id = AttrId(u16::try_from(self.names.len()).ok()?);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        Some(id)
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<AttrId> {
        self.index.get(name).copied()
    }

    /// The name behind `id`.
    pub fn name(&self, id: AttrId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned attribute names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The attribute tuple of a single node: `(A1 = a1, …, An = an)`, stored
/// sorted by [`AttrId`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Attrs {
    pairs: Vec<(AttrId, AttrValue)>,
}

impl Attrs {
    /// Empty tuple (a node with no attributes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted pairs. Later duplicates of the same attribute
    /// overwrite earlier ones.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (AttrId, AttrValue)>) -> Self {
        let mut a = Attrs::new();
        for (id, v) in pairs {
            a.set(id, v);
        }
        a
    }

    /// Set attribute `id` to `value` (insert or overwrite).
    pub fn set(&mut self, id: AttrId, value: AttrValue) {
        match self.pairs.binary_search_by_key(&id, |p| p.0) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => self.pairs.insert(i, (id, value)),
        }
    }

    /// The value of attribute `id`, if the node has it.
    pub fn get(&self, id: AttrId) -> Option<&AttrValue> {
        self.pairs
            .binary_search_by_key(&id, |p| p.0)
            .ok()
            .map(|i| &self.pairs[i].1)
    }

    /// Iterate over `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrValue)> {
        self.pairs.iter().map(|(id, v)| (*id, v))
    }

    /// Number of attributes on this node.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the node has no attributes.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The attribute store of a graph: each node's row, and the same values
/// by column. [`Graph`](crate::Graph) holds it behind one `Arc`, so a
/// version derived by edge updates shares it instead of copying it.
#[derive(Debug)]
pub(crate) struct NodeAttrs {
    pub(crate) rows: Vec<Attrs>,
    pub(crate) columns: Columns,
}

impl NodeAttrs {
    /// The store of `rows`, its columns built once.
    pub(crate) fn new(rows: Vec<Attrs>) -> Self {
        NodeAttrs {
            columns: Columns::build(&rows),
            rows,
        }
    }
}

/// Node attributes by column: for each [`AttrId`], the nodes' integer
/// values ([`IntColumn`]) and string values ([`StrColumn`]), one entry
/// per node. A presence bitmap has bit `v % 64` of word `v / 64` set for
/// node `v`.
#[derive(Debug)]
pub struct Columns {
    columns: Vec<Column>,
}

#[derive(Debug, Default)]
struct Column {
    ints: Option<IntColumn>,
    strs: Option<StrColumn>,
}

/// The integer values of one attribute: `values[v]` holds node `v`'s
/// value if bit `v` of `present` is set (and 0 otherwise).
#[derive(Debug)]
pub struct IntColumn {
    values: Vec<i64>,
    present: Vec<u64>,
}

impl IntColumn {
    /// One value per node; meaningful where [`present`](Self::present)
    /// has the node's bit.
    #[inline]
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The nodes holding an integer value for this attribute.
    #[inline]
    pub fn present(&self) -> &[u64] {
        &self.present
    }
}

/// The string values of one attribute, dictionary-encoded: `codes[v]`
/// indexes node `v`'s value in the sorted, duplicate-free dictionary of
/// the attribute's strings if bit `v` of `present` is set, so codes
/// preserve string order ([`rank`](Self::rank) maps a string to its
/// place).
#[derive(Debug)]
pub struct StrColumn {
    codes: Vec<u32>,
    present: Vec<u64>,
    dict: Vec<Box<str>>,
}

impl StrColumn {
    /// One code per node; meaningful where [`present`](Self::present)
    /// has the node's bit.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The nodes holding a string value for this attribute.
    #[inline]
    pub fn present(&self) -> &[u64] {
        &self.present
    }

    /// `Ok(code)` of `s` if some node holds it, else `Err(rank)`: the
    /// number of held values below `s`, so every code `< rank` is a
    /// smaller string and every code `≥ rank` a larger one.
    pub fn rank(&self, s: &str) -> Result<u32, u32> {
        self.dict
            .binary_search_by(|d| (**d).cmp(s))
            .map(|c| c as u32)
            .map_err(|r| r as u32)
    }
}

impl Columns {
    /// The columns of `rows`, node `v`'s tuple being `rows[v]`. A column
    /// of a domain no node holds is not allocated.
    fn build(rows: &[Attrs]) -> Self {
        let n = rows.len();
        let words = n.div_ceil(64);
        let mut columns: Vec<Column> = Vec::new();
        // per attribute, (value, node) of every string value
        let mut strs: Vec<Vec<(&str, u32)>> = Vec::new();
        for (v, row) in rows.iter().enumerate() {
            let (word, bit) = (v / 64, 1u64 << (v % 64));
            for (id, value) in row.iter() {
                let a = usize::from(id.0);
                if a >= columns.len() {
                    columns.resize_with(a + 1, Column::default);
                    strs.resize_with(a + 1, Vec::new);
                }
                match value {
                    AttrValue::Int(x) => {
                        let col = columns[a].ints.get_or_insert_with(|| IntColumn {
                            values: vec![0; n],
                            present: vec![0; words],
                        });
                        col.values[v] = *x;
                        col.present[word] |= bit;
                    }
                    AttrValue::Str(s) => strs[a].push((s, v as u32)),
                }
            }
        }
        for (col, held) in columns.iter_mut().zip(strs) {
            if held.is_empty() {
                continue;
            }
            // code by first sight, then renumber in sorted order
            let mut first_seen: HashMap<&str, u32> = HashMap::new();
            let mut codes = vec![0u32; n];
            let mut present = vec![0u64; words];
            for &(s, v) in &held {
                let next = first_seen.len() as u32;
                codes[v as usize] = *first_seen.entry(s).or_insert(next);
                present[v as usize / 64] |= 1 << (v % 64);
            }
            let mut dict: Vec<(&str, u32)> = first_seen.into_iter().collect();
            dict.sort_unstable();
            let mut sorted = vec![0u32; dict.len()];
            for (code, &(_, seen)) in dict.iter().enumerate() {
                sorted[seen as usize] = code as u32;
            }
            for &(_, v) in &held {
                codes[v as usize] = sorted[codes[v as usize] as usize];
            }
            col.strs = Some(StrColumn {
                codes,
                present,
                dict: dict.into_iter().map(|(s, _)| Box::from(s)).collect(),
            });
        }
        Columns { columns }
    }

    /// The integer values of `attr`, or `None` if no node holds one.
    pub fn ints(&self, attr: AttrId) -> Option<&IntColumn> {
        self.columns.get(usize::from(attr.0))?.ints.as_ref()
    }

    /// The string values of `attr`, or `None` if no node holds one.
    pub fn strs(&self, attr: AttrId) -> Option<&StrColumn> {
        self.columns.get(usize::from(attr.0))?.strs.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_interns_once() {
        let mut s = Schema::new();
        let a = s.intern("job");
        let b = s.intern("age");
        let a2 = s.intern("job");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(s.name(a), "job");
        assert_eq!(s.name(b), "age");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get("job"), Some(a));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn attrs_set_get_overwrite() {
        let mut s = Schema::new();
        let job = s.intern("job");
        let age = s.intern("age");
        let mut a = Attrs::new();
        assert!(a.is_empty());
        a.set(job, "doctor".into());
        a.set(age, 41.into());
        assert_eq!(a.get(job), Some(&AttrValue::Str("doctor".into())));
        assert_eq!(a.get(age), Some(&AttrValue::Int(41)));
        a.set(job, "biologist".into());
        assert_eq!(a.get(job), Some(&AttrValue::Str("biologist".into())));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn attrs_sorted_iteration() {
        let mut s = Schema::new();
        let ids: Vec<_> = (0..5).map(|i| s.intern(&format!("a{i}"))).collect();
        let a = Attrs::from_pairs(vec![
            (ids[3], 3.into()),
            (ids[0], 0.into()),
            (ids[4], 4.into()),
            (ids[1], 1.into()),
        ]);
        let order: Vec<_> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![ids[0], ids[1], ids[3], ids[4]]);
    }

    #[test]
    fn columns_hold_each_domain_with_its_own_presence() {
        let mut s = Schema::new();
        let (mixed, num, unused) = (s.intern("mixed"), s.intern("num"), s.intern("unused"));
        // 70 nodes, so the bitmaps span two words: `mixed` is a string on
        // multiples of 3, an integer on v ≡ 1 (mod 3) and missing on the
        // rest; `num` is v on every node; no node has `unused`
        let rows: Vec<Attrs> = (0..70i64)
            .map(|v| {
                let mut a = Attrs::from_pairs([(num, AttrValue::Int(v))]);
                match v % 3 {
                    0 => a.set(
                        mixed,
                        AttrValue::Str(["m", "b", "x"][v as usize % 9 / 3].into()),
                    ),
                    1 => a.set(mixed, AttrValue::Int(-v)),
                    _ => {}
                }
                a
            })
            .collect();
        let store = NodeAttrs::new(rows);
        let cols = &store.columns;
        assert_eq!(
            cols.ints(num).unwrap().values(),
            (0..70).collect::<Vec<i64>>()
        );
        assert_eq!(cols.ints(num).unwrap().present(), &[!0, (1 << 6) - 1]);
        assert!(cols.strs(num).is_none(), "no node holds a string `num`");
        assert!(cols.ints(unused).is_none() && cols.strs(unused).is_none());
        assert!(cols.ints(AttrId(9)).is_none(), "an id past the schema");

        let strs = cols.strs(mixed).unwrap();
        let ints = cols.ints(mixed).unwrap();
        let dict: Vec<&str> = strs.dict.iter().map(|d| &**d).collect();
        assert_eq!(dict, ["b", "m", "x"]);
        for (v, row) in store.rows.iter().enumerate() {
            let bit = |bits: &[u64]| bits[v / 64] >> (v % 64) & 1 == 1;
            match row.get(mixed) {
                Some(AttrValue::Str(x)) => {
                    assert!(bit(strs.present()) && !bit(ints.present()));
                    assert_eq!(&*strs.dict[strs.codes()[v] as usize], x.as_str());
                }
                Some(AttrValue::Int(x)) => {
                    assert!(bit(ints.present()) && !bit(strs.present()));
                    assert_eq!(ints.values()[v], *x);
                }
                None => assert!(!bit(ints.present()) && !bit(strs.present())),
            }
        }
        assert_eq!(
            (strs.rank("b"), strs.rank("m"), strs.rank("x")),
            (Ok(0), Ok(1), Ok(2))
        );
        assert_eq!(strs.rank("a"), Err(0));
        assert_eq!(strs.rank("c"), Err(1));
        assert_eq!(strs.rank("y"), Err(3));
    }

    #[test]
    fn value_domains() {
        assert!(AttrValue::Int(1).same_domain(&AttrValue::Int(2)));
        assert!(AttrValue::Str("x".into()).same_domain(&AttrValue::Str("y".into())));
        assert!(!AttrValue::Int(1).same_domain(&AttrValue::Str("1".into())));
        assert!(AttrValue::Int(1) < AttrValue::Int(2));
        assert!(AttrValue::Str("a".into()) < AttrValue::Str("b".into()));
    }

    #[test]
    fn value_display() {
        assert_eq!(AttrValue::Int(7).to_string(), "7");
        assert_eq!(AttrValue::Str("x".into()).to_string(), "\"x\"");
    }
}
