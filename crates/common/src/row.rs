//! Tuple (row) representation.

use crate::fingerprint::Fnv;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable tuple. Rows are shared between the table's version chains,
/// the transaction write sets and the log pipeline, so they are cheap to
/// clone (`Arc` of a boxed slice).
#[derive(Clone, PartialEq)]
pub struct Row {
    cols: Arc<[Value]>,
}

impl Row {
    /// Build a row from column values.
    pub fn new(cols: Vec<Value>) -> Self {
        Row { cols: cols.into() }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column accessor.
    #[inline]
    pub fn col(&self, i: usize) -> &Value {
        &self.cols[i]
    }

    /// All columns.
    #[inline]
    pub fn cols(&self) -> &[Value] {
        &self.cols
    }

    /// A copy of this row with column `i` replaced — the engine's
    /// read-modify-write primitive.
    pub fn with_col(&self, i: usize, v: Value) -> Row {
        let mut cols: Vec<Value> = self.cols.to_vec();
        cols[i] = v;
        Row::new(cols)
    }

    /// Mix this row into a fingerprint hasher.
    pub fn hash_into(&self, h: &mut Fnv) {
        h.write_u64(self.cols.len() as u64);
        for c in self.cols.iter() {
            c.hash_into(h);
        }
    }

    /// Rough serialized size in bytes; used by the logging cost model.
    pub fn byte_size(&self) -> usize {
        self.cols
            .iter()
            .map(|c| match c {
                Value::Int(_) | Value::Float(_) => 9,
                Value::Str(s) => 5 + s.len(),
            })
            .sum::<usize>()
            + 4
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.cols.iter()).finish()
    }
}

impl FromIterator<Value> for Row {
    /// An iterator of exactly known length (a range, a slice, a `Vec`)
    /// fills the shared slab directly, without an intermediate `Vec`.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row {
            cols: iter.into_iter().collect(),
        }
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    fn from(cols: [Value; N]) -> Self {
        Row::new(cols.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_col_replaces_a_single_column() {
        let r = Row::from([Value::Int(1), Value::str("a")]);
        let r2 = r.with_col(0, Value::Int(9));
        assert_eq!(r2.col(0), &Value::Int(9));
        assert_eq!(r2.col(1), &Value::str("a"));
        assert_eq!(r.col(0), &Value::Int(1), "original is immutable");
    }

    #[test]
    fn byte_size_counts_strings() {
        let r = Row::from([Value::Int(1), Value::str("abcd")]);
        assert_eq!(r.byte_size(), 4 + 9 + 5 + 4);
    }

    #[test]
    fn clone_is_shallow() {
        let r = Row::from([Value::str("shared")]);
        let r2 = r.clone();
        assert!(Arc::ptr_eq(&r.cols, &r2.cols));
    }
}
