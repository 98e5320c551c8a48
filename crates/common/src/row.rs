//! Tuple (row) representation: one immutable byte image.
//!
//! A [`Row`] is a single `Arc<[u8]>` allocation laid out as
//!
//! ```text
//! [arity: u32][offset of column 0: u32] … [offset of column n-1: u32][body]
//! ```
//!
//! (little-endian) where `body` is the row's wire encoding — a varint
//! arity, then one tagged value per column (see [`crate::codec`]) — and
//! each offset is the position of its column's tag within the body. The
//! image *is* what every disk path writes: encoding a row is one copy of
//! the body, decoding one is the validating walk that fills the offsets
//! plus one copy. Reading a column decodes it in place; a string column
//! comes back as a [`crate::value::SharedStr`] view of the image, a
//! reference-count bump rather than an allocation.
//!
//! Rows are shared between the table's version chains, the transaction
//! write sets and the log pipeline, and never change once built (Larson et
//! al.'s immutable versions), so a clone is a reference-count bump.

use crate::codec::{put_varint, read_row_arity, walk_row, Cursor, Encoder};
use crate::error::Result;
use crate::fingerprint::Fnv;
use crate::value::{SharedStr, Value};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// An immutable tuple image (see the module docs for the layout).
#[derive(Clone)]
pub struct Row {
    img: Arc<[u8]>,
}

thread_local! {
    /// Where an image is composed before its one allocation is made.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn u32_at(img: &[u8], at: usize) -> usize {
    u32::from_le_bytes(img[at..at + 4].try_into().expect("4 bytes")) as usize
}

#[inline]
fn u64_at(img: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(img[at..at + 8].try_into().expect("8 bytes"))
}

/// Compose an image of `arity` columns: `body` appends the body to the
/// buffer, whose header it fills with [`set_offset`]. One allocation, the
/// image itself (the buffer is a reused per-thread scratch).
fn build(arity: usize, body: impl FnOnce(&mut Vec<u8>)) -> Row {
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        buf.resize(4 + 4 * arity, 0);
        let arity32 = u32::try_from(arity).expect("row arity fits in u32");
        buf[..4].copy_from_slice(&arity32.to_le_bytes());
        body(buf);
        Row {
            img: Arc::from(&buf[..]),
        }
    })
}

/// Record that column `col` starts `off` bytes into the body.
#[inline]
fn set_offset(buf: &mut [u8], col: usize, off: usize) {
    let off = u32::try_from(off).expect("row image fits in u32");
    buf[4 + 4 * col..8 + 4 * col].copy_from_slice(&off.to_le_bytes());
}

impl Row {
    /// Build a row from column values.
    pub fn new(cols: Vec<Value>) -> Self {
        Row::from_values(&cols)
    }

    /// Build a row from column values: one allocation, the image.
    pub fn from_values(cols: &[Value]) -> Self {
        build(cols.len(), |buf| {
            let start = buf.len();
            put_varint(buf, cols.len() as u64);
            for (i, c) in cols.iter().enumerate() {
                let off = buf.len() - start;
                set_offset(buf, i, off);
                c.encode(buf);
            }
        })
    }

    /// Decode one encoded row from `cur`: the validating walk, which also
    /// records each column's offset, then one copy of the walked bytes.
    pub(crate) fn decode_from(cur: &mut Cursor<'_>) -> Result<Self> {
        let body = cur.rest();
        let start = cur.position();
        let n = read_row_arity(cur)?;
        let mut err = None;
        let row = build(n, |buf| {
            match walk_row(cur, n, |i, at| set_offset(buf, i, at - start)) {
                Ok(()) => buf.extend_from_slice(&body[..cur.position() - start]),
                Err(e) => err = Some(e),
            }
        });
        err.map_or(Ok(row), Err)
    }

    /// Build a row from bytes a validating walk has already accepted
    /// ([`crate::codec::skip_row`], inside a log record's parse), advancing
    /// `cur` past it. The column offsets are filled by reading tags and
    /// lengths only: no string is checked for UTF-8 a second time. The
    /// result equals what [`Row::decode`] returns for the same bytes.
    ///
    /// # Panics
    /// If the bytes are not an encoded row, which means they were never
    /// validated (a bug in the caller).
    pub fn from_validated(cur: &mut Cursor<'_>) -> Row {
        const VALID: &str = "row validated before from_validated";
        let body = cur.rest();
        let start = cur.position();
        let n = cur.read_varint().expect(VALID) as usize;
        build(n, |buf| {
            for i in 0..n {
                set_offset(buf, i, cur.position() - start);
                match cur.read_u8().expect(VALID) {
                    1 | 2 => {
                        cur.read_u64().expect(VALID);
                    }
                    3 => {
                        let s = cur.read_bytes().expect(VALID);
                        debug_assert!(std::str::from_utf8(s).is_ok(), "{VALID}");
                    }
                    t => panic!("{VALID}: bad value tag {t}"),
                }
            }
            buf.extend_from_slice(&body[..cur.position() - start]);
        })
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        u32_at(&self.img, 0)
    }

    #[inline]
    fn body_start(&self) -> usize {
        4 + 4 * self.arity()
    }

    /// The wire encoding: what [`Encoder::encode`] appends, byte for byte.
    #[inline]
    pub fn body(&self) -> &[u8] {
        &self.img[self.body_start()..]
    }

    /// Column `i`, or `None` past the last column. Numbers are read out of
    /// the image; a string is a view of it.
    pub fn get(&self, i: usize) -> Option<Value> {
        if i >= self.arity() {
            return None;
        }
        let at = self.body_start() + u32_at(&self.img, 4 + 4 * i);
        let img = &self.img;
        Some(match img[at] {
            1 => Value::Int(u64_at(img, at + 1) as i64),
            2 => Value::Float(f64::from_bits(u64_at(img, at + 1))),
            _ => {
                let mut cur = Cursor::new(&img[at + 1..]);
                let len = cur.read_varint().expect("validated image") as usize;
                let start = at + 1 + cur.position();
                Value::Str(SharedStr::view(Arc::clone(img), start, len))
            }
        })
    }

    /// Column accessor.
    ///
    /// # Panics
    /// If `i` is not a column of this row.
    #[inline]
    pub fn col(&self, i: usize) -> Value {
        self.get(i)
            .unwrap_or_else(|| panic!("column {i} of a {}-column row", self.arity()))
    }

    /// Every column, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Value> + '_ {
        (0..self.arity()).map(|i| self.col(i))
    }

    /// A copy of this row with column `i` replaced — the engine's
    /// read-modify-write primitive.
    pub fn with_col(&self, i: usize, v: Value) -> Row {
        let mut cols: Vec<Value> = self.iter().collect();
        cols[i] = v;
        Row::new(cols)
    }

    /// Mix this row into a fingerprint hasher: its wire bytes, which
    /// determine every column (floats by bit pattern).
    pub fn hash_into(&self, h: &mut Fnv) {
        h.write_bytes(self.body());
    }

    /// Serialized size in bytes: exactly what [`Encoder::encode`] appends.
    pub fn byte_size(&self) -> usize {
        self.img.len() - self.body_start()
    }

    /// Whether two rows share one image (not merely equal bytes).
    pub fn ptr_eq(a: &Row, b: &Row) -> bool {
        Arc::ptr_eq(&a.img, &b.img)
    }

    /// Address of the image, for identity checks without a reference.
    #[inline]
    pub fn as_ptr(&self) -> *const u8 {
        self.img.as_ptr()
    }

    /// Give up this reference to the image as a raw `(pointer, length)`
    /// pair (the tuple chain's newest slot publishes the two halves).
    #[inline]
    pub fn into_raw(self) -> *const [u8] {
        Arc::into_raw(self.img)
    }

    /// Take back a reference given up by [`Row::into_raw`].
    ///
    /// # Safety
    /// `raw` must be exactly a pointer [`Row::into_raw`] returned, and
    /// this call takes over the reference that call gave up: it may be
    /// made once per `into_raw` (or on a reference the caller holds
    /// otherwise, if the result is never dropped — see `ManuallyDrop`).
    #[inline]
    pub unsafe fn from_raw(raw: *const [u8]) -> Row {
        Row {
            // SAFETY: forwarded to the caller (see above).
            img: unsafe { Arc::from_raw(raw) },
        }
    }
}

impl PartialEq for Row {
    /// Byte equality of the encodings: the same columns with the same
    /// types, floats compared by bit pattern.
    fn eq(&self, other: &Row) -> bool {
        self.body() == other.body()
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row::new(iter.into_iter().collect())
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    fn from(cols: [Value; N]) -> Self {
        Row::from_values(&cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Decoder;

    #[test]
    fn with_col_replaces_a_single_column() {
        let r = Row::from([Value::Int(1), Value::str("a")]);
        let r2 = r.with_col(0, Value::Int(9));
        assert_eq!(r2.col(0), Value::Int(9));
        assert_eq!(r2.col(1), Value::str("a"));
        assert_eq!(r.col(0), Value::Int(1), "original is immutable");
    }

    #[test]
    fn byte_size_is_the_encoded_length() {
        let rows = [
            Row::new(vec![]),
            Row::from([Value::Int(1), Value::str("abcd")]),
            Row::from([Value::Float(-0.5), Value::str(&"x".repeat(300))]),
            (0..200).map(Value::Int).collect(),
        ];
        for r in rows {
            assert_eq!(r.byte_size(), r.to_bytes().len(), "{r:?}");
            assert_eq!(r.body(), &r.to_bytes()[..]);
        }
    }

    #[test]
    fn clone_is_shallow_and_strings_view_the_image() {
        let r = Row::from([Value::str("shared")]);
        let r2 = r.clone();
        assert!(Row::ptr_eq(&r, &r2));
        let Value::Str(s) = r.col(0) else {
            panic!("a string column")
        };
        let img = r.as_ptr() as usize;
        let at = s.as_bytes().as_ptr() as usize;
        assert!(
            (img..img + 64).contains(&at),
            "the string is inside the image"
        );
    }

    #[test]
    fn columns_read_back_and_past_the_end_is_none() {
        let cols = vec![
            Value::Int(-7),
            Value::str(""),
            Value::Float(2.5),
            Value::str("héllo"),
        ];
        let r = Row::new(cols.clone());
        assert_eq!(r.arity(), 4);
        assert_eq!(r.iter().collect::<Vec<_>>(), cols);
        assert_eq!(r.get(4), None);
    }

    #[test]
    fn decoded_images_equal_built_ones() {
        let r = Row::from([Value::Int(3), Value::str("abc"), Value::Float(1.0)]);
        let bytes = r.to_bytes();
        let back = Row::decode(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            r.iter().collect::<Vec<_>>()
        );
        // A decode error leaves no half-built row behind.
        assert!(Row::decode(&mut Cursor::new(&bytes[..bytes.len() - 1])).is_err());
    }

    #[test]
    fn validated_images_equal_decoded_ones() {
        let rows = [
            Row::new(vec![]),
            Row::from([Value::Int(-3), Value::str("héllo"), Value::Float(1.5)]),
            Row::from([Value::str(""), Value::str(&"y".repeat(200))]),
        ];
        let mut stream = Vec::new();
        for r in &rows {
            r.encode(&mut stream);
        }
        let mut cur = Cursor::new(&stream);
        for r in &rows {
            let back = Row::from_validated(&mut cur);
            assert_eq!(back, *r);
            assert_eq!(
                back.iter().collect::<Vec<_>>(),
                r.iter().collect::<Vec<_>>()
            );
        }
        assert!(cur.is_empty(), "each row consumed exactly its bytes");
    }

    #[test]
    fn raw_round_trip_keeps_the_image() {
        let r = Row::from([Value::Int(5), Value::str("raw")]);
        let keep = r.clone();
        let raw = r.into_raw();
        // SAFETY: `raw` came from `into_raw` just above, taken back once.
        let back = unsafe { Row::from_raw(raw) };
        assert!(Row::ptr_eq(&back, &keep));
        assert_eq!(back, keep);
    }
}
