//! Hand-rolled binary encoding for log records and checkpoints.
//!
//! The paper's measurements hinge on the *size* of what each logging scheme
//! writes, so the codec is explicit about bytes: little-endian fixed-width
//! integers, LEB128 varints for counts, and length-prefixed strings. It is
//! allocation-light (encodes into a caller-provided `Vec<u8>`) and has no
//! dependency on `serde` — deserialization of a multi-gigabyte log must not
//! dominate recovery time (Fig. 20 shows data loading staying lightweight).
//!
//! A value is a tag byte and its payload: `1` + 8-byte `i64`, `2` + 8-byte
//! `f64` bits, `3` + varint length + UTF-8 bytes. A row is a varint arity
//! followed by its values. Every byte that touches disk — log records,
//! checkpoint parts, ship frames — uses these encodings, and a [`Row`] in
//! memory holds its encoding verbatim (see [`crate::row`]): encoding a row
//! is one copy, and decoding one is [`walk_row`] — the same validating walk
//! the log's borrowed views delimit rows with ([`skip_row`]) — plus one
//! copy.

use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::Value;

/// Serialize `self` into `buf`.
pub trait Encoder {
    /// Append the binary form of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode(&mut buf);
        buf
    }
}

/// Deserialize `Self` from a byte cursor.
pub trait Decoder: Sized {
    /// Decode one value, advancing the cursor.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self>;
}

/// A byte cursor over a borrowed slice.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the slice.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unconsumed tail of the underlying slice (does not advance).
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Corrupt(format!(
                "need {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    #[inline]
    pub fn read_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.read_u8()?;
            if shift >= 64 {
                return Err(Error::Corrupt("varint overflow".into()));
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Read a length-prefixed byte slice.
    pub fn read_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.read_varint()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.read_bytes()?)
            .map_err(|_| Error::Corrupt("invalid utf-8 string".into()))
    }
}

/// Append a LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

/// Append a little-endian u32.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte slice.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

impl Encoder for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                buf.push(1);
                put_u64(buf, *i as u64);
            }
            Value::Float(f) => {
                buf.push(2);
                put_u64(buf, f.to_bits());
            }
            Value::Str(s) => {
                buf.push(3);
                put_bytes(buf, s.as_bytes());
            }
        }
    }
}

impl Decoder for Value {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        match cur.read_u8()? {
            1 => Ok(Value::Int(cur.read_u64()? as i64)),
            2 => Ok(Value::Float(f64::from_bits(cur.read_u64()?))),
            3 => Ok(Value::str(cur.read_str()?)),
            t => Err(Error::Corrupt(format!("bad value tag {t}"))),
        }
    }
}

impl Encoder for Row {
    /// One copy: the image holds the encoding.
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.body());
    }
}

/// Read a row's column count, refusing one the bytes left cannot hold
/// (every encoded value takes at least two bytes) before anything is
/// allocated for it. Shared by [`Row::decode`] and [`skip_row`], so both
/// reject the same inputs with the same error.
pub fn read_row_arity(cur: &mut Cursor<'_>) -> Result<usize> {
    let n = cur.read_varint()? as usize;
    if n > 1 << 20 || n > cur.remaining() {
        return Err(Error::Corrupt(format!("implausible row arity {n}")));
    }
    Ok(n)
}

/// Skip one encoded [`Value`], applying exactly the validation its owned
/// decode applies (tag byte, length prefix, UTF-8) without materializing.
pub fn skip_value(cur: &mut Cursor<'_>) -> Result<()> {
    match cur.read_u8()? {
        1 | 2 => {
            cur.read_u64()?;
        }
        3 => {
            cur.read_str()?;
        }
        t => return Err(Error::Corrupt(format!("bad value tag {t}"))),
    }
    Ok(())
}

/// Walk the `n` values of a row whose arity [`read_row_arity`] just read,
/// validating each, and call `at(i, position)` with the cursor position
/// of value `i`'s tag before it is read.
pub fn walk_row(cur: &mut Cursor<'_>, n: usize, mut at: impl FnMut(usize, usize)) -> Result<()> {
    for i in 0..n {
        at(i, cur.position());
        skip_value(cur)?;
    }
    Ok(())
}

/// Skip one encoded [`Row`], validating it exactly as [`Row::decode`] does.
pub fn skip_row(cur: &mut Cursor<'_>) -> Result<()> {
    let n = read_row_arity(cur)?;
    walk_row(cur, n, |_, _| {})
}

impl Decoder for Row {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        Row::decode_from(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encoder + Decoder + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let mut cur = Cursor::new(&bytes);
        let back = T::decode(&mut cur).expect("decode");
        assert!(cur.is_empty(), "trailing bytes");
        assert_eq!(&back, v);
    }

    #[test]
    fn value_roundtrips() {
        roundtrip(&Value::Int(-42));
        roundtrip(&Value::Float(3.25));
        roundtrip(&Value::str("hello world"));
        roundtrip(&Value::str(""));
    }

    #[test]
    fn row_roundtrips() {
        roundtrip(&Row::from([
            Value::Int(7),
            Value::str("x"),
            Value::Float(-0.5),
        ]));
        roundtrip(&Row::new(vec![]));
    }

    #[test]
    fn varint_edge_cases() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.read_varint().unwrap(), v);
            assert!(cur.is_empty());
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = Value::str("abcdef").to_bytes();
        for cut in 0..bytes.len() {
            let mut cur = Cursor::new(&bytes[..cut]);
            assert!(Value::decode(&mut cur).is_err());
        }
    }

    #[test]
    fn skip_row_accepts_exactly_what_decode_accepts() {
        let bytes = Row::from([Value::Int(1), Value::str("ab"), Value::Float(0.5)]).to_bytes();
        for cut in 0..=bytes.len() {
            let decoded = Row::decode(&mut Cursor::new(&bytes[..cut]));
            let mut cur = Cursor::new(&bytes[..cut]);
            assert_eq!(skip_row(&mut cur).is_ok(), decoded.is_ok(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[1] = 9; // the first value's tag
        assert!(Row::decode(&mut Cursor::new(&bad)).is_err());
        assert!(skip_row(&mut Cursor::new(&bad)).is_err());
    }

    #[test]
    fn bad_tag_is_rejected() {
        let mut cur = Cursor::new(&[9u8]);
        assert!(matches!(Value::decode(&mut cur), Err(Error::Corrupt(_))));
    }

    proptest! {
        #[test]
        fn prop_value_roundtrip(v in value_strategy()) {
            roundtrip(&v);
        }

        #[test]
        fn prop_row_roundtrip(cols in proptest::collection::vec(value_strategy(), 0..12)) {
            roundtrip(&Row::new(cols));
        }

        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            prop_assert_eq!(cur.read_varint().unwrap(), v);
        }
    }

    fn value_strategy() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>()
                .prop_filter("nan != nan", |f| !f.is_nan())
                .prop_map(Value::Float),
            ".{0,24}".prop_map(|s| Value::str(&s)),
        ]
    }
}
