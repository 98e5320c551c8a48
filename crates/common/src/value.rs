//! Dynamically-typed column values.
//!
//! The engine is schema-light: a row is a sequence of [`Value`]s, stored
//! as one immutable byte image ([`crate::Row`]). A string value is a
//! [`SharedStr`]: a view of bytes inside a shared buffer, so reading a
//! string column out of a row image is a reference-count bump on the image,
//! not an allocation.

use std::fmt;
use std::sync::Arc;

/// A single column value (at most 32 bytes).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// 64-bit signed integer (also used for counts and identifiers).
    Int(i64),
    /// 64-bit float (balances, amounts).
    Float(f64),
    /// Immutable shared string.
    Str(SharedStr),
}

/// An immutable UTF-8 string held as a window into a shared byte buffer:
/// its own allocation ([`Value::str`]) or the image of the row it was read
/// from ([`crate::Row::col`]). Cloning is a reference-count bump.
#[derive(Clone)]
pub struct SharedStr {
    buf: Arc<[u8]>,
    start: u32,
    len: u32,
}

impl SharedStr {
    /// Copy `s` into a buffer of its own.
    pub(crate) fn new(s: &str) -> Self {
        SharedStr::view(Arc::from(s.as_bytes()), 0, s.len())
    }

    /// The `len` bytes at `start` of `buf`, which the caller has validated
    /// as UTF-8 (a row image's bytes are validated when the image is built).
    pub(crate) fn view(buf: Arc<[u8]>, start: usize, len: usize) -> Self {
        debug_assert!(std::str::from_utf8(&buf[start..start + len]).is_ok());
        SharedStr {
            buf,
            start: u32::try_from(start).expect("string offset fits in u32"),
            len: u32::try_from(len).expect("string length fits in u32"),
        }
    }

    /// The string's bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start as usize..(self.start + self.len) as usize]
    }

    /// The string. Its bytes were validated as UTF-8 on the way in; this
    /// checks them again rather than trust that without `unsafe`.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("SharedStr holds UTF-8")
    }
}

impl PartialEq for SharedStr {
    fn eq(&self, other: &SharedStr) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Value {
    /// Construct a string value.
    pub fn str(s: &str) -> Self {
        Value::Str(SharedStr::new(s))
    }

    /// The integer content, if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float content; integers coerce losslessly-enough for workloads.
    #[inline]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string content, if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Numeric addition following the coercion rules of the procedure
    /// interpreter: `Int + Int = Int`, anything involving a float is a float.
    pub fn add(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            _ => Value::Float(self.as_float().unwrap_or(0.0) + other.as_float().unwrap_or(0.0)),
        }
    }

    /// Numeric subtraction with the same coercion rules as [`Value::add`].
    pub fn sub(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            _ => Value::Float(self.as_float().unwrap_or(0.0) - other.as_float().unwrap_or(0.0)),
        }
    }

    /// Numeric multiplication with the same coercion rules as [`Value::add`].
    pub fn mul(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            _ => Value::Float(self.as_float().unwrap_or(0.0) * other.as_float().unwrap_or(0.0)),
        }
    }

    /// Whether the value is "truthy" for control guards: non-zero numbers and
    /// non-`"NULL"` strings.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.as_bytes().is_empty() && s.as_bytes() != b"NULL",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:.4}"),
            Value::Str(s) => write!(f, "{:?}", s.as_str()),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_coercion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).sub(&Value::Int(3)), Value::Int(-1));
        assert_eq!(Value::Int(2).mul(&Value::Int(3)), Value::Int(6));
        match Value::Int(2).add(&Value::Float(0.5)) {
            Value::Float(f) => assert!((f - 2.5).abs() < 1e-12),
            v => panic!("expected float, got {v:?}"),
        }
    }

    #[test]
    fn truthiness_matches_paper_null_convention() {
        // The bank-transfer example guards on `dst != "NULL"`.
        assert!(!Value::str("NULL").truthy());
        assert!(Value::str("Bob").truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(7).truthy());
        assert!(!Value::str("").truthy());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn a_value_is_at_most_32_bytes() {
        assert!(std::mem::size_of::<Value>() <= 32);
    }

    #[test]
    fn strings_compare_by_content_not_by_buffer() {
        let row = crate::Row::from([Value::Int(1), Value::str("abc")]);
        let view = row.col(1);
        assert_eq!(view, Value::str("abc"));
        assert_ne!(view, Value::str("abd"));
        assert_eq!(view.as_str(), Some("abc"));
        assert_eq!(format!("{view}"), "\"abc\"");
    }

    #[test]
    fn wrapping_add_does_not_panic() {
        let v = Value::Int(i64::MAX).add(&Value::Int(1));
        assert_eq!(v, Value::Int(i64::MIN));
    }
}
