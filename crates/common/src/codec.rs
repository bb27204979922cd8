//! The byte codec of values: what the wire protocol sends and the
//! write-ahead log stores, so "how a value is bytes" is decided here once.
//!
//! Integers are little-endian and unsigned on the byte level; a string is
//! `u32 length | UTF-8 bytes`; a list of values is `u32 count | value*`. A
//! value is a tag byte followed by its data:
//!
//! | tag | value | data |
//! |-----|-------|------|
//! | `0` | `NULL` | none |
//! | `1` | [`Value::Int`] | `u64` (the `i64`'s two's complement) |
//! | `2` | [`Value::Float`] | `u64` (the `f64`'s IEEE-754 bits) |
//! | `3` | [`Value::Text`] | string |
//! | `4` | [`Value::Bool`] | `u8`, non-zero = true |
//! | `5` | [`Value::Date`] | `u64` (the day number's two's complement) |
//!
//! [`Cursor`] reads the same forms back, bounds-checked: a short or
//! malformed input is an `Err`, never a panic, and no read allocates more
//! than the bytes in front of it justify (a list's declared count reserves
//! at most 4 096 values).

use crate::{Error, Result, Value};

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a string: its byte length as a `u32`, then its bytes.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends the tagged encoding of one [`Value`].
#[inline]
pub fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => put_u8(buf, 0),
        Value::Int(v) => {
            put_u8(buf, 1);
            put_u64(buf, *v as u64);
        }
        Value::Float(v) => {
            put_u8(buf, 2);
            put_u64(buf, v.to_bits());
        }
        Value::Text(s) => {
            put_u8(buf, 3);
            put_string(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, 4);
            put_u8(buf, *b as u8);
        }
        Value::Date(v) => {
            put_u8(buf, 5);
            put_u64(buf, *v as u64);
        }
    }
}

/// Appends a list of values: their count as a `u32`, then each value.
pub fn put_values<'a>(buf: &mut Vec<u8>, values: impl ExactSizeIterator<Item = &'a Value>) {
    put_u32(buf, values.len() as u32);
    for v in values {
        encode_value(buf, v);
    }
}

/// The error of a malformed input.
pub fn malformed(msg: impl Into<String>) -> Error {
    Error::Io(format!("malformed frame: {}", msg.into()))
}

/// A bounds-checked reader over the encoded forms of this module.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.buf.len() - self.pos {
            return Err(malformed("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a string; bytes that are not UTF-8 are an error.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8"))
    }

    /// Reads one tagged value.
    #[inline]
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.u64()? as i64),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => Value::text(self.string()?),
            4 => Value::Bool(self.u8()? != 0),
            5 => Value::Date(self.u64()? as i64),
            other => return Err(malformed(format!("bad value tag {other}"))),
        })
    }

    /// Reads a list of values.
    pub fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    /// Succeeds only when every byte has been read.
    pub fn done(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(malformed("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value reads back as it was written — NaN's bits, the empty
    /// string and text with any byte in it included — and a cut anywhere
    /// is an error.
    #[test]
    fn values_round_trip_and_a_cut_is_an_error() {
        let values = [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Date(15000),
            Value::text("with)paren,and:colon; and space é"),
            Value::text(""),
        ];
        let mut buf = Vec::new();
        put_values(&mut buf, values.iter());
        let mut c = Cursor::new(&buf);
        let back = c.values().unwrap();
        c.done().unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(a.cmp(b), std::cmp::Ordering::Equal, "{a:?} / {b:?}");
        }
        for cut in 0..buf.len() {
            assert!(Cursor::new(&buf[..cut]).values().is_err(), "cut at {cut}");
        }
    }
}
