//! The [`Decodable`] trait, the [`Reader`] cursor, and primitive impls.

use crate::error::DecodeError;
use crate::varint::read_compact_size;
use crate::MAX_DECODE_LEN;

/// A forward-only cursor over an input byte slice.
///
/// # Examples
///
/// ```
/// use lvq_codec::Reader;
///
/// # fn main() -> Result<(), lvq_codec::DecodeError> {
/// let mut reader = Reader::new(&[1, 2, 3]);
/// assert_eq!(reader.read_u8()?, 1);
/// assert_eq!(reader.remaining(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Number of bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes and returns the next byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if the input is exhausted.
    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.read_bytes(1)?[0])
    }

    /// Consumes the next `N` bytes as a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than `N` bytes remain.
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let bytes = self.read_bytes(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads a CompactSize length prefix, enforcing [`MAX_DECODE_LEN`].
    ///
    /// # Errors
    ///
    /// Propagates varint errors and returns [`DecodeError::LengthOverflow`]
    /// for oversized prefixes.
    pub fn read_len(&mut self) -> Result<usize, DecodeError> {
        let len = read_compact_size(self)?;
        if len > MAX_DECODE_LEN {
            return Err(DecodeError::LengthOverflow { claimed: len });
        }
        Ok(len as usize)
    }

    /// Reads a byte string written by [`encode_bytes`](crate::encode_bytes)
    /// (or by `Vec<u8>`'s [`Encodable`](crate::Encodable) impl) in one
    /// copy.
    ///
    /// # Errors
    ///
    /// Everything [`Reader::read_len`] returns, and
    /// [`DecodeError::UnexpectedEof`] when fewer bytes remain than the
    /// length prefix claims.
    pub fn read_byte_vec(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.read_len()?;
        Ok(self.read_bytes(len)?.to_vec())
    }

    /// Asserts that the whole input was consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] if unread bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// A type that can be decoded from the wire format written by
/// [`Encodable`](crate::Encodable).
pub trait Decodable: Sized {
    /// Decodes one value, advancing `reader` past its encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the input is truncated, non-canonical,
    /// or contains invalid values.
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Decodes a value and requires the input to be fully consumed.
///
/// # Errors
///
/// Propagates decoding errors and returns [`DecodeError::TrailingBytes`] if
/// the encoding does not span the entire input.
///
/// # Examples
///
/// ```
/// use lvq_codec::{decode_exact, Encodable};
///
/// # fn main() -> Result<(), lvq_codec::DecodeError> {
/// let n: u32 = decode_exact(&7u32.encode())?;
/// assert_eq!(n, 7);
/// # Ok(())
/// # }
/// ```
pub fn decode_exact<T: Decodable>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode_from(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

macro_rules! impl_decodable_int {
    ($($t:ty),*) => {$(
        impl Decodable for $t {
            fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(reader.read_array()?))
            }
        }
    )*};
}

impl_decodable_int!(u16, u32, u64, i64);

impl Decodable for u8 {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        reader.read_u8()
    }
}

impl Decodable for bool {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::InvalidValue {
                what: "bool",
                found: u64::from(other),
            }),
        }
    }
}

impl<const N: usize> Decodable for [u8; N] {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        reader.read_array()
    }
}

impl<T: Decodable> Decodable for Vec<T> {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = reader.read_len()?;
        // Cap the pre-allocation: `len` is attacker-controlled, and element
        // encodings are at least one byte, so anything larger than the
        // remaining input is certain to fail with EOF anyway.
        let mut out = Vec::with_capacity(len.min(reader.remaining()));
        for _ in 0..len {
            out.push(T::decode_from(reader)?);
        }
        Ok(out)
    }
}

impl Decodable for String {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        String::from_utf8(reader.read_byte_vec()?).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl<T: Decodable> Decodable for Option<T> {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(reader)?)),
            other => Err(DecodeError::InvalidValue {
                what: "option tag",
                found: u64::from(other),
            }),
        }
    }
}

impl<A: Decodable, B: Decodable> Decodable for (A, B) {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode_from(reader)?, B::decode_from(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encodable;
    use proptest::prelude::*;

    #[test]
    fn bool_rejects_other_bytes() {
        assert!(matches!(
            decode_exact::<bool>(&[2]),
            Err(DecodeError::InvalidValue { what: "bool", .. })
        ));
    }

    #[test]
    fn option_rejects_bad_tag() {
        assert!(matches!(
            decode_exact::<Option<u8>>(&[9, 0]),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        assert!(matches!(
            decode_exact::<u8>(&[1, 2]),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn huge_claimed_vec_fails_without_allocating() {
        let mut buf = Vec::new();
        crate::write_compact_size(&mut buf, u64::MAX);
        assert!(matches!(
            decode_exact::<Vec<u8>>(&buf),
            Err(DecodeError::LengthOverflow { .. })
        ));
        // A large-but-allowed claim still fails fast on EOF.
        let mut buf = Vec::new();
        crate::write_compact_size(&mut buf, 1_000_000);
        buf.push(0);
        assert!(matches!(
            decode_exact::<Vec<u8>>(&buf),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // length 1, byte 0xFF: invalid UTF-8.
        assert_eq!(
            decode_exact::<String>(&[1, 0xFF]),
            Err(DecodeError::InvalidUtf8)
        );
    }

    proptest! {
        #[test]
        fn roundtrip_u64(v: u64) {
            prop_assert_eq!(decode_exact::<u64>(&v.encode()).unwrap(), v);
        }

        #[test]
        fn roundtrip_vec_u32(v: Vec<u32>) {
            prop_assert_eq!(decode_exact::<Vec<u32>>(&v.encode()).unwrap(), v);
        }

        #[test]
        fn roundtrip_string(s: String) {
            prop_assert_eq!(decode_exact::<String>(&s.encode()).unwrap(), s);
        }

        #[test]
        fn roundtrip_nested(v: Vec<(u16, Option<String>)>) {
            let bytes = v.encode();
            prop_assert_eq!(bytes.len(), v.encoded_len());
            prop_assert_eq!(
                decode_exact::<Vec<(u16, Option<String>)>>(&bytes).unwrap(),
                v
            );
        }

        /// The bulk byte-string helpers are wire-identical to the generic
        /// `Vec<u8>` path and round-trip exactly; truncating the encoding
        /// anywhere is an error on both paths.
        #[test]
        fn bulk_bytes_match_generic_vec(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            cut: usize,
        ) {
            let generic = bytes.encode();
            let mut bulk = Vec::new();
            crate::encode_bytes(&bytes, &mut bulk);
            prop_assert_eq!(&bulk, &generic);
            prop_assert_eq!(crate::encoded_bytes_len(&bytes), generic.len());

            let mut reader = Reader::new(&bulk);
            prop_assert_eq!(reader.read_byte_vec().unwrap(), bytes);
            prop_assert!(reader.finish().is_ok());

            let short = &bulk[..cut % bulk.len()];
            prop_assert!(matches!(
                Reader::new(short).read_byte_vec(),
                Err(DecodeError::UnexpectedEof { .. })
            ));
            prop_assert!(decode_exact::<Vec<u8>>(short).is_err());
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes: Vec<u8>) {
            let _ = decode_exact::<Vec<String>>(&bytes);
            let _ = decode_exact::<Vec<(u64, bool)>>(&bytes);
        }
    }
}
