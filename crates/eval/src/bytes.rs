//! The byte layer under every persisted or transmitted format: the
//! wire and control frames, checkpoint frames, postmortem bundles, the
//! WAL, and the session snapshot codecs ([`crate::persist`] here,
//! `SessionSnapshot` in `bsml-core`).
//!
//! * [`seal`] / [`open`] are the one checksum framing: `seal` appends
//!   the FNV-1a of a suffix of the buffer as an 8-byte little-endian
//!   trailer, and `open` checks that trailer and strips it. Each
//!   format keeps its own length prefix and its own order of checks
//!   around them.
//! * [`ByteReader`] is the one bounds-checked reader, and
//!   [`CodecError`] the one decode error.
//! * [`MAX_DEPTH`] is the one nesting bound both value decoders obey.
//!
//! The reader is *total*: every method is bounds-checked and returns a
//! typed [`CodecError`] instead of panicking, whatever bytes it is
//! fed — the property the durability fault grids lean on. Counts are
//! validated against the bytes actually remaining, so a corrupted
//! length can never drive an attempted multi-gigabyte allocation.

use std::fmt;

/// Nesting bound of the value decoders (the message codec of
/// `bsml_bsp::wire` and [`crate::persist`]). A list's spine is read in
/// a loop, so list tails do not count towards it; every other nested
/// value, and every closure environment, does. The message encoder
/// refuses what its decoder would. Deep enough for any
/// value a session or a `put` realistically builds, shallow enough
/// that corrupt or hostile input cannot overflow a 2 MiB thread stack
/// even in debug builds, where a decoder frame runs to a few KiB.
pub const MAX_DEPTH: usize = 100;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: the checksum [`seal`] and [`open`] use,
/// and the name hash of program fingerprints and WAL file names.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Appends the FNV-1a of `out[from..]` as a little-endian `u64`
/// trailer.
///
/// # Panics
///
/// If `from > out.len()`.
pub fn seal(out: &mut Vec<u8>, from: usize) {
    let sum = fnv1a(&out[from..]);
    put_u64(out, sum);
}

/// Checks the 8-byte FNV-1a trailer [`seal`] wrote and returns the
/// bytes before it.
///
/// # Errors
///
/// [`CodecError::Truncated`] if there is no room for a trailer, and
/// [`CodecError::ChecksumMismatch`] if it does not match.
pub fn open(bytes: &[u8]) -> Result<&[u8], CodecError> {
    let split = bytes.len().checked_sub(8).ok_or(CodecError::Truncated)?;
    let (body, trailer) = bytes.split_at(split);
    if fnv1a(body).to_le_bytes() == trailer {
        Ok(body)
    } else {
        Err(CodecError::ChecksumMismatch)
    }
}

/// Why decoding failed. Decoders never panic on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the announced structure did.
    Truncated,
    /// An unknown tag byte for the structure being decoded.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A declared count exceeds what the remaining bytes could hold.
    BadCount,
    /// An embedded string is not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the announced structure ended.
    Trailing(usize),
    /// An embedded source fragment failed to re-parse.
    Unparsable(String),
    /// Nesting exceeded the decoder's depth bound (corrupt input could
    /// otherwise overflow the stack — a panic in disguise).
    TooDeep,
    /// A back-reference to a structure the input never defined.
    DanglingRef(u64),
    /// A length prefix disagrees with the actual byte count: a
    /// truncated tail or a corrupted prefix.
    LengthMismatch {
        /// Bytes the prefix claims follow it.
        claimed: u64,
        /// Bytes actually present after the prefix.
        actual: u64,
    },
    /// A checksum trailer does not match the bytes it covers.
    ChecksumMismatch,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input truncated"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadCount => f.write_str("declared count exceeds remaining bytes"),
            CodecError::BadUtf8 => f.write_str("embedded string is not UTF-8"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
            CodecError::Unparsable(what) => write!(f, "embedded source does not parse: {what}"),
            CodecError::TooDeep => f.write_str("nesting exceeds decoder depth bound"),
            CodecError::DanglingRef(id) => write!(f, "back-reference to undefined id {id}"),
            CodecError::LengthMismatch { claimed, actual } => {
                write!(f, "length prefix claims {claimed} byte(s), found {actual}")
            }
            CodecError::ChecksumMismatch => f.write_str("checksum mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends length-prefixed raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian reader. A clone reads on from the
/// same position independently.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Reads a `u64` count, validated against the remaining length so
    /// a corrupted count cannot drive a huge allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadCount`].
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::BadCount);
        }
        Ok(n as usize)
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads a length-prefixed string.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`], [`CodecError::BadCount`], or
    /// [`CodecError::BadUtf8`].
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads length-prefixed raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] or [`CodecError::BadCount`].
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.count()?;
        self.take(n)
    }

    /// Fails with [`CodecError::Trailing`] unless fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Trailing`].
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Trailing(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut out = Vec::new();
        put_u64(&mut out, 42);
        put_str(&mut out, "héllo");
        put_bytes(&mut out, &[1, 2, 3]);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_bad_counts_are_typed() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX); // absurd count
        let mut r = ByteReader::new(&out);
        assert_eq!(r.count(), Err(CodecError::BadCount));
        let mut r = ByteReader::new(&out[..3]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        let mut r = ByteReader::new(&[]);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn open_strips_what_seal_appended_and_catches_every_flip() {
        let mut out = vec![7u8, 7];
        put_str(&mut out, "framed");
        seal(&mut out, 2);
        assert_eq!(open(&out[2..]).unwrap(), &out[2..out.len() - 8]);
        for bit in 0..(out.len() - 2) * 8 {
            let mut bad = out[2..].to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(open(&bad), Err(CodecError::ChecksumMismatch), "bit {bit}");
        }
        for cut in 0..8 {
            assert_eq!(open(&out[2..2 + cut]), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn finish_reports_trailing_bytes() {
        let mut r = ByteReader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(CodecError::Trailing(2)));
        r.u8().unwrap();
        r.u8().unwrap();
        r.finish().unwrap();
    }
}
