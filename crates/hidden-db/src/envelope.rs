//! The one checksummed envelope every skyweb byte format is sealed in:
//! checkpoints and wire frames (`skyweb_core::codec`, magic `SWCK`) and
//! segment sections (`crate::segment`, magic `SWSG`).
//!
//! ```text
//! offset  size  field
//! 0       4     magic (per format)
//! 4       2     format version, u16 LE
//! 6       1     payload kind (per format)
//! 7       8     payload length, u64 LE
//! 15      n     payload
//! 15+n    8     FNV-1a 64 checksum of the payload, u64 LE
//! ```
//!
//! [`open`] validates every layer in order — magic, truncated header,
//! version, kind, exact length, checksum — before a single payload byte is
//! interpreted. Each format accepts exactly one version, its [`Format`]'s;
//! any other version is [`EnvelopeError::UnsupportedVersion`]. Payloads are
//! then walked with the bounds-checked [`Reader`], whose every read
//! surfaces [`EnvelopeError::Truncated`] instead of panicking.
//!
//! Everything here is `#[inline]`: the codec decode loops in
//! `skyweb-core` call these primitives across the crate boundary once per
//! field, and the release profile has no LTO.

use std::fmt;

/// Size of the fixed envelope header (magic + version + kind + length).
pub const HEADER_LEN: usize = 15;
/// Size of the trailing payload checksum.
pub const CHECKSUM_LEN: usize = 8;

/// The `(magic, version)` pair that identifies one envelope format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Magic bytes every envelope of the format starts with.
    pub magic: [u8; 4],
    /// The one format version written and accepted.
    pub version: u16,
}

/// Why an envelope (or a payload read) was rejected. Converts into each
/// format's public error enum, variant for variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The bytes end before the structure they claim to carry.
    Truncated,
    /// The bytes do not start with the format's magic.
    BadMagic,
    /// The envelope carries a version other than the format's.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The envelope carries a different payload kind than requested.
    WrongKind {
        /// The kind the caller asked to open.
        expected: u8,
        /// The kind found in the header.
        found: u8,
    },
    /// The payload checksum does not match: the bytes were corrupted.
    ChecksumMismatch,
    /// Bytes follow the checksum, or a payload was not consumed exactly.
    TrailingBytes,
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Truncated => write!(f, "envelope is truncated"),
            EnvelopeError::BadMagic => write!(f, "bad envelope magic"),
            EnvelopeError::UnsupportedVersion { found } => {
                write!(f, "unsupported envelope version {found}")
            }
            EnvelopeError::WrongKind { expected, found } => {
                write!(f, "wrong payload kind {found} (expected {expected})")
            }
            EnvelopeError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            EnvelopeError::TrailingBytes => write!(f, "trailing bytes after the payload"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// FNV-1a 64-bit hash of `bytes` — the envelope's corruption detector.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues the FNV-1a 64-bit hash `h` over `bytes`, so a hash can be fed
/// in pieces: `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
#[inline]
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Widens a `usize` to `u64` without an `as` cast (lint L2 bans bare
/// casts on wire paths), saturating; infallible on supported targets.
#[inline]
pub fn u64_of(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Little-endian `u64` from the first 8 bytes of `b`, zero-padded when
/// shorter. Callers always slice exactly 8 bytes; the zero pad replaces
/// the `try_into().expect(...)` panic path that lint L1 bans.
#[inline]
pub fn le_u64(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    for (d, s) in buf.iter_mut().zip(b) {
        *d = *s;
    }
    u64::from_le_bytes(buf)
}

/// Little-endian `u32` from the first 4 bytes of `b` (see [`le_u64`]).
#[inline]
pub fn le_u32(b: &[u8]) -> u32 {
    let mut buf = [0u8; 4];
    for (d, s) in buf.iter_mut().zip(b) {
        *d = *s;
    }
    u32::from_le_bytes(buf)
}

/// Appends `payload` to `out`, sealed in a `format` envelope of `kind`.
#[inline]
pub fn seal(format: Format, kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&format.magic);
    out.extend_from_slice(&format.version.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&u64_of(payload.len()).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// Validates the fixed 15-byte header (magic and version) and returns
/// `(kind, payload length claim)` — without touching, or even requiring,
/// the payload bytes.
///
/// Stream transports use this to vet a frame *before* reading it: the
/// length claim is untrusted, so it is returned unvalidated for the caller
/// to check against its own frame cap; [`open`] later enforces exact length
/// and checksum on the full buffer.
#[inline]
pub fn parse_header(format: Format, header: &[u8]) -> Result<(u8, u64), EnvelopeError> {
    if header.len() < 4 {
        return Err(EnvelopeError::Truncated);
    }
    if header[..4] != format.magic {
        return Err(EnvelopeError::BadMagic);
    }
    if header.len() < HEADER_LEN {
        return Err(EnvelopeError::Truncated);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != format.version {
        return Err(EnvelopeError::UnsupportedVersion { found: version });
    }
    Ok((header[6], le_u64(&header[7..15])))
}

/// Validates a whole `format` envelope of kind `expected_kind` and returns
/// its payload slice.
#[inline]
pub fn open(format: Format, bytes: &[u8], expected_kind: u8) -> Result<&[u8], EnvelopeError> {
    let (kind, len) = parse_header(format, bytes)?;
    if kind != expected_kind {
        return Err(EnvelopeError::WrongKind {
            expected: expected_kind,
            found: kind,
        });
    }
    let Some(total) = usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_add(HEADER_LEN + CHECKSUM_LEN))
    else {
        return Err(EnvelopeError::Truncated);
    };
    if bytes.len() < total {
        return Err(EnvelopeError::Truncated);
    }
    if bytes.len() > total {
        return Err(EnvelopeError::TrailingBytes);
    }
    let payload = &bytes[HEADER_LEN..total - CHECKSUM_LEN];
    if fnv1a64(payload) != le_u64(&bytes[total - CHECKSUM_LEN..]) {
        return Err(EnvelopeError::ChecksumMismatch);
    }
    Ok(payload)
}

/// A bounds-checked cursor over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], EnvelopeError> {
        let end = self.pos.checked_add(n).ok_or(EnvelopeError::Truncated)?;
        if end > self.buf.len() {
            return Err(EnvelopeError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, EnvelopeError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, EnvelopeError> {
        Ok(le_u32(self.take(4)?))
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, EnvelopeError> {
        Ok(le_u64(self.take(8)?))
    }

    /// The next little-endian `u64` as a `usize`; a value that does not fit
    /// is [`EnvelopeError::Truncated`] (no buffer could hold that much).
    #[inline]
    pub fn usize(&mut self) -> Result<usize, EnvelopeError> {
        usize::try_from(self.u64()?).map_err(|_| EnvelopeError::Truncated)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts that the payload was consumed exactly.
    #[inline]
    pub fn finish(&self) -> Result<(), EnvelopeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(EnvelopeError::TrailingBytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWCK: Format = Format {
        magic: *b"SWCK",
        version: 1,
    };
    const SWSG: Format = Format {
        magic: *b"SWSG",
        version: 2,
    };

    /// The published FNV-1a 64 vectors, and a hash fed in pieces equals
    /// the hash of the whole.
    #[test]
    fn fnv1a64_matches_the_reference_and_extends_piecewise() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        for cut in 0..=6 {
            let (a, b) = b"foobar".split_at(cut);
            assert_eq!(fnv1a64_extend(fnv1a64(a), b), fnv1a64(b"foobar"));
        }
    }

    /// Every corruption class, under each format's own magic and version:
    /// each is rejected, and each with the variant its layer owns.
    #[test]
    fn every_corruption_class_is_rejected_under_both_formats() {
        let kind = 7u8;
        for (format, other) in [(SWCK, SWSG), (SWSG, SWCK)] {
            let mut sealed = Vec::new();
            seal(format, kind, b"payload", &mut sealed);
            assert_eq!(open(format, &sealed, kind), Ok(&b"payload"[..]));

            for cut in 0..sealed.len() {
                assert_eq!(
                    open(format, &sealed[..cut], kind),
                    Err(EnvelopeError::Truncated),
                    "cut {cut}"
                );
            }
            assert_eq!(
                open(other, &sealed, kind),
                Err(EnvelopeError::BadMagic),
                "foreign magic"
            );
            for found in [format.version - 1, format.version + 1] {
                let mut bad = sealed.clone();
                bad[4..6].copy_from_slice(&found.to_le_bytes());
                assert_eq!(
                    open(format, &bad, kind),
                    Err(EnvelopeError::UnsupportedVersion { found })
                );
            }
            assert_eq!(
                open(format, &sealed, kind + 1),
                Err(EnvelopeError::WrongKind {
                    expected: kind + 1,
                    found: kind
                })
            );
            for bit in HEADER_LEN * 8..sealed.len() * 8 {
                let mut bad = sealed.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    open(format, &bad, kind),
                    Err(EnvelopeError::ChecksumMismatch),
                    "flip of bit {bit}"
                );
            }
            let mut trailing = sealed.clone();
            trailing.push(0);
            assert_eq!(
                open(format, &trailing, kind),
                Err(EnvelopeError::TrailingBytes)
            );
        }
    }
}
