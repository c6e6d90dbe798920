//! Persistent columnar segments: the on-disk form of a [`crate::HiddenDb`].
//!
//! Everything the indexed engine precomputes in RAM — the rank permutation,
//! its inverse, the rank-ordered columnar values with per-64-rank-block zone
//! maps, and the per-attribute posting lists with prefix counts — is built
//! once by [`SegmentWriter`] and persisted as independently checksummed
//! *sections*, so [`SegmentReader`] can serve queries straight off the file:
//!
//! * **Cold open is O(footer + eagerly-validated metadata)**, not O(n): the
//!   reader loads the fixed-size trailer, the footer (schema, ranker name,
//!   section directory), the zone maps and the posting prefix counts — a
//!   few hundred KB even at n = 10M — and nothing else.
//! * **Everything bulky hydrates lazily, per chunk.** Column values, the
//!   permutation, posting orders, tuple ids and the `Arc<Tuple>`s behind
//!   query responses materialize only when a query first touches their
//!   chunk (4096 values by default), decoded at the narrowest integer
//!   width that holds them, and stay in one clock cache until evicted
//!   (never, without a cache budget). A query pins the chunks it reads
//!   for its duration and hydrates response tuples one at a time from the
//!   pinned id and column chunks. `Ranker::precompute` never runs on the
//!   load path.
//! * **Every byte is covered by a checksum.** Each section carries the
//!   shared [`crate::envelope`] (magic + version + kind + length + FNV-1a 64
//!   checksum) under the segment's own magic; the
//!   directory is covered by the footer's envelope, and the trailer
//!   checksums itself. [`SegmentReader::verify`] performs the full O(file)
//!   scrub — every truncation and every single-bit flip of a segment is
//!   rejected with a typed [`SegmentError`], never a panic or a silent
//!   mis-read (pinned by the corruption battery in
//!   `tests/proptest_segment.rs`).
//!
//! Values are compressed with frame-of-reference + bit-packing: each block
//! of values stores its minimum and the per-value deltas at the smallest
//! sufficient bit width, which compresses both low-cardinality attribute
//! columns and the near-sequential tuple-id column well. The full layout is
//! specified in `docs/segment-format.md`.
//!
//! File access goes through one [`BlockSource`] trait with two shipped
//! implementations — positioned reads against a [`std::fs::File`]
//! ([`FileSource`]) and an in-memory byte buffer ([`MemSource`]) so tests
//! and the corruption battery run without touching a filesystem. A
//! memory-mapped source can slot in behind the same trait without touching
//! the reader (this crate forbids `unsafe`, so mmap itself stays out).

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::conc::ClockCacheCore;
use crate::envelope::{self, fnv1a64, le_u64, EnvelopeError, Format, Reader};
use crate::index::BLOCK;
use crate::sync::StdSync;
use crate::{AttributeRole, AttributeSpec, HiddenDb, InterfaceType, Schema, Tuple, Value};

/// Audited numeric conversions for the wire paths.
///
/// `skyweb-check lint` (L2) bans bare `as` integer casts in this file:
/// a lossy cast on an encode or decode path is a data-corruption bug, not
/// a style nit. Every conversion funnels through these helpers instead.
/// Each helper is byte-identical to the truncating `as` cast it replaces
/// — it zero-extends the source to `u128`, masks to the target width and
/// converts with `try_from`, so the truncation points are all in one
/// reviewable place and no `as` appears on the wire paths. The `usize`
/// helpers assume the 64-bit targets this crate supports.
mod cast {
    /// Unsigned sources accepted by the audited casts.
    pub(super) trait Word: Copy {
        /// Zero-extends to `u128`.
        fn wide(self) -> u128;
    }
    impl Word for u8 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u16 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u32 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u64 {
        #[inline]
        fn wide(self) -> u128 {
            u128::from(self)
        }
    }
    impl Word for u128 {
        #[inline]
        fn wide(self) -> u128 {
            self
        }
    }
    impl Word for usize {
        #[inline]
        fn wide(self) -> u128 {
            // Infallible: usize is at most 64 bits on supported targets.
            u128::try_from(self).unwrap_or(u128::MAX)
        }
    }

    /// Truncates to the low 8 bits, exactly like `v as u8`.
    #[inline]
    pub(super) fn to_u8<W: Word>(v: W) -> u8 {
        u8::try_from(v.wide() & u128::from(u8::MAX)).unwrap_or(u8::MAX)
    }

    /// Truncates to the low 16 bits, exactly like `v as u16`.
    #[inline]
    pub(super) fn to_u16<W: Word>(v: W) -> u16 {
        u16::try_from(v.wide() & u128::from(u16::MAX)).unwrap_or(u16::MAX)
    }

    /// Truncates to the low 32 bits, exactly like `v as u32`.
    #[inline]
    pub(super) fn to_u32<W: Word>(v: W) -> u32 {
        u32::try_from(v.wide() & u128::from(u32::MAX)).unwrap_or(u32::MAX)
    }

    /// Truncates to the low 64 bits, exactly like `v as u64`.
    #[inline]
    pub(super) fn to_u64<W: Word>(v: W) -> u64 {
        u64::try_from(v.wide() & u128::from(u64::MAX)).unwrap_or(u64::MAX)
    }

    /// Truncates to the low 64 bits and converts to `usize`, exactly like
    /// `v as usize` on the 64-bit targets this crate supports.
    #[inline]
    pub(super) fn to_usize<W: Word>(v: W) -> usize {
        usize::try_from(v.wide() & u128::from(u64::MAX)).unwrap_or(usize::MAX)
    }
}

/// Magic bytes every segment section starts with (`b"SWSG"`).
pub const SEGMENT_MAGIC: [u8; 4] = *b"SWSG";

/// Magic bytes of the fixed-size trailer at the end of the file.
pub const TRAILER_MAGIC: [u8; 8] = *b"SWSGTAIL";

/// The segment format version this build writes and the only one it reads
/// (per-chunk codec tags with min/max headers); a section of any other
/// version is rejected with [`SegmentError::UnsupportedVersion`].
pub const SEGMENT_VERSION: u16 = 2;

/// The segment's envelope format: [`SEGMENT_MAGIC`] at [`SEGMENT_VERSION`].
const ENVELOPE: Format = Format {
    magic: SEGMENT_MAGIC,
    version: SEGMENT_VERSION,
};

/// Number of values per lazily-hydrated chunk (a multiple of the zone-map
/// block size, so one zone block never spans two chunks).
pub const DEFAULT_CHUNK: usize = 4096;

/// Size of the fixed trailer: magic (8) + footer offset (8) + footer length
/// (8) + FNV-1a 64 checksum of the preceding 24 bytes (8).
pub const TRAILER_LEN: usize = 32;

/// Section kind: the footer (meta + directory).
const KIND_FOOTER: u8 = 1;
/// Section kind: zone maps (per-attribute per-block min/max), eager.
const KIND_ZONES: u8 = 2;
/// Section kind: one attribute's posting prefix counts, eager.
const KIND_STARTS: u8 = 3;
/// Section kind: one chunk of the rank permutation.
const KIND_PERM: u8 = 4;
/// Section kind: one chunk of the inverse permutation (store idx → rank).
const KIND_RANK_OF: u8 = 5;
/// Section kind: one chunk of one attribute's rank-ordered column.
const KIND_RANK_COL: u8 = 6;
/// Section kind: one chunk of one attribute's store-ordered column.
const KIND_STORE_COL: u8 = 7;
/// Section kind: one chunk of one attribute's posting order.
const KIND_ORDER: u8 = 8;
/// Section kind: one chunk of the tuple ids (u64).
const KIND_IDS: u8 = 9;

/// Chunk codec tag: frame-of-reference + bit-packing.
const CODEC_FOR: u8 = 0;
/// Chunk codec tag: sorted dictionary + bit-packed codes.
const CODEC_DICT: u8 = 1;
/// Chunk codec tag: run-length encoding (run values + run lengths).
const CODEC_RLE: u8 = 2;

/// Chunks fetched per coalesced batch by the compressed-domain store scan.
const READAHEAD: usize = 8;
/// Shard count of the decoded-chunk cache.
const CACHE_SHARDS: usize = 8;
/// Approximate per-chunk bookkeeping overhead charged against the cache
/// budget on top of the decoded payload bytes.
const CHUNK_OVERHEAD: u64 = 32;

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_FOOTER => "footer",
        KIND_ZONES => "zones",
        KIND_STARTS => "starts",
        KIND_PERM => "perm",
        KIND_RANK_OF => "rank-of",
        KIND_RANK_COL => "rank-col",
        KIND_STORE_COL => "store-col",
        KIND_ORDER => "order",
        KIND_IDS => "ids",
        _ => "unknown",
    }
}

/// Why a segment was rejected (or a lazy block failed to load). A corrupted,
/// truncated or foreign file always surfaces as one of these — it is never
/// silently mis-read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The underlying [`BlockSource`] failed (file system error).
    Io {
        /// The I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail from the OS error.
        detail: String,
    },
    /// The file (or a section) ends before the structure it claims to carry.
    Truncated,
    /// A section does not start with [`SEGMENT_MAGIC`] (or the trailer does
    /// not start with [`TRAILER_MAGIC`]).
    BadMagic,
    /// The segment was written by an unknown format version.
    UnsupportedVersion {
        /// The version found in the section header.
        found: u16,
    },
    /// A section carries a different kind than the directory claims.
    WrongKind {
        /// The kind the directory (or trailer walk) expected.
        expected: u8,
        /// The kind found in the section header.
        found: u8,
    },
    /// A checksum does not match: the bytes were corrupted.
    ChecksumMismatch,
    /// A section payload decoded cleanly but left unconsumed bytes behind.
    TrailingBytes,
    /// The bytes parse but describe an inconsistent segment (bad directory
    /// geometry, out-of-range values, wrong chunk lengths, ...).
    Malformed {
        /// What was inconsistent.
        detail: String,
    },
    /// The segment was written under a different ranking function than the
    /// one supplied to [`crate::HiddenDb::open_segment`].
    RankerMismatch {
        /// The ranker name recorded in the segment.
        expected: String,
        /// The name of the ranker the caller supplied.
        found: String,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io { kind, detail } => {
                write!(f, "segment I/O error ({kind:?}): {detail}")
            }
            SegmentError::Truncated => write!(f, "segment is truncated"),
            SegmentError::BadMagic => write!(f, "bad magic: not a skyweb segment"),
            SegmentError::UnsupportedVersion { found } => write!(
                f,
                "unsupported segment version {found} (supported: {SEGMENT_VERSION})"
            ),
            SegmentError::WrongKind { expected, found } => write!(
                f,
                "wrong section kind {found} (expected {expected} = {})",
                kind_name(*expected)
            ),
            SegmentError::ChecksumMismatch => {
                write!(f, "segment checksum mismatch: corrupted bytes")
            }
            SegmentError::TrailingBytes => {
                write!(f, "section payload left trailing bytes unconsumed")
            }
            SegmentError::Malformed { detail } => write!(f, "malformed segment: {detail}"),
            SegmentError::RankerMismatch { expected, found } => write!(
                f,
                "segment was written under ranker '{expected}' but '{found}' was supplied"
            ),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl From<EnvelopeError> for SegmentError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::Truncated => SegmentError::Truncated,
            EnvelopeError::BadMagic => SegmentError::BadMagic,
            EnvelopeError::UnsupportedVersion { found } => {
                SegmentError::UnsupportedVersion { found }
            }
            EnvelopeError::WrongKind { expected, found } => {
                SegmentError::WrongKind { expected, found }
            }
            EnvelopeError::ChecksumMismatch => SegmentError::ChecksumMismatch,
            EnvelopeError::TrailingBytes => SegmentError::TrailingBytes,
        }
    }
}

fn malformed(detail: impl Into<String>) -> SegmentError {
    SegmentError::Malformed {
        detail: detail.into(),
    }
}

/// Random-access byte source a segment is read through.
///
/// The reader only ever issues positioned reads of whole sections, so any
/// backend that can serve `read_exact_at` works: a file ([`FileSource`]), a
/// byte buffer ([`MemSource`]), or — behind the same trait, without touching
/// the reader — a memory map or a remote block store.
pub trait BlockSource: Send + Sync {
    /// Total number of bytes in the source.
    fn len(&self) -> u64;

    /// `true` if the source holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` from the bytes at `offset`, failing (never short-reading)
    /// if the range is out of bounds.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError>;

    /// Serves many positioned reads in one call — batched readahead.
    ///
    /// The default implementation coalesces runs of byte-adjacent requests
    /// (the writer lays a section's chunks out contiguously, so multi-chunk
    /// scans collapse into a handful of large reads) and issues one
    /// [`BlockSource::read_exact_at`] per run. Requests must be sorted by
    /// offset for coalescing to trigger; unsorted batches still complete,
    /// just one read at a time.
    fn read_many(&self, requests: &mut [(u64, &mut [u8])]) -> Result<(), SegmentError> {
        let mut i = 0;
        while i < requests.len() {
            let run_start = requests[i].0;
            let mut end = run_start.saturating_add(cast::to_u64(requests[i].1.len()));
            let mut j = i + 1;
            while j < requests.len() && requests[j].0 == end {
                end = end.saturating_add(cast::to_u64(requests[j].1.len()));
                j += 1;
            }
            if j == i + 1 {
                let (off, buf) = &mut requests[i];
                self.read_exact_at(*off, buf)?;
            } else {
                let total =
                    usize::try_from(end - run_start).map_err(|_| SegmentError::Truncated)?;
                let mut run = vec![0u8; total];
                self.read_exact_at(run_start, &mut run)?;
                let mut pos = 0usize;
                for (_, buf) in &mut requests[i..j] {
                    buf.copy_from_slice(&run[pos..pos + buf.len()]);
                    pos += buf.len();
                }
            }
            i = j;
        }
        Ok(())
    }
}

/// A [`BlockSource`] over an opened file, using positioned reads (no shared
/// cursor, so concurrent sessions never serialize on a seek).
pub struct FileSource {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
    len: u64,
}

impl FileSource {
    /// Opens `path` read-only.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(not(unix))]
        let file = std::sync::Mutex::new(file);
        Ok(FileSource { file, len })
    }
}

impl BlockSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    #[cfg(unix)]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)?;
        Ok(())
    }
}

/// A [`BlockSource`] over an in-memory byte buffer — how the differential
/// and corruption test suites exercise the full reader without a filesystem.
#[derive(Clone)]
pub struct MemSource {
    bytes: Arc<[u8]>,
}

impl MemSource {
    /// Wraps owned bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        MemSource {
            bytes: bytes.into(),
        }
    }
}

impl BlockSource for MemSource {
    fn len(&self) -> u64 {
        cast::to_u64(self.bytes.len())
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), SegmentError> {
        let start = usize::try_from(offset).map_err(|_| SegmentError::Truncated)?;
        let end = start
            .checked_add(buf.len())
            .ok_or(SegmentError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SegmentError::Truncated);
        }
        buf.copy_from_slice(&self.bytes[start..end]);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Section and payload primitives
// ---------------------------------------------------------------------------

/// Validates the envelope of one section of `kind` and returns its payload.
fn open_section(bytes: &[u8], kind: u8) -> Result<&[u8], SegmentError> {
    Ok(envelope::open(ENVELOPE, bytes, kind)?)
}

fn read_string(cur: &mut Reader<'_>) -> Result<String, SegmentError> {
    let len = cur.usize()?;
    let bytes = cur.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed("non-UTF-8 string"))
}

fn write_string(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(cast::to_u64(s.len())).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// Frame-of-reference + bit-packing: `count (u32) · min · width (u8) · packed
// little-endian u64 words`. Deltas from the block minimum are packed at the
// smallest sufficient width, low bits first.

fn pack_u64s(values: &[u64], out: &mut Vec<u8>) {
    let min = values.iter().copied().min().unwrap_or(0);
    let spread = values.iter().copied().max().unwrap_or(0) - min;
    let width = if spread == 0 {
        0u32
    } else {
        64 - spread.leading_zeros()
    };
    out.extend_from_slice(&(cast::to_u32(values.len())).to_le_bytes());
    out.extend_from_slice(&min.to_le_bytes());
    out.push(cast::to_u8(width));
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut used: u32 = 0;
    for &v in values {
        acc |= u128::from(v - min) << used;
        used += width;
        while used >= 64 {
            out.extend_from_slice(&(cast::to_u64(acc & u128::from(u64::MAX))).to_le_bytes());
            acc >>= 64;
            used -= 64;
        }
    }
    if used > 0 {
        out.extend_from_slice(&(cast::to_u64(acc & u128::from(u64::MAX))).to_le_bytes());
    }
}

fn pack_u32s(values: &[u32], out: &mut Vec<u8>) {
    let min = values.iter().copied().min().unwrap_or(0);
    let spread = values.iter().copied().max().unwrap_or(0) - min;
    let width = if spread == 0 {
        0u32
    } else {
        32 - spread.leading_zeros()
    };
    out.extend_from_slice(&(cast::to_u32(values.len())).to_le_bytes());
    out.extend_from_slice(&min.to_le_bytes());
    out.push(cast::to_u8(width));
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut used: u32 = 0;
    for &v in values {
        acc |= u128::from(v - min) << used;
        used += width;
        while used >= 64 {
            out.extend_from_slice(&(cast::to_u64(acc & u128::from(u64::MAX))).to_le_bytes());
            acc >>= 64;
            used -= 64;
        }
    }
    if used > 0 {
        out.extend_from_slice(&(cast::to_u64(acc & u128::from(u64::MAX))).to_le_bytes());
    }
}

fn unpack_u64s(cur: &mut Reader<'_>) -> Result<Vec<u64>, SegmentError> {
    let count = cast::to_usize(cur.u32()?);
    let min = cur.u64()?;
    let width = u32::from(cur.u8()?);
    if width > 64 {
        return Err(malformed(format!("bit width {width} > 64")));
    }
    if width == 0 {
        return Ok(vec![min; count]);
    }
    let words = cast::to_usize((cast::to_u64(count) * u64::from(width)).div_ceil(64));
    let bytes = cur.take(words * 8)?;
    let mask: u128 = (1u128 << width) - 1;
    let mut out = Vec::with_capacity(count);
    let mut acc: u128 = 0;
    let mut used: u32 = 0;
    let mut word = 0usize;
    for _ in 0..count {
        while used < width {
            let w = le_u64(&bytes[word * 8..word * 8 + 8]);
            acc |= u128::from(w) << used;
            word += 1;
            used += 64;
        }
        let delta = cast::to_u64(acc & mask);
        acc >>= width;
        used -= width;
        let v = min
            .checked_add(delta)
            .ok_or_else(|| malformed("packed value overflows u64"))?;
        out.push(v);
    }
    Ok(out)
}

fn unpack_u32s(cur: &mut Reader<'_>) -> Result<Vec<u32>, SegmentError> {
    let count = cast::to_usize(cur.u32()?);
    let min = cur.u32()?;
    let width = u32::from(cur.u8()?);
    if width > 32 {
        return Err(malformed(format!("bit width {width} > 32")));
    }
    if width == 0 {
        return Ok(vec![min; count]);
    }
    let words = cast::to_usize((cast::to_u64(count) * u64::from(width)).div_ceil(64));
    let bytes = cur.take(words * 8)?;
    let mask: u128 = (1u128 << width) - 1;
    let mut out = Vec::with_capacity(count);
    let mut acc: u128 = 0;
    let mut used: u32 = 0;
    let mut word = 0usize;
    for _ in 0..count {
        while used < width {
            let w = le_u64(&bytes[word * 8..word * 8 + 8]);
            acc |= u128::from(w) << used;
            word += 1;
            used += 64;
        }
        let delta = cast::to_u64(acc & mask);
        acc >>= width;
        used -= width;
        let v = u64::from(min)
            .checked_add(delta)
            .filter(|&v| v <= u64::from(u32::MAX))
            .ok_or_else(|| malformed("packed value overflows u32"))?;
        out.push(cast::to_u32(v));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Chunk codecs
// ---------------------------------------------------------------------------
//
// A u32 chunk payload is `tag (u8) · min (u32) · max (u32) · body`. The
// min/max header gives the compressed-domain evaluator exact whole-chunk
// pruning; the tag selects the body layout:
//
//   CODEC_FOR  — pack_u32s(values): one FOR/bit-packed block.
//   CODEC_DICT — pack_u32s(sorted strictly-ascending dictionary) followed by
//                pack_u32s(codes); value i is dict[codes[i]].
//   CODEC_RLE  — pack_u32s(run values) followed by pack_u32s(run lengths);
//                canonical: adjacent run values differ, every length > 0.
//
// The writer encodes all three and keeps the smallest (ties break
// FOR < DICT < RLE), so output stays deterministic.

/// Encodes one u32 chunk under the tagged layout, picking the smallest
/// body among FOR/bitpack, dictionary + packed codes, and RLE runs.
fn encode_u32_chunk(values: &[u32], out: &mut Vec<u8>) {
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);

    let mut body_for = Vec::new();
    pack_u32s(values, &mut body_for);

    let mut dict: Vec<u32> = values.to_vec();
    dict.sort_unstable();
    dict.dedup();
    let codes: Vec<u32> = values
        .iter()
        .map(|v| cast::to_u32(dict.partition_point(|d| d < v)))
        .collect();
    let mut body_dict = Vec::new();
    pack_u32s(&dict, &mut body_dict);
    pack_u32s(&codes, &mut body_dict);

    let mut run_values: Vec<u32> = Vec::new();
    let mut run_lens: Vec<u32> = Vec::new();
    for &v in values {
        if run_values.last() == Some(&v) {
            if let Some(last) = run_lens.last_mut() {
                *last += 1;
            }
        } else {
            run_values.push(v);
            run_lens.push(1);
        }
    }
    let mut body_rle = Vec::new();
    pack_u32s(&run_values, &mut body_rle);
    pack_u32s(&run_lens, &mut body_rle);

    let (tag, body) = [
        (CODEC_FOR, body_for),
        (CODEC_DICT, body_dict),
        (CODEC_RLE, body_rle),
    ]
    .into_iter()
    .min_by_key(|(tag, body)| (body.len(), *tag))
    .unwrap_or((CODEC_FOR, Vec::new()));
    out.push(tag);
    out.extend_from_slice(&min.to_le_bytes());
    out.extend_from_slice(&max.to_le_bytes());
    out.extend_from_slice(&body);
}

/// Decodes a u32 chunk payload, returning the values and the codec tag
/// that produced them. Validates codec invariants — strictly ascending
/// dictionary, in-range codes, canonical runs, header min/max matching the
/// decoded content — but leaves kind-specific range checks to the caller.
fn decode_u32_payload(payload: &[u8], expected_len: usize) -> Result<(Vec<u32>, u8), SegmentError> {
    let mut cur = Reader::new(payload);
    let tag = cur.u8()?;
    let cmin = cur.u32()?;
    let cmax = cur.u32()?;
    let vals = match tag {
        CODEC_FOR => unpack_u32s(&mut cur)?,
        CODEC_DICT => {
            let dict = unpack_u32s(&mut cur)?;
            if dict.windows(2).any(|w| w[0] >= w[1]) {
                return Err(malformed("dictionary is not strictly ascending"));
            }
            let codes = unpack_u32s(&mut cur)?;
            let mut vals = Vec::with_capacity(codes.len());
            for &code in &codes {
                let Some(&v) = dict.get(cast::to_usize(code)) else {
                    return Err(malformed("dictionary code out of range"));
                };
                vals.push(v);
            }
            vals
        }
        CODEC_RLE => {
            let run_values = unpack_u32s(&mut cur)?;
            let run_lens = unpack_u32s(&mut cur)?;
            if run_values.len() != run_lens.len() {
                return Err(malformed("RLE run arrays differ in length"));
            }
            if run_values.windows(2).any(|w| w[0] == w[1]) || run_lens.contains(&0) {
                return Err(malformed("RLE runs are not canonical"));
            }
            let mut vals = Vec::with_capacity(expected_len);
            for (&v, &l) in run_values.iter().zip(&run_lens) {
                if vals.len() + cast::to_usize(l) > expected_len {
                    return Err(malformed("RLE runs overflow the chunk length"));
                }
                vals.extend(std::iter::repeat_n(v, cast::to_usize(l)));
            }
            vals
        }
        t => return Err(malformed(format!("undefined chunk codec tag {t}"))),
    };
    cur.finish()?;
    if vals.iter().copied().min().unwrap_or(0) != cmin
        || vals.iter().copied().max().unwrap_or(0) != cmax
    {
        return Err(malformed("chunk header min/max do not match the values"));
    }
    Ok((vals, tag))
}

// ---------------------------------------------------------------------------
// Compressed-domain evaluation (filter-without-unpack)
// ---------------------------------------------------------------------------

/// Clears bits `[from, to)` of a packed bitset.
fn clear_bits(words: &mut [u64], from: usize, to: usize) {
    let mut pos = from;
    while pos < to {
        let w = pos / 64;
        let lo_bit = pos % 64;
        let span = (to - pos).min(64 - lo_bit);
        let mask = if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << lo_bit
        };
        words[w] &= !mask;
        pos += span;
    }
}

/// AND-accumulates `value ∈ [lo, hi]` per packed FOR value into `words`
/// without materializing the decoded vector: the bounds are translated into
/// the block's frame of reference once and each delta is tested branch-free
/// as it streams out of the packed words.
fn eval_for_body(
    cur: &mut Reader<'_>,
    lo: Value,
    hi: Value,
    expected_len: usize,
    words: &mut [u64],
) -> Result<(), SegmentError> {
    let count = cast::to_usize(cur.u32()?);
    let min = cur.u32()?;
    let width = u32::from(cur.u8()?);
    if width > 32 {
        return Err(malformed(format!("bit width {width} > 32")));
    }
    if count != expected_len {
        return Err(malformed("packed chunk has the wrong length"));
    }
    if width == 0 {
        if !(lo <= min && min <= hi) {
            words.fill(0);
        }
        return Ok(());
    }
    let nwords = cast::to_usize((cast::to_u64(count) * u64::from(width)).div_ceil(64));
    let bytes = cur.take(nwords * 8)?;
    // Conservative whole-block prune from the frame of reference alone
    // (dictionary codes carry no min/max header of their own).
    let ceiling = u64::from(min) + ((1u64 << width) - 1);
    if hi < min || u64::from(lo) > ceiling {
        words.fill(0);
        return Ok(());
    }
    let dlo = u64::from(lo.saturating_sub(min));
    let dhi = u64::from(hi) - u64::from(min);
    let mask: u128 = (1u128 << width) - 1;
    let mut acc: u128 = 0;
    let mut used: u32 = 0;
    let mut word = 0usize;
    let mut m: u64 = 0;
    for i in 0..count {
        while used < width {
            let w = le_u64(&bytes[word * 8..word * 8 + 8]);
            acc |= u128::from(w) << used;
            word += 1;
            used += 64;
        }
        let d = cast::to_u64(acc & mask);
        acc >>= width;
        used -= width;
        m |= u64::from(d >= dlo && d <= dhi) << (i % 64);
        if i % 64 == 63 {
            words[i / 64] &= m;
            m = 0;
        }
    }
    if !count.is_multiple_of(64) {
        words[(count - 1) / 64] &= m;
    }
    Ok(())
}

/// Compressed-domain evaluation of a dictionary-coded body: the value range
/// becomes a code range via two binary searches over the sorted dictionary,
/// then the packed codes are streamed through [`eval_for_body`].
fn eval_dict_body(
    cur: &mut Reader<'_>,
    lo: Value,
    hi: Value,
    expected_len: usize,
    words: &mut [u64],
) -> Result<(), SegmentError> {
    let dict = unpack_u32s(cur)?;
    if dict.windows(2).any(|w| w[0] >= w[1]) {
        return Err(malformed("dictionary is not strictly ascending"));
    }
    let clo = dict.partition_point(|&d| d < lo);
    let chi = dict.partition_point(|&d| d <= hi);
    // An empty code range still streams the codes (validating their shape)
    // under bounds no code can satisfy.
    let (lo_code, hi_code) = if clo < chi {
        (cast::to_u32(clo), cast::to_u32(chi - 1))
    } else {
        (1, 0)
    };
    eval_for_body(cur, lo_code, hi_code, expected_len, words)
}

/// Compressed-domain evaluation of an RLE body: range ∩ run intersection —
/// whole runs outside `[lo, hi]` clear their bit span without per-value
/// work.
fn eval_rle_body(
    cur: &mut Reader<'_>,
    lo: Value,
    hi: Value,
    expected_len: usize,
    words: &mut [u64],
) -> Result<(), SegmentError> {
    let run_values = unpack_u32s(cur)?;
    let run_lens = unpack_u32s(cur)?;
    if run_values.len() != run_lens.len() {
        return Err(malformed("RLE run arrays differ in length"));
    }
    let mut pos = 0usize;
    for (&v, &l) in run_values.iter().zip(&run_lens) {
        let end = pos
            .checked_add(cast::to_usize(l))
            .filter(|&e| e <= expected_len)
            .ok_or_else(|| malformed("RLE runs overflow the chunk length"))?;
        if v < lo || v > hi {
            clear_bits(words, pos, end);
        }
        pos = end;
    }
    if pos != expected_len {
        return Err(malformed("RLE runs do not cover the chunk"));
    }
    Ok(())
}

/// Evaluates `value ∈ [lo, hi]` for every value of one u32 chunk section
/// payload, AND-ing the result into `words` — never materializing a decoded
/// vector. Whole chunks are pruned from the min/max header before the body
/// is even parsed.
fn eval_u32_payload(
    payload: &[u8],
    lo: Value,
    hi: Value,
    expected_len: usize,
    words: &mut [u64],
) -> Result<(), SegmentError> {
    let mut cur = Reader::new(payload);
    let tag = cur.u8()?;
    let cmin = cur.u32()?;
    let cmax = cur.u32()?;
    if cmax < lo || cmin > hi {
        // Nothing in the chunk can match; the body's checksum was already
        // verified by the envelope, so skipping its parse is safe.
        words.fill(0);
        return Ok(());
    }
    if lo <= cmin && cmax <= hi {
        // Everything matches: leave the accumulated bits untouched.
        return Ok(());
    }
    match tag {
        CODEC_FOR => eval_for_body(&mut cur, lo, hi, expected_len, words)?,
        CODEC_DICT => eval_dict_body(&mut cur, lo, hi, expected_len, words)?,
        CODEC_RLE => eval_rle_body(&mut cur, lo, hi, expected_len, words)?,
        t => return Err(malformed(format!("undefined chunk codec tag {t}"))),
    }
    Ok(cur.finish()?)
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

/// One directory entry: where a section lives in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    kind: u8,
    attr: u32,
    chunk: u32,
    offset: u64,
    len: u64,
}

fn interface_tag(i: InterfaceType) -> u8 {
    match i {
        InterfaceType::Sq => 0,
        InterfaceType::Rq => 1,
        InterfaceType::Pq => 2,
    }
}

fn interface_from_tag(tag: u8) -> Result<InterfaceType, SegmentError> {
    match tag {
        0 => Ok(InterfaceType::Sq),
        1 => Ok(InterfaceType::Rq),
        2 => Ok(InterfaceType::Pq),
        t => Err(malformed(format!("undefined interface tag {t}"))),
    }
}

fn role_tag(r: AttributeRole) -> u8 {
    match r {
        AttributeRole::Ranking => 0,
        AttributeRole::Filtering => 1,
    }
}

fn role_from_tag(tag: u8) -> Result<AttributeRole, SegmentError> {
    match tag {
        0 => Ok(AttributeRole::Ranking),
        1 => Ok(AttributeRole::Filtering),
        t => Err(malformed(format!("undefined role tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a RAM-built [`crate::HiddenDb`] (store + query index) into the
/// columnar segment format. Output is deterministic: the same database
/// always produces the same bytes.
#[derive(Debug, Clone)]
pub struct SegmentWriter {
    chunk: usize,
}

impl Default for SegmentWriter {
    fn default() -> Self {
        SegmentWriter::new()
    }
}

impl SegmentWriter {
    /// A writer with the default chunk size ([`DEFAULT_CHUNK`]).
    pub fn new() -> Self {
        SegmentWriter {
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Overrides the chunk size (values per lazily-hydrated section).
    ///
    /// # Panics
    /// Panics unless `chunk` is a positive multiple of the zone-map block
    /// size (64).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        assert!(
            chunk > 0 && chunk.is_multiple_of(BLOCK),
            "chunk size must be a positive multiple of {BLOCK}"
        );
        self.chunk = chunk;
        self
    }

    /// Serializes `db` into segment bytes. Fails if `db` is itself
    /// segment-backed (re-export is not supported; write from the RAM build
    /// that produced the segment).
    pub fn write(&self, db: &HiddenDb) -> Result<Vec<u8>, SegmentError> {
        let store = db.store();
        let index = db.index();
        let Some(ram) = index.ram() else {
            return Err(malformed(
                "cannot re-write a segment-backed database; write from the RAM build",
            ));
        };
        let schema = db.schema();
        let n = store.len();
        let m = schema.len();
        let chunks = n.div_ceil(self.chunk);
        let slice = store.as_slice();
        let chunk_range = |c: usize| c * self.chunk..(c * self.chunk + self.chunk).min(n);

        let mut file: Vec<u8> = Vec::new();
        let mut dir: Vec<DirEntry> = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        let push = |file: &mut Vec<u8>,
                    dir: &mut Vec<DirEntry>,
                    kind: u8,
                    attr: u32,
                    chunk: u32,
                    payload: &[u8]| {
            let offset = cast::to_u64(file.len());
            envelope::seal(ENVELOPE, kind, payload, file);
            dir.push(DirEntry {
                kind,
                attr,
                chunk,
                offset,
                len: (cast::to_u64(file.len())) - offset,
            });
        };

        // Store-ordered columns, one section per (attribute, chunk).
        let mut col: Vec<u32> = Vec::with_capacity(self.chunk);
        for attr in 0..m {
            for c in 0..chunks {
                col.clear();
                col.extend(slice[chunk_range(c)].iter().map(|t| t.values[attr]));
                payload.clear();
                encode_u32_chunk(&col, &mut payload);
                push(
                    &mut file,
                    &mut dir,
                    KIND_STORE_COL,
                    cast::to_u32(attr),
                    cast::to_u32(c),
                    &payload,
                );
            }
        }
        // Tuple ids.
        let mut ids: Vec<u64> = Vec::with_capacity(self.chunk);
        for c in 0..chunks {
            ids.clear();
            ids.extend(slice[chunk_range(c)].iter().map(|t| t.id));
            payload.clear();
            pack_u64s(&ids, &mut payload);
            push(&mut file, &mut dir, KIND_IDS, 0, cast::to_u32(c), &payload);
        }
        // Posting prefix counts (eager) and posting orders (lazy chunks).
        for attr in 0..m {
            payload.clear();
            pack_u32s(ram.posting_starts(attr), &mut payload);
            push(
                &mut file,
                &mut dir,
                KIND_STARTS,
                cast::to_u32(attr),
                0,
                &payload,
            );
        }
        for attr in 0..m {
            let order = ram.posting_order(attr);
            for c in 0..chunks {
                payload.clear();
                encode_u32_chunk(&order[chunk_range(c)], &mut payload);
                push(
                    &mut file,
                    &mut dir,
                    KIND_ORDER,
                    cast::to_u32(attr),
                    cast::to_u32(c),
                    &payload,
                );
            }
        }
        // Rank-order structures, only when the ranker exposes a total order.
        let has_perm = ram.perm().is_some();
        if let Some(perm) = ram.perm() {
            for c in 0..chunks {
                payload.clear();
                encode_u32_chunk(&perm[chunk_range(c)], &mut payload);
                push(&mut file, &mut dir, KIND_PERM, 0, cast::to_u32(c), &payload);
            }
            for c in 0..chunks {
                payload.clear();
                encode_u32_chunk(&ram.rank_of()[chunk_range(c)], &mut payload);
                push(
                    &mut file,
                    &mut dir,
                    KIND_RANK_OF,
                    0,
                    cast::to_u32(c),
                    &payload,
                );
            }
            for attr in 0..m {
                let col = ram.rank_col(attr);
                for c in 0..chunks {
                    payload.clear();
                    encode_u32_chunk(&col[chunk_range(c)], &mut payload);
                    push(
                        &mut file,
                        &mut dir,
                        KIND_RANK_COL,
                        cast::to_u32(attr),
                        cast::to_u32(c),
                        &payload,
                    );
                }
            }
            payload.clear();
            for attr in 0..m {
                pack_u32s(ram.zone_mins(attr), &mut payload);
                pack_u32s(ram.zone_maxs(attr), &mut payload);
            }
            push(&mut file, &mut dir, KIND_ZONES, 0, 0, &payload);
        }

        // Footer: meta + directory, itself an enveloped section.
        payload.clear();
        payload.extend_from_slice(&(cast::to_u64(n)).to_le_bytes());
        payload.extend_from_slice(&(cast::to_u64(db.k())).to_le_bytes());
        payload.extend_from_slice(&(cast::to_u32(self.chunk)).to_le_bytes());
        payload.extend_from_slice(&(cast::to_u32(BLOCK)).to_le_bytes());
        payload.push(u8::from(has_perm));
        write_string(db.ranker_name(), &mut payload);
        payload.extend_from_slice(&(cast::to_u64(m)).to_le_bytes());
        for spec in schema.attrs() {
            write_string(&spec.name, &mut payload);
            payload.extend_from_slice(&spec.domain_size.to_le_bytes());
            payload.push(interface_tag(spec.interface));
            payload.push(role_tag(spec.role));
        }
        payload.extend_from_slice(&(cast::to_u64(dir.len())).to_le_bytes());
        for e in &dir {
            payload.push(e.kind);
            payload.extend_from_slice(&e.attr.to_le_bytes());
            payload.extend_from_slice(&e.chunk.to_le_bytes());
            payload.extend_from_slice(&e.offset.to_le_bytes());
            payload.extend_from_slice(&e.len.to_le_bytes());
        }
        let footer_off = cast::to_u64(file.len());
        envelope::seal(ENVELOPE, KIND_FOOTER, &payload, &mut file);
        let footer_len = cast::to_u64(file.len()) - footer_off;

        // Fixed trailer: how a reader finds the footer from the end.
        let mut trailer = [0u8; TRAILER_LEN];
        trailer[..8].copy_from_slice(&TRAILER_MAGIC);
        trailer[8..16].copy_from_slice(&footer_off.to_le_bytes());
        trailer[16..24].copy_from_slice(&footer_len.to_le_bytes());
        let check = fnv1a64(&trailer[..24]);
        trailer[24..32].copy_from_slice(&check.to_le_bytes());
        file.extend_from_slice(&trailer);
        Ok(file)
    }

    /// Serializes `db` and writes the bytes to `path`, returning the file
    /// size in bytes.
    pub fn write_to_path(
        &self,
        db: &HiddenDb,
        path: impl AsRef<Path>,
    ) -> Result<u64, SegmentError> {
        let bytes = self.write(db)?;
        std::fs::write(path, &bytes)?;
        Ok(cast::to_u64(bytes.len()))
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Options controlling how a [`SegmentReader`] hydrates and executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentOpenOptions {
    cache_budget: Option<u64>,
    compressed_filter: bool,
}

impl Default for SegmentOpenOptions {
    fn default() -> Self {
        SegmentOpenOptions {
            cache_budget: None,
            compressed_filter: true,
        }
    }
}

impl SegmentOpenOptions {
    /// The defaults: unbounded chunk cache, compressed-domain filtering on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the decoded-chunk cache to roughly `bytes` (clock eviction,
    /// [`CACHE_SHARDS`] shards). Without a budget the same cache never
    /// evicts: every decoded chunk stays resident for the reader's
    /// lifetime.
    pub fn with_cache_budget(mut self, bytes: u64) -> Self {
        self.cache_budget = Some(bytes);
        self
    }

    /// Enables or disables the compressed-domain filter path (on by
    /// default). Off forces hydrate-then-filter — the A/B knob behind the
    /// `storage_report` benchmark rows. The planner only takes the
    /// compressed path when the cache is bounded (see
    /// [`Self::with_cache_budget`]): without a budget, decoded chunks are
    /// decoded once and resident forever, so the posting walk is always
    /// cheaper.
    pub fn with_compressed_filter(mut self, enabled: bool) -> Self {
        self.compressed_filter = enabled;
        self
    }
}

/// Point-in-time snapshot of a [`SegmentReader`]'s cache and codec counters
/// — the reusable stats surface behind [`crate::HiddenDb::storage_stats`]
/// and the `storage_report` benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageStats {
    /// Chunk lookups served from the decoded-chunk cache. The engine pins
    /// each chunk it reads for the rest of its query, so this counts chunk
    /// lookups per query, not values read.
    pub cache_hits: u64,
    /// Chunk lookups that decoded from the backing source.
    pub cache_misses: u64,
    /// Chunks evicted by the bounded cache (always 0 without a budget).
    pub cache_evictions: u64,
    /// Decoded chunks the bounded cache served uncached because one chunk
    /// costs more than a cache shard's share of the budget (always 0
    /// without a budget). Every such chunk is decoded again on its next
    /// lookup.
    pub cache_bypasses: u64,
    /// Decoded bytes currently resident in the cache. A decoded chunk is
    /// stored at the narrowest width that holds its values (`u8`, `u16`,
    /// `u32`, or `u64` for ids) and costs `width × len` plus 32 bytes of
    /// bookkeeping.
    pub bytes_resident: u64,
    /// The configured cache byte budget (`None` = unbounded cache).
    pub cache_budget: Option<u64>,
    /// Chunks decoded from the FOR/bit-packed codec.
    pub decoded_for: u64,
    /// Chunks decoded from the dictionary codec.
    pub decoded_dict: u64,
    /// Chunks decoded from the run-length codec.
    pub decoded_rle: u64,
}

/// Encoded-vs-raw sizes of one store column, from
/// [`SegmentReader::codec_census`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecColumn {
    /// The attribute index.
    pub attr: usize,
    /// Chunk count per codec tag, indexed FOR / DICT / RLE.
    pub chunks: [u64; 3],
    /// Encoded payload bytes across the column's chunks.
    pub encoded_bytes: u64,
    /// Raw size of the column (4 bytes per value).
    pub raw_bytes: u64,
}

/// Per-codec size census over every u32 chunk section of a segment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CodecCensus {
    /// Chunk-section count per codec tag, indexed FOR / DICT / RLE.
    pub chunks: [u64; 3],
    /// Encoded payload bytes per codec tag.
    pub encoded_bytes: [u64; 3],
    /// Raw (4 bytes per value) size per codec tag.
    pub raw_bytes: [u64; 3],
    /// Per-store-column breakdown, one row per attribute.
    pub store_cols: Vec<CodecColumn>,
}

/// Key of one cached decoded chunk: its on-disk section kind, attribute and
/// chunk number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChunkKey {
    kind: u8,
    attr: u32,
    chunk: u32,
}

/// The values of one decoded chunk, stored at the narrowest width that
/// holds all of them: a column of 4,096 values below 256 costs 4 KiB, not
/// 16 KiB. Shared by refcount so eviction can never invalidate a borrow a
/// query still holds.
#[derive(Clone)]
enum Col {
    W8(Arc<[u8]>),
    W16(Arc<[u16]>),
    W32(Arc<[u32]>),
    W64(Arc<[u64]>),
}

/// A borrowed run of a [`Col`] at its stored width, so a block kernel can
/// match on the width once and then loop over plain lanes.
#[derive(Clone, Copy)]
pub(crate) enum Lanes<'a> {
    W8(&'a [u8]),
    W16(&'a [u16]),
    W32(&'a [u32]),
    W64(&'a [u64]),
}

impl Default for Col {
    fn default() -> Self {
        Col::W8(Arc::default())
    }
}

impl Col {
    /// Copies already-validated values into the narrowest width that holds
    /// their maximum.
    fn narrow<W: cast::Word>(vals: &[W]) -> Col {
        let max = vals.iter().map(|v| v.wide()).max().unwrap_or(0);
        if max <= u128::from(u8::MAX) {
            Col::W8(vals.iter().map(|&v| cast::to_u8(v)).collect())
        } else if max <= u128::from(u16::MAX) {
            Col::W16(vals.iter().map(|&v| cast::to_u16(v)).collect())
        } else if max <= u128::from(u32::MAX) {
            Col::W32(vals.iter().map(|&v| cast::to_u32(v)).collect())
        } else {
            Col::W64(vals.iter().map(|&v| cast::to_u64(v)).collect())
        }
    }

    /// Decoded payload bytes: width × length. The cache charges this plus
    /// [`CHUNK_OVERHEAD`].
    fn bytes(&self) -> u64 {
        let (width, len) = match self {
            Col::W8(v) => (1, v.len()),
            Col::W16(v) => (2, v.len()),
            Col::W32(v) => (4, v.len()),
            Col::W64(v) => (8, v.len()),
        };
        width * cast::to_u64(len)
    }

    fn len(&self) -> usize {
        match self {
            Col::W8(v) => v.len(),
            Col::W16(v) => v.len(),
            Col::W32(v) => v.len(),
            Col::W64(v) => v.len(),
        }
    }

    /// Value `i`, widened back to 64 bits.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Col::W8(v) => u64::from(v[i]),
            Col::W16(v) => u64::from(v[i]),
            Col::W32(v) => u64::from(v[i]),
            Col::W64(v) => v[i],
        }
    }

    /// Values `range`, borrowed at their stored width.
    fn lanes(&self, range: std::ops::Range<usize>) -> Lanes<'_> {
        match self {
            Col::W8(v) => Lanes::W8(&v[range]),
            Col::W16(v) => Lanes::W16(&v[range]),
            Col::W32(v) => Lanes::W32(&v[range]),
            Col::W64(v) => Lanes::W64(&v[range]),
        }
    }
}

/// Hands every value of a posting-order run to `f` as a store index.
fn each_index<W: cast::Word>(
    run: &[W],
    pins: &mut ChunkPins,
    f: &mut dyn FnMut(&mut ChunkPins, u32) -> Result<(), SegmentError>,
) -> Result<(), SegmentError> {
    for &idx in run {
        f(pins, cast::to_u32(idx))?;
    }
    Ok(())
}

/// The decoded-chunk cache shard of `key`.
fn shard_of(key: ChunkKey) -> usize {
    let h = (cast::to_usize(key.chunk))
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add((cast::to_usize(key.attr)).wrapping_mul(31))
        .wrapping_add(cast::to_usize(key.kind));
    h % CACHE_SHARDS
}

/// Decoded chunks pinned for the duration of one query: one slot per
/// (section kind, attribute) stream, each holding the stream's most
/// recently read chunk.
///
/// The engine reads columns one value at a time, and consecutive values
/// almost always share a chunk. A pinned hit is a compare and an index —
/// no lock, no hash, no refcount — so the cache is consulted once per
/// chunk per query instead of once per value, and a response tuple is
/// built from the pinned id and store-column chunks. The table lives in
/// the session's scratch and is cleared when the query (or plan group)
/// returns, so no chunk outlives its query and the extra memory is at most
/// one chunk per stream.
#[derive(Default)]
pub(crate) struct ChunkPins {
    /// `(chunk no, chunk)` per stream; `usize::MAX` marks an empty slot.
    slots: Vec<(usize, Col)>,
}

impl ChunkPins {
    /// Unpins every chunk (the table keeps its capacity).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }
}

/// A lazily-hydrating view over one persisted segment.
///
/// [`SegmentReader::open`] validates the trailer, footer, directory and the
/// eager metadata (zone maps, posting prefix counts) — O(footer), not O(n).
/// Everything else loads per chunk on first touch, each load re-validating
/// its section's envelope and checksum. [`SegmentReader::verify`] is the
/// full O(file) scrub used by the corruption battery and by operators who
/// want end-to-end assurance before serving.
pub struct SegmentReader {
    source: Box<dyn BlockSource>,
    options: SegmentOpenOptions,
    n: usize,
    k: usize,
    chunk: usize,
    has_perm: bool,
    ranker_name: String,
    schema: Schema,
    dir: Vec<DirEntry>,
    by_key: HashMap<(u8, u32, u32), usize>,
    footer_off: u64,
    footer_len: u64,
    zone_mins: Vec<Vec<Value>>,
    zone_maxs: Vec<Vec<Value>>,
    starts: Vec<Vec<u32>>,
    cache: ClockCacheCore<StdSync, ChunkKey, Col>,
    decoded_for: AtomicU64,
    decoded_dict: AtomicU64,
    decoded_rle: AtomicU64,
    full: OnceLock<Box<[Arc<Tuple>]>>,
}

impl fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentReader")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("chunk", &self.chunk)
            .field("has_perm", &self.has_perm)
            .field("ranker", &self.ranker_name)
            .field("bytes", &self.source.len())
            .field("cache_budget", &self.options.cache_budget)
            .finish()
    }
}

impl SegmentReader {
    /// Opens a segment from any [`BlockSource`] with default options.
    pub fn open(source: Box<dyn BlockSource>) -> Result<Self, SegmentError> {
        Self::open_with(source, SegmentOpenOptions::default())
    }

    /// Opens a segment from any [`BlockSource`]: validates the trailer, the
    /// footer (meta + section directory) and the eager metadata sections,
    /// leaving every bulky section untouched until a query needs it.
    /// `options` configures the decoded-chunk cache budget and the
    /// compressed-domain filter path.
    pub fn open_with(
        source: Box<dyn BlockSource>,
        options: SegmentOpenOptions,
    ) -> Result<Self, SegmentError> {
        let file_len = source.len();
        if file_len < cast::to_u64(TRAILER_LEN) {
            return Err(SegmentError::Truncated);
        }
        let mut trailer = [0u8; TRAILER_LEN];
        source.read_exact_at(file_len - cast::to_u64(TRAILER_LEN), &mut trailer)?;
        if trailer[..8] != TRAILER_MAGIC {
            return Err(SegmentError::BadMagic);
        }
        let stored = le_u64(&trailer[24..32]);
        if fnv1a64(&trailer[..24]) != stored {
            return Err(SegmentError::ChecksumMismatch);
        }
        let footer_off = le_u64(&trailer[8..16]);
        let footer_len = le_u64(&trailer[16..24]);
        if footer_off
            .checked_add(footer_len)
            .is_none_or(|end| end != file_len - cast::to_u64(TRAILER_LEN))
        {
            return Err(malformed("footer does not end at the trailer"));
        }
        let mut footer =
            vec![0u8; usize::try_from(footer_len).map_err(|_| SegmentError::Truncated)?];
        source.read_exact_at(footer_off, &mut footer)?;
        let payload = open_section(&footer, KIND_FOOTER)?;
        let mut cur = Reader::new(payload);

        let n = usize::try_from(cur.u64()?).map_err(|_| SegmentError::Truncated)?;
        if n > cast::to_usize(u32::MAX) {
            return Err(malformed("n exceeds u32 index space"));
        }
        let k = usize::try_from(cur.u64()?).map_err(|_| SegmentError::Truncated)?;
        if k == 0 {
            return Err(malformed("k must be >= 1"));
        }
        let chunk = cast::to_usize(cur.u32()?);
        if chunk == 0 || !chunk.is_multiple_of(BLOCK) {
            return Err(malformed(format!(
                "chunk size {chunk} is not a positive multiple of {BLOCK}"
            )));
        }
        let block = cast::to_usize(cur.u32()?);
        if block != BLOCK {
            return Err(malformed(format!(
                "zone block size {block} differs from engine block size {BLOCK}"
            )));
        }
        let has_perm = match cur.u8()? {
            0 => false,
            1 => true,
            t => return Err(malformed(format!("undefined has-perm flag {t}"))),
        };
        let ranker_name = read_string(&mut cur)?;
        let m = usize::try_from(cur.u64()?).map_err(|_| SegmentError::Truncated)?;
        let mut attrs = Vec::with_capacity(m.min(1 << 16));
        for _ in 0..m {
            let name = read_string(&mut cur)?;
            let domain_size = cur.u32()?;
            let interface = interface_from_tag(cur.u8()?)?;
            let role = role_from_tag(cur.u8()?)?;
            attrs.push(AttributeSpec {
                name,
                domain_size,
                interface,
                role,
            });
        }
        let schema = Schema::new(attrs);
        let dir_len = usize::try_from(cur.u64()?).map_err(|_| SegmentError::Truncated)?;
        let mut dir = Vec::with_capacity(dir_len.min(1 << 20));
        for _ in 0..dir_len {
            let kind = cur.u8()?;
            let attr = cur.u32()?;
            let chunk_no = cur.u32()?;
            let offset = cur.u64()?;
            let len = cur.u64()?;
            dir.push(DirEntry {
                kind,
                attr,
                chunk: chunk_no,
                offset,
                len,
            });
        }
        cur.finish()?;

        let chunks = n.div_ceil(chunk);
        let mut by_key = HashMap::with_capacity(dir.len());
        for (i, e) in dir.iter().enumerate() {
            let (max_attr, max_chunk) = match e.kind {
                KIND_ZONES => (1, 1),
                KIND_STARTS => (m, 1),
                KIND_PERM | KIND_RANK_OF | KIND_IDS => (1, chunks),
                KIND_RANK_COL | KIND_STORE_COL | KIND_ORDER => (m, chunks),
                k => {
                    return Err(malformed(format!(
                        "undefined section kind {k} in directory"
                    )))
                }
            };
            if (cast::to_usize(e.attr)) >= max_attr || (cast::to_usize(e.chunk)) >= max_chunk {
                return Err(malformed(format!(
                    "directory entry {}[attr {}, chunk {}] out of range",
                    kind_name(e.kind),
                    e.attr,
                    e.chunk
                )));
            }
            if e.offset
                .checked_add(e.len)
                .is_none_or(|end| end > footer_off)
            {
                return Err(malformed(format!(
                    "section {}[{}, {}] extends past the footer",
                    kind_name(e.kind),
                    e.attr,
                    e.chunk
                )));
            }
            if by_key.insert((e.kind, e.attr, e.chunk), i).is_some() {
                return Err(malformed(format!(
                    "duplicate directory entry {}[{}, {}]",
                    kind_name(e.kind),
                    e.attr,
                    e.chunk
                )));
            }
        }
        // Completeness: every section a query could touch must exist, so
        // lazy loads only ever fail on I/O errors or corrupted bytes.
        let expect = |by_key: &HashMap<(u8, u32, u32), usize>,
                      kind: u8,
                      attr: u32,
                      chunk_no: u32|
         -> Result<(), SegmentError> {
            if by_key.contains_key(&(kind, attr, chunk_no)) {
                Ok(())
            } else {
                Err(malformed(format!(
                    "missing section {}[attr {attr}, chunk {chunk_no}]",
                    kind_name(kind)
                )))
            }
        };
        for a in 0..cast::to_u32(m) {
            expect(&by_key, KIND_STARTS, a, 0)?;
            for c in 0..cast::to_u32(chunks) {
                expect(&by_key, KIND_STORE_COL, a, c)?;
                expect(&by_key, KIND_ORDER, a, c)?;
                if has_perm {
                    expect(&by_key, KIND_RANK_COL, a, c)?;
                }
            }
        }
        for c in 0..cast::to_u32(chunks) {
            expect(&by_key, KIND_IDS, 0, c)?;
            if has_perm {
                expect(&by_key, KIND_PERM, 0, c)?;
                expect(&by_key, KIND_RANK_OF, 0, c)?;
            }
        }
        if has_perm {
            expect(&by_key, KIND_ZONES, 0, 0)?;
        }

        let mut reader = SegmentReader {
            source,
            options,
            n,
            k,
            chunk,
            has_perm,
            ranker_name,
            schema,
            dir,
            by_key,
            footer_off,
            footer_len,
            zone_mins: Vec::new(),
            zone_maxs: Vec::new(),
            starts: Vec::new(),
            cache: ClockCacheCore::new(
                CACHE_SHARDS,
                options.cache_budget.unwrap_or(u64::MAX),
                false,
            ),
            decoded_for: AtomicU64::new(0),
            decoded_dict: AtomicU64::new(0),
            decoded_rle: AtomicU64::new(0),
            full: OnceLock::new(),
        };

        // Eager metadata: posting prefix counts + zone maps. These are what
        // planning and block skipping consult on every query, and they are
        // small (O(domain + n/64) values per attribute).
        let blocks = n.div_ceil(BLOCK);
        for attr in 0..m {
            let e = reader.entry(KIND_STARTS, cast::to_u32(attr), 0)?;
            let bytes = reader.read_entry(e)?;
            let payload = open_section(&bytes, KIND_STARTS)?;
            let starts = reader.decode_starts_section(attr, payload)?;
            reader.starts.push(starts);
        }
        if has_perm {
            let e = reader.entry(KIND_ZONES, 0, 0)?;
            let bytes = reader.read_entry(e)?;
            let payload = open_section(&bytes, KIND_ZONES)?;
            let mut cur = Reader::new(payload);
            for attr in 0..m {
                let mins = unpack_u32s(&mut cur)?;
                let maxs = unpack_u32s(&mut cur)?;
                if mins.len() != blocks || maxs.len() != blocks {
                    return Err(malformed(format!(
                        "zones[{attr}] cover {} blocks, expected {blocks}",
                        mins.len().max(maxs.len())
                    )));
                }
                reader.zone_mins.push(mins);
                reader.zone_maxs.push(maxs);
            }
            cur.finish()?;
        }
        Ok(reader)
    }

    // -- meta accessors ----------------------------------------------------

    /// Number of tuples in the segment.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The top-k constraint recorded at write time.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The schema recorded at write time.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Name of the ranking function the segment was written under.
    pub fn ranker_name(&self) -> &str {
        &self.ranker_name
    }

    /// `true` if the segment persists a rank permutation (the writing
    /// ranker exposed a deterministic total order).
    pub fn has_perm(&self) -> bool {
        self.has_perm
    }

    fn chunks(&self) -> usize {
        self.n.div_ceil(self.chunk)
    }

    fn chunk_len(&self, c: usize) -> usize {
        self.chunk.min(self.n - c * self.chunk)
    }

    // -- section plumbing --------------------------------------------------

    fn entry(&self, kind: u8, attr: u32, chunk: u32) -> Result<DirEntry, SegmentError> {
        self.by_key
            .get(&(kind, attr, chunk))
            .map(|&i| self.dir[i])
            .ok_or_else(|| {
                malformed(format!(
                    "missing section {}[attr {attr}, chunk {chunk}]",
                    kind_name(kind)
                ))
            })
    }

    fn read_entry(&self, e: DirEntry) -> Result<Vec<u8>, SegmentError> {
        let len = usize::try_from(e.len).map_err(|_| SegmentError::Truncated)?;
        let mut buf = vec![0u8; len];
        self.source.read_exact_at(e.offset, &mut buf)?;
        Ok(buf)
    }

    /// Decodes and fully validates one u32 chunk section payload — the one
    /// code path shared by query-time hydration, the compressed-scan decode
    /// fallback and [`SegmentReader::verify`], so a corrupt chunk surfaces
    /// with the same [`SegmentError`] payload wherever it is hit.
    fn decode_u32_section(
        &self,
        kind: u8,
        attr: u32,
        c: usize,
        expected_len: usize,
        payload: &[u8],
    ) -> Result<Vec<u32>, SegmentError> {
        let (vals, tag) = decode_u32_payload(payload, expected_len)?;
        if vals.len() != expected_len {
            return Err(malformed(format!(
                "section {}[{attr}, {c}] holds {} values, expected {expected_len}",
                kind_name(kind),
                vals.len()
            )));
        }
        match kind {
            KIND_PERM | KIND_RANK_OF | KIND_ORDER
                if vals.iter().any(|&v| cast::to_usize(v) >= self.n) =>
            {
                return Err(malformed(format!("{} value out of range", kind_name(kind))));
            }
            KIND_RANK_COL | KIND_STORE_COL => {
                let d = self.schema.attr(cast::to_usize(attr)).domain_size;
                if vals.iter().any(|&v| v >= d) {
                    return Err(malformed(format!(
                        "{}[{attr}] value outside the attribute domain",
                        kind_name(kind)
                    )));
                }
            }
            _ => {}
        }
        let counter = match tag {
            CODEC_FOR => &self.decoded_for,
            CODEC_DICT => &self.decoded_dict,
            _ => &self.decoded_rle,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(vals)
    }

    /// Decodes and validates one ids chunk payload (shared with `verify`).
    fn decode_ids_section(&self, c: usize, payload: &[u8]) -> Result<Vec<u64>, SegmentError> {
        let mut cur = Reader::new(payload);
        let vals = unpack_u64s(&mut cur)?;
        cur.finish()?;
        if vals.len() != self.chunk_len(c) {
            return Err(malformed(format!(
                "ids chunk {c} holds {} values, expected {}",
                vals.len(),
                self.chunk_len(c)
            )));
        }
        Ok(vals)
    }

    /// Decodes and validates one posting prefix-count payload (shared with
    /// `verify`).
    fn decode_starts_section(&self, attr: usize, payload: &[u8]) -> Result<Vec<u32>, SegmentError> {
        let mut cur = Reader::new(payload);
        let starts = unpack_u32s(&mut cur)?;
        cur.finish()?;
        let d = cast::to_usize(self.schema.attr(attr).domain_size);
        if starts.len() != d + 1 {
            return Err(malformed(format!(
                "starts[{attr}] has {} entries, expected {}",
                starts.len(),
                d + 1
            )));
        }
        if starts.first() != Some(&0)
            || starts.windows(2).any(|w| w[0] > w[1])
            || starts.last().copied() != Some(cast::to_u32(self.n))
        {
            return Err(malformed(format!(
                "starts[{attr}] is not a nondecreasing prefix-count table over n"
            )));
        }
        Ok(starts)
    }

    /// Opens, decodes and fully validates chunk `c` of the `(kind, attr)`
    /// stream from its section bytes, then narrows it (see [`Col`]).
    fn decode_col(&self, kind: u8, attr: u32, c: usize, bytes: &[u8]) -> Result<Col, SegmentError> {
        let payload = open_section(bytes, kind)?;
        Ok(if kind == KIND_IDS {
            Col::narrow(&self.decode_ids_section(c, payload)?)
        } else {
            Col::narrow(&self.decode_u32_section(kind, attr, c, self.chunk_len(c), payload)?)
        })
    }

    /// The stream's pinned chunk if it is chunk `c`; only a different chunk
    /// is fetched through the counted cache lookup (replacing the pin).
    fn pin<'a>(
        &'a self,
        pins: &'a mut ChunkPins,
        kind: u8,
        attr: u32,
        c: usize,
    ) -> Result<&'a Col, SegmentError> {
        // Kinds PERM..=IDS are consecutive: one slot per attribute each.
        let m = self.schema.len().max(1);
        let slot = usize::from(kind - KIND_PERM) * m + cast::to_usize(attr);
        if pins.slots.len() <= slot {
            let len = usize::from(KIND_IDS - KIND_PERM + 1) * m;
            // The empty slots share one placeholder allocation.
            pins.slots.resize(len, (usize::MAX, Col::default()));
        }
        let pin = &mut pins.slots[slot];
        if pin.0 != c {
            *pin = (c, self.col_chunk(kind, attr, c)?);
        }
        Ok(&pin.1)
    }

    /// One `u32` value out of a chunk, through [`SegmentReader::pin`].
    #[inline]
    fn u32_at(
        &self,
        pins: &mut ChunkPins,
        kind: u8,
        attr: u32,
        c: usize,
        i: usize,
    ) -> Result<u32, SegmentError> {
        Ok(cast::to_u32(self.pin(pins, kind, attr, c)?.get(i)))
    }

    /// Chunk `c` of the `(kind, attr)` stream through the counted cache
    /// lookup, decoded and inserted on a miss.
    fn col_chunk(&self, kind: u8, attr: u32, c: usize) -> Result<Col, SegmentError> {
        let key = ChunkKey {
            kind,
            attr,
            chunk: cast::to_u32(c),
        };
        if let Some(hit) = self.cache.get(shard_of(key), key) {
            return Ok(hit);
        }
        let bytes = self.read_entry(self.entry(kind, attr, key.chunk)?)?;
        let col = self.decode_col(kind, attr, c, &bytes)?;
        Ok(self.insert_col(key, col))
    }

    /// Inserts a decoded chunk at its real cost — `width × len +
    /// CHUNK_OVERHEAD` — and returns the resident copy.
    fn insert_col(&self, key: ChunkKey, col: Col) -> Col {
        let cost = col.bytes() + CHUNK_OVERHEAD;
        self.cache.insert(shard_of(key), key, col, cost)
    }

    /// Warms the cache with chunks `[first, last]` of `(kind, attr)` through
    /// one coalesced [`BlockSource::read_many`] — readahead for posting and
    /// rank-order walks that will touch the whole range anyway.
    fn prefetch_chunks(
        &self,
        kind: u8,
        attr: u32,
        first: usize,
        last: usize,
    ) -> Result<(), SegmentError> {
        let mut wanted: Vec<(usize, DirEntry)> = Vec::new();
        for c in first..=last {
            let key = ChunkKey {
                kind,
                attr,
                chunk: cast::to_u32(c),
            };
            if !self.cache.contains(shard_of(key), key) {
                wanted.push((c, self.entry(kind, attr, cast::to_u32(c))?));
            }
        }
        if wanted.len() < 2 {
            return Ok(());
        }
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(wanted.len());
        for (_, e) in &wanted {
            bufs.push(vec![
                0u8;
                usize::try_from(e.len)
                    .map_err(|_| SegmentError::Truncated)?
            ]);
        }
        {
            let mut reqs: Vec<(u64, &mut [u8])> = wanted
                .iter()
                .zip(bufs.iter_mut())
                .map(|((_, e), b)| (e.offset, b.as_mut_slice()))
                .collect();
            self.source.read_many(&mut reqs)?;
        }
        for ((c, _), bytes) in wanted.iter().zip(&bufs) {
            let col = self.decode_col(kind, attr, *c, bytes)?;
            self.cache.note_miss();
            let key = ChunkKey {
                kind,
                attr,
                chunk: cast::to_u32(*c),
            };
            self.insert_col(key, col);
        }
        Ok(())
    }

    // -- engine accessors --------------------------------------------------

    /// O(1) selectivity from the eager prefix counts — same contract as the
    /// RAM posting lists.
    pub(crate) fn range_count(&self, attr: usize, lo: Value, hi: Value) -> usize {
        if lo > hi {
            return 0;
        }
        let s = &self.starts[attr];
        cast::to_usize(s[cast::to_usize(hi) + 1] - s[cast::to_usize(lo)])
    }

    /// Zone-map bounds of rank block `b` on `attr` (eager).
    pub(crate) fn zone(&self, attr: usize, b: usize) -> (Value, Value) {
        (self.zone_mins[attr][b], self.zone_maxs[attr][b])
    }

    /// Store index of the tuple at rank `rank`.
    pub(crate) fn perm_at(&self, pins: &mut ChunkPins, rank: usize) -> Result<u32, SegmentError> {
        self.u32_at(pins, KIND_PERM, 0, rank / self.chunk, rank % self.chunk)
    }

    /// Rank position of the tuple at store index `idx`.
    pub(crate) fn rank_of_at(&self, pins: &mut ChunkPins, idx: usize) -> Result<u32, SegmentError> {
        self.u32_at(pins, KIND_RANK_OF, 0, idx / self.chunk, idx % self.chunk)
    }

    /// The `len` rank-ordered values of zone block `b` on `attr`, borrowed
    /// from the pinned chunk. Blocks never span chunks (the chunk
    /// size is a multiple of the block size).
    pub(crate) fn rank_col_block<'a>(
        &'a self,
        pins: &'a mut ChunkPins,
        attr: usize,
        b: usize,
        len: usize,
    ) -> Result<Lanes<'a>, SegmentError> {
        let base = b * BLOCK;
        let off = base % self.chunk;
        let chunk = self.pin(pins, KIND_RANK_COL, cast::to_u32(attr), base / self.chunk)?;
        Ok(chunk.lanes(off..off + len))
    }

    /// Value of the rank-`rank` tuple on `attr` (rank-ordered column).
    pub(crate) fn rank_value_at(
        &self,
        pins: &mut ChunkPins,
        attr: usize,
        rank: usize,
    ) -> Result<Value, SegmentError> {
        self.u32_at(
            pins,
            KIND_RANK_COL,
            cast::to_u32(attr),
            rank / self.chunk,
            rank % self.chunk,
        )
    }

    /// Value of the tuple at store index `idx` on `attr` (store-ordered
    /// column — never hydrates tuples).
    pub(crate) fn store_value_at(
        &self,
        pins: &mut ChunkPins,
        attr: usize,
        idx: usize,
    ) -> Result<Value, SegmentError> {
        self.u32_at(
            pins,
            KIND_STORE_COL,
            cast::to_u32(attr),
            idx / self.chunk,
            idx % self.chunk,
        )
    }

    /// `true` if this reader should answer exact-count scans in the
    /// compressed domain (the [`SegmentOpenOptions::with_compressed_filter`]
    /// knob).
    pub(crate) fn compressed_filter_enabled(&self) -> bool {
        self.options.compressed_filter
    }

    /// `true` if the decoded-chunk cache runs under a byte budget (and so
    /// may evict) rather than keeping every decoded chunk.
    pub(crate) fn cache_is_bounded(&self) -> bool {
        self.options.cache_budget.is_some()
    }

    /// Evaluates a conjunction of range constraints over every store-ordered
    /// chunk **in the compressed domain**: chunk sections are fetched in
    /// coalesced [`READAHEAD`]-sized batches through
    /// [`BlockSource::read_many`], pruned by their min/max headers, and the
    /// surviving packed words are tested branch-free — no decoded column is
    /// ever materialized and nothing enters the cache (a full counting scan
    /// must not evict the hot working set). Matching store indices are
    /// emitted in ascending order.
    pub(crate) fn filter_store_compressed(
        &self,
        cons: &[(usize, Value, Value)],
        words: &mut Vec<u64>,
        emit: &mut dyn FnMut(u32) -> Result<(), SegmentError>,
    ) -> Result<(), SegmentError> {
        let chunks = self.chunks();
        let mut batch = 0usize;
        while batch < chunks {
            let batch_end = (batch + READAHEAD).min(chunks);
            let per_attr = batch_end - batch;
            let mut entries: Vec<DirEntry> = Vec::with_capacity(cons.len() * per_attr);
            for &(attr, _, _) in cons {
                for c in batch..batch_end {
                    entries.push(self.entry(
                        KIND_STORE_COL,
                        cast::to_u32(attr),
                        cast::to_u32(c),
                    )?);
                }
            }
            let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(entries.len());
            for e in &entries {
                bufs.push(vec![
                    0u8;
                    usize::try_from(e.len)
                        .map_err(|_| SegmentError::Truncated)?
                ]);
            }
            {
                let mut reqs: Vec<(u64, &mut [u8])> = entries
                    .iter()
                    .zip(bufs.iter_mut())
                    .map(|(e, b)| (e.offset, b.as_mut_slice()))
                    .collect();
                self.source.read_many(&mut reqs)?;
            }
            for c in batch..batch_end {
                let len = self.chunk_len(c);
                let nwords = len.div_ceil(64);
                words.clear();
                words.resize(nwords, u64::MAX);
                if !len.is_multiple_of(64) {
                    words[nwords - 1] = (1u64 << (len % 64)) - 1;
                }
                for (ai, &(_, lo, hi)) in cons.iter().enumerate() {
                    let bytes = &bufs[ai * per_attr + (c - batch)];
                    let payload = open_section(bytes, KIND_STORE_COL)?;
                    eval_u32_payload(payload, lo, hi, len, words)?;
                    if words.iter().all(|&w| w == 0) {
                        break;
                    }
                }
                let base = cast::to_u32(c * self.chunk);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let lane = bits.trailing_zeros();
                        emit(base + (cast::to_u32(w)) * 64 + lane)?;
                        bits &= bits - 1;
                    }
                }
            }
            batch = batch_end;
        }
        Ok(())
    }

    /// Snapshot of the cache and codec counters.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats {
            cache_hits: self.cache.hit_count(),
            cache_misses: self.cache.miss_count(),
            cache_evictions: self.cache.eviction_count(),
            cache_bypasses: self.cache.bypass_count(),
            bytes_resident: self.cache.resident_bytes(),
            cache_budget: self.options.cache_budget,
            decoded_for: self.decoded_for.load(Ordering::Relaxed),
            decoded_dict: self.decoded_dict.load(Ordering::Relaxed),
            decoded_rle: self.decoded_rle.load(Ordering::Relaxed),
        }
    }

    /// Full-directory census of the u32 chunk codecs: which codec won each
    /// chunk and how the encoded bytes compare to raw, overall and per
    /// store column. Reads every chunk section header (O(file) I/O, no
    /// decoding).
    pub fn codec_census(&self) -> Result<CodecCensus, SegmentError> {
        let mut census = CodecCensus {
            store_cols: (0..self.schema.len())
                .map(|attr| CodecColumn {
                    attr,
                    ..CodecColumn::default()
                })
                .collect(),
            ..CodecCensus::default()
        };
        for e in &self.dir {
            if !matches!(
                e.kind,
                KIND_PERM | KIND_RANK_OF | KIND_RANK_COL | KIND_STORE_COL | KIND_ORDER
            ) {
                continue;
            }
            let bytes = self.read_entry(*e)?;
            let payload = open_section(&bytes, e.kind)?;
            let tag = Reader::new(payload).u8()?;
            if tag > CODEC_RLE {
                return Err(malformed(format!("undefined chunk codec tag {tag}")));
            }
            let raw = 4 * cast::to_u64(self.chunk_len(cast::to_usize(e.chunk)));
            census.chunks[cast::to_usize(tag)] += 1;
            census.encoded_bytes[cast::to_usize(tag)] += cast::to_u64(payload.len());
            census.raw_bytes[cast::to_usize(tag)] += raw;
            if e.kind == KIND_STORE_COL {
                let col = &mut census.store_cols[cast::to_usize(e.attr)];
                col.chunks[cast::to_usize(tag)] += 1;
                col.encoded_bytes += cast::to_u64(payload.len());
                col.raw_bytes += raw;
            }
        }
        Ok(census)
    }

    /// Walks the posting order of `attr` over the value range `[lo, hi]` —
    /// store indices in ascending store order per value bucket, exactly like
    /// the RAM posting lists. The callback gets the pin table back, so it
    /// can read other streams through it while the walk holds its chunk.
    pub(crate) fn for_posting(
        &self,
        pins: &mut ChunkPins,
        attr: usize,
        lo: Value,
        hi: Value,
        f: &mut dyn FnMut(&mut ChunkPins, u32) -> Result<(), SegmentError>,
    ) -> Result<(), SegmentError> {
        if lo > hi {
            return Ok(());
        }
        let s = &self.starts[attr];
        let p0 = cast::to_usize(s[cast::to_usize(lo)]);
        let p1 = cast::to_usize(s[cast::to_usize(hi) + 1]);
        if p0 >= p1 {
            return Ok(());
        }
        let a = cast::to_u32(attr);
        let first = p0 / self.chunk;
        let last = (p1 - 1) / self.chunk;
        if last > first {
            // Multi-chunk walk: warm the cache with one coalesced read.
            self.prefetch_chunks(KIND_ORDER, a, first, last)?;
        }
        for c in first..=last {
            let base = c * self.chunk;
            // One handle per chunk, so the callback can have the pins.
            let chunk = self.pin(pins, KIND_ORDER, a, c)?.clone();
            let range = p0.max(base) - base..p1.min(base + chunk.len()) - base;
            // The width is matched once per chunk, not once per value.
            match chunk.lanes(range) {
                Lanes::W8(v) => each_index(v, pins, f)?,
                Lanes::W16(v) => each_index(v, pins, f)?,
                Lanes::W32(v) => each_index(v, pins, f)?,
                Lanes::W64(v) => each_index(v, pins, f)?,
            }
        }
        Ok(())
    }

    /// The hydrated tuple at store index `idx` (served straight from the
    /// full-hydration snapshot if one exists), built from its id and its m
    /// store-column values read through `pins`: hydrating every tuple of a
    /// chunk costs m + 1 cache lookups, not m + 1 per tuple.
    pub(crate) fn tuple_at(
        &self,
        pins: &mut ChunkPins,
        idx: usize,
    ) -> Result<Arc<Tuple>, SegmentError> {
        if let Some(full) = self.full.get() {
            return Ok(Arc::clone(&full[idx]));
        }
        let (c, i) = (idx / self.chunk, idx % self.chunk);
        let id = self.pin(pins, KIND_IDS, 0, c)?.get(i);
        let values = (0..self.schema.len())
            .map(|attr| self.u32_at(pins, KIND_STORE_COL, cast::to_u32(attr), c, i))
            .collect::<Result<Vec<Value>, SegmentError>>()?;
        Ok(Arc::new(Tuple::new(id, values)))
    }

    /// Hydrates every tuple and returns the contiguous snapshot — the
    /// O(n) escape hatch behind [`TupleStore::as_slice`] for segment-backed
    /// stores (scan-strategy execution, oracle ground truth, dominance
    /// precomputation). The tuples are built chunk by chunk through one
    /// pin table. The snapshot is kept for the reader's lifetime and is
    /// deliberately exempt from the cache budget: callers receive a plain
    /// slice whose lifetime is the reader's.
    pub(crate) fn hydrate_all(&self) -> Result<&[Arc<Tuple>], SegmentError> {
        if let Some(full) = self.full.get() {
            return Ok(full);
        }
        let mut pins = ChunkPins::default();
        let all = (0..self.n)
            .map(|idx| self.tuple_at(&mut pins, idx))
            .collect::<Result<Box<[Arc<Tuple>]>, SegmentError>>()?;
        Ok(self.full.get_or_init(|| all))
    }

    // -- verification ------------------------------------------------------

    /// The full O(file) scrub: every section's envelope and checksum, every
    /// payload decoded and range-checked, the directory proven to tile the
    /// file contiguously (no unexamined gaps), and the permutation proven to
    /// be a permutation with its stored inverse. After `verify` succeeds,
    /// every byte of the file has been covered by a checksum.
    pub fn verify(&self) -> Result<(), SegmentError> {
        // Geometry: sections tile [0, footer_off), then footer, then trailer.
        let mut extents: Vec<(u64, u64)> = self.dir.iter().map(|e| (e.offset, e.len)).collect();
        extents.sort_unstable();
        let mut cursor = 0u64;
        for &(off, len) in &extents {
            if off != cursor {
                return Err(malformed(format!(
                    "directory leaves bytes [{cursor}, {off}) unaccounted for"
                )));
            }
            cursor = off
                .checked_add(len)
                .ok_or_else(|| malformed("section extent overflows"))?;
        }
        if cursor != self.footer_off {
            return Err(malformed(format!(
                "sections end at {cursor} but the footer starts at {}",
                self.footer_off
            )));
        }
        if self.footer_off + self.footer_len + cast::to_u64(TRAILER_LEN) != self.source.len() {
            return Err(malformed("footer/trailer do not tile to the file size"));
        }

        // Content: decode and range-check every section through the same
        // decode helpers query-time hydration uses, so a corrupt chunk
        // found here carries the exact error a query would surface.
        let n = self.n;
        let mut perm_all: Vec<u32> = Vec::new();
        let mut rank_of_all: Vec<u32> = Vec::new();
        for e in &self.dir {
            let bytes = self.read_entry(*e)?;
            let payload = open_section(&bytes, e.kind)?;
            match e.kind {
                KIND_ZONES => {
                    let mut cur = Reader::new(payload);
                    let blocks = n.div_ceil(BLOCK);
                    for _ in 0..self.schema.len() {
                        for vals in [unpack_u32s(&mut cur)?, unpack_u32s(&mut cur)?] {
                            if vals.len() != blocks {
                                return Err(malformed("zone table has the wrong block count"));
                            }
                        }
                    }
                    cur.finish()?;
                }
                KIND_STARTS => {
                    self.decode_starts_section(cast::to_usize(e.attr), payload)?;
                }
                KIND_IDS => {
                    self.decode_ids_section(cast::to_usize(e.chunk), payload)?;
                }
                kind => {
                    let c = cast::to_usize(e.chunk);
                    let vals =
                        self.decode_u32_section(kind, e.attr, c, self.chunk_len(c), payload)?;
                    if kind == KIND_PERM {
                        perm_all.resize(perm_all.len().max(n), 0);
                        let base = c * self.chunk;
                        perm_all[base..base + vals.len()].copy_from_slice(&vals);
                    }
                    if kind == KIND_RANK_OF {
                        rank_of_all.resize(rank_of_all.len().max(n), 0);
                        let base = c * self.chunk;
                        rank_of_all[base..base + vals.len()].copy_from_slice(&vals);
                    }
                }
            }
        }
        if self.has_perm {
            let mut seen = vec![false; n];
            for &idx in &perm_all {
                if std::mem::replace(&mut seen[cast::to_usize(idx)], true) {
                    return Err(malformed("perm is not a permutation"));
                }
            }
            for (idx, &rank) in rank_of_all.iter().enumerate() {
                if cast::to_usize(perm_all[cast::to_usize(rank)]) != idx {
                    return Err(malformed("rank_of is not the inverse of perm"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{CHECKSUM_LEN, HEADER_LEN};
    use crate::{Query, SchemaBuilder, SumRanker};

    #[test]
    fn bitpack_round_trips_every_width() {
        for width in 0..=32u32 {
            let max = if width == 0 { 0 } else { (1u64 << width) - 1 };
            let values: Vec<u32> = (0..137u64)
                .map(|i| ((i.wrapping_mul(0x9E37_79B9)) % (max + 1)) as u32 + 7)
                .collect();
            let mut bytes = Vec::new();
            pack_u32s(&values, &mut bytes);
            let mut cur = Reader::new(&bytes);
            let back = unpack_u32s(&mut cur).unwrap();
            cur.finish().unwrap();
            assert_eq!(back, values, "width {width}");
        }
        let values: Vec<u64> = (0..99).map(|i| u64::MAX - i * 12345).collect();
        let mut bytes = Vec::new();
        pack_u64s(&values, &mut bytes);
        let mut cur = Reader::new(&bytes);
        assert_eq!(unpack_u64s(&mut cur).unwrap(), values);
        cur.finish().unwrap();
    }

    #[test]
    fn bitpack_handles_empty_and_constant_runs() {
        for values in [vec![], vec![42u32; 1000]] {
            let mut bytes = Vec::new();
            pack_u32s(&values, &mut bytes);
            // Constant (or empty) runs cost exactly the 9-byte header.
            assert_eq!(bytes.len(), 9);
            let mut cur = Reader::new(&bytes);
            assert_eq!(unpack_u32s(&mut cur).unwrap(), values);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn envelope_rejections_are_typed() {
        let mut sealed = Vec::new();
        envelope::seal(ENVELOPE, KIND_PERM, b"payload", &mut sealed);
        assert_eq!(open_section(&sealed, KIND_PERM), Ok(&b"payload"[..]));
        assert_eq!(
            open_section(&sealed, KIND_ORDER),
            Err(SegmentError::WrongKind {
                expected: KIND_ORDER,
                found: KIND_PERM
            })
        );
        assert_eq!(
            open_section(&sealed[..3], KIND_PERM),
            Err(SegmentError::Truncated)
        );
        let mut foreign = sealed.clone();
        foreign[0] = b'X';
        assert_eq!(
            open_section(&foreign, KIND_PERM),
            Err(SegmentError::BadMagic)
        );
        let mut future = sealed.clone();
        future[4] = 9;
        assert_eq!(
            open_section(&future, KIND_PERM),
            Err(SegmentError::UnsupportedVersion { found: 9 })
        );
        let mut flipped = sealed.clone();
        let last = flipped.len() - 9;
        flipped[last] ^= 1;
        assert_eq!(
            open_section(&flipped, KIND_PERM),
            Err(SegmentError::ChecksumMismatch)
        );
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert_eq!(
            open_section(&trailing, KIND_PERM),
            Err(SegmentError::TrailingBytes)
        );
    }

    fn tiny_db() -> HiddenDb {
        let schema = SchemaBuilder::new()
            .ranking("a", 10, InterfaceType::Rq)
            .ranking("b", 10, InterfaceType::Sq)
            .filtering("f", 3)
            .build();
        let tuples: Vec<Tuple> = (0..150u64)
            .map(|i| {
                Tuple::new(
                    i,
                    vec![(i % 10) as u32, ((i * 7) % 10) as u32, (i % 3) as u32],
                )
            })
            .collect();
        HiddenDb::with_sum_ranking(schema, tuples, 4)
    }

    #[test]
    fn write_open_verify_round_trips() {
        let db = tiny_db();
        let bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&db)
            .expect("write");
        let reader = SegmentReader::open(Box::new(MemSource::new(bytes.clone()))).expect("open");
        reader.verify().expect("verify");
        assert_eq!(reader.n(), 150);
        assert_eq!(reader.k(), 4);
        assert!(reader.has_perm());
        assert_eq!(reader.ranker_name(), "sum");
        assert_eq!(reader.schema().len(), 3);
        // Writes are deterministic.
        let again = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn segment_backed_db_answers_like_the_ram_build() {
        let db = tiny_db();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        let seg =
            HiddenDb::open_segment_source(Box::new(MemSource::new(bytes)), Box::new(SumRanker))
                .expect("open");
        assert_eq!(seg.k(), db.k());
        assert_eq!(seg.n(), db.n());
        let queries = [
            Query::select_all(),
            Query::new(vec![crate::Predicate::lt(0, 4)]),
            Query::new(vec![crate::Predicate::eq(2, 1), crate::Predicate::ge(0, 6)]),
        ];
        for q in &queries {
            let a = db.query(q).unwrap();
            let b = seg.query(q).unwrap();
            assert_eq!(
                a.tuples.iter().map(|t| t.id).collect::<Vec<_>>(),
                b.tuples.iter().map(|t| t.id).collect::<Vec<_>>()
            );
            assert_eq!(a.overflowed, b.overflowed);
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let schema = SchemaBuilder::new()
            .ranking("a", 5, InterfaceType::Rq)
            .build();
        let db = HiddenDb::with_sum_ranking(schema, Vec::new(), 2);
        let bytes = SegmentWriter::new().write(&db).unwrap();
        let reader = SegmentReader::open(Box::new(MemSource::new(bytes.clone()))).unwrap();
        reader.verify().unwrap();
        assert_eq!(reader.n(), 0);
        let seg =
            HiddenDb::open_segment_source(Box::new(MemSource::new(bytes)), Box::new(SumRanker))
                .unwrap();
        let ans = seg.query(&Query::select_all()).unwrap();
        assert!(ans.is_empty());
        assert!(!ans.overflowed);
    }

    #[test]
    fn v2_codecs_round_trip_and_pick_smallest() {
        let dict_shaped: Vec<u32> = (0..512).map(|i| [5u32, 9_000, 1_000_000][i % 3]).collect();
        let rle_shaped: Vec<u32> = (0..512).map(|i| (i as u32 / 128) * 100).collect();
        let for_shaped: Vec<u32> = (0..512).map(|i| 1000 + i as u32).collect();
        for (vals, want_tag) in [
            (dict_shaped, CODEC_DICT),
            (rle_shaped, CODEC_RLE),
            (for_shaped, CODEC_FOR),
        ] {
            let mut payload = Vec::new();
            encode_u32_chunk(&vals, &mut payload);
            assert_eq!(payload[0], want_tag, "codec choice");
            let (back, tag) = decode_u32_payload(&payload, vals.len()).unwrap();
            assert_eq!(tag, want_tag);
            assert_eq!(back, vals);
        }
        // Empty chunks round-trip under the tie-break winner (FOR).
        let mut payload = Vec::new();
        encode_u32_chunk(&[], &mut payload);
        assert_eq!(decode_u32_payload(&payload, 0).unwrap().0, vec![]);
    }

    #[test]
    fn compressed_eval_matches_decoded_filter() {
        let shapes: [Vec<u32>; 4] = [
            (0..300).map(|i| [7u32, 450, 120_000][i % 3]).collect(),
            (0..300).map(|i| (i as u32 / 64) * 11 + 3).collect(),
            (0..300)
                .map(|i| (i as u64 * 0x9E37_79B9 % 1000) as u32)
                .collect(),
            vec![42; 300],
        ];
        let bounds = [
            (0u32, u32::MAX),
            (0, 6),
            (7, 7),
            (400, 500),
            (120_000, 120_000),
            (3, 990),
            (u32::MAX - 1, u32::MAX),
        ];
        for vals in &shapes {
            let nwords = vals.len().div_ceil(64);
            let tail = vals.len() % 64;
            // The tagged payload must agree with the hydrate-then-filter
            // reference on every bound.
            let mut payload = Vec::new();
            encode_u32_chunk(vals, &mut payload);
            for &(lo, hi) in &bounds {
                let mut words = vec![u64::MAX; nwords];
                if tail != 0 {
                    words[nwords - 1] = (1u64 << tail) - 1;
                }
                eval_u32_payload(&payload, lo, hi, vals.len(), &mut words).unwrap();
                for (i, &v) in vals.iter().enumerate() {
                    let bit = (words[i / 64] >> (i % 64)) & 1 == 1;
                    assert_eq!(
                        bit,
                        v >= lo && v <= hi,
                        "value {v} at {i} under [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn a_v1_segment_is_rejected_with_a_typed_error() {
        let mut bytes = SegmentWriter::new()
            .with_chunk_size(64)
            .write(&tiny_db())
            .unwrap();
        // The trailer locates the footer; patch its envelope's version field
        // (not covered by any checksum) from 2 to 1.
        let trailer = bytes.len() - TRAILER_LEN;
        let footer = usize::try_from(le_u64(&bytes[trailer + 8..trailer + 16])).unwrap();
        assert_eq!(bytes[footer + 4..footer + 6], SEGMENT_VERSION.to_le_bytes());
        bytes[footer + 4..footer + 6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            SegmentReader::open(Box::new(MemSource::new(bytes))).unwrap_err(),
            SegmentError::UnsupportedVersion { found: 1 }
        );
    }

    /// The query mix of the eviction tests over [`tiny_db`].
    fn thrash_queries() -> [Query; 5] {
        [
            Query::select_all(),
            Query::new(vec![crate::Predicate::lt(0, 4)]),
            Query::new(vec![crate::Predicate::lt(0, 9)]),
            Query::new(vec![crate::Predicate::eq(2, 1), crate::Predicate::ge(0, 6)]),
            Query::new(vec![crate::Predicate::eq(1, 3)]),
        ]
    }

    /// A budget that gives each cache shard room for exactly one full
    /// [`tiny_db`] chunk at 64 values per chunk. Every `tiny_db` value
    /// (column values, ranks, store indices, ids) is below 150, so every
    /// chunk narrows to `u8` and a full one costs 64 + [`CHUNK_OVERHEAD`]
    /// bytes; a short last chunk costs 22 + [`CHUNK_OVERHEAD`]. No chunk is
    /// bypassed, any two chunks in one shard overflow it, and the query
    /// mix below touches more distinct chunks than there are shards — so
    /// some shard must evict.
    fn one_chunk_per_shard() -> u64 {
        cast::to_u64(CACHE_SHARDS) * (64 + CHUNK_OVERHEAD)
    }

    #[test]
    fn bounded_cache_stays_byte_identical_and_evicts() {
        let db = tiny_db();
        db.enable_access_log();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        let queries = thrash_queries();
        // Budgets: unbounded reference, eviction-forcing, and the degenerate
        // decode-every-time budget 0 — all must answer identically.
        let reference = HiddenDb::open_segment_source(
            Box::new(MemSource::new(bytes.clone())),
            Box::new(SumRanker),
        )
        .unwrap();
        reference.enable_access_log();
        for budget in [one_chunk_per_shard(), 0] {
            let capped = HiddenDb::open_segment_source_with(
                Box::new(MemSource::new(bytes.clone())),
                Box::new(SumRanker),
                SegmentOpenOptions::new().with_cache_budget(budget),
            )
            .unwrap();
            capped.enable_access_log();
            for q in &queries {
                for _ in 0..3 {
                    let a = reference.query(q).unwrap();
                    let b = capped.query(q).unwrap();
                    assert_eq!(
                        a.tuples.iter().map(|t| t.id).collect::<Vec<_>>(),
                        b.tuples.iter().map(|t| t.id).collect::<Vec<_>>(),
                        "budget {budget}"
                    );
                    assert_eq!(a.overflowed, b.overflowed);
                }
            }
            let stats = capped.storage_stats().expect("segment-backed");
            assert_eq!(stats.cache_budget, Some(budget));
            assert!(
                stats.bytes_resident <= budget,
                "resident {} over budget {budget}",
                stats.bytes_resident
            );
            if budget > 0 {
                assert_eq!(stats.cache_bypasses, 0, "every chunk fits a shard");
                assert!(stats.cache_evictions > 0, "tiny budget must evict");
                assert!(stats.cache_hits > 0, "repeat queries must hit");
            }
        }
        let unbounded = reference.storage_stats().unwrap();
        assert_eq!(unbounded.cache_evictions, 0, "unbounded cache never evicts");
        assert_eq!(unbounded.cache_budget, None);
        assert!(unbounded.cache_hits > 0 && unbounded.cache_misses > 0);
    }

    #[test]
    fn storage_stats_stay_arithmetically_consistent_under_eviction_thrash() {
        let db = tiny_db();
        db.enable_access_log();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        let queries = thrash_queries();
        // A budget small enough that the query mix below keeps evicting:
        // the same thrash regime as `bounded_cache_stays_byte_identical_
        // and_evicts`, but here the subject is the counters themselves.
        let budget = one_chunk_per_shard();
        let capped = HiddenDb::open_segment_source_with(
            Box::new(MemSource::new(bytes)),
            Box::new(SumRanker),
            SegmentOpenOptions::new().with_cache_budget(budget),
        )
        .unwrap();
        capped.enable_access_log();
        let fresh = capped.storage_stats().expect("segment-backed");
        assert_eq!(fresh.cache_hits + fresh.cache_misses, 0);
        assert_eq!(fresh.cache_evictions, 0);
        assert_eq!(fresh.bytes_resident, 0);
        let mut prev = fresh;
        for round in 0..6 {
            for q in &queries {
                capped.query(q).unwrap();
                let s = capped.storage_stats().expect("segment-backed");
                // Lifetime counters only move forward.
                assert!(
                    s.cache_hits >= prev.cache_hits,
                    "hits regressed in round {round}"
                );
                assert!(s.cache_misses >= prev.cache_misses, "misses regressed");
                assert!(
                    s.cache_evictions >= prev.cache_evictions,
                    "evictions regressed"
                );
                assert!(s.decoded_for >= prev.decoded_for, "FOR decodes regressed");
                assert!(
                    s.decoded_dict >= prev.decoded_dict,
                    "DICT decodes regressed"
                );
                assert!(s.decoded_rle >= prev.decoded_rle, "RLE decodes regressed");
                // Every eviction removes an entry a miss previously decoded
                // and inserted, so evictions can never outrun misses.
                assert!(
                    s.cache_evictions <= s.cache_misses,
                    "evictions {} > misses {}",
                    s.cache_evictions,
                    s.cache_misses
                );
                // The byte budget holds at every observation point, not
                // just at the end of the workload.
                assert!(
                    s.bytes_resident <= budget,
                    "resident {} over budget {budget} in round {round}",
                    s.bytes_resident
                );
                assert_eq!(s.cache_budget, Some(budget));
                prev = s;
            }
        }
        assert!(
            prev.cache_evictions > 0,
            "the workload must actually thrash"
        );
        assert!(
            prev.cache_hits > 0,
            "repeat queries must still find entries"
        );
        assert!(
            prev.decoded_for + prev.decoded_dict + prev.decoded_rle > 0,
            "thrash re-decodes through the codecs"
        );
    }

    #[test]
    fn compressed_filter_matches_hydrated_execution_with_exact_counts() {
        let db = tiny_db();
        db.enable_access_log();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        // A bounded (but generous) cache makes the planner eligible for the
        // compressed path; the knob is what the A/B toggles.
        let on = HiddenDb::open_segment_source_with(
            Box::new(MemSource::new(bytes.clone())),
            Box::new(SumRanker),
            SegmentOpenOptions::new().with_cache_budget(1 << 20),
        )
        .unwrap();
        let off = HiddenDb::open_segment_source_with(
            Box::new(MemSource::new(bytes)),
            Box::new(SumRanker),
            SegmentOpenOptions::new()
                .with_cache_budget(1 << 20)
                .with_compressed_filter(false),
        )
        .unwrap();
        // The access log forces exact-count plans, which is where the broad
        // compressed scan replaces the posting walk.
        on.enable_access_log();
        off.enable_access_log();
        let queries = [
            Query::new(vec![crate::Predicate::lt(0, 9)]),
            Query::new(vec![crate::Predicate::eq(1, 1)]),
            Query::new(vec![crate::Predicate::lt(0, 3)]),
            Query::new(vec![crate::Predicate::eq(2, 2)]),
            Query::new(vec![crate::Predicate::eq(2, 1), crate::Predicate::ge(0, 2)]),
        ];
        for q in &queries {
            let a = db.query(q).unwrap();
            let b = on.query(q).unwrap();
            let c = off.query(q).unwrap();
            let ids = |r: &crate::QueryResponse| r.tuples.iter().map(|t| t.id).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&b), "{q}");
            assert_eq!(ids(&a), ids(&c), "{q}");
        }
        // Every backend logged the same exact match counts.
        let counts =
            |log: &crate::AccessLog| log.entries().iter().map(|e| e.matched).collect::<Vec<_>>();
        let ram_counts = counts(&db.access_log());
        assert_eq!(ram_counts, counts(&on.access_log()));
        assert_eq!(ram_counts, counts(&off.access_log()));
    }

    #[test]
    fn verify_and_query_report_the_same_corruption_error() {
        let db = tiny_db();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        let reader = SegmentReader::open(Box::new(MemSource::new(bytes.clone()))).unwrap();
        let e = reader.entry(KIND_STORE_COL, 0, 0).unwrap();
        // Poison the chunk's codec tag and re-seal the checksum so the
        // corruption reaches the codec layer on both paths.
        let mut poisoned = bytes;
        let payload_start = e.offset as usize + HEADER_LEN;
        let payload_end = (e.offset + e.len) as usize - CHECKSUM_LEN;
        poisoned[payload_start] = 7;
        let check = fnv1a64(&poisoned[payload_start..payload_end]);
        poisoned[payload_end..payload_end + CHECKSUM_LEN].copy_from_slice(&check.to_le_bytes());
        let poisoned_reader =
            SegmentReader::open(Box::new(MemSource::new(poisoned))).expect("footer intact");
        let verify_err = poisoned_reader.verify().unwrap_err();
        let query_err = poisoned_reader
            .store_value_at(&mut ChunkPins::default(), 0, 0)
            .unwrap_err();
        assert_eq!(verify_err, query_err);
        assert_eq!(
            verify_err,
            SegmentError::Malformed {
                detail: "undefined chunk codec tag 7".into()
            }
        );
    }

    /// The shape of the `pq_segment` benchmark: four point-interface
    /// attributes, the default 4,096-row chunks, and a cache budget of
    /// 0, 256 KiB, 1 MiB or none. Every answer matches the RAM build byte
    /// for byte, and a query makes at most one cache lookup per chunk of
    /// each stream it reads plus m + 1 per tuple it returns — never one per
    /// value it scans (a posting walk here scans well over a thousand
    /// values). Every value of this shape is narrow, so the whole working
    /// set fits 1 MiB and an `ids` chunk fits a 32 KiB shard.
    #[test]
    fn pinned_chunks_bound_cache_lookups_per_query() {
        // Equality on a0 or a1 is broad enough for the rank scan; on a2 or
        // a3 it is selective enough for the posting walk.
        let domains = [11u32, 12, 40, 64];
        let m = domains.len();
        let mut builder = SchemaBuilder::new();
        for (a, &d) in domains.iter().enumerate() {
            builder = builder.ranking(format!("a{a}"), d, InterfaceType::Pq);
        }
        let schema = builder.build();
        // Five chunks, the last one short.
        let n = 5 * DEFAULT_CHUNK - 100;
        let chunks = n.div_ceil(DEFAULT_CHUNK);
        let tuples: Vec<Tuple> = (0..n as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let values = domains
                    .iter()
                    .enumerate()
                    .map(|(a, &d)| ((h >> (13 * a + 7)) % u64::from(d)) as u32)
                    .collect();
                Tuple::new(i, values)
            })
            .collect();
        let db = HiddenDb::with_sum_ranking(schema, tuples, 10);
        let bytes = SegmentWriter::new().write(&db).unwrap();
        // A store-column chunk of small codes is one byte a value.
        let reader = SegmentReader::open_with(
            Box::new(MemSource::new(bytes.clone())),
            SegmentOpenOptions::new().with_cache_budget(1 << 20),
        )
        .unwrap();
        reader
            .store_value_at(&mut ChunkPins::default(), 0, 0)
            .unwrap();
        assert_eq!(reader.storage_stats().bytes_resident, 4096 + CHUNK_OVERHEAD);

        let eq = |a: usize, v: u32| crate::Predicate::eq(a, v);
        let mut queries = vec![Query::select_all()];
        for a in 0..m {
            queries.push(Query::new(vec![eq(a, 0)]));
            queries.push(Query::new(vec![eq(a, 3), eq((a + 1) % m, 2)]));
        }
        queries.push(Query::new(vec![eq(0, 1), eq(1, 1), eq(2, 1), eq(3, 1)]));
        // A grouped plan: four siblings sharing the prefix `a0 = 5`.
        let plan: Vec<Query> = (0..4)
            .map(|v| Query::new(vec![eq(0, 5), eq(1, v)]))
            .collect();

        // Perm, rank-of, and per attribute the rank column, the store
        // column and the posting order.
        let streams = 2 + 3 * m;
        let tuples_of =
            |r: &crate::QueryResponse| r.tuples.iter().map(|t| Tuple::clone(t)).collect::<Vec<_>>();
        for budget in [Some(0), Some(256 << 10), Some(1 << 20), None] {
            let options = match budget {
                Some(b) => SegmentOpenOptions::new().with_cache_budget(b),
                None => SegmentOpenOptions::new(),
            };
            let seg = HiddenDb::open_segment_source_with(
                Box::new(MemSource::new(bytes.clone())),
                Box::new(SumRanker),
                options,
            )
            .unwrap();
            let lookups = || {
                let s = seg.storage_stats().expect("segment-backed");
                s.cache_hits + s.cache_misses
            };
            // The access log forces exact-count plans (posting walks and,
            // under a budget, the compressed scan); without it broad
            // queries take the early-terminating rank scan.
            for log in [false, true] {
                if log {
                    seg.enable_access_log();
                }
                for q in &queries {
                    let before = lookups();
                    let got = seg.query(q).unwrap();
                    let used = lookups() - before;
                    let want = db.query(q).unwrap();
                    assert_eq!(tuples_of(&got), tuples_of(&want), "{q}, budget {budget:?}");
                    assert_eq!(got.overflowed, want.overflowed, "{q}");
                    let bound = streams * chunks + (m + 1) * got.tuples.len();
                    assert!(
                        used <= bound as u64,
                        "{q}, budget {budget:?}: {used} cache lookups, bound {bound}"
                    );
                }
                let before = lookups();
                let (got, err) = seg.session().run_plan(&plan);
                let used = lookups() - before;
                let (want, _) = db.session().run_plan(&plan);
                assert!(err.is_none());
                let returned: usize = got.iter().map(|r| r.tuples.len()).sum();
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(tuples_of(g), tuples_of(w), "plan, budget {budget:?}");
                }
                // The shared materialization plus each member's own plan.
                let bound = (plan.len() + 1) * streams * chunks + (m + 1) * returned;
                assert!(
                    used <= bound as u64,
                    "plan, budget {budget:?}: {used} cache lookups, bound {bound}"
                );
                if budget == Some(1 << 20) {
                    // The working set is resident: a repeat decodes nothing.
                    let misses = seg.storage_stats().unwrap().cache_misses;
                    for q in &queries {
                        seg.query(q).unwrap();
                    }
                    let repeat = seg.storage_stats().unwrap().cache_misses - misses;
                    assert_eq!(repeat, 0, "repeat pass under 1 MiB, log {log}");
                }
            }
            let stats = seg.storage_stats().unwrap();
            assert!(stats.bytes_resident <= budget.unwrap_or(u64::MAX));
            match budget {
                // Budget 0 caches nothing: every decoded chunk is a bypass.
                Some(0) => assert_eq!(stats.cache_bypasses, stats.cache_misses),
                _ => assert_eq!(stats.cache_bypasses, 0, "budget {budget:?}"),
            }
        }
    }

    /// Hydrating a whole chunk of tuples through one pin table looks each
    /// of its m + 1 streams (ids and the m store columns) up once, under
    /// every budget — including 0, where nothing stays resident and every
    /// lookup is a decoding miss.
    #[test]
    fn tuple_hydration_is_charged_per_chunk_not_per_tuple() {
        let db = tiny_db();
        let m = db.schema().len();
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        for budget in [None, Some(0), Some(1 << 20)] {
            let options = match budget {
                Some(b) => SegmentOpenOptions::new().with_cache_budget(b),
                None => SegmentOpenOptions::new(),
            };
            let reader =
                SegmentReader::open_with(Box::new(MemSource::new(bytes.clone())), options).unwrap();
            let mut pins = ChunkPins::default();
            // The second chunk, so the chunk-number arithmetic counts too.
            for idx in 64..128 {
                let t = reader.tuple_at(&mut pins, idx).unwrap();
                assert_eq!(
                    Tuple::clone(&t),
                    db.oracle_tuples()[idx],
                    "budget {budget:?}"
                );
            }
            let s = reader.storage_stats();
            assert_eq!(
                s.cache_hits + s.cache_misses,
                cast::to_u64(m + 1),
                "budget {budget:?}"
            );
        }
    }

    #[test]
    fn chunks_narrow_to_the_smallest_width_that_holds_them() {
        for (max, width) in [
            (0u64, 1u64),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (u64::from(u32::MAX), 4),
            (u64::from(u32::MAX) + 1, 8),
        ] {
            let vals = [max / 3, max, 0];
            let col = Col::narrow(&vals);
            assert_eq!(col.bytes(), width * 3, "max {max}");
            assert_eq!((0..3).map(|i| col.get(i)).collect::<Vec<_>>(), vals);
        }

        // The same boundaries through a segment: one 64-row chunk per
        // boundary, each charged `width × 64 + CHUNK_OVERHEAD` bytes.
        let tops = [255u32, 256, 65_535, 65_536];
        let id_tops = [
            65_535u64,
            65_599,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 64,
        ];
        let schema = SchemaBuilder::new()
            .ranking("a", 65_537, InterfaceType::Rq)
            .build();
        let tuples: Vec<Tuple> = (0..4 * 64u64)
            .map(|i| {
                let (c, j) = ((i / 64) as usize, i % 64);
                let v = if j == 0 { tops[c] } else { j as u32 };
                Tuple::new(id_tops[c] - j, vec![v])
            })
            .collect();
        let db = HiddenDb::with_sum_ranking(schema, tuples.clone(), 3);
        let bytes = SegmentWriter::new().with_chunk_size(64).write(&db).unwrap();
        let reader = SegmentReader::open_with(
            Box::new(MemSource::new(bytes)),
            SegmentOpenOptions::new().with_cache_budget(u64::MAX),
        )
        .unwrap();
        let checks = [(KIND_STORE_COL, [1u64, 2, 2, 4]), (KIND_IDS, [2, 4, 4, 8])];
        for (kind, widths) in checks {
            for (c, width) in widths.into_iter().enumerate() {
                let before = reader.storage_stats().bytes_resident;
                let col = reader.col_chunk(kind, 0, c).unwrap();
                let after = reader.storage_stats().bytes_resident;
                assert_eq!(after - before, width * 64 + CHUNK_OVERHEAD, "{kind}/{c}");
                for (i, t) in tuples[c * 64..(c + 1) * 64].iter().enumerate() {
                    let want = if kind == KIND_IDS {
                        t.id
                    } else {
                        u64::from(t.values[0])
                    };
                    assert_eq!(col.get(i), want);
                }
            }
        }
    }

    #[test]
    fn ranker_mismatch_is_rejected() {
        let db = tiny_db();
        let bytes = SegmentWriter::new().write(&db).unwrap();
        let err = HiddenDb::open_segment_source(
            Box::new(MemSource::new(bytes)),
            Box::new(crate::WorstCaseRanker),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SegmentError::RankerMismatch {
                expected: "sum".into(),
                found: "worst-case".into(),
            }
        );
    }
}
