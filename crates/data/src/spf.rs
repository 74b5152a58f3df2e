//! SPF — the Skyrise Portable Format: a columnar file format in the
//! spirit of Parquet/ORC (paper Sec. 3.2).
//!
//! Layout:
//!
//! ```text
//! +--------+----------------------+--------+-----------+--------+
//! | "SPF1" | column chunks ...    | footer | footerlen | "SPF1" |
//! +--------+----------------------+--------+-----------+--------+
//! ```
//!
//! * Data is split into **row groups**; each stores one encoded **chunk**
//!   per column, with min/max **zone maps** in the footer so scans can
//!   "read file metadata to identify relevant data and push down
//!   projections and selections".
//! * Encodings: zigzag-varint **delta** for integers/dates (decoded a
//!   `u64` word at a time), raw little-endian for floats, **dictionary**
//!   or raw for strings, bitmaps for booleans.
//! * The footer sits at the tail, so a remote reader needs exactly three
//!   ranged requests: tail trailer → footer → relevant column chunks.

use crate::columnar::{Batch, Column, DataType, Field, Schema, Value};
use bytes::Bytes;
use std::ops::Range;
use std::rc::Rc;

/// File magic, present at both ends.
pub const MAGIC: &[u8; 4] = b"SPF1";
/// Size of the tail trailer: u32 footer length + magic.
pub const TRAILER_LEN: u64 = 8;

/// Errors raised while decoding an SPF file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpfError {
    /// Missing or corrupt magic/trailer.
    NotAnSpfFile,
    /// Truncated or internally inconsistent data.
    Corrupt(&'static str),
    /// Projection references a field the schema lacks.
    UnknownColumn(String),
}

impl std::fmt::Display for SpfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpfError::NotAnSpfFile => write!(f, "not an SPF file"),
            SpfError::Corrupt(what) => write!(f, "corrupt SPF file: {what}"),
            SpfError::UnknownColumn(c) => write!(f, "unknown column {c}"),
        }
    }
}

impl std::error::Error for SpfError {}

/// Chunk encoding identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Zigzag-varint delta coding for integers/dates.
    DeltaVarint = 0,
    /// Raw little-endian 8-byte floats.
    FloatPlain = 1,
    /// Length-prefixed raw strings.
    Utf8Plain = 2,
    /// Dictionary + varint indices for low-cardinality strings.
    Utf8Dict = 3,
    /// One bit per value.
    BoolBitmap = 4,
}

impl Encoding {
    fn from_u8(v: u8) -> Result<Self, SpfError> {
        Ok(match v {
            0 => Encoding::DeltaVarint,
            1 => Encoding::FloatPlain,
            2 => Encoding::Utf8Plain,
            3 => Encoding::Utf8Dict,
            4 => Encoding::BoolBitmap,
            _ => return Err(SpfError::Corrupt("unknown encoding")),
        })
    }
}

/// Zone-map statistics of one column chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkStats {
    /// Smallest value in the chunk.
    pub min: Value,
    /// Largest value in the chunk.
    pub max: Value,
}

/// Location and metadata of one encoded column chunk.
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// How the chunk is encoded.
    pub encoding: Encoding,
    /// Rows in the chunk.
    pub rows: u32,
    /// Zone-map statistics, when available.
    pub stats: Option<ChunkStats>,
}

/// Metadata of one row group.
#[derive(Debug, Clone)]
pub struct RowGroupMeta {
    /// Rows in this group.
    pub rows: u32,
    /// One chunk per schema field, in order.
    pub chunks: Vec<ChunkMeta>,
}

/// The file footer: schema plus row-group directory.
#[derive(Debug, Clone)]
pub struct Footer {
    /// File schema.
    pub schema: Rc<Schema>,
    /// Row-group directory.
    pub row_groups: Vec<RowGroupMeta>,
}

impl Footer {
    /// Total row count.
    pub fn total_rows(&self) -> u64 {
        self.row_groups.iter().map(|rg| rg.rows as u64).sum()
    }
}

/// Marker introducing the bucket-index footer section (`"SBK1"` as a
/// little-endian u32). [`parse_footer`] stops after the row-group
/// directory, so pre-index readers skip the section transparently.
const BUCKET_INDEX_MAGIC: u32 = u32::from_le_bytes(*b"SBK1");
/// Version byte of the bucket-index section.
pub const BUCKET_INDEX_VERSION: u8 = 1;

/// One bucket's sub-segment within a bucket-indexed shuffle object: a
/// contiguous run of row groups plus the byte range their chunks span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketEntry {
    /// Rows across the bucket's row groups.
    pub rows: u64,
    /// Index of the bucket's first row group in the footer directory.
    pub first_group: u32,
    /// Number of consecutive row groups belonging to the bucket.
    pub n_groups: u32,
    /// First file byte of the bucket's chunk data.
    pub byte_start: u64,
    /// One past the last file byte of the bucket's chunk data
    /// (`byte_start == byte_end` for an empty bucket).
    pub byte_end: u64,
}

/// The per-bucket sub-segment directory of a bucket-indexed shuffle
/// object, carried as a versioned section appended inside the footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketIndex {
    /// One entry per bucket, in bucket order.
    pub buckets: Vec<BucketEntry>,
}

impl BucketIndex {
    /// The row-group directory slice belonging to `bucket`.
    pub fn row_groups<'a>(&self, footer: &'a Footer, bucket: usize) -> &'a [RowGroupMeta] {
        let e = &self.buckets[bucket];
        &footer.row_groups[e.first_group as usize..(e.first_group + e.n_groups) as usize]
    }
}

// ---------------------------------------------------------------------------
// primitive encoding helpers
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The continuation bit of each of a word's eight varint bytes.
const CONTINUE: u64 = 0x8080_8080_8080_8080;

/// The seven payload bits of each of a word's eight varint bytes, as 56
/// contiguous bits.
fn compact7(mut v: u64) -> u64 {
    v = ((v & 0x7f00_7f00_7f00_7f00) >> 1) | (v & 0x007f_007f_007f_007f);
    v = ((v & 0x3fff_0000_3fff_0000) >> 2) | (v & 0x0000_3fff_0000_3fff);
    ((v & 0x0fff_ffff_0000_0000) >> 4) | (v & 0x0000_0000_0fff_ffff)
}

/// A bounds-checked little-endian reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SpfError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SpfError::Corrupt("unexpected end of buffer"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SpfError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SpfError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, SpfError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, SpfError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, SpfError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn varint(&mut self) -> Result<u64, SpfError> {
        // At most ten bytes carry 64 bits; scanning the remaining slice
        // checks the bound once per value instead of once per byte.
        let rest = &self.buf[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(10).enumerate() {
            v |= ((b & 0x7f) as u64) << (7 * i);
            if b & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(SpfError::Corrupt(if rest.len() < 10 {
            "unexpected end of buffer"
        } else {
            "varint overflow"
        }))
    }

    fn string(&mut self) -> Result<String, SpfError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SpfError::Corrupt("invalid utf8"))
    }
}

// ---------------------------------------------------------------------------
// column chunk encode/decode
// ---------------------------------------------------------------------------

/// Append the encoding of `col[rows]` to `out`.
fn encode_column(
    col: &Column,
    rows: Range<usize>,
    out: &mut Vec<u8>,
) -> (Encoding, Option<ChunkStats>) {
    match col {
        Column::Int64(v) => {
            let v = &v[rows];
            // Varints land in a block on the stack by index and reach `out`
            // one `extend` per block: no capacity check per byte. One or
            // two bytes, nearly every delta, are one branch-free store;
            // min/max fold in the same pass.
            const BLOCK: usize = 64;
            let mut block = [0u8; BLOCK * 10];
            let (mut prev, mut lo, mut hi) = (0i64, i64::MAX, i64::MIN);
            for values in v.chunks(BLOCK) {
                let mut n = 0;
                for &x in values {
                    (lo, hi) = (lo.min(x), hi.max(x));
                    let mut z = zigzag(x.wrapping_sub(prev));
                    prev = x;
                    while z >= 1 << 14 {
                        block[n] = z as u8 | 0x80;
                        (n, z) = (n + 1, z >> 7);
                    }
                    let two = z >= 0x80;
                    let pair = (z & 0x7f) as u16 | (two as u16) << 7 | (z as u16 >> 7) << 8;
                    block[n..n + 2].copy_from_slice(&pair.to_le_bytes());
                    n += 1 + two as usize;
                }
                out.extend_from_slice(&block[..n]);
            }
            let stats = (!v.is_empty()).then_some(ChunkStats {
                min: Value::Int64(lo),
                max: Value::Int64(hi),
            });
            (Encoding::DeltaVarint, stats)
        }
        Column::Float64(v) => {
            let v = &v[rows];
            out.reserve(v.len() * 8);
            for &x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            let stats = v
                .iter()
                .copied()
                .filter(|x| !x.is_nan())
                .fold(None::<(f64, f64)>, |acc, x| {
                    Some(acc.map_or((x, x), |(lo, hi)| (lo.min(x), hi.max(x))))
                });
            (
                Encoding::FloatPlain,
                stats.map(|(lo, hi)| ChunkStats {
                    min: Value::Float64(lo),
                    max: Value::Float64(hi),
                }),
            )
        }
        Column::Utf8(v) => {
            let v = &v[rows];
            // Dictionary-encode when it pays off. The dictionary keeps
            // first-occurrence order (part of the emitted bytes); the map
            // only accelerates the position lookup, made once per string
            // and kept in `codes` for the emit pass.
            let mut dict: Vec<&str> = Vec::new();
            let mut index: std::collections::BTreeMap<&str, u64> =
                std::collections::BTreeMap::new();
            let mut codes: Vec<u64> = Vec::with_capacity(v.len());
            let mut distinct_small = true;
            for s in v {
                let code = *index.entry(s.as_str()).or_insert_with(|| {
                    dict.push(s);
                    dict.len() as u64 - 1
                });
                codes.push(code);
                if dict.len() > 256 || dict.len() * 2 > v.len().max(8) {
                    distinct_small = false;
                    break;
                }
            }
            let stats = {
                let mut it = v.iter();
                it.next().map(|first| {
                    let (mut lo, mut hi) = (first, first);
                    for s in v {
                        if s < lo {
                            lo = s;
                        }
                        if s > hi {
                            hi = s;
                        }
                    }
                    ChunkStats {
                        min: Value::Utf8(lo.clone()),
                        max: Value::Utf8(hi.clone()),
                    }
                })
            };
            if distinct_small && !v.is_empty() {
                put_u32(out, dict.len() as u32);
                for s in &dict {
                    put_u32(out, s.len() as u32);
                    out.extend_from_slice(s.as_bytes());
                }
                for code in codes {
                    put_varint(out, code);
                }
                (Encoding::Utf8Dict, stats)
            } else {
                for s in v {
                    put_u32(out, s.len() as u32);
                    out.extend_from_slice(s.as_bytes());
                }
                (Encoding::Utf8Plain, stats)
            }
        }
        Column::Bool(v) => {
            let v = &v[rows];
            let base = out.len();
            out.resize(base + v.len().div_ceil(8), 0);
            for (i, &b) in v.iter().enumerate() {
                if b {
                    out[base + i / 8] |= 1 << (i % 8);
                }
            }
            (Encoding::BoolBitmap, None)
        }
    }
}

/// Decode one encoded chunk; a `Utf8Dict` chunk also surfaces its
/// dictionary under the condition [`decode_chunk_with_dict`] documents.
fn decode_column(
    buf: &[u8],
    encoding: Encoding,
    rows: usize,
) -> Result<(Column, Option<Vec<String>>), SpfError> {
    // The fewest bytes `rows` values can take: no footer makes a decoder
    // allocate, or the word-at-a-time loop trust, more than the chunk holds.
    let min_len = match encoding {
        Encoding::DeltaVarint | Encoding::Utf8Dict => rows,
        Encoding::FloatPlain => rows.saturating_mul(8),
        Encoding::Utf8Plain => rows.saturating_mul(4),
        Encoding::BoolBitmap => rows.div_ceil(8),
    };
    if buf.len() < min_len {
        return Err(SpfError::Corrupt("unexpected end of buffer"));
    }
    let mut cur = Cursor::new(buf);
    let mut sorted_dict = None;
    let column = match encoding {
        Encoding::DeltaVarint => {
            let mut out = Vec::with_capacity(rows);
            let mut prev = 0i64;
            let mut next = |delta: u64| {
                prev = prev.wrapping_add(unzigzag(delta));
                prev
            };
            while out.len() < rows {
                let word = buf.get(cur.pos..cur.pos + 8);
                let word = word.map(|w| u64::from_le_bytes(w.try_into().expect("8")));
                match word.map(|w| (w, !w & CONTINUE)) {
                    // Eight one-byte varints in one load.
                    Some((w, CONTINUE)) if rows - out.len() >= 8 => {
                        out.extend_from_slice(&w.to_le_bytes().map(|b| next(b as u64)));
                        cur.pos += 8;
                    }
                    // Every varint that ends inside the word: `ends` holds
                    // a bit per last byte, lowest first.
                    Some((w, mut ends)) if ends != 0 => {
                        let mut start = 0;
                        while ends != 0 && out.len() < rows {
                            let end = ends.trailing_zeros() + 1;
                            out.push(next(compact7((w << (64 - end)) >> (64 - end + start))));
                            (ends, start) = (ends & (ends - 1), end);
                        }
                        cur.pos += start as usize / 8;
                    }
                    // Nine or ten bytes, the last seven of the chunk, damage.
                    _ => out.push(next(cur.varint()?)),
                }
            }
            Column::Int64(out)
        }
        Encoding::FloatPlain => {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                out.push(cur.f64()?);
            }
            Column::Float64(out)
        }
        Encoding::Utf8Plain => {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                out.push(cur.string()?);
            }
            Column::Utf8(out)
        }
        Encoding::Utf8Dict => {
            let n = cur.u32()? as usize;
            let mut dict = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                dict.push(cur.string()?);
            }
            let mut referenced = vec![false; n];
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                let idx = cur.varint()? as usize;
                let s = dict
                    .get(idx)
                    .ok_or(SpfError::Corrupt("dict index out of range"))?;
                referenced[idx] = true;
                out.push(s.clone());
            }
            if referenced.iter().all(|&r| r) {
                dict.sort_unstable();
                dict.dedup();
                sorted_dict = Some(dict);
            }
            Column::Utf8(out)
        }
        Encoding::BoolBitmap => {
            let bytes = cur.bytes(rows.div_ceil(8))?;
            let mut out = Vec::with_capacity(rows);
            for i in 0..rows {
                out.push(bytes[i / 8] & (1 << (i % 8)) != 0);
            }
            Column::Bool(out)
        }
    };
    Ok((column, sorted_dict))
}

fn put_stats(out: &mut Vec<u8>, stats: &Option<ChunkStats>) {
    match stats {
        None => out.push(0),
        Some(s) => {
            match (&s.min, &s.max) {
                (Value::Int64(lo), Value::Int64(hi)) => {
                    out.push(1);
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                }
                (Value::Float64(lo), Value::Float64(hi)) => {
                    out.push(2);
                    out.extend_from_slice(&lo.to_le_bytes());
                    out.extend_from_slice(&hi.to_le_bytes());
                }
                (Value::Utf8(lo), Value::Utf8(hi)) => {
                    out.push(3);
                    put_u32(out, lo.len() as u32);
                    out.extend_from_slice(lo.as_bytes());
                    put_u32(out, hi.len() as u32);
                    out.extend_from_slice(hi.as_bytes());
                }
                _ => out.push(0),
            };
        }
    }
}

fn read_stats(cur: &mut Cursor<'_>) -> Result<Option<ChunkStats>, SpfError> {
    Ok(match cur.u8()? {
        0 => None,
        1 => Some(ChunkStats {
            min: Value::Int64(cur.i64()?),
            max: Value::Int64(cur.i64()?),
        }),
        2 => Some(ChunkStats {
            min: Value::Float64(cur.f64()?),
            max: Value::Float64(cur.f64()?),
        }),
        3 => Some(ChunkStats {
            min: Value::Utf8(cur.string()?),
            max: Value::Utf8(cur.string()?),
        }),
        _ => return Err(SpfError::Corrupt("bad stats tag")),
    })
}

// ---------------------------------------------------------------------------
// writer / reader
// ---------------------------------------------------------------------------

/// Append `batch[rows]` to `file` as row groups of `rows_per_group`,
/// recording their directory entries. `force_group` emits one empty row
/// group for an empty range (legacy `write` behaviour) instead of none.
fn encode_row_groups(
    file: &mut Vec<u8>,
    batch: &Batch,
    rows: Range<usize>,
    rows_per_group: usize,
    force_group: bool,
    row_groups: &mut Vec<RowGroupMeta>,
) {
    let mut start = rows.start;
    while start < rows.end || (rows.is_empty() && force_group) {
        let end = (start + rows_per_group).min(rows.end);
        let group_rows = (end - start) as u32;
        let mut chunks = Vec::with_capacity(batch.columns.len());
        for col in &batch.columns {
            let offset = file.len();
            let (encoding, stats) = encode_column(col, start..end, file);
            chunks.push(ChunkMeta {
                offset: offset as u64,
                len: (file.len() - offset) as u64,
                encoding,
                rows: group_rows,
                stats,
            });
        }
        row_groups.push(RowGroupMeta {
            rows: group_rows,
            chunks,
        });
        if rows.is_empty() {
            break;
        }
        start = end;
    }
}

/// Serialise the footer body: schema plus row-group directory.
fn encode_footer(schema: &Schema, row_groups: &[RowGroupMeta]) -> Vec<u8> {
    let mut footer = Vec::new();
    put_u32(&mut footer, schema.len() as u32);
    for f in &schema.fields {
        put_u32(&mut footer, f.name.len() as u32);
        footer.extend_from_slice(f.name.as_bytes());
        footer.push(match f.data_type {
            DataType::Int64 => 0,
            DataType::Float64 => 1,
            DataType::Utf8 => 2,
            DataType::Bool => 3,
            DataType::Date => 4,
        });
    }
    put_u32(&mut footer, row_groups.len() as u32);
    for rg in row_groups {
        put_u32(&mut footer, rg.rows);
        put_u32(&mut footer, rg.chunks.len() as u32);
        for c in &rg.chunks {
            put_u64(&mut footer, c.offset);
            put_u64(&mut footer, c.len);
            footer.push(c.encoding as u8);
            put_u32(&mut footer, c.rows);
            put_stats(&mut footer, &c.stats);
        }
    }
    footer
}

/// Append footer + trailer to a file body.
fn seal(mut file: Vec<u8>, footer: Vec<u8>) -> Bytes {
    let footer_len = footer.len() as u32;
    file.extend_from_slice(&footer);
    file.extend_from_slice(&footer_len.to_le_bytes());
    file.extend_from_slice(MAGIC);
    Bytes::from(file)
}

/// Encode batches into an SPF file, re-chunking to `rows_per_group`.
pub fn write(batches: &[Batch], rows_per_group: usize) -> Bytes {
    match batches {
        [] => panic!("write needs at least one batch"),
        [one] => write_rows(one, 0..one.num_rows(), rows_per_group),
        many => {
            let all = Batch::concat(many);
            write_rows(&all, 0..all.num_rows(), rows_per_group)
        }
    }
}

/// [`write()`] for the rows `rows` of one batch, without materialising them:
/// the bytes `write(&[batch.slice(rows.start, rows.end)], rows_per_group)`
/// would produce.
pub fn write_rows(batch: &Batch, rows: Range<usize>, rows_per_group: usize) -> Bytes {
    assert!(rows_per_group > 0, "rows_per_group must be positive");
    let mut file = Vec::new();
    file.extend_from_slice(MAGIC);
    let mut row_groups = Vec::new();
    encode_row_groups(
        &mut file,
        batch,
        rows,
        rows_per_group,
        true,
        &mut row_groups,
    );
    let footer = encode_footer(&batch.schema, &row_groups);
    seal(file, footer)
}

/// Encode a bucket-indexed shuffle segment: one SPF object multiplexing
/// several buckets, each laid out as its own contiguous run of row groups,
/// with a versioned per-bucket directory appended inside the footer.
///
/// A consumer that parses the footer via [`parse_footer_indexed`] can
/// fetch exactly its bucket's byte range; a consumer on the plain
/// [`read_all`] path decodes every bucket's row groups in file order
/// (the index section is ignored as trailing footer bytes). Empty buckets
/// occupy zero row groups and zero data bytes.
pub fn write_bucketed(buckets: &[Batch], rows_per_group: usize) -> Bytes {
    write_bucketed_rotated(buckets, rows_per_group, 0)
}

/// [`write_bucketed`] with the file order of the buckets rotated left by
/// `rotation` positions (bucket `rotation` is written first). The bucket
/// directory is still indexed by bucket id, so readers are oblivious to
/// the layout — but a writer fleet that rotates by its own fragment id
/// spreads each consumer's bucket across file positions, so no consumer
/// sits at the front of *every* segment and suffix reads stay balanced.
pub fn write_bucketed_rotated(buckets: &[Batch], rows_per_group: usize, rotation: usize) -> Bytes {
    assert!(rows_per_group > 0, "rows_per_group must be positive");
    let schema = buckets
        .first()
        .map(|b| Rc::clone(&b.schema))
        .expect("write_bucketed needs at least one bucket");
    let n = buckets.len();
    let mut file = Vec::new();
    file.extend_from_slice(MAGIC);
    let mut row_groups = Vec::new();
    let mut entries: Vec<Option<BucketEntry>> = vec![None; n];
    for position in 0..n {
        let id = (position + rotation) % n;
        let bucket = &buckets[id];
        let first_group = row_groups.len() as u32;
        let byte_start = file.len() as u64;
        let rows = 0..bucket.num_rows();
        encode_row_groups(
            &mut file,
            bucket,
            rows,
            rows_per_group,
            false,
            &mut row_groups,
        );
        entries[id] = Some(BucketEntry {
            rows: bucket.num_rows() as u64,
            first_group,
            n_groups: row_groups.len() as u32 - first_group,
            byte_start,
            byte_end: file.len() as u64,
        });
    }
    let entries: Vec<BucketEntry> = entries.into_iter().map(|e| e.expect("filled")).collect();
    let mut footer = encode_footer(&schema, &row_groups);
    put_u32(&mut footer, BUCKET_INDEX_MAGIC);
    footer.push(BUCKET_INDEX_VERSION);
    put_u32(&mut footer, entries.len() as u32);
    for e in &entries {
        put_u64(&mut footer, e.rows);
        put_u32(&mut footer, e.first_group);
        put_u32(&mut footer, e.n_groups);
        put_u64(&mut footer, e.byte_start);
        put_u64(&mut footer, e.byte_end);
    }
    seal(file, footer)
}

/// Parse the footer given the full file (local path).
pub fn read_footer(file: &[u8]) -> Result<Footer, SpfError> {
    if file.len() < 16 || &file[..4] != MAGIC || &file[file.len() - 4..] != MAGIC {
        return Err(SpfError::NotAnSpfFile);
    }
    let footer_len = u32::from_le_bytes(
        file[file.len() - 8..file.len() - 4]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let footer_end = file.len() - 8;
    let footer_start = footer_end
        .checked_sub(footer_len)
        .ok_or(SpfError::Corrupt("footer length exceeds file"))?;
    parse_footer(&file[footer_start..footer_end])
}

/// The byte range `[start, len)` of the footer, derived from the 8-byte
/// trailer — what a remote reader fetches second.
pub fn footer_range(trailer: &[u8], file_len: u64) -> Result<(u64, u64), SpfError> {
    if trailer.len() != TRAILER_LEN as usize || &trailer[4..] != MAGIC {
        return Err(SpfError::NotAnSpfFile);
    }
    let footer_len = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes")) as u64;
    let start = file_len
        .checked_sub(TRAILER_LEN + footer_len)
        .ok_or(SpfError::Corrupt("footer length exceeds file"))?;
    Ok((start, footer_len))
}

/// Parse footer bytes (as fetched via [`footer_range`]). Stops after the
/// row-group directory; trailing section bytes (e.g. a bucket index) are
/// ignored.
pub fn parse_footer(buf: &[u8]) -> Result<Footer, SpfError> {
    let mut cur = Cursor::new(buf);
    parse_footer_body(&mut cur)
}

/// Parse footer bytes together with the bucket-index section, when one is
/// present ([`write_bucketed`] objects carry it; plain [`write()`] objects
/// return `None`).
pub fn parse_footer_indexed(buf: &[u8]) -> Result<(Footer, Option<BucketIndex>), SpfError> {
    let mut cur = Cursor::new(buf);
    let footer = parse_footer_body(&mut cur)?;
    // Anything other than a well-formed, version-compatible index section
    // degrades to "no index": older/foreign writers may append sections
    // this reader does not know.
    let index = (|| {
        let mut cur = cur;
        if cur.u32().ok()? != BUCKET_INDEX_MAGIC || cur.u8().ok()? != BUCKET_INDEX_VERSION {
            return None;
        }
        let n = cur.u32().ok()? as usize;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            let e = BucketEntry {
                rows: cur.u64().ok()?,
                first_group: cur.u32().ok()?,
                n_groups: cur.u32().ok()?,
                byte_start: cur.u64().ok()?,
                byte_end: cur.u64().ok()?,
            };
            let end = e.first_group.checked_add(e.n_groups)? as usize;
            if end > footer.row_groups.len() || e.byte_start > e.byte_end {
                return None;
            }
            buckets.push(e);
        }
        Some(BucketIndex { buckets })
    })();
    Ok((footer, index))
}

fn parse_footer_body(cur: &mut Cursor<'_>) -> Result<Footer, SpfError> {
    let n_fields = cur.u32()? as usize;
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        let name = cur.string()?;
        let dtype = match cur.u8()? {
            0 => DataType::Int64,
            1 => DataType::Float64,
            2 => DataType::Utf8,
            3 => DataType::Bool,
            4 => DataType::Date,
            _ => return Err(SpfError::Corrupt("bad data type")),
        };
        fields.push(Field {
            name,
            data_type: dtype,
        });
    }
    let n_groups = cur.u32()? as usize;
    let mut row_groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let rows = cur.u32()?;
        let n_chunks = cur.u32()? as usize;
        if n_chunks != n_fields {
            return Err(SpfError::Corrupt("chunk count != field count"));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            chunks.push(ChunkMeta {
                offset: cur.u64()?,
                len: cur.u64()?,
                encoding: Encoding::from_u8(cur.u8()?)?,
                rows: cur.u32()?,
                stats: read_stats(cur)?,
            });
        }
        row_groups.push(RowGroupMeta { rows, chunks });
    }
    Ok(Footer {
        schema: Schema::new(fields),
        row_groups,
    })
}

/// Decode one column chunk fetched from `[meta.offset, meta.len)`.
pub fn decode_chunk(meta: &ChunkMeta, data: &[u8]) -> Result<Column, SpfError> {
    decode_chunk_with_dict(meta, data).map(|(column, _)| column)
}

/// Decode one column chunk like [`decode_chunk`], additionally surfacing
/// the chunk's string dictionary, sorted and deduplicated, when the chunk
/// is dictionary-encoded **and** every dictionary entry is referenced by
/// at least one row. Under that condition the returned dictionary equals
/// the sorted distinct values of the decoded column, so a consumer can
/// hand it straight to an engine-side dictionary cache without re-sorting
/// the rows. (Our writer only emits referenced entries; the reference
/// check guards against foreign files.)
pub fn decode_chunk_with_dict(
    meta: &ChunkMeta,
    data: &[u8],
) -> Result<(Column, Option<Vec<String>>), SpfError> {
    if data.len() as u64 != meta.len {
        return Err(SpfError::Corrupt("chunk length mismatch"));
    }
    decode_column(data, meta.encoding, meta.rows as usize)
}

/// Decode the `proj` columns of `row_groups` out of `window`, the file
/// bytes from offset `base` on: the whole file at base 0, or whatever a
/// ranged reader fetched (one bucket's byte range, a suffix). Returns one
/// batch per row group, plus the dictionaries their `Utf8Dict` chunks
/// surfaced ([`decode_chunk_with_dict`]) as `(batch, projected column,
/// sorted dictionary)`. A chunk the footer places outside the window is
/// [`SpfError::Corrupt`], never an out-of-bounds slice.
#[allow(
    clippy::type_complexity,
    reason = "one tuple, spelled out in the doc above"
)]
pub fn decode_row_groups<'a>(
    footer: &Footer,
    row_groups: impl IntoIterator<Item = &'a RowGroupMeta>,
    proj: &[usize],
    base: u64,
    window: &[u8],
) -> Result<(Vec<Batch>, Vec<(usize, usize, Vec<String>)>), SpfError> {
    let schema = footer.schema.project(proj);
    let (mut batches, mut dicts) = (Vec::new(), Vec::new());
    for rg in row_groups {
        let mut columns = Vec::with_capacity(proj.len());
        for (col, &i) in proj.iter().enumerate() {
            let c = &rg.chunks[i];
            let data = c
                .offset
                .checked_sub(base)
                .and_then(|a| window.get(a as usize..a.checked_add(c.len)? as usize))
                .ok_or(SpfError::Corrupt("chunk outside the fetched window"))?;
            let (column, dict) = decode_chunk_with_dict(c, data)?;
            dicts.extend(dict.map(|d| (batches.len(), col, d)));
            columns.push(column);
        }
        batches.push(Batch::new(Rc::clone(&schema), columns));
    }
    Ok((batches, dicts))
}

fn unknown_column(name: &str) -> SpfError {
    SpfError::UnknownColumn(name.to_string())
}

/// Read the whole file into batches (one per row group).
pub fn read_all(file: &[u8], projection: Option<&[String]>) -> Result<Vec<Batch>, SpfError> {
    let footer = read_footer(file)?;
    let proj = footer
        .schema
        .indices_of(projection)
        .map_err(unknown_column)?;
    Ok(decode_row_groups(&footer, &footer.row_groups, &proj, 0, file)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{date, Field};
    use proptest::prelude::*;

    #[test]
    fn delta_varint_round_trips_extremes_and_rejects_damage() {
        let values = vec![0, -1, 1, i64::MAX, i64::MIN, 127, 128, -64, -65, 1 << 35];
        let mut bytes = Vec::new();
        let column = Column::Int64(values.clone());
        let (encoding, _) = encode_column(&column, 0..values.len(), &mut bytes);
        assert_eq!(encoding, Encoding::DeltaVarint);
        assert_eq!(
            decode_column(&bytes, encoding, values.len()),
            Ok((Column::Int64(values.clone()), None))
        );
        // Every proper prefix is a truncated chunk, never a panic.
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_column(&bytes[..cut], encoding, values.len()).map(|_| ()),
                Err(SpfError::Corrupt("unexpected end of buffer")),
                "cut at {cut}"
            );
        }
        // Ten continuation bytes cannot be a 64-bit varint.
        assert_eq!(
            decode_column(&[0xff; 12], encoding, 1).map(|_| ()),
            Err(SpfError::Corrupt("varint overflow"))
        );
    }

    /// A footer may claim any `u32` of rows: each decoder refuses, before
    /// it allocates, a chunk too short to hold them.
    #[test]
    fn chunk_claiming_more_rows_than_bytes_is_a_typed_error() {
        let short = Err(SpfError::Corrupt("unexpected end of buffer"));
        let chunk = [0u8; 40];
        let huge = u32::MAX as usize;
        for encoding in [
            Encoding::DeltaVarint,
            Encoding::FloatPlain,
            Encoding::Utf8Plain,
            Encoding::Utf8Dict,
            Encoding::BoolBitmap,
        ] {
            assert_eq!(decode_column(&chunk, encoding, huge).map(|_| ()), short);
        }
        // One row past what 40 bytes can hold, and the most they can.
        assert_eq!(
            decode_column(&chunk, Encoding::DeltaVarint, 41).map(|_| ()),
            short
        );
        assert_eq!(
            decode_column(&chunk, Encoding::FloatPlain, 6).map(|_| ()),
            short
        );
        assert_eq!(
            decode_column(&chunk, Encoding::Utf8Plain, 11).map(|_| ()),
            short
        );
        assert_eq!(
            decode_column(&chunk, Encoding::BoolBitmap, 321).map(|_| ()),
            short
        );
        assert_eq!(
            decode_column(&chunk, Encoding::DeltaVarint, 40),
            Ok((Column::Int64(vec![0; 40]), None))
        );
        assert_eq!(
            decode_column(&chunk, Encoding::FloatPlain, 5),
            Ok((Column::Float64(vec![0.0; 5]), None))
        );
        assert_eq!(
            decode_column(&chunk, Encoding::Utf8Plain, 10),
            Ok((Column::Utf8(vec![String::new(); 10]), None))
        );
        assert_eq!(
            decode_column(&chunk, Encoding::BoolBitmap, 320),
            Ok((Column::Bool(vec![false; 320]), None))
        );
        // Through `ChunkMeta`, the way a reader meets it.
        let meta = ChunkMeta {
            offset: 4,
            len: 40,
            encoding: Encoding::DeltaVarint,
            rows: u32::MAX,
            stats: None,
        };
        assert_eq!(decode_chunk(&meta, &chunk).map(|_| ()), short);
    }

    /// The writer's bytes at 0c0a653, before the `Int64` encoder changed:
    /// (length, FNV-1a) of a plain file and of a rotated bucketed segment.
    #[test]
    fn encoded_bytes_are_pinned() {
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let clicks = crate::tpcxbb::generate(0.01, 1).clickstreams;
        let plain = write(std::slice::from_ref(&clicks), 8192);
        assert_eq!(
            (plain.len(), fnv1a(&plain)),
            (388_509, 5_230_399_205_459_801_991)
        );
        let users = clicks.column("wcs_user_sk").as_i64();
        let buckets: Vec<Batch> = (0..4)
            .map(|b| {
                let rows: Vec<usize> = (0..users.len())
                    .filter(|&r| crate::keys::hash_key_i64(users[r]) % 4 == b)
                    .collect();
                clicks.take(&rows)
            })
            .collect();
        let bucketed = write_bucketed_rotated(&buckets, 8192, 1);
        assert_eq!(
            (bucketed.len(), fnv1a(&bucketed)),
            (388_569, 2_987_015_115_238_525_244)
        );
    }

    fn sample_batch(n: usize) -> Batch {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
            Field::new("tag", DataType::Utf8),
            Field::new("ok", DataType::Bool),
            Field::new("d", DataType::Date),
        ]);
        Batch::new(
            schema,
            vec![
                Column::Int64((0..n as i64).map(|i| i * 37 - 11).collect()),
                Column::Float64((0..n).map(|i| i as f64 * 0.5 - 3.0).collect()),
                Column::Utf8((0..n).map(|i| format!("tag{}", i % 5)).collect()),
                Column::Bool((0..n).map(|i| i % 3 == 0).collect()),
                Column::Int64(
                    (0..n as i64)
                        .map(|i| date::from_ymd(1995, 1, 1) + i)
                        .collect(),
                ),
            ],
        )
    }

    #[test]
    fn write_rows_matches_write_of_the_materialised_slice() {
        let batch = sample_batch(1000);
        // Whole, group-aligned, straddling groups, inside one group, empty.
        for (start, end) in [(0, 1000), (256, 512), (100, 901), (3, 5), (700, 700)] {
            let sliced = write(&[batch.slice(start, end)], 256);
            assert_eq!(
                write_rows(&batch, start..end, 256),
                sliced,
                "{start}..{end}"
            );
            let halves = [batch.slice(start, start), batch.slice(start, end)];
            assert_eq!(write(&halves, 256), sliced, "concat of {start}..{end}");
        }
    }

    #[test]
    fn roundtrip_all_types() {
        let batch = sample_batch(1000);
        let file = write(std::slice::from_ref(&batch), 256);
        let out = read_all(&file, None).unwrap();
        let merged = Batch::concat(&out);
        assert_eq!(merged.columns, batch.columns);
        assert_eq!(out.len(), 4, "1000 rows / 256 per group");
    }

    #[test]
    fn projection_reads_only_requested_columns() {
        let batch = sample_batch(100);
        let file = write(std::slice::from_ref(&batch), 64);
        let out = read_all(&file, Some(&["tag".to_string(), "k".to_string()])).unwrap();
        assert_eq!(out[0].schema.fields.len(), 2);
        assert_eq!(out[0].schema.fields[0].name, "tag");
        assert_eq!(
            Batch::concat(&out).column("k").as_i64(),
            batch.column("k").as_i64()
        );
    }

    #[test]
    fn unknown_projection_column_errors() {
        let file = write(&[sample_batch(10)], 10);
        assert!(matches!(
            read_all(&file, Some(&["zzz".to_string()])),
            Err(SpfError::UnknownColumn(_))
        ));
    }

    #[test]
    fn zone_maps_present_and_correct() {
        let file = write(&[sample_batch(100)], 50);
        let footer = read_footer(&file).unwrap();
        assert_eq!(footer.row_groups.len(), 2);
        let c0 = &footer.row_groups[0].chunks[0];
        let stats = c0.stats.as_ref().unwrap();
        assert_eq!(stats.min, Value::Int64(-11));
        assert_eq!(stats.max, Value::Int64(49 * 37 - 11));
        // Second group starts where the first ended.
        let c1 = &footer.row_groups[1].chunks[0];
        assert_eq!(c1.stats.as_ref().unwrap().min, Value::Int64(50 * 37 - 11));
    }

    #[test]
    fn remote_read_protocol_with_ranges() {
        // Simulate the three-request remote pattern.
        let batch = sample_batch(300);
        let file = write(std::slice::from_ref(&batch), 100);
        let file_len = file.len() as u64;
        let trailer = &file[file.len() - 8..];
        let (fstart, flen) = footer_range(trailer, file_len).unwrap();
        let footer = parse_footer(&file[fstart as usize..(fstart + flen) as usize]).unwrap();
        assert_eq!(footer.total_rows(), 300);
        // Fetch one chunk by range and decode it.
        let c = &footer.row_groups[1].chunks[1];
        let chunk = &file[c.offset as usize..(c.offset + c.len) as usize];
        let col = decode_chunk(c, chunk).unwrap();
        assert_eq!(col.as_f64(), batch.column("v").slice(100, 200).as_f64());
    }

    #[test]
    fn dictionary_encoding_kicks_in_for_low_cardinality() {
        let n = 1000;
        let schema = Schema::new(vec![Field::new("mode", DataType::Utf8)]);
        let low = Batch::new(
            Rc::clone(&schema),
            vec![Column::Utf8(
                (0..n).map(|i| format!("M{}", i % 4)).collect(),
            )],
        );
        let high = Batch::new(
            schema,
            vec![Column::Utf8(
                (0..n).map(|i| format!("unique-{i}")).collect(),
            )],
        );
        let f_low = write(&[low], n);
        let f_high = write(&[high], n);
        let foot_low = read_footer(&f_low).unwrap();
        let foot_high = read_footer(&f_high).unwrap();
        assert_eq!(
            foot_low.row_groups[0].chunks[0].encoding,
            Encoding::Utf8Dict
        );
        assert_eq!(
            foot_high.row_groups[0].chunks[0].encoding,
            Encoding::Utf8Plain
        );
        assert!(f_low.len() * 4 < f_high.len(), "dict compresses");
    }

    #[test]
    fn corrupt_files_rejected() {
        assert_eq!(read_footer(b"hello").unwrap_err(), SpfError::NotAnSpfFile);
        let file = write(&[sample_batch(10)], 10);
        let mut broken = file.to_vec();
        let len = broken.len();
        broken[len - 6] = 0xff; // mangle footer length
        assert!(read_footer(&broken).is_err());
    }

    /// Reference linear-scan dictionary build (the pre-optimisation code):
    /// the map-based build must emit byte-identical chunks.
    fn encode_utf8_reference(v: &[String]) -> Vec<u8> {
        let mut dict: Vec<&str> = Vec::new();
        let mut distinct_small = true;
        for s in v {
            if !dict.contains(&s.as_str()) {
                dict.push(s);
                if dict.len() > 256 || dict.len() * 2 > v.len().max(8) {
                    distinct_small = false;
                    break;
                }
            }
        }
        let mut out = Vec::new();
        if distinct_small && !v.is_empty() {
            put_u32(&mut out, dict.len() as u32);
            for s in &dict {
                put_u32(&mut out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
            for s in v {
                let idx = dict.iter().position(|d| d == s).expect("in dict") as u64;
                put_varint(&mut out, idx);
            }
        } else {
            for s in v {
                put_u32(&mut out, s.len() as u32);
                out.extend_from_slice(s.as_bytes());
            }
        }
        out
    }

    #[test]
    fn dict_build_bytes_match_linear_reference() {
        let cases: Vec<Vec<String>> = vec![
            vec![],
            vec!["a".into()],
            (0..1000).map(|i| format!("M{}", i % 4)).collect(),
            (0..1000).map(|i| format!("unique-{i}")).collect(),
            // Right at the cardinality threshold.
            (0..600).map(|i| format!("t{}", i % 256)).collect(),
            (0..600).map(|i| format!("t{}", i % 257)).collect(),
            // First occurrences out of sorted order.
            vec!["z".into(), "a".into(), "m".into(), "a".into(), "z".into()],
        ];
        for v in cases {
            let mut got = Vec::new();
            encode_column(&Column::Utf8(v.clone()), 0..v.len(), &mut got);
            assert_eq!(got, encode_utf8_reference(&v), "bytes diverge for {v:?}");
        }
    }

    fn buckets_fixture() -> Vec<Batch> {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("tag", DataType::Utf8),
            Field::new("ok", DataType::Bool),
        ]);
        let mk = |rows: std::ops::Range<i64>| {
            Batch::new(
                Rc::clone(&schema),
                vec![
                    Column::Int64(rows.clone().collect()),
                    Column::Utf8(rows.clone().map(|i| format!("t{}", i % 3)).collect()),
                    Column::Bool(rows.map(|i| i % 2 == 0).collect()),
                ],
            )
        };
        vec![mk(0..40), mk(40..40), mk(40..41), mk(41..120)]
    }

    /// Footer and bucket directory of a bucketed segment, parsed the way a
    /// remote reader does: trailer, then the footer range.
    fn indexed_footer(file: &[u8]) -> (Footer, BucketIndex) {
        let trailer = &file[file.len() - TRAILER_LEN as usize..];
        let (fstart, flen) = footer_range(trailer, file.len() as u64).unwrap();
        let (footer, index) =
            parse_footer_indexed(&file[fstart as usize..(fstart + flen) as usize]).unwrap();
        (footer, index.expect("bucketed writer emits an index"))
    }

    /// Decode `bucket` from exactly the file bytes `[byte_start, byte_end)`
    /// of its directory entry: what a consumer fetches with one ranged GET.
    fn decode_bucket(
        file: &[u8],
        footer: &Footer,
        index: &BucketIndex,
        bucket: usize,
        projection: Option<&[String]>,
    ) -> Vec<Batch> {
        let e = &index.buckets[bucket];
        let proj = footer.schema.indices_of(projection).unwrap();
        decode_row_groups(
            footer,
            index.row_groups(footer, bucket),
            &proj,
            e.byte_start,
            &file[e.byte_start as usize..e.byte_end as usize],
        )
        .unwrap()
        .0
    }

    #[test]
    fn bucketed_segment_round_trips_per_bucket() {
        let buckets = buckets_fixture();
        let file = write_bucketed(&buckets, 16);
        let (footer, index) = indexed_footer(&file);
        assert_eq!(index.buckets.len(), 4);
        assert_eq!(index.buckets[1].rows, 0);
        assert_eq!(index.buckets[1].n_groups, 0);
        assert_eq!(index.buckets[1].byte_start, index.buckets[1].byte_end);
        for (b, bucket) in buckets.iter().enumerate() {
            let e = &index.buckets[b];
            assert_eq!(e.rows, bucket.num_rows() as u64);
            let got = decode_bucket(&file, &footer, &index, b, None);
            let merged = if got.is_empty() {
                Batch::empty(Rc::clone(&footer.schema))
            } else {
                Batch::concat(&got)
            };
            assert_eq!(merged.columns, bucket.columns, "bucket {b}");
        }
    }

    #[test]
    fn rotated_segment_round_trips_per_bucket() {
        let buckets = buckets_fixture();
        for rotation in 0..buckets.len() {
            let file = write_bucketed_rotated(&buckets, 16, rotation);
            let (footer, index) = indexed_footer(&file);
            // The directory stays indexed by bucket id regardless of the
            // file order, so readers are oblivious to the rotation.
            for (b, bucket) in buckets.iter().enumerate() {
                let e = &index.buckets[b];
                assert_eq!(e.rows, bucket.num_rows() as u64);
                let got = decode_bucket(&file, &footer, &index, b, None);
                let merged = if got.is_empty() {
                    Batch::empty(Rc::clone(&footer.schema))
                } else {
                    Batch::concat(&got)
                };
                assert_eq!(merged.columns, bucket.columns, "bucket {b} rot {rotation}");
            }
            // Bucket `rotation` is written first.
            let first_data_byte = MAGIC.len() as u64;
            assert_eq!(index.buckets[rotation].byte_start, first_data_byte);
        }
    }

    #[test]
    fn bucketed_segment_readable_by_plain_reader() {
        // A pre-index reader must decode every bucket, in bucket order:
        // the index is trailing footer bytes it never parses.
        let buckets = buckets_fixture();
        let file = write_bucketed(&buckets, 16);
        let all = read_all(&file, None).unwrap();
        let merged = Batch::concat(&all);
        let expected = Batch::concat(&buckets);
        assert_eq!(merged.columns, expected.columns);
        // And the indexed parse agrees with the plain parse on the
        // row-group directory.
        let footer = read_footer(&file).unwrap();
        assert_eq!(
            footer.total_rows(),
            buckets.iter().map(|b| b.num_rows() as u64).sum::<u64>()
        );
    }

    #[test]
    fn plain_files_parse_with_no_index() {
        let file = write(&[sample_batch(50)], 20);
        let (fstart, flen) = footer_range(
            &file[file.len() - TRAILER_LEN as usize..],
            file.len() as u64,
        )
        .unwrap();
        let (footer, index) =
            parse_footer_indexed(&file[fstart as usize..(fstart + flen) as usize]).unwrap();
        assert!(index.is_none());
        assert_eq!(footer.total_rows(), 50);
    }

    #[test]
    fn bucket_projection_restricts_columns() {
        let buckets = buckets_fixture();
        let file = write_bucketed(&buckets, 16);
        let (footer, index) = indexed_footer(&file);
        let got = decode_bucket(&file, &footer, &index, 3, Some(&["tag".to_string()]));
        assert_eq!(got[0].schema.fields.len(), 1);
        assert_eq!(
            Batch::concat(&got).column("tag").as_str(),
            buckets[3].column("tag").as_str()
        );
    }

    /// A footer that places a chunk outside the bytes the reader fetched,
    /// and a window that stops short of what the footer promises, are
    /// typed errors from the one decoder (the worker's own slicing loop
    /// indexed out of bounds on both).
    #[test]
    fn chunk_outside_the_window_is_a_typed_error() {
        let file = write_bucketed(&buckets_fixture(), 16);
        let (footer, index) = indexed_footer(&file);
        let proj = footer.schema.indices_of(None).unwrap();
        let e = &index.buckets[3];
        let window = &file[e.byte_start as usize..e.byte_end as usize];
        let decode = |footer: &Footer, window: &[u8]| {
            decode_row_groups(
                footer,
                index.row_groups(footer, 3),
                &proj,
                e.byte_start,
                window,
            )
            .map(|(batches, _)| batches.len())
        };
        let outside = Err(SpfError::Corrupt("chunk outside the fetched window"));
        assert_eq!(decode(&footer, window), Ok(e.n_groups as usize));
        // Damaged footers: a chunk past the window's end, one before its
        // start, one whose length overflows the offset arithmetic.
        let last = (e.first_group + e.n_groups - 1) as usize;
        let damage: [fn(&mut ChunkMeta); 3] =
            [|c| c.offset += 1, |c| c.offset = 0, |c| c.len = u64::MAX];
        for (case, hurt) in damage.iter().enumerate() {
            let mut damaged = footer.clone();
            hurt(damaged.row_groups[last].chunks.last_mut().unwrap());
            assert_eq!(decode(&damaged, window), outside, "damage {case}");
        }
        // A range response cut short of the footer's claim.
        assert_eq!(decode(&footer, &window[..window.len() - 1]), outside);
        assert_eq!(decode(&footer, &[]), outside);
    }

    #[test]
    fn decode_chunk_with_dict_surfaces_sorted_distinct() {
        let schema = Schema::new(vec![Field::new("m", DataType::Utf8)]);
        let vals: Vec<String> = ["z", "b", "z", "a", "b", "z"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let batch = Batch::new(schema, vec![Column::Utf8(vals.clone())]);
        let file = write(&[batch], 100);
        let footer = read_footer(&file).unwrap();
        let c = &footer.row_groups[0].chunks[0];
        assert_eq!(c.encoding, Encoding::Utf8Dict);
        let data = &file[c.offset as usize..(c.offset + c.len) as usize];
        let (col, dict) = decode_chunk_with_dict(c, data).unwrap();
        assert_eq!(col.as_str(), &vals[..]);
        assert_eq!(
            dict.unwrap(),
            vec!["a".to_string(), "b".to_string(), "z".to_string()]
        );
        // Non-dictionary chunks surface no dictionary.
        let ints = Batch::new(
            Schema::new(vec![Field::new("x", DataType::Int64)]),
            vec![Column::Int64(vec![1, 2, 3])],
        );
        let f2 = write(&[ints], 10);
        let foot2 = read_footer(&f2).unwrap();
        let c2 = &foot2.row_groups[0].chunks[0];
        let (_, none) =
            decode_chunk_with_dict(c2, &f2[c2.offset as usize..(c2.offset + c2.len) as usize])
                .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let file = write(&[Batch::empty(schema)], 10);
        let out = read_all(&file, None).unwrap();
        assert_eq!(out.iter().map(Batch::num_rows).sum::<usize>(), 0);
    }

    /// Deltas of every varint length, 1 to 10 bytes, and both signs.
    fn any_delta() -> impl Strategy<Value = i64> {
        (0u32..64, any::<i64>()).prop_map(|(shift, x)| x >> shift)
    }

    proptest! {
        /// The word-at-a-time `DeltaVarint` codec on arbitrary integers, at
        /// the lengths where the eight-value fast path starts, ends and
        /// leaves a tail: round trip; every truncation is the typed error;
        /// a continuation bit set on the last byte never panics.
        #[test]
        fn prop_delta_varint_survives_hostile_bytes(
            len in prop_oneof![0usize..20, 8185usize..8200],
            deltas in prop::collection::vec(any_delta(), 8200),
            narrow in any::<bool>(),
        ) {
            let mut x = 0i64;
            let values: Vec<i64> = deltas[..len]
                .iter()
                .map(|&d| {
                    x = x.wrapping_add(if narrow { d % 64 } else { d });
                    x
                })
                .collect();
            let mut bytes = Vec::new();
            let (encoding, stats) = encode_column(&Column::Int64(values.clone()), 0..len, &mut bytes);
            prop_assert_eq!(
                stats.map(|s| (s.min, s.max)),
                values.iter().min().zip(values.iter().max()).map(|(&lo, &hi)| (Value::Int64(lo), Value::Int64(hi)))
            );
            let mut reference = Vec::new();
            values.iter().fold(0i64, |prev, &v| {
                put_varint(&mut reference, zigzag(v.wrapping_sub(prev)));
                v
            });
            prop_assert_eq!(&bytes, &reference);
            prop_assert_eq!(
                decode_column(&bytes, encoding, len),
                Ok((Column::Int64(values), None))
            );
            let cuts = bytes.len().saturating_sub(24)..bytes.len();
            for cut in (0..bytes.len().min(24)).chain(cuts) {
                prop_assert_eq!(
                    decode_column(&bytes[..cut], encoding, len).map(|_| ()),
                    Err(SpfError::Corrupt("unexpected end of buffer")),
                    "cut at {}", cut
                );
            }
            if let Some(last) = bytes.last_mut() {
                *last |= 0x80;
                prop_assert!(matches!(
                    decode_column(&bytes, encoding, len),
                    Err(SpfError::Corrupt(_))
                ));
            }
        }

        #[test]
        fn prop_int_roundtrip(values in prop::collection::vec(any::<i64>(), 0..300), group in 1usize..100) {
            let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
            let batch = Batch::new(schema, vec![Column::Int64(values.clone())]);
            let file = write(&[batch], group);
            let out = Batch::concat(&read_all(&file, None).unwrap());
            prop_assert_eq!(out.column("x").as_i64(), &values[..]);
        }

        #[test]
        fn prop_string_roundtrip(values in prop::collection::vec("[a-z]{0,12}", 0..200)) {
            let schema = Schema::new(vec![Field::new("s", DataType::Utf8)]);
            let batch = Batch::new(schema, vec![Column::Utf8(values.clone())]);
            let file = write(&[batch], 64);
            let out = Batch::concat(&read_all(&file, None).unwrap());
            prop_assert_eq!(out.column("s").as_str(), &values[..]);
        }

        #[test]
        fn prop_float_roundtrip_bits(values in prop::collection::vec(any::<f64>(), 0..200)) {
            let schema = Schema::new(vec![Field::new("f", DataType::Float64)]);
            let batch = Batch::new(schema, vec![Column::Float64(values.clone())]);
            let file = write(&[batch], 50);
            let out = Batch::concat(&read_all(&file, None).unwrap());
            let got = out.column("f").as_f64();
            prop_assert_eq!(got.len(), values.len());
            for (a, b) in got.iter().zip(&values) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// Satellite: bucket-indexed round-trip. Per-bucket range reads
        /// (footer parse → byte-range slice → `decode_row_groups`) must equal
        /// the whole-object `read_all` decode regrouped per bucket,
        /// bitwise, across empty buckets, single-row buckets, and the
        /// dictionary / delta / bitmap encodings.
        #[test]
        fn prop_bucketed_range_reads_equal_whole_object(
            sizes in prop::collection::vec(0usize..25, 1..6),
            group in 1usize..40,
            cardinality in 1u64..40,
        ) {
            let schema = Schema::new(vec![
                Field::new("k", DataType::Int64),
                Field::new("tag", DataType::Utf8),
                Field::new("ok", DataType::Bool),
            ]);
            let mut next = 0i64;
            let buckets: Vec<Batch> = sizes
                .iter()
                .map(|&n| {
                    let start = next;
                    next += n as i64;
                    Batch::new(
                        Rc::clone(&schema),
                        vec![
                            Column::Int64((start..start + n as i64).collect()),
                            Column::Utf8(
                                (start..start + n as i64)
                                    .map(|i| format!("t{}", i as u64 % cardinality))
                                    .collect(),
                            ),
                            Column::Bool((start..start + n as i64).map(|i| i % 2 == 0).collect()),
                        ],
                    )
                })
                .collect();
            let file = write_bucketed(&buckets, group);
            let (footer, index) = indexed_footer(&file);
            prop_assert_eq!(index.buckets.len(), sizes.len());
            // Whole-object decode, regrouped by the index's row-group spans.
            let all = read_all(&file, None).unwrap();
            for (b, bucket) in buckets.iter().enumerate() {
                let e = &index.buckets[b];
                prop_assert_eq!(e.rows, bucket.num_rows() as u64);
                let ranged = decode_bucket(&file, &footer, &index, b, None);
                let whole =
                    &all[e.first_group as usize..(e.first_group + e.n_groups) as usize];
                prop_assert_eq!(ranged.len(), whole.len());
                for (r, w) in ranged.iter().zip(whole) {
                    prop_assert_eq!(&r.columns, &w.columns);
                }
                let merged = if ranged.is_empty() {
                    Batch::empty(Rc::clone(&footer.schema))
                } else {
                    Batch::concat(&ranged)
                };
                prop_assert_eq!(&merged.columns, &bucket.columns);
            }
        }

        #[test]
        fn prop_zone_maps_bound_all_values(values in prop::collection::vec(-1000i64..1000, 1..200)) {
            let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
            let batch = Batch::new(schema, vec![Column::Int64(values.clone())]);
            let file = write(&[batch], 32);
            let footer = read_footer(&file).unwrap();
            let mut offset = 0usize;
            for rg in &footer.row_groups {
                let stats = rg.chunks[0].stats.as_ref().unwrap();
                let Value::Int64(lo) = &stats.min else {
                    panic!("int stats expected");
                };
                let Value::Int64(hi) = &stats.max else {
                    panic!("int stats expected");
                };
                for &v in &values[offset..offset + rg.rows as usize] {
                    prop_assert!(*lo <= v && v <= *hi);
                }
                offset += rg.rows as usize;
            }
        }
    }
}
