//! Blobs and the in-memory keyed object store backing every service.
//!
//! ## Logical-size scaling
//!
//! The paper's application experiments run at TPC scale factor 1,000 —
//! ~320 GiB of Parquet. Materialising that in a unit test is pointless, so
//! a [`Blob`] separates the *real* payload (small, actually processed by
//! the query engine) from its *logical* size (what the simulated network,
//! storage, and cost models see). `logical_scale == 1.0` makes them
//! identical; the data generators set larger factors to emulate SF1000
//! partition sizes while carrying SF0.1 payloads. DESIGN.md §1 documents
//! why this preserves the paper's observable behaviour.

use crate::error::{Result, StorageError};
use bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;

/// Which bytes of an object a read asks for. Offsets and lengths are over
/// the *real* payload; timing and cost use the range's logical size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByteRange {
    /// The whole object.
    Full,
    /// `len` bytes starting at `offset` (`Range: bytes=offset-`).
    Bytes {
        /// First byte.
        offset: u64,
        /// Number of bytes.
        len: u64,
    },
    /// The last `len` bytes, clamped to the object (`Range: bytes=-len`).
    /// Footer-driven readers fetch a trailer this way without knowing the
    /// object's size up front.
    Suffix(u64),
}

impl ByteRange {
    /// Zero-copy cut of this range out of `object`.
    pub fn cut(self, object: Blob) -> Result<Blob> {
        match self {
            ByteRange::Full => Ok(object),
            ByteRange::Bytes { offset, len } => object.slice(offset, len),
            ByteRange::Suffix(len) => {
                let total = object.len() as u64;
                let start = total.saturating_sub(len);
                object.slice(start, total - start)
            }
        }
    }
}

/// Result of a read: the requested bytes plus what a footer-driven reader
/// and a byte accountant need to know about the request.
#[derive(Debug, Clone)]
pub struct ObjectRead {
    /// The requested range.
    pub blob: Blob,
    /// Real payload length of the whole object; offsets of follow-up
    /// [`ByteRange::Bytes`] reads are relative to it.
    pub object_len: u64,
    /// Logical bytes moved over the wire (and metered) for this request.
    /// Equals `blob.logical_len()` on services with native ranged reads;
    /// equals the *full object's* logical length on services that fall
    /// back to a whole-object read (DynamoDB, EFS).
    pub transferred: u64,
}

thread_local! {
    /// The page every [`Blob::synthetic`] on this thread is a slice of.
    static SYNTHETIC_PAGE: Bytes = Bytes::from(vec![0xA5u8; 4096]);
}

/// An immutable stored value with a logical size multiplier.
#[derive(Debug, Clone)]
pub struct Blob {
    /// The real payload.
    pub bytes: Bytes,
    /// Multiplier applied to `bytes.len()` for timing and billing.
    pub logical_scale: f64,
}

impl Blob {
    /// A blob whose logical size equals its payload size.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Blob {
            bytes: bytes.into(),
            logical_scale: 1.0,
        }
    }

    /// A blob with an explicit logical scale (≥ 1 in practice).
    pub fn scaled(bytes: impl Into<Bytes>, logical_scale: f64) -> Self {
        assert!(logical_scale.is_finite() && logical_scale > 0.0);
        Blob {
            bytes: bytes.into(),
            logical_scale,
        }
    }

    /// A synthetic blob of `logical` bytes carrying no real payload beyond
    /// a single page — what the microbenchmarks use ("randomly generated
    /// files of fixed size"). Every such blob on a thread slices the same
    /// page, so making one costs a refcount, not an allocation.
    pub fn synthetic(logical: u64) -> Self {
        SYNTHETIC_PAGE.with(|page| {
            let carried = logical.clamp(1, page.len() as u64) as usize;
            Blob {
                bytes: page.slice(..carried),
                logical_scale: logical as f64 / carried as f64,
            }
        })
    }

    /// Real payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Logical length in bytes (what transfers and invoices see).
    pub fn logical_len(&self) -> u64 {
        (self.bytes.len() as f64 * self.logical_scale).round() as u64
    }

    /// Zero-copy sub-range of the payload, keeping the scale.
    pub fn slice(&self, offset: u64, len: u64) -> Result<Blob> {
        let total = self.bytes.len() as u64;
        if offset.saturating_add(len) > total {
            return Err(StorageError::InvalidRange {
                len: total,
                offset,
                requested: len,
            });
        }
        Ok(Blob {
            bytes: self.bytes.slice(offset as usize..(offset + len) as usize),
            logical_scale: self.logical_scale,
        })
    }
}

/// The shared in-memory key space behind a bucket / table / filesystem.
///
/// Every read attempt, a 503 included, looks its key up here: one hash and
/// a short linear probe, not a walk of string compares down a tree.
/// The index is never iterated, so no order of it can reach an output.
#[derive(Clone, Default)]
pub struct KeyedStore {
    index: Rc<RefCell<KeyIndex>>,
}

/// Objects in insertion order plus an open-addressing table over them.
#[derive(Default)]
struct KeyIndex {
    objects: Vec<(Box<str>, Blob)>,
    /// Power-of-two length, at most half full; `0` is an empty slot and
    /// `i + 1` names `objects[i]`.
    slots: Vec<u32>,
}

impl KeyIndex {
    /// `Ok(i)` when `objects[i]` holds `key`, else `Err` of the empty slot
    /// it would take (`0` in the empty table, which `put` grows first).
    fn find(&self, key: &str) -> std::result::Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        // Fibonacci hashing: the top bits are the well-mixed ones.
        let mut at = (hash(key) >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[at] as usize {
                0 => return Err(at),
                i if *self.objects[i - 1].0 == *key => return Ok(i - 1),
                _ => at = (at + 1) & (self.slots.len() - 1),
            }
        }
    }

    fn put(&mut self, key: &str, blob: Blob) {
        if 2 * (self.objects.len() + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for (i, (key, _)) in self.objects.iter().enumerate() {
                let at = self.find(key).expect_err("stored keys are distinct");
                self.slots[at] = i as u32 + 1;
            }
        }
        match self.find(key) {
            Ok(i) => self.objects[i].1 = blob,
            Err(at) => {
                self.objects.push((key.into(), blob));
                self.slots[at] = self.objects.len() as u32;
            }
        }
    }
}

/// Word-at-a-time multiply-rotate hash: fixed constants, same on any run.
fn hash(key: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step =
        |h: u64, word: [u8; 8]| (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    let mut words = key.as_bytes().chunks_exact(8);
    let h = (&mut words).fold(key.len() as u64, |h, w| {
        step(h, w.try_into().expect("8-byte chunk"))
    });
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    step(h, tail)
}

impl std::fmt::Debug for KeyedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let objects = self.index.borrow().objects.len();
        write!(f, "KeyedStore({objects} objects)")
    }
}

impl KeyedStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace; replacing reuses the stored key.
    pub fn put(&self, key: &str, blob: Blob) {
        self.index.borrow_mut().put(key, blob);
    }

    /// Fetch a clone (cheap: `Bytes` is refcounted).
    pub fn get(&self, key: &str) -> Result<Blob> {
        let index = self.index.borrow();
        match index.find(key) {
            Ok(i) => Ok(index.objects[i].1.clone()),
            Err(_) => Err(StorageError::NotFound { key: key.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_logical_scaling() {
        let b = Blob::scaled(vec![0u8; 1000], 1000.0);
        assert_eq!(b.len(), 1000);
        assert_eq!(b.logical_len(), 1_000_000);
    }

    #[test]
    fn synthetic_blob_carries_tiny_payload() {
        let b = Blob::synthetic(64 << 20);
        assert!(b.len() <= 4096);
        assert_eq!(b.logical_len(), 64 << 20);
        let small = Blob::synthetic(100);
        assert_eq!(small.logical_len(), 100);
        assert_eq!(small.len(), 100);
        // Every size keeps its length, bytes and logical size, and all of
        // them slice one page.
        let page = small.bytes.as_ptr();
        for logical in [1u64, 1 << 10, 4 << 10, 64 << 20] {
            let b = Blob::synthetic(logical);
            assert_eq!(b.len() as u64, logical.min(4096));
            assert!(b.bytes.iter().all(|&byte| byte == 0xA5));
            assert_eq!(b.logical_len(), logical);
            assert_eq!(b.bytes.as_ptr(), page, "{logical} B has its own page");
        }
    }

    #[test]
    fn blob_slice_zero_copy_and_bounds() {
        let b = Blob::new(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1, 3).unwrap();
        assert_eq!(&s.bytes[..], &[2, 3, 4]);
        assert!(matches!(
            b.slice(3, 3),
            Err(StorageError::InvalidRange { .. })
        ));
    }

    #[test]
    fn store_put_get_roundtrip() {
        let s = KeyedStore::new();
        s.put("a/1", Blob::new(vec![0u8; 10]));
        s.put("a/1", Blob::new(vec![0u8; 20]));
        assert_eq!(s.get("a/1").unwrap().len(), 20);
        assert!(matches!(s.get("zz"), Err(StorageError::NotFound { .. })));
    }

    #[test]
    fn byte_ranges_cut_and_clamp() {
        let b = Blob::scaled((0..=9u8).collect::<Vec<_>>(), 3.0);
        let cut = |range: ByteRange| range.cut(b.clone());
        assert_eq!(&cut(ByteRange::Full).unwrap().bytes[..], &b.bytes[..]);
        let mid = cut(ByteRange::Bytes { offset: 2, len: 3 }).unwrap();
        assert_eq!((&mid.bytes[..], mid.logical_len()), (&[2u8, 3, 4][..], 9));
        assert_eq!(&cut(ByteRange::Suffix(2)).unwrap().bytes[..], &[8, 9]);
        assert_eq!(cut(ByteRange::Suffix(99)).unwrap().len(), 10);
        assert!(matches!(
            cut(ByteRange::Bytes { offset: 8, len: 3 }),
            Err(StorageError::InvalidRange { .. })
        ));
    }
}
