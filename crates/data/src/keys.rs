//! Normalized fixed-width keys for the vectorised data plane.
//!
//! Grouping, joining, sorting, and shuffle partitioning all reduce to
//! comparing composite keys drawn from a batch's columns. The engine's
//! original path materialised one `Vec<ScalarKey>` — heap vector plus
//! cloned values, including full `String` clones — per row per key
//! column. A [`KeyBuffer`] instead encodes the key columns
//! column-at-a-time into one contiguous `u64` buffer:
//!
//! * `Int64` (and `Date`) → `(x as u64) ^ (1 << 63)`: flipping the sign
//!   bit makes unsigned order equal signed order ([`norm_i64`]).
//! * `Bool` → `0` / `1`.
//! * `Float64` → [`total_order_bits`]: unsigned order equals
//!   `f64::total_cmp` order (exact-bits equality, NaN included).
//! * `Utf8` → the value's code in one sorted dictionary for the rows
//!   handed to the encoder: the columns' own when they share it, else the
//!   union of theirs ([`Utf8Column::unify`]). Code order is string order.
//!
//! Within each column the `u64` order therefore equals the order of the
//! `ScalarKey` wrappers (today the test oracle's, in
//! `crates/engine/tests/support/`), and comparing rows word-by-word
//! equals comparing `Vec<ScalarKey>` lexicographically — so kernels
//! rebuilt on `KeyBuffer` produce byte-identical grouped/sorted output.
//! (Columns are homogeneously typed, so `ScalarKey`'s cross-variant enum
//! order never arises.)
//!
//! [`KeyBuffer::encode_selected`] encodes *under a selection vector*
//! ([`SelSpec`]): only the selected rows of each batch are encoded, in
//! stream order, so filtering consumers never materialise a filtered
//! batch just to build keys. A dictionary may hold strings no selected row
//! uses; they shift codes but not their relative order — the only thing
//! consumers observe.
//!
//! String codes are only meaningful relative to the buffer that encoded
//! them: encodings from different `KeyBuffer`s must never be
//! compared. Cross-fragment agreement (shuffle partitioning) uses the
//! batched [`mix64`] hash over the same normalized words instead — see
//! [`fold_hash_words`] and friends, and the engine's `partition_batch`.

use crate::columnar::{Batch, Column, Utf8Column, Value};
use std::rc::Rc;

/// Map an `f64` to bits whose unsigned order equals `total_cmp` order.
#[inline]
pub fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`total_order_bits`].
#[inline]
pub fn bits_to_f64(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

const SIGN_FLIP: u64 = 1 << 63;

/// Sign-flipped two's complement: unsigned order equals signed order.
#[inline]
pub fn norm_i64(x: i64) -> u64 {
    x as u64 ^ SIGN_FLIP
}

// ---------------------------------------------------------------------------
// batched shuffle-key hashing
// ---------------------------------------------------------------------------
//
// Shuffle partitioning needs a hash that writer and reader fragments (and
// the row-at-a-time `ScalarKey` oracle) agree on bit-for-bit. The batched
// scheme hashes the *normalized* fixed-width word of each key value:
//
//   column hash  kh = mix64(word ^ TAG_<type>)
//   row fold      h = h * 31 + kh          (over the key columns in order)
//
// `Utf8` has no fixed-width normalization that agrees across fragments
// (dictionary codes are column-local), so strings hash their bytes with
// the workspace FNV-1a first and feed the digest through the same
// finalizer: kh = mix64(fnv1a64(bytes) ^ TAG_UTF8). FNV-1a itself stays
// the sanitizer-digest hash; it is no longer on the per-row numeric path.

/// Type tag folded into [`mix64`] for `Int64` keys.
pub const HASH_TAG_I64: u64 = 0x9E37_79B9_7F4A_7C15;
/// Type tag folded into [`mix64`] for `Float64` keys.
pub const HASH_TAG_F64: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// Type tag folded into [`mix64`] for `Bool` keys.
pub const HASH_TAG_BOOL: u64 = 0x1656_67B1_9E37_79F9;
/// Type tag folded into [`mix64`] for `Utf8` keys (applied to the FNV-1a
/// digest of the string bytes).
pub const HASH_TAG_UTF8: u64 = 0x27D4_EB2F_1656_67C5;

/// SplitMix64 finalizer: a cheap, statistically strong bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Scalar hash of one `Int64` key (the oracle-side mirror of
/// [`fold_hash_i64`]'s per-lane step).
#[inline]
pub fn hash_key_i64(x: i64) -> u64 {
    mix64(norm_i64(x) ^ HASH_TAG_I64)
}

/// Scalar hash of one `Float64` key, given its [`total_order_bits`].
#[inline]
pub fn hash_key_f64_bits(bits: u64) -> u64 {
    mix64(bits ^ HASH_TAG_F64)
}

/// Scalar hash of one `Bool` key.
#[inline]
pub fn hash_key_bool(b: bool) -> u64 {
    mix64(b as u64 ^ HASH_TAG_BOOL)
}

/// Scalar hash of one `Utf8` key, given the FNV-1a digest of its bytes
/// (the digest function lives in `skyrise-sim`; callers pass it in).
#[inline]
pub fn hash_key_utf8(fnv_digest: u64) -> u64 {
    mix64(fnv_digest ^ HASH_TAG_UTF8)
}

macro_rules! unrolled_fold {
    ($acc:ident, $vals:ident, $kh:expr) => {{
        debug_assert_eq!($acc.len(), $vals.len());
        let mut a = $acc.chunks_exact_mut(4);
        let mut v = $vals.chunks_exact(4);
        // Four independent lanes per iteration: each lane's multiply and
        // mix can issue in parallel, unlike the FNV byte chain.
        for (h, x) in (&mut a).zip(&mut v) {
            h[0] = h[0].wrapping_mul(31).wrapping_add($kh(x[0]));
            h[1] = h[1].wrapping_mul(31).wrapping_add($kh(x[1]));
            h[2] = h[2].wrapping_mul(31).wrapping_add($kh(x[2]));
            h[3] = h[3].wrapping_mul(31).wrapping_add($kh(x[3]));
        }
        for (h, &x) in a.into_remainder().iter_mut().zip(v.remainder()) {
            *h = h.wrapping_mul(31).wrapping_add($kh(x));
        }
    }};
}

/// Fold a column of pre-normalized words into per-row hash accumulators
/// (`acc[r] = acc[r] * 31 + mix64(words[r] ^ tag)`), four lanes at a time.
pub fn fold_hash_words(acc: &mut [u64], words: &[u64], tag: u64) {
    unrolled_fold!(acc, words, |w: u64| mix64(w ^ tag));
}

/// Fold an `Int64` key column into per-row hash accumulators.
pub fn fold_hash_i64(acc: &mut [u64], vals: &[i64]) {
    unrolled_fold!(acc, vals, |x: i64| hash_key_i64(x));
}

/// Fold a `Float64` key column into per-row hash accumulators.
pub fn fold_hash_f64(acc: &mut [u64], vals: &[f64]) {
    unrolled_fold!(acc, vals, |x: f64| hash_key_f64_bits(total_order_bits(x)));
}

/// Fold a `Bool` key column into per-row hash accumulators (both possible
/// hashes are precomputed; the loop is a select).
pub fn fold_hash_bool(acc: &mut [u64], vals: &[bool]) {
    let hf = hash_key_bool(false);
    let ht = hash_key_bool(true);
    unrolled_fold!(acc, vals, |b: bool| if b { ht } else { hf });
}

// ---------------------------------------------------------------------------
// selections
// ---------------------------------------------------------------------------

/// A view of which rows of a batch are live, in order. The engine's
/// selection vectors lower to this when handing batches to the encoder.
#[derive(Debug, Clone, Copy)]
pub enum SelSpec<'a> {
    /// Every row.
    All,
    /// The first `n` rows.
    Prefix(usize),
    /// Exactly these row indices, in order.
    Rows(&'a [u32]),
}

impl SelSpec<'_> {
    /// Number of selected rows of a batch with `rows` rows.
    #[inline]
    pub fn count(&self, rows: usize) -> usize {
        match self {
            SelSpec::All => rows,
            SelSpec::Prefix(n) => (*n).min(rows),
            SelSpec::Rows(r) => r.len(),
        }
    }

    /// Iterate the selected row indices of a batch with `rows` rows.
    pub fn iter(&self, rows: usize) -> SelIter<'_> {
        match self {
            SelSpec::All => SelIter::Range(0..rows),
            SelSpec::Prefix(n) => SelIter::Range(0..(*n).min(rows)),
            SelSpec::Rows(r) => SelIter::Rows(r.iter()),
        }
    }
}

/// Iterator over a [`SelSpec`]'s selected rows.
pub enum SelIter<'a> {
    /// Contiguous range (All / Prefix).
    Range(std::ops::Range<usize>),
    /// Explicit row list.
    Rows(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::Range(r) => r.next(),
            SelIter::Rows(it) => it.next().map(|&x| x as usize),
        }
    }
}

// ---------------------------------------------------------------------------
// the key buffer
// ---------------------------------------------------------------------------

/// Per-key-column decode metadata.
#[derive(Debug, Clone)]
enum KeyEncoding {
    /// Sign-flipped two's complement (covers `Date`, stored as `Int64`).
    Int64,
    /// Total-order float bits.
    Float64,
    /// 0 / 1.
    Bool,
    /// Code in a sorted distinct dictionary.
    Utf8(Rc<[String]>),
}

/// A contiguous, row-major buffer of normalized fixed-width keys: one
/// `u64` word per key column per row. See the module docs for the
/// encoding and its order-preservation contract.
#[derive(Debug, Clone)]
pub struct KeyBuffer {
    width: usize,
    rows: usize,
    words: Vec<u64>,
    encodings: Vec<KeyEncoding>,
    /// Smallest and largest word of each key column.
    spans: Vec<(u64, u64)>,
}

impl KeyBuffer {
    /// Encode the given column indices of a run of batches (one blocking
    /// operator's input, concatenated row-major). One string dictionary
    /// spans all batches, so codes are comparable across the whole run.
    ///
    /// Panics if a column index is out of range or batches disagree on a
    /// key column's type — callers resolve and type-check names first.
    pub fn encode(batches: &[&Batch], columns: &[usize]) -> KeyBuffer {
        let parts: Vec<(&Batch, SelSpec)> = batches.iter().map(|b| (*b, SelSpec::All)).collect();
        KeyBuffer::encode_selected(&parts, columns)
    }

    /// Encode only the selected rows of each batch (in stream order).
    pub fn encode_selected(parts: &[(&Batch, SelSpec)], columns: &[usize]) -> KeyBuffer {
        let rows: usize = parts.iter().map(|(b, s)| s.count(b.num_rows())).sum();
        let width = columns.len();
        let mut words = vec![0; rows * width];
        let (encodings, spans) = columns
            .iter()
            .enumerate()
            .map(|(ci, &col)| encode_column(parts, col, ci, width, &mut words))
            .unzip();
        KeyBuffer {
            width,
            rows,
            words,
            encodings,
            spans,
        }
    }

    /// Number of encoded rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of key columns (words per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The normalized word of key column `c` in row `r`.
    #[inline]
    pub fn word(&self, r: usize, c: usize) -> u64 {
        self.words[r * self.width + c]
    }

    /// The full normalized key of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// Row indices sorted by normalized key (ties keep row order, so the
    /// permutation is stable). Equal slices group equal composite keys.
    pub fn sort_indices(&self) -> Vec<u32> {
        self.argsort(&vec![true; self.width])
    }

    /// The row indices sorted by key column 0, then 1, ..., column `c`
    /// ascending or, where `ascending[c]` is false, descending; ties keep
    /// row order. The sort's scratch is two words per row.
    ///
    /// One stable LSD radix sort of one word per row: the row index in
    /// the low bits, and above it as many key bits as fit, taken from the
    /// last column backwards. A column contributes its offset from the
    /// column's minimum (from its maximum when descending), so it costs
    /// the bits of its min-max span and a constant column costs nothing.
    /// Keys wider than a word take one more round per word, each sorting
    /// the previous round's order. Digits are at most 11 bits and never
    /// wider than the input is long, which keeps the histogram in L1 and
    /// lets a sort of a few hundred rows pay for a few hundred counters.
    pub fn argsort(&self, ascending: &[bool]) -> Vec<u32> {
        let (n, width) = (self.rows, self.width);
        assert_eq!(ascending.len(), width, "one direction per key column");
        if n < 2 || width == 0 {
            return (0..n as u32).collect();
        }
        let row_bits = (n - 1).ilog2() + 1;
        let (row_of, room) = (|word: u64| word & ((1 << row_bits) - 1), 64 - row_bits);
        // The rounds, least significant first: each a list of key pieces
        // `(column, flip, base, first bit, mask, position in the round's
        // key)`, where `(word ^ flip) - base` is the column's offset: from
        // its minimum, or (complemented) from its maximum.
        let mut rounds: Vec<(Vec<_>, u32)> = Vec::new();
        for c in (0..width).rev() {
            let bits = 64 - (self.spans[c].1 - self.spans[c].0).leading_zeros();
            let mut from = 0;
            while from < bits {
                if rounds.last().map_or(true, |(_, used)| *used == room) {
                    rounds.push((Vec::new(), 0));
                }
                let (pieces, used) = rounds.last_mut().expect("just pushed");
                let take = (bits - from).min(room - *used);
                let (lo, hi) = self.spans[c];
                let (flip, base) = if ascending[c] { (0, lo) } else { (!0, !hi) };
                pieces.push((c, flip, base, from, u64::MAX >> (64 - take), *used));
                (from, *used) = (from + take, *used + take);
            }
        }
        if rounds.is_empty() {
            return (0..n as u32).collect();
        }
        let mut scratch = vec![0; 2 * n];
        let (mut src, mut dst) = scratch.split_at_mut(n);
        let digit_max = n.ilog2().clamp(4, 11);
        for (round, (pieces, bits)) in rounds.iter().enumerate() {
            for (r, word) in src.iter_mut().enumerate() {
                // The first key is packed while rows are in input order.
                let r = if round == 0 {
                    r
                } else {
                    row_of(*word) as usize
                };
                let row = &self.words[r * width..][..width];
                let key = pieces
                    .iter()
                    .fold(0, |key, &(c, flip, base, from, mask, at)| {
                        key | ((row[c] ^ flip).wrapping_sub(base) >> from & mask) << at
                    });
                *word = key << row_bits | r as u64;
            }
            let passes = bits.div_ceil(digit_max);
            let digit = bits.div_ceil(passes.max(1));
            for pass in 0..passes {
                let shift = row_bits + pass * digit;
                let digit_of = |word: u64| (word >> shift) as usize & ((1 << digit) - 1);
                let mut starts = [0u32; 1 << 11];
                for &word in src.iter() {
                    starts[digit_of(word)] += 1;
                }
                let mut sum = 0;
                for s in &mut starts[..1 << digit] {
                    sum += std::mem::replace(s, sum);
                }
                for &word in src.iter() {
                    let slot = &mut starts[digit_of(word)];
                    dst[*slot as usize] = word;
                    *slot += 1;
                }
                (src, dst) = (dst, src);
            }
        }
        src.iter().map(|&word| row_of(word) as u32).collect()
    }

    /// Decode key column `c` of row `r` back to a [`Value`].
    pub fn value(&self, r: usize, c: usize) -> Value {
        let w = self.word(r, c);
        match &self.encodings[c] {
            KeyEncoding::Int64 => Value::Int64((w ^ SIGN_FLIP) as i64),
            KeyEncoding::Float64 => Value::Float64(bits_to_f64(w)),
            KeyEncoding::Bool => Value::Bool(w != 0),
            KeyEncoding::Utf8(dict) => Value::Utf8(dict[w as usize].clone()),
        }
    }

    /// Encode a probe column against key column `c`'s encoding (each entry
    /// of a string probe's dictionary is looked up in the build side's
    /// once). `None` marks a row that cannot match any build key: a string
    /// absent from the build dictionary, or a probe column whose type
    /// differs from the build key's (the oracle's `ScalarKey` path treats
    /// cross-type keys as never equal).
    pub fn encode_probe(&self, c: usize, col: &Column) -> Vec<Option<u64>> {
        self.encode_probe_sel(c, col, SelSpec::All)
    }

    /// [`encode_probe`](Self::encode_probe) restricted to the selected
    /// rows; the result is parallel to the selection, not to the column.
    pub fn encode_probe_sel(&self, c: usize, col: &Column, sel: SelSpec) -> Vec<Option<u64>> {
        let n = col.len();
        let mut out = Vec::with_capacity(sel.count(n));
        match (&self.encodings[c], col) {
            (KeyEncoding::Int64, Column::Int64(v)) => {
                out.extend(sel.iter(n).map(|r| Some(norm_i64(v[r]))));
            }
            (KeyEncoding::Float64, Column::Float64(v)) => {
                out.extend(sel.iter(n).map(|r| Some(total_order_bits(v[r]))));
            }
            (KeyEncoding::Bool, Column::Bool(v)) => {
                out.extend(sel.iter(n).map(|r| Some(v[r] as u64)));
            }
            (KeyEncoding::Utf8(dict), Column::Utf8(v)) => {
                let code = |s: &String| dict.binary_search(s).ok().map(|c| c as u64);
                let codes: Vec<Option<u64>> = v.dict().iter().map(code).collect();
                out.extend(sel.iter(n).map(|r| codes[v.codes()[r] as usize]));
            }
            _ => out.resize(sel.count(n), None),
        }
        out
    }
}

/// Encode one key column across all selected rows into the interleaved
/// word buffer, returning its decode metadata and its smallest and
/// largest word. Panics if the column changes type across batches.
fn encode_column(
    parts: &[(&Batch, SelSpec)],
    col: usize,
    ci: usize,
    width: usize,
    words: &mut [u64],
) -> (KeyEncoding, (u64, u64)) {
    let slots = words.iter_mut().skip(ci).step_by(width);
    match parts.first().map(|(b, _)| &b.columns[col]) {
        None | Some(Column::Int64(_)) => {
            let values = parts.iter().map(|(b, s)| (b.columns[col].as_i64(), *s));
            (KeyEncoding::Int64, fill(values, |&x| norm_i64(x), slots))
        }
        Some(Column::Float64(_)) => {
            let values = parts.iter().map(|(b, s)| (b.columns[col].as_f64(), *s));
            (
                KeyEncoding::Float64,
                fill(values, |&x| total_order_bits(x), slots),
            )
        }
        Some(Column::Bool(_)) => {
            let values = parts.iter().map(|(b, s)| (b.columns[col].as_bool(), *s));
            (KeyEncoding::Bool, fill(values, |&x| x as u64, slots))
        }
        Some(Column::Utf8(_)) => {
            let columns: Vec<&Utf8Column> =
                parts.iter().map(|(b, _)| b.columns[col].as_str()).collect();
            let (dict, codes) = Utf8Column::unify(&columns);
            let values = codes.iter().zip(parts).map(|(c, (_, s))| (&c[..], *s));
            (KeyEncoding::Utf8(dict), fill(values, |&c| c as u64, slots))
        }
    }
}

/// Store `word(x)` for every selected value `x` of each part's `values`
/// in the next of `slots` (the column's word of each row); returns the
/// smallest and largest word stored.
fn fill<'a, 'w, T: 'a>(
    values: impl Iterator<Item = (&'a [T], SelSpec<'a>)>,
    word: impl Fn(&T) -> u64,
    mut slots: impl Iterator<Item = &'w mut u64>,
) -> (u64, u64) {
    let (mut lo, mut hi) = (u64::MAX, 0);
    for (v, sel) in values {
        let mut put = |x: &T| {
            let w = word(x);
            (lo, hi) = (lo.min(w), hi.max(w));
            *slots.next().expect("a row of words per selected row") = w;
        };
        match sel {
            SelSpec::Rows(rows) => rows.iter().for_each(|&r| put(&v[r as usize])),
            _ => v[..sel.count(v.len())].iter().for_each(put),
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::{Field, Schema};
    use proptest::prelude::*;

    fn batch(cols: Vec<(&str, Column)>) -> Batch {
        let fields = cols
            .iter()
            .map(|(n, c)| Field::new(n, c.data_type()))
            .collect();
        Batch::new(
            Schema::new(fields),
            cols.into_iter().map(|(_, c)| c).collect(),
        )
    }

    #[test]
    fn float_bits_round_trip_and_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1.25e300,
            -0.1,
            -0.0,
            0.0,
            3.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in &xs {
            assert_eq!(x.to_bits(), bits_to_f64(total_order_bits(x)).to_bits());
        }
        let mut bits: Vec<u64> = xs.iter().map(|&x| total_order_bits(x)).collect();
        let sorted = {
            let mut b = bits.clone();
            b.sort_unstable();
            b
        };
        bits.sort_by(|a, b| bits_to_f64(*a).total_cmp(&bits_to_f64(*b)));
        assert_eq!(bits, sorted);
    }

    #[test]
    fn int_keys_order_and_decode() {
        let b = batch(vec![(
            "k",
            Column::Int64(vec![3, -7, i64::MIN, i64::MAX, 0]),
        )]);
        let kb = KeyBuffer::encode(&[&b], &[0]);
        let order = kb.sort_indices();
        let sorted: Vec<i64> = order
            .iter()
            .map(|&r| match kb.value(r as usize, 0) {
                Value::Int64(x) => x,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sorted, vec![i64::MIN, -7, 0, 3, i64::MAX]);
    }

    #[test]
    fn string_dictionary_spans_batches() {
        let b1 = batch(vec![("s", Column::utf8(["pear", "apple"]))]);
        let b2 = batch(vec![("s", Column::utf8(["mango", "apple"]))]);
        let kb = KeyBuffer::encode(&[&b1, &b2], &[0]);
        assert_eq!(kb.rows(), 4);
        // Ranks: apple=0, mango=1, pear=2 — consistent across batches.
        assert_eq!(kb.word(0, 0), 2);
        assert_eq!(kb.word(1, 0), 0);
        assert_eq!(kb.word(2, 0), 1);
        assert_eq!(kb.word(3, 0), 0);
        assert_eq!(kb.value(2, 0), Value::Utf8("mango".into()));
    }

    #[test]
    fn composite_sort_is_stable_lexicographic() {
        let b = batch(vec![
            ("s", Column::utf8(["b", "a", "b", "a"])),
            ("k", Column::Int64(vec![1, 2, 1, 2])),
        ]);
        let kb = KeyBuffer::encode(&[&b], &[0, 1]);
        // Equal composite keys keep row order: (a,2) rows 1,3 then (b,1) rows 0,2.
        assert_eq!(kb.sort_indices(), vec![1, 3, 0, 2]);
    }

    /// What [`KeyBuffer::argsort`] must equal: a stable comparator sort.
    fn comparator_argsort(kb: &KeyBuffer, ascending: &[bool]) -> Vec<u32> {
        let mut want: Vec<u32> = (0..kb.rows() as u32).collect();
        want.sort_by(|&a, &b| {
            let by_column = ascending.iter().enumerate().map(|(c, asc)| {
                let ord = kb.word(a as usize, c).cmp(&kb.word(b as usize, c));
                if *asc {
                    ord
                } else {
                    ord.reverse()
                }
            });
            by_column.fold(std::cmp::Ordering::Equal, std::cmp::Ordering::then)
        });
        want
    }

    /// Values that tie often, or span all 64 bits in one column.
    fn narrow_or_extreme() -> impl Strategy<Value = i64> {
        prop_oneof![4 => -3i64..4, 1 => any::<i64>(), 1 => Just(i64::MIN), 1 => Just(i64::MAX)]
    }

    proptest! {
        /// Every direction mix, ties, and keys of up to 130 bits, so that
        /// a column is cut across two rounds of the radix.
        #[test]
        fn argsort_matches_stable_comparator_sort(
            rows in prop::collection::vec(
                (narrow_or_extreme(), -2i64..3, any::<bool>(), narrow_or_extreme()),
                0..200,
            ),
            directions in 0usize..16,
        ) {
            let b = batch(vec![
                ("a", Column::Int64(rows.iter().map(|r| r.0).collect())),
                ("b", Column::Int64(rows.iter().map(|r| r.1).collect())),
                ("c", Column::Bool(rows.iter().map(|r| r.2).collect())),
                ("d", Column::Int64(rows.iter().map(|r| r.3).collect())),
            ]);
            let kb = KeyBuffer::encode(&[&b], &[0, 1, 2, 3]);
            let ascending: Vec<bool> = (0..4).map(|c| directions & (1 << c) == 0).collect();
            prop_assert_eq!(kb.argsort(&ascending), comparator_argsort(&kb, &ascending));
        }
    }

    #[test]
    fn argsort_with_full_width_digits_is_stable() {
        // Enough rows for 11-bit digits; few enough users that most tie.
        let n = 5_000u64;
        let mix = |i: u64| mix64(i + 1);
        let b = batch(vec![
            (
                "user",
                Column::Int64((0..n).map(|i| (mix(i) % 40) as i64).collect()),
            ),
            (
                "time",
                Column::Int64((0..n).map(|i| (mix(i) >> 20) as i64).collect()),
            ),
        ]);
        let kb = KeyBuffer::encode(&[&b], &[0, 1]);
        assert_eq!(kb.sort_indices(), comparator_argsort(&kb, &[true, true]));
        let by_user = KeyBuffer::encode(&[&b], &[0]);
        assert_eq!(
            by_user.argsort(&[false]),
            comparator_argsort(&by_user, &[false])
        );
    }

    #[test]
    fn probe_encoding_misses_and_type_mismatches() {
        let build = batch(vec![("s", Column::utf8(["x", "z"]))]);
        let kb = KeyBuffer::encode(&[&build], &[0]);
        let probe = Column::utf8(["z", "y", "x"]);
        assert_eq!(kb.encode_probe(0, &probe), vec![Some(1), None, Some(0)]);
        // Cross-type probes never match (the oracle's ScalarKey semantics).
        let ints = Column::Int64(vec![0, 1]);
        assert_eq!(kb.encode_probe(0, &ints), vec![None, None]);
        // Selection-restricted probes are parallel to the selection.
        let sel = [2u32, 0u32];
        assert_eq!(
            kb.encode_probe_sel(0, &probe, SelSpec::Rows(&sel)),
            vec![Some(0), Some(1)]
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let kb = KeyBuffer::encode(&[], &[0, 1]);
        assert_eq!(kb.rows(), 0);
        assert!(kb.sort_indices().is_empty());
    }

    #[test]
    fn selected_encode_matches_materialised_encode() {
        let b = batch(vec![
            ("s", Column::utf8(["d", "a", "c", "b", "a"])),
            ("k", Column::Int64(vec![5, 1, 4, 2, 1])),
            ("f", Column::Float64(vec![0.5, -0.0, f64::NAN, 2.0, -3.0])),
        ]);
        let sel = [1u32, 3, 4];
        let kb = KeyBuffer::encode_selected(&[(&b, SelSpec::Rows(&sel))], &[0, 1, 2]);
        // Materialised reference: take the same rows, encode fully.
        let taken = b.take(&[1, 3, 4]);
        let want = KeyBuffer::encode(&[&taken], &[0, 1, 2]);
        assert_eq!(kb.rows(), want.rows());
        assert_eq!(kb.sort_indices(), want.sort_indices());
        for r in 0..kb.rows() {
            for c in 0..3 {
                assert_eq!(kb.value(r, c), want.value(r, c), "row {r} col {c}");
            }
        }
        // Prefix selections behave like slices.
        let kp = KeyBuffer::encode_selected(&[(&b, SelSpec::Prefix(2))], &[1]);
        assert_eq!(kp.rows(), 2);
        assert_eq!(kp.value(0, 0), Value::Int64(5));
        assert_eq!(kp.value(1, 0), Value::Int64(1));
    }

    proptest! {
        /// String codes across parts with different dictionaries, under
        /// selections that leave dictionary entries unused, order rows as
        /// their strings do; a probe matches exactly the equal strings.
        #[test]
        fn string_codes_order_as_strings_across_parts(
            parts in prop::collection::vec(
                (
                    prop::collection::vec(
                        prop_oneof![3 => "[ab]{0,2}", 1 => "[aé😀]{1,3}", 1 => "[a-z]{6}"],
                        1..8,
                    ),
                    prop::collection::vec(0usize..16, 0..12),
                ),
                1..4,
            ),
        ) {
            let batches: Vec<Batch> = parts
                .iter()
                .map(|(pool, _)| batch(vec![("s", Column::utf8(pool))]))
                .collect();
            let sels: Vec<Vec<u32>> = parts
                .iter()
                .map(|(pool, rows)| rows.iter().map(|r| (r % pool.len()) as u32).collect())
                .collect();
            let spec: Vec<(&Batch, SelSpec)> =
                batches.iter().zip(&sels).map(|(b, s)| (b, SelSpec::Rows(s))).collect();
            let kb = KeyBuffer::encode_selected(&spec, &[0]);
            let model: Vec<&str> = parts
                .iter()
                .zip(&sels)
                .flat_map(|((pool, _), s)| s.iter().map(move |&r| pool[r as usize].as_str()))
                .collect();
            let mut want: Vec<u32> = (0..model.len() as u32).collect();
            want.sort_by_key(|&r| model[r as usize]);
            prop_assert_eq!(kb.sort_indices(), want);
            for (r, s) in model.iter().enumerate() {
                prop_assert_eq!(kb.value(r, 0), Value::Utf8(s.to_string()));
            }
            let probe = kb.encode_probe(0, &batches[0].columns[0]);
            for (p, s) in parts[0].0.iter().enumerate() {
                for (r, m) in model.iter().enumerate() {
                    prop_assert_eq!(probe[p] == Some(kb.word(r, 0)), s == m);
                }
            }
        }
    }

    #[test]
    fn batched_hash_matches_scalar_mirror() {
        let ints = [i64::MIN, -1, 0, 1, 42, i64::MAX, 7, -9, 13];
        let mut acc = vec![0u64; ints.len()];
        fold_hash_i64(&mut acc, &ints);
        for (h, &x) in acc.iter().zip(&ints) {
            assert_eq!(*h, hash_key_i64(x));
        }
        let floats = [0.0, -0.0, f64::NAN, 1.5, -2.5];
        let mut acc = vec![0u64; floats.len()];
        fold_hash_f64(&mut acc, &floats);
        for (h, &x) in acc.iter().zip(&floats) {
            assert_eq!(*h, hash_key_f64_bits(total_order_bits(x)));
        }
        let bools = [true, false, true];
        let mut acc = vec![0u64; bools.len()];
        fold_hash_bool(&mut acc, &bools);
        for (h, &b) in acc.iter().zip(&bools) {
            assert_eq!(*h, hash_key_bool(b));
        }
        // Folding a second column matches the scalar h*31 + kh recurrence.
        let mut acc = vec![0u64; ints.len()];
        fold_hash_i64(&mut acc, &ints);
        let before = acc.clone();
        fold_hash_i64(&mut acc, &ints);
        for ((h, prev), &x) in acc.iter().zip(&before).zip(&ints) {
            assert_eq!(*h, prev.wrapping_mul(31).wrapping_add(hash_key_i64(x)));
        }
    }

    #[test]
    fn mix64_scrambles_and_is_stable() {
        assert_eq!(mix64(0), 0);
        // Single-bit inputs must diverge in the low bits (the partition
        // bucket is `hash % n`).
        assert_ne!(mix64(1) & 0xFFFF, mix64(2) & 0xFFFF);
        assert_ne!(mix64(1) & 0xFFFF, mix64(1 << 63) & 0xFFFF);
    }
}
