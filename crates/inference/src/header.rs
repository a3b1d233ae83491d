//! The fixed-length inference header (§5 "Inference aggregation", §6.10).
//!
//! Layout (compact variant, the paper's):
//!
//! ```text
//! +---------+----------------------+----------------------+ ...
//! | hop_now | link id (1B) | w+15  | link id (1B) | w+15  | ...  k entries
//! +---------+----------------------+----------------------+ ...
//! ```
//!
//! "we allocate 2 bytes for each accused link ... The higher 1B encodes the
//! identity of the link, and the lower 1B records the corresponding weight
//! (−15–241, 0 is omitted). Drifted inferences require 1B in addition to
//! record hop_now." — total 1 + 2k bytes = 9 B at k = 4.
//!
//! Weights are offset-encoded (`stored = clamp(round(w), −15, 240) + 15`);
//! link id `0xFF` marks an empty slot, limiting compact-variant networks to
//! 255 links. The **wide** variant spends 2 bytes on the id (sentinel
//! `0xFFFF`) for larger networks — 13 B at k = 4.
//!
//! Two forms write and read the layout. The **keyed** form
//! ([`HeaderCodec::encode_keyed_into`] and the parse inside
//! [`wire_hop`](crate::wire_hop)) is the data plane's: the wire hop writes
//! every header a packet carries, and a live warning quotes those bytes.
//! The **reference** form — [`encode`](HeaderCodec::encode),
//! [`decode`](HeaderCodec::decode), [`encode_into`](HeaderCodec::encode_into)
//! and [`decode_inline`](HeaderCodec::decode_inline), on `f64` weights — is
//! the oracle `wire_hop` is proptested against and what `benchmark/`'s
//! layer loops time; in product code only a flight-attached hop runs it,
//! parsing the incoming header for its record with `decode_inline`.

use crate::inference::Inference;
use crate::inline::{InlineInference, INLINE_CAP};
use crate::keyed::{KeySums, KeyedInference};
use db_topology::LinkId;

/// Upper bound on any deployed codec's [`byte_len`](HeaderCodec::byte_len):
/// the largest supported k ([`crate::MAX_K`], `INLINE_CAP / 2`) in the wide
/// (3 bytes/slot) variant. Lets the per-hop path encode into a stack
/// buffer. (The expression text is pinned by the wire-schema ratchet.)
pub const MAX_HEADER_BYTES: usize = 1 + (INLINE_CAP / 2) * 3;

/// Minimum encodable weight.
pub const WEIGHT_MIN: i32 = -15;
/// Maximum encodable weight.
pub const WEIGHT_MAX: i32 = 240;
/// Empty-slot sentinel for the compact (1-byte id) variant.
pub const SENTINEL_COMPACT: u8 = 0xFF;
/// Empty-slot sentinel for the wide (2-byte id) variant.
pub const SENTINEL_WIDE: u16 = 0xFFFF;

/// Encoder/decoder for the drifted-inference header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderCodec {
    /// Inference length k — number of (link, weight) slots.
    pub k: usize,
    /// Whether link ids take 2 bytes (networks with more than 255 links).
    pub wide: bool,
}

impl HeaderCodec {
    /// The paper's configuration: k = 4, 1-byte ids → 9-byte header.
    pub fn paper() -> Self {
        HeaderCodec { k: 4, wide: false }
    }

    /// Pick the narrowest codec able to address `link_count` links.
    pub fn for_network(k: usize, link_count: usize) -> Self {
        assert!(k >= 1, "inference length must be at least 1");
        assert!(
            link_count < usize::from(SENTINEL_WIDE),
            "networks with ≥ 65535 links are not addressable"
        );
        HeaderCodec {
            k,
            wide: link_count >= usize::from(SENTINEL_COMPACT),
        }
    }

    /// Encoded size in bytes: `1 + k·(id_bytes + 1)`.
    pub fn byte_len(&self) -> usize {
        1 + self.k * (if self.wide { 3 } else { 2 })
    }

    /// Encode `(inference, hop_now)` (reference form). Entries beyond the
    /// strongest k are dropped; weights are clamped to the encodable range —
    /// exactly the lossy behavior of the hardware header.
    pub fn encode(&self, inf: &Inference, hop_now: u8) -> Vec<u8> {
        let mut buf = vec![0; self.byte_len()];
        let entries = inf.entries().iter().map(|&(l, w)| (l.0, weight_byte(w)));
        self.write_slots(hop_now, entries, &mut buf);
        buf
    }

    /// Decode a header (reference form); `None` on wrong length.
    pub fn decode(&self, bytes: &[u8]) -> Option<(Inference, u8)> {
        if bytes.len() != self.byte_len() {
            return None;
        }
        let (&hop_now, body) = bytes.split_first()?;
        let pairs = self
            .read_slots(body)
            .map(|(id, w)| (LinkId(id), f64::from(w)));
        Some((Inference::from_pairs(pairs), hop_now))
    }

    /// Allocation-free [`encode`](Self::encode) (reference form): write the
    /// header into a caller-provided buffer (e.g. a `[u8; MAX_HEADER_BYTES]`
    /// on the stack) and return the number of bytes written, always
    /// [`byte_len`](Self::byte_len). Slot contents and order are byte-for-
    /// byte identical to `encode(&inf.to_inference(), hop_now)`: slots emit
    /// in the canonical `(weight desc, link asc)` order and zero-rounded
    /// weights are omitted.
    #[inline]
    pub fn encode_into(&self, inf: &InlineInference, hop_now: u8, buf: &mut [u8]) -> usize {
        let entries = inf.entries().iter().map(|&(l, w)| (l.0, weight_byte(w)));
        self.write_slots(hop_now, entries, buf)
    }

    /// Allocation-free [`decode`](Self::decode) (reference form; the
    /// flight-attached hop's parse): same parse, but straight into an
    /// [`InlineInference`]. Duplicate slots (never produced by our
    /// encoder, but legal on the wire) sum in slot order and zero totals are
    /// swept afterwards — exactly what `Inference::from_pairs` does, so
    /// `decode_inline(b)` matches `decode(b)` entry-for-entry.
    // db-lint: allow(hot-panic) — k is pinned to INLINE_CAP by the assert
    pub fn decode_inline(&self, bytes: &[u8]) -> Option<(InlineInference, u8)> {
        if bytes.len() != self.byte_len() {
            return None;
        }
        assert!(
            self.k <= INLINE_CAP,
            "k = {} exceeds the inline capacity {INLINE_CAP}",
            self.k
        );
        let (&hop_now, body) = bytes.split_first()?;
        let mut inf = InlineInference::empty();
        for (id, w) in self.read_slots(body) {
            inf.accumulate(LinkId(id), f64::from(w));
        }
        inf.normalize();
        Some((inf, hop_now))
    }

    /// The keyed hop's parse of a header of [`byte_len`](Self::byte_len)
    /// bytes: every slot's `(link, weight)` added to `sums` in slot order,
    /// sentinels skipped, and `hop_now` returned. Zero totals drop when the
    /// sums are cut, so this reads what [`decode_inline`](Self::decode_inline)
    /// reads. The caller checks the length, before it sets up `sums` — a
    /// record with no header parked pays for neither; a short slice reads
    /// as its whole slots, an empty one as `hop_now` 0. (The sums are the
    /// caller's: returning them by value cost ≈ 7 % of the daemon's
    /// records/s on `serve-failure-closed`, 2 vCPUs.)
    #[inline]
    pub(crate) fn decode_keyed(&self, bytes: &[u8], sums: &mut KeySums) -> u8 {
        let Some((&hop_now, body)) = bytes.split_first() else {
            return 0;
        };
        for (id, w) in self.read_slots(body) {
            sums.add(id, i64::from(w));
        }
        hop_now
    }

    /// [`encode_into`](Self::encode_into) for a keyed inference: the same
    /// bytes for the same entries. Returns [`byte_len`](Self::byte_len).
    #[inline]
    pub fn encode_keyed_into(&self, inf: &KeyedInference, hop_now: u8, buf: &mut [u8]) -> usize {
        let entries = inf.entries().map(|(l, w)| (l.0, int_weight_byte(w)));
        self.write_slots(hop_now, entries, buf)
    }

    /// Bytes per slot: the link id's one or two, then the weight byte.
    #[inline]
    fn slot_len(&self) -> usize {
        if self.wide {
            3
        } else {
            2
        }
    }

    /// The one writer of the layout: `hop_now`, then a slot for each of
    /// the first k `(link id, weight byte)` of `entries` — canonical order,
    /// `None` for a weight that is omitted because it rounds to zero — then
    /// sentinel slots up to k. Returns [`byte_len`](Self::byte_len). Panics
    /// when `buf` is shorter than that.
    #[inline]
    // db-lint: allow(hot-panic) — a buffer shorter than byte_len is a caller bug
    fn write_slots(
        &self,
        hop_now: u8,
        entries: impl Iterator<Item = (u16, Option<u8>)>,
        buf: &mut [u8],
    ) -> usize {
        let len = self.byte_len();
        assert!(buf.len() >= len, "header buffer too small");
        let Some((head, body)) = buf.get_mut(..len).and_then(|b| b.split_first_mut()) else {
            return 0;
        };
        *head = hop_now;
        let mut written = entries.take(self.k).filter_map(|(l, wb)| Some((l, wb?)));
        for slot in body.chunks_exact_mut(self.slot_len()) {
            let entry = written.next();
            match slot {
                [id, wb] => {
                    (*id, *wb) = entry.map_or((SENTINEL_COMPACT, 0), |(l, b)| {
                        debug_assert!(
                            l < u16::from(SENTINEL_COMPACT),
                            "link id {l} does not fit the compact header"
                        );
                        // A release-mode id overflow degrades to an empty
                        // slot instead of silently aliasing another link.
                        (u8::try_from(l).unwrap_or(SENTINEL_COMPACT), b)
                    });
                }
                [hi, lo, wb] => {
                    let (l, b) = entry.unwrap_or((SENTINEL_WIDE, 0));
                    [*hi, *lo] = l.to_be_bytes();
                    *wb = b;
                }
                _ => {}
            }
        }
        len
    }

    /// The one reader of the layout: a header's slots after `hop_now`, as
    /// `(link id, weight)` in slot order, sentinels skipped. A short body
    /// reads as its whole slots.
    #[inline]
    fn read_slots<'a>(&self, body: &'a [u8]) -> impl Iterator<Item = (u16, i32)> + 'a {
        body.chunks_exact(self.slot_len()).filter_map(|slot| {
            let (id, wb) = match *slot {
                [id, wb] if id != SENTINEL_COMPACT => (u16::from(id), wb),
                [hi, lo, wb] if u16::from_be_bytes([hi, lo]) != SENTINEL_WIDE => {
                    (u16::from_be_bytes([hi, lo]), wb)
                }
                _ => return None,
            };
            Some((id, i32::from(wb) + WEIGHT_MIN))
        })
    }
}

/// Encoded weight byte for an integer weight: clamp to the encodable
/// range, shift by `-WEIGHT_MIN` into `0..=255`. `None` for zero ("0 is
/// omitted" — no signal).
#[inline]
fn int_weight_byte(w: i64) -> Option<u8> {
    let stored = w.clamp(i64::from(WEIGHT_MIN), i64::from(WEIGHT_MAX));
    if stored == 0 {
        None
    } else {
        u8::try_from(stored - i64::from(WEIGHT_MIN)).ok()
    }
}

/// Encoded weight byte for `w`: round, then [`int_weight_byte`].
#[inline]
fn weight_byte(w: f64) -> Option<u8> {
    let rounded = w.round() as i64; // db-lint: allow(wire-cast) — f64→i64 `as` saturates by definition; int_weight_byte then pins the encodable range
    int_weight_byte(rounded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> LinkId {
        LinkId(i)
    }

    #[test]
    fn paper_header_is_nine_bytes() {
        assert_eq!(HeaderCodec::paper().byte_len(), 9);
        assert_eq!(HeaderCodec { k: 8, wide: false }.byte_len(), 17);
        assert_eq!(HeaderCodec { k: 4, wide: true }.byte_len(), 13);
    }

    #[test]
    fn round_trip_integer_weights() {
        let codec = HeaderCodec::paper();
        let inf = Inference::from_pairs([(l(3), 7.0), (l(10), -4.0), (l(0), 2.0)]);
        let bytes = codec.encode(&inf, 5);
        assert_eq!(bytes.len(), 9);
        let (back, hops) = codec.decode(&bytes).unwrap();
        assert_eq!(hops, 5);
        assert_eq!(back, inf);
    }

    #[test]
    fn round_trip_empty() {
        let codec = HeaderCodec::paper();
        let bytes = codec.encode(&Inference::empty(), 0);
        let (back, hops) = codec.decode(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(hops, 0);
    }

    #[test]
    fn weights_clamp_to_encodable_range() {
        let codec = HeaderCodec::paper();
        let inf = Inference::from_pairs([(l(1), 1_000.0), (l(2), -99.0)]);
        let (back, _) = codec.decode(&codec.encode(&inf, 1)).unwrap();
        assert_eq!(back.weight_of(l(1)), WEIGHT_MAX as f64);
        assert_eq!(back.weight_of(l(2)), WEIGHT_MIN as f64);
    }

    #[test]
    fn fractional_weights_round() {
        let codec = HeaderCodec::paper();
        let inf = Inference::from_pairs([(l(1), 2.4), (l(2), 2.6), (l(3), 0.2)]);
        let (back, _) = codec.decode(&codec.encode(&inf, 1)).unwrap();
        assert_eq!(back.weight_of(l(1)), 2.0);
        assert_eq!(back.weight_of(l(2)), 3.0);
        // 0.2 rounds to 0 → omitted.
        assert_eq!(back.weight_of(l(3)), 0.0);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn truncates_to_k() {
        let codec = HeaderCodec { k: 2, wide: false };
        let inf = Inference::from_pairs([(l(1), 5.0), (l(2), 4.0), (l(3), 3.0)]);
        let (back, _) = codec.decode(&codec.encode(&inf, 1)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.weight_of(l(3)), 0.0);
    }

    #[test]
    fn wide_round_trip_large_ids() {
        let codec = HeaderCodec { k: 4, wide: true };
        let inf = Inference::from_pairs([(l(300), 3.0), (l(65000), 2.0)]);
        let bytes = codec.encode(&inf, 200);
        assert_eq!(bytes.len(), 13);
        let (back, hops) = codec.decode(&bytes).unwrap();
        assert_eq!(hops, 200);
        assert_eq!(back, inf);
    }

    #[test]
    fn for_network_picks_width() {
        assert!(
            !HeaderCodec::for_network(4, 151).wide,
            "AS1221 fits compact"
        );
        assert!(HeaderCodec::for_network(4, 255).wide);
        assert!(HeaderCodec::for_network(4, 10_000).wide);
    }

    #[test]
    fn wrong_length_rejected() {
        let codec = HeaderCodec::paper();
        assert!(codec.decode(&[0u8; 8]).is_none());
        assert!(codec.decode(&[0u8; 10]).is_none());
        assert!(codec.decode(&[]).is_none());
    }

    #[test]
    fn hop_counter_saturates_at_byte() {
        // The caller saturates hop_now at 255; the codec stores it verbatim.
        let codec = HeaderCodec::paper();
        let (_, hops) = codec
            .decode(&codec.encode(&Inference::empty(), 255))
            .unwrap();
        assert_eq!(hops, 255);
    }

    #[test]
    fn encoded_form_is_deterministic() {
        let codec = HeaderCodec::paper();
        let inf = Inference::from_pairs([(l(5), 4.0), (l(2), 4.0), (l(9), 1.0)]);
        assert_eq!(codec.encode(&inf, 3), codec.encode(&inf, 3));
    }

    #[test]
    fn encode_into_matches_encode_byte_for_byte() {
        for codec in [
            HeaderCodec::paper(),
            HeaderCodec { k: 2, wide: false },
            HeaderCodec { k: 4, wide: true },
        ] {
            let inf = Inference::from_pairs([
                (l(5), 4.0),
                (l(2), 4.0),
                (l(9), 0.3),
                (l(1), -3.0),
                (l(8), 7.0),
            ]);
            let heap = codec.encode(&inf, 11);
            let mut buf = [0u8; MAX_HEADER_BYTES];
            let n = codec.encode_into(&InlineInference::from_inference(&inf), 11, &mut buf);
            assert_eq!(&buf[..n], &heap[..], "codec {codec:?}");
        }
    }

    #[test]
    fn decode_inline_matches_decode() {
        let codec = HeaderCodec::paper();
        let inf = Inference::from_pairs([(l(3), 7.0), (l(10), -4.0), (l(0), 2.0)]);
        let bytes = codec.encode(&inf, 5);
        let (vec_form, h1) = codec.decode(&bytes).unwrap();
        let (inl_form, h2) = codec.decode_inline(&bytes).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(inl_form.to_inference(), vec_form);
        // Wrong length rejected the same way.
        assert!(codec.decode_inline(&[0u8; 8]).is_none());
    }

    #[test]
    fn keyed_codec_matches_the_inline_codec() {
        use crate::keyed::{KeySums, KeyedInference};
        let w = |v: i32| (v - WEIGHT_MIN) as u8;
        for codec in [HeaderCodec::paper(), HeaderCodec { k: 4, wide: true }] {
            let inf =
                Inference::from_pairs([(l(5), 4.0), (l(2), 4.0), (l(1), -3.0), (l(8), 300.0)]);
            let inline = InlineInference::from_inference(&inf).top_k(codec.k);
            let keyed = KeyedInference::from_entries(inline.entries()).unwrap();
            let (mut a, mut b) = ([0u8; MAX_HEADER_BYTES], [0u8; MAX_HEADER_BYTES]);
            let n = codec.encode_keyed_into(&keyed, 7, &mut a);
            assert_eq!(n, codec.encode_into(&inline, 7, &mut b));
            assert_eq!(a[..n], b[..n], "codec {codec:?}");
            // Round trip: the keyed parse of those bytes is the inline decode.
            let mut sums = KeySums::new();
            assert_eq!(codec.decode_keyed(&a[..n], &mut sums), 7);
            let (decoded, _) = codec.decode_inline(&a[..n]).unwrap();
            assert_eq!(sums.top_k(codec.k).0.to_inline(), decoded);
        }
        // Duplicate slots sum, and a zero total drops.
        let codec = HeaderCodec::paper();
        let bytes = [2, 3, w(5), 3, w(-5), 1, w(2), 1, w(240)];
        let mut sums = KeySums::new();
        assert_eq!(codec.decode_keyed(&bytes, &mut sums), 2);
        let (inline, _) = codec.decode_inline(&bytes).unwrap();
        assert_eq!(
            sums.top_k(4),
            (KeyedInference::from_entries(inline.entries()).unwrap(), 1)
        );
    }

    #[test]
    fn decode_inline_sums_duplicate_slots_like_from_pairs() {
        // Hand-craft a header accusing link 3 twice (our encoder never does
        // this, but the decoder must agree with the Vec path on it).
        let codec = HeaderCodec::paper();
        let w = |v: i32| (v - WEIGHT_MIN) as u8;
        let bytes = [2, 3, w(5), 3, w(-5), 1, w(2), SENTINEL_COMPACT, 0];
        let (vec_form, _) = codec.decode(&bytes).unwrap();
        let (inl_form, _) = codec.decode_inline(&bytes).unwrap();
        assert_eq!(inl_form.to_inference(), vec_form);
        assert_eq!(inl_form.weight_of(l(3)), 0.0, "5 + (-5) cancels");
        assert_eq!(inl_form.len(), 1);
    }
}
