//! Property tests for the generic [`WireCodec`] implementations: exact
//! roundtrips (`decode(encode(m)) == m`, consuming every bit), size
//! honesty (`encode` writes exactly `encoded_bits(m)` bits), and bound
//! soundness (`encoded_bits(m) <= max_bits(p)` for in-domain values).

use delta_graphs::NodeId;
use local_model::wire::{decode_from_bytes, encode_to_bytes, gamma_bits};
use local_model::{WireCodec, WireParams};
use proptest::prelude::*;

fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(m: &M) {
    let (bytes, bits) = encode_to_bytes(m);
    assert_eq!(bits, m.encoded_bits(), "size honesty for {m:?}");
    let back: M = decode_from_bytes(&bytes, bits).unwrap_or_else(|| panic!("roundtrip of {m:?}"));
    assert_eq!(&back, m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn u64_and_u32_roundtrip(v in 0u64..u64::MAX, w in 0u32..u32::MAX) {
        roundtrip(&v);
        roundtrip(&w);
        roundtrip(&(v, w));
    }

    #[test]
    fn node_ids_roundtrip_and_respect_bounds(n in 2u64..1 << 32, sel in 0u64..1 << 32) {
        let id = NodeId((sel % n) as u32);
        roundtrip(&id);
        let p = WireParams { n, max_degree: 4, palette: 5 };
        let bound = NodeId::max_bits(&p).unwrap();
        prop_assert!(id.encoded_bits() <= bound, "{id:?}: {} > {bound}", id.encoded_bits());
        prop_assert_eq!(id.encoded_bits(), gamma_bits(id.0 as u64));
    }

    #[test]
    fn options_and_vecs_roundtrip(items in proptest::collection::vec(0u64..1 << 48, 0..30), some in proptest::bool::ANY) {
        let opt = some.then(|| items.first().copied().unwrap_or(7));
        roundtrip(&opt);
        roundtrip(&items);
        let ids: Vec<NodeId> = items.iter().map(|&v| NodeId(v as u32)).collect();
        roundtrip(&ids);
        // Nested containers compose.
        roundtrip(&vec![items.clone(), Vec::new()]);
    }

    #[test]
    fn tuples_sum_their_parts(a in 0u64..1 << 60, b in 0u32..1 << 30, c in proptest::bool::ANY) {
        let m = (a, b, c);
        roundtrip(&m);
        prop_assert_eq!(m.encoded_bits(), a.encoded_bits() + b.encoded_bits() + 1);
        let p = WireParams { n: 1 << 20, max_degree: 8, palette: 9 };
        prop_assert_eq!(<(u64, u32, bool)>::max_bits(&p), Some(64 + 32 + 1));
        prop_assert!(m.encoded_bits() <= 97);
    }

    #[test]
    fn truncation_never_panics(items in proptest::collection::vec(0u64..1 << 20, 1..10), cut in 1u64..64) {
        let (bytes, bits) = encode_to_bytes(&items);
        let cut = cut.min(bits);
        prop_assert!(decode_from_bytes::<Vec<u64>>(&bytes, bits - cut).is_none());
    }
}

/// The bit-at-a-time kernels the word-level `BitWriter`/`BitReader`
/// replaced, kept verbatim as the reference the kernels must match bit
/// for bit: same bytes (padding included), same bit counts, same read
/// values and the same `None`s.
mod reference {
    #[derive(Default)]
    pub struct Writer {
        pub bytes: Vec<u8>,
        pub bits: u64,
    }

    impl Writer {
        pub fn write_bits(&mut self, value: u64, width: u32) {
            assert!(width <= 64);
            assert!(width == 64 || value < (1u64 << width));
            for i in 0..width {
                let bit = (value >> i) & 1;
                let pos = (self.bits % 8) as u32;
                if pos == 0 {
                    self.bytes.push(0);
                }
                *self.bytes.last_mut().unwrap() |= (bit as u8) << pos;
                self.bits += 1;
            }
        }

        pub fn write_gamma(&mut self, v: u64) {
            let w = v + 1;
            let k = 64 - w.leading_zeros();
            self.write_bits(0, k - 1);
            for i in (0..k).rev() {
                self.write_bits((w >> i) & 1, 1);
            }
        }

        pub fn write_raw(&mut self, bytes: &[u8], start_bit: u64, len_bits: u64) {
            assert!(start_bit + len_bits <= bytes.len() as u64 * 8);
            let mut done = 0u64;
            while done < len_bits {
                let take = (len_bits - done).min(64) as u32;
                let mut word = 0u64;
                for i in 0..take {
                    let at = start_bit + done + u64::from(i);
                    let bit = (bytes[(at / 8) as usize] >> (at % 8)) & 1;
                    word |= u64::from(bit) << i;
                }
                self.write_bits(word, take);
                done += u64::from(take);
            }
        }
    }

    pub struct Reader<'a> {
        pub bytes: &'a [u8],
        pub len_bits: u64,
        pub cursor: u64,
    }

    impl Reader<'_> {
        pub fn read_bits(&mut self, width: u32) -> Option<u64> {
            if width as u64 > self.len_bits - self.cursor {
                return None;
            }
            let mut out = 0u64;
            for i in 0..width {
                let at = self.cursor + i as u64;
                let bit = (self.bytes[(at / 8) as usize] >> (at % 8)) & 1;
                out |= (bit as u64) << i;
            }
            self.cursor += width as u64;
            Some(out)
        }

        pub fn read_raw(&mut self, len_bits: u64) -> Option<Vec<u8>> {
            if len_bits > self.len_bits - self.cursor {
                return None;
            }
            let mut w = Writer::default();
            let mut done = 0u64;
            while done < len_bits {
                let take = (len_bits - done).min(64) as u32;
                w.write_bits(self.read_bits(take)?, take);
                done += u64::from(take);
            }
            Some(w.bytes)
        }

        pub fn read_gamma(&mut self) -> Option<u64> {
            let mut zeros = 0u32;
            while self.read_bits(1)? == 0 {
                zeros += 1;
                if zeros >= 64 {
                    return None;
                }
            }
            let mut w = 1u64;
            for _ in 0..zeros {
                w = (w << 1) | self.read_bits(1)?;
            }
            Some(w - 1)
        }
    }
}

/// Widths every kernel boundary cares about: empty, single bit, the
/// 56/57-bit window edges, and the 63/64-bit word edges.
const EDGE_WIDTHS: [u32; 6] = [0, 1, 56, 57, 63, 64];

/// A gamma value from one of four regimes selected by `kind`: small,
/// straddling 2^32 (the one-write/two-write split), near the largest
/// codable value `u64::MAX − 1`, or anywhere.
fn gamma_value(kind: u32, r: u64) -> u64 {
    match kind % 4 {
        0 => r % 1000,
        1 => (1u64 << 32) - 4 + r % 8,
        2 => u64::MAX - 1 - r % 4,
        _ => r % (u64::MAX - 1),
    }
}

/// One write: `kind` picks `write_bits` (edge or random width),
/// `write_gamma` or `write_raw` (an unaligned slice of a fixed source
/// buffer).
fn apply_write(
    kind: u32,
    a: u64,
    b: u32,
    src: &[u8],
    new: &mut local_model::BitWriter,
    old: &mut reference::Writer,
) {
    match kind % 4 {
        0 | 1 => {
            let width = if kind.is_multiple_of(4) {
                EDGE_WIDTHS[b as usize % EDGE_WIDTHS.len()]
            } else {
                b % 65
            };
            let value = match width {
                0 => 0,
                64 => a,
                w => a & ((1u64 << w) - 1),
            };
            new.write_bits(value, width);
            old.write_bits(value, width);
        }
        2 => {
            let v = gamma_value(b, a);
            new.write_gamma(v);
            old.write_gamma(v);
        }
        _ => {
            let total = src.len() as u64 * 8;
            let start = a % total;
            let len = u64::from(b) % (total - start + 1);
            new.write_raw(src, start, len);
            old.write_raw(src, start, len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random write sequences produce identical bytes and bit counts
    /// under the word-level kernels and the bit-at-a-time reference.
    #[test]
    fn word_kernels_write_like_the_bit_loops(
        ops in proptest::collection::vec((0u32..4, 0u64..u64::MAX, 0u32..1 << 10), 0..40),
        src in proptest::collection::vec(0u64..u64::MAX, 1..6),
    ) {
        let src: Vec<u8> = src.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut new = local_model::BitWriter::new();
        let mut old = reference::Writer::default();
        for &(kind, a, b) in &ops {
            apply_write(kind, a, b, &src, &mut new, &mut old);
            prop_assert_eq!(new.bits(), old.bits);
        }
        let (bytes, bits) = new.finish();
        prop_assert_eq!(bits, old.bits);
        prop_assert_eq!(bytes, old.bytes);
    }

    /// Random read sequences over random buffers (truncated at a random
    /// bit) return identical values and `None`s under both kernels:
    /// edge widths, gamma codes, and raw slices at unaligned cursors.
    #[test]
    fn word_kernels_read_like_the_bit_loops(
        words in proptest::collection::vec(0u64..u64::MAX, 0..6),
        zero_run in 0u32..4,
        cut in 0u64..1 << 12,
        reads in proptest::collection::vec((0u32..4, 0u32..1 << 10), 1..40),
    ) {
        // Half the buffers lead with a long zero run (62–65 zeros) so
        // the gamma reader meets its 63- and 64-zero boundaries.
        let mut w = local_model::BitWriter::new();
        if zero_run > 1 {
            w.write_bits(0, 60 + zero_run);
        }
        for &x in &words {
            w.write_bits(x, 64);
        }
        let (bytes, full) = w.finish();
        let len_bits = full - cut % (full + 1);
        let mut new = local_model::BitReader::new(&bytes, len_bits);
        let mut old = reference::Reader { bytes: &bytes, len_bits, cursor: 0 };
        for &(kind, b) in &reads {
            match kind % 4 {
                0 => {
                    let width = EDGE_WIDTHS[b as usize % EDGE_WIDTHS.len()];
                    prop_assert_eq!(new.read_bits(width), old.read_bits(width));
                }
                1 => {
                    let width = b % 65;
                    prop_assert_eq!(new.read_bits(width), old.read_bits(width));
                }
                2 => {
                    let got = new.read_gamma();
                    prop_assert_eq!(got, old.read_gamma());
                    if got.is_none() {
                        break; // the cursor after a failed gamma is unspecified
                    }
                }
                _ => {
                    let len = u64::from(b) % 200;
                    prop_assert_eq!(new.read_raw(len), old.read_raw(len));
                }
            }
            prop_assert_eq!(new.consumed(), old.cursor);
        }
    }

    /// Writes decode back through the word-level reader exactly as the
    /// reference reader decodes them, field by field.
    #[test]
    fn word_kernels_roundtrip_mixed_fields(
        ops in proptest::collection::vec((0u32..3, 0u64..u64::MAX, 0u32..1 << 10), 1..30),
    ) {
        let mut new = local_model::BitWriter::new();
        let mut old = reference::Writer::default();
        for &(kind, a, b) in &ops {
            apply_write(kind, a, b, &[], &mut new, &mut old);
        }
        let (bytes, bits) = new.finish();
        let mut r = local_model::BitReader::new(&bytes, bits);
        let mut rr = reference::Reader { bytes: &bytes, len_bits: bits, cursor: 0 };
        for &(kind, _, b) in &ops {
            match kind % 3 {
                0 => {
                    let width = EDGE_WIDTHS[b as usize % EDGE_WIDTHS.len()];
                    prop_assert_eq!(r.read_bits(width), rr.read_bits(width));
                }
                1 => prop_assert_eq!(r.read_bits(b % 65), rr.read_bits(b % 65)),
                _ => prop_assert_eq!(r.read_gamma(), rr.read_gamma()),
            }
        }
        prop_assert!(r.is_exhausted());
    }
}

/// Zero runs at the gamma reader's boundaries: 63 zeros then a 1 is the
/// code of a 64-bit value (decodes when its 63 value bits follow, `None`
/// when they are cut short); 64 zeros is no code at all, even with a 1
/// right after.
#[test]
fn gamma_zero_runs_of_63_and_64() {
    for v in [u64::MAX - 1, 1 << 63, (1 << 63) - 1, (1 << 32) - 1, 1 << 32] {
        let mut w = local_model::BitWriter::new();
        w.write_gamma(v);
        w.write_bool(true);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, gamma_bits(v) + 1);
        let mut r = local_model::BitReader::new(&bytes, bits);
        assert_eq!(r.read_gamma(), Some(v));
        assert_eq!(r.read_bool(), Some(true));
        // Truncated inside the value bits.
        let mut r = local_model::BitReader::new(&bytes, bits - 2);
        assert_eq!(r.read_gamma(), None);
    }
    for zeros in [63u32, 64] {
        let mut w = local_model::BitWriter::new();
        w.write_bits(0, zeros);
        w.write_bits(u64::MAX, 64);
        let (bytes, bits) = w.finish();
        let mut new = local_model::BitReader::new(&bytes, bits);
        let mut old = reference::Reader {
            bytes: &bytes,
            len_bits: bits,
            cursor: 0,
        };
        let got = new.read_gamma();
        assert_eq!(got, old.read_gamma(), "zero run of {zeros}");
        assert_eq!(got.is_some(), zeros == 63, "zero run of {zeros}");
    }
}
