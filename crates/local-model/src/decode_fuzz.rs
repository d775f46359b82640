//! No-panic fuzzing of the relay decoders: arbitrary bytes and bit
//! lengths fed to the `decode` of every message the CONGEST layer and
//! the engines put on a wire — [`CongestChunk`], [`OverlayEnvelope`],
//! the dilation-`k` [`FloodBatch`], the reach-flood [`ReachBatch`] of
//! ball certificates, and the shard boundary block. Each must return
//! `None` or a value; a panic (an out-of-bounds word load in the
//! bit reader, an overflowing offset, an unchecked index) fails the
//! test. Besides raw random bytes, valid encodings with a few flipped
//! bits and a random cut exercise the deep decode paths that random
//! bytes rarely reach.

use crate::ball::{Cert, ReachBatch, ReachMsg};
use crate::congest::{CongestChunk, Fragmenter};
use crate::overlay::{FloodBatch, OverlayEnvelope, OverlayRelay, RelayItem};
use crate::shard::{decode_block, shard_arc_bounds, BlockEnds, BoundaryBlock};
use crate::wire::{encode_to_bytes, BitReader, WireCodec};
use delta_graphs::{generators, NodeId, ShardPlan};
use proptest::prelude::*;
use std::sync::Arc;

/// Decodes `M` from the first `len_bits` bits of `bytes`; the result is
/// irrelevant, only that decoding returns.
fn decode_any<M: WireCodec>(bytes: &[u8], len_bits: u64) {
    let mut r = BitReader::new(bytes, len_bits);
    let _ = M::decode(&mut r);
    assert!(r.consumed() <= len_bits, "decoder read past the end");
}

/// Decodes a boundary block `0 → 1` of a 3-shard plan of `cycle(9)`.
fn decode_block_any(bytes: &[u8], bits: u64) {
    let g = generators::cycle(9);
    let plan = ShardPlan::contiguous(9, 3);
    let ends = BlockEnds {
        src: (0, 3),
        dst: (3, 6),
        dst_arcs: shard_arc_bounds(&g, &plan, 1),
    };
    let block = BoundaryBlock {
        bytes: bytes.to_vec(),
        bits,
    };
    let (mut bcasts, mut dir, mut to) = (Vec::new(), Vec::new(), Vec::new());
    if decode_block::<Vec<u32>>(&g, &block, ends, &mut bcasts, &mut dir, &mut to).is_some() {
        // What decodes is in range: senders in shard 0, recipients and
        // arcs in shard 1.
        assert!(bcasts.iter().all(|&(s, _, _)| s < 3));
        assert!(dir
            .iter()
            .all(|&(a, _)| (ends.dst_arcs.0..ends.dst_arcs.1).contains(&(a as usize))));
        assert!(to.iter().all(|&t| t < 3));
    }
}

/// Runs every decoder under test on the same bits.
fn decode_all(bytes: &[u8], len_bits: u64) {
    decode_any::<CongestChunk>(bytes, len_bits);
    decode_any::<OverlayEnvelope<u64>>(bytes, len_bits);
    decode_any::<OverlayEnvelope<Vec<u32>>>(bytes, len_bits);
    decode_any::<FloodBatch<u64>>(bytes, len_bits);
    decode_any::<FloodBatch<Vec<NodeId>>>(bytes, len_bits);
    decode_any::<ReachBatch<Cert<()>>>(bytes, len_bits);
    decode_any::<ReachBatch<Cert<u64>>>(bytes, len_bits);
    decode_block_any(bytes, len_bits);
}

/// `bytes` with the bits at `flips` (mod the bit length) inverted.
fn flipped(mut bytes: Vec<u8>, bits: u64, flips: &[u64]) -> Vec<u8> {
    for &f in flips {
        if bits > 0 {
            let at = f % bits;
            bytes[(at / 8) as usize] ^= 1 << (at % 8);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, any valid-bit count up to the buffer's length.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in proptest::collection::vec(0u16..256, 0..64),
        cut in 0u64..1 << 10,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let total = bytes.len() as u64 * 8;
        decode_all(&bytes, total - cut % (total + 1));
    }

    /// Valid encodings of every decoded shape, bit-flipped and cut.
    #[test]
    fn corrupted_encodings_never_panic_a_decoder(
        ids in proptest::collection::vec(0u32..1 << 20, 0..12),
        values in proptest::collection::vec(0u64..u64::MAX, 1..6),
        flips in proptest::collection::vec(0u64..1 << 16, 0..4),
        cut in 0u64..64,
        budget in 32u64..200,
    ) {
        let nodes: Vec<NodeId> = ids.iter().map(|&v| NodeId(v)).collect();
        let mut encodings = vec![
            encode_to_bytes(&ReachMsg(ids.iter().map(|&i| (i, nodes.clone())).collect())),
            encode_to_bytes(&ReachMsg(ids.iter().map(|&i| (i, (nodes.clone(), values[0]))).collect())),
            encode_to_bytes(&OverlayRelay {
                items: Arc::new(
                    ids.iter()
                        .map(|&origin| RelayItem { origin, ttl: origin % 5, payload: values[0] })
                        .collect(),
                ),
            }),
            encode_to_bytes(&OverlayEnvelope {
                bcast: Some(Arc::new(ids.clone())),
                directed: vec![ids.clone(), Vec::new()],
            }),
            encode_to_bytes(&OverlayEnvelope::<u64> { bcast: None, directed: values.clone() }),
            // A boundary block body: γ(count) + (γ(sender) + payload)*,
            // γ(count) + (γ(arc offset) + payload)*.
            encode_to_bytes(&(
                ids.iter().map(|&i| (NodeId(i % 3), ids.clone())).collect::<Vec<_>>(),
                ids.iter().map(|&i| (NodeId(i % 6), ids.clone())).collect::<Vec<_>>(),
            )),
        ];
        for c in Fragmenter::new(budget).fragment(ids.len() as u64, &values) {
            encodings.push(encode_to_bytes(&c));
        }
        for (bytes, bits) in encodings {
            let bytes = flipped(bytes, bits, &flips);
            decode_all(&bytes, bits - cut.min(bits));
        }
    }
}
