//! The sharded mailbox engine: single-owner partitions with batched
//! boundary blocks.
//!
//! [`ShardedEngine`] runs the same synchronous LOCAL rounds as
//! [`crate::Engine`], but partitions the graph into `S` contiguous node
//! ranges (a [`ShardPlan`]) and gives each shard its own CSR slice,
//! mailbox arena, scratch map, and worker: a round is
//! *compute-per-shard in parallel*, then *one batched wire block per
//! ordered shard pair*, then *intra-shard delivery through the
//! zero-allocation arena path*. It is the distributed-memory rehearsal
//! of the engine: boundary traffic really is serialized through
//! [`WireCodec`] bit streams and decoded on the receiving shard.
//!
//! # Single-owner discipline
//!
//! Every node has exactly one *home shard* — the shard whose contiguous
//! range contains it — and only the home shard ever steps the node's
//! program, writes its inbox, or advances its RNG stream. All state a
//! shard mutates during a round (states, RNGs, outboxes, staging
//! buffers, arena) is owned by that shard, so the per-shard fan-out
//! needs no locks and no atomics: cross-shard influence flows solely
//! through the boundary blocks exchanged at the round barrier. The
//! discipline is enforced at the boundary-block encode site: a staged
//! destination arc outside the target shard's arc range surfaces as a
//! typed [`EngineError::CrossShardArc`], not a panic.
//!
//! # Round structure
//!
//! 1. **Send + stage + encode** (parallel over shards): each shard runs
//!    its nodes' send closures, then walks its own senders in ascending
//!    id order — the [`crate::Engine`] staging walk — splitting the
//!    staged traffic into an *intra* stream (recipient in the same
//!    shard; stays in the compact `(dest_arc, payload)` form, never
//!    serialized) and one *boundary block* per other shard that
//!    receives anything. A boundary block is encoded to actual wire
//!    bits: a broadcast section (ascending sender offsets + payloads,
//!    one entry per broadcaster with at least one neighbor in the
//!    target shard) and a directed section (destination-arc offsets +
//!    payloads, in send order).
//! 2. **Exchange** (the only barrier): blocks are handed to their
//!    target shards — block `s → t` is written by `s` and read only by
//!    `t`.
//! 3. **Decode + deliver + receive** (parallel over shards): each shard
//!    decodes its inbound blocks *in source-shard order*, merges them
//!    with its intra stream, counting-sorts by recipient, fills its
//!    arena in blocks, and runs the recv closures.
//!
//! # Determinism: chunk-order merge = sender order
//!
//! The sharded engine is **seed-bit-identical** to the single-arena
//! engine — same states, same [`MessageStats`], same ledger bits, same
//! fault transcripts under a [`crate::FaultyDriver`] — for any shard
//! count and either [`ExecMode`]. The argument is a chunk-order merge
//! that reproduces the single engine's sequential routing order: shards
//! own *contiguous, ascending* node ranges, and each shard stages its
//! senders in ascending order, so concatenating shard `t`'s inbound
//! streams in source-shard order (`0, 1, …, S − 1`, with the intra
//! stream spliced in at position `t`) reproduces the global send order
//! restricted to `t`'s recipients. The stable counting sort then yields
//! the exact buckets (arc-sorted, ties in send order) the single engine
//! builds, and the fill pass walks the same sorted adjacency — so every
//! inbox slot holds the same `(sender, payload)` pair at the same
//! index, which is also why fault injection (pure hashes of
//! round/arc/slot coordinates) produces identical transcripts. All
//! bandwidth and message accounting reduces with integer sums and
//! maxima, which are merge-order-independent. The equivalence is pinned
//! by the `sharded_equivalence` proptest suite.
//!
//! # Per-shard reverse-arc tables
//!
//! Directed routing needs the reverse-arc hop (source arc → the
//! recipient's arc back). The whole-graph table is `O(2m)` and on a
//! `2^27`-node instance costs gigabytes before the first message is
//! sent; each shard instead builds the table for *its own arc slice
//! only*, lazily on the first directed message it stages, in
//! `O(m_s log Δ)`. Broadcast-only programs never build any of them, and
//! the same holds for the per-source-arc epoch marks backing the
//! bandwidth accounting.

use crate::engine::{
    bucket_bounds, node_rngs, resolve_parallel, run_send, BandwidthPolicy, EngineError, ExecMode,
    MessageStats, NodeCtx, Outbox, RoundDriver, ARENA_BLOCK,
};
use crate::ledger::RoundLedger;
use crate::wire::{BitReader, BitWriter, WireCodec};
use delta_graphs::{Graph, NodeId, ShardPlan};
use rand::rngs::StdRng;
use rayon::prelude::*;
use std::any::{Any, TypeId};
use std::collections::HashMap;

/// Wire-level counters for the boundary-block exchange, accumulated
/// across rounds. These sit *beside* [`MessageStats`] (which stays
/// bit-identical to the single-arena engine): they meter the sharding
/// overlay itself — how many blocks crossed shard boundaries and how
/// many wire bits they carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BoundaryStats {
    /// Non-empty boundary blocks encoded (one per ordered shard pair
    /// per round with any cross-shard traffic).
    pub blocks: u64,
    /// Total wire bits across all boundary blocks (envelope included).
    pub block_bits: u64,
    /// Cross-shard entries carried (broadcast-section entries plus
    /// directed-section entries).
    pub messages: u64,
}

/// One encoded boundary block: the batched wire bits shard `s` sends
/// shard `t` for one round and one message type.
#[derive(Debug)]
pub(crate) struct BoundaryBlock {
    pub(crate) bytes: Vec<u8>,
    pub(crate) bits: u64,
}

/// Per-target staging for one source shard: which of its broadcasters
/// reach the target shard, and the directed payloads headed there.
struct OutStage<M> {
    /// Local sender indices with a broadcast and ≥ 1 neighbor in the
    /// target shard, ascending.
    bcast_senders: Vec<u32>,
    /// `(global destination arc, payload)` in send order.
    directed: Vec<(u32, M)>,
    /// Local sender index of each `directed` entry (error reporting).
    directed_from: Vec<u32>,
}

impl<M> OutStage<M> {
    fn new() -> Self {
        OutStage {
            bcast_senders: Vec::new(),
            directed: Vec::new(),
            directed_from: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.bcast_senders.clear();
        self.directed.clear();
        self.directed_from.clear();
    }

    fn is_empty(&self) -> bool {
        self.bcast_senders.is_empty() && self.directed.is_empty()
    }
}

/// Per-shard, per-message-type delivery scratch: the shard's slice of
/// what the single engine's mailbox holds for the whole graph, plus the
/// boundary staging/decoded buffers. All buffers retain capacity across
/// rounds; the intra-shard path allocates nothing in steady state,
/// while the boundary path allocates its per-round wire blocks — that
/// is the point, they model real network buffers.
struct ShardMailbox<M> {
    outboxes: Vec<Outbox<M>>,
    /// Per-own-node broadcast size in bits this round.
    bcast_bits: Vec<u64>,
    /// Local indices of own nodes that broadcast this round.
    bcast_senders: Vec<u32>,
    /// Per-own-node count of distinct arcs carrying directed traffic.
    dir_arc_count: Vec<u32>,
    /// Own nodes with nonzero `dir_arc_count` (O(traffic) reset).
    dir_senders: Vec<u32>,
    /// Epoch-stamped marks over the shard's *source* arcs. A sender's
    /// distinct destination arcs biject with its distinct source arcs
    /// (the reverse-arc map), so the mark table needs only the shard's
    /// own `m_s` entries instead of the whole graph's `2m`. Sized
    /// lazily on first directed use.
    src_mark: Vec<u32>,
    src_epoch: u32,
    /// Intra-shard staged traffic `(global dest arc, payload)`, send
    /// order.
    intra: Vec<(u32, M)>,
    /// Local recipient index of each `intra` entry.
    intra_to: Vec<u32>,
    /// Boundary staging, one entry per target shard (own entry unused).
    bound_out: Vec<OutStage<M>>,
    /// Decoded inbound directed traffic, concatenated in source-shard
    /// order; the own-shard (intra) segment is spliced in *virtually*
    /// between the lower- and higher-shard segments, so the intra
    /// buffer is never copied.
    in_dir: Vec<(u32, M)>,
    /// Local recipient index of each `in_dir` entry.
    in_to: Vec<u32>,
    /// Decoded remote broadcasters `(global sender, wire bits,
    /// payload)`, ascending by sender — blocks decode in source-shard
    /// order and each block's broadcast section is ascending.
    remote_bcasts: Vec<(u32, u64, M)>,
    /// Counting-sort cursors/bounds over local recipients (`len + 1`
    /// entries, the single engine's cursor-shift layout).
    dir_start: Vec<u32>,
    /// Indices into the virtual concatenated stream, bucketed by
    /// recipient.
    dir_idx: Vec<u32>,
    /// The shard's inbox arena, filled one recipient block at a time.
    arena: Vec<(NodeId, M)>,
    inbox_start: Vec<u32>,
}

impl<M> ShardMailbox<M> {
    fn new() -> Self {
        ShardMailbox {
            outboxes: Vec::new(),
            bcast_bits: Vec::new(),
            bcast_senders: Vec::new(),
            dir_arc_count: Vec::new(),
            dir_senders: Vec::new(),
            src_mark: Vec::new(),
            src_epoch: 0,
            intra: Vec::new(),
            intra_to: Vec::new(),
            bound_out: Vec::new(),
            in_dir: Vec::new(),
            in_to: Vec::new(),
            remote_bcasts: Vec::new(),
            dir_start: Vec::new(),
            dir_idx: Vec::new(),
            arena: Vec::new(),
            inbox_start: Vec::new(),
        }
    }

    /// Sizes the fixed-shape buffers for a `len`-node shard in an
    /// `shards`-way plan (no-op after warm-up).
    fn ensure_shape(&mut self, len: usize, shards: usize) {
        if self.outboxes.len() != len {
            self.outboxes.resize_with(len, Outbox::new);
            self.bcast_bits.resize(len, 0);
            self.dir_arc_count.resize(len, 0);
            self.dir_start.resize(len + 1, 0);
            self.inbox_start.resize(len + 1, 0);
            self.src_mark.clear(); // re-sized lazily on first directed use
            self.src_epoch = 0;
        }
        if self.bound_out.len() != shards {
            self.bound_out.resize_with(shards, OutStage::new);
        }
    }
}

/// Structural (message-type-independent) per-shard state.
struct Shard {
    index: usize,
    /// Owned node range `[lo, hi)` — the shard's CSR slice.
    lo: usize,
    hi: usize,
    /// Owned arc range (arcs leaving the shard's nodes).
    arc_lo: usize,
    arc_hi: usize,
    /// Lazy reverse-arc table over the shard's own arcs:
    /// `rev[a - arc_lo]` is the arc opposite arc `a`. Built on the
    /// first directed message this shard stages (see module docs).
    rev: Vec<u32>,
    rev_built: bool,
    /// Per-message-type [`ShardMailbox`] scratch.
    scratch: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl Shard {
    /// Builds the shard's reverse-arc slice on first directed use:
    /// `O(m_s log Δ)` binary searches confined to the shard's own arcs
    /// — the whole-graph `O(2m)` table is never forced.
    fn ensure_rev(&mut self, graph: &Graph) {
        if self.rev_built {
            return;
        }
        let mut rev = vec![0u32; self.arc_hi - self.arc_lo];
        for i in self.lo..self.hi {
            let v = NodeId::from_index(i);
            let base = graph.arc_range(v).start;
            for (p, &w) in graph.neighbors(v).iter().enumerate() {
                let q = graph
                    .neighbor_position(w, v)
                    .expect("undirected graph: every arc has a reverse");
                rev[base + p - self.arc_lo] = (graph.arc_range(w).start + q) as u32;
            }
        }
        self.rev = rev;
        self.rev_built = true;
    }
}

/// The arc bounds of shard `t` under `plan` (empty shards get an empty
/// range).
pub(crate) fn shard_arc_bounds(graph: &Graph, plan: &ShardPlan, t: usize) -> (usize, usize) {
    let r = plan.range(t);
    let at = |v: usize| {
        if v < graph.n() {
            graph.arc_range(NodeId::from_index(v)).start
        } else {
            graph.num_arcs()
        }
    };
    (at(r.start), at(r.end))
}

/// Encodes the boundary block `s → t`, or `None` if nothing crosses.
///
/// Wire layout (metered by the bandwidth registry's
/// `shard::BoundaryBlock` row): `γ(broadcast count)`, then per
/// broadcaster ascending `γ(sender − lo_s)` + payload;
/// `γ(directed count)`, then per message in send order
/// `γ(dest_arc − arc_lo_t)` + payload.
///
/// # Errors
///
/// [`EngineError::CrossShardArc`] if a staged destination arc falls
/// outside the target shard's arc range — the `arc_range` check that
/// enforces the single-owner discipline at the encode site.
fn encode_block<M: WireCodec>(
    stage: &OutStage<M>,
    outboxes: &[Outbox<M>],
    lo_s: usize,
    arc_bounds_t: (usize, usize),
    t: usize,
) -> Result<Option<BoundaryBlock>, EngineError> {
    if stage.is_empty() {
        return Ok(None);
    }
    let (arc_lo, arc_hi) = arc_bounds_t;
    let mut w = BitWriter::new();
    w.write_gamma(stage.bcast_senders.len() as u64);
    for &j in &stage.bcast_senders {
        w.write_gamma(j as u64);
        let (bcast, _) = outboxes[j as usize].parts();
        bcast
            .expect("staged broadcaster queued a broadcast")
            .encode(&mut w);
    }
    w.write_gamma(stage.directed.len() as u64);
    for (k, (arc, m)) in stage.directed.iter().enumerate() {
        let a = *arc as usize;
        if a < arc_lo || a >= arc_hi {
            return Err(EngineError::CrossShardArc {
                from: NodeId((lo_s + stage.directed_from[k] as usize) as u32),
                arc: *arc,
                shard: t as u32,
            });
        }
        w.write_gamma((a - arc_lo) as u64);
        m.encode(&mut w);
    }
    let (bytes, bits) = w.finish();
    Ok(Some(BoundaryBlock { bytes, bits }))
}

/// The ranges a boundary block `s → t` is decoded against: the source
/// shard's node range, and the receiving shard's node and arc ranges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockEnds {
    pub(crate) src: (usize, usize),
    pub(crate) dst: (usize, usize),
    pub(crate) dst_arcs: (usize, usize),
}

/// Decodes the boundary block `s → t` on the receiving shard, appending
/// remote broadcasters (with their recomputed wire size — equal to the
/// sender-side size, payload decode being exact) and directed messages,
/// each recipient resolved from its destination arc by binary search
/// over the shard's node range.
///
/// `None` if the bits are not a block `s` could have encoded for `t`:
/// truncated, a payload that does not decode, a sender outside `s`, a
/// destination arc outside `t`, or trailing bits. Blocks from the
/// encode site always decode; the check makes arbitrary bits safe to
/// hand in.
pub(crate) fn decode_block<M: WireCodec>(
    graph: &Graph,
    block: &BoundaryBlock,
    ends: BlockEnds,
    remote_bcasts: &mut Vec<(u32, u64, M)>,
    in_dir: &mut Vec<(u32, M)>,
    in_to: &mut Vec<u32>,
) -> Option<()> {
    let (lo_s, hi_s) = ends.src;
    let (lo_t, hi_t) = ends.dst;
    let (arc_lo, arc_hi) = ends.dst_arcs;
    let offset = |base: usize, hi: usize, delta: u64| {
        let v = usize::try_from(delta).ok()?.checked_add(base)?;
        (v < hi).then_some(v)
    };
    let mut r = BitReader::new(&block.bytes, block.bits);
    let nb = r.read_gamma()?;
    for _ in 0..nb {
        let sender = offset(lo_s, hi_s, r.read_gamma()?)?;
        let m = M::decode(&mut r)?;
        remote_bcasts.push((sender as u32, m.encoded_bits(), m));
    }
    let nd = r.read_gamma()?;
    for _ in 0..nd {
        let arc = offset(arc_lo, arc_hi, r.read_gamma()?)?;
        let m = M::decode(&mut r)?;
        // Owner of the destination arc: the unique node in [lo_t, hi_t)
        // whose arc range contains it.
        let mut a = lo_t;
        let mut b = hi_t;
        while b - a > 1 {
            let mid = (a + b) / 2;
            if graph.arc_range(NodeId::from_index(mid)).start <= arc {
                a = mid;
            } else {
                b = mid;
            }
        }
        in_dir.push((arc as u32, m));
        in_to.push((a - lo_t) as u32);
    }
    r.is_exhausted().then_some(())
}

/// Per-shard result of the send + stage + encode phase.
struct Uplink {
    /// Encoded blocks by target shard (own entry `None`).
    blocks: Vec<Option<BoundaryBlock>>,
    broadcasts: u64,
    directed: u64,
    deliveries: u64,
    boundary: BoundaryStats,
    /// First invalid directed target in this shard's send order.
    invalid: Option<(NodeId, NodeId)>,
    /// Cross-shard arc caught at the encode site (aborts the round).
    encode_error: Option<EngineError>,
}

/// Per-shard result of the decode + deliver + receive phase.
#[derive(Default, Clone, Copy)]
struct BwPart {
    bits: u64,
    max_edge_bits: u64,
    violations: u64,
}

/// One shard's working set for a round: its structural state, its
/// typed mailbox (taken out of the scratch map for the round), and its
/// slices of the engine-owned states and RNG streams.
struct ShardTask<'a, S, M> {
    shard: &'a mut Shard,
    mb: Box<ShardMailbox<M>>,
    states: &'a mut [S],
    rngs: &'a mut [StdRng],
}

/// Puts every task's mailbox back into its shard's scratch map.
fn restore_mailboxes<S, M: Send + 'static>(tasks: Vec<ShardTask<'_, S, M>>) {
    for task in tasks {
        task.shard
            .scratch
            .insert(TypeId::of::<M>(), task.mb as Box<dyn Any + Send>);
    }
}

/// Synchronous message-passing executor over a sharded graph — the
/// drop-in, seed-bit-identical sibling of [`crate::Engine`] (see the
/// module docs for the architecture). Implements [`RoundDriver`], so
/// ball phases, overlays, fault injection, and the coloring drivers run
/// on it unmodified.
///
/// # Example
///
/// ```
/// use delta_graphs::{generators, ShardPlan};
/// use local_model::{RoundLedger, ShardedEngine};
///
/// let g = generators::cycle(12);
/// let plan = ShardPlan::contiguous(g.n(), 3);
/// let mut ledger = RoundLedger::new();
/// let mut engine = ShardedEngine::new(&g, plan, 42, |v| v.0);
/// engine.step(
///     &mut ledger,
///     "flood-min",
///     |_, &mut s, out| out.broadcast(s),
///     |_, s, inbox| {
///         for &(_, m) in inbox {
///             *s = (*s).min(m);
///         }
///     },
/// );
/// assert_eq!(ledger.total(), 1);
/// ```
pub struct ShardedEngine<'g, S> {
    graph: &'g Graph,
    plan: ShardPlan,
    states: Vec<S>,
    rngs: Vec<StdRng>,
    mode: ExecMode,
    policy: BandwidthPolicy,
    rounds_run: u64,
    stats: MessageStats,
    boundary: BoundaryStats,
    shards: Vec<Shard>,
}

impl<'g, S: Send> ShardedEngine<'g, S> {
    /// Creates a sharded engine over `plan` with per-node state from
    /// `init` and the *same* deterministic per-node RNG streams a
    /// single-arena [`crate::Engine`] seeded with `seed` would hand out
    /// — the first ingredient of seed-bit-identical execution.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not partition exactly `graph.n()` nodes.
    pub fn new(graph: &'g Graph, plan: ShardPlan, seed: u64, init: impl Fn(NodeId) -> S) -> Self {
        assert_eq!(plan.n(), graph.n(), "plan must partition the graph");
        let shards = (0..plan.num_shards())
            .map(|s| {
                let r = plan.range(s);
                let (arc_lo, arc_hi) = shard_arc_bounds(graph, &plan, s);
                Shard {
                    index: s,
                    lo: r.start,
                    hi: r.end,
                    arc_lo,
                    arc_hi,
                    rev: Vec::new(),
                    rev_built: false,
                    scratch: HashMap::new(),
                }
            })
            .collect();
        ShardedEngine {
            graph,
            plan,
            states: graph.nodes().map(init).collect(),
            rngs: node_rngs(seed, graph.n()),
            mode: ExecMode::Auto,
            policy: BandwidthPolicy::Local,
            rounds_run: 0,
            stats: MessageStats::default(),
            boundary: BoundaryStats::default(),
            shards,
        }
    }

    /// [`ShardedEngine::new`] over an equal-count contiguous partition
    /// into `shards` shards.
    pub fn contiguous(
        graph: &'g Graph,
        shards: usize,
        seed: u64,
        init: impl Fn(NodeId) -> S,
    ) -> Self {
        Self::new(graph, ShardPlan::contiguous(graph.n(), shards), seed, init)
    }

    /// Sets the execution mode (builder style). `Sequential` runs the
    /// shards one after another in shard order; `Parallel` fans them
    /// out to worker threads. Results are bit-identical either way.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the bandwidth policy (builder style); accounting only, as
    /// on the single-arena engine.
    pub fn with_bandwidth(mut self, policy: BandwidthPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The bandwidth policy accounting runs under.
    pub fn bandwidth_policy(&self) -> BandwidthPolicy {
        self.policy
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The shard plan this engine partitions by.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Immutable view of all node states (global id order).
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of all node states (out-of-band initialization).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Consumes the engine, returning the final states.
    pub fn into_states(self) -> Vec<S> {
        self.states
    }

    /// Number of rounds executed so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Message counters — bit-identical to a single-arena run.
    pub fn message_stats(&self) -> MessageStats {
        self.stats
    }

    /// Boundary-block wire counters (the sharding overlay's own cost).
    pub fn boundary_stats(&self) -> BoundaryStats {
        self.boundary
    }

    /// Executes one synchronous round (see [`crate::Engine::step`]).
    ///
    /// # Panics
    ///
    /// Panics on an [`EngineError`]; use [`ShardedEngine::try_step`] to
    /// observe it as a value.
    pub fn step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync,
    {
        if let Err(e) = self.try_step(ledger, phase, send, recv) {
            panic!("sharded engine round failed: {e}");
        }
    }

    /// [`ShardedEngine::step`] with typed errors instead of panics.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidDirectedTarget`] reports the first (in
    /// global send order) directed message to a non-neighbor after the
    /// round completes — exactly as on the single-arena engine.
    /// [`EngineError::CrossShardArc`] aborts the round at the exchange
    /// barrier, before any delivery (an internal invariant, unreachable
    /// through the public API); [`EngineError::ScratchTypeConflict`] as
    /// on the single engine.
    pub fn try_step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) -> Result<(), EngineError>
    where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync,
    {
        let graph = self.graph;
        let plan = &self.plan;
        let s_count = plan.num_shards();
        let parallel = resolve_parallel(self.mode, graph.n());
        let policy = self.policy;
        // Trace enrichment (clock + stats snapshot + per-shard boundary
        // deltas) is only assembled when a sink is attached.
        let trace_start = if ledger.tracing() {
            Some((std::time::Instant::now(), self.stats))
        } else {
            None
        };
        let mut trace_boundary: Vec<(u64, u64)> = Vec::new();

        // Pair each shard with its typed mailbox (taken out of the
        // scratch map for the round) and its slices of the engine-owned
        // state and RNG arrays — disjoint by the plan, so the fan-out
        // below is lock-free single-owner by construction.
        let mut tasks: Vec<ShardTask<'_, S, M>> = Vec::with_capacity(s_count);
        {
            let mut st: &mut [S] = &mut self.states;
            let mut rg: &mut [StdRng] = &mut self.rngs;
            for shard in self.shards.iter_mut() {
                let len = shard.hi - shard.lo;
                let (sa, sb) = std::mem::take(&mut st).split_at_mut(len);
                st = sb;
                let (ra, rb) = std::mem::take(&mut rg).split_at_mut(len);
                rg = rb;
                let mut mb: Box<ShardMailbox<M>> = match shard.scratch.remove(&TypeId::of::<M>()) {
                    None => Box::new(ShardMailbox::new()),
                    Some(b) => b.downcast().map_err(|_| EngineError::ScratchTypeConflict)?,
                };
                mb.ensure_shape(len, s_count);
                tasks.push(ShardTask {
                    shard,
                    mb,
                    states: sa,
                    rngs: ra,
                });
            }
        }

        // Phase 1: send + stage + encode, parallel over shards.
        let stage_one =
            |task: &mut ShardTask<'_, S, M>| -> Uplink { stage_shard(graph, plan, task, &send) };
        let mut uplinks: Vec<Uplink> = if parallel {
            tasks.par_iter_mut().map(stage_one).collect()
        } else {
            tasks.iter_mut().map(stage_one).collect()
        };

        // A cross-shard arc (single-owner violation) aborts the round
        // before any delivery or accounting.
        if let Some(e) = uplinks.iter().find_map(|up| up.encode_error) {
            restore_mailboxes(tasks);
            return Err(e);
        }

        // Merge phase-1 accounting in shard order — which is global
        // send order, so the first invalid target reported matches the
        // single engine's.
        let mut invalid: Option<(NodeId, NodeId)> = None;
        for up in &uplinks {
            invalid = invalid.or(up.invalid);
            self.stats.broadcasts += up.broadcasts;
            self.stats.directed += up.directed;
            self.stats.deliveries += up.deliveries;
            self.boundary.blocks += up.boundary.blocks;
            self.boundary.block_bits += up.boundary.block_bits;
            self.boundary.messages += up.boundary.messages;
            if trace_start.is_some() {
                trace_boundary.push((up.boundary.blocks, up.boundary.block_bits));
            }
        }

        // The exchange barrier: transpose uplink blocks so each shard
        // holds exactly its inbound blocks, indexed by source shard.
        let mut inbound: Vec<Vec<Option<BoundaryBlock>>> = (0..s_count)
            .map(|_| (0..s_count).map(|_| None).collect())
            .collect();
        for (s, up) in uplinks.iter_mut().enumerate() {
            for (t, slot) in up.blocks.iter_mut().enumerate() {
                inbound[t][s] = slot.take();
            }
        }
        drop(uplinks);

        // Phase 2: decode + deliver + receive, parallel over shards.
        let deliver_one = |(task, blocks): (
            &mut ShardTask<'_, S, M>,
            &mut Vec<Option<BoundaryBlock>>,
        )|
         -> BwPart {
            deliver_shard(graph, plan, task, blocks, policy, &recv)
        };
        let parts: Vec<BwPart> = if parallel {
            tasks
                .par_iter_mut()
                .zip(inbound.par_iter_mut())
                .map(deliver_one)
                .collect()
        } else {
            tasks
                .iter_mut()
                .zip(inbound.iter_mut())
                .map(deliver_one)
                .collect()
        };
        restore_mailboxes(tasks);

        let mut bw = BwPart::default();
        for p in parts {
            bw.bits += p.bits;
            bw.max_edge_bits = bw.max_edge_bits.max(p.max_edge_bits);
            bw.violations += p.violations;
        }
        self.stats.bits_sent += bw.bits;
        self.stats.max_edge_bits = self.stats.max_edge_bits.max(bw.max_edge_bits);
        self.stats.congest_violations += bw.violations;
        ledger.charge_bandwidth(bw.bits, bw.max_edge_bits, bw.violations);

        if let Some((t0, pre)) = trace_start {
            ledger.trace_meta(crate::trace::RoundMeta {
                round: self.rounds_run,
                wall_ns: t0.elapsed().as_nanos() as u64,
                broadcasts: self.stats.broadcasts - pre.broadcasts,
                directed: self.stats.directed - pre.directed,
                deliveries: self.stats.deliveries - pre.deliveries,
                max_inbox: 0,
                boundary: trace_boundary,
            });
        }
        self.rounds_run += 1;
        ledger.charge(phase, 1);
        match invalid {
            Some((from, to)) => Err(EngineError::InvalidDirectedTarget { from, to }),
            None => Ok(()),
        }
    }
}

impl<S> crate::engine::BandwidthConfig for ShardedEngine<'_, S> {
    fn set_bandwidth_policy(&mut self, policy: BandwidthPolicy) {
        self.policy = policy;
    }
}

impl<S: Send> RoundDriver<S> for ShardedEngine<'_, S> {
    fn node_count(&self) -> usize {
        self.graph.n()
    }

    fn round_step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync,
    {
        self.step(ledger, phase, send, recv);
    }

    fn node_states(&self) -> &[S] {
        self.states()
    }

    fn round_stats(&self) -> MessageStats {
        self.message_stats()
    }

    fn into_node_states(self) -> Vec<S> {
        self.into_states()
    }
}

/// Phase 1 for one shard: run its sends, stage its traffic (the single
/// engine's staging walk, split intra/boundary), encode its boundary
/// blocks.
fn stage_shard<S, M, SEND>(
    graph: &Graph,
    plan: &ShardPlan,
    task: &mut ShardTask<'_, S, M>,
    send: &SEND,
) -> Uplink
where
    S: Send,
    M: Clone + Send + Sync + WireCodec + 'static,
    SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
{
    let shard = &mut *task.shard;
    let mb = &mut *task.mb;
    let s_idx = shard.index;
    let lo = shard.lo;
    let len = shard.hi - shard.lo;
    let s_count = plan.num_shards();

    // Sends: identical contexts to the single engine (global node id,
    // host degree, the node's own RNG stream).
    for (j, ((state, rng), out)) in task
        .states
        .iter_mut()
        .zip(task.rngs.iter_mut())
        .zip(mb.outboxes.iter_mut())
        .enumerate()
    {
        run_send(graph, lo + j, state, rng, out, send);
    }

    // Staging walk, ascending sender order within the shard.
    mb.intra.clear();
    mb.intra_to.clear();
    for st in &mut mb.bound_out {
        st.clear();
    }
    mb.src_epoch = mb.src_epoch.wrapping_add(1);
    if mb.src_epoch == 0 {
        mb.src_mark.fill(0);
        mb.src_epoch = 1;
    }
    let mut up = Uplink {
        blocks: Vec::new(),
        broadcasts: 0,
        directed: 0,
        deliveries: 0,
        boundary: BoundaryStats::default(),
        invalid: None,
        encode_error: None,
    };
    for j in 0..len {
        let v = NodeId::from_index(lo + j);
        let (bcast, directed) = mb.outboxes[j].parts();
        mb.bcast_bits[j] = match bcast {
            Some(m) => {
                up.broadcasts += 1;
                up.deliveries += graph.degree(v) as u64;
                mb.bcast_senders.push(j as u32);
                // Register the broadcast with every *other* shard that
                // hosts a neighbor: shard ranges are contiguous and the
                // adjacency is sorted, so each shard's neighbors form
                // one run.
                let nbrs = graph.neighbors(v);
                let mut k = 0usize;
                while k < nbrs.len() {
                    let t = plan.home_of(nbrs[k].0);
                    if t != s_idx {
                        mb.bound_out[t].bcast_senders.push(j as u32);
                    }
                    let hi_t = plan.range(t).end as u32;
                    k += nbrs[k..].partition_point(|w| w.0 < hi_t);
                }
                m.encoded_bits()
            }
            None => 0,
        };
        up.directed += directed.len() as u64;
        if directed.is_empty() {
            continue;
        }
        shard.ensure_rev(graph);
        if mb.src_mark.is_empty() && shard.arc_hi > shard.arc_lo {
            mb.src_mark.resize(shard.arc_hi - shard.arc_lo, 0);
        }
        for (to, m) in directed {
            match graph.neighbor_position(v, *to) {
                Some(p) => {
                    let src_arc = graph.arc_range(v).start + p;
                    let dest = shard.rev[src_arc - shard.arc_lo];
                    up.deliveries += 1;
                    let t = plan.home_of(to.0);
                    if t == s_idx {
                        mb.intra.push((dest, m.clone()));
                        mb.intra_to.push((to.index() - lo) as u32);
                    } else {
                        mb.bound_out[t].directed.push((dest, m.clone()));
                        mb.bound_out[t].directed_from.push(j as u32);
                    }
                    // Distinct-arc count per sender, via source-arc
                    // marks (bijective with the single engine's
                    // destination-arc marks through the reverse map).
                    let mark = &mut mb.src_mark[src_arc - shard.arc_lo];
                    if *mark != mb.src_epoch {
                        *mark = mb.src_epoch;
                        if mb.dir_arc_count[j] == 0 {
                            mb.dir_senders.push(j as u32);
                        }
                        mb.dir_arc_count[j] += 1;
                    }
                }
                None => up.invalid = up.invalid.or(Some((v, *to))),
            }
        }
    }

    // Encode the boundary blocks in target-shard order.
    let mut blocks: Vec<Option<BoundaryBlock>> = Vec::with_capacity(s_count);
    for t in 0..s_count {
        if t == s_idx || up.encode_error.is_some() {
            blocks.push(None);
            continue;
        }
        let bounds = shard_arc_bounds(graph, plan, t);
        match encode_block(&mb.bound_out[t], &mb.outboxes, lo, bounds, t) {
            Ok(Some(b)) => {
                up.boundary.blocks += 1;
                up.boundary.block_bits += b.bits;
                up.boundary.messages +=
                    (mb.bound_out[t].bcast_senders.len() + mb.bound_out[t].directed.len()) as u64;
                blocks.push(Some(b));
            }
            Ok(None) => blocks.push(None),
            Err(e) => {
                up.encode_error = Some(e);
                blocks.push(None);
            }
        }
    }
    up.blocks = blocks;
    up
}

/// Phase 2 for one shard: decode inbound blocks in source-shard order,
/// merge with the intra stream (virtually — the intra buffer is never
/// copied), counting-sort by recipient, run the bandwidth sweep, fill
/// the arena in blocks, run the recv closures.
fn deliver_shard<S, M, RECV>(
    graph: &Graph,
    plan: &ShardPlan,
    task: &mut ShardTask<'_, S, M>,
    blocks: &mut [Option<BoundaryBlock>],
    policy: BandwidthPolicy,
    recv: &RECV,
) -> BwPart
where
    S: Send,
    M: Clone + Send + Sync + WireCodec + 'static,
    RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync,
{
    let shard = &*task.shard;
    let s_idx = shard.index;
    let lo = shard.lo;
    let hi = shard.hi;
    let len = hi - lo;
    let ShardMailbox {
        outboxes,
        bcast_bits,
        bcast_senders,
        dir_arc_count,
        dir_senders,
        intra,
        intra_to,
        in_dir,
        in_to,
        remote_bcasts,
        dir_start,
        dir_idx,
        arena,
        inbox_start,
        ..
    } = &mut *task.mb;

    // Decode inbound blocks in source-shard order; the own-shard slot
    // marks where the intra stream splices in.
    in_dir.clear();
    in_to.clear();
    remote_bcasts.clear();
    let mut pre_len = 0usize;
    for (s, slot) in blocks.iter_mut().enumerate() {
        if s == s_idx {
            pre_len = in_dir.len();
            continue;
        }
        if let Some(block) = slot.take() {
            let src = plan.range(s);
            let ends = BlockEnds {
                src: (src.start, src.end),
                dst: (lo, hi),
                dst_arcs: (shard.arc_lo, shard.arc_hi),
            };
            decode_block(graph, &block, ends, remote_bcasts, in_dir, in_to)
                .expect("boundary-block decode: counts and payloads written by the encode site");
        }
    }
    let intra_len = intra.len();
    let total = in_dir.len() + intra_len;

    // Counting sort by recipient over the virtual concatenated stream:
    // lower-shard segment, intra segment, higher-shard segment — which
    // is the global ascending-sender order restricted to this shard's
    // recipients, so the buckets come out exactly as on the single
    // engine (arc-sorted, ties in send order).
    dir_start.fill(0);
    for &to in in_to.iter() {
        dir_start[to as usize + 1] += 1;
    }
    for &to in intra_to.iter() {
        dir_start[to as usize + 1] += 1;
    }
    for i in 1..=len {
        dir_start[i] += dir_start[i - 1];
    }
    dir_idx.resize(total, 0);
    for (i, &to) in in_to[..pre_len].iter().enumerate() {
        let cursor = &mut dir_start[to as usize];
        dir_idx[*cursor as usize] = i as u32;
        *cursor += 1;
    }
    for (k, &to) in intra_to.iter().enumerate() {
        let cursor = &mut dir_start[to as usize];
        dir_idx[*cursor as usize] = (pre_len + k) as u32;
        *cursor += 1;
    }
    for (i, &to) in in_to.iter().enumerate().skip(pre_len) {
        let cursor = &mut dir_start[to as usize];
        dir_idx[*cursor as usize] = (i + intra_len) as u32;
        *cursor += 1;
    }

    // Freeze the routed streams; everything below only reads them.
    let outboxes = &*outboxes;
    let bcast_bits = &*bcast_bits;
    let intra = &*intra;
    let in_dir = &*in_dir;
    let remote_bcasts = &*remote_bcasts;
    let dir_start = &*dir_start;
    let dir_idx = &*dir_idx;
    // Entry `i` of the virtual stream (see the counting sort above).
    let entry = |i: usize| -> &(u32, M) {
        if i < pre_len {
            &in_dir[i]
        } else if i < pre_len + intra_len {
            &intra[i - pre_len]
        } else {
            &in_dir[i - intra_len]
        }
    };
    // A sender's broadcast wire size: own table for own nodes, the
    // decoded registrations for remote ones (absent ⇒ no broadcast).
    let sender_bits = |w: NodeId| -> u64 {
        let wi = w.index();
        if wi >= lo && wi < hi {
            bcast_bits[wi - lo]
        } else {
            match remote_bcasts.binary_search_by_key(&w.0, |e| e.0) {
                Ok(k) => remote_bcasts[k].1,
                Err(_) => 0,
            }
        }
    };

    // Recipient-side bandwidth sweep over the arc-sorted buckets — the
    // single engine's sweep restricted to this shard's recipients.
    let budget = match policy {
        BandwidthPolicy::Local => u64::MAX,
        BandwidthPolicy::Congest { bits } => bits,
    };
    let mut part = BwPart::default();
    for v in 0..len {
        let bucket = bucket_bounds(dir_start, v);
        let mut i = bucket.start;
        while i < bucket.end {
            let arc = entry(dir_idx[i] as usize).0;
            let mut dir_load = 0u64;
            while i < bucket.end {
                let e = entry(dir_idx[i] as usize);
                if e.0 != arc {
                    break;
                }
                dir_load += e.1.encoded_bits();
                i += 1;
            }
            let sender = graph.arc_head(arc as usize);
            let load = dir_load + sender_bits(sender);
            part.bits += dir_load;
            part.max_edge_bits = part.max_edge_bits.max(load);
            if load > budget {
                part.violations += 1;
            }
        }
    }
    // Sender-side accounting for this shard's broadcasters: bits on
    // every incident edge, plus max/violations on the edges that
    // carried only the broadcast.
    for &j in bcast_senders.iter() {
        let v = NodeId::from_index(lo + j as usize);
        let deg = graph.degree(v) as u64;
        let b = bcast_bits[j as usize];
        part.bits += b * deg;
        let uncovered = deg - dir_arc_count[j as usize] as u64;
        if uncovered > 0 {
            part.max_edge_bits = part.max_edge_bits.max(b);
            if b > budget {
                part.violations += uncovered;
            }
        }
    }
    for &j in dir_senders.iter() {
        dir_arc_count[j as usize] = 0;
    }
    dir_senders.clear();
    bcast_senders.clear();

    // Blocked fill + receive: the single engine's forward arena sweep
    // over this shard's recipients. Own neighbors' broadcasts come off
    // their outboxes (zero-copy check), remote ones off the decoded
    // registrations; directed messages drain from the arc-sorted bucket
    // with one monotone cursor.
    let mut block_start = 0usize;
    let mut dir_cursor = 0usize;
    while block_start < len {
        let mut block_end = block_start;
        let mut load = 0usize;
        while block_end < len {
            let bucket = bucket_bounds(dir_start, block_end);
            let node_load = graph.degree(NodeId::from_index(lo + block_end)) + bucket.len();
            if block_end > block_start && load + node_load > ARENA_BLOCK {
                break;
            }
            load += node_load;
            block_end += 1;
        }
        arena.clear();
        for i in block_start..block_end {
            inbox_start[i] = arena.len() as u32;
            let bucket_end = dir_start[i] as usize;
            for a in graph.arc_range(NodeId::from_index(lo + i)) {
                let w = graph.arc_head(a);
                let wi = w.index();
                if wi >= lo && wi < hi {
                    if let (Some(m), _) = outboxes[wi - lo].parts() {
                        arena.push((w, m.clone()));
                    }
                } else if let Ok(k) = remote_bcasts.binary_search_by_key(&w.0, |e| e.0) {
                    arena.push((w, remote_bcasts[k].2.clone()));
                }
                while dir_cursor < bucket_end {
                    let e = entry(dir_idx[dir_cursor] as usize);
                    if e.0 as usize != a {
                        break;
                    }
                    arena.push((w, e.1.clone()));
                    dir_cursor += 1;
                }
            }
            debug_assert_eq!(dir_cursor, bucket_end, "recipient bucket fully drained");
        }
        inbox_start[block_end] = arena.len() as u32;
        for i in block_start..block_end {
            let v = NodeId::from_index(lo + i);
            let inbox = &arena[inbox_start[i] as usize..inbox_start[i + 1] as usize];
            let mut ctx = NodeCtx {
                id: v,
                degree: graph.degree(v),
                rng: &mut task.rngs[i],
            };
            recv(&mut ctx, &mut task.states[i], inbox);
        }
        block_start = block_end;
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use delta_graphs::generators;
    use rand::Rng;

    /// Runs `rounds` rounds of a mixed broadcast + directed + RNG
    /// program on a driver, returning (states, stats, ledger bits).
    fn run_mixed<D: RoundDriver<u64>>(
        mut driver: D,
        rounds: usize,
    ) -> (Vec<u64>, MessageStats, u64, u64) {
        let mut ledger = RoundLedger::new();
        for _ in 0..rounds {
            driver.round_step(
                &mut ledger,
                "mixed",
                |ctx, s, out: &mut Outbox<u64>| {
                    let draw: u64 = ctx.rng.random_range(0..1 << 20);
                    out.broadcast(*s ^ draw);
                    if ctx.degree > 0 && draw.is_multiple_of(3) {
                        // Directed to a pseudo-random neighbor: crosses
                        // shard boundaries on any partition.
                        let k = (draw as usize) % ctx.degree;
                        let _ = k;
                    }
                    *s = s.rotate_left(1);
                },
                |_, s, inbox| {
                    for (w, m) in inbox {
                        *s = s.wrapping_add(m.wrapping_mul(w.0 as u64 | 1));
                    }
                },
            );
        }
        let stats = driver.round_stats();
        let states = driver.into_node_states();
        (states, stats, ledger.bits_sent(), ledger.total())
    }

    /// Mixed program with real directed traffic (needs graph access, so
    /// it is generated per-driver with the same logic).
    fn run_mixed_directed<D>(
        graph: &Graph,
        mut driver: D,
        rounds: usize,
    ) -> (Vec<u64>, MessageStats, u64)
    where
        D: RoundDriver<u64>,
    {
        let mut ledger = RoundLedger::new();
        for _ in 0..rounds {
            driver.round_step(
                &mut ledger,
                "mixed-directed",
                |ctx, s, out: &mut Outbox<u64>| {
                    let draw: u64 = ctx.rng.random_range(0..1 << 20);
                    if draw.is_multiple_of(2) {
                        out.broadcast(*s ^ draw);
                    }
                    if ctx.degree > 0 {
                        let nbrs = graph.neighbors(ctx.id);
                        let w = nbrs[(draw as usize) % nbrs.len()];
                        out.send_to(w, draw);
                        out.send_to(nbrs[0], *s & 0xffff);
                    }
                    *s = s.rotate_left(3) ^ draw;
                },
                |_, s, inbox| {
                    for (w, m) in inbox {
                        *s = s.wrapping_add(m.wrapping_mul(w.0 as u64 | 1));
                    }
                },
            );
        }
        let stats = driver.round_stats();
        let states = driver.into_node_states();
        (states, stats, ledger.bits_sent())
    }

    #[test]
    fn matches_engine_on_broadcast_program() {
        let g = generators::torus(6, 8);
        let (se, ss, sb, st) = run_mixed(Engine::new(&g, 11, |v| v.0 as u64), 5);
        for shards in [1, 2, 3, 7] {
            let sharded = ShardedEngine::contiguous(&g, shards, 11, |v| v.0 as u64);
            let (pe, ps, pb, pt) = run_mixed(sharded, 5);
            assert_eq!(se, pe, "states diverge at S={shards}");
            assert_eq!(ss, ps, "stats diverge at S={shards}");
            assert_eq!(sb, pb, "ledger bits diverge at S={shards}");
            assert_eq!(st, pt, "ledger rounds diverge at S={shards}");
        }
    }

    #[test]
    fn matches_engine_on_mixed_directed_program() {
        let g = generators::circulant(40, 6);
        let (se, ss, sb) = run_mixed_directed(&g, Engine::new(&g, 5, |v| v.0 as u64), 6);
        for shards in [2, 4, 8] {
            let sharded = ShardedEngine::contiguous(&g, shards, 5, |v| v.0 as u64);
            let (pe, ps, pb) = run_mixed_directed(&g, sharded, 6);
            assert_eq!(se, pe, "states diverge at S={shards}");
            assert_eq!(ss, ps, "stats diverge at S={shards}");
            assert_eq!(sb, pb, "ledger bits diverge at S={shards}");
        }
    }

    #[test]
    fn degree_balanced_plan_matches_too() {
        let g = generators::torus(5, 9);
        let (se, ss, _, _) = run_mixed(Engine::new(&g, 23, |v| v.0 as u64), 4);
        let plan = ShardPlan::degree_balanced(&g, 4);
        let sharded = ShardedEngine::new(&g, plan, 23, |v| v.0 as u64);
        let (pe, ps, _, _) = run_mixed(sharded, 4);
        assert_eq!(se, pe);
        assert_eq!(ss, ps);
    }

    #[test]
    fn boundary_stats_count_cross_shard_traffic_only() {
        let g = generators::cycle(16);
        // One shard: nothing ever crosses a boundary.
        let mut ledger = RoundLedger::new();
        let mut one = ShardedEngine::contiguous(&g, 1, 3, |v| v.0);
        one.step(
            &mut ledger,
            "t",
            |_, s, out: &mut Outbox<u32>| out.broadcast(*s),
            |_, _, _| {},
        );
        assert_eq!(one.boundary_stats(), BoundaryStats::default());
        // Four shards on a cycle: each shard's two edge nodes reach one
        // neighbor shard each, so 8 blocks with one broadcaster apiece.
        let mut four = ShardedEngine::contiguous(&g, 4, 3, |v| v.0);
        four.step(
            &mut ledger,
            "t",
            |_, s, out: &mut Outbox<u32>| out.broadcast(*s),
            |_, _, _| {},
        );
        let bs = four.boundary_stats();
        assert_eq!(bs.blocks, 8);
        assert_eq!(bs.messages, 8);
        assert!(bs.block_bits > 0);
        // The official stats still match the single-arena engine.
        let mut single = Engine::new(&g, 3, |v| v.0);
        single.step(
            &mut ledger,
            "t",
            |_, s, out: &mut Outbox<u32>| out.broadcast(*s),
            |_, _, _| {},
        );
        assert_eq!(four.message_stats(), single.message_stats());
    }

    #[test]
    fn boundary_block_roundtrip_and_size_honesty() {
        // Hand-build a source shard [0, 3) of a cycle(9) sending into
        // shard [3, 6): node 2 broadcasts and sends directed to 3.
        let g = generators::cycle(9);
        let plan = ShardPlan::contiguous(9, 3);
        let mut outboxes: Vec<Outbox<u64>> = (0..3).map(|_| Outbox::new()).collect();
        outboxes[2].broadcast(0xdead_beef);
        let dest_arc = {
            // Node 3's arc toward node 2.
            let p = g.neighbor_position(NodeId(3), NodeId(2)).unwrap();
            (g.arc_range(NodeId(3)).start + p) as u32
        };
        let stage = OutStage {
            bcast_senders: vec![2],
            directed: vec![(dest_arc, 77u64)],
            directed_from: vec![2],
        };
        let bounds = shard_arc_bounds(&g, &plan, 1);
        let block = encode_block(&stage, &outboxes, 0, bounds, 1)
            .unwrap()
            .expect("non-empty stage encodes to a block");
        // Size honesty: the declared bit length is exactly the bits the
        // writer produced, and the envelope is gamma-coded.
        assert_eq!(block.bits.div_ceil(8), block.bytes.len() as u64);
        let mut reb = Vec::new();
        let mut ind = Vec::new();
        let mut int = Vec::new();
        let ends = BlockEnds {
            src: (0, 3),
            dst: (3, 6),
            dst_arcs: bounds,
        };
        decode_block(&g, &block, ends, &mut reb, &mut ind, &mut int).expect("decodes");
        assert_eq!(reb, vec![(2u32, 64u64, 0xdead_beef_u64)]);
        assert_eq!(ind, vec![(dest_arc, 77u64)]);
        assert_eq!(int, vec![0u32]); // node 3 is local index 0 of shard 1
    }

    #[test]
    fn cross_shard_arc_is_a_typed_error_not_a_panic() {
        let g = generators::cycle(9);
        let plan = ShardPlan::contiguous(9, 3);
        let outboxes: Vec<Outbox<u64>> = (0..3).map(|_| Outbox::new()).collect();
        // Destination arc 0 belongs to shard 0, not shard 1.
        let stage = OutStage {
            bcast_senders: vec![],
            directed: vec![(0u32, 5u64)],
            directed_from: vec![1],
        };
        let bounds = shard_arc_bounds(&g, &plan, 1);
        let err = encode_block(&stage, &outboxes, 0, bounds, 1).unwrap_err();
        assert_eq!(
            err,
            EngineError::CrossShardArc {
                from: NodeId(1),
                arc: 0,
                shard: 1
            }
        );
    }

    #[test]
    fn single_node_and_empty_graph_round_trip() {
        for n in [0usize, 1] {
            let g = Graph::from_edges(n, [(0u32, 0u32); 0]).unwrap();
            let mut ledger = RoundLedger::new();
            let mut eng = ShardedEngine::contiguous(&g, 4, 9, |_| 0u32);
            eng.step(
                &mut ledger,
                "t",
                |_, _, out: &mut Outbox<u32>| out.broadcast(1),
                |_, s, inbox| *s += inbox.len() as u32,
            );
            assert_eq!(eng.rounds_run(), 1);
            assert!(eng.states().iter().all(|&s| s == 0));
        }
    }
}
