//! The synchronous LOCAL-round execution engine.
//!
//! [`Engine`] drives a node program over a graph in explicit
//! synchronous rounds. Each round has two phases:
//!
//! 1. **send** — every node reads (and may update) its own state and
//!    fills an [`Outbox`]: one optional broadcast to all neighbors plus
//!    any number of per-neighbor directed messages;
//! 2. **recv** — messages are delivered simultaneously and every node
//!    updates its state from its inbox.
//!
//! The two-phase structure enforces LOCAL-model synchrony: a node
//! cannot observe a neighbor's round-`t` message before round `t + 1`.
//!
//! # Mailbox arena
//!
//! Delivery runs through a flat, CSR-indexed **mailbox arena** owned by
//! the engine and reused across rounds, so the steady-state delivery
//! path performs **no heap allocation** (verified by the
//! counting-allocator test in `tests/alloc_audit.rs`):
//!
//! * every node keeps a persistent [`Outbox`] whose directed buffer is
//!   cleared (capacity retained) at the start of each send phase;
//! * a sequential **routing pass** resolves every directed message
//!   `w → v` to its destination *arc* (the graph's directed
//!   half-edges, [`Graph::arc_range`]) with a single `O(log Δ)`
//!   [`Graph::neighbor_position`] lookup plus the `O(1)`
//!   [`Graph::reverse_arc`] table; the lookup doubles as the
//!   non-neighbor validity check (the message is discarded and the
//!   first offender surfaces as a typed [`EngineError`] — a panic via
//!   [`Engine::step`], a value via [`Engine::try_step`] — without the
//!   historical extra `has_edge` search), and a linear stable counting
//!   pass groups the messages by
//!   recipient — already arc-ordered within each bucket, because
//!   senders are visited in increasing id order;
//! * a **fill pass** then builds inboxes in a strictly forward sweep
//!   of a flat `Vec<(NodeId, M)>` arena: node `v`'s inbox is the
//!   contiguous slice written while walking `v`'s arcs in order, so
//!   sorted adjacency gives the sender-sorted inbox invariant for
//!   free; each neighbor contributes its broadcast (read straight off
//!   its outbox) before its directed messages (drained from the
//!   arc-sorted bucket with one merge cursor) — no scattered writes;
//!   recipients are processed in blocks of roughly [`ARENA_BLOCK`]
//!   messages, each block's inboxes filled and consumed before the
//!   arena is reused, so delivery memory is bounded by the block (not
//!   the round's total traffic) and stays cache-resident even on dense
//!   power graphs;
//! * the recv phase hands every node its inbox as a **borrowed slice**
//!   of the arena — a broadcast payload is cloned once per delivery, a
//!   directed payload once into the staging buffer and once into the
//!   arena (bitwise copies for the `Copy` message types the algorithms
//!   use).
//!
//! The per-message-type scratch (`M` differs per [`Engine::step`] call)
//! lives in a small type-keyed map inside the engine; warm-up grows the
//! buffers once per message type, after which rounds are
//! allocation-free for `Copy` payloads — in both schedules, since the
//! vendored rayon stand-in fans out over borrowed slice splits on a
//! persistent pool.
//!
//! # Parallel execution
//!
//! Both compute phases are data-parallel over nodes: the send phase
//! only touches node-local state, and the recv phase reads the
//! immutable round-`t` arena. The engine exploits this with rayon-style
//! worker threads when the graph is large enough ([`ExecMode::Auto`]),
//! and per-node private RNG streams keep the execution **bit-identical
//! to the sequential schedule** for a fixed seed — verified by the
//! repository's determinism regression test and by the
//! reference-delivery equivalence proptest in
//! `tests/delivery_equivalence.rs`.
//!
//! Only those two compute phases fan out. Routing and the arena fill
//! always take the sequential pass: they are index arithmetic and
//! memcpy-sized clones, cheaper to run once than to split and splice
//! back together. So staged traffic, inbox contents, [`MessageStats`]
//! and the ledger are the same bytes in every schedule, and the warm
//! path allocates nothing in either (`tests/alloc_audit.rs`).
//!
//! # Accounting
//!
//! Every round is charged to a named phase on a
//! [`crate::RoundLedger`], and the engine keeps [`MessageStats`]:
//! broadcast/directed message counts, deliveries, and — because every
//! message type implements [`WireCodec`] — exact CONGEST-style bit
//! accounting. During the routing pass the engine charges each
//! message's [`WireCodec::encoded_bits`] (no serialization happens on
//! the hot path; the wire bytes exist only in the codec test suites),
//! tracks the heaviest per-edge-per-round load, and, under
//! [`BandwidthPolicy::Congest`], counts every (edge, round) pair whose
//! load exceeds the budget. The same numbers are charged to the round's
//! [`crate::RoundLedger`], so whole algorithms surface their bandwidth
//! footprint end to end.

use crate::ledger::RoundLedger;
use crate::wire::WireCodec;
use delta_graphs::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rayon::prelude::*;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-node execution context handed to node programs: the node's
/// identity, degree, and a deterministic private random generator.
pub struct NodeCtx<'a> {
    /// The node this context belongs to.
    pub id: NodeId,
    /// Degree of the node in the communication graph.
    pub degree: usize,
    /// The node's private randomness (deterministic per seed/node).
    pub rng: &'a mut StdRng,
}

impl NodeCtx<'_> {
    /// Draws a uniform `f64` in `[0, 1)`.
    pub fn random_f64(&mut self) -> f64 {
        self.rng.random()
    }

    /// Draws a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn random_below(&mut self, bound: u64) -> u64 {
        self.rng.random_range(0..bound)
    }
}

/// A node's outgoing messages for one round: at most one broadcast to
/// all neighbors, plus directed messages to individual neighbors.
#[derive(Debug)]
pub struct Outbox<M> {
    broadcast: Option<M>,
    directed: Vec<(NodeId, M)>,
}

impl<M> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox {
            broadcast: None,
            directed: Vec::new(),
        }
    }

    /// Empties the outbox for the next round, retaining the directed
    /// buffer's capacity.
    pub(crate) fn reset(&mut self) {
        self.broadcast = None;
        self.directed.clear();
    }

    /// The queued broadcast and directed messages (overlay compilation
    /// reads outboxes to build relay envelopes).
    pub(crate) fn parts(&self) -> (Option<&M>, &[(NodeId, M)]) {
        (self.broadcast.as_ref(), &self.directed)
    }

    /// Drops queued directed messages that fail `keep` (the overlay's
    /// eager validity check, mirroring the engine's routing-pass drop).
    pub(crate) fn retain_directed(&mut self, keep: impl FnMut(&(NodeId, M)) -> bool) {
        self.directed.retain(keep);
    }

    /// Sends `msg` to every neighbor. At most one broadcast per round;
    /// a second call replaces the first.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast = Some(msg);
    }

    /// Sends `msg` to the single neighbor `to`. Messages to the same
    /// neighbor arrive in send order, after any broadcast.
    pub fn send_to(&mut self, to: NodeId, msg: M) {
        self.directed.push((to, msg));
    }

    /// Whether nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.broadcast.is_none() && self.directed.is_empty()
    }
}

/// A synchronous node program: the algorithm one node runs per round.
///
/// Programs must be [`Sync`] because the engine may evaluate many nodes
/// concurrently within a round.
pub trait NodeProgram: Sync {
    /// Per-node state.
    type State: Send;
    /// Message type (cloned per delivery into the mailbox arena;
    /// `'static` so the engine can cache per-type delivery scratch;
    /// [`WireCodec`] so every transmission is charged its exact wire
    /// size).
    type Msg: Clone + Send + Sync + WireCodec + 'static;

    /// Send phase: read/update own state, queue outgoing messages.
    fn send(&self, ctx: &mut NodeCtx<'_>, state: &mut Self::State, out: &mut Outbox<Self::Msg>);

    /// Receive phase: update own state from the inbox. The inbox lists
    /// `(sender, message)` pairs, senders in sorted adjacency order;
    /// a sender's broadcast precedes its directed messages.
    fn recv(&self, ctx: &mut NodeCtx<'_>, state: &mut Self::State, inbox: &[(NodeId, Self::Msg)]);

    /// Local termination predicate for [`Engine::run`].
    fn done(&self, _state: &Self::State) -> bool {
        false
    }
}

/// How the engine schedules the per-node compute within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded reference schedule.
    Sequential,
    /// Rayon worker threads for both phases of every round.
    Parallel,
    /// Parallel for graphs with at least [`PARALLEL_THRESHOLD`] nodes,
    /// sequential below (where the fan-out saves no wall time).
    Auto,
}

/// Node count at which [`ExecMode::Auto`] switches to worker threads:
/// the smallest size at which the engine bench's threshold sweep saw the
/// parallel round win on wall time by more than the sequential spread.
pub const PARALLEL_THRESHOLD: usize = 1 << 20;

/// Process-wide override of every engine's execution mode: 0 = none,
/// 1 = force sequential, 2 = force parallel. Used by the determinism
/// regression tests to drive whole algorithms down both schedules.
static FORCE_MODE: AtomicU8 = AtomicU8::new(0);

/// Serializes [`ExecModeGuard`] holders: at most one override is live
/// at a time, so concurrently running tests queue up instead of
/// stomping each other's mode.
static FORCE_MODE_LOCK: Mutex<()> = Mutex::new(());

/// Scoped override of every engine's execution mode (RAII).
///
/// While the guard lives, every [`Engine`] in the process runs the
/// forced schedule; dropping it restores per-engine modes. Guards
/// acquire a process-wide lock, so two threads forcing modes
/// concurrently serialize instead of racing — `cargo test`'s parallel
/// test threads cannot corrupt each other's forced schedule.
#[must_use = "the override ends when the guard is dropped"]
pub struct ExecModeGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ExecModeGuard {
    fn drop(&mut self) {
        FORCE_MODE.store(0, Ordering::SeqCst);
    }
}

/// Forces the execution mode of every engine in the process for the
/// lifetime of the returned guard. Intended for tests that compare the
/// sequential and parallel schedules.
///
/// Blocks until any other live guard is dropped.
pub fn force_exec_mode(mode: ExecMode) -> ExecModeGuard {
    let lock = FORCE_MODE_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let v = match mode {
        ExecMode::Auto => 0,
        ExecMode::Sequential => 1,
        ExecMode::Parallel => 2,
    };
    FORCE_MODE.store(v, Ordering::SeqCst);
    ExecModeGuard { _lock: lock }
}

/// A typed failure of one engine round — the conditions that used to
/// be hot-path `expect`/`debug_assert!` panics. [`Engine::try_step`]
/// surfaces them as values so fault and robustness tests can assert on
/// the failure mode; [`Engine::step`] still panics on them (they are
/// program bugs, not runtime conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A node addressed a directed message to a non-neighbor. In the
    /// LOCAL model there is no route for it; the round still completes
    /// with the message discarded, and the first offender is reported.
    InvalidDirectedTarget {
        /// The sending node.
        from: NodeId,
        /// The addressed non-neighbor.
        to: NodeId,
    },
    /// The type-keyed delivery scratch resolved to a mailbox of a
    /// different message type (unreachable unless `TypeId` lies).
    ScratchTypeConflict,
    /// A staged boundary-block message's destination arc fell outside
    /// the destination shard's arc range — a violation of the sharded
    /// engine's single-owner discipline (only a node's home shard may
    /// fill its inbox), caught by the `arc_range` check at the
    /// boundary-block encode site. Unreachable through the public API:
    /// routing derives every destination arc from the recipient's own
    /// adjacency, and the block's target shard is the recipient's home.
    CrossShardArc {
        /// The sending node.
        from: NodeId,
        /// The staged destination arc.
        arc: u32,
        /// The shard whose boundary block the message was staged into.
        shard: u32,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidDirectedTarget { from, to } => write!(
                f,
                "node {from} sent a directed message to non-neighbor {to}"
            ),
            EngineError::ScratchTypeConflict => {
                f.write_str("delivery scratch resolved to a mismatched message type")
            }
            EngineError::CrossShardArc { from, arc, shard } => write!(
                f,
                "node {from} staged destination arc {arc} outside shard {shard}'s arc range"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-edge-per-round bandwidth regime the engine accounts against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BandwidthPolicy {
    /// The LOCAL model: unbounded messages, no violations.
    #[default]
    Local,
    /// The CONGEST model: every directed edge may carry at most `bits`
    /// bits per round; heavier (edge, round) pairs are counted in
    /// [`MessageStats::congest_violations`] (accounting only — delivery
    /// is never truncated, so results are unaffected).
    Congest {
        /// Per-edge-per-round bit budget.
        bits: u64,
    },
}

impl BandwidthPolicy {
    /// The `O(log n)` CONGEST policy for an `n`-node graph
    /// (budget [`crate::wire::congest_budget`]).
    pub fn congest_for(n: usize) -> Self {
        BandwidthPolicy::Congest {
            bits: crate::wire::congest_budget(n as u64),
        }
    }
}

/// Post-construction access to a driver's [`BandwidthPolicy`] — the
/// hook [`crate::congest::CongestEngine`] uses to switch an inner
/// driver it wraps onto the CONGEST accounting regime. Separate from
/// [`RoundDriver`] because it does not depend on the state type.
pub trait BandwidthConfig {
    /// Replaces the policy the driver's accounting runs under (for an
    /// overlay: its virtual-level policy; accounting only — delivery is
    /// never truncated).
    fn set_bandwidth_policy(&mut self, policy: BandwidthPolicy);

    /// Bits the driver adds around each message on a host edge when it
    /// carries one CONGEST chunk per edge per round (an overlay's relay
    /// envelope). The congest fragmenter sizes chunks to the budget
    /// minus this, so the framed chunk still fits the host edge.
    fn frame_bits(&self) -> u64 {
        0
    }
}

impl<S: Send> BandwidthConfig for Engine<'_, S> {
    fn set_bandwidth_policy(&mut self, policy: BandwidthPolicy) {
        self.policy = policy;
    }
}

/// Message-volume and bandwidth counters, accumulated across rounds.
/// One broadcast counts once in `broadcasts` and `degree(sender)` times
/// in `deliveries`; a directed message counts once in each. Bits are
/// per-transmission: a broadcast's [`WireCodec::encoded_bits`] is
/// charged once per incident edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Broadcast messages queued.
    pub broadcasts: u64,
    /// Directed (per-neighbor) messages queued.
    pub directed: u64,
    /// Point-to-point deliveries performed.
    pub deliveries: u64,
    /// Total bits transmitted, summed over every directed edge each
    /// message (or broadcast copy) traversed.
    pub bits_sent: u64,
    /// Maximum bits carried by a single directed edge in one round.
    pub max_edge_bits: u64,
    /// (edge, round) pairs whose load exceeded the
    /// [`BandwidthPolicy::Congest`] budget (always 0 under `Local`).
    pub congest_violations: u64,
    /// Deliveries removed by fault injection. The engine itself never
    /// drops a delivery; a [`crate::FaultyDriver`] fills these four
    /// counters when a [`crate::FaultPlan`] is active.
    pub dropped: u64,
    /// Spurious extra deliveries injected by fault injection.
    pub duplicated: u64,
    /// Payloads corrupted (bit-flipped codec roundtrip) by fault
    /// injection.
    pub corrupted: u64,
    /// (node, round) pairs spent crashed under fault injection.
    pub crashed_rounds: u64,
}

/// Reusable per-message-type delivery scratch: the persistent outboxes
/// plus the flat CSR-indexed inbox arena (see the module docs). One
/// `Mailbox<M>` lives in the engine's type-keyed scratch map per
/// message type `M` used with [`Engine::step`]; all buffers retain
/// their capacity across rounds, so the steady state allocates nothing.
struct Mailbox<M> {
    /// One persistent outbox per node, reset (not reallocated) each round.
    outboxes: Vec<Outbox<M>>,
    /// The flat inbox arena. Filled one recipient block at a time (see
    /// [`ARENA_BLOCK`]): while block `[i0, i1)` is being delivered,
    /// node `v ∈ [i0, i1)`'s inbox is
    /// `arena[inbox_start[v] .. inbox_start[v + 1]]`; the arena is
    /// cleared for the next block, so offsets outside the active block
    /// are stale — neither field is meaningful after `step` returns.
    arena: Vec<(NodeId, M)>,
    /// Block-local arena bounds (`n + 1` entries); only the slots of
    /// the block currently being delivered are valid.
    inbox_start: Vec<u32>,
    /// This round's directed messages, staged contiguously in global
    /// send order as `(dest_arc, payload)`. Staging the payload (its
    /// clone into the delivery substrate) keeps later reads inside one
    /// compact buffer instead of pointer-chasing into scattered outbox
    /// buffers. Non-neighbor targets are dropped during routing.
    routed: Vec<(u32, M)>,
    /// Recipient of each `routed` entry, parallel to `routed`.
    routed_to: Vec<u32>,
    /// Per-recipient bucket cursors/bounds over `dir_idx` (`n + 1`
    /// entries): after the bucketing pass, recipient `v`'s directed
    /// messages are `dir_idx[dir_start[v - 1] .. dir_start[v]]`
    /// (`0` for `v = 0`).
    dir_start: Vec<u32>,
    /// Indices into `routed`, bucketed by recipient. Because the
    /// routing pass visits senders in increasing id order (and a
    /// sender's messages in send order), each bucket comes out sorted
    /// by destination arc with ties in send order — no sorting needed,
    /// the counting pass is a complete stable sort by construction.
    dir_idx: Vec<u32>,
    /// Per-sender broadcast size in bits this round (`n` entries,
    /// refilled — not cleared — every round during the routing pass).
    bcast_bits: Vec<u64>,
    /// Senders that queued a broadcast this round (presence cannot be
    /// read off `bcast_bits`: zero-size payloads like `()` are real
    /// broadcasts of 0 bits).
    bcast_senders: Vec<u32>,
}

impl<M> Mailbox<M> {
    fn new() -> Self {
        Mailbox {
            outboxes: Vec::new(),
            arena: Vec::new(),
            inbox_start: Vec::new(),
            routed: Vec::new(),
            routed_to: Vec::new(),
            dir_start: Vec::new(),
            dir_idx: Vec::new(),
            bcast_bits: Vec::new(),
            bcast_senders: Vec::new(),
        }
    }

    /// Sizes the fixed-shape buffers for `graph` (no-op after warm-up).
    fn ensure_shape(&mut self, graph: &Graph) {
        if self.outboxes.len() != graph.n() {
            self.outboxes.resize_with(graph.n(), Outbox::new);
            self.inbox_start.resize(graph.n() + 1, 0);
            self.dir_start.resize(graph.n() + 1, 0);
            self.bcast_bits.resize(graph.n(), 0);
        }
    }
}

/// Synchronous message-passing executor over a graph.
///
/// `S` is the per-node state. Each [`Engine::step`] (or
/// [`Engine::round`]) call is exactly one LOCAL round and is charged to
/// the ledger.
///
/// # Example
///
/// Flood the minimum id for 3 rounds:
///
/// ```
/// use delta_graphs::generators;
/// use local_model::{Engine, RoundLedger};
///
/// let g = generators::cycle(8);
/// let mut ledger = RoundLedger::new();
/// let mut engine = Engine::new(&g, 42, |v| v.0);
/// for _ in 0..3 {
///     engine.step(
///         &mut ledger,
///         "flood-min",
///         |_, &mut s, out| out.broadcast(s),
///         |_, s, inbox| {
///             for &(_, m) in inbox {
///                 *s = (*s).min(m);
///             }
///         },
///     );
/// }
/// assert_eq!(ledger.total(), 3);
/// assert!(engine.states().iter().filter(|&&s| s == 0).count() >= 7);
/// ```
pub struct Engine<'g, S> {
    graph: &'g Graph,
    states: Vec<S>,
    rngs: Vec<StdRng>,
    mode: ExecMode,
    policy: BandwidthPolicy,
    rounds_run: u64,
    stats: MessageStats,
    /// Per-message-type [`Mailbox`] scratch, keyed by `TypeId::of::<M>()`.
    /// Buffers are created on the first `step::<M>` call and reused for
    /// the engine's lifetime, making steady-state rounds allocation-free.
    scratch: HashMap<TypeId, Box<dyn Any + Send>>,
}

/// The deterministic per-node RNG streams an engine seeded with `seed`
/// hands out: node `i` gets the `i`-th stream. Shared with the ball
/// subsystem so that 0-round phases draw from the same streams an
/// engine execution would.
pub(crate) fn node_rngs(seed: u64, n: usize) -> Vec<StdRng> {
    let mut master = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| StdRng::seed_from_u64(master.next_u64()))
        .collect()
}

impl<'g, S: Send> Engine<'g, S> {
    /// Creates an engine with per-node state from `init` and
    /// deterministic per-node RNG streams derived from `seed`.
    pub fn new(graph: &'g Graph, seed: u64, init: impl Fn(NodeId) -> S) -> Self {
        let rngs = node_rngs(seed, graph.n());
        Self::with_rngs(graph, rngs, init)
    }

    /// Engine whose nodes all share clones of **one** RNG stream — for
    /// the overlay's internal relay programs, which are deterministic
    /// and never draw randomness: cloning a state is much cheaper than
    /// `n` independent ChaCha seedings, and relay engines are built
    /// once per virtual round.
    pub(crate) fn new_relay(graph: &'g Graph, init: impl Fn(NodeId) -> S) -> Self {
        let base = StdRng::seed_from_u64(0);
        let rngs = vec![base; graph.n()];
        Self::with_rngs(graph, rngs, init)
    }

    fn with_rngs(graph: &'g Graph, rngs: Vec<StdRng>, init: impl Fn(NodeId) -> S) -> Self {
        let states = graph.nodes().map(init).collect();
        Engine {
            graph,
            states,
            rngs,
            mode: ExecMode::Auto,
            policy: BandwidthPolicy::Local,
            rounds_run: 0,
            stats: MessageStats::default(),
            scratch: HashMap::new(),
        }
    }

    /// Sets the execution mode (builder style).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the bandwidth policy (builder style). The policy only
    /// changes the accounting ([`MessageStats::congest_violations`]);
    /// delivery is never truncated.
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

    /// Immutable view of all node states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of all node states (for out-of-band initialization,
    /// not for communication — use [`Engine::step`] for that).
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

    /// Message-volume counters accumulated so far.
    pub fn message_stats(&self) -> MessageStats {
        self.stats
    }

    /// Whether this round runs on worker threads.
    fn parallel(&self) -> bool {
        resolve_parallel(self.mode, self.graph.n())
    }

    /// Executes one synchronous round of `program`, charged to `phase`.
    pub fn round<P: NodeProgram<State = S>>(
        &mut self,
        program: &P,
        ledger: &mut RoundLedger,
        phase: &str,
    ) {
        self.step(
            ledger,
            phase,
            |ctx, state, out| program.send(ctx, state, out),
            |ctx, state, inbox| program.recv(ctx, state, inbox),
        );
    }

    /// Runs `program` until every node's [`NodeProgram::done`] holds or
    /// `max_rounds` is reached; returns the number of rounds executed.
    pub fn run<P: NodeProgram<State = S>>(
        &mut self,
        program: &P,
        ledger: &mut RoundLedger,
        phase: &str,
        max_rounds: u64,
    ) -> u64 {
        let mut executed = 0;
        while executed < max_rounds && !self.states.iter().all(|s| program.done(s)) {
            self.round(program, ledger, phase);
            executed += 1;
        }
        executed
    }

    /// Executes one synchronous round given as a closure pair — the
    /// ad-hoc form of [`Engine::round`] for algorithms whose rounds are
    /// easier to write inline than as a [`NodeProgram`] type.
    ///
    /// Both closures must be `Sync`: they run concurrently across nodes
    /// in parallel mode. All per-node mutability flows through the
    /// `&mut` state and the node-private RNG in the context.
    ///
    /// # Panics
    ///
    /// Panics on an [`EngineError`] (e.g. a directed message to a
    /// non-neighbor — a program bug). Use [`Engine::try_step`] to
    /// observe the failure as a value instead.
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
            panic!("engine round failed: {e}");
        }
    }

    /// [`Engine::step`] with typed errors instead of panics: the round
    /// executes identically (an invalid directed message is discarded
    /// during routing, everything else is delivered and charged), and
    /// any [`EngineError`] observed is returned after the round
    /// completes — so callers can assert on failure modes without
    /// unwinding, and a fault harness can keep driving the engine past
    /// a misbehaving program.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidDirectedTarget`] reports the first (in
    /// global send order) directed message addressed to a non-neighbor;
    /// [`EngineError::ScratchTypeConflict`] reports a corrupted
    /// delivery-scratch map (never constructible through the public
    /// API).
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
        let parallel = self.parallel();
        // Trace enrichment starts the round clock and snapshots the
        // cumulative stats (for per-round deltas) only when a sink is
        // attached — the untraced path pays one branch, no clock read.
        let trace_start = if ledger.tracing() {
            Some((std::time::Instant::now(), self.stats))
        } else {
            None
        };
        let mut trace_max_inbox = 0u32;
        let mailbox: &mut Mailbox<M> = self
            .scratch
            .entry(TypeId::of::<M>())
            .or_insert_with(|| Box::new(Mailbox::<M>::new()))
            .downcast_mut()
            .ok_or(EngineError::ScratchTypeConflict)?;
        mailbox.ensure_shape(graph);
        let states = &mut self.states;
        let rngs = &mut self.rngs;

        // Phase 1: compute all outboxes from round-start states. The
        // outboxes are persistent; each node resets its own before
        // running the send closure.
        {
            let outboxes = &mut mailbox.outboxes;
            if parallel {
                states
                    .par_iter_mut()
                    .zip(rngs.par_iter_mut())
                    .zip(outboxes.par_iter_mut())
                    .enumerate()
                    .for_each(|(i, ((state, rng), out))| {
                        run_send(graph, i, state, rng, out, &send)
                    });
            } else {
                states
                    .iter_mut()
                    .zip(rngs.iter_mut())
                    .zip(outboxes.iter_mut())
                    .enumerate()
                    .for_each(|(i, ((state, rng), out))| {
                        run_send(graph, i, state, rng, out, &send)
                    });
            }
        }

        // Routing: resolve and group this round's directed messages,
        // charging every message's wire size (one `encoded_bits` call
        // per transmission) — pure index arithmetic and memcpy-sized
        // clones with zero allocations, sequential in every schedule.
        let bw = route_messages(graph, mailbox, &mut self.stats, self.policy);
        self.stats.bits_sent += bw.bits;
        self.stats.max_edge_bits = self.stats.max_edge_bits.max(bw.max_edge_bits);
        self.stats.congest_violations += bw.violations;
        ledger.charge_bandwidth(bw.bits, bw.max_edge_bits, bw.violations);

        // Phase 2: simultaneous delivery; every node consumes its inbox
        // as a borrowed slice of the arena. Recipients are processed in
        // blocks of at most [`ARENA_BLOCK`]-ish messages: fill the
        // arena for a block, run the block's recv, reuse the arena —
        // bounding delivery memory by the block size instead of the
        // round's total traffic, which keeps the arena cache-resident
        // (and the kernel out of the loop) even on dense power graphs.
        // Sparse rounds fit in one block, so they pay no extra cost.
        let n = graph.n();
        let mut block_start = 0usize;
        let mut dir_cursor = 0usize;
        while block_start < n {
            // Upper-bound a recipient's arena demand by its degree
            // (possible broadcasts) plus its directed bucket — known
            // without reading any outbox.
            let mut block_end = block_start;
            let mut load = 0usize;
            while block_end < n {
                let bucket = bucket_bounds(&mailbox.dir_start, block_end);
                let node_load = graph.degree(NodeId::from_index(block_end)) + bucket.len();
                if block_end > block_start && load + node_load > ARENA_BLOCK {
                    break;
                }
                load += node_load;
                block_end += 1;
            }
            fill_block(graph, mailbox, block_start, block_end, &mut dir_cursor);

            if trace_start.is_some() {
                for i in block_start..block_end {
                    let len = mailbox.inbox_start[i + 1] - mailbox.inbox_start[i];
                    trace_max_inbox = trace_max_inbox.max(len);
                }
            }

            let arena = &mailbox.arena;
            let inbox_start = &mailbox.inbox_start;
            let run_one = |i: usize, state: &mut S, rng: &mut StdRng| {
                let v = NodeId::from_index(i);
                let inbox = &arena[inbox_start[i] as usize..inbox_start[i + 1] as usize];
                let mut ctx = NodeCtx {
                    id: v,
                    degree: graph.degree(v),
                    rng,
                };
                recv(&mut ctx, state, inbox);
            };
            if parallel {
                states[block_start..block_end]
                    .par_iter_mut()
                    .zip(rngs[block_start..block_end].par_iter_mut())
                    .enumerate()
                    .for_each(|(i, (state, rng))| run_one(block_start + i, state, rng));
            } else {
                states[block_start..block_end]
                    .iter_mut()
                    .zip(rngs[block_start..block_end].iter_mut())
                    .enumerate()
                    .for_each(|(i, (state, rng))| run_one(block_start + i, state, rng));
            }
            block_start = block_end;
        }

        if let Some((t0, pre)) = trace_start {
            ledger.trace_meta(crate::trace::RoundMeta {
                round: self.rounds_run,
                wall_ns: t0.elapsed().as_nanos() as u64,
                broadcasts: self.stats.broadcasts - pre.broadcasts,
                directed: self.stats.directed - pre.directed,
                deliveries: self.stats.deliveries - pre.deliveries,
                max_inbox: trace_max_inbox as u64,
                boundary: Vec::new(),
            });
        }
        self.rounds_run += 1;
        ledger.charge(phase, 1);
        match bw.invalid {
            Some((from, to)) => Err(EngineError::InvalidDirectedTarget { from, to }),
            None => Ok(()),
        }
    }
}

/// Resolves the effective schedule for a round over `n` compute units,
/// honoring any live [`force_exec_mode`] override. Shared by [`Engine`]
/// and the overlay engine so both follow the same forced schedule in
/// the determinism suites.
pub(crate) fn resolve_parallel(mode: ExecMode, n: usize) -> bool {
    match FORCE_MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => match mode {
            ExecMode::Sequential => false,
            ExecMode::Parallel => true,
            ExecMode::Auto => n >= PARALLEL_THRESHOLD,
        },
    }
}

/// The round-execution surface shared by [`Engine`] (host graph) and
/// [`crate::overlay::OverlayEngine`] (virtual topology compiled onto
/// the host graph): one synchronous round per [`RoundDriver::round_step`]
/// call, with node states indexable `0..node_count`.
///
/// Algorithms written against this trait — Luby MIS, the reach/ball
/// floods, list coloring — run unchanged on the host graph, on `G^k`,
/// and on induced subgraphs; only the driver construction differs. Node
/// ids seen by the closures are the driver's *virtual* ids (host ids
/// for `Engine`, compacted member ranks for an overlay — exactly the id
/// space a materialized virtual graph would present).
pub trait RoundDriver<S: Send> {
    /// Number of (virtual) nodes the driver executes.
    fn node_count(&self) -> usize;

    /// Executes one synchronous round; rounds and measured bandwidth
    /// are charged to `phase` on the ledger (an overlay charges its
    /// full dilation: `k` host rounds per virtual round).
    fn round_step<M, SEND, RECV>(
        &mut self,
        ledger: &mut RoundLedger,
        phase: &str,
        send: SEND,
        recv: RECV,
    ) where
        M: Clone + Send + Sync + WireCodec + 'static,
        SEND: Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>) + Sync,
        RECV: Fn(&mut NodeCtx<'_>, &mut S, &[(NodeId, M)]) + Sync;

    /// Immutable view of all node states (indexed by virtual id).
    fn node_states(&self) -> &[S];

    /// The driver's message counters at its own level of abstraction:
    /// host-level for [`Engine`], virtual-level (comparable with a
    /// materialized run) for an overlay.
    fn round_stats(&self) -> MessageStats;

    /// Consumes the driver, returning the final states.
    fn into_node_states(self) -> Vec<S>
    where
        Self: Sized;
}

impl<S: Send> RoundDriver<S> for Engine<'_, S> {
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

/// Soft cap on arena entries per delivery block. One block handles the
/// whole round for every sparse graph in the experiment sweep; dense
/// power graphs split into blocks that keep the arena within cache
/// instead of materializing hundreds of megabytes of inboxes at once.
/// A single recipient may exceed the cap (its inbox must be one
/// contiguous slice), so this bounds memory at
/// `max(ARENA_BLOCK, largest single inbox)` entries.
pub const ARENA_BLOCK: usize = 1 << 18;

/// Bucket of directed-message indices for recipient `v` inside
/// `dir_idx` (see [`Mailbox::dir_start`]'s cursor-shift layout).
/// Shared with the sharded engine, whose per-shard counting sort uses
/// the same cursor-shift layout over shard-local recipient indices.
pub(crate) fn bucket_bounds(dir_start: &[u32], v: usize) -> std::ops::Range<usize> {
    let start = if v == 0 { 0 } else { dir_start[v - 1] as usize };
    start..dir_start[v] as usize
}

/// Runs one node's send phase: reset the persistent outbox, build the
/// context, invoke the program. Shared with the sharded engine so both
/// substrates present identical contexts (global node id, host degree,
/// the node's private RNG stream).
pub(crate) fn run_send<S, M>(
    graph: &Graph,
    i: usize,
    state: &mut S,
    rng: &mut StdRng,
    out: &mut Outbox<M>,
    send: &impl Fn(&mut NodeCtx<'_>, &mut S, &mut Outbox<M>),
) {
    let v = NodeId::from_index(i);
    let mut ctx = NodeCtx {
        id: v,
        degree: graph.degree(v),
        rng,
    };
    out.reset();
    send(&mut ctx, state, out);
}

/// One round's bandwidth totals, produced by [`route_messages`].
#[derive(Debug, Clone, Copy, Default)]
struct RoundBandwidth {
    /// Bits transmitted this round (per-edge-traversal accounting).
    bits: u64,
    /// Heaviest per-directed-edge load this round.
    max_edge_bits: u64,
    /// Edges over the CONGEST budget this round.
    violations: u64,
    /// First (in global send order) directed message addressed to a
    /// non-neighbor, if any — surfaced as
    /// [`EngineError::InvalidDirectedTarget`] after the round.
    invalid: Option<(NodeId, NodeId)>,
}

/// Routing pass: resolves every directed message to its destination arc
/// (one `neighbor_position` lookup per message — the validity check and
/// the routing are the same lookup, followed by the `O(1)`
/// [`Graph::reverse_arc`] hop), stages it with its payload in
/// `mailbox.routed`, groups the staged messages by recipient with a
/// linear stable counting pass over `dir_start` (no comparison sort
/// anywhere), and accumulates the round's [`MessageStats`]. Broadcasts
/// need no routing work here: the fill pass reads them straight off
/// the sender's outbox.
///
/// # Bandwidth accounting
///
/// The directed edge `w → v` (identified by `v`'s arc toward `w`, the
/// destination arc the fill pass already groups by) carries `w`'s
/// broadcast (if any) plus every directed message `w → v`. Its load is
/// computed without any per-arc load array: each recipient's bucket is
/// already arc-sorted, so consecutive runs of equal destination arcs
/// give the directed load per edge in one linear sweep, and the
/// sender's broadcast size is added from the per-node `bcast_bits`
/// table. Edges that carry *only* a broadcast are covered per sender
/// at `bcast_bits` apiece: a sender's broadcast weighs at most as much
/// as any of its edges, so it enters the maximum once, and an
/// over-budget broadcast counts every edge of the sender as a violation
/// minus the ones the sweep already counted. All scratch is
/// round-reused and reset in O(traffic), so the warm path allocates
/// nothing.
fn route_messages<M: Clone + WireCodec>(
    graph: &Graph,
    mailbox: &mut Mailbox<M>,
    stats: &mut MessageStats,
    policy: BandwidthPolicy,
) -> RoundBandwidth {
    let n = graph.n();
    mailbox.routed.clear();
    mailbox.routed_to.clear();
    mailbox.dir_start.fill(0);
    // Staging: per sender, charge the broadcast size and resolve the
    // directed messages to destination arcs.
    let mut invalid: Option<(NodeId, NodeId)> = None;
    let mut rev: Option<&[u32]> = None;
    for (i, out) in mailbox.outboxes.iter().enumerate() {
        let v = NodeId::from_index(i);
        mailbox.bcast_bits[i] = match &out.broadcast {
            Some(m) => {
                stats.broadcasts += 1;
                stats.deliveries += graph.degree(v) as u64;
                mailbox.bcast_senders.push(i as u32);
                m.encoded_bits()
            }
            None => 0,
        };
        stats.directed += out.directed.len() as u64;
        for (to, m) in &out.directed {
            match graph.neighbor_position(v, *to) {
                Some(p) => {
                    // Broadcast-only rounds never force the table.
                    let rev = *rev.get_or_insert_with(|| graph.reverse_arcs());
                    let dest = rev[graph.arc_range(v).start + p];
                    mailbox.routed.push((dest, m.clone()));
                    mailbox.routed_to.push(to.0);
                    mailbox.dir_start[to.index() + 1] += 1;
                    stats.deliveries += 1;
                }
                // A directed message only reaches an actual neighbor;
                // it is discarded, and the first offender is reported
                // as a typed [`EngineError`] after the round.
                None => invalid = invalid.or(Some((v, *to))),
            }
        }
    }
    // Bucket the staged messages by recipient: prefix-sum the counts,
    // then scatter indices with the per-recipient cursors (shifting
    // each cursor to its bucket's end). Senders were visited in
    // increasing id order and the destination arc inside a recipient's
    // range grows with the sender id, so this stable counting pass
    // leaves every bucket already grouped by arc in send order —
    // delivery needs no comparison sort at all.
    for i in 1..=n {
        mailbox.dir_start[i] += mailbox.dir_start[i - 1];
    }
    mailbox.dir_idx.resize(mailbox.routed.len(), 0);
    for (i, &to) in mailbox.routed_to.iter().enumerate() {
        let cursor = &mut mailbox.dir_start[to as usize];
        mailbox.dir_idx[*cursor as usize] = i as u32;
        *cursor += 1;
    }

    // Bandwidth: per-edge loads from the arc-sorted buckets (see the
    // function docs).
    let budget = match policy {
        BandwidthPolicy::Local => u64::MAX,
        BandwidthPolicy::Congest { bits } => bits,
    };
    let mut bw = RoundBandwidth::default();
    // Directed edges whose broadcast alone breaks the budget: the sweep
    // counts each as a violation, so the broadcast pass must not.
    let mut over_budget_directed = 0u64;
    let routed = &mailbox.routed;
    for v in 0..n {
        let bucket = bucket_bounds(&mailbox.dir_start, v);
        let mut i = bucket.start;
        while i < bucket.end {
            let arc = routed[mailbox.dir_idx[i] as usize].0;
            let mut dir_load = 0u64;
            while i < bucket.end {
                let (a, ref m) = routed[mailbox.dir_idx[i] as usize];
                if a != arc {
                    break;
                }
                dir_load += m.encoded_bits();
                i += 1;
            }
            let bcast = mailbox.bcast_bits[graph.arc_head(arc as usize).index()];
            let load = dir_load + bcast;
            bw.bits += dir_load;
            bw.max_edge_bits = bw.max_edge_bits.max(load);
            if load > budget {
                bw.violations += 1;
            }
            over_budget_directed += u64::from(bcast > budget);
        }
    }
    // Every edge of a broadcaster carries its broadcast. The sweep
    // weighed the edges that also carried directed traffic, at loads of
    // at least the broadcast's, so the broadcast can raise the maximum
    // only through the others, and an over-budget one adds a violation
    // on each edge the sweep did not count.
    for &v in &mailbox.bcast_senders {
        let deg = graph.degree(NodeId::from_index(v as usize)) as u64;
        let b = mailbox.bcast_bits[v as usize];
        bw.bits += b * deg;
        if deg > 0 {
            bw.max_edge_bits = bw.max_edge_bits.max(b);
        }
        if b > budget {
            bw.violations += deg;
        }
    }
    bw.violations -= over_budget_directed;
    mailbox.bcast_senders.clear();
    bw.invalid = invalid;
    bw
}

/// Fill pass for the recipient block `[i0, i1)`: builds the block's
/// inboxes in one strictly sequential sweep of the (cleared) arena,
/// leaving block-local offsets in `inbox_start[i0..=i1]`. For each
/// recipient, walking its arcs in order visits its neighbors in sorted
/// order; each neighbor contributes its broadcast first, then its
/// directed messages in send order (consumed from the recipient's
/// arc-sorted bucket — buckets follow recipient order, so `dir_cursor`
/// advances monotonically across blocks). This preserves the engine's
/// sender-sorted inbox invariant while touching memory mostly forward:
/// the outbox array and the staging buffer are compact, and arena
/// writes never scatter.
fn fill_block<M: Clone>(
    graph: &Graph,
    mailbox: &mut Mailbox<M>,
    i0: usize,
    i1: usize,
    dir_cursor: &mut usize,
) {
    let arena = &mut mailbox.arena;
    let outboxes = &mailbox.outboxes;
    let routed = &mailbox.routed;
    arena.clear();
    for i in i0..i1 {
        mailbox.inbox_start[i] = arena.len() as u32;
        let bucket_end = mailbox.dir_start[i] as usize;
        for a in graph.arc_range(NodeId::from_index(i)) {
            let w = graph.arc_head(a);
            if let Some(m) = &outboxes[w.index()].broadcast {
                arena.push((w, m.clone()));
            }
            while *dir_cursor < bucket_end {
                let (dest, ref m) = routed[mailbox.dir_idx[*dir_cursor] as usize];
                if dest as usize != a {
                    break;
                }
                arena.push((w, m.clone()));
                *dir_cursor += 1;
            }
        }
        debug_assert_eq!(*dir_cursor, bucket_end, "recipient bucket fully drained");
    }
    mailbox.inbox_start[i1] = arena.len() as u32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use delta_graphs::generators;

    fn run_modes<S, F>(f: F) -> (Vec<S>, Vec<S>)
    where
        S: Send,
        F: Fn(ExecMode) -> Vec<S>,
    {
        (f(ExecMode::Sequential), f(ExecMode::Parallel))
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::torus(4, 4);
        let run = |seed: u64| {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(&g, seed, |_| 0u64);
            for _ in 0..4 {
                engine.step(
                    &mut ledger,
                    "t",
                    |ctx, _, out: &mut Outbox<u64>| out.broadcast(ctx.random_below(1000)),
                    |_, s, inbox| {
                        *s = inbox.iter().map(|&(_, m)| m).sum();
                    },
                );
            }
            engine.into_states()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn synchrony_one_hop_per_round() {
        // Node 0 injects a token; after r rounds exactly nodes within
        // distance r have seen it.
        let g = generators::path(10);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |v| v.0 == 0);
        for r in 1..=3u32 {
            engine.step(
                &mut ledger,
                "spread",
                |_, &mut has, out: &mut Outbox<()>| {
                    if has {
                        out.broadcast(());
                    }
                },
                |_, has, inbox| {
                    if !inbox.is_empty() {
                        *has = true;
                    }
                },
            );
            let reach = engine.states().iter().filter(|&&h| h).count();
            assert_eq!(reach, (r + 1) as usize);
        }
        assert_eq!(ledger.total(), 3);
    }

    #[test]
    fn inbox_is_sorted_by_sender() {
        let g = generators::star(4);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |v| v.0);
        engine.step(
            &mut ledger,
            "t",
            |_, &mut s, out: &mut Outbox<u32>| out.broadcast(s),
            |ctx, _, inbox| {
                if ctx.id == NodeId(0) {
                    let senders: Vec<u32> = inbox.iter().map(|&(w, _)| w.0).collect();
                    assert_eq!(senders, vec![1, 2, 3, 4]);
                }
            },
        );
    }

    #[test]
    fn directed_messages_reach_only_their_target() {
        // Every node sends its id to its smallest neighbor only.
        let g = generators::cycle(6);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |_| Vec::<u32>::new());
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u32>| {
                let smallest = *g.neighbors(ctx.id).iter().min().unwrap();
                out.send_to(smallest, ctx.id.0);
            },
            |_, s, inbox| {
                s.extend(inbox.iter().map(|&(w, _)| w.0));
            },
        );
        // Node v's smallest neighbor on the 6-cycle receives v's id;
        // node 0 is smallest neighbor of both 1 and 5.
        assert_eq!(engine.states()[0], vec![1, 5]);
        // Node 5's neighbors are 0 and 4; both prefer their other side.
        assert!(engine.states()[5].is_empty());
        let stats = engine.message_stats();
        assert_eq!(stats.directed, 6);
        assert_eq!(stats.broadcasts, 0);
        assert_eq!(stats.deliveries, 6);
    }

    #[test]
    fn broadcast_and_directed_share_a_round() {
        // Broadcast from one node combined with a directed reply path;
        // per-sender inbox order is broadcast first.
        const B: u8 = 0;
        const D1: u8 = 1;
        const D2: u8 = 2;
        let g = generators::path(3);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |_| Vec::<(u32, u8)>::new());
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u8>| {
                if ctx.id == NodeId(1) {
                    out.broadcast(B);
                    out.send_to(NodeId(0), D1);
                    out.send_to(NodeId(0), D2);
                }
            },
            |_, s, inbox| {
                s.extend(inbox.iter().map(|&(w, m)| (w.0, m)));
            },
        );
        assert_eq!(engine.states()[0], vec![(1, B), (1, D1), (1, D2)]);
        assert_eq!(engine.states()[2], vec![(1, B)]);
        // Bandwidth: node 1's broadcast (8 bits) crosses both its edges;
        // the two directed u8s (8 bits each) ride the 1→0 edge, making
        // that edge's load 24 bits — the round's per-edge maximum.
        let stats = engine.message_stats();
        assert_eq!(stats.bits_sent, 8 * 2 + 8 * 2);
        assert_eq!(stats.max_edge_bits, 24);
        assert_eq!(stats.congest_violations, 0);
        assert_eq!(ledger.bits_sent(), stats.bits_sent);
        assert_eq!(ledger.max_edge_bits(), 24);
    }

    #[test]
    fn congest_policy_counts_violations() {
        // Star center broadcasts a u64 (64 bits) to 4 leaves under an
        // 8-bit budget: 4 violating edges. Leaves send nothing.
        let g = generators::star(4);
        let mut ledger = RoundLedger::new();
        let mut engine =
            Engine::new(&g, 0, |_| 0u64).with_bandwidth(BandwidthPolicy::Congest { bits: 8 });
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u64>| {
                if ctx.id == NodeId(0) {
                    out.broadcast(42);
                }
            },
            |_, s, inbox| *s += inbox.len() as u64,
        );
        let stats = engine.message_stats();
        assert_eq!(stats.bits_sent, 64 * 4);
        assert_eq!(stats.max_edge_bits, 64);
        assert_eq!(stats.congest_violations, 4);
        assert_eq!(ledger.congest_violations(), 4);
        // A directed-over-budget edge also counts, once per edge.
        engine.step(
            &mut ledger,
            "t",
            |ctx, _, out: &mut Outbox<u64>| {
                if ctx.id == NodeId(1) {
                    out.send_to(NodeId(0), 7);
                    out.send_to(NodeId(0), 9);
                }
            },
            |_, _, _| {},
        );
        let stats = engine.message_stats();
        assert_eq!(stats.congest_violations, 5);
        assert_eq!(stats.max_edge_bits, 128);
    }

    #[test]
    fn default_congest_policy_admits_log_sized_messages() {
        // The O(log n) policy from `congest_for` admits NodeId-sized
        // gossip: no violations, and the loads respect the static
        // `max_bits` bound at the graph's own wire parameters.
        let g = generators::cycle(64);
        let policy = BandwidthPolicy::congest_for(g.n());
        assert_eq!(
            policy,
            BandwidthPolicy::Congest {
                bits: crate::wire::congest_budget(64)
            }
        );
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |v| v).with_bandwidth(policy);
        engine.step(
            &mut ledger,
            "gossip",
            |ctx, s, out: &mut Outbox<NodeId>| {
                out.broadcast(*s);
                out.send_to(*g.neighbors(ctx.id).first().unwrap(), *s);
            },
            |_, _, _| {},
        );
        let stats = engine.message_stats();
        assert_eq!(stats.congest_violations, 0);
        let p = crate::wire::WireParams::of(&g);
        let per_msg = <NodeId as WireCodec>::max_bits(&p).unwrap();
        // Heaviest edge: one broadcast + one directed NodeId.
        assert!(stats.max_edge_bits <= 2 * per_msg);
        assert!(stats.max_edge_bits > 0);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let g = generators::random_regular(600, 4, 3);
        let (seq, par) = run_modes(|mode| {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(&g, 11, |v| v.0 as u64).with_mode(mode);
            for _ in 0..8 {
                engine.step(
                    &mut ledger,
                    "mix",
                    |ctx, s, out: &mut Outbox<u64>| {
                        *s ^= ctx.random_below(1 << 30);
                        out.broadcast(*s);
                    },
                    |ctx, s, inbox| {
                        for &(w, m) in inbox {
                            *s = s.wrapping_mul(31).wrapping_add(m ^ w.0 as u64);
                        }
                        *s ^= ctx.random_below(1 << 20);
                    },
                );
            }
            engine.into_states()
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_mixed_traffic_matches_sequential() {
        // Under mixed broadcast + directed traffic, states, stats, and
        // ledger (congest accounting included) must stay bit-identical
        // to the sequential schedule. The size is fixed, independent
        // of `PARALLEL_THRESHOLD`: forced-parallel rounds fan out at
        // any size.
        let n = 5000;
        let g = generators::random_regular(n, 6, 11);
        let g = &g;
        let run = |mode: ExecMode| {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(g, 7, |v| v.0 as u64)
                .with_mode(mode)
                .with_bandwidth(BandwidthPolicy::Congest { bits: 48 });
            for _ in 0..6 {
                engine.step(
                    &mut ledger,
                    "t",
                    |ctx, s, out: &mut Outbox<(u64, u32)>| {
                        *s ^= ctx.random_below(1 << 24);
                        if ctx.id.0 % 3 != 0 {
                            out.broadcast((*s, ctx.id.0));
                        }
                        for (j, &w) in g.neighbors(ctx.id).iter().take(2).enumerate() {
                            out.send_to(w, (*s ^ j as u64, ctx.id.0));
                        }
                    },
                    |ctx, s, inbox| {
                        for &(w, (m, echo)) in inbox {
                            assert_eq!(w.0, echo, "payload travels with its sender id");
                            *s = s.rotate_left(5) ^ m;
                        }
                        *s ^= ctx.random_below(1 << 10);
                    },
                );
            }
            let stats = engine.message_stats();
            (
                engine.into_states(),
                stats,
                (
                    ledger.bits_sent(),
                    ledger.max_edge_bits(),
                    ledger.congest_violations(),
                ),
            )
        };
        assert_eq!(run(ExecMode::Sequential), run(ExecMode::Parallel));
    }

    #[test]
    fn node_program_trait_runs_to_fixpoint() {
        struct MinFlood;
        impl NodeProgram for MinFlood {
            type State = u32;
            type Msg = u32;
            fn send(&self, _: &mut NodeCtx<'_>, s: &mut u32, out: &mut Outbox<u32>) {
                out.broadcast(*s);
            }
            fn recv(&self, _: &mut NodeCtx<'_>, s: &mut u32, inbox: &[(NodeId, u32)]) {
                for &(_, m) in inbox {
                    *s = (*s).min(m);
                }
            }
            fn done(&self, s: &u32) -> bool {
                *s == 0
            }
        }
        let g = generators::path(5);
        let mut ledger = RoundLedger::new();
        let mut engine = Engine::new(&g, 0, |v| v.0);
        let rounds = engine.run(&MinFlood, &mut ledger, "min", 100);
        assert!(rounds <= 5);
        assert!(engine.states().iter().all(|&s| s == 0));
        assert_eq!(ledger.total(), rounds);
    }

    #[test]
    fn rng_is_node_private_and_stable() {
        // A node consuming extra randomness must not perturb other
        // nodes' streams.
        let g = generators::path(6);
        let draw_all = |consume_extra: bool| -> Vec<u64> {
            let mut ledger = RoundLedger::new();
            let mut engine = Engine::new(&g, 42, |_| 0u64);
            engine.step(
                &mut ledger,
                "draw",
                |_, _, out: &mut Outbox<()>| out.broadcast(()),
                |ctx, s, _| {
                    if consume_extra && ctx.id == NodeId(0) {
                        let _ = ctx.random_below(10);
                    }
                    *s = ctx.random_below(1_000_000);
                },
            );
            engine.into_states()
        };
        let a = draw_all(false);
        let b = draw_all(true);
        assert_ne!(a[0], b[0], "node 0 consumed extra randomness");
        assert_eq!(a[1..], b[1..], "other nodes' streams were perturbed");
    }
}
