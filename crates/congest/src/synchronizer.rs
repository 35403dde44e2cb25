//! The α-synchronizer: per-node round bookkeeping that lets lock-step
//! [`NodeLogic`](crate::NodeLogic) protocols run over an asynchronous
//! message substrate **unmodified**.
//!
//! ## Protocol
//!
//! Every time a node finishes its local step of round `r`, it emits exactly
//! one [`Envelope`] per incident edge: the protocol messages addressed to
//! that neighbor in round `r`, or an empty *pulse* when there are none.
//! Envelopes are round-tagged, so links need not be FIFO — a late round-3
//! envelope overtaken by a round-4 one is buffered under its own round and
//! consumed in order. A node may step round `r + 1` once it holds the
//! round-`r` envelope of every neighbor that can still send one:
//!
//! * a neighbor whose round-`d` envelope carried the *final* flag (its
//!   logic reported done during round `d`) is silent from round `d + 1` on;
//! * a crashed neighbor is silent from its crash round on — the simulator
//!   plays the role of a perfect failure detector, which is sound in this
//!   setting because crash schedules are part of the (deterministic)
//!   configuration, exactly like the lock-step engine's
//!   [`CongestConfig::crashes`](crate::CongestConfig::crashes).
//!
//! Dropped payloads still occupy their envelope: fault injection removes
//! the protocol *message*, not the link-layer framing, so a lossy edge
//! never deadlocks the synchronizer and the receiver can *count* what it
//! lost — the raw observation behind
//! [`FaultVerdict::DroppedAboveThreshold`](crate::FaultVerdict).
//!
//! ## Equivalence
//!
//! Because a node's round-`r` inbox is reassembled from the round-`r`
//! envelopes in ascending neighbor order (and each envelope preserves the
//! sender's outbox order), the inbox slice handed to `NodeLogic::step` is
//! byte-for-byte the one the lock-step engine would have produced; the
//! node RNG stream is derived from the same `(master seed, node, round)`
//! triple. Local computation is therefore bit-identical, and with it the
//! whole [`Transcript`](crate::Transcript) — the property pinned by the
//! `sim_matches_lockstep` proptests.

use crate::message::Payload;
use crate::node::NodeId;

/// Everything one directed edge carries for one round: the payloads (often
/// none — then the envelope is a pure synchronizer pulse), how many
/// payloads fault injection stripped in transit, and whether the sender's
/// logic completed during this round.
#[derive(Debug, Clone)]
pub(crate) struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Round the sender executed when emitting this envelope.
    pub round: u32,
    /// Protocol messages for the receiver, in the sender's outbox order.
    pub payloads: Vec<M>,
    /// Payloads removed by fault injection (the framing still arrives).
    pub dropped: u64,
    /// The sender reported done during this round: no envelope with a
    /// higher round will ever leave it.
    pub final_round: bool,
}

/// Envelopes buffered for one future round, one slot per neighbor (indexed
/// by the neighbor's position in the node's sorted neighbor list).
#[derive(Debug)]
struct RoundBuf<M> {
    slots: Vec<Option<Envelope<M>>>,
}

impl<M> RoundBuf<M> {
    fn new(degree: usize) -> Self {
        RoundBuf { slots: (0..degree).map(|_| None).collect() }
    }
}

/// Per-node synchronizer state: which round the node steps next, which
/// neighbors have gone silent, and the per-round envelope buffers.
#[derive(Debug)]
pub(crate) struct SyncState<M> {
    /// The next round this node's logic executes.
    pub next_round: u32,
    /// Whether a `Step` event for `next_round` is already on the queue.
    pub step_scheduled: bool,
    /// The logic reported done (checked after each step, and once at
    /// bootstrap, mirroring the engine's pre-step `is_done` gate).
    pub done: bool,
    /// First round from which each neighbor sends nothing, `u32::MAX`
    /// while the neighbor is live. Set by crash schedules (failure
    /// detector) and by final envelopes.
    silent_from: Vec<u32>,
    /// Buffered envelopes keyed by round. Entries are created on first
    /// arrival and consumed (removed) when the node steps past the round.
    bufs: std::collections::BTreeMap<u32, RoundBuf<M>>,
    /// Payloads observed as dropped per incoming edge, and envelopes
    /// received per incoming edge — the receiver-side evidence for fault
    /// attribution.
    pub observed_dropped: Vec<u64>,
    pub observed_payloads: Vec<u64>,
}

impl<M: Payload> SyncState<M> {
    pub fn new(degree: usize) -> Self {
        SyncState {
            next_round: 0,
            step_scheduled: false,
            done: false,
            silent_from: vec![u32::MAX; degree],
            bufs: std::collections::BTreeMap::new(),
            observed_dropped: vec![0; degree],
            observed_payloads: vec![0; degree],
        }
    }

    /// Marks a neighbor silent from `round` on (keeps the earliest bound).
    pub fn silence(&mut self, neighbor_index: usize, round: u32) {
        let slot = &mut self.silent_from[neighbor_index];
        *slot = (*slot).min(round);
    }

    /// Buffers an arrived envelope and updates the receiver-side fault
    /// observations. `degree` is this node's degree (buffer width).
    pub fn receive(&mut self, neighbor_index: usize, degree: usize, env: Envelope<M>) {
        self.observed_dropped[neighbor_index] += env.dropped;
        self.observed_payloads[neighbor_index] += env.payloads.len() as u64 + env.dropped;
        if env.final_round {
            self.silence(neighbor_index, env.round + 1);
        }
        let buf = self.bufs.entry(env.round).or_insert_with(|| RoundBuf::new(degree));
        debug_assert!(buf.slots[neighbor_index].is_none(), "one envelope per edge per round");
        buf.slots[neighbor_index] = Some(env);
    }

    /// Whether the node can execute `self.next_round`: every neighbor has
    /// either delivered its envelope for the *previous* round or gone
    /// silent before it. Round 0 has no dependencies.
    pub fn ready(&self) -> bool {
        let round = self.next_round;
        if round == 0 {
            return true;
        }
        let need = round - 1;
        let buf = self.bufs.get(&need);
        self.silent_from
            .iter()
            .enumerate()
            .all(|(j, &silent)| need >= silent || buf.is_some_and(|b| b.slots[j].is_some()))
    }

    /// Removes and returns the envelopes feeding the inbox of `round`
    /// (i.e. the buffered round `round - 1` envelopes), discarding any
    /// older buffered rounds. Slots of silent neighbors are `None`.
    pub fn take_inbox_envelopes(&mut self, round: u32) -> Vec<Option<Envelope<M>>> {
        if round == 0 {
            return Vec::new();
        }
        let need = round - 1;
        while let Some((&r, _)) = self.bufs.first_key_value() {
            if r < need {
                self.bufs.pop_first();
            } else {
                break;
            }
        }
        match self.bufs.remove(&need) {
            Some(buf) => buf.slots,
            None => Vec::new(),
        }
    }
}
