//! Discrete-event simulation of the CONGEST network under *asynchronous*
//! links, with the α-synchronizer (`synchronizer.rs`) layered on top so
//! lock-step [`NodeLogic`] protocols run unmodified.
//!
//! ## Why
//!
//! The lock-step [`Network`](crate::Network) charges every round one unit
//! of time, which is exactly the CONGEST cost model — but the paper's
//! O(k)-round guarantee is most interesting when rounds cost real,
//! heterogeneous time. The simulator executes the same protocols over an
//! event queue of simulated nanoseconds: per-edge latency drawn from a
//! pluggable distribution, optional per-edge bandwidth (serialization
//! delay), and partition schedules that hold cross-cut traffic. Messages
//! reorder naturally — two envelopes on different edges, or on the same
//! edge in different rounds, arrive in latency order, not send order.
//!
//! ## Machinery
//!
//! A binary heap orders events by `(virtual time, sequence number)`; the
//! sequence number is assigned at push time by a single-threaded loop, so
//! ties break deterministically and the whole simulation is a pure
//! function of `(topology, nodes, master_seed, SimConfig)`. There are two
//! event kinds: the *arrival* of one edge-envelope, and the *step* of one
//! node's next round (scheduled the moment its dependencies are met, see
//! the synchronizer module docs in `synchronizer.rs`).
//!
//! Local computation goes through the same `step_into` routine as the
//! engine — same inbox layout, same `(master seed, node, round)` RNG
//! stream, same outbox ordering — which is why the produced
//! [`Transcript`] is bit-identical to lock-step execution (proptested in
//! `tests/sim_properties.rs`). Message accounting happens at *send* time
//! against the sender's round, matching the engine's convention that
//! round `r`'s statistics describe the messages sent in round `r`.
//!
//! Virtual-clock quantities (latency draws, bandwidth queueing, partition
//! holds, synchronizer pulses) never touch the transcript; they live in
//! the separate [`SimReport`]. When tracing is enabled the simulated
//! timeline is exported through [`distfl_obs::complete_at`] with
//! category `"sim"`, so `--trace` renders virtual rounds in the same
//! Chrome trace as wall-clock spans.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::step_into;
use crate::error::CongestError;
use crate::fault::{encode_accusation, FaultPlan, FaultVerdict};
use crate::metrics::{RoundStats, Transcript};
use crate::node::{NodeId, NodeLogic};
use crate::rng::NodeRng;
use crate::round::{account, check_node_count, per_node, Outgoing, Rules, Sink};
use crate::synchronizer::{Envelope, SyncState};
use crate::topology::Topology;
use crate::trace::{Event, EventKind, Recorder};

/// Per-edge message latency distribution, sampled deterministically from a
/// [`NodeRng`] stream keyed by `(latency seed, directed edge, round)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many nanoseconds.
    Constant(u64),
    /// Uniform in `[lo, hi]` nanoseconds (inclusive). Wide ranges produce
    /// heavy reordering across edges and rounds.
    Uniform {
        /// Minimum latency.
        lo: u64,
        /// Maximum latency (inclusive; must be `>= lo`).
        hi: u64,
    },
    /// Log-normal with the given median (nanoseconds) and shape `sigma`
    /// (the standard deviation of the underlying normal): a long-tailed
    /// model of real network latency. Samples are clamped to
    /// `[1, 10^15]` ns.
    LogNormal {
        /// Median latency in nanoseconds (`exp(mu)` of the underlying
        /// normal); must be positive and finite.
        median_nanos: f64,
        /// Shape parameter; must be finite and non-negative.
        sigma: f64,
    },
}

impl LatencyModel {
    /// Validates the model's parameters.
    ///
    /// # Errors
    ///
    /// [`CongestError::InvalidConfig`] for an empty uniform interval, a
    /// non-positive or non-finite median, or a non-finite or negative
    /// sigma.
    fn validate(&self) -> Result<(), CongestError> {
        let reason = match *self {
            LatencyModel::Uniform { lo, hi } if lo > hi => {
                format!("uniform latency needs lo <= hi, got [{lo}, {hi}]")
            }
            LatencyModel::LogNormal { median_nanos, .. }
                if !(median_nanos.is_finite() && median_nanos > 0.0) =>
            {
                format!("lognormal median must be positive and finite, got {median_nanos}")
            }
            LatencyModel::LogNormal { sigma, .. } if !(sigma.is_finite() && sigma >= 0.0) => {
                format!("lognormal sigma must be finite and non-negative, got {sigma}")
            }
            _ => return Ok(()),
        };
        Err(CongestError::InvalidConfig { reason })
    }

    /// Draws one latency in nanoseconds.
    fn sample(&self, rng: &mut NodeRng) -> u64 {
        match *self {
            LatencyModel::Constant(nanos) => nanos,
            LatencyModel::Uniform { lo, hi } => {
                if lo == hi {
                    lo
                } else {
                    lo + rng.below(hi - lo + 1)
                }
            }
            LatencyModel::LogNormal { median_nanos, sigma } => {
                // Box–Muller on two uniforms; u1 shifted into (0, 1] so the
                // logarithm is finite.
                let u1 = 1.0 - rng.next_f64();
                let u2 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (median_nanos * (sigma * z).exp()).clamp(1.0, 1e15) as u64
            }
        }
    }
}

/// A scheduled network partition: while the virtual clock is inside
/// `[start_nanos, end_nanos)`, edges crossing the cut (one endpoint below
/// `boundary`, the other at or above it) hold their traffic; held
/// envelopes depart when the window closes. Timing-only — payloads are
/// never lost to a partition, so transcripts stay unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Window start (inclusive), in virtual nanoseconds.
    pub start_nanos: u64,
    /// Window end (exclusive), in virtual nanoseconds.
    pub end_nanos: u64,
    /// Nodes with id `< boundary` form one side of the cut.
    pub boundary: u32,
}

impl PartitionWindow {
    /// Whether the directed edge `src → dst` crosses this window's cut.
    fn crosses(&self, src: NodeId, dst: NodeId) -> bool {
        (src.raw() < self.boundary) != (dst.raw() < self.boundary)
    }
}

/// Configuration of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-edge propagation latency model.
    pub latency: LatencyModel,
    /// Seed of the latency/loss sampling streams. Independent of the
    /// protocol's `master_seed`: changing it reshuffles the timing (and
    /// hence event order) without touching the transcript.
    pub latency_seed: u64,
    /// Virtual nanoseconds of local computation charged per node step;
    /// envelopes depart this long after the step fires.
    pub compute_nanos: u64,
    /// Per-directed-edge serialization rate in bits per microsecond. An
    /// envelope occupies its edge for `bits * 1000 / rate` ns and queues
    /// behind earlier traffic on the same edge. `None` models infinite
    /// bandwidth.
    pub bandwidth_bits_per_us: Option<u64>,
    /// Partition schedule (see [`PartitionWindow`]).
    pub partitions: Vec<PartitionWindow>,
    /// Deterministic message-drop plan, identical semantics (and identical
    /// drop decisions) to [`CongestConfig::fault`](crate::CongestConfig).
    pub fault: Option<FaultPlan>,
    /// Additional per-*sender* drop probabilities: `(node, probability)`
    /// marks every payload leaving `node` lost with the given independent
    /// probability. This is the "corrupted node" knob for fault
    /// attribution experiments; equivalence runs leave it empty.
    pub lossy_nodes: Vec<(NodeId, f64)>,
    /// Crash-stop schedule, identical semantics to
    /// [`CongestConfig::crashes`](crate::CongestConfig).
    pub crashes: Vec<(NodeId, u32)>,
    /// Optional hard per-message bit budget, as in the engine.
    pub max_message_bits: Option<u64>,
    /// Whether to record per-message [`Event`]s. The recorder replays
    /// deliveries in the engine's serial order (round, then source, then
    /// outbox position) regardless of arrival order.
    pub record_events: bool,
    /// Fraction of a sender's payloads that must be observed lost before
    /// fault attribution names it
    /// [`FaultVerdict::DroppedAboveThreshold`]; in `[0, 1]`.
    pub drop_threshold: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::Constant(50_000),
            latency_seed: 0,
            compute_nanos: 1_000,
            bandwidth_bits_per_us: None,
            partitions: Vec::new(),
            fault: None,
            lossy_nodes: Vec::new(),
            crashes: Vec::new(),
            max_message_bits: None,
            record_events: false,
            drop_threshold: 0.05,
        }
    }
}

impl SimConfig {
    /// The rules round `round`'s sends are accounted against, as in the
    /// engine.
    fn rules(&self, round: u32) -> Rules<'_> {
        Rules { round, fault: self.fault.as_ref(), max_bits: self.max_message_bits }
    }
}

/// Checks that `value` (named `what` in the error) is a probability.
fn check_unit(what: &str, value: f64) -> Result<(), CongestError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(CongestError::InvalidConfig {
            reason: format!("{what} must be in [0, 1], got {value}"),
        })
    }
}

/// The key of the directed edge `src → dst` for its per-round RNG streams.
fn edge_key(src: NodeId, dst: NodeId) -> u64 {
    (u64::from(src.raw()) << 32) | u64::from(dst.raw())
}

/// Virtual-clock measurements of one simulated run. Everything here is
/// timing — none of it feeds back into the [`Transcript`], which stays
/// bit-identical to lock-step execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time of the last processed event (simulated makespan).
    pub virtual_nanos: u64,
    /// Events popped from the queue.
    pub events_processed: u64,
    /// Envelopes that carried at least one payload (or a drop record).
    pub protocol_envelopes: u64,
    /// Pure synchronizer pulses (empty envelopes) — the α-synchronizer's
    /// overhead.
    pub pulse_envelopes: u64,
    /// Envelopes whose departure was delayed by a partition window.
    pub partition_holds: u64,
    /// Per round: virtual `(start, end)` of the round's step executions
    /// (end includes the final step's compute time).
    pub round_spans: Vec<(u64, u64)>,
}

/// One queued event: an envelope arrival or a node step.
#[derive(Debug)]
enum Ev<M> {
    Arrival { dst: NodeId, env: Envelope<M> },
    Step { node: NodeId, round: u32 },
}

/// Heap entry ordered by `(time, seq)` — `seq` is assigned in push order
/// by the (single-threaded) event loop, so ties are deterministic.
#[derive(Debug)]
struct Scheduled<M> {
    time: u64,
    seq: u64,
    ev: Ev<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// How one run ended (cached so repeated `run` calls are idempotent).
#[derive(Debug, Clone)]
enum RunOutcome {
    Ok,
    Failed(CongestError),
}

/// The simulator's [`Sink`]: collects each accounted send for its edge's
/// envelope, draws the lossy-sender losses, and records events with their
/// engine-order key.
struct Envelopes<'a, M> {
    src: NodeId,
    round: u32,
    /// The sender's [`SimConfig::lossy_nodes`] probability.
    loss: f64,
    loss_seed: u64,
    sent: &'a mut Vec<(NodeId, Option<M>, u64)>,
    recorded: Option<&'a mut Vec<(u32, u32, usize, Event)>>,
}

impl<M> Envelopes<'_, M> {
    fn record(&mut self, pos: usize, kind: EventKind, dst: NodeId) {
        if let Some(recorded) = &mut self.recorded {
            let event = Event { round: self.round, kind, src: self.src, dst };
            recorded.push((self.round, self.src.raw(), pos, event));
        }
    }
}

impl<M: Clone> Sink<M> for Envelopes<'_, M> {
    /// One draw per edge and round: a second send on the edge fails the
    /// round before it gets here.
    fn lost(&mut self, dst: NodeId) -> bool {
        self.loss > 0.0
            && NodeRng::derive_keyed(self.loss_seed, edge_key(self.src, dst), self.round)
                .bernoulli(self.loss)
    }
    fn dropped(&mut self, pos: usize, dst: NodeId) {
        self.record(pos, EventKind::Drop, dst);
        self.sent.push((dst, None, 0));
    }
    fn delivered(&mut self, pos: usize, dst: NodeId, msg: impl Outgoing<M>, bits: u64) {
        self.record(pos, EventKind::Deliver, dst);
        self.sent.push((dst, Some(msg.into_msg()), bits));
    }
}

/// The discrete-event CONGEST simulator. See the [module docs](self).
pub struct Simulator<L: NodeLogic> {
    topo: Topology,
    nodes: Vec<L>,
    states: Vec<SyncState<L::Msg>>,
    config: SimConfig,
    master_seed: u64,
    heap: BinaryHeap<Scheduled<L::Msg>>,
    seq: u64,
    now: u64,
    /// Virtual time each node finishes its current step's computation.
    free_at: Vec<u64>,
    /// Round from which each node is crashed (`u32::MAX` = never).
    crash_round: Vec<u32>,
    /// Per-node extra drop probability (dense form of
    /// [`SimConfig::lossy_nodes`]).
    loss_prob: Vec<f64>,
    /// Per-directed-edge (node × neighbor slot) bandwidth busy-until.
    edge_free_at: Vec<Vec<u64>>,
    /// Per-round statistics, indexed by round; grown as rounds execute.
    rows: Vec<RoundStats>,
    /// Rounds executed (1 + highest stepped round; 0 before any step).
    rounds_executed: u32,
    max_rounds: u32,
    transcript: Transcript,
    report: SimReport,
    /// Recorded `(round, src, outbox position, event)` tuples, replayed in
    /// engine order at finalize time.
    recorded: Vec<(u32, u32, usize, Event)>,
    recorder: Recorder,
    outcome: Option<RunOutcome>,
    scratch_inbox: Vec<(NodeId, L::Msg)>,
    scratch_outbox: Vec<(NodeId, L::Msg)>,
    /// The accounted sends of the stepping node: `(dst, payload, bits)`,
    /// the payload `None` when it was dropped.
    scratch_sent: Vec<(NodeId, Option<L::Msg>, u64)>,
    /// Owned copy of the stepping node's adjacency, so envelope emission
    /// can mutate queue/report state without holding a topology borrow.
    scratch_neighbors: Vec<NodeId>,
}

impl<L: NodeLogic> std::fmt::Debug for Simulator<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("num_nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("rounds_executed", &self.rounds_executed)
            .finish_non_exhaustive()
    }
}

impl<L: NodeLogic> Simulator<L> {
    /// Creates a simulator over `topo` running one logic per node.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::NodeCountMismatch`] if `nodes.len()`
    /// differs from the topology's node count,
    /// [`CongestError::NodeOutOfRange`] if a crash or lossy-node entry
    /// names a node outside the topology, and
    /// [`CongestError::InvalidConfig`] if the latency model, a lossy-node
    /// probability, or the drop threshold is out of range.
    pub fn new(
        topo: Topology,
        nodes: Vec<L>,
        master_seed: u64,
        config: SimConfig,
    ) -> Result<Self, CongestError> {
        check_node_count(&topo, nodes.len())?;
        config.latency.validate()?;
        check_unit("drop threshold", config.drop_threshold)?;
        for &(_, p) in &config.lossy_nodes {
            check_unit("lossy-node probability", p)?;
        }
        let n = nodes.len();
        let crash_round = per_node(n, &config.crashes, u32::MAX, u32::min)?;
        let loss_prob = per_node(n, &config.lossy_nodes, 0.0, |_, p| p)?;
        let mut config = config;
        // Windows are applied in start order; holding an envelope can push
        // its departure into a later window, never an earlier one.
        config.partitions.sort_by_key(|w| (w.start_nanos, w.end_nanos));
        let recorder =
            if config.record_events { Recorder::enabled() } else { Recorder::disabled() };
        let states = (0..n).map(|i| SyncState::new(topo.degree(NodeId::new(i as u32)))).collect();
        let edge_free_at = (0..n).map(|i| vec![0u64; topo.degree(NodeId::new(i as u32))]).collect();
        Ok(Simulator {
            topo,
            nodes,
            states,
            config,
            master_seed,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            free_at: vec![0; n],
            crash_round,
            loss_prob,
            edge_free_at,
            rows: Vec::new(),
            rounds_executed: 0,
            max_rounds: u32::MAX,
            transcript: Transcript::new(),
            report: SimReport::default(),
            recorded: Vec::new(),
            recorder,
            outcome: None,
            scratch_inbox: Vec::new(),
            scratch_outbox: Vec::new(),
            scratch_sent: Vec::new(),
            scratch_neighbors: Vec::new(),
        })
    }

    /// The communication graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// All node logics, indexed by node id.
    pub fn nodes(&self) -> &[L] {
        &self.nodes
    }

    /// The statistics accumulated by the run.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Consumes the simulator, returning node logics and transcript.
    pub fn into_parts(self) -> (Vec<L>, Transcript) {
        (self.nodes, self.transcript)
    }

    /// Virtual-clock measurements of the run.
    pub fn report(&self) -> &SimReport {
        &self.report
    }

    /// The event recorder (empty unless `record_events` was set).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Runs the simulation until every node is done (or crashed) or some
    /// node would exceed `max_rounds`. Idempotent: calling again returns
    /// the cached outcome.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors ([`CongestError::NotNeighbor`],
    /// [`CongestError::EdgeCongestion`], [`CongestError::MessageTooLarge`])
    /// and returns [`CongestError::RoundLimit`] when some *live* node
    /// (crashed nodes count as done, as in the engine's `all_done`) is
    /// still not done after `max_rounds` rounds. In that case the engine
    /// executes exactly `max_rounds` rounds — some as no-ops — so the
    /// simulator pads its transcript with the same empty rows to stay
    /// bit-identical. On a protocol error the transcript is left empty.
    /// Where several violations exist, the one surfaced is the first in
    /// *virtual-time* order, which may differ from the engine's
    /// `(source, position)` order.
    pub fn run(&mut self, max_rounds: u32) -> Result<&Transcript, CongestError> {
        if let Some(outcome) = &self.outcome {
            return match outcome {
                RunOutcome::Ok => Ok(&self.transcript),
                RunOutcome::Failed(err) => Err(err.clone()),
            };
        }
        self.max_rounds = max_rounds;
        match self.drive() {
            Ok(()) => {
                let limit_hit = (0..self.nodes.len())
                    .any(|i| !self.nodes[i].is_done() && self.crash_round[i] > max_rounds);
                if limit_hit {
                    let pending = self.nodes.iter().filter(|l| !l.is_done()).count();
                    // The engine spins no-op rounds (done/crashed nodes
                    // step into empty outboxes) until the limit trips;
                    // replicate its empty trailing stats rows.
                    while self.rows.len() < max_rounds as usize {
                        let r = self.rows.len() as u32;
                        self.rows.push(RoundStats { round: r, ..RoundStats::default() });
                    }
                    self.rounds_executed = max_rounds;
                    self.finalize();
                    let err = CongestError::RoundLimit { limit: max_rounds, pending };
                    self.outcome = Some(RunOutcome::Failed(err.clone()));
                    return Err(err);
                }
                self.finalize();
                self.outcome = Some(RunOutcome::Ok);
                Ok(&self.transcript)
            }
            Err(err) => {
                self.outcome = Some(RunOutcome::Failed(err.clone()));
                Err(err)
            }
        }
    }

    /// Bootstraps round 0 and processes events to completion.
    fn drive(&mut self) -> Result<(), CongestError> {
        // Bootstrap: nodes already done emit a final round-0 pulse (their
        // neighbors will never hear from them — exactly the engine, where
        // a done node is stepped into an empty outbox forever). Crashed-
        // at-0 nodes are covered by the failure-detector initialization
        // below. Everyone else gets its round-0 step scheduled.
        for index in 0..self.nodes.len() {
            let id = NodeId::new(index as u32);
            // Perfect failure detection: receivers know the crash schedule,
            // as the engine's delivery loop does.
            for (j, &nb) in self.topo.neighbors(id).iter().enumerate() {
                let crash = self.crash_round[nb.index()];
                if crash != u32::MAX {
                    self.states[index].silence(j, crash);
                }
            }
        }
        for index in 0..self.nodes.len() {
            let id = NodeId::new(index as u32);
            if self.nodes[index].is_done() {
                self.states[index].done = true;
                // A round-0 final pulse, so its neighbors do not wait on it.
                self.emit_envelopes(id, 0, 0, true);
            } else if self.crash_round[index] > 0 {
                self.try_schedule(id, 0);
            }
        }
        while let Some(scheduled) = self.heap.pop() {
            debug_assert!(scheduled.time >= self.now, "virtual time must be monotone");
            self.now = scheduled.time;
            self.report.events_processed += 1;
            self.report.virtual_nanos = self.report.virtual_nanos.max(self.now);
            match scheduled.ev {
                Ev::Arrival { dst, env } => self.process_arrival(dst, env),
                Ev::Step { node, round } => self.process_step(node, round)?,
            }
        }
        Ok(())
    }

    fn push_event(&mut self, time: u64, ev: Ev<L::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, ev });
    }

    /// Buffers an arrived envelope and checks whether it unblocked the
    /// receiver's next round.
    fn process_arrival(&mut self, dst: NodeId, env: Envelope<L::Msg>) {
        let neighbors = self.topo.neighbors(dst);
        let degree = neighbors.len();
        let j = neighbors.binary_search(&env.src).expect("envelope from a non-neighbor");
        let state = &mut self.states[dst.index()];
        state.receive(j, degree, env);
        self.try_schedule(dst, self.now);
    }

    /// Schedules the node's next step if its dependencies are met, it is
    /// live, and the round limit allows it. Steps fire no earlier than the
    /// node's own compute-completion time.
    fn try_schedule(&mut self, node: NodeId, now: u64) {
        let index = node.index();
        let state = &mut self.states[index];
        if state.done || state.step_scheduled {
            return;
        }
        let round = state.next_round;
        if round >= self.crash_round[index] {
            return;
        }
        if round >= self.max_rounds {
            return;
        }
        if !state.ready() {
            return;
        }
        state.step_scheduled = true;
        let at = now.max(self.free_at[index]);
        self.push_event(at, Ev::Step { node, round });
    }

    /// Executes one node step: reassemble the inbox, run the logic through
    /// the engine's `step_into`, account the outbox against the sender's
    /// round, and emit one envelope per edge.
    fn process_step(&mut self, node: NodeId, round: u32) -> Result<(), CongestError> {
        let index = node.index();
        let t = self.now;

        // Reassemble the round inbox in ascending neighbor order; each
        // envelope preserves its sender's outbox order, so this is the
        // engine's inbox byte for byte.
        let envelopes = self.states[index].take_inbox_envelopes(round);
        let mut inbox = std::mem::take(&mut self.scratch_inbox);
        inbox.clear();
        for env in envelopes.into_iter().flatten() {
            let src = env.src;
            inbox.extend(env.payloads.into_iter().map(|m| (src, m)));
        }

        let mut outbox = std::mem::take(&mut self.scratch_outbox);
        let mut error = None;
        step_into(
            &self.topo,
            &mut self.nodes[index],
            index,
            &inbox,
            &mut outbox,
            &mut error,
            false,
            round,
            self.master_seed,
        );
        inbox.clear();
        self.scratch_inbox = inbox;
        if let Some(err) = error {
            self.scratch_outbox = outbox;
            return Err(err);
        }

        // Round bookkeeping. Every stepped round owns a stats row, even if
        // nothing was sent — the engine pushes one RoundStats per executed
        // round too.
        while self.rows.len() <= round as usize {
            let r = self.rows.len() as u32;
            self.rows.push(RoundStats { round: r, ..RoundStats::default() });
        }
        self.rounds_executed = self.rounds_executed.max(round + 1);
        let end = t + self.config.compute_nanos;
        while self.report.round_spans.len() <= round as usize {
            self.report.round_spans.push((t, end));
        }
        let span = &mut self.report.round_spans[round as usize];
        span.0 = span.0.min(t);
        span.1 = span.1.max(end);
        self.report.virtual_nanos = self.report.virtual_nanos.max(end);

        let done = self.nodes[index].is_done();
        let state = &mut self.states[index];
        state.step_scheduled = false;
        state.next_round = round + 1;
        state.done = done;

        let result = self.send_round(node, round, end, done, &mut outbox);
        outbox.clear();
        self.scratch_outbox = outbox;
        result?;

        if !done {
            // The step may already be unblocked (all next-round envelopes
            // arrived while this one computed).
            self.try_schedule(node, end);
        }
        Ok(())
    }

    /// Accounts the sorted outbox with the engine's rules, then emits the
    /// round's envelopes.
    fn send_round(
        &mut self,
        src: NodeId,
        round: u32,
        send_t: u64,
        final_round: bool,
        outbox: &mut Vec<(NodeId, L::Msg)>,
    ) -> Result<(), CongestError> {
        self.scratch_sent.clear();
        let mut sink = Envelopes {
            src,
            round,
            loss: self.loss_prob[src.index()],
            loss_seed: self.config.latency_seed ^ 0x105_5E5,
            sent: &mut self.scratch_sent,
            recorded: self.recorder.is_enabled().then_some(&mut self.recorded),
        };
        let stats = &mut self.rows[round as usize];
        account(self.config.rules(round), src, 0, outbox.drain(..), stats, &mut sink)
            .map_err(|(_, err)| err)?;
        self.emit_envelopes(src, round, send_t, final_round);
        Ok(())
    }

    /// Emits one envelope per incident edge of `src`, in neighbor order:
    /// the edge's accounted send in `scratch_sent` (its payload or its drop
    /// record) or else an empty pulse. With nothing accounted, as for a
    /// node done before its first step, every envelope is a pulse.
    fn emit_envelopes(&mut self, src: NodeId, round: u32, send_t: u64, final_round: bool) {
        let mut sent = std::mem::take(&mut self.scratch_sent);
        let mut neighbors = std::mem::take(&mut self.scratch_neighbors);
        neighbors.clear();
        neighbors.extend_from_slice(self.topo.neighbors(src));
        let mut edges = sent.drain(..).peekable();
        for (j, &dst) in neighbors.iter().enumerate() {
            let (payloads, dropped, bits) = match edges.next_if(|&(d, ..)| d == dst) {
                Some((_, Some(msg), bits)) => (vec![msg], 0, bits),
                Some((_, None, _)) => (Vec::new(), 1, 0),
                None => (Vec::new(), 0, 0),
            };
            if payloads.is_empty() && dropped == 0 {
                self.report.pulse_envelopes += 1;
            } else {
                self.report.protocol_envelopes += 1;
            }
            let arrival = self.delivery_time(src, j, dst, round, send_t, bits);
            let env = Envelope { src, round, payloads, dropped, final_round };
            self.push_event(arrival, Ev::Arrival { dst, env });
        }
        debug_assert!(edges.next().is_none(), "every outbox message addresses a neighbor");
        drop(edges);
        self.scratch_sent = sent;
        self.scratch_neighbors = neighbors;
    }

    /// When the envelope `src → dst` sent at `send_t` arrives: bandwidth
    /// queueing on the directed edge, partition holds, then one latency
    /// draw from the per-`(edge, round)` stream.
    fn delivery_time(
        &mut self,
        src: NodeId,
        neighbor_slot: usize,
        dst: NodeId,
        round: u32,
        send_t: u64,
        bits: u64,
    ) -> u64 {
        let mut depart = send_t;
        if let Some(rate) = self.config.bandwidth_bits_per_us {
            let tx = bits.saturating_mul(1_000) / rate.max(1);
            let free = &mut self.edge_free_at[src.index()][neighbor_slot];
            depart = (*free).max(send_t) + tx;
            *free = depart;
        }
        for w in &self.config.partitions {
            if depart >= w.start_nanos && depart < w.end_nanos && w.crosses(src, dst) {
                depart = w.end_nanos;
                self.report.partition_holds += 1;
            }
        }
        let mut rng = NodeRng::derive_keyed(self.config.latency_seed, edge_key(src, dst), round);
        depart + self.config.latency.sample(&mut rng)
    }

    /// Builds the transcript, replays recorded events in engine order, and
    /// exports the simulated timeline to the obs layer.
    fn finalize(&mut self) {
        for row in self.rows.drain(..) {
            self.transcript.push(row);
        }
        if !self.recorded.is_empty() {
            self.recorded.sort_by_key(|&(round, src, pos, _)| (round, src, pos));
            if let Recorder::On(events) = &mut self.recorder {
                events.extend(self.recorded.drain(..).map(|(_, _, _, ev)| ev));
            }
        }
        if distfl_obs::enabled() {
            for (r, &(start, end)) in self.report.round_spans.iter().enumerate() {
                distfl_obs::complete_at(
                    "sim",
                    "round",
                    start,
                    end.saturating_sub(start),
                    Some(r as u64),
                );
            }
            distfl_obs::complete_at("sim", "run", 0, self.report.virtual_nanos, None);
        }
    }

    /// The worst fault that receivers' observations of `node` show:
    /// `dropped` of the `sent` payloads it addressed to them were lost, on
    /// top of the crash schedule. Feeds both [`Simulator::verdicts`]
    /// (counts over every receiver) and [`Simulator::accusations`] (counts
    /// over one edge).
    fn verdict(&self, node: NodeId, dropped: u64, sent: u64) -> FaultVerdict {
        if sent > 0 && dropped > 0 && dropped as f64 / sent as f64 > self.config.drop_threshold {
            return FaultVerdict::DroppedAboveThreshold { dropped, sent };
        }
        let crash = self.crash_round[node.index()];
        if crash < self.rounds_executed {
            return FaultVerdict::Crashed { round: crash };
        }
        FaultVerdict::Honest
    }

    /// Per-node fault verdicts from the run's observations: loss is
    /// accumulated receiver-side from envelope framing; crashes come from
    /// the failure detector (the schedule). The worst applicable verdict
    /// wins. The simulator never reports
    /// [`FaultVerdict::Equivocated`]: a second send over one edge fails
    /// the run at the sender ([`CongestError::EdgeCongestion`]).
    pub fn verdicts(&self) -> Vec<FaultVerdict> {
        let mut counts = vec![(0u64, 0u64); self.nodes.len()];
        for (index, state) in self.states.iter().enumerate() {
            for (j, &nb) in self.topo.neighbors(NodeId::new(index as u32)).iter().enumerate() {
                counts[nb.index()].0 += state.observed_dropped[j];
                counts[nb.index()].1 += state.observed_payloads[j];
            }
        }
        let nodes = (0..).map(NodeId::new);
        nodes.zip(counts).map(|(node, (dropped, sent))| self.verdict(node, dropped, sent)).collect()
    }

    /// Per-node accusations for the audit convergecast: each node reports
    /// the worst fault it *locally* observed among its neighbors, encoded
    /// with [`encode_accusation`] so a max-aggregate names the worst
    /// offender network-wide. Nodes never accuse themselves.
    pub fn accusations(&self) -> Vec<f64> {
        self.states
            .iter()
            .enumerate()
            .map(|(index, state)| {
                let neighbors = self.topo.neighbors(NodeId::new(index as u32));
                neighbors.iter().enumerate().fold(0.0f64, |best, (j, &nb)| {
                    let (dropped, sent) = (state.observed_dropped[j], state.observed_payloads[j]);
                    best.max(encode_accusation(nb, self.verdict(nb, dropped, sent).severity()))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CongestConfig, Network};
    use crate::fault::decode_accusation;
    use crate::message::Payload;

    /// Variable-width payload so bit accounting is non-trivial.
    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl Payload for Num {
        fn size_bits(&self) -> u64 {
            u64::from(64 - self.0.leading_zeros()) + 8
        }
    }

    /// A gossip protocol exercising inbox order, per-round RNG, and
    /// variable fan-out: every round each node folds its inbox into an
    /// accumulator, then broadcasts a salted digest until its horizon.
    #[derive(Clone, Debug, PartialEq)]
    struct Gossip {
        horizon: u32,
        acc: u64,
        done: bool,
    }
    impl Gossip {
        fn new(horizon: u32) -> Self {
            Gossip { horizon, acc: 0, done: false }
        }
    }
    impl NodeLogic for Gossip {
        type Msg = Num;
        fn step(&mut self, ctx: &mut crate::engine::StepCtx<'_, Num>) {
            for (src, m) in ctx.inbox() {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(m.0 ^ u64::from(src.raw()));
            }
            if ctx.round() + 1 >= self.horizon {
                self.done = true;
                return;
            }
            let salt = ctx.rng().below(1 << 20);
            ctx.broadcast(Num(self.acc.wrapping_add(salt) & 0xFFFF));
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// Broadcasts a narrow value for `rounds` rounds, except that node 2
    /// sends one wide (49-bit) value to its first neighbor in round 1.
    #[derive(Clone, Debug, PartialEq)]
    struct Burst {
        rounds: u32,
        done: bool,
    }
    impl NodeLogic for Burst {
        type Msg = Num;
        fn step(&mut self, ctx: &mut crate::engine::StepCtx<'_, Num>) {
            if ctx.round() >= self.rounds {
                self.done = true;
                return;
            }
            let first = ctx.neighbors()[0];
            for &nb in ctx.neighbors() {
                let wide = ctx.id() == NodeId::new(2) && ctx.round() == 1 && nb == first;
                ctx.send(nb, Num(if wide { 1 << 40 } else { 1 })).unwrap();
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    fn bursts(n: usize, rounds: u32) -> Vec<Burst> {
        (0..n).map(|_| Burst { rounds, done: false }).collect()
    }

    fn engine_run<L: NodeLogic + Clone>(
        topo: &Topology,
        nodes: Vec<L>,
        seed: u64,
        config: CongestConfig,
        max_rounds: u32,
    ) -> (Result<(), CongestError>, Transcript, Vec<L>) {
        let mut net = Network::with_config(topo.clone(), nodes, seed, config).unwrap();
        let res = net.run(max_rounds).map(|_| ()).map_err(|e| e.clone());
        (res, net.transcript().clone(), net.nodes().to_vec())
    }

    fn sim_run<L: NodeLogic>(
        topo: &Topology,
        nodes: Vec<L>,
        seed: u64,
        config: SimConfig,
        max_rounds: u32,
    ) -> (Result<(), CongestError>, Simulator<L>) {
        let mut sim = Simulator::new(topo.clone(), nodes, seed, config).unwrap();
        let res = sim.run(max_rounds).map(|_| ()).map_err(|e| e.clone());
        (res, sim)
    }

    fn gossips(n: usize, horizon: u32) -> Vec<Gossip> {
        (0..n).map(|_| Gossip::new(horizon)).collect()
    }

    #[test]
    fn transcript_matches_engine_on_default_config() {
        let topo = Topology::ring(6).unwrap();
        let (eres, etr, enodes) =
            engine_run(&topo, gossips(6, 5), 42, CongestConfig::default(), 20);
        let (sres, sim) = sim_run(&topo, gossips(6, 5), 42, SimConfig::default(), 20);
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
        assert!(etr.total_messages() > 0);
    }

    #[test]
    fn transcript_matches_engine_across_latency_models() {
        let topo = Topology::grid(3, 4).unwrap();
        let (_, etr, enodes) = engine_run(&topo, gossips(12, 6), 7, CongestConfig::default(), 20);
        let models = [
            LatencyModel::Constant(10),
            LatencyModel::Uniform { lo: 1, hi: 1_000_000 },
            LatencyModel::LogNormal { median_nanos: 50_000.0, sigma: 1.5 },
        ];
        for model in models {
            for latency_seed in [0u64, 99] {
                let config = SimConfig { latency: model, latency_seed, ..SimConfig::default() };
                let (res, sim) = sim_run(&topo, gossips(12, 6), 7, config, 20);
                assert_eq!(res, Ok(()), "{model:?}");
                assert_eq!(&etr, sim.transcript(), "{model:?} seed {latency_seed}");
                assert_eq!(&enodes, sim.nodes(), "{model:?} seed {latency_seed}");
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let topo = Topology::ring(5).unwrap();
        let config = SimConfig {
            latency: LatencyModel::Uniform { lo: 10, hi: 500_000 },
            latency_seed: 3,
            ..SimConfig::default()
        };
        let (_, a) = sim_run(&topo, gossips(5, 7), 11, config.clone(), 20);
        let (_, b) = sim_run(&topo, gossips(5, 7), 11, config, 20);
        assert_eq!(a.transcript(), b.transcript());
        assert_eq!(a.report(), b.report());
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn latency_seed_reshuffles_timing_but_not_transcript() {
        let topo = Topology::ring(5).unwrap();
        let mk = |latency_seed| SimConfig {
            latency: LatencyModel::Uniform { lo: 10, hi: 500_000 },
            latency_seed,
            ..SimConfig::default()
        };
        let (_, a) = sim_run(&topo, gossips(5, 7), 11, mk(3), 20);
        let (_, b) = sim_run(&topo, gossips(5, 7), 11, mk(4), 20);
        assert_eq!(a.transcript(), b.transcript());
        assert_eq!(a.nodes(), b.nodes());
        assert_ne!(
            a.report().virtual_nanos,
            b.report().virtual_nanos,
            "different latency seeds should land on different makespans"
        );
    }

    #[test]
    fn fault_plan_drops_identically_to_engine() {
        let topo = Topology::ring(5).unwrap();
        let plan = FaultPlan::drop_with_probability(0.3, 77);
        let econfig = CongestConfig { fault: Some(plan), ..CongestConfig::default() };
        let sconfig = SimConfig { fault: Some(plan), ..SimConfig::default() };
        let (eres, etr, enodes) = engine_run(&topo, gossips(5, 8), 13, econfig, 20);
        let (sres, sim) = sim_run(&topo, gossips(5, 8), 13, sconfig, 20);
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
        assert!(etr.total_dropped() > 0, "plan should actually drop something");
    }

    #[test]
    fn crash_stops_a_node_like_engine_and_is_attributed() {
        let topo = Topology::ring(4).unwrap();
        let crashes = vec![(NodeId::new(1), 2)];
        let econfig = CongestConfig { crashes: crashes.clone(), ..CongestConfig::default() };
        let sconfig = SimConfig { crashes, ..SimConfig::default() };
        let (eres, etr, enodes) = engine_run(&topo, gossips(4, 6), 5, econfig, 10);
        let (sres, sim) = sim_run(&topo, gossips(4, 6), 5, sconfig, 10);
        assert_eq!(eres, Ok(()), "crashed nodes count as done for termination");
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
        let verdicts = sim.verdicts();
        assert_eq!(verdicts[1], FaultVerdict::Crashed { round: 2 });
        assert!(verdicts.iter().enumerate().all(|(i, v)| i == 1 || *v == FaultVerdict::Honest));
    }

    #[test]
    fn crash_past_the_limit_still_trips_round_limit() {
        // Node 2 crashes *after* the limit, so it does not count as done
        // and both executions must report it pending.
        let topo = Topology::ring(4).unwrap();
        let crashes = vec![(NodeId::new(2), 50)];
        let econfig = CongestConfig { crashes: crashes.clone(), ..CongestConfig::default() };
        let sconfig = SimConfig { crashes, ..SimConfig::default() };
        let (eres, etr, _) = engine_run(&topo, gossips(4, 1_000), 5, econfig, 6);
        let (sres, sim) = sim_run(&topo, gossips(4, 1_000), 5, sconfig, 6);
        assert_eq!(eres, Err(CongestError::RoundLimit { limit: 6, pending: 4 }));
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
    }

    #[test]
    fn round_limit_without_faults_matches_engine() {
        let topo = Topology::ring(3).unwrap();
        let (eres, etr, _) = engine_run(&topo, gossips(3, 1_000), 9, CongestConfig::default(), 5);
        let (sres, sim) = sim_run(&topo, gossips(3, 1_000), 9, SimConfig::default(), 5);
        assert_eq!(eres, Err(CongestError::RoundLimit { limit: 5, pending: 3 }));
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
    }

    #[test]
    fn partition_delays_delivery_without_changing_transcript() {
        let topo = Topology::ring(4).unwrap();
        let (_, etr, enodes) = engine_run(&topo, gossips(4, 6), 21, CongestConfig::default(), 20);
        let config = SimConfig {
            partitions: vec![PartitionWindow {
                start_nanos: 0,
                end_nanos: 1_000_000_000,
                boundary: 2,
            }],
            ..SimConfig::default()
        };
        let (res, sim) = sim_run(&topo, gossips(4, 6), 21, config, 20);
        assert_eq!(res, Ok(()));
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
        assert!(sim.report().partition_holds > 0, "the cut must actually hold traffic");
        assert!(
            sim.report().virtual_nanos >= 1_000_000_000,
            "held envelopes push the makespan past the window"
        );
    }

    #[test]
    fn bandwidth_cap_slows_the_clock_but_not_the_protocol() {
        let topo = Topology::ring(4).unwrap();
        let fast = SimConfig::default();
        let slow = SimConfig { bandwidth_bits_per_us: Some(1), ..SimConfig::default() };
        let (_, a) = sim_run(&topo, gossips(4, 6), 33, fast, 20);
        let (res, b) = sim_run(&topo, gossips(4, 6), 33, slow, 20);
        assert_eq!(res, Ok(()));
        assert_eq!(a.transcript(), b.transcript());
        assert_eq!(a.nodes(), b.nodes());
        assert!(b.report().virtual_nanos > a.report().virtual_nanos);
    }

    #[test]
    fn recorder_replays_events_in_engine_order() {
        let topo = Topology::ring(4).unwrap();
        let plan = FaultPlan::drop_with_probability(0.25, 5);
        let econfig =
            CongestConfig { fault: Some(plan), record_events: true, ..CongestConfig::default() };
        let sconfig = SimConfig {
            fault: Some(plan),
            record_events: true,
            latency: LatencyModel::Uniform { lo: 1, hi: 900_000 },
            ..SimConfig::default()
        };
        let nodes = gossips(4, 5);
        let mut net = Network::with_config(topo.clone(), nodes.clone(), 3, econfig).unwrap();
        net.run(20).unwrap();
        let (res, sim) = sim_run(&topo, nodes, 3, sconfig, 20);
        assert_eq!(res, Ok(()));
        assert_eq!(net.recorder().events(), sim.recorder().events());
        assert!(!sim.recorder().events().is_empty());
    }

    #[test]
    fn lossy_node_is_named_by_verdicts_and_accusations() {
        let topo = Topology::ring(6).unwrap();
        let config = SimConfig { lossy_nodes: vec![(NodeId::new(3), 0.8)], ..SimConfig::default() };
        let (res, sim) = sim_run(&topo, gossips(6, 20), 17, config, 40);
        assert_eq!(res, Ok(()));
        match sim.verdicts()[3] {
            FaultVerdict::DroppedAboveThreshold { dropped, sent } => {
                assert!(dropped > 0 && dropped <= sent);
            }
            ref v => panic!("expected a drop verdict for the lossy node, got {v:?}"),
        }
        assert!(sim
            .verdicts()
            .iter()
            .enumerate()
            .all(|(i, v)| i == 3 || *v == FaultVerdict::Honest));
        let worst = sim.accusations().into_iter().fold(0.0f64, f64::max);
        assert_eq!(
            decode_accusation(worst),
            Some((NodeId::new(3), 2)),
            "the convergecast input must name the lossy node"
        );
    }

    #[test]
    fn done_at_start_node_is_skipped_like_engine() {
        let topo = Topology::ring(4).unwrap();
        let mut nodes = gossips(4, 4);
        nodes[0].done = true;
        let (eres, etr, enodes) = engine_run(&topo, nodes.clone(), 8, CongestConfig::default(), 20);
        let (sres, sim) = sim_run(&topo, nodes, 8, SimConfig::default(), 20);
        assert_eq!(eres, sres);
        assert_eq!(&etr, sim.transcript());
        assert_eq!(&enodes, sim.nodes());
    }

    #[test]
    fn report_counts_pulses_and_protocol_envelopes() {
        let topo = Topology::ring(4).unwrap();
        let (_, sim) = sim_run(&topo, gossips(4, 4), 2, SimConfig::default(), 20);
        let report = sim.report();
        assert!(report.protocol_envelopes > 0);
        assert!(report.pulse_envelopes > 0, "final rounds ride on pulse envelopes");
        assert!(report.events_processed > 0);
        assert_eq!(report.round_spans.len(), sim.transcript().num_rounds() as usize);
        assert!(report.round_spans.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.round_spans.iter().all(|&(s, e)| s < e));
    }

    #[test]
    fn run_is_idempotent() {
        let topo = Topology::ring(3).unwrap();
        let (_, mut sim) = sim_run(&topo, gossips(3, 3), 1, SimConfig::default(), 20);
        let first = sim.transcript().clone();
        let again = sim.run(20).unwrap().clone();
        assert_eq!(first, again);
    }

    #[test]
    fn latency_models_sample_within_bounds() {
        let mut rng = NodeRng::derive(1, 2, 3);
        assert_eq!(LatencyModel::Constant(42).sample(&mut rng), 42);
        for _ in 0..1_000 {
            let v = LatencyModel::Uniform { lo: 10, hi: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&v));
            let l = LatencyModel::LogNormal { median_nanos: 1_000.0, sigma: 2.0 }.sample(&mut rng);
            assert!(l >= 1);
        }
    }

    #[test]
    fn invalid_uniform_latency_is_rejected() {
        let topo = Topology::ring(3).unwrap();
        let config =
            SimConfig { latency: LatencyModel::Uniform { lo: 5, hi: 4 }, ..SimConfig::default() };
        let err = Simulator::new(topo, gossips(3, 3), 0, config).unwrap_err();
        assert!(
            matches!(&err, CongestError::InvalidConfig { reason } if reason.contains("lo <= hi")),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_sim_configs_are_rejected() {
        let bad = [
            SimConfig {
                latency: LatencyModel::LogNormal { median_nanos: 0.0, sigma: 1.0 },
                ..SimConfig::default()
            },
            SimConfig {
                latency: LatencyModel::LogNormal { median_nanos: 1e3, sigma: f64::NAN },
                ..SimConfig::default()
            },
            SimConfig { lossy_nodes: vec![(NodeId::new(1), 1.5)], ..SimConfig::default() },
            SimConfig { drop_threshold: -0.1, ..SimConfig::default() },
        ];
        for config in bad {
            let topo = Topology::ring(3).unwrap();
            let err = Simulator::new(topo, gossips(3, 3), 0, config.clone()).unwrap_err();
            assert!(matches!(err, CongestError::InvalidConfig { .. }), "{config:?}: {err}");
        }
    }

    /// Both backends build their crash schedule through one routine, so
    /// both reject an entry naming a node the topology does not have;
    /// the simulator's lossy-node table goes through it too.
    #[test]
    fn schedule_entries_outside_the_topology_are_rejected() {
        let topo = Topology::ring(3).unwrap();
        let ghost = NodeId::new(3);
        let expected = CongestError::NodeOutOfRange { id: ghost, num_nodes: 3 };
        let config = CongestConfig { crashes: vec![(ghost, 1)], ..CongestConfig::default() };
        let err = Network::with_config(topo.clone(), gossips(3, 3), 0, config).unwrap_err();
        assert_eq!(err, expected);
        let configs = [
            SimConfig { crashes: vec![(ghost, 1)], ..SimConfig::default() },
            SimConfig { lossy_nodes: vec![(ghost, 0.5)], ..SimConfig::default() },
        ];
        for config in configs {
            let err = Simulator::new(topo.clone(), gossips(3, 3), 0, config).unwrap_err();
            assert_eq!(err, expected);
        }
    }

    /// The size budget is one shared rule: a budget the wide message fits
    /// gives the engine's transcript, one it exceeds gives the engine's
    /// error, whatever the latency.
    #[test]
    fn message_budget_matches_engine() {
        let topo = Topology::ring(5).unwrap();
        let wide = CongestError::MessageTooLarge {
            from: NodeId::new(2),
            to: NodeId::new(1),
            bits: 49,
            limit: 32,
        };
        for (limit, expected) in [(64, Ok(())), (32, Err(wide))] {
            let econfig =
                CongestConfig { max_message_bits: Some(limit), ..CongestConfig::default() };
            let sconfig = SimConfig {
                max_message_bits: Some(limit),
                latency: LatencyModel::Uniform { lo: 1, hi: 900_000 },
                ..SimConfig::default()
            };
            let (eres, etr, enodes) = engine_run(&topo, bursts(5, 4), 3, econfig, 20);
            let (sres, sim) = sim_run(&topo, bursts(5, 4), 3, sconfig, 20);
            assert_eq!(eres, expected, "budget {limit}");
            assert_eq!(sres, expected, "budget {limit}");
            if expected.is_ok() {
                assert_eq!(&etr, sim.transcript());
                assert_eq!(&enodes, sim.nodes());
                assert_eq!(etr.max_message_bits(), 49);
            }
        }
    }

    /// A lossy sender loses what the fault plan spared, each message
    /// counted once, and a lost message is never measured against the
    /// size budget.
    #[test]
    fn lossy_sender_drops_after_the_fault_plan_and_before_the_budget() {
        let topo = Topology::ring(5).unwrap();
        let plan = FaultPlan::drop_with_probability(0.3, 41);
        let culprit = NodeId::new(2);
        let econfig = CongestConfig { fault: Some(plan), ..CongestConfig::default() };
        let (eres, etr, _) = engine_run(&topo, bursts(5, 4), 3, econfig, 20);
        assert_eq!(eres, Ok(()));
        let sconfig = SimConfig {
            fault: Some(plan),
            lossy_nodes: vec![(culprit, 1.0)],
            max_message_bits: Some(32),
            ..SimConfig::default()
        };
        let (sres, sim) = sim_run(&topo, bursts(5, 4), 3, sconfig, 20);
        assert_eq!(sres, Ok(()), "the wide message is lost before the budget sees it");
        let spared = (0..4u32)
            .flat_map(|r| topo.neighbors(culprit).iter().map(move |&nb| (r, nb)))
            .filter(|&(r, nb)| !plan.drops(r, culprit, nb))
            .count() as u64;
        assert!(spared > 0 && spared < 8, "the plan must spare some culprit sends, not all");
        assert_eq!(sim.transcript().total_dropped(), etr.total_dropped() + spared);
        assert_eq!(sim.transcript().total_messages(), etr.total_messages() - spared);
        assert_eq!(sim.transcript().num_rounds(), etr.num_rounds());
    }
}
