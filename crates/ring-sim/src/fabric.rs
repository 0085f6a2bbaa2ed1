//! The topology-generic execution engine ("the fabric").
//!
//! [`crate::Engine`] is specialized to the ring: its arenas, link queues,
//! fault hooks and trace events all come in clockwise/counterclockwise
//! pairs. The fabric generalizes the same synchronous machine model to any
//! [`ring_topology::Topology`] — hierarchical rings, 2D tori, the congested
//! clique — while deliberately *reusing* the ring engine's internals
//! (the [`crate::engine`] fault-queue `transmit` kernel, [`Metrics`],
//! [`RunReport`], the trace event stream) so the two cannot drift:
//!
//! * Time advances in synchronous unit steps. A message sent at `t` over
//!   port `p` of node `v` arrives at `topo.peer(v, p)` at `t + 1`, tagged
//!   with the arrival port `topo.reverse_port(v, p)`.
//! * Each node may process at most one unit of work per step
//!   ([`SimError::Overwork`] otherwise), and with
//!   [`LinkCapacity::UnitJobs`] may send at most one job and two messages
//!   per port per step — the §7 model, applied per directed link.
//! * Fault plans are honored on the *ring pair* of every node — port 0 maps
//!   to [`Direction::Cw`] and port 1 to [`Direction::Ccw`], exactly the
//!   mapping the [`crate::oracle`] replays — through the same staged-queue
//!   `transmit` the ring engine uses, so drops, delay epochs, bandwidth
//!   caps and the hold-and-retry rule behave identically. Higher ports
//!   (torus N/S columns, hierarchy uplinks, clique chords) are always
//!   healthy; a stalled processor skips its step but its inbox carries
//!   over and its link queues keep draining, mirroring the ring engine.
//!
//! ## Determinism
//!
//! [`Fabric::run`] steps nodes `0..n` in index order. [`Fabric::par_run`]
//! shards the id space along [`ring_topology::Topology::cuts`] (contiguous,
//! seam-aligned ranges) and merges per-shard effects *in shard order*,
//! which equals node order — so sequential and parallel runs, static or
//! work-stealing, produce bit-for-bit identical [`RunReport`]s for every
//! shard count. The workspace equivalence proptests assert this across
//! topologies, fault plans and checkpoint cycles.
//!
//! Ring policies lift unchanged: [`RingLift`] adapts any [`Node`] to a
//! [`FabricNode`] by translating the port-tagged inbox back into the
//! cw/ccw [`StepIo`] surface. The ring engine itself remains the fast path
//! for rings (the active-node frontier, the golden byte formats); the
//! fabric is the generality path.

use std::collections::VecDeque;
use std::sync::Mutex;

use ring_topology::{AnyTopology, Topology};

use crate::checkpoint::{
    decode_event, decode_fault_plan, decode_metrics, encode_event, encode_fault_plan,
    encode_metrics, fnv1a, CheckpointError, Decoder, Encoder, Persist, SNAPSHOT_MAGIC,
};
use crate::engine::{
    transmit, EngineConfig, LinkCapacity, LinkQueue, Node, NodeCtx, Payload, RunReport,
    SpanOutcome, Staged, StepIo,
};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultTable};
use crate::metrics::Metrics;
use crate::topology::{Direction, RingTopology};
use crate::trace::{Event, Trace, TraceLevel};

/// Snapshot format version for fabric images. Distinct from the ring
/// engine's [`crate::SNAPSHOT_VERSION`] (which stays 1, keeping every
/// existing ring byte image valid): the two containers share the
/// `RINGSNAP` magic and fail closed on each other's version tag.
pub const FABRIC_SNAPSHOT_VERSION: u32 = 2;

/// Read-only per-step context handed to a [`FabricNode`].
#[derive(Debug, Clone, Copy)]
pub struct FabricCtx<'a> {
    /// This node's id.
    pub id: usize,
    /// The current step (starts at 0).
    pub t: u64,
    /// The topology the node lives on. Policies may read global shape
    /// facts (`len()`, `degree(id)`, the metric) but get no access to
    /// other nodes' state.
    pub topo: &'a AnyTopology,
}

/// A node's outgoing sends for one step, tagged by departure port.
///
/// Pushes may arrive in any port order; the fabric stable-sorts them by
/// port when the step ends (preserving push order within a port), so the
/// wire order — and therefore every downstream consumer — is independent
/// of the order the policy happened to emit in.
#[derive(Debug)]
pub struct FabricOutbox<'a, M: Payload> {
    degree: usize,
    sends: &'a mut Vec<(usize, M)>,
}

impl<M: Payload> FabricOutbox<'_, M> {
    /// Appends a message departing over `port` (delivered at `t + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `port` is not a valid port of the sending node — sending
    /// over a nonexistent link is a policy bug, not a runtime condition.
    pub fn push(&mut self, port: usize, msg: M) {
        assert!(
            port < self.degree,
            "send over port {port} of a degree-{} node",
            self.degree
        );
        self.sends.push((port, msg));
    }

    /// True iff nothing was sent yet this step.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// Number of messages pushed so far this step.
    pub fn len(&self) -> usize {
        self.sends.len()
    }
}

/// A scheduling policy running on one node of an arbitrary topology.
///
/// The fabric analogue of [`Node`]: the inbox is a flat list of
/// `(arrival_port, message)` pairs (sparse — only what actually arrived,
/// so clique nodes do not pay for their degree), ordered by sending node
/// id and stable within a sender; the outbox is port-addressed.
pub trait FabricNode {
    /// Link message type.
    type Msg: Payload;

    /// Executes one synchronous step: drain the inbox (messages sent in
    /// the previous step, tagged by the port they arrived on; empty at
    /// `t = 0`), optionally process one unit of resident work, and emit
    /// messages through `out`. Returns the units processed (at most 1).
    ///
    /// The fabric clears whatever the policy leaves in `inbox` when the
    /// step ends; undrained messages are gone.
    fn on_step(
        &mut self,
        ctx: &FabricCtx<'_>,
        inbox: &mut Vec<(usize, Self::Msg)>,
        out: &mut FabricOutbox<'_, Self::Msg>,
    ) -> u64;

    /// Units of unprocessed work currently resident on this node (not
    /// counting work in flight).
    fn pending_work(&self) -> u64;

    /// Serializes this node's complete policy state into a fabric
    /// snapshot; same bit-exactness contract as [`Node::save_state`].
    /// The default refuses; nodes opt in.
    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        let _ = enc;
        Err(CheckpointError::Unsupported(
            "fabric node type does not implement save_state",
        ))
    }

    /// Restores the state written by [`FabricNode::save_state`] into
    /// `self` (a freshly constructed node of the same configuration).
    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        let _ = dec;
        Err(CheckpointError::Unsupported(
            "fabric node type does not implement restore_state",
        ))
    }
}

/// Lifts a ring [`Node`] onto the fabric unchanged.
///
/// Arrival port 1 carries what the counterclockwise neighbor sent
/// clockwise (the ring engine's `from_ccw` arena) and arrival port 0 the
/// reverse; drained `to_cw` sends depart over port 0 and `to_ccw` over
/// port 1 — so on a [`ring_topology::RingTopology`] the lifted policy
/// sees byte-for-byte the inbox order the ring engine would deliver.
/// Drop-off audits are discarded (the fabric does not record
/// [`Event::DroppedOff`]); use the ring engine for audited bucket runs.
#[derive(Debug)]
pub struct RingLift<N: Node> {
    inner: N,
    from_ccw: Vec<N::Msg>,
    from_cw: Vec<N::Msg>,
    to_cw: Vec<N::Msg>,
    to_ccw: Vec<N::Msg>,
}

impl<N: Node> RingLift<N> {
    /// Wraps a ring policy node.
    pub fn new(inner: N) -> Self {
        RingLift {
            inner,
            from_ccw: Vec::new(),
            from_cw: Vec::new(),
            to_cw: Vec::new(),
            to_ccw: Vec::new(),
        }
    }

    /// Unwraps the ring policy node.
    pub fn into_inner(self) -> N {
        self.inner
    }
}

impl<N: Node> FabricNode for RingLift<N> {
    type Msg = N::Msg;

    fn on_step(
        &mut self,
        ctx: &FabricCtx<'_>,
        inbox: &mut Vec<(usize, Self::Msg)>,
        out: &mut FabricOutbox<'_, Self::Msg>,
    ) -> u64 {
        debug_assert!(
            matches!(ctx.topo, AnyTopology::Ring(_)),
            "RingLift only makes sense on a ring"
        );
        for (port, msg) in inbox.drain(..) {
            match port {
                1 => self.from_ccw.push(msg),
                0 => self.from_cw.push(msg),
                _ => unreachable!("ring nodes have exactly two ports"),
            }
        }
        let nctx = NodeCtx {
            id: ctx.id,
            t: ctx.t,
            topo: RingTopology::new(ctx.topo.len()),
        };
        let work = {
            let mut io = StepIo::new(
                &mut self.from_ccw,
                &mut self.from_cw,
                &mut self.to_cw,
                &mut self.to_ccw,
            );
            self.inner.on_step(&nctx, &mut io)
        };
        self.from_ccw.clear();
        self.from_cw.clear();
        for msg in self.to_cw.drain(..) {
            out.push(0, msg);
        }
        for msg in self.to_ccw.drain(..) {
            out.push(1, msg);
        }
        work
    }

    fn pending_work(&self) -> u64 {
        self.inner.pending_work()
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        self.inner.save_state(enc)
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.inner.restore_state(dec)
    }
}

/// Per-round counter deltas, accumulated per shard and summed in shard
/// order so parallel merges reproduce the sequential totals exactly.
#[derive(Debug, Default, Clone, Copy)]
struct RoundDelta {
    messages_sent: u64,
    job_hops: u64,
    inflight: u64,
    dropped: u64,
    delayed: u64,
    retried: u64,
}

impl RoundDelta {
    fn absorb(&mut self, o: &RoundDelta) {
        self.messages_sent += o.messages_sent;
        self.job_hops += o.job_hops;
        self.inflight += o.inflight;
        self.dropped += o.dropped;
        self.delayed += o.delayed;
        self.retried += o.retried;
    }
}

/// What one shard produced in one round: deliveries, trace events (already
/// in node order), per-node work, and counter deltas. Merged strictly in
/// shard order, which equals node order because cuts are contiguous and
/// ascending — this is the whole bit-identity argument.
struct ShardOut<M> {
    /// `(dest, arrival_port, msg)` in departure order.
    deliveries: Vec<(usize, usize, M)>,
    /// `(node, units)` for nodes that processed work, ascending by node.
    work: Vec<(usize, u64)>,
    events: Vec<Event>,
    delta: RoundDelta,
}

/// One steal-pool result slot: filled exactly once by whichever worker
/// claims the shard's task.
type ShardSlot<M> = Mutex<Option<Result<ShardOut<M>, SimError>>>;

/// Steps one node and drains its links for one round — the single
/// per-node kernel shared by the sequential and parallel executors.
///
/// `sends` is a cleared scratch buffer; departures are appended to `out`
/// as `(dest, arrival_port, msg)`, events (if `record`) in engine order
/// (`Processed` first, then `SentOn` by ascending port), counters into
/// `delta`. Under a fault plan, ports 0/1 route through the ring engine's
/// staged-queue [`transmit`] (port 0 ↔ [`Direction::Cw`], port 1 ↔
/// [`Direction::Ccw`]); higher ports — and every port when no plan is
/// installed — depart directly. The caller has already carried a stalled
/// node's inbox over, so a stalled node skips its step here while its two
/// fault queues keep draining.
#[allow(clippy::too_many_arguments)] // the per-node kernel's natural surface
fn step_cell<N: FabricNode>(
    node: &mut N,
    topo: &AnyTopology,
    i: usize,
    t: u64,
    inbox: &mut Vec<(usize, N::Msg)>,
    queue_cw: &mut LinkQueue<N::Msg>,
    queue_ccw: &mut LinkQueue<N::Msg>,
    faults: Option<&FaultTable>,
    link_capacity: LinkCapacity,
    record: bool,
    sends: &mut Vec<(usize, N::Msg)>,
    out: &mut Vec<(usize, usize, N::Msg)>,
    events: &mut Vec<Event>,
    delta: &mut RoundDelta,
) -> Result<u64, SimError> {
    sends.clear();
    let degree = topo.degree(i);
    let runs = faults.map_or(true, |f| f.node_runs(i, t));
    let work_done = if runs {
        let ctx = FabricCtx { id: i, t, topo };
        let mut outbox = FabricOutbox { degree, sends };
        let w = node.on_step(&ctx, inbox, &mut outbox);
        inbox.clear();
        w
    } else {
        0
    };
    if work_done > 1 {
        return Err(SimError::Overwork {
            node: i,
            step: t,
            units: work_done,
        });
    }
    // Canonical wire order: stable by port, push order within a port.
    sends.sort_by_key(|(p, _)| *p);
    if link_capacity == LinkCapacity::UnitJobs {
        let mut k = 0;
        while k < sends.len() {
            let port = sends[k].0;
            let (mut messages, mut payload) = (0u64, 0u64);
            while k < sends.len() && sends[k].0 == port {
                messages += sends[k].1.run_len();
                payload += sends[k].1.job_units();
                k += 1;
            }
            if payload > 1 || messages > 2 {
                return Err(SimError::LinkCapacityExceeded {
                    node: i,
                    step: t,
                    job_units: payload,
                    messages: messages as usize,
                });
            }
        }
    }
    if work_done > 0 && record {
        events.push(Event::Processed {
            t,
            node: i,
            units: work_done,
        });
    }
    // Departures, ascending by port. The drain walks the sorted sends
    // once; only ports that actually carry something are visited (plus
    // the ring pair under a plan), so a mostly-quiet clique node costs
    // O(sends), not O(degree).
    let mut drain = sends.drain(..).peekable();
    // With a plan the ring pair (ports 0/1) is metered by `transmit`
    // over the node's fault queues — which must drain every round, even
    // when nothing new was pushed (and even while the owner is stalled).
    if let Some(faults) = faults {
        let mut staged: Vec<N::Msg> = Vec::new();
        let mut departed: Vec<N::Msg> = Vec::new();
        for (port, dir) in [(0usize, Direction::Cw), (1usize, Direction::Ccw)] {
            if port >= degree {
                break;
            }
            staged.clear();
            while drain.peek().is_some_and(|&(p, _)| p == port) {
                staged.push(drain.next().expect("peeked").1);
            }
            let queue = if port == 0 {
                &mut *queue_cw
            } else {
                &mut *queue_ccw
            };
            departed.clear();
            let dep = transmit(faults, i, dir, t, &mut staged, queue, &mut departed);
            delta.dropped += dep.dropped;
            delta.delayed += dep.delayed;
            delta.retried += dep.retried;
            let peer = topo.peer(i, port);
            let ap = topo.reverse_port(i, port);
            for msg in departed.drain(..) {
                out.push((peer, ap, msg));
            }
            if dep.messages > 0 {
                delta.messages_sent += dep.messages;
                delta.job_hops += dep.payload;
                delta.inflight += dep.payload;
                if record {
                    events.push(Event::SentOn {
                        t,
                        node: i,
                        port,
                        job_units: dep.payload,
                    });
                }
            }
        }
    }
    // Direct ports: everything when no plan is installed, ports >= 2
    // otherwise (the sorted drain has already consumed the ring pair).
    while let Some(&(port, _)) = drain.peek() {
        let peer = topo.peer(i, port);
        let ap = topo.reverse_port(i, port);
        let (mut messages, mut payload) = (0u64, 0u64);
        while drain.peek().is_some_and(|&(p, _)| p == port) {
            let (_, msg) = drain.next().expect("peeked");
            messages += msg.run_len();
            payload += msg.job_units();
            out.push((peer, ap, msg));
        }
        if messages > 0 {
            delta.messages_sent += messages;
            delta.job_hops += payload;
            delta.inflight += payload;
            if record {
                events.push(Event::SentOn {
                    t,
                    node: i,
                    port,
                    job_units: payload,
                });
            }
        }
    }
    drop(drain);
    Ok(work_done)
}

/// The topology-generic engine: owns one [`FabricNode`] per node of an
/// [`AnyTopology`] and advances global time in lock-step rounds.
///
/// All loop-carried state lives in the struct, so
/// [`Fabric::run_until`] / [`Fabric::par_run_until`] pause at any step
/// boundary, [`Fabric::snapshot`] serializes exactly that boundary, and
/// the sequential and parallel drivers may be freely interleaved across
/// spans of one run without observable effect.
///
/// Reuses [`EngineConfig`]; the ring-engine-only knobs (`observe`,
/// `checkpoint_every`) and the inert ones (`compress`, `window`) are
/// ignored here.
#[derive(Debug)]
pub struct Fabric<N: FabricNode> {
    topo: AnyTopology,
    nodes: Vec<N>,
    total_work: u64,
    config: EngineConfig,
    t: u64,
    processed: u64,
    finished: bool,
    /// Inboxes for step `t`: `(arrival_port, msg)` per node, ordered by
    /// sending node (carried-over stall survivors first).
    cur: Vec<Vec<(usize, N::Msg)>>,
    /// Spare buffers that become the next round's inboxes (capacity
    /// recycling, same trick as the ring engine's arenas).
    spare: Vec<Vec<(usize, N::Msg)>>,
    queue_cw: Vec<LinkQueue<N::Msg>>,
    queue_ccw: Vec<LinkQueue<N::Msg>>,
    metrics: Metrics,
    trace: Trace,
}

impl<N: FabricNode> Fabric<N> {
    /// Builds a fabric over `topo` with one policy node per id.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != topo.len()`.
    pub fn new(topo: AnyTopology, nodes: Vec<N>, total_work: u64, config: EngineConfig) -> Self {
        assert_eq!(nodes.len(), topo.len(), "one node per topology id required");
        let n = nodes.len();
        let level = config.trace;
        Fabric {
            topo,
            nodes,
            total_work,
            config,
            t: 0,
            processed: 0,
            finished: false,
            cur: (0..n).map(|_| Vec::new()).collect(),
            spare: (0..n).map(|_| Vec::new()).collect(),
            queue_cw: (0..n).map(|_| VecDeque::new()).collect(),
            queue_ccw: (0..n).map(|_| VecDeque::new()).collect(),
            metrics: Metrics::new(n),
            trace: Trace::new(level),
        }
    }

    /// The topology this fabric executes on.
    pub fn topology(&self) -> &AnyTopology {
        &self.topo
    }

    /// The step boundary the fabric is currently at.
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Immutable view of the policy nodes (diagnostics and tests).
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    fn max_steps(&self) -> u64 {
        self.config.max_steps.unwrap_or_else(|| {
            let n = self.topo.len() as u64;
            let horizon = self.config.faults.as_ref().map_or(0, FaultPlan::horizon);
            4 * (self.total_work + n) + 8 * (self.topo.diameter() as u64 + 2) + 64 + 2 * horizon
        })
    }

    /// Runs to completion on one thread, stepping nodes in id order.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        match self.drive_seq(None)? {
            SpanOutcome::Done(report) => Ok(*report),
            SpanOutcome::Paused { .. } => unreachable!("unbounded span cannot pause"),
        }
    }

    /// Runs until `pause_at` (a step boundary) or completion, whichever
    /// comes first. Pausing retains all loop-carried state, so the next
    /// driver call — sequential or parallel — continues bit-identically.
    pub fn run_until(&mut self, pause_at: u64) -> Result<SpanOutcome, SimError> {
        self.drive_seq(Some(pause_at))
    }

    fn drive_seq(&mut self, pause_at: Option<u64>) -> Result<SpanOutcome, SimError> {
        assert!(!self.finished, "fabric already finished");
        let max_steps = self.max_steps();
        let faults = self.fault_table();
        loop {
            if let Some(outcome) = self.boundary(pause_at, max_steps)? {
                return Ok(outcome);
            }
            self.seq_round(faults.as_ref())?;
        }
    }

    /// The fault plan laid out for this fabric's nodes, built once per
    /// `run`/`par_run` span.
    fn fault_table(&self) -> Option<FaultTable> {
        let n = self.topo.len();
        self.config.faults.as_ref().map(|p| FaultTable::new(p, n))
    }

    fn finish(&mut self) -> RunReport {
        self.finished = true;
        RunReport {
            makespan: self.metrics.last_busy_step.map_or(0, |t| t + 1),
            metrics: self.metrics.clone(),
            trace: std::mem::take(&mut self.trace),
            observability: None,
        }
    }

    /// Step-boundary triage shared by the sequential and parallel
    /// drivers: completion, pause, miscount, step budget — in that order.
    fn boundary(
        &mut self,
        pause_at: Option<u64>,
        max_steps: u64,
    ) -> Result<Option<SpanOutcome>, SimError> {
        if self.processed > self.total_work {
            return Err(SimError::WorkMiscount {
                processed: self.processed,
                total: self.total_work,
            });
        }
        if self.processed == self.total_work {
            return Ok(Some(SpanOutcome::Done(Box::new(self.finish()))));
        }
        if pause_at == Some(self.t) {
            return Ok(Some(SpanOutcome::Paused {
                t: self.t,
                processed: self.processed,
            }));
        }
        if self.t >= max_steps {
            return Err(SimError::ExceededMaxSteps {
                max_steps,
                processed: self.processed,
                total: self.total_work,
            });
        }
        Ok(None)
    }

    fn end_round(&mut self, delta: &RoundDelta) {
        self.metrics.messages_sent += delta.messages_sent;
        self.metrics.job_hops += delta.job_hops;
        self.metrics.messages_dropped += delta.dropped;
        self.metrics.messages_delayed += delta.delayed;
        self.metrics.messages_retried += delta.retried;
        self.metrics.peak_inflight_jobs = self.metrics.peak_inflight_jobs.max(delta.inflight);
        self.t += 1;
        self.metrics.steps = self.t;
        std::mem::swap(&mut self.cur, &mut self.spare);
    }

    /// One sequential round: carry stalled inboxes over, step every node,
    /// deliver into the spare buffers, swap.
    fn seq_round(&mut self, faults: Option<&FaultTable>) -> Result<(), SimError> {
        // Destructured so `config` is read while the other fields are
        // written.
        let Fabric {
            topo,
            nodes,
            config,
            t,
            processed,
            cur,
            spare,
            queue_cw,
            queue_ccw,
            metrics,
            trace,
            ..
        } = self;
        let t = *t;
        let record = matches!(config.trace, TraceLevel::Full);
        carry_stalled(faults, t, cur, spare);
        let mut sends = Vec::new();
        let mut out = Vec::new();
        let mut events = Vec::new();
        let mut delta = RoundDelta::default();
        for i in 0..nodes.len() {
            let work = step_cell(
                &mut nodes[i],
                topo,
                i,
                t,
                &mut cur[i],
                &mut queue_cw[i],
                &mut queue_ccw[i],
                faults,
                config.link_capacity,
                record,
                &mut sends,
                &mut out,
                &mut events,
                &mut delta,
            )?;
            apply_work(metrics, processed, t, i, work);
            for (dest, ap, msg) in out.drain(..) {
                spare[dest].push((ap, msg));
            }
        }
        for ev in events {
            trace.record(ev);
        }
        self.end_round(&delta);
        Ok(())
    }
}

/// A stalled processor does not consume its inbox: carry it over before
/// anyone writes this round's sends (carried messages must precede every
/// sender's in the destination inbox). Only a node with processor faults
/// can stall.
fn carry_stalled<T>(faults: Option<&FaultTable>, t: u64, cur: &mut [Vec<T>], spare: &mut [Vec<T>]) {
    let Some(faults) = faults else { return };
    for &i in faults.stallable() {
        if !faults.node_runs(i, t) {
            spare[i].append(&mut cur[i]);
        }
    }
}

fn apply_work(metrics: &mut Metrics, processed: &mut u64, t: u64, node: usize, units: u64) {
    if units > 0 {
        *processed += units;
        metrics.processed_per_node[node] += units;
        metrics.busy_steps_per_node[node] += 1;
        metrics.last_busy_step = Some(t);
    }
}

/// One shard's slice of the mutable per-node state for one round.
struct ShardTask<'a, N: FabricNode> {
    idx: usize,
    lo: usize,
    nodes: &'a mut [N],
    cur: &'a mut [Vec<(usize, N::Msg)>],
    queue_cw: &'a mut [LinkQueue<N::Msg>],
    queue_ccw: &'a mut [LinkQueue<N::Msg>],
}

/// Runs one shard's round: steps its nodes in id order against shard-local
/// buffers. Stall carry-over is *not* done here (the caller moves stalled
/// inboxes before sharding, because carried messages must precede every
/// shard's sends in the destination inbox).
#[allow(clippy::too_many_arguments)]
fn run_shard<N: FabricNode>(
    task: ShardTask<'_, N>,
    topo: &AnyTopology,
    t: u64,
    faults: Option<&FaultTable>,
    link_capacity: LinkCapacity,
    record: bool,
) -> Result<ShardOut<N::Msg>, SimError> {
    let mut sends = Vec::new();
    let mut out = ShardOut {
        deliveries: Vec::new(),
        work: Vec::new(),
        events: Vec::new(),
        delta: RoundDelta::default(),
    };
    for j in 0..task.nodes.len() {
        let i = task.lo + j;
        let work = step_cell(
            &mut task.nodes[j],
            topo,
            i,
            t,
            &mut task.cur[j],
            &mut task.queue_cw[j],
            &mut task.queue_ccw[j],
            faults,
            link_capacity,
            record,
            &mut sends,
            &mut out.deliveries,
            &mut out.events,
            &mut out.delta,
        )?;
        if work > 0 {
            out.work.push((i, work));
        }
    }
    Ok(out)
}

impl<N: FabricNode + Send> Fabric<N>
where
    N::Msg: Send,
{
    /// Runs to completion with `shards` scoped workers over
    /// [`ring_topology::Topology::cuts`]; bit-identical to [`Fabric::run`]
    /// for every shard count, steal seed and pool size
    /// ([`crate::ParConfig::steal_seed`] / [`crate::ParConfig::threads`]).
    pub fn par_run(&mut self, shards: usize) -> Result<RunReport, SimError> {
        match self.drive_par(None, shards)? {
            SpanOutcome::Done(report) => Ok(*report),
            SpanOutcome::Paused { .. } => unreachable!("unbounded span cannot pause"),
        }
    }

    /// Parallel analogue of [`Fabric::run_until`].
    pub fn par_run_until(&mut self, shards: usize, pause_at: u64) -> Result<SpanOutcome, SimError> {
        self.drive_par(Some(pause_at), shards)
    }

    fn drive_par(&mut self, pause_at: Option<u64>, shards: usize) -> Result<SpanOutcome, SimError> {
        assert!(!self.finished, "fabric already finished");
        let max_steps = self.max_steps();
        let cuts = self.topo.cuts(shards);
        let faults = self.fault_table();
        loop {
            if let Some(outcome) = self.boundary(pause_at, max_steps)? {
                return Ok(outcome);
            }
            self.par_round(&cuts, faults.as_ref())?;
        }
    }

    /// One parallel round over fixed cuts: carry stalled inboxes, split
    /// the per-node state into per-shard slices, run shards concurrently,
    /// merge their effects in shard order (= node order).
    fn par_round(
        &mut self,
        cuts: &[std::ops::Range<usize>],
        faults: Option<&FaultTable>,
    ) -> Result<(), SimError> {
        let Fabric {
            topo,
            nodes,
            config,
            t,
            processed,
            cur,
            spare,
            queue_cw,
            queue_ccw,
            metrics,
            trace,
            ..
        } = self;
        let t = *t;
        let topo = &*topo;
        let record = matches!(config.trace, TraceLevel::Full);
        carry_stalled(faults, t, cur, spare);

        // Slice the id space along the cuts. `cuts` partitions `0..n` in
        // order (a Topology contract, asserted by the trait tests), so
        // repeated split_at_mut walks it without unsafe.
        let mut tasks: Vec<ShardTask<'_, N>> = Vec::with_capacity(cuts.len());
        {
            let (mut nodes, mut cur, mut qcw, mut qccw) = (
                &mut nodes[..],
                &mut cur[..],
                &mut queue_cw[..],
                &mut queue_ccw[..],
            );
            for (idx, range) in cuts.iter().enumerate() {
                let len = range.len();
                let (n0, n1) = nodes.split_at_mut(len);
                let (c0, c1) = cur.split_at_mut(len);
                let (q0, q1) = qcw.split_at_mut(len);
                let (r0, r1) = qccw.split_at_mut(len);
                nodes = n1;
                cur = c1;
                qcw = q1;
                qccw = r1;
                tasks.push(ShardTask {
                    idx,
                    lo: range.start,
                    nodes: n0,
                    cur: c0,
                    queue_cw: q0,
                    queue_ccw: r0,
                });
            }
        }

        let link_capacity = config.link_capacity;
        let n_shards = tasks.len();
        // A round-scoped pool: workers pop whole-shard tasks from a shared
        // deque (the seed picks which end each worker pops, purely to
        // diversify interleavings) and file results by shard index, so the
        // merge below is the same whatever the steal schedule was. Worker 0
        // is the calling thread.
        let seed = config.par.resolved_steal_seed();
        let workers = config
            .par
            .resolved_threads()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
            .min(n_shards)
            .max(1);
        let queue = Mutex::new(tasks.into_iter().collect::<VecDeque<_>>());
        let slots: Vec<ShardSlot<N::Msg>> = (0..n_shards).map(|_| Mutex::new(None)).collect();
        let work = |w: usize| loop {
            let task = {
                let mut q = queue.lock().expect("steal queue poisoned");
                if (seed ^ w as u64) & 1 == 0 {
                    q.pop_front()
                } else {
                    q.pop_back()
                }
            };
            let Some(task) = task else { break };
            let idx = task.idx;
            let res = run_shard(task, topo, t, faults, link_capacity, record);
            *slots[idx].lock().expect("result slot poisoned") = Some(res);
        };
        std::thread::scope(|scope| {
            for w in 1..workers {
                let work = &work;
                scope.spawn(move || work(w));
            }
            work(0);
        });

        // Merge in shard order = node order: first error wins
        // deterministically, then deliveries, events, work and deltas.
        let mut delta = RoundDelta::default();
        let mut merged: Vec<ShardOut<N::Msg>> = Vec::with_capacity(n_shards);
        for slot in slots {
            let filed = slot.into_inner().expect("result slot poisoned");
            merged.push(filed.expect("every shard files a result")?);
        }
        for shard in merged {
            for (dest, ap, msg) in shard.deliveries {
                spare[dest].push((ap, msg));
            }
            for ev in shard.events {
                trace.record(ev);
            }
            for (node, units) in shard.work {
                apply_work(metrics, processed, t, node, units);
            }
            delta.absorb(&shard.delta);
        }
        self.end_round(&delta);
        Ok(())
    }
}

impl<N: FabricNode> Fabric<N>
where
    N::Msg: Persist,
{
    /// Serializes the fabric's complete state at the current step
    /// boundary: a `RINGSNAP` container at [`FABRIC_SNAPSHOT_VERSION`]
    /// (ring images stay version 1; each reader rejects the other's tag).
    pub fn snapshot(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&FABRIC_SNAPSHOT_VERSION.to_le_bytes());
        let mut enc = Encoder::new();
        enc.str(&self.topo.spec());
        enc.u64(self.total_work);
        enc.u64(self.t);
        enc.u64(self.processed);
        enc.u8(match self.config.trace {
            TraceLevel::Off => 0,
            TraceLevel::Full => 1,
        });
        match &self.config.faults {
            None => enc.bool(false),
            Some(plan) => {
                enc.bool(true);
                encode_fault_plan(&mut enc, plan);
            }
        }
        encode_metrics(&mut enc, &self.metrics);
        enc.usize(self.trace.events().len());
        for ev in self.trace.events() {
            encode_event(&mut enc, ev);
        }
        for node in &self.nodes {
            let mut sub = Encoder::new();
            node.save_state(&mut sub)?;
            enc.bytes(&sub.into_bytes());
        }
        for inbox in &self.cur {
            enc.usize(inbox.len());
            for (port, msg) in inbox {
                enc.usize(*port);
                let mut sub = Encoder::new();
                msg.save(&mut sub);
                enc.bytes(&sub.into_bytes());
            }
        }
        for queues in [&self.queue_cw, &self.queue_ccw] {
            for queue in queues.iter() {
                enc.usize(queue.len());
                for staged in queue {
                    enc.u64(staged.ready);
                    enc.u64(staged.attempts);
                    let mut sub = Encoder::new();
                    staged.msg.save(&mut sub);
                    enc.bytes(&sub.into_bytes());
                }
            }
        }
        out.extend_from_slice(&enc.into_bytes());
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(out)
    }

    /// Reconstructs a fabric from a [`Fabric::snapshot`] image: `nodes`
    /// are freshly constructed policy nodes of the same configuration
    /// (restored via [`FabricNode::restore_state`]), `config` supplies
    /// the runtime knobs, and the fault plan embedded in the image (if
    /// any) replaces `config.faults` — fault schedules are part of the
    /// experiment, not the runtime.
    pub fn resume(
        topo: AnyTopology,
        mut nodes: Vec<N>,
        mut config: EngineConfig,
        data: &[u8],
    ) -> Result<Self, CheckpointError> {
        let magic = SNAPSHOT_MAGIC.len();
        if data.len() < magic + 4 + 8 {
            return Err(CheckpointError::UnexpectedEof);
        }
        if data[..magic] != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, tail) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(body) != stored {
            return Err(CheckpointError::BadChecksum);
        }
        let mut dec = Decoder::new(&body[magic..]);
        let version = dec.u32()?;
        if version != FABRIC_SNAPSHOT_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let spec = dec.str()?;
        if spec != topo.spec() {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot is for topology {spec}, resuming on {}",
                topo.spec()
            )));
        }
        if nodes.len() != topo.len() {
            return Err(CheckpointError::Mismatch(format!(
                "{} nodes supplied for a {}-node topology",
                nodes.len(),
                topo.len()
            )));
        }
        let n = topo.len();
        let total_work = dec.u64()?;
        let t = dec.u64()?;
        let processed = dec.u64()?;
        let trace_level = match dec.u8()? {
            0 => TraceLevel::Off,
            1 => TraceLevel::Full,
            _ => return Err(CheckpointError::Corrupt("bad trace level tag")),
        };
        config.trace = trace_level;
        config.faults = if dec.bool()? {
            Some(decode_fault_plan(&mut dec)?)
        } else {
            None
        };
        let metrics = decode_metrics(&mut dec, n)?;
        let n_events = dec.usize()?;
        if n_events > body.len() {
            return Err(CheckpointError::Corrupt("event count exceeds image size"));
        }
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(decode_event(&mut dec)?);
        }
        for node in nodes.iter_mut() {
            let blob = dec.bytes()?.to_vec();
            let mut sub = Decoder::new(&blob);
            node.restore_state(&mut sub)?;
            sub.finish()?;
        }
        let mut cur: Vec<Vec<(usize, N::Msg)>> = Vec::with_capacity(n);
        for _ in 0..n {
            let len = dec.usize()?;
            if len > body.len() {
                return Err(CheckpointError::Corrupt("inbox count exceeds image size"));
            }
            let mut inbox = Vec::with_capacity(len);
            for _ in 0..len {
                let port = dec.usize()?;
                let blob = dec.bytes()?.to_vec();
                let mut sub = Decoder::new(&blob);
                let msg = N::Msg::load(&mut sub)?;
                sub.finish()?;
                inbox.push((port, msg));
            }
            cur.push(inbox);
        }
        let mut load_queues = || -> Result<Vec<LinkQueue<N::Msg>>, CheckpointError> {
            let mut queues = Vec::with_capacity(n);
            for _ in 0..n {
                let len = dec.usize()?;
                if len > body.len() {
                    return Err(CheckpointError::Corrupt("queue count exceeds image size"));
                }
                let mut queue = VecDeque::with_capacity(len);
                for _ in 0..len {
                    let ready = dec.u64()?;
                    let attempts = dec.u64()?;
                    let blob = dec.bytes()?.to_vec();
                    let mut sub = Decoder::new(&blob);
                    let msg = N::Msg::load(&mut sub)?;
                    sub.finish()?;
                    queue.push_back(Staged {
                        ready,
                        attempts,
                        msg,
                    });
                }
                queues.push(queue);
            }
            Ok(queues)
        };
        let queue_cw = load_queues()?;
        let queue_ccw = load_queues()?;
        dec.finish()?;
        Ok(Fabric {
            topo,
            nodes,
            total_work,
            config,
            t,
            processed,
            finished: false,
            cur,
            spare: (0..n).map(|_| Vec::new()).collect(),
            queue_cw,
            queue_ccw,
            metrics,
            trace: Trace::from_events(trace_level, events),
        })
    }

    /// Parses `(t, processed, total_work)` from a fabric snapshot header
    /// without reconstructing nodes (CLI inspection helper). Does not
    /// verify the checksum — use [`Fabric::resume`] for that.
    pub fn snapshot_summary(data: &[u8]) -> Result<(u64, u64, u64), CheckpointError> {
        let magic = SNAPSHOT_MAGIC.len();
        if data.len() < magic + 4 + 8 {
            return Err(CheckpointError::UnexpectedEof);
        }
        if data[..magic] != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut dec = Decoder::new(&data[magic..data.len() - 8]);
        let version = dec.u32()?;
        if version != FABRIC_SNAPSHOT_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let _spec = dec.str()?;
        let total_work = dec.u64()?;
        let t = dec.u64()?;
        let processed = dec.u64()?;
        Ok((t, processed, total_work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LinkFault, LinkFaultKind, ProcFault, ProcFaultKind};
    use crate::oracle::check_fabric_run;

    /// A one-hop flooding balancer: every step, process one unit, then
    /// push one unit to each lower-id neighbor holding strictly less
    /// (estimated from announcements). Deliberately chatty so runs have
    /// messages on every port class of every topology.
    #[derive(Debug, Clone)]
    enum Gossip {
        /// `job_units` worth of work on the move.
        Jobs(u64),
        /// Load announcement (control, zero payload).
        Load(u64),
    }

    impl Payload for Gossip {
        fn job_units(&self) -> u64 {
            match self {
                Gossip::Jobs(u) => *u,
                Gossip::Load(_) => 0,
            }
        }
    }

    impl Persist for Gossip {
        fn save(&self, enc: &mut Encoder) {
            match self {
                Gossip::Jobs(u) => {
                    enc.u8(0);
                    enc.u64(*u);
                }
                Gossip::Load(x) => {
                    enc.u8(1);
                    enc.u64(*x);
                }
            }
        }

        fn load(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
            match dec.u8()? {
                0 => Ok(Gossip::Jobs(dec.u64()?)),
                1 => Ok(Gossip::Load(dec.u64()?)),
                _ => Err(CheckpointError::Corrupt("bad gossip tag")),
            }
        }
    }

    #[derive(Debug)]
    struct Diffuser {
        backlog: u64,
        est: Vec<u64>,
    }

    impl Diffuser {
        fn fleet(loads: &[u64], topo: &AnyTopology) -> Vec<Diffuser> {
            loads
                .iter()
                .enumerate()
                .map(|(i, &backlog)| Diffuser {
                    backlog,
                    est: vec![u64::MAX; topo.degree(i)],
                })
                .collect()
        }
    }

    impl FabricNode for Diffuser {
        type Msg = Gossip;

        fn on_step(
            &mut self,
            _ctx: &FabricCtx<'_>,
            inbox: &mut Vec<(usize, Gossip)>,
            out: &mut FabricOutbox<'_, Gossip>,
        ) -> u64 {
            for (port, msg) in inbox.drain(..) {
                match msg {
                    Gossip::Jobs(u) => self.backlog += u,
                    Gossip::Load(x) => self.est[port] = x,
                }
            }
            let work = if self.backlog > 0 {
                self.backlog -= 1;
                1
            } else {
                0
            };
            for port in 0..self.est.len() {
                if self.est[port] != u64::MAX
                    && self.backlog > self.est[port]
                    && self.backlog - self.est[port] >= 2
                {
                    self.backlog -= 1;
                    out.push(port, Gossip::Jobs(1));
                }
            }
            for port in 0..self.est.len() {
                out.push(port, Gossip::Load(self.backlog));
            }
            work
        }

        fn pending_work(&self) -> u64 {
            self.backlog
        }

        fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
            enc.u64(self.backlog);
            enc.usize(self.est.len());
            for &e in &self.est {
                enc.u64(e);
            }
            Ok(())
        }

        fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
            self.backlog = dec.u64()?;
            let n = dec.usize()?;
            if n != self.est.len() {
                return Err(CheckpointError::Mismatch(format!(
                    "degree {} in snapshot, {} in node",
                    n,
                    self.est.len()
                )));
            }
            for e in self.est.iter_mut() {
                *e = dec.u64()?;
            }
            Ok(())
        }
    }

    fn shapes() -> Vec<AnyTopology> {
        vec![
            "ring:7".parse().unwrap(),
            "hier:3x4".parse().unwrap(),
            "torus:3x4".parse().unwrap(),
            "clique:9".parse().unwrap(),
        ]
    }

    fn skewed_loads(n: usize) -> Vec<u64> {
        (0..n).map(|i| ((i * 7 + 3) % 11) as u64).collect()
    }

    fn full_cfg(faults: Option<FaultPlan>) -> EngineConfig {
        EngineConfig {
            trace: TraceLevel::Full,
            faults,
            ..EngineConfig::default()
        }
    }

    fn run_seq(topo: &AnyTopology, loads: &[u64], cfg: &EngineConfig) -> RunReport {
        let nodes = Diffuser::fleet(loads, topo);
        Fabric::new(topo.clone(), nodes, loads.iter().sum(), cfg.clone())
            .run()
            .unwrap()
    }

    #[test]
    fn every_shape_drains_to_completion() {
        for topo in shapes() {
            let loads = skewed_loads(topo.len());
            let report = run_seq(&topo, &loads, &full_cfg(None));
            assert_eq!(
                report.metrics.total_processed(),
                loads.iter().sum::<u64>(),
                "{}",
                topo.spec()
            );
            assert!(report.makespan > 0);
            let violations = check_fabric_run(&loads, &topo, &report, None);
            assert!(violations.is_empty(), "{}: {violations:?}", topo.spec());
        }
    }

    #[test]
    fn par_run_matches_sequential_bit_for_bit() {
        for topo in shapes() {
            let loads = skewed_loads(topo.len());
            let seq = run_seq(&topo, &loads, &full_cfg(None));
            for shards in [1, 2, 3, topo.len()] {
                for pool in POOLS {
                    let mut cfg = full_cfg(None);
                    (cfg.par.steal_seed, cfg.par.threads) = pool;
                    let nodes = Diffuser::fleet(&loads, &topo);
                    let par = Fabric::new(topo.clone(), nodes, loads.iter().sum(), cfg)
                        .par_run(shards)
                        .unwrap();
                    assert_eq!(seq, par, "{} shards={shards} {pool:?}", topo.spec());
                }
            }
        }
    }

    /// `(steal_seed, threads)` draws: the machine-fitted pool popping from
    /// the front, and an oversubscribed one popping from both ends.
    const POOLS: [(Option<u64>, Option<usize>); 2] = [(None, None), (Some(1), Some(3))];

    fn stormy_plan(n: usize) -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.add_proc_fault(ProcFault {
            node: 1 % n,
            from: 2,
            until: 5,
            kind: ProcFaultKind::Stall,
        });
        plan.add_link_fault(LinkFault {
            node: 0,
            dir: Direction::Cw,
            from: 1,
            until: 4,
            kind: LinkFaultKind::Drop,
        });
        plan.add_link_fault(LinkFault {
            node: 2 % n,
            dir: Direction::Ccw,
            from: 0,
            until: 6,
            kind: LinkFaultKind::Delay(2),
        });
        plan.add_link_fault(LinkFault {
            node: 3 % n,
            dir: Direction::Cw,
            from: 0,
            until: 8,
            kind: LinkFaultKind::Bandwidth(1),
        });
        plan
    }

    #[test]
    fn faulted_runs_stay_equivalent_and_oracle_clean() {
        for topo in shapes() {
            let loads = skewed_loads(topo.len());
            let plan = stormy_plan(topo.len());
            let cfg = full_cfg(Some(plan.clone()));
            let seq = run_seq(&topo, &loads, &cfg);
            let violations = check_fabric_run(&loads, &topo, &seq, Some(&plan));
            assert!(violations.is_empty(), "{}: {violations:?}", topo.spec());
            for shards in [2, topo.len().div_ceil(2)] {
                for pool in POOLS {
                    let mut cfg = cfg.clone();
                    (cfg.par.steal_seed, cfg.par.threads) = pool;
                    let nodes = Diffuser::fleet(&loads, &topo);
                    let par = Fabric::new(topo.clone(), nodes, loads.iter().sum(), cfg)
                        .par_run(shards)
                        .unwrap();
                    assert_eq!(seq, par, "{} shards={shards} {pool:?}", topo.spec());
                }
            }
        }
    }

    #[test]
    fn snapshot_resume_continues_bit_identically() {
        for topo in shapes() {
            let loads = skewed_loads(topo.len());
            let plan = stormy_plan(topo.len());
            let cfg = full_cfg(Some(plan));
            let uninterrupted = run_seq(&topo, &loads, &cfg);

            let nodes = Diffuser::fleet(&loads, &topo);
            let mut fab = Fabric::new(topo.clone(), nodes, loads.iter().sum(), cfg.clone());
            match fab.run_until(3).unwrap() {
                SpanOutcome::Paused { t, .. } => assert_eq!(t, 3),
                SpanOutcome::Done(_) => panic!("{} finished before the pause", topo.spec()),
            }
            let image = fab.snapshot().unwrap();
            let (t, _, total) = Fabric::<Diffuser>::snapshot_summary(&image).unwrap();
            assert_eq!((t, total), (3, loads.iter().sum::<u64>()));

            // Resume into fresh nodes; continue with the *parallel* driver
            // to cross executors mid-run.
            let fresh = Diffuser::fleet(&loads, &topo);
            let mut resumed =
                Fabric::resume(topo.clone(), fresh, EngineConfig::default(), &image).unwrap();
            let finished = resumed.par_run(2).unwrap();
            assert_eq!(uninterrupted, finished, "{}", topo.spec());
        }
    }

    #[test]
    fn snapshot_rejects_wrong_topology_and_ring_version() {
        let topo: AnyTopology = "torus:3x4".parse().unwrap();
        let loads = skewed_loads(topo.len());
        let nodes = Diffuser::fleet(&loads, &topo);
        let mut fab = Fabric::new(topo.clone(), nodes, loads.iter().sum(), full_cfg(None));
        fab.run_until(1).unwrap();
        let image = fab.snapshot().unwrap();

        let other: AnyTopology = "torus:4x3".parse().unwrap();
        let fresh = Diffuser::fleet(&skewed_loads(other.len()), &other);
        let err = Fabric::resume(other, fresh, EngineConfig::default(), &image).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err:?}");

        // A ring snapshot (version 1) must be refused by the fabric
        // reader, and a fabric image by the ring reader.
        let ring_reader = crate::checkpoint::Snapshot::from_bytes(&image).unwrap_err();
        assert_eq!(
            ring_reader,
            CheckpointError::BadVersion {
                found: FABRIC_SNAPSHOT_VERSION
            }
        );
    }

    /// A local-drain ring policy for the lift test.
    struct Drain {
        remaining: u64,
    }

    #[derive(Debug, Clone)]
    enum NoMsg {}

    impl Payload for NoMsg {
        fn job_units(&self) -> u64 {
            match *self {}
        }
    }

    impl Node for Drain {
        type Msg = NoMsg;

        fn on_step(&mut self, _ctx: &NodeCtx, _io: &mut StepIo<'_, NoMsg>) -> u64 {
            if self.remaining > 0 {
                self.remaining -= 1;
                1
            } else {
                0
            }
        }

        fn pending_work(&self) -> u64 {
            self.remaining
        }
    }

    #[test]
    fn ring_lift_matches_the_ring_engine_on_a_local_drain() {
        let loads = [4u64, 0, 2, 7, 1];
        let cfg = EngineConfig {
            trace: TraceLevel::Full,
            ..EngineConfig::default()
        };
        let ring_nodes: Vec<Drain> = loads.iter().map(|&x| Drain { remaining: x }).collect();
        let ring = crate::engine::Engine::new(ring_nodes, loads.iter().sum(), cfg.clone())
            .run()
            .unwrap();

        let topo: AnyTopology = "ring:5".parse().unwrap();
        let lifted: Vec<RingLift<Drain>> = loads
            .iter()
            .map(|&x| RingLift::new(Drain { remaining: x }))
            .collect();
        let fab = Fabric::new(topo, lifted, loads.iter().sum(), cfg)
            .run()
            .unwrap();

        assert_eq!(ring.makespan, fab.makespan);
        assert_eq!(ring.metrics, fab.metrics);
        // A send-free drain produces only Processed events, which the two
        // engines spell identically.
        assert_eq!(ring.trace.events(), fab.trace.events());
    }

    #[test]
    fn outbox_rejects_out_of_range_ports() {
        let topo: AnyTopology = "ring:3".parse().unwrap();
        struct Rogue;
        impl FabricNode for Rogue {
            type Msg = Gossip;
            fn on_step(
                &mut self,
                _ctx: &FabricCtx<'_>,
                _inbox: &mut Vec<(usize, Gossip)>,
                out: &mut FabricOutbox<'_, Gossip>,
            ) -> u64 {
                out.push(2, Gossip::Load(0)); // rings only have ports 0/1
                0
            }
            fn pending_work(&self) -> u64 {
                1
            }
        }
        let mut fab = Fabric::new(topo, vec![Rogue, Rogue, Rogue], 3, EngineConfig::default());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fab.run()));
        assert!(err.is_err());
    }
}
