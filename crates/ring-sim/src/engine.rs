//! The synchronous ring execution engine.
//!
//! The engine owns one [`Node`] per processor and advances global time in
//! lock-step rounds. In round `t` every node, in parallel (round-delayed
//! message delivery makes node evaluation order unobservable):
//!
//! 1. receives the messages its two neighbors sent in round `t - 1`,
//! 2. performs one step of its local policy, possibly processing one unit of
//!    work and emitting messages to either neighbor.
//!
//! This is exactly the machine model of §2 of the paper: "In one unit of
//! time … each processor can receive some jobs from each neighbor, send some
//! jobs to each neighbor, and process one unit of work. If a processor sends
//! a job to a neighbor at time t, the neighbor receives the job at time
//! t + 1."
//!
//! The engine enforces the model: it errors if a node processes more than
//! one unit per step, and (with [`LinkCapacity::UnitJobs`], the §7 model) if
//! a node sends more than one job or more than two messages over one link in
//! one step. It also verifies global work conservation at termination.
//!
//! ## Message arenas
//!
//! Messages live in two double-buffered arenas per direction: `cur` holds
//! what was sent last round (this round's inboxes), `next` collects what is
//! sent this round. Policies *drain* their [`Inbox`] (borrowed from `cur`)
//! and push through an [`Outbox`] that writes straight into the receiving
//! node's `next` vector, so the steady-state inner loop moves messages
//! without allocating: all vectors retain their high-water-mark capacity and
//! the buffers swap roles at the end of each round.
//!
//! ## Executor
//!
//! [`Engine::run`] steps the nodes that have mail, hold work or have not
//! promised to be inert — its active-node frontier — in index order on one
//! thread, so a round costs O(active), not O(m). [`Engine::par_run`] is the
//! same loop: a round does too little work to pay for synchronizing threads
//! (DESIGN.md §6).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::checkpoint::{self, CheckpointError, Decoder, Encoder, Persist, Snapshot, StagedBlob};
use crate::error::SimError;
use crate::fault::{FaultPlan, FaultTable, LinkState};
use crate::metrics::{Metrics, Observability, StepSample};
use crate::topology::{Direction, RingTopology};
use crate::trace::{DropKind, Event, Trace, TraceLevel};

/// Anything that can travel over a ring link.
///
/// The engine only needs to know how much *job payload* a message carries so
/// that it can meter link capacity and detect quiescence; the contents are
/// otherwise opaque policy data.
pub trait Payload {
    /// Units of job payload carried by this message (0 for pure control
    /// messages such as the load announcements of the §7 algorithm).
    fn job_units(&self) -> u64;

    /// How many *logical* messages this arena entry stands for.
    ///
    /// The engine's arenas store count-coalesced runs: one entry may
    /// represent `run_len()` identical unit messages (pushed via
    /// [`Outbox::push_n`]). Every meter the engine keeps — `messages_sent`,
    /// link-capacity enforcement, fault drop/delay/retry counters, the
    /// observability link series — counts `run_len()` logical messages per
    /// entry, so a run-coalesced stream reports *identically* to the same
    /// stream sent one unit message at a time. Defaults to 1 (an ordinary
    /// message stands for itself); bucket messages keep the default because
    /// a bucket is one logical message whatever its job count.
    fn run_len(&self) -> u64 {
        1
    }
}

/// A [`Payload`] that can absorb identical copies of itself into one
/// count-coalesced arena entry (the run-length message representation).
///
/// `coalesce(count)` must return a message equivalent to `count` copies of
/// `self` sent back-to-back: its [`Payload::job_units`] must be `count ×
/// self.job_units()` and its [`Payload::run_len`] must be `count ×
/// self.run_len()`. The engine relies on this to keep metrics, traces, and
/// observability bit-identical between the per-unit and coalesced
/// representations.
pub trait Coalesce: Payload + Sized {
    /// Folds `count` copies of `self` into one message.
    fn coalesce(self, count: u64) -> Self;
}

/// Messages delivered to a node at the start of a step, borrowed from the
/// engine's arenas by the side they arrived from.
///
/// Policies either drain the vectors (`drain(..)` keeps the buffer capacity
/// for the next round) or read them by reference; anything left over is
/// discarded by the engine when the step ends.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    /// Messages from the counterclockwise neighbor (`i - 1`), i.e. messages
    /// that were travelling clockwise.
    pub from_ccw: &'a mut Vec<M>,
    /// Messages from the clockwise neighbor (`i + 1`), i.e. messages that
    /// were travelling counterclockwise.
    pub from_cw: &'a mut Vec<M>,
}

impl<M> Inbox<'_, M> {
    /// True iff nothing arrived this step.
    pub fn is_empty(&self) -> bool {
        self.from_ccw.is_empty() && self.from_cw.is_empty()
    }
}

/// A node's outgoing channel for one step, writing directly into the
/// receiving nodes' arena buffers while metering message counts and job
/// payload per direction (the engine reads the meters for link-capacity
/// enforcement, metrics and tracing).
#[derive(Debug)]
pub struct Outbox<'a, M: Payload> {
    to_cw: &'a mut Vec<M>,
    to_ccw: &'a mut Vec<M>,
    cw_messages: u64,
    cw_payload: u64,
    ccw_messages: u64,
    ccw_payload: u64,
}

impl<M: Payload> Outbox<'_, M> {
    /// Appends a message in the given direction (delivered at `t + 1`).
    ///
    /// Meters [`Payload::run_len`] logical messages per call, so a
    /// count-coalesced entry is indistinguishable — in every counter the
    /// engine keeps — from the unit messages it stands for.
    pub fn push(&mut self, dir: Direction, msg: M) {
        let units = msg.job_units();
        let runs = msg.run_len();
        match dir {
            Direction::Cw => {
                self.cw_messages += runs;
                self.cw_payload += units;
                self.to_cw.push(msg);
            }
            Direction::Ccw => {
                self.ccw_messages += runs;
                self.ccw_payload += units;
                self.to_ccw.push(msg);
            }
        }
    }

    /// Appends `count` identical copies of `msg` as **one** count-coalesced
    /// arena entry (one slot whatever `count` is — the run-length message
    /// representation). A no-op when `count == 0`.
    pub fn push_n(&mut self, dir: Direction, msg: M, count: u64)
    where
        M: Coalesce,
    {
        if count == 0 {
            return;
        }
        self.push(dir, msg.coalesce(count));
    }

    /// True iff nothing was sent yet this step.
    pub fn is_empty(&self) -> bool {
        self.cw_messages == 0 && self.ccw_messages == 0
    }

    /// Messages pushed in the given direction this step.
    pub fn messages(&self, dir: Direction) -> u64 {
        match dir {
            Direction::Cw => self.cw_messages,
            Direction::Ccw => self.ccw_messages,
        }
    }

    /// Job payload pushed in the given direction this step.
    pub fn payload(&self, dir: Direction) -> u64 {
        match dir {
            Direction::Cw => self.cw_payload,
            Direction::Ccw => self.ccw_payload,
        }
    }
}

/// One audited drop-off decision by a scheduling policy: how much work a
/// node permanently accepted out of a bucket, together with the cumulative
/// ledgers that justified it under the paper's constraints.
///
/// Policies report these through [`Audit`]; the engine turns them into
/// [`Event::DroppedOff`] trace events that the [`crate::oracle`] re-checks
/// against I1/I2 (unit jobs) or A1/A2 (arbitrary sizes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropRecord {
    /// Identifier of the bucket the work came from.
    pub bucket: u64,
    /// Integral work units accepted.
    pub int: u64,
    /// Fractional (shadow) work accepted.
    pub frac: f64,
    /// Bucket-cumulative fractional drop *after* this event (the I1/A1
    /// reference level).
    pub cum_drop_frac: f64,
    /// Node-cumulative fractional acceptance *after* this event (the I2/A2
    /// reference level).
    pub cum_accept_frac: f64,
    /// Largest job size the bucket has seen (0 for unit jobs).
    pub p_max_bucket: u64,
    /// Largest job size the node has seen (0 for unit jobs).
    pub p_max_node: u64,
    /// Which invariant family governs this drop.
    pub kind: DropKind,
}

/// Where a node's [`DropRecord`]s go during one step: a borrowed sink when
/// the engine is recording a full trace, or nowhere ([`Audit::off`]) when it
/// is not — policies call [`Audit::record`] unconditionally and the sink
/// decides.
#[derive(Debug)]
pub struct Audit<'a> {
    sink: Option<&'a mut Vec<DropRecord>>,
}

impl<'a> Audit<'a> {
    /// An audit sink that discards everything (used when tracing is off and
    /// by executors that do not audit, such as `ring-net`'s).
    pub fn off() -> Self {
        Audit { sink: None }
    }

    /// An audit sink collecting into `sink`.
    pub fn to(sink: &'a mut Vec<DropRecord>) -> Self {
        Audit { sink: Some(sink) }
    }

    /// True iff records are being kept. Policies may skip building records
    /// when disabled, but [`Audit::record`] is always safe to call.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Reports one drop-off decision.
    #[inline]
    pub fn record(&mut self, rec: DropRecord) {
        if let Some(sink) = self.sink.as_mut() {
            sink.push(rec);
        }
    }
}

/// The borrowed I/O surface a node works through during one step: its
/// [`Inbox`], its [`Outbox`], and the [`Audit`] sink for drop-off records.
///
/// Constructed by the engine over its arenas; alternative executors (such
/// as the thread-per-processor one in `ring-net`) build it over their own
/// buffers via [`StepIo::new`].
#[derive(Debug)]
pub struct StepIo<'a, M: Payload> {
    /// Messages delivered this step.
    pub inbox: Inbox<'a, M>,
    /// Outgoing messages (delivered at `t + 1`).
    pub out: Outbox<'a, M>,
    /// Sink for drop-off audit records (discarding unless the engine is
    /// recording a full trace).
    pub audit: Audit<'a>,
}

impl<'a, M: Payload> StepIo<'a, M> {
    /// Builds a step I/O surface over caller-owned buffers: the two inbox
    /// vectors (messages that arrived from the counterclockwise and the
    /// clockwise neighbor) and the two destination vectors messages travel
    /// into (clockwise and counterclockwise). The audit sink starts
    /// [`Audit::off`].
    pub fn new(
        from_ccw: &'a mut Vec<M>,
        from_cw: &'a mut Vec<M>,
        to_cw: &'a mut Vec<M>,
        to_ccw: &'a mut Vec<M>,
    ) -> Self {
        StepIo {
            inbox: Inbox { from_ccw, from_cw },
            out: Outbox {
                to_cw,
                to_ccw,
                cw_messages: 0,
                cw_payload: 0,
                ccw_messages: 0,
                ccw_payload: 0,
            },
            audit: Audit::off(),
        }
    }
}

/// Read-only per-step context handed to a node.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx {
    /// This node's processor index.
    pub id: usize,
    /// The current step (starts at 0).
    pub t: u64,
    /// The ring the node lives on. Policies may use `topo.len()` (the ring
    /// size is public knowledge in the paper's model — e.g. the wrap-around
    /// rule of Lemma 5 needs it) but get no access to other nodes' state.
    pub topo: RingTopology,
}

/// A scheduling policy running on one processor.
///
/// Implementations hold all of the processor's local state: resident jobs,
/// bookkeeping about buckets passing through, neighbor load estimates, etc.
/// They communicate only through the engine-delivered messages, which is
/// what makes the algorithms genuinely distributed.
pub trait Node {
    /// Link message type.
    type Msg: Payload;

    /// Executes one synchronous step: consume the inbox (messages the
    /// neighbors sent in the previous step; empty at `t = 0`), optionally
    /// process one unit of resident work, and emit messages through
    /// `io.out`. Returns the units of work processed this step (the model
    /// allows at most 1).
    fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, Self::Msg>) -> u64;

    /// Units of unprocessed work currently resident on this node (not
    /// counting work in flight). Used for diagnostics and the observability
    /// backlog series; termination is detected by global work conservation.
    fn pending_work(&self) -> u64;

    /// Declares how far ahead this node's behavior is a pure drain — the
    /// contract behind quiescent-span step compression
    /// ([`EngineConfig::compress`]).
    ///
    /// Returning `Some(Quiescence { span, backlog })` at time `now`
    /// promises that, **given empty inboxes for every round in
    /// `now..now + span`**, for each such round `now + j` the node:
    ///
    /// - sends nothing and audits nothing,
    /// - processes exactly one unit iff `j < backlog`,
    /// - reports `pending_work()` after the round equal to its value before
    ///   the span minus `min(backlog, j + 1)`.
    ///
    /// The engine only fast-forwards when *every* node is quiescent and no
    /// messages are in flight or queued, and the sequential executor skips
    /// a single node on the promise only until a neighbor sends to it, so
    /// the empty-inbox premise holds by construction. Returning `None` (the
    /// default) opts the node out and is always safe.
    fn quiescence(&self, now: u64) -> Option<Quiescence> {
        let _ = now;
        None
    }

    /// Advances the node's internal state by `steps` quiescent rounds, as
    /// if [`Node::on_step`] had been called that many times with empty
    /// inboxes. Called by the engine only after [`Node::quiescence`]
    /// returned a span of at least `steps`; the default (for nodes that
    /// never report quiescence) is unreachable and does nothing.
    fn fast_forward(&mut self, steps: u64) {
        let _ = steps;
    }

    /// Serializes this node's complete policy state into a checkpoint
    /// ([`Engine::on_checkpoint`]). The round-trip contract is bit-exactness:
    /// after [`Node::restore_state`] on a freshly constructed node of the
    /// same configuration, every subsequent step must behave identically —
    /// including `f64` bookkeeping, which must travel as bit patterns
    /// ([`Encoder::f64`]).
    ///
    /// The default refuses ([`CheckpointError::Unsupported`]); nodes opt in.
    /// Plain runs never call this, so opting out costs nothing.
    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        let _ = enc;
        Err(CheckpointError::Unsupported(
            "node type does not implement save_state",
        ))
    }

    /// Restores the state written by [`Node::save_state`] into `self` (a
    /// freshly constructed node of the same configuration), consuming
    /// exactly the bytes that were written. See [`Engine::resume`].
    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        let _ = dec;
        Err(CheckpointError::Unsupported(
            "node type does not implement restore_state",
        ))
    }
}

/// A node's self-reported quiescence window: see [`Node::quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quiescence {
    /// Number of upcoming rounds (starting at `now`) during which, absent
    /// incoming messages, the node will not send, drop, or change behavior
    /// other than draining its backlog. `u64::MAX` means "indefinitely".
    pub span: u64,
    /// Units of resident work the node will process during the window, one
    /// per round, starting immediately.
    pub backlog: u64,
}

/// Per-link-per-direction-per-step capacity constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkCapacity {
    /// No bound — the model of §2–§6 ("no bounds on the capacity of each
    /// network link", following Awerbuch–Kutten–Peleg).
    Unbounded,
    /// The §7 model: at most one job and one control message per link
    /// direction per step. The paper notes its Figure 1 algorithm briefly
    /// uses two messages per link per step and that this is "not hard to
    /// reduce to one"; we therefore allow at most 2 messages of which at
    /// most one carries job payload.
    UnitJobs,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard step budget; the run errors if exceeded. `None` derives a
    /// generous default from the instance (`4·(n + m) + 64`, widened by
    /// twice the fault-plan horizon when one is set), which is far above
    /// any constant-factor-approximate schedule.
    pub max_steps: Option<u64>,
    /// Link model.
    pub link_capacity: LinkCapacity,
    /// Event recording level.
    pub trace: TraceLevel,
    /// Collect the per-step [`Observability`] time series (off by default:
    /// it costs one `pending_work` call and a payload sum per node per
    /// step).
    pub observe: bool,
    /// Deterministic fault schedule (`None` injects nothing and keeps the
    /// zero-overhead fast path; `Some` of an empty plan takes the fault
    /// path but produces bit-identical results to `None`).
    pub faults: Option<FaultPlan>,
    /// Quiescent-span step compression: when every node reports (via
    /// [`Node::quiescence`]) that its next state-changing event is `k ≥ 2`
    /// rounds away, no messages are in flight, and the fault plan is
    /// exhausted, the engine fast-forwards the span analytically instead of
    /// looping. Metrics, trace, and observability record the expanded
    /// per-step view, so the [`RunReport`] is bit-for-bit identical to the
    /// uncompressed run (asserted by the workspace's equivalence proptests).
    /// Off by default.
    pub compress: bool,
    /// Snapshot cadence: request a checkpoint at every step boundary `t`
    /// divisible by this value (and after the resume point). Only effective
    /// once a sink is installed via [`Engine::on_checkpoint`]; with the
    /// cadence set, quiescent-span compression caps its spans so fast-
    /// forwarding always lands exactly on the next boundary (the split is
    /// unobservable in the report — see DESIGN.md §11). `None` (default)
    /// never checkpoints.
    pub checkpoint_every: Option<u64>,
    /// Free-form metadata embedded in every snapshot ([`Snapshot::app_meta`]).
    /// The engine never interprets it; the CLI stores the flags needed to
    /// rebuild the policy nodes at resume time.
    pub checkpoint_meta: String,
    /// Inert: the ring engine has one executor and reads no window.
    /// Removed with the next `benchmark` PR, which is the last user.
    pub window: Option<u64>,
    /// The [`crate::Fabric`] round pool's knobs (see [`ParConfig`]); the
    /// ring engine reads none of them.
    pub par: ParConfig,
}

/// Inert: nothing reads it. Kept only because `benchmark/` still names
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParStrategy {
    /// Ignored since PR 15; removed with the next `benchmark` PR.
    Static,
    /// Ignored since PR 15; removed with the next `benchmark` PR.
    Steal,
}

/// Tuning for [`crate::Fabric::par_run`]'s round pool. An unset field
/// takes its built-in default; none of them can change a report byte. The
/// ring engine reads none of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParConfig {
    /// Ignored since PR 15; removed with the next `benchmark` PR.
    pub strategy: Option<ParStrategy>,
    /// Ignored since PR 15; removed with the next `benchmark` PR.
    pub rebalance: Option<bool>,
    /// Inert: nothing reads it since the ring task pool went; removed
    /// with the next `benchmark` PR.
    pub tasks_per_shard: Option<usize>,
    /// Seed perturbing the steal order (which end of the task queue each
    /// worker pops). Reports are schedule-independent, so this is purely an
    /// adversarial-testing knob. Defaults to 0.
    pub steal_seed: Option<u64>,
    /// Worker threads for one round's pool. Defaults to
    /// `min(shards, available cores)` — workers beyond the core count only
    /// add scheduling churn, never throughput. Setting this forces a
    /// count, which is how the equivalence batteries exercise
    /// oversubscribed interleavings on small runners; reports are
    /// schedule-independent either way.
    pub threads: Option<usize>,
}

impl ParConfig {
    /// Steal-order seed (default 0).
    pub fn resolved_steal_seed(&self) -> u64 {
        self.steal_seed.unwrap_or(0)
    }

    /// Worker-thread cap for one round's pool, clamped to `>= 1`; `None`
    /// means "fit the machine" (cap at the available cores).
    pub fn resolved_threads(&self) -> Option<usize> {
        self.threads.map(|n| n.max(1))
    }
}

impl EngineConfig {
    /// Builder-style setter for [`EngineConfig::checkpoint_every`].
    ///
    /// # Panics
    ///
    /// Panics if `every == 0` (a zero cadence is meaningless).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.checkpoint_every = Some(every);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_steps: None,
            link_capacity: LinkCapacity::Unbounded,
            trace: TraceLevel::Off,
            observe: false,
            faults: None,
            compress: false,
            checkpoint_every: None,
            checkpoint_meta: String::new(),
            window: None,
            par: ParConfig::default(),
        }
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Schedule length: the time at which the last unit of work finished
    /// processing (work processed during step `t` completes at `t + 1`).
    /// Zero for an empty instance.
    pub makespan: u64,
    /// Aggregate counters.
    pub metrics: Metrics,
    /// Event log (empty unless [`TraceLevel::Full`]).
    pub trace: Trace,
    /// Per-step time series (`None` unless [`EngineConfig::observe`]).
    pub observability: Option<Observability>,
}

/// Outcome of a bounded engine span ([`Engine::run_span`] /
/// [`Engine::par_run_span`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Every unit of `total_work` has been processed; the engine is finished
    /// and must not be stepped again. Boxed: a [`RunReport`] dwarfs the
    /// `Paused` variant, and spans pause far more often than they finish.
    Done(Box<RunReport>),
    /// The engine reached the requested step boundary with work still
    /// outstanding. All loop-carried state (arenas, link queues, metrics,
    /// trace, observability) is retained in memory — exactly the state a
    /// checkpoint at this boundary would serialize — so the next
    /// `run_span`/`par_run_span`/`run`/`par_run` call continues
    /// bit-identically, and [`Engine::snapshot`] can persist it.
    Paused {
        /// The step boundary the engine paused at.
        t: u64,
        /// Cumulative units of work processed so far.
        processed: u64,
    },
}

/// What one node did in one metered step (internal).
struct NodeStep {
    work_done: u64,
    cw_messages: u64,
    cw_payload: u64,
    ccw_messages: u64,
    ccw_payload: u64,
}

impl NodeStep {
    /// The step of a node that did not run (stalled by a processor fault).
    fn idle() -> Self {
        NodeStep {
            work_done: 0,
            cw_messages: 0,
            cw_payload: 0,
            ccw_messages: 0,
            ccw_payload: 0,
        }
    }

    fn sent_payload(&self) -> u64 {
        self.cw_payload + self.ccw_payload
    }
}

/// A message staged on a faulty link, waiting to depart.
#[derive(Debug)]
pub(crate) struct Staged<M> {
    /// Earliest step the message may depart (push step + link delay).
    pub(crate) ready: u64,
    /// Failed departure attempts so far (drops and bandwidth refusals).
    pub(crate) attempts: u64,
    pub(crate) msg: M,
}

/// One node's per-direction link queue under fault injection. FIFO: faults
/// reorder nothing, they only hold messages back.
pub(crate) type LinkQueue<M> = VecDeque<Staged<M>>;

/// What actually left a node's link in one direction during one step, plus
/// the fault counters observed while draining the queue.
///
/// All counters are in *logical* messages ([`Payload::run_len`] per arena
/// entry), so per-unit and count-coalesced streams meter identically.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LinkDeparture {
    /// Logical messages that departed (delivered at `t + 1`).
    pub(crate) messages: u64,
    /// Job payload that departed.
    pub(crate) payload: u64,
    /// Queued logical messages refused because the link was dropping.
    pub(crate) dropped: u64,
    /// Queued logical messages held back by a delay epoch or bandwidth
    /// backlog.
    pub(crate) delayed: u64,
    /// Departed logical messages that had previously failed at least one
    /// attempt.
    pub(crate) retried: u64,
}

/// Drains one node's directed link for one step under a fault plan: newly
/// pushed messages enter the FIFO queue with their delay applied, then the
/// queue head departs into `dest` while the link is up and within its
/// bandwidth cap (head-of-line blocking keeps FIFO order), and everything
/// still eligible but held back is counted as dropped or delayed.
///
/// Pure in `(plan, node, dir, t)` and the queue state; the link's fault
/// state is read with one table lookup. With no active fault this moves
/// every staged message straight through — bit-identical to the
/// un-faulted engine.
pub(crate) fn transmit<M: Payload>(
    faults: &FaultTable,
    node: usize,
    dir: Direction,
    t: u64,
    staged: &mut Vec<M>,
    queue: &mut LinkQueue<M>,
    dest: &mut Vec<M>,
) -> LinkDeparture {
    let LinkState { down, delay, cap } = faults.link(node, dir, t);
    for msg in staged.drain(..) {
        queue.push_back(Staged {
            ready: t + delay,
            attempts: 0,
            msg,
        });
    }
    let mut dep = LinkDeparture::default();
    if !down {
        while let Some(head) = queue.front() {
            if head.ready > t {
                break;
            }
            let units = head.msg.job_units();
            if let Some(cap) = cap {
                if dep.payload + units > cap {
                    break;
                }
            }
            let head = queue.pop_front().expect("front was Some");
            let runs = head.msg.run_len();
            dep.messages += runs;
            dep.payload += units;
            if head.attempts > 0 {
                dep.retried += runs;
            }
            dest.push(head.msg);
        }
    }
    for entry in queue.iter_mut() {
        let runs = entry.msg.run_len();
        if entry.ready <= t {
            entry.attempts += 1;
            if down {
                dep.dropped += runs;
            } else {
                dep.delayed += runs;
            }
        } else {
            dep.delayed += runs;
        }
    }
    dep
}

/// Steps one node over the given buffers and enforces the per-node model
/// rules (unit speed, link capacity), leaving the inbox buffers empty.
#[allow(clippy::too_many_arguments)] // four directed buffers + ctx is the natural shape
fn drive_node<N: Node>(
    node: &mut N,
    ctx: &NodeCtx,
    from_ccw: &mut Vec<N::Msg>,
    from_cw: &mut Vec<N::Msg>,
    to_cw: &mut Vec<N::Msg>,
    to_ccw: &mut Vec<N::Msg>,
    link_capacity: LinkCapacity,
    audit: Option<&mut Vec<DropRecord>>,
) -> Result<NodeStep, SimError> {
    let mut io = StepIo::new(from_ccw, from_cw, to_cw, to_ccw);
    if let Some(sink) = audit {
        io.audit = Audit::to(sink);
    }
    let work_done = node.on_step(ctx, &mut io);
    let step = NodeStep {
        work_done,
        cw_messages: io.out.cw_messages,
        cw_payload: io.out.cw_payload,
        ccw_messages: io.out.ccw_messages,
        ccw_payload: io.out.ccw_payload,
    };
    // Anything the policy chose not to drain is gone; clearing (not
    // reallocating) keeps the arena capacity for the next round.
    from_ccw.clear();
    from_cw.clear();
    if step.work_done > 1 {
        return Err(SimError::Overwork {
            node: ctx.id,
            step: ctx.t,
            units: step.work_done,
        });
    }
    if link_capacity == LinkCapacity::UnitJobs {
        for (messages, payload) in [
            (step.cw_messages, step.cw_payload),
            (step.ccw_messages, step.ccw_payload),
        ] {
            if payload > 1 || messages > 2 {
                return Err(SimError::LinkCapacityExceeded {
                    node: ctx.id,
                    step: ctx.t,
                    job_units: payload,
                    messages: messages as usize,
                });
            }
        }
    }
    Ok(step)
}

fn payload_of<M: Payload>(msgs: &[M]) -> u64 {
    msgs.iter().map(Payload::job_units).sum()
}

/// The per-node fault state one step of [`step_node_and_links`] works
/// through: the run's fault table, the node's two directed link queues,
/// and the two staging buffers sends are metered out of (shared across
/// nodes — always drained within the step).
struct FaultLinks<'a, M> {
    table: &'a FaultTable,
    queue_cw: &'a mut LinkQueue<M>,
    queue_ccw: &'a mut LinkQueue<M>,
    stage_cw: &'a mut Vec<M>,
    stage_ccw: &'a mut Vec<M>,
}

/// Steps one node and drains its two directed links for one round — the
/// engine's per-node kernel.
///
/// Without fault state the node writes straight into the destination
/// arenas and the departures mirror its outbox meters; with fault state the
/// node stages its sends and [`transmit`] meters them onto the (possibly
/// degraded) links, which keep draining even while their owner is stalled.
#[allow(clippy::too_many_arguments)] // the four directed buffers + ctx is the natural shape
fn step_node_and_links<N: Node>(
    node: &mut N,
    ctx: &NodeCtx,
    from_ccw: &mut Vec<N::Msg>,
    from_cw: &mut Vec<N::Msg>,
    to_cw: &mut Vec<N::Msg>,
    to_ccw: &mut Vec<N::Msg>,
    link_capacity: LinkCapacity,
    audit: Option<&mut Vec<DropRecord>>,
    faults: Option<FaultLinks<'_, N::Msg>>,
) -> Result<(NodeStep, LinkDeparture, LinkDeparture), SimError> {
    match faults {
        Some(f) => {
            let step = if f.table.node_runs(ctx.id, ctx.t) {
                drive_node(
                    node,
                    ctx,
                    from_ccw,
                    from_cw,
                    f.stage_cw,
                    f.stage_ccw,
                    link_capacity,
                    audit,
                )?
            } else {
                NodeStep::idle()
            };
            // Links drain even while their owner is stalled.
            let dep_cw = transmit(
                f.table,
                ctx.id,
                Direction::Cw,
                ctx.t,
                f.stage_cw,
                f.queue_cw,
                to_cw,
            );
            let dep_ccw = transmit(
                f.table,
                ctx.id,
                Direction::Ccw,
                ctx.t,
                f.stage_ccw,
                f.queue_ccw,
                to_ccw,
            );
            Ok((step, dep_cw, dep_ccw))
        }
        None => {
            let step = drive_node(
                node,
                ctx,
                from_ccw,
                from_cw,
                to_cw,
                to_ccw,
                link_capacity,
                audit,
            )?;
            let dep_cw = LinkDeparture {
                messages: step.cw_messages,
                payload: step.cw_payload,
                ..LinkDeparture::default()
            };
            let dep_ccw = LinkDeparture {
                messages: step.ccw_messages,
                payload: step.ccw_payload,
                ..LinkDeparture::default()
            };
            Ok((step, dep_cw, dep_ccw))
        }
    }
}

/// Collects the quiescence declarations of every node into `backlogs`
/// (cleared first; one entry per node). Returns `(min_span, max_backlog)`,
/// or `None` if any node declines or reports a zero span — in which case
/// `backlogs` is meaningless.
fn ring_quiescence<N: Node>(nodes: &[N], now: u64, backlogs: &mut Vec<u64>) -> Option<(u64, u64)> {
    backlogs.clear();
    let mut min_span = u64::MAX;
    let mut max_backlog = 0u64;
    for n in nodes {
        let q = n.quiescence(now)?;
        if q.span == 0 {
            return None;
        }
        min_span = min_span.min(q.span);
        max_backlog = max_backlog.max(q.backlog);
        backlogs.push(q.backlog);
    }
    Some((min_span, max_backlog))
}

/// Number of rounds to fast-forward given the merged quiescence state and
/// the remaining step budget, or `None` when compression is not worth a
/// span (`k < 2`). Capping at `max_backlog` (when any node still holds
/// work) makes completion land exactly on the span's last round, so the
/// post-span conservation check observes the same states the per-round
/// loop would.
fn compression_k(min_span: u64, max_backlog: u64, budget: u64) -> Option<u64> {
    let mut k = min_span.min(budget);
    if max_backlog > 0 {
        k = k.min(max_backlog);
    }
    (k >= 2).then_some(k)
}

/// Emits the `Processed` events a compressed span would have recorded:
/// round-major, node-ascending — exactly the per-round loop's order (quiet
/// rounds carry no sends or drop-offs). Output-sensitive: total work is
/// O(events emitted).
fn synthesize_quiet_trace(t0: u64, k: u64, backlogs: &[u64], mut emit: impl FnMut(Event)) {
    let mut active: Vec<(usize, u64)> = backlogs
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b > 0)
        .map(|(i, &b)| (i, b.min(k)))
        .collect();
    for j in 0..k {
        if active.is_empty() {
            break;
        }
        for &(node, _) in &active {
            emit(Event::Processed {
                t: t0 + j,
                node,
                units: 1,
            });
        }
        active.retain(|&(_, b)| b > j + 1);
    }
}

/// Pushes the `k` per-step observability samples a compressed span would
/// have recorded. `p0[i]` is node `i`'s `pending_work()` entering the span
/// (capture it *before* fast-forwarding). Quiet rounds deliver, send, and
/// drop nothing, so every sample field except `t`, `processed`,
/// `max_pending`, and `total_pending` is zero; those follow from the
/// backlogs alone: in round `t0 + j` node `i` has processed
/// `min(b_i, j + 1)` units. Runs in O(m log m + k + events).
fn synthesize_quiet_samples(
    t0: u64,
    k: u64,
    p0: &[u64],
    backlogs: &[u64],
    samples: &mut Vec<StepSample>,
) {
    let m = p0.len();
    // Per-round processed counts c_j = #{i : b_i > j} via a difference
    // array over the span.
    let mut diff = vec![0i64; k as usize + 1];
    for &b in backlogs {
        let d = b.min(k);
        if d > 0 {
            diff[0] += 1;
            diff[d as usize] -= 1;
        }
    }
    // For max_pending: with τ = j + 1, node i reports p0_i − τ while still
    // draining (b_i ≥ τ) and the constant p0_i − b_i once done. Sweep nodes
    // in backlog order with a suffix max of p0 over the still-draining set.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_unstable_by_key(|&i| backlogs[i]);
    let mut suffix_max = vec![0u64; m + 1];
    for idx in (0..m).rev() {
        suffix_max[idx] = suffix_max[idx + 1].max(p0[order[idx]]);
    }
    let total0: u64 = p0.iter().sum();
    let mut done_max = 0u64;
    let mut ptr = 0usize;
    let mut active = 0i64;
    let mut cum_processed = 0u64;
    for j in 0..k {
        active += diff[j as usize];
        let c = active as u64;
        cum_processed += c;
        let tau = j + 1;
        while ptr < m && backlogs[order[ptr]] < tau {
            let i = order[ptr];
            done_max = done_max.max(p0[i].saturating_sub(backlogs[i]));
            ptr += 1;
        }
        samples.push(StepSample {
            t: t0 + j,
            processed: c,
            max_pending: done_max.max(suffix_max[ptr].saturating_sub(tau)),
            total_pending: total0 - cum_processed,
            ..StepSample::default()
        });
    }
}

/// `Frontier::parked_at` value of a node that is on the frontier.
const AWAKE: u64 = u64::MAX;

/// The executor's active-node frontier: the nodes a round has to
/// step. A node leaves it by *parking* — after a step it promises, through
/// [`Node::quiescence`], that while its inboxes stay empty it will only
/// drain its `backlog`, one unit per round (`span ≥ 1`) — and comes back
/// when a neighbor sends to it or the promise runs out. The rounds it
/// skipped are owed to it as one [`Node::fast_forward`] call, and the units
/// it drained meanwhile as one booking into the metrics, both paid before
/// its state is next stepped or observed. Stepping a listed node is always
/// legal; only skipping needs the promise, so stale entries are harmless.
///
/// The run's processed total must still be exact at the end of every round
/// (completion, the work-miscount check), so the frontier counts the
/// parked nodes draining in the current round and retires each from the
/// count at its drain end, without touching the node.
#[derive(Default)]
struct Frontier {
    /// Nodes stepped this round, ascending — the order the trace and the
    /// oracle rely on.
    active: Vec<u32>,
    /// Nodes listed for the next round, in listing order.
    next: Vec<u32>,
    /// Latest round each node was listed for (de-duplicates `next`; rounds
    /// only grow, so it is never reset).
    listed_for: Vec<u64>,
    /// First round each parked node was not stepped, [`AWAKE`] otherwise.
    parked_at: Vec<u64>,
    /// First round in which the node's latest park no longer drains:
    /// `parked_at + backlog` as promised, `u64::MAX` if that overflows
    /// (never within a run), `parked_at` for an idle park. Kept past a
    /// wake, so that while it lies ahead `drains` holds it for the node.
    drain_end: Vec<u64>,
    /// `(wake round, node)` of parked nodes whose promise is finite.
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    /// `(drain end, node)` of parked drainers. An entry is stale once its
    /// node woke or re-parked with another end; [`Frontier::turn`] skips
    /// those by checking `parked_at` and `drain_end`.
    drains: BinaryHeap<Reverse<(u64, u32)>>,
    /// Parked nodes processing a unit in the round being swept.
    draining: u64,
    /// Drainers parked during the round being swept; they start draining
    /// in the next one.
    fresh: u64,
}

impl Frontier {
    /// Puts all `m` nodes on the frontier with nothing owed.
    fn seed(&mut self, m: usize) {
        let m32 = u32::try_from(m).expect("ring size fits the frontier's u32 node ids");
        self.active.clear();
        self.active.extend(0..m32);
        self.next.clear();
        self.next.reserve(m);
        self.listed_for.resize(m, 0);
        self.parked_at.clear();
        self.parked_at.resize(m, AWAKE);
        self.drain_end.clear();
        self.drain_end.resize(m, 0);
        self.wake.clear();
        self.drains.clear();
        self.draining = 0;
        self.fresh = 0;
    }

    /// Lists node `i` for `round` (the one after the round being swept).
    fn list(&mut self, i: usize, round: u64) {
        if self.listed_for[i] != round {
            self.listed_for[i] = round;
            self.next.push(i as u32);
        }
    }

    /// Parks node `i`: `round` is the first it will not be stepped in, `q`
    /// its promise from there.
    fn park(&mut self, i: usize, round: u64, q: Quiescence) {
        self.parked_at[i] = round;
        if let Some(wake) = round.checked_add(q.span) {
            self.wake.push(Reverse((wake, i as u32)));
        }
        // An end past `u64::MAX` saturates to it: never within this run.
        let end = round.saturating_add(q.backlog);
        if end > round {
            self.fresh += 1;
            // An equal `drain_end` still ahead is already on the heap: a
            // node woken by mail it merely passes on re-parks with the
            // same end every round.
            if end != u64::MAX && end != self.drain_end[i] {
                if self.drains.len() >= 2 * self.drain_end.len() + 64 {
                    self.compact_drains();
                }
                self.drains.push(Reverse((end, i as u32)));
            }
        }
        self.drain_end[i] = end;
    }

    /// Drops the stale entries of `drains`, leaving at most one per node.
    fn compact_drains(&mut self) {
        let drain_end = &self.drain_end;
        let mut live = std::mem::take(&mut self.drains).into_vec();
        live.retain(|&Reverse((end, i))| drain_end[i as usize] == end);
        live.sort_unstable();
        live.dedup();
        self.drains = live.into();
    }

    /// Books the units a parked node drained in rounds `since..to`.
    fn book(metrics: &mut Metrics, i: usize, since: u64, to: u64) {
        if to > since {
            let d = to - since;
            metrics.processed_per_node[i] += d;
            metrics.busy_steps_per_node[i] += d;
            metrics.last_busy_step = metrics.last_busy_step.max(Some(to - 1));
        }
    }

    /// Pays node `i` the rounds it skipped before `t` and wakes it.
    fn settle<N: Node>(&mut self, i: usize, t: u64, node: &mut N, metrics: &mut Metrics) {
        let since = std::mem::replace(&mut self.parked_at[i], AWAKE);
        if since < t {
            node.fast_forward(t - since);
        }
        let end = self.drain_end[i];
        if end > since {
            Self::book(metrics, i, since, end.min(t));
            if end > t {
                self.draining -= 1;
            }
        }
    }

    /// Pays every parked node the rounds it skipped before `t`, leaving it
    /// parked: afterwards node state and metrics are exactly the full
    /// sweep's.
    fn settle_all<N: Node>(&mut self, t: u64, nodes: &mut [N], metrics: &mut Metrics) {
        for (i, node) in nodes.iter_mut().enumerate() {
            let since = self.parked_at[i];
            if since < t {
                node.fast_forward(t - since);
                Self::book(metrics, i, since, self.drain_end[i].min(t));
                self.parked_at[i] = t;
            }
        }
    }

    /// The earliest round after the current one in which a parked node
    /// wakes or stops draining (possibly a stale entry's, which is early).
    fn next_event(&self) -> u64 {
        let top = |heap: &BinaryHeap<Reverse<(u64, u32)>>| heap.peek().map_or(u64::MAX, |e| e.0 .0);
        top(&self.wake).min(top(&self.drains))
    }

    /// Turns the round: `next`, plus every parked node whose promise ends
    /// by `round`, becomes the ascending `active` list of `round`, and
    /// `draining` becomes the count of `round`.
    fn turn(&mut self, round: u64) {
        self.draining += std::mem::take(&mut self.fresh);
        while let Some(&Reverse((wake, i))) = self.wake.peek() {
            if wake > round {
                break;
            }
            self.wake.pop();
            self.list(i as usize, round);
        }
        // A node re-parked with an end it had pushed before has two equal
        // entries; they pop back to back and count once.
        let mut last = None;
        while let Some(&Reverse(entry)) = self.drains.peek() {
            if entry.0 > round {
                break;
            }
            self.drains.pop();
            let (end, i) = (entry.0, entry.1 as usize);
            if last != Some(entry) && self.drain_end[i] == end && self.parked_at[i] < end {
                self.draining -= 1;
            }
            last = Some(entry);
        }
        std::mem::swap(&mut self.active, &mut self.next);
        self.next.clear();
        // Listing order is ascending except around the wrap and the wake
        // heap, so most rounds skip the sort.
        if !self.active.windows(2).all(|w| w[0] < w[1]) {
            self.active.sort_unstable();
        }
    }
}

/// Buffers the executor hands back at a pause so the next span
/// reuses them instead of reallocating: the `next` arenas (empty at every
/// step boundary, inner capacities kept) and the frontier's vectors. It
/// carries capacity, never state — every span re-seeds the frontier.
struct Scratch<M> {
    next_cw: Vec<Vec<M>>,
    next_ccw: Vec<Vec<M>>,
    frontier: Frontier,
}

impl<M> Default for Scratch<M> {
    fn default() -> Self {
        Scratch {
            next_cw: Vec::new(),
            next_ccw: Vec::new(),
            frontier: Frontier::default(),
        }
    }
}

/// The snapshot-sink callback installed by [`Engine::on_checkpoint`].
type SnapshotSink = dyn FnMut(&Snapshot) -> Result<(), CheckpointError> + Send;

/// The installed checkpoint hook: a monomorphized message serializer
/// (captured as a plain fn pointer so [`Node::Msg`]`: Persist` is required
/// only at installation, never on plain runs) plus the snapshot sink.
struct CheckpointHook<M> {
    save_msg: fn(&M, &mut Encoder),
    sink: Box<SnapshotSink>,
}

/// Mid-run state decoded from a [`Snapshot`], consumed by the next
/// [`Engine::run`] call in place of the fresh-start initialization.
struct ResumeState<M> {
    t0: u64,
    prev_round_departed: u64,
    cur_cw: Vec<Vec<M>>,
    cur_ccw: Vec<Vec<M>>,
    queue_cw: Vec<LinkQueue<M>>,
    queue_ccw: Vec<LinkQueue<M>>,
    metrics: Metrics,
    trace: Trace,
    obs: Option<Observability>,
    /// Boxed to keep a pause small; `None` after [`Engine::resume`].
    scratch: Option<Box<Scratch<M>>>,
}

/// The synchronous executor.
pub struct Engine<N: Node> {
    topo: RingTopology,
    nodes: Vec<N>,
    total_work: u64,
    config: EngineConfig,
    checkpoint: Option<CheckpointHook<N::Msg>>,
    resume: Option<ResumeState<N::Msg>>,
    /// Set when a run completed (a [`RunReport`] was produced): the nodes
    /// are drained and the loop-carried state is gone, so stepping or
    /// snapshotting again would silently fabricate a fresh-start image.
    finished: bool,
}

impl<N: Node> Engine<N> {
    /// Creates an engine over one node per processor.
    ///
    /// `total_work` is the number of work units the nodes collectively hold;
    /// the run terminates when exactly this much has been processed.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<N>, total_work: u64, config: EngineConfig) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let topo = RingTopology::new(nodes.len());
        Engine {
            topo,
            nodes,
            total_work,
            config,
            checkpoint: None,
            resume: None,
            finished: false,
        }
    }

    /// Installs a checkpoint sink. Together with
    /// [`EngineConfig::checkpoint_every`], this makes [`Engine::run`] hand a
    /// canonical [`Snapshot`] to `sink` at every cadence boundary; a sink
    /// error aborts the run with [`SimError::Checkpoint`] rather than
    /// continue past a missing snapshot.
    pub fn on_checkpoint<F>(&mut self, sink: F) -> &mut Self
    where
        N::Msg: Persist,
        F: FnMut(&Snapshot) -> Result<(), CheckpointError> + Send + 'static,
    {
        fn save_via_persist<M: Persist>(msg: &M, enc: &mut Encoder) {
            msg.save(enc);
        }
        self.checkpoint = Some(CheckpointHook {
            save_msg: save_via_persist::<N::Msg>,
            sink: Box::new(sink),
        });
        self
    }

    /// Reconstructs an engine mid-run from a [`Snapshot`].
    ///
    /// `nodes` must be freshly constructed with the same configuration as
    /// the interrupted run (the CLI rebuilds them from
    /// [`Snapshot::app_meta`]); their mutable state is overwritten via
    /// [`Node::restore_state`]. The snapshot is self-describing for
    /// everything that must match bit-for-bit — trace level, observability,
    /// and the fault plan are taken from it, overriding `config` — while
    /// executor-only choices (`max_steps`, `compress`, `link_capacity`,
    /// `checkpoint_every`) stay with the caller.
    ///
    /// The subsequent [`Engine::run`] continues from step [`Snapshot::t`]
    /// and returns a [`RunReport`] **bit-for-bit identical** to the
    /// uninterrupted run's.
    pub fn resume(
        nodes: Vec<N>,
        config: EngineConfig,
        snap: &Snapshot,
    ) -> Result<Self, CheckpointError>
    where
        N::Msg: Persist,
    {
        let m = snap.m;
        if nodes.len() != m {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot is for a {m}-node ring, got {} nodes",
                nodes.len()
            )));
        }
        if snap.nodes.len() != m
            || snap.arena_cw.len() != m
            || snap.arena_ccw.len() != m
            || snap.queue_cw.len() != m
            || snap.queue_ccw.len() != m
            || snap.metrics.processed_per_node.len() != m
            || snap.metrics.busy_steps_per_node.len() != m
        {
            return Err(CheckpointError::Corrupt(
                "snapshot vectors disagree with its ring size",
            ));
        }
        if snap.processed >= snap.total_work {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot describes a finished run ({}/{} units processed)",
                snap.processed, snap.total_work
            )));
        }
        if snap.metrics.total_processed() != snap.processed || snap.metrics.steps != snap.t {
            return Err(CheckpointError::Corrupt(
                "snapshot metrics disagree with its header",
            ));
        }
        let mut nodes = nodes;
        for (node, blob) in nodes.iter_mut().zip(&snap.nodes) {
            let mut dec = Decoder::new(blob);
            node.restore_state(&mut dec)?;
            dec.finish()?;
        }
        let mut config = config;
        config.trace = snap.trace_level;
        config.observe = snap.observability.is_some();
        config.faults = snap.faults.clone();

        let mut cur_cw = Vec::with_capacity(m);
        for cell in &snap.arena_cw {
            cur_cw.push(checkpoint::load_msgs::<N::Msg>(cell)?);
        }
        let mut cur_ccw = Vec::with_capacity(m);
        for cell in &snap.arena_ccw {
            cur_ccw.push(checkpoint::load_msgs::<N::Msg>(cell)?);
        }
        let mut queue_cw: Vec<LinkQueue<N::Msg>> = Vec::new();
        let mut queue_ccw: Vec<LinkQueue<N::Msg>> = Vec::new();
        if config.faults.is_some() {
            for cell in &snap.queue_cw {
                queue_cw.push(load_link_queue::<N::Msg>(cell)?);
            }
            for cell in &snap.queue_ccw {
                queue_ccw.push(load_link_queue::<N::Msg>(cell)?);
            }
        } else if snap
            .queue_cw
            .iter()
            .chain(&snap.queue_ccw)
            .any(|cell| !cell.is_empty())
        {
            return Err(CheckpointError::Corrupt(
                "snapshot stages fault-queue messages but carries no fault plan",
            ));
        }

        let resume = ResumeState {
            t0: snap.t,
            prev_round_departed: snap.prev_round_departed,
            cur_cw,
            cur_ccw,
            queue_cw,
            queue_ccw,
            metrics: snap.metrics.clone(),
            trace: Trace::from_events(snap.trace_level, snap.events.clone()),
            obs: snap.observability.clone(),
            scratch: None,
        };
        Ok(Engine {
            topo: RingTopology::new(m),
            nodes,
            total_work: snap.total_work,
            config,
            checkpoint: None,
            resume: Some(resume),
            finished: false,
        })
    }

    /// Immutable access to the nodes (e.g. to inspect final policy state).
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Consumes the engine, returning the nodes (typically called after
    /// [`Engine::run`] to harvest per-node policy statistics).
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    fn max_steps(&self) -> u64 {
        self.config.max_steps.unwrap_or_else(|| {
            let base = 4 * (self.total_work + self.topo.len() as u64) + 64;
            // A fault plan can only slow things down while it is active, so
            // widen the default budget by a multiple of its horizon.
            let slack = self.config.faults.as_ref().map_or(0, |p| 2 * p.horizon());
            base + slack
        })
    }

    /// Replays the finished run through the [`crate::oracle`] and panics on
    /// any violation — every traced engine run in the test suite is checked
    /// (the `self-check` feature is enabled by the workspace's
    /// dev-dependencies, so `cargo test` exercises it while release builds
    /// stay clean).
    #[cfg(feature = "self-check")]
    fn self_check(&self, report: &RunReport) {
        if !matches!(self.config.trace, TraceLevel::Full) {
            return;
        }
        let violations =
            crate::oracle::check_report(report, self.topo.len(), self.config.faults.as_ref());
        assert!(
            violations.is_empty(),
            "oracle rejected an engine run: {violations:?}"
        );
    }

    #[cfg(not(feature = "self-check"))]
    #[inline]
    fn self_check(&self, _report: &RunReport) {}

    fn empty_report(&self) -> RunReport {
        let m = self.topo.len();
        RunReport {
            makespan: 0,
            metrics: Metrics::new(m),
            trace: Trace::new(self.config.trace),
            observability: self.config.observe.then(|| Observability::new(m)),
        }
    }

    /// Runs the simulation to completion on the calling thread.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        match self.run_bounded(None)? {
            SpanOutcome::Done(report) => Ok(*report),
            SpanOutcome::Paused { .. } => unreachable!("unbounded run cannot pause"),
        }
    }

    /// The step the engine will execute next: 0 for a fresh engine, the
    /// boundary step for one paused by [`Engine::run_span`] or reconstructed
    /// by [`Engine::resume`]. Meaningless after a run completed.
    pub fn t(&self) -> u64 {
        self.resume.as_ref().map_or(0, |r| r.t0)
    }

    /// Units of work processed so far (0 for a fresh engine; meaningful while
    /// paused or resumed, before the run completes).
    pub fn processed(&self) -> u64 {
        self.resume
            .as_ref()
            .map_or(0, |r| r.metrics.total_processed())
    }

    /// The total work the run terminates at (see [`Engine::add_work`]).
    pub fn total_work(&self) -> u64 {
        self.total_work
    }

    /// Mutable access to the nodes. Intended for callers driving the engine
    /// in bounded spans ([`Engine::run_span`]): between spans — i.e. while
    /// the engine is paused at a step boundary — a serving layer may fold
    /// newly admitted work into the policy nodes (e.g.
    /// `DynamicNode` arrival injection). Every unit of resident work added
    /// this way MUST be declared through [`Engine::add_work`], or the run
    /// will fail its conservation checks.
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Raises the termination target by `delta` units, matching work injected
    /// into the nodes between spans (see [`Engine::nodes_mut`]).
    pub fn add_work(&mut self, delta: u64) {
        self.total_work += delta;
    }

    /// Replaces the `app_meta` string recorded in subsequently produced
    /// snapshots (cadence checkpoints and [`Engine::snapshot`]). Long-lived
    /// callers use this to keep application bookkeeping current right
    /// before snapshotting at a drain boundary.
    pub fn set_checkpoint_meta(&mut self, meta: String) {
        self.config.checkpoint_meta = meta;
    }

    /// Serializes the engine's complete state at its current step boundary
    /// into a canonical [`Snapshot`] — the same bytes a cadence checkpoint
    /// there would produce ([`EngineConfig::checkpoint_every`]), so
    /// [`Engine::resume`] restores it bit-identically. Valid while the
    /// engine is paused ([`SpanOutcome::Paused`], or reconstructed by
    /// [`Engine::resume`] and not yet stepped) and on a fresh, never-run
    /// engine (the step-0 image). Fails with
    /// [`CheckpointError::Unsupported`] once a run has completed: the
    /// nodes are drained and there is no mid-run state left to save.
    pub fn snapshot(&self) -> Result<Snapshot, CheckpointError>
    where
        N::Msg: Persist,
    {
        fn save_via_persist<M: Persist>(msg: &M, enc: &mut Encoder) {
            msg.save(enc);
        }
        if self.finished {
            return Err(CheckpointError::Unsupported(
                "the run has completed; there is no mid-run state to snapshot",
            ));
        }
        let snap = |t0: u64,
                    prev: u64,
                    metrics: &Metrics,
                    events: &[Event],
                    obs: Option<&Observability>,
                    cur_cw: &[Vec<N::Msg>],
                    cur_ccw: &[Vec<N::Msg>],
                    queue_cw: &[LinkQueue<N::Msg>],
                    queue_ccw: &[LinkQueue<N::Msg>]| {
            build_snapshot(
                save_via_persist::<N::Msg>,
                &self.nodes,
                self.total_work,
                t0,
                prev,
                self.config.trace,
                self.config.faults.as_ref(),
                metrics,
                events,
                obs,
                cur_cw,
                cur_ccw,
                queue_cw,
                queue_ccw,
                &self.config.checkpoint_meta,
            )
        };
        match self.resume.as_ref() {
            Some(r) => snap(
                r.t0,
                r.prev_round_departed,
                &r.metrics,
                r.trace.events(),
                r.obs.as_ref(),
                &r.cur_cw,
                &r.cur_ccw,
                &r.queue_cw,
                &r.queue_ccw,
            ),
            None => {
                // Never stepped: the fresh-start image, mirroring what
                // `run_bounded` would initialize at t = 0.
                let m = self.topo.len();
                let qm = if self.config.faults.is_some() { m } else { 0 };
                let empty_cw: Vec<Vec<N::Msg>> = (0..m).map(|_| Vec::new()).collect();
                let empty_ccw: Vec<Vec<N::Msg>> = (0..m).map(|_| Vec::new()).collect();
                let queues_cw: Vec<LinkQueue<N::Msg>> = (0..qm).map(|_| VecDeque::new()).collect();
                let queues_ccw: Vec<LinkQueue<N::Msg>> = (0..qm).map(|_| VecDeque::new()).collect();
                let metrics = Metrics::new(m);
                let obs = self.config.observe.then(|| Observability::new(m));
                snap(
                    0,
                    0,
                    &metrics,
                    &[],
                    obs.as_ref(),
                    &empty_cw,
                    &empty_ccw,
                    &queues_cw,
                    &queues_ccw,
                )
            }
        }
    }

    /// Runs the simulation on the calling thread until either every unit of
    /// work is processed or step `pause_at` is reached, whichever comes
    /// first. On pause the engine retains its complete mid-run state in
    /// memory (the in-memory analogue of a checkpoint at that boundary) and
    /// the next `run_span`/`run` call continues from it — the eventual
    /// [`RunReport`] is **bit-for-bit identical** to an uninterrupted run,
    /// however many pauses were taken (asserted by the workspace's
    /// span-equivalence proptests). A `pause_at` at or before the current
    /// step pauses immediately without simulating.
    pub fn run_span(&mut self, pause_at: u64) -> Result<SpanOutcome, SimError> {
        if self.total_work == 0 {
            return Ok(SpanOutcome::Done(Box::new(self.empty_report())));
        }
        if pause_at <= self.t() {
            return Ok(SpanOutcome::Paused {
                t: self.t(),
                processed: self.processed(),
            });
        }
        self.run_bounded(Some(pause_at))
    }

    /// The executor behind [`Engine::run`] and [`Engine::run_span`].
    ///
    /// A round steps the [`Frontier`], not the ring: a node that promises
    /// (`quiescence(t + 1)` with `span ≥ 1`) to do nothing on empty inboxes
    /// but drain its backlog is parked until a neighbor sends to it or the
    /// promise ends, and is paid the skipped rounds with one `fast_forward`
    /// and the drained units with one booking when it wakes. Every parked
    /// debt is settled wherever node state becomes observable: a pause, a
    /// checkpoint, the compression vote, completion, the step-budget error.
    /// A round with nothing listed jumps to the next round in which anything
    /// can happen. A span starts with all `m` nodes listed, as does the
    /// round after a compressed span. Under a full trace (`Processed` events
    /// are recorded round by round) only idle nodes park. Under a fault
    /// plan (stalled owners, link queues that drain while the owner sleeps)
    /// or with `observe` on (every sample reads every node's
    /// `pending_work`) nobody parks and the same loop body sweeps all `m`
    /// nodes every round.
    fn run_bounded(&mut self, pause_at: Option<u64>) -> Result<SpanOutcome, SimError> {
        assert!(
            !self.finished,
            "engine already completed a run; construct a new one"
        );
        let m = self.topo.len();
        let max_steps = self.max_steps();

        if self.total_work == 0 {
            return Ok(SpanOutcome::Done(Box::new(self.empty_report())));
        }

        // Fault state: per-node per-direction link queues plus two scratch
        // buffers nodes stage their sends into before `transmit` meters them
        // onto the (possibly degraded) links. Allocated only when a plan is
        // set; without one the arenas are written directly. The plan's
        // per-step queries read a table laid out for this ring.
        let plan = self.config.faults.as_ref();
        let table = plan.map(|p| FaultTable::new(p, m));
        let qm = if plan.is_some() { m } else { 0 };

        // Double-buffered message arenas, indexed by *receiving* node:
        // `cur_cw[i]` holds clockwise-travelling messages node `i` receives
        // this round (sent by `i - 1` last round); `next_*` collect this
        // round's sends. The pairs swap roles each round; every vector keeps
        // its capacity, so the steady-state loop does not allocate. A resume
        // replaces the fresh-start state with the snapshot's mid-run image;
        // `next_*` are empty at every step boundary, so a paused engine
        // hands back the vectors themselves and anything else starts fresh.
        let resume = self.resume.take();
        let start_t = resume.as_ref().map_or(0, |r| r.t0);
        let (
            mut metrics,
            mut trace,
            mut obs,
            mut cur_cw,
            mut cur_ccw,
            mut queue_cw,
            mut queue_ccw,
            mut prev_round_departed,
            scratch,
        ) = match resume {
            Some(r) => (
                r.metrics,
                r.trace,
                r.obs,
                r.cur_cw,
                r.cur_ccw,
                r.queue_cw,
                r.queue_ccw,
                r.prev_round_departed,
                r.scratch,
            ),
            None => (
                Metrics::new(m),
                Trace::new(self.config.trace),
                self.config.observe.then(|| Observability::new(m)),
                (0..m).map(|_| Vec::new()).collect(),
                (0..m).map(|_| Vec::new()).collect(),
                (0..qm).map(|_| VecDeque::new()).collect(),
                (0..qm).map(|_| VecDeque::new()).collect(),
                0u64,
                None,
            ),
        };
        let Scratch {
            mut next_cw,
            mut next_ccw,
            mut frontier,
        } = scratch.map(|boxed| *boxed).unwrap_or_default();
        next_cw.resize_with(m, Vec::new);
        next_ccw.resize_with(m, Vec::new);
        // Nobody parks under a fault plan or with observability on: the
        // frontier then stays the whole ring, round after round.
        let parking = plan.is_none() && obs.is_none();
        let record_audit = matches!(self.config.trace, TraceLevel::Full);
        let park_drainers = parking && !record_audit;
        frontier.seed(m);
        let mut stage_cw: Vec<N::Msg> = Vec::new();
        let mut stage_ccw: Vec<N::Msg> = Vec::new();
        let mut audit_buf: Vec<DropRecord> = Vec::new();

        // Step-compression state: how many logical messages entered the
        // arenas last round (sends + stall carryovers; zero means every
        // inbox is empty this round), the first step at which the fault
        // plan is provably inert, and a reusable backlog scratch buffer.
        let compress = self.config.compress;
        let fault_horizon = plan.map_or(0, FaultPlan::horizon);
        let mut quiet_backlogs: Vec<u64> = Vec::new();

        // Checkpoints fire only when both a cadence and a sink are set.
        let cp_every = match (self.config.checkpoint_every, self.checkpoint.as_ref()) {
            (Some(k), Some(_)) => Some(k),
            _ => None,
        };

        let mut processed_total: u64 = metrics.total_processed();
        let mut t: u64 = start_t;
        loop {
            if t >= max_steps {
                frontier.settle_all(t, &mut self.nodes, &mut metrics);
                return Err(SimError::ExceededMaxSteps {
                    max_steps,
                    processed: processed_total,
                    total: self.total_work,
                });
            }

            // Span boundary: pack the loop-carried state back into the
            // engine (the in-memory analogue of the checkpoint below — the
            // loop state here *is* the step-`t` image) and hand control back
            // to the caller. Completion is checked at the end of round t-1,
            // so a finished run never pauses.
            if pause_at == Some(t) {
                frontier.settle_all(t, &mut self.nodes, &mut metrics);
                self.resume = Some(ResumeState {
                    t0: t,
                    prev_round_departed,
                    cur_cw,
                    cur_ccw,
                    queue_cw,
                    queue_ccw,
                    metrics,
                    trace,
                    obs,
                    scratch: Some(Box::new(Scratch {
                        next_cw,
                        next_ccw,
                        frontier,
                    })),
                });
                return Ok(SpanOutcome::Paused {
                    t,
                    processed: processed_total,
                });
            }

            // Checkpoint boundary: every state the loop carries is exactly
            // the step-`t` image here (next arenas empty, metrics.steps == t,
            // all trace events < t), so the snapshot is self-contained.
            if let Some(every) = cp_every {
                if t > start_t && t % every == 0 {
                    frontier.settle_all(t, &mut self.nodes, &mut metrics);
                    let hook = self.checkpoint.as_mut().expect("gated on hook presence");
                    let snap = build_snapshot(
                        hook.save_msg,
                        &self.nodes,
                        self.total_work,
                        t,
                        prev_round_departed,
                        self.config.trace,
                        plan,
                        &metrics,
                        trace.events(),
                        obs.as_ref(),
                        &cur_cw,
                        &cur_ccw,
                        &queue_cw,
                        &queue_ccw,
                        &self.config.checkpoint_meta,
                    );
                    let result = snap.and_then(|snap| (hook.sink)(&snap));
                    if let Err(error) = result {
                        return Err(SimError::Checkpoint { step: t, error });
                    }
                }
            }

            // Quiescent-span step compression: nothing in flight, no link
            // queue occupied, the fault plan exhausted, and every node
            // declaring its future a pure local drain — fast-forward the
            // span analytically while recording the expanded per-step view
            // (see DESIGN.md §10). The checks short-circuit, so the common
            // busy round pays one integer compare.
            if compress
                && prev_round_departed == 0
                && t >= fault_horizon
                && queue_cw.iter().all(VecDeque::is_empty)
                && queue_ccw.iter().all(VecDeque::is_empty)
            {
                // A compressed span must not jump over a checkpoint
                // boundary, so its budget is additionally capped at the
                // distance to the next one; a boundary landing inside a
                // quiescent span simply splits it, which the synthesized
                // trace/metrics make unobservable in the final report.
                let mut budget = max_steps - t;
                if let Some(every) = cp_every {
                    budget = budget.min(every - t % every);
                }
                if let Some(p) = pause_at {
                    // A quiet span must likewise land exactly on the pause
                    // boundary (p > t here: the pause check above returned).
                    budget = budget.min(p - t);
                }
                frontier.settle_all(t, &mut self.nodes, &mut metrics);
                if let Some(k) = ring_quiescence(&self.nodes, t, &mut quiet_backlogs)
                    .and_then(|(span, max_b)| compression_k(span, max_b, budget))
                {
                    let max_b = quiet_backlogs.iter().copied().max().unwrap_or(0);
                    if record_audit {
                        synthesize_quiet_trace(t, k, &quiet_backlogs, |e| trace.record(e));
                    }
                    if let Some(o) = obs.as_mut() {
                        let p0: Vec<u64> = self.nodes.iter().map(|n| n.pending_work()).collect();
                        synthesize_quiet_samples(t, k, &p0, &quiet_backlogs, &mut o.samples);
                    }
                    for (i, &b) in quiet_backlogs.iter().enumerate() {
                        let d = b.min(k);
                        if d > 0 {
                            metrics.processed_per_node[i] += d;
                            metrics.busy_steps_per_node[i] += d;
                            processed_total += d;
                        }
                    }
                    if max_b > 0 {
                        // k ≤ max_b, so the deepest node is busy in every
                        // compressed round, including the last.
                        metrics.last_busy_step = Some(t + k - 1);
                    }
                    for node in self.nodes.iter_mut() {
                        node.fast_forward(k);
                    }
                    frontier.seed(m);
                    t += k;
                    metrics.steps = t;
                    if processed_total > self.total_work {
                        return Err(SimError::WorkMiscount {
                            processed: processed_total,
                            total: self.total_work,
                        });
                    }
                    if processed_total == self.total_work {
                        debug_assert!(
                            self.nodes.iter().all(|n| n.pending_work() == 0),
                            "all work processed but a node still reports pending work"
                        );
                        let makespan = metrics.last_busy_step.expect("work was processed") + 1;
                        let report = RunReport {
                            makespan,
                            metrics,
                            trace,
                            observability: obs,
                        };
                        self.self_check(&report);
                        self.finished = true;
                        return Ok(SpanOutcome::Done(Box::new(report)));
                    }
                    continue;
                }
            }

            // With nothing listed there is nothing in flight either (every
            // sender lists its receivers), so until the next wake or drain
            // end only the parked drainers work: take those rounds at once,
            // stopping at the pause, the next checkpoint and the step budget
            // as a round-by-round loop would, and at the round the processed
            // total reaches the total work.
            let mut rounds = 1;
            if parking && frontier.active.is_empty() {
                let mut to = frontier.next_event().min(max_steps);
                if let Some(p) = pause_at {
                    to = to.min(p);
                }
                if let Some(boundary) = cp_every.and_then(|k| (t / k + 1).checked_mul(k)) {
                    to = to.min(boundary);
                }
                rounds = to - t;
                if frontier.draining > 0 {
                    let left = self.total_work - processed_total;
                    rounds = rounds.min(left.div_ceil(frontier.draining));
                }
                debug_assert!(rounds >= 1 && prev_round_departed == 0);
            }

            let mut round_departed: u64 = 0;

            // A stalled processor does not consume its inbox: carry the
            // undelivered messages over to its next step before anyone
            // writes this round's sends (so they stay in front). Only a
            // node with processor faults can stall.
            if let Some(table) = &table {
                for &i in table.stallable() {
                    if !table.node_runs(i, t) {
                        round_departed += (cur_cw[i].len() + cur_ccw[i].len()) as u64;
                        next_cw[i].append(&mut cur_cw[i]);
                        next_ccw[i].append(&mut cur_ccw[i]);
                    }
                }
            }

            let mut inflight_payload: u64 = 0;
            let mut sample = StepSample {
                t,
                ..StepSample::default()
            };
            for at in 0..frontier.active.len() {
                let i = frontier.active[at] as usize;
                if parking {
                    frontier.settle(i, t, &mut self.nodes[i], &mut metrics);
                }
                let ctx = NodeCtx {
                    id: i,
                    t,
                    topo: self.topo,
                };
                let delivered = if obs.is_some() {
                    payload_of(&cur_cw[i]) + payload_of(&cur_ccw[i])
                } else {
                    0
                };
                let dest_cw = self.topo.neighbor(i, Direction::Cw);
                let dest_ccw = self.topo.neighbor(i, Direction::Ccw);
                // The four arenas are distinct containers, so borrowing one
                // element of each is disjoint for every m (including the
                // self-delivery of a singleton ring). Staging through
                // `FaultLinks` keeps one writer per destination slot even
                // when a plan reroutes departures through link queues.
                let (step, dep_cw, dep_ccw) = {
                    let faults = table.as_ref().map(|table| FaultLinks {
                        table,
                        queue_cw: &mut queue_cw[i],
                        queue_ccw: &mut queue_ccw[i],
                        stage_cw: &mut stage_cw,
                        stage_ccw: &mut stage_ccw,
                    });
                    step_node_and_links(
                        &mut self.nodes[i],
                        &ctx,
                        &mut cur_cw[i],
                        &mut cur_ccw[i],
                        &mut next_cw[dest_cw],
                        &mut next_ccw[dest_ccw],
                        self.config.link_capacity,
                        record_audit.then_some(&mut audit_buf),
                        faults,
                    )?
                };

                round_departed += dep_cw.messages + dep_ccw.messages;

                // Per-cell event order: DroppedOff*, Processed, Sent cw,
                // Sent ccw (the oracle relies on it).
                for rec in audit_buf.drain(..) {
                    trace.record(Event::DroppedOff {
                        t,
                        node: i,
                        bucket: rec.bucket,
                        units: rec.int,
                        frac_bits: rec.frac.to_bits(),
                        cum_drop_frac_bits: rec.cum_drop_frac.to_bits(),
                        cum_accept_frac_bits: rec.cum_accept_frac.to_bits(),
                        p_max_bucket: rec.p_max_bucket,
                        p_max_node: rec.p_max_node,
                        kind: rec.kind,
                    });
                }
                if step.work_done > 0 {
                    processed_total += step.work_done;
                    metrics.processed_per_node[i] += step.work_done;
                    metrics.busy_steps_per_node[i] += 1;
                    metrics.last_busy_step = Some(t);
                    trace.record(Event::Processed {
                        t,
                        node: i,
                        units: step.work_done,
                    });
                }
                for (dir, dep) in [(Direction::Cw, dep_cw), (Direction::Ccw, dep_ccw)] {
                    metrics.messages_dropped += dep.dropped;
                    metrics.messages_delayed += dep.delayed;
                    metrics.messages_retried += dep.retried;
                    sample.link_dropped += dep.dropped;
                    sample.link_delayed += dep.delayed;
                    sample.link_retried += dep.retried;
                    if dep.messages == 0 {
                        continue;
                    }
                    metrics.messages_sent += dep.messages;
                    metrics.job_hops += dep.payload;
                    inflight_payload += dep.payload;
                    trace.record(Event::Sent {
                        t,
                        node: i,
                        dir,
                        job_units: dep.payload,
                    });
                }
                if let Some(o) = obs.as_mut() {
                    o.record_sends(
                        i,
                        dep_cw.messages,
                        dep_cw.payload,
                        dep_ccw.messages,
                        dep_ccw.payload,
                    );
                    // Drop-off is a *policy* notion (delivered payload the
                    // node chose to keep), so it is metered on what the node
                    // pushed, not on what the faulty link let through.
                    let dropped = delivered.saturating_sub(step.sent_payload());
                    o.dropoffs_per_node[i] += dropped;
                    let pending = self.nodes[i].pending_work();
                    sample.delivered_payload += delivered;
                    sample.sent_payload += dep_cw.payload + dep_ccw.payload;
                    sample.messages += dep_cw.messages + dep_ccw.messages;
                    sample.processed += step.work_done;
                    sample.dropped_off += dropped;
                    sample.max_pending = sample.max_pending.max(pending);
                    sample.total_pending += pending;
                }
                if parking {
                    // Listed counterclockwise neighbor first, clockwise last,
                    // so `next` comes out ascending away from the wrap.
                    if dep_ccw.messages > 0 {
                        frontier.list(dest_ccw, t + 1);
                    }
                    // A node its counterclockwise neighbor (stepped first)
                    // just sent to is stepped next round anyway, so it is
                    // kept without asking.
                    let promise = if frontier.listed_for[i] == t + 1 {
                        None
                    } else {
                        self.nodes[i].quiescence(t + 1)
                    };
                    match promise {
                        Some(q) if q.span >= 1 && (q.backlog == 0 || park_drainers) => {
                            frontier.park(i, t + 1, q)
                        }
                        _ => frontier.list(i, t + 1),
                    }
                    if dep_cw.messages > 0 {
                        frontier.list(dest_cw, t + 1);
                    }
                }
            }
            if parking {
                processed_total += frontier.draining * rounds;
                frontier.turn(t + rounds);
            }
            metrics.peak_inflight_jobs = metrics.peak_inflight_jobs.max(inflight_payload);
            if let Some(o) = obs.as_mut() {
                o.samples.push(sample);
            }

            std::mem::swap(&mut cur_cw, &mut next_cw);
            std::mem::swap(&mut cur_ccw, &mut next_ccw);
            // next_* now hold the cleared previous-round vectors.
            prev_round_departed = round_departed;

            t += rounds;
            metrics.steps = t;

            if processed_total > self.total_work {
                return Err(SimError::WorkMiscount {
                    processed: processed_total,
                    total: self.total_work,
                });
            }
            if processed_total == self.total_work {
                frontier.settle_all(t, &mut self.nodes, &mut metrics);
                debug_assert!(
                    self.nodes.iter().all(|n| n.pending_work() == 0),
                    "all work processed but a node still reports pending work"
                );
                let makespan = metrics.last_busy_step.expect("work was processed") + 1;
                let report = RunReport {
                    makespan,
                    metrics,
                    trace,
                    observability: obs,
                };
                self.self_check(&report);
                self.finished = true;
                return Ok(SpanOutcome::Done(Box::new(report)));
            }
        }
    }

    /// [`Engine::run`], under the name callers that ask for threads use.
    /// The ring has one executor, the active-node frontier: a round of the
    /// paper's model moves a few buckets and drains one job per loaded
    /// node, which is too little work to pay for synchronizing threads
    /// (DESIGN.md §6), so `shards` only has to be positive. The report,
    /// the checkpoints and the errors are [`Engine::run`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn par_run(&mut self, shards: usize) -> Result<RunReport, SimError> {
        assert!(shards > 0, "need at least one shard");
        self.run()
    }

    /// [`Engine::run_span`], under the name callers that ask for threads
    /// use; see [`Engine::par_run`].
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn par_run_span(&mut self, pause_at: u64, shards: usize) -> Result<SpanOutcome, SimError> {
        assert!(shards > 0, "need at least one shard");
        self.run_span(pause_at)
    }
}

/// Decodes one snapshot link queue back into the engine's staged form.
fn load_link_queue<M: Persist>(blobs: &[StagedBlob]) -> Result<LinkQueue<M>, CheckpointError> {
    Ok(checkpoint::load_queue::<M>(blobs)?
        .into_iter()
        .map(|(ready, attempts, msg)| Staged {
            ready,
            attempts,
            msg,
        })
        .collect())
}

/// Serializes the complete engine state at a step boundary into a canonical
/// [`Snapshot`]: the one `RINGSNAP` writer of the ring engine.
#[allow(clippy::too_many_arguments)]
fn build_snapshot<N: Node>(
    save_msg: fn(&N::Msg, &mut Encoder),
    nodes: &[N],
    total_work: u64,
    t: u64,
    prev_round_departed: u64,
    trace_level: TraceLevel,
    faults: Option<&FaultPlan>,
    metrics: &Metrics,
    events: &[Event],
    obs: Option<&Observability>,
    cur_cw: &[Vec<N::Msg>],
    cur_ccw: &[Vec<N::Msg>],
    queue_cw: &[LinkQueue<N::Msg>],
    queue_ccw: &[LinkQueue<N::Msg>],
    app_meta: &str,
) -> Result<Snapshot, CheckpointError> {
    let m = nodes.len();
    let mut node_blobs = Vec::with_capacity(m);
    for node in nodes {
        let mut enc = Encoder::new();
        node.save_state(&mut enc)?;
        node_blobs.push(enc.into_bytes());
    }
    let arena = |cells: &[Vec<N::Msg>]| -> Vec<Vec<Vec<u8>>> {
        cells
            .iter()
            .map(|cell| {
                cell.iter()
                    .map(|msg| checkpoint::save_msg_blob(save_msg, msg))
                    .collect()
            })
            .collect()
    };
    let queues = |queues: &[LinkQueue<N::Msg>]| -> Vec<Vec<StagedBlob>> {
        let mut out: Vec<Vec<StagedBlob>> = queues
            .iter()
            .map(|q| {
                q.iter()
                    .map(|s| StagedBlob {
                        ready: s.ready,
                        attempts: s.attempts,
                        msg: checkpoint::save_msg_blob(save_msg, &s.msg),
                    })
                    .collect()
            })
            .collect();
        // The fault-free path allocates no queues; the snapshot still
        // carries one (empty) entry per node so its shape is canonical.
        out.resize_with(m, Vec::new);
        out
    };
    Ok(Snapshot {
        m,
        total_work,
        t,
        processed: metrics.total_processed(),
        prev_round_departed,
        trace_level,
        faults: faults.cloned(),
        metrics: metrics.clone(),
        events: events.to_vec(),
        observability: obs.cloned(),
        nodes: node_blobs,
        arena_cw: arena(cur_cw),
        arena_ccw: arena(cur_ccw),
        queue_cw: queues(queue_cw),
        queue_ccw: queues(queue_ccw),
        app_meta: app_meta.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that just grinds through its local pile of unit jobs.
    struct LocalOnly {
        remaining: u64,
    }

    impl Node for LocalOnly {
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

    #[derive(Debug, Clone)]
    enum NoMsg {}

    impl Payload for NoMsg {
        fn job_units(&self) -> u64 {
            match *self {}
        }
    }

    /// A node that forwards all its jobs one hop clockwise each step and
    /// never processes — used to test the step budget.
    struct HotPotato {
        holding: u64,
    }

    #[derive(Debug, Clone)]
    struct Potato(u64);

    impl Payload for Potato {
        fn job_units(&self) -> u64 {
            self.0
        }
    }

    impl Node for HotPotato {
        type Msg = Potato;

        fn on_step(&mut self, _ctx: &NodeCtx, io: &mut StepIo<'_, Potato>) -> u64 {
            for p in io.inbox.from_ccw.drain(..) {
                self.holding += p.0;
            }
            if self.holding > 0 {
                io.out.push(Direction::Cw, Potato(self.holding));
                self.holding = 0;
            }
            0
        }

        fn pending_work(&self) -> u64 {
            self.holding
        }
    }

    #[test]
    fn local_only_makespan_is_max_load() {
        let nodes = vec![
            LocalOnly { remaining: 3 },
            LocalOnly { remaining: 7 },
            LocalOnly { remaining: 0 },
        ];
        let report = Engine::new(nodes, 10, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.makespan, 7);
        assert_eq!(report.metrics.total_processed(), 10);
        assert_eq!(report.metrics.processed_per_node, vec![3, 7, 0]);
        assert_eq!(report.metrics.messages_sent, 0);
    }

    #[test]
    fn empty_instance_has_zero_makespan() {
        let nodes = vec![LocalOnly { remaining: 0 }, LocalOnly { remaining: 0 }];
        let report = Engine::new(nodes, 0, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.makespan, 0);
        assert_eq!(report.metrics.steps, 0);
    }

    #[test]
    fn non_terminating_policy_hits_step_budget() {
        let nodes = vec![HotPotato { holding: 5 }, HotPotato { holding: 0 }];
        let config = EngineConfig {
            max_steps: Some(50),
            ..EngineConfig::default()
        };
        let err = Engine::new(nodes, 5, config).run().unwrap_err();
        assert!(matches!(err, SimError::ExceededMaxSteps { .. }));
    }

    /// A courier chain: node 0 hands a 5-unit parcel clockwise; nodes 1 and
    /// 2 relay it; node 3 keeps it and processes it. The parcel makes
    /// exactly 3 hops carrying 5 units, so `job_hops` — payload × hops, the
    /// paper's total communication cost — must be 15, from 3 messages.
    struct Courier {
        emit_at_start: bool,
        sink: bool,
        backlog: u64,
    }

    #[derive(Debug, Clone)]
    struct Parcel(u64);

    impl Payload for Parcel {
        fn job_units(&self) -> u64 {
            self.0
        }
    }

    impl Node for Courier {
        type Msg = Parcel;

        fn on_step(&mut self, _ctx: &NodeCtx, io: &mut StepIo<'_, Parcel>) -> u64 {
            if self.emit_at_start {
                self.emit_at_start = false;
                let units = std::mem::take(&mut self.backlog);
                io.out.push(Direction::Cw, Parcel(units));
                return 0;
            }
            for p in io.inbox.from_ccw.drain(..) {
                if self.sink {
                    self.backlog += p.0;
                } else {
                    io.out.push(Direction::Cw, p);
                }
            }
            if self.backlog > 0 {
                self.backlog -= 1;
                1
            } else {
                0
            }
        }

        fn pending_work(&self) -> u64 {
            self.backlog
        }
    }

    #[test]
    fn job_hops_count_payload_times_hops() {
        let nodes: Vec<Courier> = (0..6)
            .map(|i| Courier {
                emit_at_start: i == 0,
                sink: i == 3,
                backlog: if i == 0 { 5 } else { 0 },
            })
            .collect();
        let report = Engine::new(nodes, 5, EngineConfig::default())
            .run()
            .unwrap();
        // Hops at t = 0, 1, 2; arrival at node 3 at t = 3; five units
        // processed during steps 3..=7.
        assert_eq!(report.metrics.messages_sent, 3);
        assert_eq!(report.metrics.job_hops, 5 * 3);
        assert_eq!(report.metrics.peak_inflight_jobs, 5);
        assert_eq!(report.makespan, 8);
        assert_eq!(report.metrics.processed_per_node, vec![0, 0, 0, 5, 0, 0]);
    }

    #[test]
    fn unit_capacity_rejects_bulk_sends() {
        let nodes = vec![HotPotato { holding: 2 }, HotPotato { holding: 0 }];
        let config = EngineConfig {
            link_capacity: LinkCapacity::UnitJobs,
            ..EngineConfig::default()
        };
        let err = Engine::new(nodes, 2, config).run().unwrap_err();
        assert!(matches!(
            err,
            SimError::LinkCapacityExceeded { job_units: 2, .. }
        ));
    }

    /// A node that lies about its processing rate.
    struct Cheater;

    impl Node for Cheater {
        type Msg = NoMsg;

        fn on_step(&mut self, _ctx: &NodeCtx, _io: &mut StepIo<'_, NoMsg>) -> u64 {
            2
        }

        fn pending_work(&self) -> u64 {
            0
        }
    }

    #[test]
    fn overwork_is_rejected() {
        let err = Engine::new(vec![Cheater], 2, EngineConfig::default())
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Overwork { units: 2, .. }));
    }

    #[test]
    fn trace_records_processing_events() {
        let nodes = vec![LocalOnly { remaining: 2 }];
        let config = EngineConfig {
            trace: TraceLevel::Full,
            ..EngineConfig::default()
        };
        let report = Engine::new(nodes, 2, config).run().unwrap();
        assert_eq!(report.trace.total_processed(), 2);
        assert_eq!(report.trace.events().len(), 2);
    }

    #[test]
    fn observability_series_track_backlog_and_flow() {
        let nodes: Vec<Courier> = (0..6)
            .map(|i| Courier {
                emit_at_start: i == 0,
                sink: i == 3,
                backlog: if i == 0 { 5 } else { 0 },
            })
            .collect();
        let config = EngineConfig {
            observe: true,
            ..EngineConfig::default()
        };
        let report = Engine::new(nodes, 5, config).run().unwrap();
        let obs = report.observability.expect("observe was on");
        assert_eq!(obs.samples.len(), report.metrics.steps as usize);
        // While the parcel is in flight no node holds work; once the sink
        // keeps it, the end-of-step backlog series records 4, 3, 2, 1, 0
        // (pending is sampled after the step's unit of work is done).
        assert_eq!(
            obs.inflight_series(),
            vec![5, 5, 5, 0, 0, 0, 0, 0],
            "payload is in flight during the three hop rounds"
        );
        assert_eq!(obs.samples[3].dropped_off, 5, "the sink kept the parcel");
        assert_eq!(obs.samples[3].max_pending, 4);
        assert_eq!(obs.samples[7].max_pending, 0);
        assert_eq!(obs.dropoffs_per_node, vec![0, 0, 0, 5, 0, 0]);
        // Links 0, 1, 2 each carried one clockwise message; nothing else.
        assert_eq!(obs.links.cw_messages, vec![1, 1, 1, 0, 0, 0]);
        assert_eq!(obs.links.ccw_messages, vec![0; 6]);
        let json = obs.to_json();
        assert!(json.contains("\"num_processors\":6"));
    }

    /// Counts the rounds it lived through, stepped or fast-forwarded, and
    /// insists on having lived through all of them whenever it is stepped.
    struct Sleeper {
        ticks: u64,
        backlog: u64,
        /// Sends one empty potato clockwise in this round.
        send_at: Option<u64>,
    }

    impl Node for Sleeper {
        type Msg = Potato;

        fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, Potato>) -> u64 {
            assert_eq!(self.ticks, ctx.t, "node {} woke with rounds owed", ctx.id);
            self.ticks += 1;
            if self.send_at == Some(ctx.t) {
                io.out.push(Direction::Cw, Potato(0));
            }
            let work = self.backlog.min(1);
            self.backlog -= work;
            work
        }

        fn pending_work(&self) -> u64 {
            self.backlog
        }

        fn quiescence(&self, now: u64) -> Option<Quiescence> {
            let span = match self.send_at {
                Some(s) if s >= now => s - now,
                _ => u64::MAX,
            };
            Some(Quiescence {
                span,
                backlog: self.backlog,
            })
        }

        fn fast_forward(&mut self, steps: u64) {
            self.ticks += steps;
            self.backlog -= self.backlog.min(steps);
        }
    }

    #[test]
    fn parked_nodes_are_paid_every_round_they_skipped() {
        // Two piles, one of them outlasting a late sender (a finite promise
        // for the wake heap) whose potato wakes a parked neighbor.
        let ring = || -> Vec<Sleeper> {
            (0..9)
                .map(|i| Sleeper {
                    ticks: 0,
                    backlog: [7, 0, 0, 0, 40, 0, 0, 0, 0][i],
                    send_at: (i == 6).then_some(17),
                })
                .collect()
        };
        for compress in [false, true] {
            let config = EngineConfig {
                compress,
                ..EngineConfig::default()
            };
            let mut whole = Engine::new(ring(), 47, config.clone());
            let report = whole.run().unwrap();
            assert_eq!(report.makespan, 40);
            assert_eq!(report.metrics.messages_sent, 1);
            for node in whole.nodes() {
                assert_eq!(
                    node.ticks, report.metrics.steps,
                    "compress={compress}: at completion"
                );
            }

            let mut spans = Engine::new(ring(), 47, config);
            let mut pause_at = 0;
            let spanned = loop {
                pause_at += 5;
                match spans.run_span(pause_at).unwrap() {
                    SpanOutcome::Done(report) => break *report,
                    SpanOutcome::Paused { t, .. } => {
                        for node in spans.nodes() {
                            assert_eq!(node.ticks, t, "compress={compress}: at pause {t}");
                        }
                    }
                }
            };
            assert_eq!(spanned, report, "compress={compress}");
        }
    }

    /// Drains its backlog a unit a round, adds what its counterclockwise
    /// neighbor sends, and at each `(round, units)` of `gifts` sends that
    /// much of its backlog clockwise. With `promise` it parks until its
    /// next gift.
    struct Trader {
        backlog: u64,
        gifts: Vec<(u64, u64)>,
        promise: bool,
    }

    impl Node for Trader {
        type Msg = Potato;

        fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, Potato>) -> u64 {
            for p in io.inbox.from_ccw.drain(..) {
                self.backlog += p.0;
            }
            if let Some(&(_, units)) = self.gifts.iter().find(|g| g.0 == ctx.t) {
                let units = units.min(self.backlog);
                self.backlog -= units;
                io.out.push(Direction::Cw, Potato(units));
            }
            let work = self.backlog.min(1);
            self.backlog -= work;
            work
        }

        fn pending_work(&self) -> u64 {
            self.backlog
        }

        fn quiescence(&self, now: u64) -> Option<Quiescence> {
            let next_gift = self.gifts.iter().map(|g| g.0).filter(|&g| g >= now).min();
            self.promise.then_some(Quiescence {
                span: next_gift.map_or(u64::MAX, |g| g - now),
                backlog: self.backlog,
            })
        }

        fn fast_forward(&mut self, steps: u64) {
            self.backlog -= self.backlog.min(steps);
        }
    }

    #[test]
    fn step_budget_expiring_mid_drain_reports_the_full_sweeps_count() {
        let loads = [30u64, 0, 12, 50, 7];
        let ring = |promise: bool| -> Vec<Trader> {
            loads
                .iter()
                .map(|&backlog| Trader {
                    backlog,
                    gifts: Vec::new(),
                    promise,
                })
                .collect()
        };
        for compress in [false, true] {
            let config = EngineConfig {
                max_steps: Some(20),
                compress,
                ..EngineConfig::default()
            };
            let total = loads.iter().sum();
            let parked = Engine::new(ring(true), total, config.clone()).run();
            let swept = Engine::new(ring(false), total, config.clone()).run();
            assert_eq!(parked, swept, "compress={compress}");
            match parked {
                Err(SimError::ExceededMaxSteps { processed, .. }) => {
                    assert_eq!(processed, 20 + 12 + 20 + 7, "compress={compress}")
                }
                other => panic!("compress={compress}: expected the budget error, got {other:?}"),
            }

            // The same with a pause inside the drain.
            let mut parked = Engine::new(ring(true), total, config.clone());
            let mut swept = Engine::new(ring(false), total, config);
            assert_eq!(parked.run_span(9).unwrap(), swept.run_span(9).unwrap());
            assert_eq!(parked.processed(), 9 + 9 + 9 + 7);
            assert_eq!(
                parked.run(),
                swept.run(),
                "compress={compress}: after a pause"
            );
        }
    }

    #[test]
    fn a_drain_end_pushed_twice_is_retired_once() {
        // Node 1 parks at 1 to drain until 20, takes 5 units at 4 (drain end
        // 25), gives 5 away at 7 and re-parks with its first end, 20, while
        // that entry is still on the heap.
        let ring = |promise: bool| {
            vec![
                Trader {
                    backlog: 10,
                    gifts: vec![(3, 5)],
                    promise,
                },
                Trader {
                    backlog: 20,
                    gifts: vec![(7, 5)],
                    promise,
                },
                Trader {
                    backlog: 0,
                    gifts: Vec::new(),
                    promise,
                },
            ]
        };
        let parked = Engine::new(ring(true), 30, EngineConfig::default()).run();
        let swept = Engine::new(ring(false), 30, EngineConfig::default()).run();
        assert_eq!(parked, swept);
        assert_eq!(parked.unwrap().metrics.processed_per_node, vec![5, 20, 5]);
    }

    /// Processes a unit every round, forever, and (with `promise`) says so
    /// with the largest backlog there is, so its drain end overflows.
    struct Spring {
        processed: u64,
        promise: bool,
    }

    impl Node for Spring {
        type Msg = NoMsg;

        fn on_step(&mut self, _ctx: &NodeCtx, _io: &mut StepIo<'_, NoMsg>) -> u64 {
            self.processed += 1;
            1
        }

        fn pending_work(&self) -> u64 {
            u64::MAX - self.processed
        }

        fn quiescence(&self, _now: u64) -> Option<Quiescence> {
            self.promise.then_some(Quiescence {
                span: u64::MAX,
                backlog: u64::MAX,
            })
        }

        fn fast_forward(&mut self, steps: u64) {
            self.processed += steps;
        }
    }

    #[test]
    fn a_backlog_near_u64_max_does_not_overflow_the_drain_books() {
        for compress in [false, true] {
            let config = EngineConfig {
                max_steps: Some(40),
                compress,
                ..EngineConfig::default()
            };
            let ring = |promise: bool| {
                (0..3)
                    .map(|_| Spring {
                        processed: 0,
                        promise,
                    })
                    .collect::<Vec<_>>()
            };
            let parked = Engine::new(ring(true), u64::MAX, config.clone()).run();
            let swept = Engine::new(ring(false), u64::MAX, config).run();
            assert_eq!(parked, swept, "compress={compress}");
            assert!(
                matches!(
                    parked,
                    Err(SimError::ExceededMaxSteps { processed: 120, .. })
                ),
                "compress={compress}: {parked:?}"
            );
        }
    }

    #[test]
    fn run_is_zero_alloc_in_steady_state_for_bounded_traffic() {
        // Not a real allocation counter (no custom allocator offline), but
        // the structural property it relies on: arena vectors keep their
        // capacity across rounds, so capacity stops growing once traffic
        // peaks. Exercised indirectly by a long potato run within budget.
        let nodes = vec![
            HotPotato { holding: 3 },
            HotPotato { holding: 0 },
            HotPotato { holding: 0 },
        ];
        let config = EngineConfig {
            max_steps: Some(10_000),
            ..EngineConfig::default()
        };
        let err = Engine::new(nodes, 3, config).run().unwrap_err();
        match err {
            SimError::ExceededMaxSteps { processed, .. } => assert_eq!(processed, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }
}

#[cfg(test)]
mod delivery_tests {
    use super::*;
    use crate::topology::Direction;

    /// A relay ring: node 0 emits one token clockwise at t=0; every node
    /// forwards tokens onward and the designated sink consumes them. Used
    /// to pin down exact delivery timing in both directions (and reused by
    /// the `par_tests` module as the run/par_run comparison fixture).
    pub(super) struct Relay {
        pub(super) emit_at_start: bool,
        pub(super) sink: bool,
        pub(super) dir: Direction,
        pub(super) held: u64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct Token;

    impl Payload for Token {
        fn job_units(&self) -> u64 {
            1
        }
    }

    impl Persist for Token {
        fn save(&self, _enc: &mut Encoder) {}

        fn load(_dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
            Ok(Token)
        }
    }

    impl Node for Relay {
        type Msg = Token;

        fn on_step(&mut self, _ctx: &NodeCtx, io: &mut StepIo<'_, Token>) -> u64 {
            let incoming = io.inbox.from_ccw.len() + io.inbox.from_cw.len();
            io.inbox.from_ccw.clear();
            io.inbox.from_cw.clear();
            self.held += incoming as u64;
            let mut work_done = 0;
            if self.emit_at_start {
                self.emit_at_start = false;
                io.out.push(self.dir, Token);
                self.held -= 1;
            } else if self.held > 0 {
                if self.sink {
                    self.held -= 1;
                    work_done = 1;
                } else {
                    io.out.push(self.dir, Token);
                    self.held -= 1;
                }
            }
            work_done
        }

        fn pending_work(&self) -> u64 {
            self.held
        }

        // `sink` and `dir` are topology configuration, rebuilt on restore.
        fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
            enc.bool(self.emit_at_start);
            enc.u64(self.held);
            Ok(())
        }

        fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
            self.emit_at_start = dec.bool()?;
            self.held = dec.u64()?;
            Ok(())
        }
    }

    pub(super) fn relay_ring(m: usize, sink: usize, dir: Direction) -> Vec<Relay> {
        (0..m)
            .map(|i| Relay {
                emit_at_start: i == 0,
                sink: i == sink,
                dir,
                held: u64::from(i == 0),
            })
            .collect()
    }

    #[test]
    fn clockwise_token_arrives_after_exactly_d_steps() {
        // Token leaves node 0 at t=0, reaches node 3 at t=3, is consumed
        // during step 3 -> makespan 4.
        let nodes = relay_ring(6, 3, Direction::Cw);
        let report = Engine::new(nodes, 1, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.makespan, 4);
    }

    #[test]
    fn counterclockwise_token_timing_matches() {
        // Counterclockwise from 0 to node 4 of a 6-ring is 2 hops.
        let nodes = relay_ring(6, 4, Direction::Ccw);
        let report = Engine::new(nodes, 1, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.makespan, 3);
    }

    #[test]
    fn token_laps_the_ring_if_nobody_sinks_itself() {
        // Node 0 is both emitter and sink: `emit_at_start` forces the token
        // out clockwise at t=0 (the emit branch runs before the sink
        // branch), so it is consumed only on return — after all m hops.
        let m = 5;
        let nodes = relay_ring(m, 0, Direction::Cw);
        let report = Engine::new(nodes, 1, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(report.makespan, m as u64 + 1);
        assert_eq!(report.metrics.job_hops, m as u64, "one full lap");
        assert_eq!(report.metrics.messages_sent, m as u64);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::delivery_tests::relay_ring;
    use super::*;
    use crate::fault::{LinkFault, LinkFaultKind, ProcFault, ProcFaultKind};

    fn full_config(plan: FaultPlan) -> EngineConfig {
        EngineConfig {
            trace: TraceLevel::Full,
            observe: true,
            faults: Some(plan),
            ..EngineConfig::default()
        }
    }

    /// Baseline: relay_ring(6, 3, Cw) delivers the token to node 3 at t=3
    /// and finishes with makespan 4 (pinned by `delivery_tests`).
    const BASE_MAKESPAN: u64 = 4;

    #[test]
    fn empty_plan_is_bit_identical_to_no_plan() {
        let no_plan = EngineConfig {
            trace: TraceLevel::Full,
            observe: true,
            ..EngineConfig::default()
        };
        let a = Engine::new(relay_ring(6, 3, Direction::Cw), 1, no_plan)
            .run()
            .unwrap();
        let b = Engine::new(
            relay_ring(6, 3, Direction::Cw),
            1,
            full_config(FaultPlan::new()),
        )
        .run()
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(b.metrics.messages_dropped, 0);
        assert_eq!(b.metrics.messages_delayed, 0);
        assert_eq!(b.metrics.messages_retried, 0);
    }

    #[test]
    fn dropped_link_holds_the_token_until_it_heals() {
        let mut plan = FaultPlan::new();
        plan.add_link_fault(LinkFault {
            node: 0,
            dir: Direction::Cw,
            from: 0,
            until: 2,
            kind: LinkFaultKind::Drop,
        });
        let report = Engine::new(relay_ring(6, 3, Direction::Cw), 1, full_config(plan))
            .run()
            .unwrap();
        // Refused at t = 0 and 1, departs at t = 2: two steps late.
        assert_eq!(report.makespan, BASE_MAKESPAN + 2);
        assert_eq!(report.metrics.messages_dropped, 2);
        assert_eq!(report.metrics.messages_retried, 1);
        let obs = report.observability.expect("observe was on");
        assert_eq!(obs.fault_series()[0], (1, 0, 0));
        assert_eq!(obs.fault_series()[1], (1, 0, 0));
        // The retry is booked at the step the message finally departs.
        assert_eq!(obs.fault_series()[2], (0, 0, 1));
    }

    #[test]
    fn delay_epoch_postpones_departure_without_retries() {
        let mut plan = FaultPlan::new();
        plan.add_link_fault(LinkFault {
            node: 0,
            dir: Direction::Cw,
            from: 0,
            until: 1,
            kind: LinkFaultKind::Delay(3),
        });
        let report = Engine::new(relay_ring(6, 3, Direction::Cw), 1, full_config(plan))
            .run()
            .unwrap();
        assert_eq!(report.makespan, BASE_MAKESPAN + 3);
        assert_eq!(report.metrics.messages_dropped, 0);
        assert_eq!(report.metrics.messages_delayed, 3);
        // Never *attempted* early — the delay is known, not a failure.
        assert_eq!(report.metrics.messages_retried, 0);
    }

    #[test]
    fn bandwidth_cap_blocks_and_then_retries() {
        let mut plan = FaultPlan::new();
        plan.add_link_fault(LinkFault {
            node: 0,
            dir: Direction::Cw,
            from: 0,
            until: 2,
            kind: LinkFaultKind::Bandwidth(0),
        });
        let report = Engine::new(relay_ring(6, 3, Direction::Cw), 1, full_config(plan))
            .run()
            .unwrap();
        assert_eq!(report.makespan, BASE_MAKESPAN + 2);
        assert_eq!(report.metrics.messages_delayed, 2);
        assert_eq!(report.metrics.messages_retried, 1);
    }

    #[test]
    fn stalled_processor_defers_its_work() {
        let mut plan = FaultPlan::new();
        plan.add_proc_fault(ProcFault {
            node: 3,
            from: 0,
            until: 6,
            kind: ProcFaultKind::Stall,
        });
        let report = Engine::new(relay_ring(6, 3, Direction::Cw), 1, full_config(plan))
            .run()
            .unwrap();
        // The token reaches node 3 at t = 3 but sits in its carried-over
        // inbox until the stall lifts at t = 6.
        assert_eq!(report.makespan, 7);
        assert_eq!(report.metrics.processed_per_node[3], 1);
    }

    #[test]
    fn par_run_matches_run_bit_for_bit_under_faults() {
        let mut plan = FaultPlan::new();
        plan.add_link_fault(LinkFault {
            node: 1,
            dir: Direction::Cw,
            from: 1,
            until: 4,
            kind: LinkFaultKind::Drop,
        });
        plan.add_link_fault(LinkFault {
            node: 5,
            dir: Direction::Ccw,
            from: 0,
            until: 3,
            kind: LinkFaultKind::Delay(2),
        });
        plan.add_proc_fault(ProcFault {
            node: 4,
            from: 2,
            until: 9,
            kind: ProcFaultKind::Slowdown(2),
        });
        for dir in [Direction::Cw, Direction::Ccw] {
            let seq = Engine::new(relay_ring(8, 5, dir), 1, full_config(plan.clone()))
                .run()
                .unwrap();
            for shards in [2, 3, 5, 8] {
                let par = Engine::new(relay_ring(8, 5, dir), 1, full_config(plan.clone()))
                    .par_run(shards)
                    .unwrap();
                assert_eq!(seq, par, "dir={dir:?} shards={shards}");
            }
        }
    }

    #[test]
    fn fault_budget_widens_with_the_horizon() {
        // A stall longer than the fault-free default budget must not abort
        // the run: the derived budget accounts for the plan's horizon.
        let mut plan = FaultPlan::new();
        let long = 4 * (1 + 6) + 64 + 10; // beyond the fault-free default
        plan.add_proc_fault(ProcFault {
            node: 3,
            from: 0,
            until: long,
            kind: ProcFaultKind::Stall,
        });
        let report = Engine::new(relay_ring(6, 3, Direction::Cw), 1, full_config(plan))
            .run()
            .unwrap();
        assert_eq!(report.makespan, long + 1);
    }
}

#[cfg(test)]
mod par_tests {
    use super::delivery_tests::relay_ring;
    use super::*;

    fn full_config() -> EngineConfig {
        EngineConfig {
            trace: TraceLevel::Full,
            observe: true,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn par_run_matches_run_bit_for_bit_on_relay_rings() {
        for m in [1usize, 2, 3, 5, 8, 17] {
            for dir in [Direction::Cw, Direction::Ccw] {
                let sink = (2 * m) / 3;
                let seq = Engine::new(relay_ring(m, sink, dir), 1, full_config())
                    .run()
                    .unwrap();
                for shards in [1usize, 2, 3, 4, m] {
                    let par = Engine::new(relay_ring(m, sink, dir), 1, full_config())
                        .par_run(shards)
                        .unwrap();
                    assert_eq!(seq, par, "m={m} dir={dir:?} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn par_run_clamps_shards_to_ring_size() {
        // More shards than nodes is accepted and changes nothing.
        let seq = Engine::new(relay_ring(3, 1, Direction::Cw), 1, full_config())
            .run()
            .unwrap();
        let par = Engine::new(relay_ring(3, 1, Direction::Cw), 1, full_config())
            .par_run(64)
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_run_reports_the_same_budget_error() {
        // Nobody ever sinks: `run` and `par_run` must blow the same step
        // budget having processed nothing.
        let mk = || {
            let mut nodes = relay_ring(4, 0, Direction::Cw);
            for n in &mut nodes {
                n.sink = false;
            }
            nodes
        };
        let config = EngineConfig {
            max_steps: Some(40),
            ..EngineConfig::default()
        };
        let seq = Engine::new(mk(), 1, config.clone()).run().unwrap_err();
        let par = Engine::new(mk(), 1, config).par_run(2).unwrap_err();
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::delivery_tests::{relay_ring, Relay, Token};
    use super::*;
    use crate::fault::{LinkFault, LinkFaultKind, ProcFault, ProcFaultKind};
    use std::sync::{Arc, Mutex};

    fn full_config() -> EngineConfig {
        EngineConfig {
            trace: TraceLevel::Full,
            observe: true,
            ..EngineConfig::default()
        }
    }

    /// Installs a capturing sink and returns the shared snapshot log.
    fn capture(engine: &mut Engine<Relay>) -> Arc<Mutex<Vec<Snapshot>>> {
        let snaps = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&snaps);
        engine.on_checkpoint(move |s| {
            log.lock().unwrap().push(s.clone());
            Ok(())
        });
        snaps
    }

    #[test]
    fn checkpointing_does_not_change_the_report() {
        let base = Engine::new(relay_ring(8, 5, Direction::Cw), 1, full_config())
            .run()
            .unwrap();
        for every in [1, 2, 3, 7] {
            let mut engine = Engine::new(
                relay_ring(8, 5, Direction::Cw),
                1,
                full_config().checkpoint_every(every),
            );
            let snaps = capture(&mut engine);
            assert_eq!(base, engine.run().unwrap(), "every={every}");
            // A cadence beyond the makespan legitimately never fires.
            if every < base.makespan {
                assert!(!snaps.lock().unwrap().is_empty(), "every={every}");
            }
        }
    }

    #[test]
    fn resume_from_every_boundary_is_bit_identical() {
        let base = Engine::new(relay_ring(8, 5, Direction::Cw), 1, full_config())
            .run()
            .unwrap();
        let mut engine = Engine::new(
            relay_ring(8, 5, Direction::Cw),
            1,
            full_config().checkpoint_every(2),
        );
        let snaps = capture(&mut engine);
        assert_eq!(base, engine.run().unwrap());
        let snaps = snaps.lock().unwrap();
        assert!(snaps.len() >= 2, "expected several boundaries");
        for snap in snaps.iter() {
            // A snapshot round-trips through bytes before resuming, like a
            // real recovery would.
            let bytes = snap.to_bytes();
            let snap = Snapshot::from_bytes(&bytes).unwrap();
            let resumed = Engine::resume(relay_ring(8, 5, Direction::Cw), full_config(), &snap)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(base, resumed, "resumed from t={}", snap.t);
        }
    }

    #[test]
    fn resume_is_bit_identical_under_faults() {
        let mut plan = FaultPlan::new();
        plan.add_link_fault(LinkFault {
            node: 1,
            dir: Direction::Cw,
            from: 1,
            until: 5,
            kind: LinkFaultKind::Drop,
        });
        plan.add_link_fault(LinkFault {
            node: 6,
            dir: Direction::Ccw,
            from: 0,
            until: 4,
            kind: LinkFaultKind::Delay(2),
        });
        plan.add_proc_fault(ProcFault {
            node: 4,
            from: 2,
            until: 9,
            kind: ProcFaultKind::Slowdown(2),
        });
        let faulty = || EngineConfig {
            faults: Some(plan.clone()),
            ..full_config()
        };
        let base = Engine::new(relay_ring(8, 5, Direction::Cw), 1, faulty())
            .run()
            .unwrap();
        let mut engine = Engine::new(
            relay_ring(8, 5, Direction::Cw),
            1,
            faulty().checkpoint_every(3),
        );
        let snaps = capture(&mut engine);
        assert_eq!(base, engine.run().unwrap());
        for snap in snaps.lock().unwrap().iter() {
            // The snapshot carries the fault plan and staged queues itself;
            // resume with a fault-free config to prove they are restored.
            let resumed = Engine::resume(relay_ring(8, 5, Direction::Cw), full_config(), snap)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(base, resumed, "resumed from t={}", snap.t);
        }
    }

    /// Pins the contract `benchmark/` relies on: `par_run(s)` is `run`,
    /// report and checkpoints alike, for every shard count.
    #[test]
    fn par_checkpoints_are_identical_to_sequential_ones() {
        let mut seq_engine = Engine::new(
            relay_ring(9, 6, Direction::Cw),
            1,
            full_config().checkpoint_every(2),
        );
        let seq_snaps = capture(&mut seq_engine);
        let base = seq_engine.run().unwrap();
        for shards in [1usize, 2, 3, 7] {
            let mut par_engine = Engine::new(
                relay_ring(9, 6, Direction::Cw),
                1,
                full_config().checkpoint_every(2),
            );
            let par_snaps = capture(&mut par_engine);
            assert_eq!(base, par_engine.par_run(shards).unwrap(), "shards={shards}");
            assert_eq!(
                *seq_snaps.lock().unwrap(),
                *par_snaps.lock().unwrap(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn resume_shard_count_is_independent_of_save_shard_count() {
        let base = Engine::new(relay_ring(9, 6, Direction::Cw), 1, full_config())
            .run()
            .unwrap();
        let mut engine = Engine::new(
            relay_ring(9, 6, Direction::Cw),
            1,
            full_config().checkpoint_every(3),
        );
        let snaps = capture(&mut engine);
        assert_eq!(base, engine.par_run(3).unwrap());
        let snaps = snaps.lock().unwrap();
        assert!(!snaps.is_empty());
        for snap in snaps.iter() {
            for shards in [1usize, 2, 7] {
                let resumed = Engine::resume(relay_ring(9, 6, Direction::Cw), full_config(), snap)
                    .unwrap()
                    .par_run(shards)
                    .unwrap();
                assert_eq!(base, resumed, "t={} shards={shards}", snap.t);
            }
            let resumed = Engine::resume(relay_ring(9, 6, Direction::Cw), full_config(), snap)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(base, resumed, "t={} sequential", snap.t);
        }
    }

    #[test]
    fn resume_rejects_mismatched_ring_size() {
        let mut engine = Engine::new(
            relay_ring(8, 5, Direction::Cw),
            1,
            full_config().checkpoint_every(2),
        );
        let snaps = capture(&mut engine);
        engine.run().unwrap();
        let snap = snaps.lock().unwrap()[0].clone();
        let err = match Engine::resume(relay_ring(6, 3, Direction::Cw), full_config(), &snap) {
            Err(err) => err,
            Ok(_) => panic!("resume accepted a mismatched ring size"),
        };
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err:?}");
    }

    #[test]
    fn sink_errors_surface_as_checkpoint_sim_errors() {
        let mk = || {
            Engine::new(
                relay_ring(8, 5, Direction::Cw),
                1,
                full_config().checkpoint_every(2),
            )
        };
        let mut seq = mk();
        seq.on_checkpoint(|_| Err(CheckpointError::Io("disk full".into())));
        let err = seq.run().unwrap_err();
        match &err {
            SimError::Checkpoint { step, error } => {
                assert_eq!(*step, 2);
                assert_eq!(*error, CheckpointError::Io("disk full".into()));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let mut par = mk();
        par.on_checkpoint(|_| Err(CheckpointError::Io("disk full".into())));
        let par_err = par.par_run(3).unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{par_err:?}"));
    }

    /// A relay whose `save_state` fails when it carries a label.
    struct Unsavable(Relay, Option<&'static str>);

    impl Node for Unsavable {
        type Msg = Token;

        fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, Token>) -> u64 {
            self.0.on_step(ctx, io)
        }

        fn pending_work(&self) -> u64 {
            self.0.pending_work()
        }

        fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
            match self.1 {
                Some(label) => Err(CheckpointError::Io(label.into())),
                None => self.0.save_state(enc),
            }
        }
    }

    #[test]
    fn save_state_errors_are_the_same_under_run_and_par_run() {
        // Two failing nodes: `run` and `par_run` must report the first
        // boundary and the lower-indexed node's error.
        let mk = || {
            let nodes = relay_ring(8, 5, Direction::Cw)
                .into_iter()
                .enumerate()
                .map(|(i, relay)| {
                    let label = match i {
                        2 => Some("node 2"),
                        6 => Some("node 6"),
                        _ => None,
                    };
                    Unsavable(relay, label)
                })
                .collect();
            let mut engine = Engine::new(nodes, 1, full_config().checkpoint_every(2));
            engine.on_checkpoint(|_| Ok(()));
            engine
        };
        let expected = SimError::Checkpoint {
            step: 2,
            error: CheckpointError::Io("node 2".into()),
        };
        assert_eq!(mk().run().unwrap_err(), expected);
        assert_eq!(mk().par_run(3).unwrap_err(), expected);
    }
}
