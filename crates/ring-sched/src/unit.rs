//! The integral unit-job algorithms: variants **A**, **B**, **C**, each
//! uni- or bidirectional — the six algorithms (`A1 B1 C1 A2 B2 C2`) of the
//! paper's experimental section (§6).
//!
//! * **C** — the analyzed Integral Algorithm (§3 + §4.1): a bucket tops each
//!   processor up to `c · sqrt(work the bucket has seen)`; proven a
//!   4.22-approximation (Corollary 1).
//! * **B** — tops processors up to the best *Lemma 1 lower bound* the bucket
//!   knows from the prefix of the ring it has traversed ("one might expect B
//!   to be a better algorithm"; empirically it was the worst).
//! * **A** — the authors' "initial idea": a *processor* keeps enough jobs to
//!   hold `sqrt(work that has passed by)`, measured from the bucket traffic
//!   it observes rather than from originating work.
//!
//! All three share the bucket kernel of [`crate::bucket`] (fractional
//! shadow + I1/I2 rounding + Lemma 5 wrap-around balancing) and differ
//! only in the drop-off target. The bidirectional versions split each
//! initial bucket in half, one half travelling each way (§6.1).
//!
//! Interpretation notes (details the paper leaves open; also recorded in
//! DESIGN.md):
//!
//! * Variant A tops up the processor's *current backlog* ("removes jobs
//!   from buckets so as to **have** the square root of the work that has
//!   passed by"): the processor re-fills as it drains — the "slightly
//!   better local load balancing" the paper credits A with. B and C top up
//!   cumulative acceptance (explicit in §3's algorithm statement).
//! * Variant B's "best lower bound the bucket knows" is taken over the
//!   prefixes of the bucket's own path — maintainable in O(1) per hop. A
//!   bucket does not retain per-processor loads, so sub-window maxima are
//!   not available to it without O(m) memory per bucket.
//! * Default constants: `c_A = 1.0` (the prose has no constant and this
//!   reproduces the paper's A numbers), `c_B = c_C = 1.77` (B inherits C's
//!   constant — see `UnitConfig::new`). All configurable for ablation.

use crate::analysis::C_PAPER;
use crate::bucket::{drop_balancing, drop_regular, Bucket, DropOutcome, Ledger};
use crate::EPS;
use ring_sim::checkpoint::{CheckpointError, Decoder, Encoder, Persist, Snapshot};
use ring_sim::{
    Audit, Direction, DropKind, DropRecord, Engine, EngineConfig, FaultPlan, Instance, Node,
    NodeCtx, Outbox, ParConfig, Quiescence, RunReport, SimError, StepIo, TraceLevel,
};
use serde::{Deserialize, Serialize};

/// Reports one drop-off to the engine's audit sink (no-op unless the engine
/// is recording a full trace). `bucket` and `ledger` must already reflect
/// the post-drop state — the record carries the *cumulative* levels the
/// oracle re-checks I1/I2 against.
fn record_drop(
    audit: &mut Audit<'_>,
    bucket: &Bucket,
    ledger: &Ledger,
    outcome: DropOutcome,
    kind: DropKind,
) {
    if outcome.int == 0 && outcome.frac <= EPS {
        return;
    }
    audit.record(DropRecord {
        bucket: bucket.id,
        int: outcome.int,
        frac: outcome.frac,
        cum_drop_frac: bucket.dropped_frac,
        cum_accept_frac: ledger.accepted_frac,
        p_max_bucket: 0,
        p_max_node: 0,
        kind,
    });
}

/// Which drop-off target rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Variant {
    /// `target = c · sqrt(fractional work that has passed this processor)`.
    A,
    /// `target = c · (best Lemma 1 bound over the bucket's path prefix)`.
    B,
    /// `target = c · sqrt(work originating on the bucket's path)` — the
    /// analyzed algorithm.
    C,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::A => write!(f, "A"),
            Variant::B => write!(f, "B"),
            Variant::C => write!(f, "C"),
        }
    }
}

/// Whether buckets travel one way or both ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Directionality {
    /// All buckets travel clockwise (the "1" algorithms).
    Uni,
    /// Each initial bucket is split in half, one half per direction
    /// (the "2" algorithms).
    Bi,
}

/// Configuration of a unit-job run.
#[derive(Debug, Clone, Copy)]
pub struct UnitConfig {
    /// Target rule.
    pub variant: Variant,
    /// Uni- or bidirectional.
    pub directionality: Directionality,
    /// Drop-off constant multiplier.
    pub c: f64,
    /// Event recording level for the underlying engine.
    pub trace: TraceLevel,
    /// Optional step budget override.
    pub max_steps: Option<u64>,
    /// Collect the engine's per-step observability series.
    pub observe: bool,
    /// Inert: the active-node frontier replaced quiescent-span step
    /// compression. Removed with the next `benchmark` PR, which is the last
    /// user.
    pub compress: bool,
    /// Inert: the ring engine has one executor and reads no window.
    /// Removed with the next `benchmark` PR, which is the last user.
    pub window: Option<u64>,
    /// Inert for the same reason as `window` ([`EngineConfig::par`] tunes
    /// only the fabric's pool). Removed with the next `benchmark` PR.
    pub par: ParConfig,
}

impl UnitConfig {
    fn new(variant: Variant, directionality: Directionality) -> Self {
        let c = match variant {
            // B is "a variant of our algorithm [C] in which buckets drop
            // off jobs so as to bring the work at a processor up to the
            // best lower bound the bucket knows" — same constant, new
            // estimate. Without the constant (c = 1.0) the targets converge
            // to exactly the average load on wide noisy rings and drop-offs
            // stall until the Lemma 5 wrap-around rescues them (~30x
            // factors); see DESIGN.md §5.
            Variant::B | Variant::C => C_PAPER,
            // A's prose has no constant ("the square root of the work that
            // has passed by") and c = 1.0 reproduces the paper's numbers.
            Variant::A => 1.0,
        };
        UnitConfig {
            variant,
            directionality,
            c,
            trace: TraceLevel::Off,
            max_steps: None,
            observe: false,
            compress: false,
            window: None,
            par: ParConfig::default(),
        }
    }

    /// Algorithm A1 (§6): variant A, unidirectional.
    pub fn a1() -> Self {
        Self::new(Variant::A, Directionality::Uni)
    }
    /// Algorithm B1 (§6): variant B, unidirectional.
    pub fn b1() -> Self {
        Self::new(Variant::B, Directionality::Uni)
    }
    /// Algorithm C1 (§6): the analyzed Integral Algorithm, unidirectional.
    pub fn c1() -> Self {
        Self::new(Variant::C, Directionality::Uni)
    }
    /// Algorithm A2 (§6): variant A, bidirectional.
    pub fn a2() -> Self {
        Self::new(Variant::A, Directionality::Bi)
    }
    /// Algorithm B2 (§6): variant B, bidirectional.
    pub fn b2() -> Self {
        Self::new(Variant::B, Directionality::Bi)
    }
    /// Algorithm C2 (§6): variant C, bidirectional.
    pub fn c2() -> Self {
        Self::new(Variant::C, Directionality::Bi)
    }

    /// Parses a paper name (`"c1"`, `"A2"`, …) back into a configuration —
    /// the inverse of [`UnitConfig::name`], used by `ringsched resume` to
    /// rebuild the policy from a snapshot's metadata.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_lowercase().as_str() {
            "a1" => Some(Self::a1()),
            "b1" => Some(Self::b1()),
            "c1" => Some(Self::c1()),
            "a2" => Some(Self::a2()),
            "b2" => Some(Self::b2()),
            "c2" => Some(Self::c2()),
            _ => None,
        }
    }

    /// All six §6 algorithms with their paper names.
    pub fn all_six() -> [(&'static str, UnitConfig); 6] {
        [
            ("A1", Self::a1()),
            ("B1", Self::b1()),
            ("C1", Self::c1()),
            ("A2", Self::a2()),
            ("B2", Self::b2()),
            ("C2", Self::c2()),
        ]
    }

    /// Returns the same configuration with a different drop-off constant
    /// (ablation sweeps).
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Returns the same configuration with full event tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = TraceLevel::Full;
        self
    }

    /// Returns the same configuration with per-step observability series
    /// collection turned on.
    pub fn with_observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Sets the inert [`UnitConfig::compress`]; removed with the next
    /// `benchmark` PR.
    pub fn with_compress(mut self) -> Self {
        self.compress = true;
        self
    }

    /// Sets the inert [`UnitConfig::window`]; removed with the next
    /// `benchmark` PR.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = Some(window);
        self
    }

    /// The paper's name for this configuration (e.g. `"C1"`).
    pub fn name(&self) -> String {
        format!(
            "{}{}",
            self.variant,
            match self.directionality {
                Directionality::Uni => "1",
                Directionality::Bi => "2",
            }
        )
    }
}

/// Outcome of a unit-job run.
#[derive(Debug, Clone)]
pub struct UnitRun {
    /// Schedule length.
    pub makespan: u64,
    /// The engine's full report (metrics, optional trace).
    pub report: RunReport,
    /// Largest number of hops any bucket travelled.
    pub max_bucket_travel: u64,
    /// Whether any bucket lapped the ring (Lemma 5 balancing engaged).
    pub wrapped: bool,
    /// Jobs each processor accepted (and processed).
    pub assigned: Vec<u64>,
}

/// The per-processor policy state.
#[derive(Debug)]
pub struct UnitNode {
    variant: Variant,
    directionality: Directionality,
    c: f64,
    x: u64,
    backlog: u64,
    processed: u64,
    /// Fractional-shadow backlog: what the fractional algorithm would have
    /// unprocessed here right now (drops added, one unit drained per step).
    /// Variant A's drop rule tops *this* up, not the cumulative acceptance.
    backlog_frac: f64,
    ledger: Ledger,
    /// Largest hop count among buckets seen at this node (diagnostics).
    max_travel_seen: u64,
    /// Whether a balancing-mode bucket passed through (diagnostics).
    saw_balancing: bool,
    /// Whether the initial load has been packed into a bucket yet. Fault
    /// plans can stall a processor through step 0, so emission happens on
    /// the node's *first executed* step rather than at `t == 0`.
    emitted: bool,
    /// Count of buckets this node has emitted, used to mint run-unique
    /// bucket ids (dynamic arrivals emit more than once per node).
    emit_serial: u64,
}

impl UnitNode {
    fn new(cfg: &UnitConfig, x: u64) -> Self {
        UnitNode {
            variant: cfg.variant,
            directionality: cfg.directionality,
            c: cfg.c,
            x,
            backlog: 0,
            processed: 0,
            backlog_frac: 0.0,
            ledger: Ledger::default(),
            max_travel_seen: 0,
            saw_balancing: false,
            emitted: false,
            emit_serial: 0,
        }
    }

    /// The variant-specific fractional target for a bucket at this node.
    /// For variant A, the bucket's content must already be folded into
    /// `ledger.passed_frac`.
    fn target(&self, bucket: &Bucket) -> f64 {
        match self.variant {
            Variant::A => self.c * self.ledger.passed_frac.max(0.0).sqrt(),
            Variant::B => self.c * bucket.best_lb,
            Variant::C => self.c * (bucket.seen_work as f64).sqrt(),
        }
    }

    /// The quantity the drop rule tops up: variant A re-fills the current
    /// (fractional-shadow) backlog as the processor drains it; B and C use
    /// the cumulative acceptance `a_j` of §3.
    fn reference_level(&self) -> f64 {
        match self.variant {
            Variant::A => self.backlog_frac,
            Variant::B | Variant::C => self.ledger.accepted_frac,
        }
    }

    /// Packs `count` fresh jobs (just arrived or initially resident at this
    /// node) into a new bucket: self-drop, optional bidirectional split,
    /// and dispatch. Shared by the static `t = 0` path and the dynamic
    /// online-arrivals extension ([`crate::dynamic`]).
    pub(crate) fn emit_bucket(
        &mut self,
        origin: usize,
        m: usize,
        count: u64,
        outbox: &mut Outbox<'_, Bucket>,
        audit: &mut Audit<'_>,
    ) {
        // `x` re-grows inside this method, so once any emission has happened
        // `pending_work` must stop counting it (the dynamic extension calls
        // this directly, without going through `UnitNode::on_step`).
        self.emitted = true;
        if count == 0 {
            return;
        }
        // Mint a run-unique bucket id: serial-within-node × ring stride,
        // with the counterclockwise half of a bidirectional split offset by
        // `m` (ids only need to be unique, not dense).
        let id = 2 * self.emit_serial * m as u64 + origin as u64;
        self.emit_serial += 1;
        self.x += count;
        let mut b = Bucket::new(origin, Direction::Cw, count);
        b.id = id;
        self.ledger.passed_frac += b.frac;
        self.ledger.passed_int += b.jobs;
        let target = self.target(&b);
        let current = self.reference_level();
        let outcome = drop_regular(&mut b, &mut self.ledger, current, target);
        self.backlog += outcome.int;
        self.backlog_frac += outcome.frac;
        record_drop(audit, &b, &self.ledger, outcome, DropKind::Regular);
        if !b.is_spent() {
            if m == 1 {
                // Degenerate singleton ring: nowhere to send; keep
                // everything (the target rule may have left some).
                self.backlog += b.jobs;
                self.backlog_frac += b.frac;
                let keep = DropOutcome {
                    frac: b.frac,
                    int: b.jobs,
                };
                self.ledger.accepted_int += b.jobs;
                self.ledger.accepted_frac += b.frac;
                b.dropped_int += b.jobs;
                b.dropped_frac += b.frac;
                b.jobs = 0;
                b.frac = 0.0;
                record_drop(audit, &b, &self.ledger, keep, DropKind::Regular);
            } else if self.directionality == Directionality::Bi && m > 2 {
                let mut ccw = b.split_for_bidirectional();
                ccw.id = id + m as u64;
                if !ccw.is_spent() {
                    outbox.push(Direction::Ccw, ccw);
                }
                if !b.is_spent() {
                    outbox.push(Direction::Cw, b);
                }
            } else {
                outbox.push(Direction::Cw, b);
            }
        }
    }

    /// Receives one travelling bucket: advance its per-hop bookkeeping and
    /// run the drop-off negotiation. Shared with [`crate::dynamic`].
    pub(crate) fn receive_bucket(
        &mut self,
        mut bucket: Bucket,
        outbox: &mut Outbox<'_, Bucket>,
        audit: &mut Audit<'_>,
        m: usize,
    ) {
        bucket.arrive(self.x, m);
        self.handle_bucket(bucket, outbox, audit, m);
    }

    /// Processes one unit of resident work if any, and advances the
    /// fractional shadow's drain. Shared with [`crate::dynamic`].
    pub(crate) fn process_tick(&mut self) -> u64 {
        let work_done = if self.backlog > 0 {
            self.backlog -= 1;
            self.processed += 1;
            1
        } else {
            0
        };
        self.backlog_frac = (self.backlog_frac - 1.0).max(0.0);
        work_done
    }

    /// The integral backlog the node would drain over quiet rounds — the
    /// [`Quiescence`] backlog for both [`UnitNode`] and
    /// [`crate::dynamic::DynamicNode`].
    pub(crate) fn quiet_backlog(&self) -> u64 {
        self.backlog
    }

    /// Replays `steps` calls to [`UnitNode::process_tick`] analytically.
    /// Exact, including the fractional shadow: repeated `(x - 1.0).max(0.0)`
    /// equals `(x - steps).max(0.0)` bit-for-bit because each unit
    /// subtraction while `x ≥ 1` is exact for `x < 2^53` (the ledgers sum
    /// far fewer than 2^53 units) and the first negative result clamps to
    /// `+0.0` either way. Shared with [`crate::dynamic`].
    pub(crate) fn fast_forward_drain(&mut self, steps: u64) {
        let d = self.backlog.min(steps);
        self.backlog -= d;
        self.processed += d;
        self.backlog_frac = (self.backlog_frac - steps as f64).max(0.0);
    }

    /// Serializes the node's mutable state (the algorithm constants —
    /// variant, directionality, `c` — come from the rebuilt configuration
    /// on restore, so they are not written). Shared with
    /// [`crate::dynamic::DynamicNode`], which wraps a `UnitNode`.
    pub(crate) fn save_mut_state(&self, enc: &mut Encoder) {
        enc.u64(self.x);
        enc.u64(self.backlog);
        enc.u64(self.processed);
        enc.f64(self.backlog_frac);
        self.ledger.save(enc);
        enc.u64(self.max_travel_seen);
        enc.bool(self.saw_balancing);
        enc.bool(self.emitted);
        enc.u64(self.emit_serial);
    }

    /// Inverse of [`UnitNode::save_mut_state`].
    pub(crate) fn restore_mut_state(
        &mut self,
        dec: &mut Decoder<'_>,
    ) -> Result<(), CheckpointError> {
        self.x = dec.u64()?;
        self.backlog = dec.u64()?;
        self.processed = dec.u64()?;
        self.backlog_frac = dec.f64()?;
        self.ledger = Ledger::load(dec)?;
        self.max_travel_seen = dec.u64()?;
        self.saw_balancing = dec.bool()?;
        self.emitted = dec.bool()?;
        self.emit_serial = dec.u64()?;
        Ok(())
    }

    /// Accepts a bucket at this node: run the drop-off negotiation and
    /// forward the bucket if it still holds anything.
    fn handle_bucket(
        &mut self,
        mut bucket: Bucket,
        outbox: &mut Outbox<'_, Bucket>,
        audit: &mut Audit<'_>,
        m: usize,
    ) {
        self.max_travel_seen = self.max_travel_seen.max(bucket.hops);
        self.ledger.passed_frac += bucket.frac;
        self.ledger.passed_int += bucket.jobs;
        let (outcome, kind) = if bucket.balancing {
            self.saw_balancing = true;
            let kind = if bucket.spill > 0 {
                DropKind::Forced
            } else {
                DropKind::Balancing
            };
            (drop_balancing(&mut bucket, &mut self.ledger, m), kind)
        } else {
            let target = self.target(&bucket);
            let current = self.reference_level();
            (
                drop_regular(&mut bucket, &mut self.ledger, current, target),
                DropKind::Regular,
            )
        };
        self.backlog += outcome.int;
        self.backlog_frac += outcome.frac;
        record_drop(audit, &bucket, &self.ledger, outcome, kind);
        if !bucket.is_spent() {
            outbox.push(bucket.dir, bucket);
        }
    }
}

impl Node for UnitNode {
    type Msg = Bucket;

    fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, Bucket>) -> u64 {
        let m = ctx.topo.len();

        if !self.emitted {
            // Pack all local jobs into a bucket, drop the origin's share,
            // split if bidirectional, and send the rest on its way. This is
            // step 0 in a fault-free run; a processor stalled through step 0
            // emits on its first executed step instead (the retry/re-emit
            // recovery rule — no work is ever lost to a stall).
            self.emitted = true;
            let count = std::mem::take(&mut self.x);
            self.emit_bucket(ctx.id, m, count, &mut io.out, &mut io.audit);
        }
        // Fault-free, at most one bucket arrives per direction per step (all
        // buckets advance in lock-step); after a stall the backlog of
        // carried-over deliveries lands at once. Process the clockwise
        // travellers first — a fixed, documented order so runs are
        // deterministic.
        for bucket in io
            .inbox
            .from_ccw
            .drain(..)
            .chain(io.inbox.from_cw.drain(..))
        {
            self.receive_bucket(bucket, &mut io.out, &mut io.audit, m);
        }

        self.process_tick()
    }

    fn pending_work(&self) -> u64 {
        self.backlog + if self.emitted { 0 } else { self.x }
    }

    fn quiescence(&self, _now: u64) -> Option<Quiescence> {
        // After the initial emission the node is purely reactive: with
        // empty inboxes it neither sends nor audits, it just drains — so
        // the span is unbounded. Before the emission the first step sends
        // the initial bucket, so the node declines.
        self.emitted.then_some(Quiescence {
            span: u64::MAX,
            backlog: self.backlog,
        })
    }

    fn fast_forward(&mut self, steps: u64) {
        self.fast_forward_drain(steps);
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        self.save_mut_state(enc);
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.restore_mut_state(dec)
    }
}

/// Builds the per-processor policy nodes for an instance — used by
/// [`run_unit`] and by alternative executors such as the threaded one in
/// `ring-net`.
pub fn build_unit_nodes(instance: &Instance, cfg: &UnitConfig) -> Vec<UnitNode> {
    assert!(cfg.c > 0.0, "the drop-off constant must be positive");
    instance
        .loads()
        .iter()
        .map(|&x| UnitNode::new(cfg, x))
        .collect()
}

impl UnitNode {
    /// Jobs this node accepted so far (its share of the schedule).
    pub fn accepted(&self) -> u64 {
        self.ledger.accepted_int
    }

    /// Jobs this node has processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

/// Runs one of the six unit-job algorithms on an instance.
///
/// ```
/// use ring_sim::Instance;
/// use ring_sched::unit::{run_unit, UnitConfig};
///
/// let inst = Instance::concentrated(16, 0, 64);
/// let run = run_unit(&inst, &UnitConfig::a2()).unwrap();
/// assert_eq!(run.assigned.iter().sum::<u64>(), 64); // every job placed
/// assert!(run.makespan >= 8);                       // sqrt(64) is optimal
/// ```
pub fn run_unit(instance: &Instance, cfg: &UnitConfig) -> Result<UnitRun, SimError> {
    let mut engine = unit_engine(instance, cfg, None);
    let report = engine.run()?;
    Ok(finish_unit_run(engine, report))
}

/// Runs one of the six unit-job algorithms under a deterministic fault
/// plan: downed/delayed/capped links hold buckets back (the engine re-sends
/// them as the fault allows) and stalled processors defer both their
/// initial emission and their drop-off negotiations to their next executed
/// step. All work is still placed and processed; only the makespan and the
/// fault counters in `report.metrics` change.
pub fn run_unit_faulty(
    instance: &Instance,
    cfg: &UnitConfig,
    plan: &FaultPlan,
) -> Result<UnitRun, SimError> {
    let mut engine = unit_engine(instance, cfg, Some(plan.clone()));
    let report = engine.run()?;
    Ok(finish_unit_run(engine, report))
}

/// Runs a unit-job algorithm with snapshotting: `sink` receives a
/// [`Snapshot`] at every `every`-step boundary (the CLI writes them to
/// disk). The snapshots and the final [`UnitRun`] are identical to the
/// uncheckpointed run's. `_shards` is ignored — the ring engine has one
/// executor ([`Engine::par_run`]) — and goes with the next `benchmark` PR.
pub fn run_unit_checkpointed<F>(
    instance: &Instance,
    cfg: &UnitConfig,
    plan: Option<&FaultPlan>,
    _shards: Option<usize>,
    every: u64,
    meta: &str,
    sink: F,
) -> Result<UnitRun, SimError>
where
    F: FnMut(&Snapshot) -> Result<(), CheckpointError> + Send + 'static,
{
    let nodes = build_unit_nodes(instance, cfg);
    let engine_cfg = EngineConfig {
        max_steps: cfg.max_steps,
        trace: cfg.trace,
        observe: cfg.observe,
        faults: plan.cloned(),
        checkpoint_meta: meta.to_string(),
        ..EngineConfig::default()
    }
    .checkpoint_every(every);
    let mut engine = Engine::new(nodes, instance.total_work(), engine_cfg);
    engine.on_checkpoint(sink);
    let report = engine.run()?;
    Ok(finish_unit_run(engine, report))
}

/// Resumes a unit-job run from a [`Snapshot`] and runs it to completion.
///
/// The policy configuration (`variant`, `directionality`, `c`) is rebuilt
/// from `cfg` — it is deliberately not in the snapshot — while everything
/// the interrupted run had computed (node state, in-flight messages, the
/// fault plan with its staged queues, metrics, trace, observability) is
/// restored from the snapshot. The completed [`UnitRun`] is bit-for-bit
/// identical to the uninterrupted run's. `_shards` is ignored, as in
/// [`run_unit_checkpointed`].
pub fn resume_unit(
    cfg: &UnitConfig,
    snap: &Snapshot,
    _shards: Option<usize>,
) -> Result<UnitRun, SimError> {
    // Initial loads only seed node state, which the snapshot overwrites;
    // the ring size is taken from the snapshot itself.
    let nodes: Vec<UnitNode> = (0..snap.m).map(|_| UnitNode::new(cfg, 0)).collect();
    let engine_cfg = EngineConfig {
        max_steps: cfg.max_steps,
        trace: cfg.trace,
        observe: cfg.observe,
        ..EngineConfig::default()
    };
    let mut engine =
        Engine::resume(nodes, engine_cfg, snap).map_err(|error| SimError::Checkpoint {
            step: snap.t,
            error,
        })?;
    let report = engine.run()?;
    Ok(finish_unit_run(engine, report))
}

fn unit_engine(
    instance: &Instance,
    cfg: &UnitConfig,
    faults: Option<FaultPlan>,
) -> Engine<UnitNode> {
    let nodes = build_unit_nodes(instance, cfg);
    let engine_cfg = EngineConfig {
        max_steps: cfg.max_steps,
        trace: cfg.trace,
        observe: cfg.observe,
        faults,
        ..EngineConfig::default()
    };
    Engine::new(nodes, instance.total_work(), engine_cfg)
}

fn finish_unit_run(engine: Engine<UnitNode>, report: RunReport) -> UnitRun {
    let nodes = engine.into_nodes();
    let max_bucket_travel = nodes.iter().map(|n| n.max_travel_seen).max().unwrap_or(0);
    let wrapped = nodes.iter().any(|n| n.saw_balancing);
    let assigned = nodes.iter().map(|n| n.ledger.accepted_int).collect();
    UnitRun {
        makespan: report.makespan,
        max_bucket_travel,
        wrapped,
        assigned,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_opt::exact::{optimum_uncapacitated, SolverBudget};
    use ring_sim::validate_run;

    fn opt(inst: &Instance, hint: u64) -> u64 {
        optimum_uncapacitated(inst, Some(hint), &SolverBudget::default()).value()
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<String> = UnitConfig::all_six()
            .iter()
            .map(|(_, c)| c.name())
            .collect();
        assert_eq!(names, vec!["A1", "B1", "C1", "A2", "B2", "C2"]);
    }

    #[test]
    fn empty_instance_all_variants() {
        let inst = Instance::empty(8);
        for (_, cfg) in UnitConfig::all_six() {
            let run = run_unit(&inst, &cfg).unwrap();
            assert_eq!(run.makespan, 0);
        }
    }

    #[test]
    fn single_processor_ring_runs_locally() {
        let inst = Instance::from_loads(vec![23]);
        for (_, cfg) in UnitConfig::all_six() {
            let run = run_unit(&inst, &cfg).unwrap();
            assert_eq!(run.makespan, 23, "{}", cfg.name());
        }
    }

    #[test]
    fn all_variants_conserve_work() {
        let inst = Instance::from_loads(vec![40, 0, 3, 19, 0, 0, 7, 0, 0, 1]);
        for (_, cfg) in UnitConfig::all_six() {
            let run = run_unit(&inst, &cfg).unwrap();
            let total: u64 = run.assigned.iter().sum();
            assert_eq!(total, 70, "{}", cfg.name());
            assert_eq!(run.report.metrics.total_processed(), 70);
        }
    }

    #[test]
    fn traces_validate_for_all_variants() {
        let inst = Instance::from_loads(vec![25, 0, 0, 9, 0, 2, 0, 0]);
        for (_, cfg) in UnitConfig::all_six() {
            let run = run_unit(&inst, &cfg.with_trace()).unwrap();
            let violations = validate_run(&inst, &run.report);
            assert!(violations.is_empty(), "{}: {violations:?}", cfg.name());
        }
    }

    #[test]
    fn c1_respects_theorem1_bound() {
        // makespan <= 4.22·OPT + 2 (Corollary 1) on a spread of instances.
        let cases = [
            Instance::concentrated(64, 0, 1000),
            Instance::from_loads(vec![100, 0, 0, 0, 100, 0, 0, 0]),
            Instance::from_loads((0..50).map(|i| (i % 7) as u64).collect()),
            Instance::from_loads(vec![500, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
        ];
        for inst in &cases {
            let run = run_unit(inst, &UnitConfig::c1()).unwrap();
            let o = opt(inst, run.makespan);
            assert!(
                run.makespan as f64 <= 4.22 * o as f64 + 2.0,
                "makespan {} vs 4.22·{} + 2",
                run.makespan,
                o
            );
        }
    }

    #[test]
    fn all_variants_below_worst_case_on_concentrated() {
        // No variant should be catastrophically bad on the canonical
        // concentrated instance (paper: all six behaved well).
        let inst = Instance::concentrated(128, 0, 4096);
        let o = 64; // sqrt(4096)
        for (_, cfg) in UnitConfig::all_six() {
            let run = run_unit(&inst, &cfg).unwrap();
            assert!(
                run.makespan <= 6 * o,
                "{}: makespan {} vs OPT {}",
                cfg.name(),
                run.makespan,
                o
            );
        }
    }

    #[test]
    fn integral_close_to_fractional_shadow() {
        // Lemma 6: the integral algorithm finishes at most 2 steps after
        // the fractional one (we allow +3 for the ceil on the fractional
        // makespan).
        use crate::fractional::{run_fractional, FractionalConfig};
        let cases = [
            Instance::concentrated(100, 0, 900),
            Instance::from_loads(vec![50, 20, 0, 0, 10, 0, 70, 0, 0, 0, 0, 0]),
        ];
        for inst in &cases {
            let int = run_unit(inst, &UnitConfig::c1()).unwrap();
            let frac = run_fractional(inst, &FractionalConfig::default());
            assert!(
                int.makespan as f64 <= frac.makespan.ceil() + 3.0,
                "integral {} vs fractional {}",
                int.makespan,
                frac.makespan
            );
        }
    }

    #[test]
    fn wraparound_small_ring_heavy_load() {
        let inst = Instance::concentrated(6, 0, 50_000);
        let run = run_unit(&inst, &UnitConfig::c1()).unwrap();
        assert!(run.wrapped);
        // Lemma 5: schedule <= 2m + L-ish; L = ceil(50000/6) = 8334.
        assert!(
            run.makespan <= 8334 + 2 * 6 + 2,
            "makespan {}",
            run.makespan
        );
    }

    #[test]
    fn bidirectional_splits_traffic() {
        let inst = Instance::concentrated(256, 0, 10_000);
        let uni = run_unit(&inst, &UnitConfig::c1()).unwrap();
        let bi = run_unit(&inst, &UnitConfig::c2()).unwrap();
        // Both directions are used by C2.
        assert!(bi.makespan <= uni.makespan + 2);
        // C2's buckets travel less far per direction on a concentrated pile.
        assert!(bi.max_bucket_travel <= uni.max_bucket_travel + 1);
    }

    #[test]
    fn two_processor_ring_bidirectional_degenerates() {
        let inst = Instance::from_loads(vec![10, 0]);
        let run = run_unit(&inst, &UnitConfig::c2()).unwrap();
        let total: u64 = run.assigned.iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn makespan_at_least_lower_bound_always() {
        let cases = [
            Instance::concentrated(32, 7, 333),
            Instance::from_loads(vec![12, 5, 0, 0, 44, 3, 0, 0, 0, 9]),
        ];
        for inst in &cases {
            let lb = ring_opt::uncapacitated_lower_bound(inst);
            for (_, cfg) in UnitConfig::all_six() {
                let run = run_unit(inst, &cfg).unwrap();
                assert!(
                    run.makespan >= lb,
                    "{}: {} < {}",
                    cfg.name(),
                    run.makespan,
                    lb
                );
            }
        }
    }

    #[test]
    fn custom_c_changes_behavior() {
        let inst = Instance::concentrated(200, 0, 2500);
        let tight = run_unit(&inst, &UnitConfig::c1().with_c(3.0)).unwrap();
        let loose = run_unit(&inst, &UnitConfig::c1().with_c(0.9)).unwrap();
        assert!(tight.max_bucket_travel < loose.max_bucket_travel);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_c_rejected() {
        let inst = Instance::concentrated(4, 0, 4);
        let _ = run_unit(&inst, &UnitConfig::c1().with_c(0.0));
    }
}
