//! The trace-replay invariant oracle.
//!
//! The engine enforces the machine model online; this module re-derives the
//! paper's correctness story *from the recorded trace alone*, so that a bug
//! in a policy — or in the engine's own accounting — that fabricates,
//! duplicates, or teleports work is caught by an independent code path.
//!
//! Three entry points, one replay:
//!
//! * [`check_report`] needs only the [`RunReport`] (no instance): unit
//!   speed, fault legality (nothing processed while stalled, nothing sent
//!   over a downed or over-capacity link), the cumulative I1/I2 (unit jobs)
//!   and A1/A2 (arbitrary sizes) rounding constraints replayed from the
//!   audited [`Event::DroppedOff`] ledger, ledger monotonicity, makespan
//!   consistency, and drop-off/processing accounting. This is what the
//!   engine's `self-check` feature runs after every traced run, and what
//!   [`crate::TraceFile::check`] runs on a decoded trace.
//! * [`check_run`] additionally replays conservation/causality against the
//!   [`Instance`]: sends debit the sender when they *depart*, credit the
//!   receiver one step later, and no node's resident work may ever go
//!   negative — under faults this is exactly why recording `Sent` events at
//!   link departure (rather than at the policy's push) matters.
//! * [`check_fabric_run`] is the same replay over any [`Topology`].
//!
//! All of them are thin wrappers over one private core that borrows the
//! event slice and makes every check in a single pass. Engine traces are
//! already in `(step, node)` order and are read in place; only a trace
//! that is not (a hand-built or corrupted one) is copied and stably
//! sorted first, so such a trace gets the verdict of its sorted copy. The
//! fault plan is laid out once per check as a per-node table, so a fault
//! query reads only the faults of the node it asks about.

//! ## Fault-aware slack
//!
//! The I1/I2/A1/A2 constraints need **no** extra slack under faults: they
//! are indexed by *drop events*, not by time, and a held-back or re-sent
//! bucket changes when drops happen, never how much may be dropped. The
//! fault plan only enters the legality checks (a `Processed` event inside a
//! stall epoch, a `Sent` event on a downed link, payload above a bandwidth
//! cap — each deterministically checkable because the plan is a pure
//! function of `(node, link, step)`).
//!
//! ## Coalescing and step compression
//!
//! The oracle needs no special handling for either engine optimization:
//! `Sent` events aggregate per (node, direction, step) with run-length
//! weighted message counts, so a coalesced run and the equivalent per-unit
//! burst produce the same trace; and quiescent-span step compression
//! synthesizes the *expanded* per-step `Processed` events before fast
//! forwarding, so a compressed run's trace is indistinguishable from the
//! step-by-step one. The invariance is proved by the representation- and
//! compression-equivalence proptests in `tests/engine_equivalence.rs`,
//! which run every variant through [`check_run`].

use std::collections::HashMap;

use crate::engine::RunReport;
use crate::fault::{FaultPlan, FaultTable};
use crate::instance::Instance;
use crate::topology::{Direction, RingTopology};
use crate::trace::{DropKind, Event, TraceLevel};
use ring_topology::{AnyTopology, Topology};

/// Numeric tolerance of the fractional ledger checks (matches the shadow
/// bookkeeping in `ring-sched`).
const EPS: f64 = 1e-9;

/// Ceiling with a small tolerance so accumulated floating-point noise like
/// `4.999999999` rounds to `5` rather than `6` (duplicated from
/// `ring-sched`, which keeps its copy crate-private).
fn ceil_tol(x: f64) -> u64 {
    let c = (x - EPS).ceil();
    if c <= 0.0 {
        0
    } else {
        c as u64
    }
}

/// A violation found by the oracle (empty result = the run checks out).
#[derive(Debug, Clone, PartialEq)]
pub enum OracleViolation {
    /// The trace was not recorded at full detail, so it cannot be checked.
    TraceUnavailable,
    /// A node processed more than one unit in one step.
    Overwork {
        /// Offending node.
        node: usize,
        /// Step index.
        step: u64,
        /// Units processed in that step.
        units: u64,
    },
    /// A node processed work during a step its fault plan forbade.
    ProcessedWhileStalled {
        /// Offending node.
        node: usize,
        /// Step index.
        step: u64,
    },
    /// A message departed over a link that was dropping at that step.
    SentOnDownLink {
        /// Sending node.
        node: usize,
        /// Step index.
        step: u64,
        /// Link direction.
        dir: Direction,
    },
    /// More payload departed over a link than its bandwidth cap allowed.
    BandwidthExceeded {
        /// Sending node.
        node: usize,
        /// Step index.
        step: u64,
        /// Link direction.
        dir: Direction,
        /// Payload that departed.
        payload: u64,
        /// The active cap.
        cap: u64,
    },
    /// A node's replayed resident work went negative: it processed or
    /// forwarded work it could not yet have had.
    NegativeBalance {
        /// Offending node.
        node: usize,
        /// Step index at which the balance went negative.
        step: u64,
        /// The (negative) balance.
        deficit: i128,
    },
    /// Total processed work differs from the instance total.
    TotalMismatch {
        /// Processed according to the trace.
        processed: u64,
        /// Instance total.
        expected: u64,
    },
    /// Reported makespan disagrees with the last processing event.
    MakespanMismatch {
        /// Makespan in the report.
        reported: u64,
        /// Makespan derived from the trace.
        derived: u64,
    },
    /// A bucket's cumulative integral drop overran its I1/A1 bound
    /// (`ceil(cumulative fractional drop) + p_max`).
    I1Exceeded {
        /// Offending bucket.
        bucket: u64,
        /// Step of the overrunning drop event.
        step: u64,
        /// Cumulative integral units dropped from the bucket.
        dropped_int: u64,
        /// The bound derived from the fractional ledger.
        bound: u64,
    },
    /// A node's cumulative integral acceptance overran its I2/A2 bound
    /// (`1 + ceil(cumulative fractional acceptance) + p_max`).
    I2Exceeded {
        /// Offending node.
        node: usize,
        /// Step of the overrunning drop event.
        step: u64,
        /// Cumulative integral units the node accepted.
        accepted_int: u64,
        /// The bound derived from the fractional ledger.
        bound: u64,
    },
    /// A cumulative fractional ledger decreased between two audited events
    /// (fractional shadows only ever grow).
    NonMonotoneLedger {
        /// Node of the offending event.
        node: usize,
        /// Bucket of the offending event.
        bucket: u64,
        /// Step of the offending event.
        step: u64,
    },
    /// A node's audited drop-offs disagree with the work it processed: the
    /// bucket algorithms only process work they accepted, so the per-node
    /// sums must match exactly.
    DropAccountingMismatch {
        /// Offending node.
        node: usize,
        /// Units of work the node accepted according to the audit events.
        dropped: u64,
        /// Units the node processed according to the metrics.
        processed: u64,
    },
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleViolation::TraceUnavailable => {
                write!(f, "run was not recorded with TraceLevel::Full")
            }
            OracleViolation::Overwork { node, step, units } => {
                write!(f, "node {node} processed {units} units in step {step}")
            }
            OracleViolation::ProcessedWhileStalled { node, step } => {
                write!(f, "node {node} processed work while stalled at step {step}")
            }
            OracleViolation::SentOnDownLink { node, step, dir } => {
                write!(f, "node {node} sent {dir:?} over a downed link at step {step}")
            }
            OracleViolation::BandwidthExceeded {
                node,
                step,
                dir,
                payload,
                cap,
            } => write!(
                f,
                "node {node} sent {payload} payload {dir:?} at step {step}, cap was {cap}"
            ),
            OracleViolation::NegativeBalance {
                node,
                step,
                deficit,
            } => write!(
                f,
                "node {node} work balance went negative ({deficit}) at step {step}"
            ),
            OracleViolation::TotalMismatch {
                processed,
                expected,
            } => write!(f, "processed {processed} units, instance has {expected}"),
            OracleViolation::MakespanMismatch { reported, derived } => {
                write!(f, "reported makespan {reported}, trace says {derived}")
            }
            OracleViolation::I1Exceeded {
                bucket,
                step,
                dropped_int,
                bound,
            } => write!(
                f,
                "bucket {bucket} dropped {dropped_int} integral units by step {step}, I1/A1 allows {bound}"
            ),
            OracleViolation::I2Exceeded {
                node,
                step,
                accepted_int,
                bound,
            } => write!(
                f,
                "node {node} accepted {accepted_int} integral units by step {step}, I2/A2 allows {bound}"
            ),
            OracleViolation::NonMonotoneLedger { node, bucket, step } => write!(
                f,
                "cumulative ledger of bucket {bucket} / node {node} decreased at step {step}"
            ),
            OracleViolation::DropAccountingMismatch {
                node,
                dropped,
                processed,
            } => write!(
                f,
                "node {node} accepted {dropped} units via drop-offs but processed {processed}"
            ),
        }
    }
}

/// Per-bucket I1/A1 replay state.
#[derive(Default)]
struct BucketState {
    dropped_int: u64,
    cum_drop_frac: f64,
    /// False once the bucket entered its balancing/spill phase: from there
    /// the wrap-around rule of Lemma 5 governs, not the rounding ledger.
    constrained: bool,
    seen: bool,
}

/// Per-node I2/A2 replay state.
struct NodeState {
    accepted_int: u64,
    accepted_units: u64,
    cum_accept_frac: f64,
    constrained: bool,
}

/// The parts of a recorded run the oracle reads, borrowed from a
/// [`RunReport`] or a [`crate::TraceFile`] alike.
struct Recorded<'a> {
    level: TraceLevel,
    events: &'a [Event],
    makespan: u64,
    processed_per_node: &'a [u64],
}

impl<'a> Recorded<'a> {
    fn of(report: &'a RunReport) -> Self {
        Recorded {
            level: report.trace.level(),
            events: report.trace.events(),
            makespan: report.makespan,
            processed_per_node: &report.metrics.processed_per_node,
        }
    }
}

/// The instance side of the conservation replay: the initial loads, and
/// where a send out of `(node, port)` arrives (`None` loses the work). Ring
/// sends travel on ports 0 (cw) and 1 (ccw).
struct Replay<'a> {
    loads: &'a [u64],
    route: &'a dyn Fn(usize, usize) -> Option<usize>,
}

/// The oracle's one replay: every check runs in a single pass over the
/// borrowed events, in `(step, node)` order. Engine traces are already in
/// that order and are read in place; a hand-built or corrupted trace that
/// is not gets a stably sorted copy. Violations come in a fixed order: the
/// report checks event by event, then makespan and drop-off accounting,
/// then (with a `replay`) the negative balances event by event and the
/// total-work check.
fn check_recorded(
    run: Recorded<'_>,
    m: usize,
    plan: Option<&FaultPlan>,
    replay: Option<Replay<'_>>,
) -> Vec<OracleViolation> {
    if !matches!(run.level, TraceLevel::Full) {
        return vec![OracleViolation::TraceUnavailable];
    }
    let sorted: Vec<Event>;
    let events = if run.events.windows(2).all(|w| cell(&w[0]) <= cell(&w[1])) {
        run.events
    } else {
        sorted = {
            let mut copy = run.events.to_vec();
            copy.sort_by_key(cell);
            copy
        };
        &sorted
    };
    let mut report = ReportCheck::new(m, plan);
    let mut conservation = replay.map(|r| Conservation::new(r, m));
    for ev in events {
        report.event(ev);
        if let Some(c) = conservation.as_mut() {
            c.event(ev);
        }
    }
    let mut violations = report.finish(run.makespan, run.processed_per_node);
    if let Some(c) = conservation {
        violations.extend(c.finish());
    }
    violations
}

/// The `(step, node)` cell an event belongs to.
fn cell(ev: &Event) -> (u64, usize) {
    match *ev {
        Event::Processed { t, node, .. }
        | Event::Sent { t, node, .. }
        | Event::SentOn { t, node, .. }
        | Event::DroppedOff { t, node, .. } => (t, node),
    }
}

/// The checks [`check_report`] makes, fed one event at a time.
struct ReportCheck {
    m: usize,
    faults: Option<FaultTable>,
    processed_in_cell: u64,
    cell: Option<(u64, usize)>,
    last_busy: Option<u64>,
    /// Keyed by bucket ids read from the trace, which may come from a
    /// file: the default hasher keeps a crafted trace from forcing
    /// collisions, and costs no measurable time here (nothing iterates
    /// the map, so its order never reaches a verdict).
    buckets: HashMap<u64, BucketState>,
    nodes: Vec<NodeState>,
    any_drop_events: bool,
    violations: Vec<OracleViolation>,
}

impl ReportCheck {
    fn new(m: usize, plan: Option<&FaultPlan>) -> Self {
        ReportCheck {
            m,
            faults: plan.map(|p| FaultTable::new(p, m)),
            processed_in_cell: 0,
            cell: None,
            last_busy: None,
            buckets: HashMap::new(),
            nodes: (0..m)
                .map(|_| NodeState {
                    accepted_int: 0,
                    accepted_units: 0,
                    cum_accept_frac: 0.0,
                    constrained: true,
                })
                .collect(),
            any_drop_events: false,
            violations: Vec::new(),
        }
    }

    /// Fault legality of a departure on `(node, dir)`: a departure during
    /// its owner's stall is fine — links drain independently of the
    /// processor — but nothing departs a downed or over-capacity link.
    fn check_link(&mut self, t: u64, node: usize, dir: Direction, job_units: u64) {
        let Some(faults) = &self.faults else { return };
        let link = faults.link(node, dir, t);
        if link.down {
            self.violations
                .push(OracleViolation::SentOnDownLink { node, step: t, dir });
        }
        if let Some(cap) = link.cap {
            if job_units > cap {
                self.violations.push(OracleViolation::BandwidthExceeded {
                    node,
                    step: t,
                    dir,
                    payload: job_units,
                    cap,
                });
            }
        }
    }

    fn event(&mut self, ev: &Event) {
        match *ev {
            Event::Processed { t, node, units } => {
                if self.cell != Some((t, node)) {
                    self.cell = Some((t, node));
                    self.processed_in_cell = 0;
                }
                self.processed_in_cell += units;
                if self.processed_in_cell > 1 {
                    self.violations.push(OracleViolation::Overwork {
                        node,
                        step: t,
                        units: self.processed_in_cell,
                    });
                }
                if units > 0 {
                    self.last_busy = Some(self.last_busy.map_or(t, |b| b.max(t)));
                    if self.faults.as_ref().is_some_and(|f| !f.node_runs(node, t)) {
                        self.violations
                            .push(OracleViolation::ProcessedWhileStalled { node, step: t });
                    }
                }
            }
            Event::Sent {
                t,
                node,
                dir,
                job_units,
            } => self.check_link(t, node, dir, job_units),
            Event::SentOn {
                t,
                node,
                port,
                job_units,
            } => {
                // Fabric sends: fault plans speak cw/ccw, which every
                // topology maps onto ports 0/1 (its embedded ring
                // orientation). Higher ports have no fault epochs.
                if let Some(&dir) = Direction::BOTH.get(port) {
                    self.check_link(t, node, dir, job_units);
                }
            }
            Event::DroppedOff {
                t,
                node,
                bucket,
                units,
                cum_drop_frac_bits,
                cum_accept_frac_bits,
                p_max_bucket,
                p_max_node,
                kind,
                ..
            } => {
                self.any_drop_events = true;
                let cum_drop = f64::from_bits(cum_drop_frac_bits);
                let cum_accept = f64::from_bits(cum_accept_frac_bits);
                let b = self.buckets.entry(bucket).or_default();
                if !b.seen {
                    b.seen = true;
                    b.constrained = true;
                }
                if node >= self.m {
                    // A teleported/corrupted node index; report as a ledger
                    // problem rather than indexing out of bounds.
                    self.violations.push(OracleViolation::NonMonotoneLedger {
                        node,
                        bucket,
                        step: t,
                    });
                    return;
                }
                let n = &mut self.nodes[node];
                if cum_drop + EPS < b.cum_drop_frac || cum_accept + EPS < n.cum_accept_frac {
                    self.violations.push(OracleViolation::NonMonotoneLedger {
                        node,
                        bucket,
                        step: t,
                    });
                }
                b.cum_drop_frac = b.cum_drop_frac.max(cum_drop);
                n.cum_accept_frac = n.cum_accept_frac.max(cum_accept);
                b.dropped_int += units;
                n.accepted_int += units;
                n.accepted_units += units;
                match kind {
                    DropKind::Regular => {
                        if b.constrained {
                            let bound = ceil_tol(b.cum_drop_frac) + p_max_bucket;
                            if b.dropped_int > bound {
                                self.violations.push(OracleViolation::I1Exceeded {
                                    bucket,
                                    step: t,
                                    dropped_int: b.dropped_int,
                                    bound,
                                });
                            }
                        }
                        if n.constrained {
                            let bound = 1 + ceil_tol(n.cum_accept_frac) + p_max_node;
                            if n.accepted_int > bound {
                                self.violations.push(OracleViolation::I2Exceeded {
                                    node,
                                    step: t,
                                    accepted_int: n.accepted_int,
                                    bound,
                                });
                            }
                        }
                    }
                    DropKind::Balancing | DropKind::Forced => {
                        // Lemma 5's wrap-around rule (or a forced spill)
                        // takes over: the rounding ledgers no longer bound
                        // this bucket, nor this node's shared acceptance
                        // ledger, from here on.
                        b.constrained = false;
                        n.constrained = false;
                    }
                }
            }
        }
    }

    fn finish(mut self, makespan: u64, processed_per_node: &[u64]) -> Vec<OracleViolation> {
        let derived = self.last_busy.map_or(0, |t| t + 1);
        if derived != makespan {
            self.violations.push(OracleViolation::MakespanMismatch {
                reported: makespan,
                derived,
            });
        }
        // Bucket policies process exactly the work they audited as dropped
        // off, node by node. Policies that don't audit (relay chains, the
        // §7 capacitated algorithm) record no DroppedOff events and skip
        // this.
        if self.any_drop_events {
            for (node, state) in self.nodes.iter().enumerate() {
                let processed = processed_per_node.get(node).copied().unwrap_or(0);
                if state.accepted_units != processed {
                    self.violations
                        .push(OracleViolation::DropAccountingMismatch {
                            node,
                            dropped: state.accepted_units,
                            processed,
                        });
                }
            }
        }
        self.violations
    }
}

/// The conservation/causality replay, fed one event at a time:
/// `balance[i]` is the work resident at node `i`, and `arriving` what this
/// step's sends deliver at the next.
struct Conservation<'a> {
    route: &'a dyn Fn(usize, usize) -> Option<usize>,
    expected: u64,
    balance: Vec<i128>,
    arriving: Vec<i128>,
    step: Option<u64>,
    processed: u64,
    violations: Vec<OracleViolation>,
}

impl<'a> Conservation<'a> {
    fn new(replay: Replay<'a>, m: usize) -> Self {
        debug_assert_eq!(replay.loads.len(), m);
        Conservation {
            route: replay.route,
            expected: replay.loads.iter().sum(),
            balance: replay.loads.iter().map(|&x| i128::from(x)).collect(),
            arriving: vec![0; m],
            step: None,
            processed: 0,
            violations: Vec::new(),
        }
    }

    /// Moves the replay to step `t`: what was sent in the step being left
    /// arrives now. Later steps in between deliver nothing, so a gap of any
    /// length costs one delivery.
    fn advance_to(&mut self, t: u64) {
        match self.step {
            Some(s) if s >= t => {}
            Some(_) => {
                for (b, a) in self.balance.iter_mut().zip(&mut self.arriving) {
                    *b += std::mem::take(a);
                }
                self.step = Some(t);
            }
            None => self.step = Some(t),
        }
    }

    /// Debits `units` from `node` at step `t`; a negative balance means
    /// the node used work it could not yet have had.
    fn debit(&mut self, t: u64, node: usize, units: u64) {
        self.balance[node] -= i128::from(units);
        if self.balance[node] < 0 {
            self.violations.push(OracleViolation::NegativeBalance {
                node,
                step: t,
                deficit: self.balance[node],
            });
        }
    }

    /// A send debits the sender at departure and credits the port's peer
    /// one step later. A send on a port the node does not have loses the
    /// work, which the trailing total-work check surfaces.
    fn send(&mut self, t: u64, node: usize, port: usize, units: u64) {
        self.debit(t, node, units);
        if let Some(dest) = (self.route)(node, port) {
            self.arriving[dest] += i128::from(units);
        }
    }

    fn event(&mut self, ev: &Event) {
        let (t, node) = cell(ev);
        self.advance_to(t);
        if node >= self.balance.len() {
            return; // already reported by the report checks
        }
        match *ev {
            Event::Processed { units, .. } => {
                self.processed += units;
                self.debit(t, node, units);
            }
            Event::Sent { dir, job_units, .. } => {
                let port = match dir {
                    Direction::Cw => 0,
                    Direction::Ccw => 1,
                };
                self.send(t, node, port, job_units);
            }
            Event::SentOn {
                port, job_units, ..
            } => self.send(t, node, port, job_units),
            // Drop-offs move work from "travelling" to "resident at the
            // node it is already at" — no balance change.
            Event::DroppedOff { .. } => {}
        }
    }

    fn finish(mut self) -> Vec<OracleViolation> {
        if self.processed != self.expected {
            self.violations.push(OracleViolation::TotalMismatch {
                processed: self.processed,
                expected: self.expected,
            });
        }
        self.violations
    }
}

/// Checks everything that can be checked from the report alone: unit speed,
/// fault legality, the I1/I2/A1/A2 drop ledgers, makespan consistency, and
/// drop-off accounting. Requires [`TraceLevel::Full`].
///
/// `m` is the ring size and `plan` the fault plan the run was executed
/// under (`None` = fault-free; every fault check then passes vacuously).
pub fn check_report(
    report: &RunReport,
    m: usize,
    plan: Option<&FaultPlan>,
) -> Vec<OracleViolation> {
    check_recorded(Recorded::of(report), m, plan, None)
}

/// Full validation: everything [`check_report`] covers plus the
/// conservation/causality replay against the instance — sends debit the
/// sender at departure and credit the ring neighbor one step later, no
/// balance may go negative, and the processed total must equal the
/// instance's work.
pub fn check_run(
    instance: &Instance,
    report: &RunReport,
    plan: Option<&FaultPlan>,
) -> Vec<OracleViolation> {
    let m = instance.num_processors();
    let topo = RingTopology::new(m);
    // A ring run is never supposed to carry fabric sends, but a hand-built
    // trace might: ports 0/1 are cw/ccw, any other port loses the work.
    let route = |node: usize, port: usize| {
        Direction::BOTH
            .get(port)
            .map(|&dir| topo.neighbor(node, dir))
    };
    let replay = Replay {
        loads: instance.loads(),
        route: &route,
    };
    check_recorded(Recorded::of(report), m, plan, Some(replay))
}

/// The topology-generic counterpart of [`check_run`]: everything
/// [`check_report`] covers plus the conservation/causality replay over an
/// arbitrary [`Topology`] — a fabric send on port `p` debits the sender at
/// departure and credits `topo.peer(node, p)` one step later. Ring-style
/// [`Event::Sent`] events are accepted too (cw/ccw map onto ports 0/1), so
/// the same replay covers lifted ring policies.
pub fn check_fabric_run(
    loads: &[u64],
    topo: &AnyTopology,
    report: &RunReport,
    plan: Option<&FaultPlan>,
) -> Vec<OracleViolation> {
    let n = topo.len();
    assert_eq!(loads.len(), n, "load vector must match the topology");
    let route =
        |node: usize, port: usize| (port < topo.degree(node)).then(|| topo.peer(node, port));
    let replay = Replay {
        loads,
        route: &route,
    };
    check_recorded(Recorded::of(report), n, plan, Some(replay))
}

/// [`check_report`] over a trace file's own fields, borrowing its events.
pub(crate) fn check_trace_file(file: &crate::TraceFile) -> Vec<OracleViolation> {
    let run = Recorded {
        level: file.level,
        events: &file.events,
        makespan: file.makespan,
        processed_per_node: &file.metrics.processed_per_node,
    };
    check_recorded(run, file.m, file.faults.as_ref(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, Node, NodeCtx, Payload, StepIo};
    use crate::metrics::Metrics;
    use crate::trace::Trace;

    struct LocalOnly {
        remaining: u64,
    }

    #[derive(Debug, Clone)]
    enum NoMsg {}

    impl Payload for NoMsg {
        fn job_units(&self) -> u64 {
            match *self {}
        }
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

    fn run_local(loads: Vec<u64>) -> (Instance, RunReport) {
        let inst = Instance::from_loads(loads.clone());
        let nodes: Vec<LocalOnly> = loads.iter().map(|&x| LocalOnly { remaining: x }).collect();
        let config = EngineConfig {
            trace: TraceLevel::Full,
            ..EngineConfig::default()
        };
        let report = Engine::new(nodes, inst.total_work(), config).run().unwrap();
        (inst, report)
    }

    #[test]
    fn honest_local_run_passes_both_checks() {
        let (inst, report) = run_local(vec![4, 0, 2]);
        assert!(check_report(&report, 3, None).is_empty());
        assert!(check_run(&inst, &report, None).is_empty());
    }

    #[test]
    fn off_trace_is_unavailable() {
        let inst = Instance::from_loads(vec![1]);
        let report = Engine::new(vec![LocalOnly { remaining: 1 }], 1, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(
            check_run(&inst, &report, None),
            vec![OracleViolation::TraceUnavailable]
        );
    }

    /// Builds a minimal full-trace report around a hand-written event list.
    fn report_from(m: usize, makespan: u64, events: Vec<Event>) -> RunReport {
        let mut metrics = Metrics::new(m);
        for ev in &events {
            if let Event::Processed { t, node, units } = *ev {
                metrics.processed_per_node[node] += units;
                metrics.last_busy_step = Some(t);
            }
        }
        RunReport {
            makespan,
            metrics,
            trace: Trace::from_events(TraceLevel::Full, events),
            observability: None,
        }
    }

    #[test]
    fn sends_arrive_across_steps_with_no_events() {
        // Node 0 sends its unit cw at step 0 and node 1 processes it at
        // step `t`, with nothing recorded in between; a gap of any length
        // is one delivery, not one replay step per skipped step.
        let inst = Instance::from_loads(vec![1, 0]);
        for t in [5, u64::MAX - 1] {
            let report = report_from(
                2,
                t + 1,
                vec![
                    Event::Sent {
                        t: 0,
                        node: 0,
                        dir: Direction::Cw,
                        job_units: 1,
                    },
                    Event::Processed {
                        t,
                        node: 1,
                        units: 1,
                    },
                ],
            );
            assert!(check_run(&inst, &report, None).is_empty(), "t = {t}");
        }
    }

    #[test]
    fn stall_violations_are_fault_aware() {
        let mut plan = FaultPlan::new();
        plan.add_proc_fault(crate::fault::ProcFault {
            node: 0,
            from: 0,
            until: 4,
            kind: crate::fault::ProcFaultKind::Stall,
        });
        let report = report_from(
            2,
            3,
            vec![Event::Processed {
                t: 2,
                node: 0,
                units: 1,
            }],
        );
        // Fault-free check is clean; under the plan the same trace is not.
        assert!(check_report(&report, 2, None).is_empty());
        assert!(check_report(&report, 2, Some(&plan))
            .iter()
            .any(|v| matches!(
                v,
                OracleViolation::ProcessedWhileStalled { node: 0, step: 2 }
            )));
    }

    #[test]
    fn down_link_and_cap_violations_are_detected() {
        let mut plan = FaultPlan::new();
        plan.add_link_fault(crate::fault::LinkFault {
            node: 1,
            dir: Direction::Cw,
            from: 0,
            until: 5,
            kind: crate::fault::LinkFaultKind::Drop,
        });
        plan.add_link_fault(crate::fault::LinkFault {
            node: 0,
            dir: Direction::Ccw,
            from: 0,
            until: 5,
            kind: crate::fault::LinkFaultKind::Bandwidth(1),
        });
        let report = report_from(
            3,
            0,
            vec![
                Event::Sent {
                    t: 1,
                    node: 1,
                    dir: Direction::Cw,
                    job_units: 1,
                },
                Event::Sent {
                    t: 2,
                    node: 0,
                    dir: Direction::Ccw,
                    job_units: 3,
                },
            ],
        );
        let violations = check_report(&report, 3, Some(&plan));
        assert!(violations.iter().any(|v| matches!(
            v,
            OracleViolation::SentOnDownLink {
                node: 1,
                step: 1,
                ..
            }
        )));
        assert!(violations.iter().any(|v| matches!(
            v,
            OracleViolation::BandwidthExceeded {
                node: 0,
                payload: 3,
                cap: 1,
                ..
            }
        )));
    }

    #[test]
    fn i1_overrun_is_detected() {
        // Two integral units dropped from one bucket against a cumulative
        // fractional drop of 1.2 → bound ceil(1.2) = 2, third unit breaks.
        let drop = |t: u64, units: u64, cum: f64| Event::DroppedOff {
            t,
            node: 0,
            bucket: 7,
            units,
            frac_bits: 0f64.to_bits(),
            cum_drop_frac_bits: cum.to_bits(),
            cum_accept_frac_bits: 10.0f64.to_bits(), // keep I2 slack
            p_max_bucket: 0,
            p_max_node: 0,
            kind: DropKind::Regular,
        };
        let report = report_from(2, 0, vec![drop(0, 2, 1.2), drop(1, 1, 1.2)]);
        let violations = check_report(&report, 2, None);
        assert!(violations.iter().any(|v| matches!(
            v,
            OracleViolation::I1Exceeded {
                bucket: 7,
                dropped_int: 3,
                bound: 2,
                ..
            }
        )));
    }

    #[test]
    fn balancing_phase_lifts_the_ledger_bounds() {
        let drop = |t: u64, units: u64, kind: DropKind| Event::DroppedOff {
            t,
            node: 0,
            bucket: 3,
            units,
            frac_bits: 0f64.to_bits(),
            cum_drop_frac_bits: 0f64.to_bits(),
            cum_accept_frac_bits: 0f64.to_bits(),
            p_max_bucket: 0,
            p_max_node: 0,
            kind,
        };
        // A balancing drop followed by heavy drops: no I1/I2 findings, only
        // the accounting check (which we satisfy via processed_per_node).
        let events = vec![
            drop(0, 1, DropKind::Balancing),
            drop(1, 5, DropKind::Forced),
        ];
        let mut report = report_from(2, 0, events);
        report.metrics.processed_per_node = vec![6, 0];
        assert!(check_report(&report, 2, None).is_empty());
    }

    #[test]
    fn drop_accounting_mismatch_is_detected() {
        let events = vec![Event::DroppedOff {
            t: 0,
            node: 1,
            bucket: 0,
            units: 2,
            frac_bits: 0f64.to_bits(),
            cum_drop_frac_bits: 2.0f64.to_bits(),
            cum_accept_frac_bits: 2.0f64.to_bits(),
            p_max_bucket: 0,
            p_max_node: 0,
            kind: DropKind::Regular,
        }];
        let report = report_from(2, 0, events); // processed_per_node stays 0
        assert!(check_report(&report, 2, None).iter().any(|v| matches!(
            v,
            OracleViolation::DropAccountingMismatch {
                node: 1,
                dropped: 2,
                processed: 0,
            }
        )));
    }
}
