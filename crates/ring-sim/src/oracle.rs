//! The trace-replay invariant oracle.
//!
//! The engine enforces the machine model online; this module re-derives the
//! paper's correctness story *from the recorded trace alone*, so that a bug
//! in a policy — or in the engine's own accounting — that fabricates,
//! duplicates, or teleports work is caught by an independent code path.
//!
//! Two entry points:
//!
//! * [`check_report`] needs only the [`RunReport`] (no instance): unit
//!   speed, fault legality (nothing processed while stalled, nothing sent
//!   over a downed or over-capacity link), the cumulative I1/I2 (unit jobs)
//!   and A1/A2 (arbitrary sizes) rounding constraints replayed from the
//!   audited [`Event::DroppedOff`] ledger, ledger monotonicity, makespan
//!   consistency, and drop-off/processing accounting. This is what the
//!   engine's `self-check` feature runs after every traced run.
//! * [`check_run`] additionally replays conservation/causality against the
//!   [`Instance`]: sends debit the sender when they *depart*, credit the
//!   receiver one step later, and no node's resident work may ever go
//!   negative — under faults this is exactly why recording `Sent` events at
//!   link departure (rather than at the policy's push) matters.
//!
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
use crate::fault::FaultPlan;
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
    let mut violations = Vec::new();
    if !matches!(report.trace.level(), TraceLevel::Full) {
        return vec![OracleViolation::TraceUnavailable];
    }
    // Defensive copy: engine traces are already in `(step, node)` order, but
    // hand-built (or corrupted) traces need not be.
    let mut events = report.trace.events().to_vec();
    events.sort_by_key(|e| match *e {
        Event::Processed { t, node, .. }
        | Event::Sent { t, node, .. }
        | Event::SentOn { t, node, .. }
        | Event::DroppedOff { t, node, .. } => (t, node),
    });

    let mut processed_in_cell: u64 = 0;
    let mut cell: Option<(u64, usize)> = None;
    let mut last_busy: Option<u64> = None;

    let mut buckets: HashMap<u64, BucketState> = HashMap::new();
    let mut nodes: Vec<NodeState> = (0..m)
        .map(|_| NodeState {
            accepted_int: 0,
            accepted_units: 0,
            cum_accept_frac: 0.0,
            constrained: true,
        })
        .collect();
    let mut any_drop_events = false;

    for ev in &events {
        match *ev {
            Event::Processed { t, node, units } => {
                if cell != Some((t, node)) {
                    cell = Some((t, node));
                    processed_in_cell = 0;
                }
                processed_in_cell += units;
                if processed_in_cell > 1 {
                    violations.push(OracleViolation::Overwork {
                        node,
                        step: t,
                        units: processed_in_cell,
                    });
                }
                if units > 0 {
                    last_busy = Some(last_busy.map_or(t, |b| b.max(t)));
                }
                if let Some(plan) = plan {
                    if units > 0 && !plan.node_runs(node, t) {
                        violations.push(OracleViolation::ProcessedWhileStalled { node, step: t });
                    }
                }
            }
            Event::Sent {
                t,
                node,
                dir,
                job_units,
            } => {
                if let Some(plan) = plan {
                    // A departure during its owner's stall is fine — links
                    // drain independently of the processor — but nothing
                    // departs a downed or over-capacity link.
                    if plan.link_down(node, dir, t) {
                        violations.push(OracleViolation::SentOnDownLink { node, step: t, dir });
                    }
                    if let Some(cap) = plan.link_cap(node, dir, t) {
                        if job_units > cap {
                            violations.push(OracleViolation::BandwidthExceeded {
                                node,
                                step: t,
                                dir,
                                payload: job_units,
                                cap,
                            });
                        }
                    }
                }
            }
            Event::SentOn {
                t,
                node,
                port,
                job_units,
            } => {
                // Fabric sends: fault plans speak cw/ccw, which every
                // topology maps onto ports 0/1 (its embedded ring
                // orientation). Higher ports have no fault epochs.
                if let Some(plan) = plan {
                    if let Some(&dir) = Direction::BOTH.get(port) {
                        if plan.link_down(node, dir, t) {
                            violations.push(OracleViolation::SentOnDownLink { node, step: t, dir });
                        }
                        if let Some(cap) = plan.link_cap(node, dir, t) {
                            if job_units > cap {
                                violations.push(OracleViolation::BandwidthExceeded {
                                    node,
                                    step: t,
                                    dir,
                                    payload: job_units,
                                    cap,
                                });
                            }
                        }
                    }
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
                any_drop_events = true;
                let cum_drop = f64::from_bits(cum_drop_frac_bits);
                let cum_accept = f64::from_bits(cum_accept_frac_bits);
                let b = buckets.entry(bucket).or_default();
                if !b.seen {
                    b.seen = true;
                    b.constrained = true;
                }
                if node >= m {
                    // A teleported/corrupted node index; report as a ledger
                    // problem rather than indexing out of bounds.
                    violations.push(OracleViolation::NonMonotoneLedger {
                        node,
                        bucket,
                        step: t,
                    });
                    continue;
                }
                let n = &mut nodes[node];
                if cum_drop + EPS < b.cum_drop_frac || cum_accept + EPS < n.cum_accept_frac {
                    violations.push(OracleViolation::NonMonotoneLedger {
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
                                violations.push(OracleViolation::I1Exceeded {
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
                                violations.push(OracleViolation::I2Exceeded {
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

    let derived = last_busy.map_or(0, |t| t + 1);
    if derived != report.makespan {
        violations.push(OracleViolation::MakespanMismatch {
            reported: report.makespan,
            derived,
        });
    }

    // Bucket policies process exactly the work they audited as dropped off,
    // node by node. Policies that don't audit (relay chains, the §7
    // capacitated algorithm) record no DroppedOff events and skip this.
    if any_drop_events {
        for (node, state) in nodes.iter().enumerate() {
            let processed = report
                .metrics
                .processed_per_node
                .get(node)
                .copied()
                .unwrap_or(0);
            if state.accepted_units != processed {
                violations.push(OracleViolation::DropAccountingMismatch {
                    node,
                    dropped: state.accepted_units,
                    processed,
                });
            }
        }
    }

    violations
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
    let mut violations = check_report(report, m, plan);
    if violations == vec![OracleViolation::TraceUnavailable] {
        return violations;
    }
    let topo = RingTopology::new(m);

    // Replay. balance[i] = resident work currently at node i.
    let mut balance: Vec<i128> = instance.loads().iter().map(|&x| x as i128).collect();
    let mut arriving_now: Vec<i128> = vec![0; m];
    let mut arriving_next: Vec<i128> = vec![0; m];

    let mut processed_total: u64 = 0;
    let mut current_step: Option<u64> = None;

    let mut advance_to = |step: u64,
                          balance: &mut Vec<i128>,
                          arriving_now: &mut Vec<i128>,
                          arriving_next: &mut Vec<i128>| {
        while current_step.map_or(true, |c| c < step) {
            let next = current_step.map_or(0, |c| c + 1);
            if current_step.is_some() {
                // Deliveries sent in the step we are leaving arrive now.
                std::mem::swap(arriving_now, arriving_next);
                for (i, b) in balance.iter_mut().enumerate() {
                    *b += arriving_now[i];
                    arriving_now[i] = 0;
                }
            }
            current_step = Some(next);
        }
    };

    for ev in report.trace.events() {
        match *ev {
            Event::Processed { t, node, units } => {
                advance_to(t, &mut balance, &mut arriving_now, &mut arriving_next);
                if node >= m {
                    continue; // already reported by check_report
                }
                balance[node] -= units as i128;
                processed_total += units;
                if balance[node] < 0 {
                    violations.push(OracleViolation::NegativeBalance {
                        node,
                        step: t,
                        deficit: balance[node],
                    });
                }
            }
            Event::Sent {
                t,
                node,
                dir,
                job_units,
            } => {
                advance_to(t, &mut balance, &mut arriving_now, &mut arriving_next);
                if node >= m {
                    continue;
                }
                balance[node] -= job_units as i128;
                if balance[node] < 0 {
                    violations.push(OracleViolation::NegativeBalance {
                        node,
                        step: t,
                        deficit: balance[node],
                    });
                }
                let dest = topo.neighbor(node, dir);
                arriving_next[dest] += job_units as i128;
            }
            Event::SentOn {
                t,
                node,
                port,
                job_units,
            } => {
                // A ring run is never supposed to carry fabric sends, but a
                // hand-built trace might: debit the sender, and credit only
                // if the port maps onto the ring (0 = cw, 1 = ccw). A send
                // on a port the ring does not have loses the work and is
                // surfaced by the total-work check.
                advance_to(t, &mut balance, &mut arriving_now, &mut arriving_next);
                if node >= m {
                    continue;
                }
                balance[node] -= job_units as i128;
                if balance[node] < 0 {
                    violations.push(OracleViolation::NegativeBalance {
                        node,
                        step: t,
                        deficit: balance[node],
                    });
                }
                if let Some(&dir) = Direction::BOTH.get(port) {
                    let dest = topo.neighbor(node, dir);
                    arriving_next[dest] += job_units as i128;
                }
            }
            // Drop-offs move work from "travelling" to "resident at the
            // node it is already at" — no balance change.
            Event::DroppedOff { .. } => {}
        }
    }

    if processed_total != instance.total_work() {
        violations.push(OracleViolation::TotalMismatch {
            processed: processed_total,
            expected: instance.total_work(),
        });
    }
    violations
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
    let mut violations = check_report(report, n, plan);
    if violations == vec![OracleViolation::TraceUnavailable] {
        return violations;
    }

    let mut balance: Vec<i128> = loads.iter().map(|&x| x as i128).collect();
    let mut arriving_now: Vec<i128> = vec![0; n];
    let mut arriving_next: Vec<i128> = vec![0; n];

    let mut processed_total: u64 = 0;
    let mut current_step: Option<u64> = None;

    let mut advance_to = |step: u64,
                          balance: &mut Vec<i128>,
                          arriving_now: &mut Vec<i128>,
                          arriving_next: &mut Vec<i128>| {
        while current_step.map_or(true, |c| c < step) {
            let next = current_step.map_or(0, |c| c + 1);
            if current_step.is_some() {
                std::mem::swap(arriving_now, arriving_next);
                for (i, b) in balance.iter_mut().enumerate() {
                    *b += arriving_now[i];
                    arriving_now[i] = 0;
                }
            }
            current_step = Some(next);
        }
    };

    // Debits the sender and credits the port's peer one step later. A send
    // on a port the node does not have loses the work, which the trailing
    // total-work check surfaces.
    let send = |t: u64,
                node: usize,
                port: usize,
                job_units: u64,
                balance: &mut Vec<i128>,
                arriving_next: &mut Vec<i128>,
                violations: &mut Vec<OracleViolation>| {
        balance[node] -= job_units as i128;
        if balance[node] < 0 {
            violations.push(OracleViolation::NegativeBalance {
                node,
                step: t,
                deficit: balance[node],
            });
        }
        if port < topo.degree(node) {
            arriving_next[topo.peer(node, port)] += job_units as i128;
        }
    };

    for ev in report.trace.events() {
        match *ev {
            Event::Processed { t, node, units } => {
                advance_to(t, &mut balance, &mut arriving_now, &mut arriving_next);
                if node >= n {
                    continue; // already reported by check_report
                }
                balance[node] -= units as i128;
                processed_total += units;
                if balance[node] < 0 {
                    violations.push(OracleViolation::NegativeBalance {
                        node,
                        step: t,
                        deficit: balance[node],
                    });
                }
            }
            Event::SentOn {
                t,
                node,
                port,
                job_units,
            } => {
                advance_to(t, &mut balance, &mut arriving_now, &mut arriving_next);
                if node >= n {
                    continue;
                }
                send(
                    t,
                    node,
                    port,
                    job_units,
                    &mut balance,
                    &mut arriving_next,
                    &mut violations,
                );
            }
            Event::Sent {
                t,
                node,
                dir,
                job_units,
            } => {
                advance_to(t, &mut balance, &mut arriving_now, &mut arriving_next);
                if node >= n {
                    continue;
                }
                let port = match dir {
                    Direction::Cw => 0,
                    Direction::Ccw => 1,
                };
                send(
                    t,
                    node,
                    port,
                    job_units,
                    &mut balance,
                    &mut arriving_next,
                    &mut violations,
                );
            }
            Event::DroppedOff { .. } => {}
        }
    }

    let expected: u64 = loads.iter().sum();
    if processed_total != expected {
        violations.push(OracleViolation::TotalMismatch {
            processed: processed_total,
            expected,
        });
    }
    violations
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
