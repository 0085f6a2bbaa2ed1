//! A quota-relay workload exercising the count-coalesced message
//! representation and the executor's parked drainers.
//!
//! [`StreamNode`] moves indistinguishable unit jobs clockwise around the
//! ring: each node keeps incoming units up to a per-node quota and relays
//! the surplus. The policy can send its surplus either as one unit message
//! per job ([`Representation::PerUnit`]) or as a single count-coalesced run
//! ([`Representation::Coalesced`] via [`crate::engine::Outbox::push_n`]) —
//! by the
//! [`Payload::run_len`] metering contract the two produce **bit-for-bit
//! identical** [`crate::engine::RunReport`]s while the coalesced run costs
//! one arena slot instead of N. This is the workload behind the
//! `ringsched bench` throughput baseline and the representation-equivalence
//! proptests.
//!
//! The workload is for the unbounded-capacity model (§2–§6): a coalesced
//! run is one arena entry carrying many job units, which the §7
//! [`crate::engine::LinkCapacity::UnitJobs`] rule would reject.

use crate::checkpoint::{CheckpointError, Decoder, Encoder, Persist};
use crate::engine::{Coalesce, Engine, EngineConfig, Node, NodeCtx, Payload, Quiescence, StepIo};
use crate::topology::Direction;

/// A run of identical clockwise-travelling unit jobs: `StreamMsg(n)` stands
/// for `n` unit messages of one job each, so both [`Payload::job_units`]
/// and [`Payload::run_len`] are `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMsg(pub u64);

impl Payload for StreamMsg {
    fn job_units(&self) -> u64 {
        self.0
    }

    fn run_len(&self) -> u64 {
        self.0
    }
}

impl Coalesce for StreamMsg {
    fn coalesce(self, count: u64) -> Self {
        StreamMsg(self.0 * count)
    }
}

impl Persist for StreamMsg {
    fn save(&self, enc: &mut Encoder) {
        enc.u64(self.0);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(StreamMsg(dec.u64()?))
    }
}

/// How a [`StreamNode`] hands its surplus to the link layer. Both
/// representations describe the same logical message stream; the engine's
/// run-length metering makes them report identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// One arena entry per unit job (`n` calls to `push`): the seed
    /// engine's cost model, O(units) arena traffic.
    PerUnit,
    /// One count-coalesced arena entry per step and direction
    /// (`push_n(…, n)`): O(1) arena traffic per link per step.
    Coalesced,
}

/// A stream instance: where the unit jobs start and how many each node may
/// keep. Jobs travel clockwise; the run terminates once every unit has been
/// accepted and processed, so the quotas must cover the work
/// (`Σ quota ≥ Σ initial` — asserted by [`StreamSpec::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSpec {
    /// Unit jobs initially resident per node.
    pub initial: Vec<u64>,
    /// Units node `i` permanently accepts before relaying everything else.
    pub quota: Vec<u64>,
}

impl StreamSpec {
    /// Builds a spec from explicit per-node loads and quotas.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ, they are empty, or the quotas
    /// cannot absorb the work.
    pub fn new(initial: Vec<u64>, quota: Vec<u64>) -> Self {
        assert_eq!(initial.len(), quota.len(), "one quota per node");
        assert!(!initial.is_empty(), "need at least one node");
        assert!(
            quota.iter().sum::<u64>() >= initial.iter().sum::<u64>(),
            "quotas must cover the work or the surplus circulates forever"
        );
        StreamSpec { initial, quota }
    }

    /// The *spread* shape: `work` unit jobs concentrated on node 0, quotas
    /// split evenly (the first `work mod m` nodes take one extra). The
    /// relay stream shrinks by each node's share as it sweeps the ring —
    /// the message-heaviest stream shape, the benchmark's main axis.
    pub fn spread(m: usize, work: u64) -> Self {
        let mut initial = vec![0; m];
        initial[0] = work;
        let base = work / m as u64;
        let extra = (work % m as u64) as usize;
        let quota = (0..m).map(|i| base + u64::from(i < extra)).collect();
        StreamSpec { initial, quota }
    }

    /// The *drain* shape: `work` unit jobs on node 0, the whole quota on the
    /// antipodal node. After `m/2` transit rounds the sink drains `work`
    /// units in as many quiet rounds, parked on the executor's frontier.
    pub fn drain(m: usize, work: u64) -> Self {
        let mut initial = vec![0; m];
        initial[0] = work;
        let mut quota = vec![0; m];
        quota[m / 2] = work;
        StreamSpec { initial, quota }
    }

    /// Total unit jobs in the instance.
    pub fn total_work(&self) -> u64 {
        self.initial.iter().sum()
    }
}

/// One processor of the quota-relay workload (see the module docs).
#[derive(Debug, Clone)]
pub struct StreamNode {
    repr: Representation,
    quota: u64,
    accepted: u64,
    backlog: u64,
    initial: u64,
    emitted: bool,
}

impl StreamNode {
    /// Units this node has permanently accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }
}

impl Node for StreamNode {
    type Msg = StreamMsg;

    fn on_step(&mut self, _ctx: &NodeCtx, io: &mut StepIo<'_, StreamMsg>) -> u64 {
        // The initial load enters the stream on the first step, exactly as
        // if it had just arrived.
        let mut incoming = if self.emitted {
            0
        } else {
            self.emitted = true;
            self.initial
        };
        for msg in io.inbox.from_ccw.drain(..) {
            incoming += msg.job_units();
        }
        for msg in io.inbox.from_cw.drain(..) {
            incoming += msg.job_units();
        }
        let keep = incoming.min(self.quota - self.accepted);
        self.accepted += keep;
        self.backlog += keep;
        let surplus = incoming - keep;
        match self.repr {
            Representation::PerUnit => {
                for _ in 0..surplus {
                    io.out.push(Direction::Cw, StreamMsg(1));
                }
            }
            Representation::Coalesced => {
                io.out.push_n(Direction::Cw, StreamMsg(1), surplus);
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
        self.backlog + if self.emitted { 0 } else { self.initial }
    }

    fn quiescence(&self, _now: u64) -> Option<Quiescence> {
        // Once the initial load is in the stream the node only ever reacts
        // to arrivals; with empty inboxes it drains its backlog silently.
        self.emitted.then_some(Quiescence {
            span: u64::MAX,
            backlog: self.backlog,
        })
    }

    fn fast_forward(&mut self, steps: u64) {
        self.backlog -= self.backlog.min(steps);
    }

    // `repr` is deliberately not persisted: it is a message-layout choice,
    // and the two layouts report bit-identically, so a resumed run may even
    // switch it.
    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        enc.u64(self.quota);
        enc.u64(self.accepted);
        enc.u64(self.backlog);
        enc.u64(self.initial);
        enc.bool(self.emitted);
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.quota = dec.u64()?;
        self.accepted = dec.u64()?;
        self.backlog = dec.u64()?;
        self.initial = dec.u64()?;
        self.emitted = dec.bool()?;
        Ok(())
    }
}

/// Builds the ring of [`StreamNode`]s for a spec.
pub fn build_stream_nodes(spec: &StreamSpec, repr: Representation) -> Vec<StreamNode> {
    spec.initial
        .iter()
        .zip(&spec.quota)
        .map(|(&initial, &quota)| StreamNode {
            repr,
            quota,
            accepted: 0,
            backlog: 0,
            initial,
            emitted: false,
        })
        .collect()
}

/// Builds an [`Engine`] over the spec, ready for [`Engine::run`] or
/// [`Engine::par_run`].
pub fn stream_engine(
    spec: &StreamSpec,
    repr: Representation,
    config: EngineConfig,
) -> Engine<StreamNode> {
    Engine::new(build_stream_nodes(spec, repr), spec.total_work(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunReport;
    use crate::trace::TraceLevel;

    fn full_cfg(observe: bool) -> EngineConfig {
        EngineConfig {
            trace: TraceLevel::Full,
            observe,
            ..EngineConfig::default()
        }
    }

    /// A fully traced run, observed (so nobody parks) or not.
    fn run(spec: &StreamSpec, repr: Representation, observe: bool) -> RunReport {
        stream_engine(spec, repr, full_cfg(observe)).run().unwrap()
    }

    #[test]
    fn representations_report_identically_on_spread() {
        let spec = StreamSpec::spread(9, 70);
        let per_unit = run(&spec, Representation::PerUnit, true);
        let coalesced = run(&spec, Representation::Coalesced, true);
        assert_eq!(per_unit, coalesced);
        assert!(per_unit.metrics.messages_sent > 0);
    }

    #[test]
    fn representations_report_identically_on_drain() {
        // Unobserved, the sink parks for its whole drain and its events
        // come from the frontier's drainer list.
        let spec = StreamSpec::drain(8, 500);
        let per_unit = run(&spec, Representation::PerUnit, false);
        let coalesced = run(&spec, Representation::Coalesced, false);
        assert_eq!(per_unit, coalesced);
        // The drain shape really is dominated by quiet rounds.
        assert!(coalesced.makespan > 500);
        assert_eq!(coalesced.trace.total_processed(), 500);
    }

    #[test]
    fn all_four_variants_agree() {
        let spec = StreamSpec::new(vec![13, 0, 5, 40, 0, 1], vec![9, 9, 9, 9, 9, 14]);
        let base = run(&spec, Representation::PerUnit, true);
        for repr in [Representation::PerUnit, Representation::Coalesced] {
            for observe in [false, true] {
                let mut report = run(&spec, repr, observe);
                if !observe {
                    report.observability = base.observability.clone();
                }
                assert_eq!(base, report, "{repr:?}/observe={observe}");
            }
        }
        assert_eq!(base.metrics.total_processed(), spec.total_work());
    }

    #[test]
    fn par_run_matches_run() {
        let spec = StreamSpec::spread(12, 200);
        let seq = run(&spec, Representation::Coalesced, false);
        for shards in [2, 3, 7] {
            let par = stream_engine(&spec, Representation::Coalesced, full_cfg(false))
                .par_run(shards)
                .unwrap();
            assert_eq!(seq, par, "{shards} shards");
        }
    }

    #[test]
    fn link_series_counts_units_not_arena_entries() {
        let spec = StreamSpec::drain(8, 500);
        let per_unit = run(&spec, Representation::PerUnit, true);
        let coalesced = run(&spec, Representation::Coalesced, true);
        assert_eq!(per_unit.observability, coalesced.observability);
        let obs = coalesced.observability.as_ref().unwrap();
        // 500 units leave node 0 clockwise in one burst: the per-link series
        // reports 500 logical messages whether they travelled as 500 arena
        // entries or one coalesced run.
        assert_eq!(obs.links.cw_messages[0], 500);
        assert_eq!(
            per_unit.metrics.messages_sent,
            coalesced.metrics.messages_sent
        );
    }

    #[test]
    fn singleton_ring_drains_locally() {
        let spec = StreamSpec::new(vec![25], vec![25]);
        let report = run(&spec, Representation::Coalesced, false);
        assert_eq!(report.makespan, 25);
        assert_eq!(report.metrics.messages_sent, 0);
    }
}
