//! Cost follows work, not ring size: a machine-independent guard on the
//! sequential engine's active-node frontier (DESIGN.md §6).
//!
//! A counting wrapper tallies `on_step` calls. After the one full sweep a
//! run starts with, the engine may step only nodes that have mail or whose
//! promise ran out; a node draining its backlog with empty inboxes is
//! parked and its drain booked later. So the call count is bounded by the
//! messages sent, is the same on a ring sixteen times larger, and on a
//! dense Table 1 row sits far below the busy node-steps. Anything that
//! scans all `m` nodes per round, or steps drainers again, fails these
//! assertions.

use ring_sched::dynamic::{build_dynamic_nodes, Arrival};
use ring_sched::unit::{build_unit_nodes, UnitConfig};
use ring_sim::{Engine, EngineConfig, Instance, Node, NodeCtx, Quiescence, RunReport, StepIo};
use ring_workloads::catalog::catalog_case;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counted<N> {
    inner: N,
    calls: Arc<AtomicU64>,
}

impl<N: Node> Node for Counted<N> {
    type Msg = N::Msg;

    fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, N::Msg>) -> u64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.on_step(ctx, io)
    }

    fn pending_work(&self) -> u64 {
        self.inner.pending_work()
    }

    fn quiescence(&self, now: u64) -> Option<Quiescence> {
        self.inner.quiescence(now)
    }

    fn fast_forward(&mut self, steps: u64) {
        self.inner.fast_forward(steps);
    }
}

/// Runs `nodes` to completion and returns the report with the number of
/// `on_step` calls the run made.
fn counted_run<N: Node>(nodes: Vec<N>, total: u64, config: EngineConfig) -> (RunReport, u64) {
    let calls = Arc::new(AtomicU64::new(0));
    let nodes = nodes
        .into_iter()
        .map(|inner| Counted {
            inner,
            calls: Arc::clone(&calls),
        })
        .collect();
    let report = Engine::new(nodes, total, config).run().expect("run");
    (report, calls.load(Ordering::Relaxed))
}

/// A loose bound: the first sweep, plus three steps per busy node-step or
/// message. Since drainers park, a busy node-step costs a step only when
/// mail or an expiring promise lists the node anyway; the dense-row test
/// below holds the tight bound without the busy term.
fn assert_cost_follows_work(what: &str, m: usize, report: &RunReport, calls: u64) {
    let busy: u64 = report.metrics.busy_steps_per_node.iter().sum();
    let bound = m as u64 + 3 * (busy + report.metrics.messages_sent);
    assert!(
        calls <= bound,
        "{what}, m = {m}: {calls} on_step calls for {busy} busy node-steps and {} messages (bound {bound})",
        report.metrics.messages_sent
    );
}

#[test]
fn one_pile_costs_the_same_on_a_larger_ring() {
    let beyond_first_sweep = [4096usize, 65_536].map(|m| {
        let inst = Instance::concentrated(m, 0, 10_000);
        let nodes = build_unit_nodes(&inst, &UnitConfig::c1());
        let (report, calls) = counted_run(nodes, inst.total_work(), EngineConfig::default());
        assert_cost_follows_work("one pile", m, &report, calls);
        (report.makespan, calls - m as u64)
    });
    assert_eq!(
        beyond_first_sweep[0], beyond_first_sweep[1],
        "(makespan, on_step calls after round 0) must not depend on the ring size"
    );
}

#[test]
fn the_wake_heap_carries_an_idle_gap() {
    const GAP: u64 = 10_000;
    let beyond_first_sweep = [4096usize, 65_536].map(|m| {
        let arrivals = [
            Arrival {
                time: 0,
                processor: 0,
                count: 400,
            },
            Arrival {
                time: GAP,
                processor: m / 2,
                count: 400,
            },
        ];
        let mut nodes = build_dynamic_nodes(m, &UnitConfig::c1());
        for a in arrivals {
            nodes[a.processor].inject(a);
        }
        let config = EngineConfig {
            max_steps: Some(2 * GAP),
            ..EngineConfig::default()
        };
        let (report, calls) = counted_run(nodes, 800, config);
        assert!(report.makespan > GAP, "the second batch ran after the gap");
        assert_cost_follows_work("two arrivals", m, &report, calls);
        (report.makespan, calls - m as u64)
    });
    assert_eq!(
        beyond_first_sweep[0], beyond_first_sweep[1],
        "(makespan, on_step calls after round 0) must not depend on the ring size"
    );
}

/// A dense Table 1 row (every node loaded, a heavy region): most of the run
/// is nodes draining their backlogs with empty inboxes, and none of those
/// rounds may cost an `on_step` call.
#[test]
fn a_dense_catalog_row_costs_messages_not_busy_node_steps() {
    let case = catalog_case("I-m100-d4-huge").expect("catalog case");
    let inst = &case.instance;
    let m = inst.num_processors() as u64;
    for (name, unit) in UnitConfig::all_six() {
        let nodes = build_unit_nodes(inst, &unit);
        let (report, calls) = counted_run(nodes, inst.total_work(), EngineConfig::default());
        let busy: u64 = report.metrics.busy_steps_per_node.iter().sum();
        let messages = report.metrics.messages_sent;
        let bound = 2 * m + 4 * messages;
        assert!(
            calls <= bound,
            "{name}: {calls} on_step calls for {messages} messages (bound {bound})"
        );
        assert!(
            10 * calls <= busy,
            "{name}: {calls} on_step calls is not 10x below {busy} busy node-steps"
        );
    }
}
