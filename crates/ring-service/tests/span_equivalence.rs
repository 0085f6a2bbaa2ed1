//! The invariant the service's epoch loop stands on: advancing the engine
//! through a sequence of pausable spans, injecting each arrival just in
//! time at a paused step, is bit-identical to one monolithic dynamic run
//! that knew the whole arrival schedule a priori — for every executor and
//! shard count.

use ring_sched::dynamic::{run_dynamic, Arrival, DynamicInstance};
use ring_sched::unit::UnitConfig;
use ring_sim::{Engine, EngineConfig, RunReport, SpanOutcome, TraceLevel};

/// A schedule whose ring never runs dry between releases (the initial heap
/// alone outlasts the release horizon), so the incremental run is a single
/// busy period, comparable step-for-step with the monolithic run.
fn busy_schedule() -> (usize, Vec<Arrival>) {
    let arrivals = vec![
        Arrival {
            time: 0,
            processor: 0,
            count: 800,
        },
        Arrival {
            time: 10,
            processor: 3,
            count: 50,
        },
        Arrival {
            time: 37,
            processor: 5,
            count: 80,
        },
        Arrival {
            time: 64,
            processor: 7,
            count: 33,
        },
        Arrival {
            time: 90,
            processor: 1,
            count: 64,
        },
    ];
    (8, arrivals)
}

/// Runs the schedule incrementally, the way the service does: pause on a
/// `stride` grid and at every release time, injecting arrivals only once
/// the engine's clock reaches them.
fn run_incremental(
    m: usize,
    arrivals: &[Arrival],
    cfg: &UnitConfig,
    shards: Option<usize>,
    stride: u64,
) -> RunReport {
    let engine_cfg = EngineConfig {
        max_steps: Some(u64::MAX),
        trace: TraceLevel::Off,
        observe: false,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(
        ring_sched::dynamic::build_dynamic_nodes(m, cfg),
        0,
        engine_cfg,
    );
    let mut pending: Vec<Arrival> = arrivals.to_vec();
    pending.sort_by_key(|a| a.time);
    let mut next = 0usize;
    loop {
        let t = engine.t();
        while next < pending.len() && pending[next].time <= t {
            let a = pending[next];
            engine.node_mut(a.processor).inject(a);
            engine.add_work(a.count);
            next += 1;
        }
        let mut pause_at = (t / stride + 1) * stride;
        if let Some(a) = pending.get(next) {
            pause_at = pause_at.min(a.time);
        }
        let outcome = match shards {
            Some(s) => engine.par_run_span(pause_at, s),
            None => engine.run_span(pause_at),
        }
        .expect("span execution failed");
        match outcome {
            SpanOutcome::Paused { .. } => {}
            SpanOutcome::Done(report) => {
                assert_eq!(next, pending.len(), "ring ran dry before all releases");
                return *report;
            }
        }
    }
}

#[test]
fn incremental_spans_match_the_monolithic_dynamic_run() {
    let (m, arrivals) = busy_schedule();
    for (name, cfg) in UnitConfig::all_six() {
        let whole = run_dynamic(&DynamicInstance::new(m, arrivals.clone()), &cfg)
            .unwrap()
            .report;
        for stride in [1, 13, 16, 1024] {
            let inc = run_incremental(m, &arrivals, &cfg, None, stride);
            assert_eq!(
                inc.makespan, whole.makespan,
                "{name}, stride {stride}: makespan"
            );
            assert_eq!(
                inc.metrics, whole.metrics,
                "{name}, stride {stride}: metrics"
            );
        }
    }
}

#[test]
fn incremental_spans_are_executor_independent() {
    let (m, arrivals) = busy_schedule();
    let cfg = UnitConfig::c1();
    let whole = run_dynamic(&DynamicInstance::new(m, arrivals.clone()), &cfg)
        .unwrap()
        .report;
    for shards in [2, 3, 5] {
        let inc = run_incremental(m, &arrivals, &cfg, Some(shards), 16);
        assert_eq!(inc.makespan, whole.makespan, "{shards} shards: makespan");
        assert_eq!(inc.metrics, whole.metrics, "{shards} shards: metrics");
    }
}
