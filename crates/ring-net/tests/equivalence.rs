//! Sequential engine ≡ threaded executor.
//!
//! The policies are deterministic and both executors implement the same
//! synchronous model, so makespans, per-node work and message counts must
//! agree exactly. Passing under the threaded executor also certifies the
//! policies use only local state + neighbor messages (threads cannot see
//! each other). `Engine::par_run` is the engine's other entry point and
//! must report bit-identically to `Engine::run`.

use proptest::prelude::*;
use ring_net::{run_capacitated_threaded, run_unit_threaded};
use ring_sched::capacitated::run_capacitated;
use ring_sched::unit::{build_unit_nodes, run_unit, UnitConfig};
use ring_sim::{Engine, EngineConfig, Instance, TraceLevel};

fn cases() -> Vec<Instance> {
    vec![
        Instance::concentrated(16, 0, 120),
        Instance::concentrated(9, 4, 300),
        Instance::from_loads(vec![30, 0, 0, 12, 7, 0, 0, 0, 0, 44, 0, 3]),
        Instance::from_loads(vec![5; 8]),
        Instance::from_loads(vec![1000, 0, 0, 0]), // wrap-around path
        Instance::from_loads(vec![17]),            // singleton ring
    ]
}

#[test]
fn unit_algorithms_agree_across_executors() {
    for inst in cases() {
        for (name, cfg) in UnitConfig::all_six() {
            let seq = run_unit(&inst, &cfg).unwrap();
            let thr = run_unit_threaded(&inst, &cfg).unwrap();
            assert_eq!(
                seq.makespan,
                thr.makespan,
                "{name} makespan differs on {:?}",
                inst.loads()
            );
            assert_eq!(
                seq.report.metrics.processed_per_node,
                thr.processed_per_node,
                "{name} work distribution differs on {:?}",
                inst.loads()
            );
        }
    }
}

#[test]
fn all_six_configs_agree_across_all_three_executors() {
    for inst in cases() {
        for (name, cfg) in UnitConfig::all_six() {
            // Full trace + observability so the bit-for-bit comparison
            // covers every field the report can carry.
            let cfg = cfg.with_trace().with_observe();
            let seq = run_unit(&inst, &cfg).unwrap();
            for shards in [1usize, 2, 3, 7] {
                let engine_cfg = EngineConfig {
                    max_steps: cfg.max_steps,
                    trace: cfg.trace,
                    observe: cfg.observe,
                    ..EngineConfig::default()
                };
                let par = Engine::new(build_unit_nodes(&inst, &cfg), inst.total_work(), engine_cfg)
                    .par_run(shards)
                    .unwrap();
                assert_eq!(
                    seq.report,
                    par,
                    "{name}/{shards} shards diverged on {:?}",
                    inst.loads()
                );
            }
            let thr = run_unit_threaded(&inst, &cfg).unwrap();
            assert_eq!(seq.makespan, thr.makespan, "{name} on {:?}", inst.loads());
            assert_eq!(
                seq.report.metrics.processed_per_node,
                thr.processed_per_node,
                "{name} on {:?}",
                inst.loads()
            );
            assert_eq!(
                seq.report.metrics.messages_sent,
                thr.messages_sent,
                "{name} on {:?}",
                inst.loads()
            );
        }
    }
}

#[test]
fn capacitated_agrees_across_executors() {
    for inst in cases() {
        let seq = run_capacitated(&inst, TraceLevel::Off).unwrap();
        let thr = run_capacitated_threaded(&inst).unwrap();
        assert_eq!(seq.makespan, thr.makespan, "on {:?}", inst.loads());
        assert_eq!(
            seq.processed,
            thr.processed_per_node,
            "on {:?}",
            inst.loads()
        );
    }
}

#[test]
fn threaded_runs_scale_to_wider_rings() {
    let inst = Instance::concentrated(64, 10, 2048);
    let thr = run_unit_threaded(&inst, &UnitConfig::c2()).unwrap();
    assert_eq!(thr.processed_total(), 2048);
    let seq = run_unit(&inst, &UnitConfig::c2()).unwrap();
    assert_eq!(seq.makespan, thr.makespan);
}

#[test]
fn piggyback_capacitated_agrees_with_sequential_two_message_variant() {
    use ring_net::{run_threaded, ThreadedConfig};
    use ring_sched::capacitated::build_piggyback_nodes;
    use ring_sim::LinkCapacity;

    for inst in cases() {
        let seq = run_capacitated(&inst, TraceLevel::Off).unwrap();
        let nodes = build_piggyback_nodes(&inst);
        let thr = run_threaded(
            nodes,
            inst.total_work(),
            &ThreadedConfig {
                link_capacity: LinkCapacity::UnitJobs,
                max_steps: Some(4 * (inst.total_work() + inst.num_processors() as u64) + 64),
            },
        )
        .unwrap();
        // The single-message framing carries the same information, so the
        // schedule is identical across variant *and* executor.
        assert_eq!(seq.makespan, thr.makespan, "on {:?}", inst.loads());
        assert_eq!(seq.processed, thr.processed_per_node);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random instances, all six §6 algorithms: the engine and the threaded
    /// executor agree on makespan, per-node work, and messages.
    #[test]
    fn executors_agree_on_random_instances(
        loads in prop::collection::vec(0u64..120, 1..24),
        alg in 0usize..6,
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        let inst = Instance::from_loads(loads);
        let (_, cfg) = UnitConfig::all_six()[alg];
        let seq = run_unit(&inst, &cfg).unwrap();
        let thr = run_unit_threaded(&inst, &cfg).unwrap();
        prop_assert_eq!(seq.makespan, thr.makespan);
        prop_assert_eq!(&seq.report.metrics.processed_per_node, &thr.processed_per_node);
        prop_assert_eq!(seq.report.metrics.messages_sent, thr.messages_sent);
    }
}
