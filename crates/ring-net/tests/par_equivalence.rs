//! Three-executor equivalence: `Engine::run` ≡ `Engine::par_run` ≡
//! `ring_net::run_threaded`.
//!
//! All three executors implement the same synchronous round-delayed model,
//! and every policy in the workspace is deterministic, so the schedules must
//! agree *exactly* — the parallel engine bit-for-bit on the whole
//! [`RunReport`] (metrics, trace, observability) for every window, shard
//! count, task granularity, steal seed and pool size, the thread-per-processor
//! executor on everything it reports (makespan, per-node work, message
//! count). Divergence under any executor means either a policy peeked at
//! non-local state or an executor broke the model — both bugs this file
//! exists to catch.

use proptest::prelude::*;
use ring_net::run_unit_threaded;
use ring_sched::unit::{
    build_unit_nodes, resume_unit, run_unit, run_unit_checkpointed, run_unit_faulty,
    run_unit_par_faulty, UnitConfig,
};
use ring_sim::stream::{stream_engine, Representation, StreamSpec};
use ring_sim::{
    check_run, CheckpointError, Engine, EngineConfig, FaultPlan, Instance, ParConfig, RunReport,
    SimError, Snapshot, TraceLevel,
};
use std::sync::{Arc, Mutex};

/// Runs a unit-algorithm config through the parallel engine.
fn par_run_unit(inst: &Instance, cfg: &UnitConfig, shards: usize) -> Result<RunReport, SimError> {
    let nodes = build_unit_nodes(inst, cfg);
    let engine_cfg = EngineConfig {
        max_steps: cfg.max_steps,
        trace: cfg.trace,
        observe: cfg.observe,
        compress: cfg.compress,
        window: cfg.window,
        par: cfg.par,
        ..EngineConfig::default()
    };
    Engine::new(nodes, inst.total_work(), engine_cfg).par_run(shards)
}

/// The worker-pool sizes the battery forces: machine-fit (`None`),
/// leader-only, and oversubscribed (more threads than any CI runner has
/// cores), so the interleavings range from fully serial polls to genuinely
/// preemptive schedules.
const THREAD_FORCES: [Option<usize>; 3] = [None, Some(1), Some(8)];

/// One draw of the task pool's schedule knobs: `(tasks per shard, steal
/// seed, index into THREAD_FORCES)`.
type Pool = (usize, u64, usize);

/// The proptest strategy for [`Pool`]: random task granularity,
/// adversarial seeded steal timings, every forced pool size.
fn pools() -> impl Strategy<Value = Pool> {
    (1usize..5, 0u64..1_000_000_000, 0usize..3)
}

fn pool_config((tasks, steal_seed, threads): Pool) -> ParConfig {
    ParConfig {
        tasks_per_shard: Some(tasks),
        steal_seed: Some(steal_seed),
        threads: THREAD_FORCES[threads],
        ..ParConfig::default()
    }
}

/// The locality-window sweep every parallel equivalence case is run under:
/// degenerate (1 — a boundary handshake every round), tiny, prime-offset,
/// and `u64::MAX` ("L": as large as the shortest arc lets it be).
const WINDOWS: [u64; 4] = [1, 2, 7, u64::MAX];

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
fn all_six_configs_agree_across_all_three_executors() {
    for inst in cases() {
        for (name, cfg) in UnitConfig::all_six() {
            // Full trace + observability so the bit-for-bit comparison
            // covers every field the report can carry.
            let cfg = cfg.with_trace().with_observe();
            let seq = run_unit(&inst, &cfg).unwrap();
            for shards in [1usize, 2, 3, 7] {
                for pool in [(4, 0, 0), (1, 1, 1), (2, 0xDEAD, 2)] {
                    for window in WINDOWS {
                        let mut pcfg = cfg.with_window(window);
                        pcfg.par = pool_config(pool);
                        let par = par_run_unit(&inst, &pcfg, shards).unwrap();
                        assert_eq!(
                            seq.report,
                            par,
                            "{name}/{shards} shards/pool {pool:?}/window {window} diverged on {:?}",
                            inst.loads()
                        );
                    }
                }
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

/// Base 64 random fault cases, scaled by the `RING_FAULT_SEEDS` environment
/// variable (CI's fault-matrix job sets it to 8 for a 512-case soak).
fn fault_case_count() -> u32 {
    let mult = std::env::var("RING_FAULT_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(1)
        .max(1);
    64 * mult
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fault_case_count()))]

    /// Random instances, random fault plans, all six §6 algorithms, shard
    /// counts {1, 2, 3, 7}, random task granularity, adversarial seeded
    /// steal timings, and worker pools from leader-only to oversubscribed:
    /// `run` and `par_run` produce bit-identical `RunReport`s under the
    /// same plan, every run still places and processes all work, and the
    /// trace-replay oracle accepts it.
    ///
    /// The base 64 cases scale with `RING_FAULT_SEEDS` (CI sets it to 8 for
    /// a 512-case soak).
    #[test]
    fn executors_agree_under_fault_plans(
        loads in prop::collection::vec(0u64..100, 2..20),
        alg in 0usize..6,
        seed in 0u64..1_000_000,
        window in 0usize..4,
        pool in pools(),
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        let inst = Instance::from_loads(loads);
        let m = inst.num_processors();
        let plan = FaultPlan::random(m, 48, seed);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let mut cfg = cfg.with_trace().with_observe().with_window(WINDOWS[window]);
        cfg.par = pool_config(pool);

        let seq = run_unit_faulty(&inst, &cfg, &plan).unwrap();
        prop_assert_eq!(
            seq.report.metrics.total_processed(),
            inst.total_work(),
            "{} lost work under {:?}",
            name,
            &plan
        );
        let violations = check_run(&inst, &seq.report, Some(&plan));
        prop_assert!(
            violations.is_empty(),
            "{} oracle violations under {:?}: {:?}",
            name,
            &plan,
            violations
        );
        for shards in [1usize, 2, 3, 7] {
            let par = run_unit_par_faulty(&inst, &cfg, &plan, shards).unwrap();
            prop_assert_eq!(
                &seq.report,
                &par.report,
                "{} with {} shards, pool {:?} diverged under {:?}",
                name,
                shards,
                pool,
                &plan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fault_case_count()))]

    /// Quiescent-span step compression is unobservable: for every §6
    /// algorithm, random instance, and random fault plan, the compressed
    /// engine produces a `RunReport` bit-identical to the step-by-step one —
    /// sequentially and across shard counts {1, 2, 3, 7} — and the
    /// trace-replay oracle accepts the compressed run's expanded trace.
    #[test]
    fn compression_is_unobservable_under_fault_plans(
        loads in prop::collection::vec(0u64..100, 2..20),
        alg in 0usize..6,
        seed in 0u64..1_000_000,
        window in 0usize..4,
        pool in pools(),
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        let inst = Instance::from_loads(loads);
        let m = inst.num_processors();
        let plan = FaultPlan::random(m, 48, seed);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let cfg = cfg.with_trace().with_observe();
        let mut compressed_cfg = cfg.with_compress().with_window(WINDOWS[window]);
        compressed_cfg.par = pool_config(pool);

        let plain = run_unit_faulty(&inst, &cfg, &plan).unwrap();
        let compressed = run_unit_faulty(&inst, &compressed_cfg, &plan).unwrap();
        prop_assert_eq!(
            &plain.report,
            &compressed.report,
            "{} compression changed the sequential report under {:?}",
            name,
            &plan
        );
        let violations = check_run(&inst, &compressed.report, Some(&plan));
        prop_assert!(
            violations.is_empty(),
            "{} oracle rejected the compressed run under {:?}: {:?}",
            name,
            &plan,
            violations
        );
        for shards in [1usize, 2, 3, 7] {
            let par = run_unit_par_faulty(&inst, &compressed_cfg, &plan, shards).unwrap();
            prop_assert_eq!(
                &plain.report,
                &par.report,
                "{} with {} shards + compression diverged under {:?}",
                name,
                shards,
                &plan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fault_case_count()))]

    /// Checkpoint/restore is exact: for every §6 algorithm, random
    /// instance, and random fault plan, a run checkpointed every `every`
    /// steps reports bit-identically to the plain run; a snapshot taken at
    /// a random boundary — round-tripped through its byte encoding —
    /// resumes to the *same* bit-identical `RunReport`, with the save and
    /// restore sides drawing shard counts from {1, 2, 3, 7} (or the
    /// sequential engine) and task-pool knobs independently, and the
    /// trace-replay oracle accepts the stitched full trace.
    #[test]
    fn resume_is_bit_identical_under_fault_plans(
        loads in prop::collection::vec(0u64..100, 2..20),
        alg in 0usize..6,
        seed in 0u64..1_000_000,
        every in 1u64..16,
        save_shards in 0usize..4,
        restore_shards in 0usize..5,
        pick in 0usize..64,
        window in 0usize..4,
        save_pool in pools(),
        restore_pool in pools(),
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        const SHARDS: [usize; 4] = [1, 2, 3, 7];
        let inst = Instance::from_loads(loads);
        let m = inst.num_processors();
        let plan = FaultPlan::random(m, 48, seed);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let cfg = cfg.with_trace().with_observe().with_window(WINDOWS[window]);

        let base = run_unit_faulty(&inst, &cfg, &plan).unwrap();
        let mut save_cfg = cfg;
        save_cfg.par = pool_config(save_pool);
        let snaps = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&snaps);
        let checkpointed = run_unit_checkpointed(
            &inst,
            &save_cfg,
            Some(&plan),
            Some(SHARDS[save_shards]),
            every,
            "",
            move |s: &Snapshot| -> Result<(), CheckpointError> {
                log.lock().unwrap().push(s.clone());
                Ok(())
            },
        )
        .unwrap();
        prop_assert_eq!(
            &base.report,
            &checkpointed.report,
            "{} checkpointing every {} on {} shards changed the report under {:?}",
            name,
            every,
            SHARDS[save_shards],
            &plan
        );

        let snaps = snaps.lock().unwrap();
        if snaps.is_empty() {
            // The run finished before the first boundary — nothing to resume.
            return Ok(());
        }
        let snap = &snaps[pick % snaps.len()];
        // Round-trip through the byte encoding, like a real recovery would.
        let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let restore = (restore_shards < 4).then(|| SHARDS[restore_shards]);
        let mut restore_cfg = cfg;
        restore_cfg.par = pool_config(restore_pool);
        let resumed = resume_unit(&restore_cfg, &snap, restore).unwrap();
        prop_assert_eq!(
            &base.report,
            &resumed.report,
            "{} resumed from t={} (saved on {} shards, pool {:?}; restored on {:?}, pool {:?}) \
             diverged under {:?}",
            name,
            snap.t,
            SHARDS[save_shards],
            save_pool,
            restore,
            restore_pool,
            &plan
        );
        let violations = check_run(&inst, &resumed.report, Some(&plan));
        prop_assert!(
            violations.is_empty(),
            "{} oracle rejected the resumed run's stitched trace under {:?}: {:?}",
            name,
            &plan,
            violations
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fault_case_count()))]

    /// Checkpoint boundaries split compressed quiescent spans (the engine
    /// caps each span at the next boundary so snapshots land exactly on
    /// `t % every == 0`); the split must be unobservable: with compression
    /// on and a random cadence, the report still matches the plain
    /// uncompressed run bit-for-bit — sequentially and in parallel, with
    /// and without a fault plan — and resuming from a random boundary of
    /// the compressed run reproduces it again.
    #[test]
    fn checkpoint_cadence_is_unobservable_under_compression(
        loads in prop::collection::vec(0u64..100, 2..20),
        alg in 0usize..6,
        seed in 0u64..1_000_000,
        every in 1u64..24,
        shards in 0usize..5,
        faulty in 0u8..2,
        pick in 0usize..64,
        window in 0usize..4,
        pool in pools(),
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        const SHARDS: [usize; 4] = [1, 2, 3, 7];
        let inst = Instance::from_loads(loads);
        let m = inst.num_processors();
        let plan = (faulty == 1).then(|| FaultPlan::random(m, 48, seed));
        let (name, cfg) = UnitConfig::all_six()[alg];
        let mut cfg = cfg.with_trace().with_observe().with_window(WINDOWS[window]);
        cfg.par = pool_config(pool);

        let base = match &plan {
            Some(p) => run_unit_faulty(&inst, &cfg, p),
            None => run_unit(&inst, &cfg),
        }
        .unwrap();

        let compressed_cfg = cfg.with_compress();
        let snaps = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&snaps);
        let run = run_unit_checkpointed(
            &inst,
            &compressed_cfg,
            plan.as_ref(),
            (shards < 4).then(|| SHARDS[shards]),
            every,
            "",
            move |s: &Snapshot| -> Result<(), CheckpointError> {
                log.lock().unwrap().push(s.clone());
                Ok(())
            },
        )
        .unwrap();
        prop_assert_eq!(
            &base.report,
            &run.report,
            "{} compression + checkpoint_every({}) changed the report under {:?}",
            name,
            every,
            &plan
        );

        let snaps = snaps.lock().unwrap();
        if snaps.is_empty() {
            return Ok(());
        }
        let snap = &snaps[pick % snaps.len()];
        prop_assert_eq!(snap.t % every, 0, "snapshot off the cadence boundary");
        let resumed = resume_unit(&compressed_cfg, snap, None).unwrap();
        prop_assert_eq!(
            &base.report,
            &resumed.report,
            "{} resumed from the compressed run's t={} diverged under {:?}",
            name,
            snap.t,
            &plan
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Count-coalesced runs are unobservable: a random stream workload
    /// reports bit-identically whether its surplus travels as per-unit
    /// arena entries or coalesced runs, with and without step compression,
    /// sequentially and in parallel. (Fault-free by design: a bandwidth
    /// cap can split a per-unit stream mid-step but never a coalesced run,
    /// so capped links are outside the representation-equivalence contract —
    /// see DESIGN.md §10.)
    #[test]
    fn stream_representations_agree(
        initial in prop::collection::vec(0u64..60, 2..16),
        slack in 0u64..40,
        sink in 0usize..16,
        shards in 2usize..8,
        window in 0usize..4,
        pool in pools(),
    ) {
        prop_assume!(initial.iter().sum::<u64>() > 0);
        let m = initial.len();
        let mut quota = vec![0u64; m];
        // Quotas cover the work with `slack` extra at one node, so every
        // unit is eventually accepted and the run terminates.
        let total: u64 = initial.iter().sum();
        let base = total / m as u64;
        let extra = (total % m as u64) as usize;
        for (i, q) in quota.iter_mut().enumerate() {
            *q = base + u64::from(i < extra);
        }
        quota[sink % m] += slack;
        let spec = StreamSpec::new(initial, quota);

        let full = |compress| EngineConfig {
            trace: TraceLevel::Full,
            observe: true,
            compress,
            window: Some(WINDOWS[window]),
            par: pool_config(pool),
            ..EngineConfig::default()
        };
        let base_report = stream_engine(&spec, Representation::PerUnit, full(false))
            .run()
            .unwrap();
        for repr in [Representation::PerUnit, Representation::Coalesced] {
            for compress in [false, true] {
                let seq = stream_engine(&spec, repr, full(compress)).run().unwrap();
                prop_assert_eq!(&base_report, &seq, "run {:?}/{}", repr, compress);
                let par = stream_engine(&spec, repr, full(compress))
                    .par_run(shards)
                    .unwrap();
                prop_assert_eq!(
                    &base_report,
                    &par,
                    "par_run({}) {:?}/{}",
                    shards,
                    repr,
                    compress
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random instances, random shard counts, all six §6 algorithms: the
    /// three executors agree on makespan, per-node work, and messages; the
    /// two engine executors agree on the entire report.
    #[test]
    fn executors_agree_on_random_instances(
        loads in prop::collection::vec(0u64..120, 1..24),
        alg in 0usize..6,
        shards in 2usize..9,
        window in 0usize..4,
        pool in pools(),
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        let inst = Instance::from_loads(loads);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let mut cfg = cfg.with_trace().with_observe().with_window(WINDOWS[window]);
        cfg.par = pool_config(pool);

        let seq = run_unit(&inst, &cfg).unwrap();
        let par = par_run_unit(&inst, &cfg, shards).unwrap();
        prop_assert_eq!(
            &seq.report,
            &par,
            "{} with {} shards diverged on {:?}",
            name,
            shards,
            inst.loads()
        );

        let thr = run_unit_threaded(&inst, &cfg).unwrap();
        prop_assert_eq!(seq.makespan, thr.makespan);
        prop_assert_eq!(&seq.report.metrics.processed_per_node, &thr.processed_per_node);
        prop_assert_eq!(seq.report.metrics.messages_sent, thr.messages_sent);
    }
}
