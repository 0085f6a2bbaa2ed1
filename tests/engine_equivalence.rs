//! Engine equivalences that hold whatever the workload: the executor
//! (`Engine::run` or `Engine::par_run`), checkpoint cadence, resume and the
//! message representation are all unobservable in the
//! [`ring_sim::RunReport`].
//!
//! Each property compares whole reports bit for bit (metrics, full trace
//! and observability), and every faulty run must still place and process
//! all work and pass the trace-replay oracle. The fault-plan properties run
//! 64 random cases, scaled by the `RING_FAULT_SEEDS` environment variable
//! (CI's fault and checkpoint soaks set it to 8 for 512 cases).

use proptest::prelude::*;
use ring_sched::unit::{
    build_unit_nodes, resume_unit, run_unit, run_unit_checkpointed, run_unit_faulty, UnitConfig,
};
use ring_sim::stream::{stream_engine, Representation, StreamSpec};
use ring_sim::{
    check_run, CheckpointError, Engine, EngineConfig, FaultPlan, Instance, RunReport, SimError,
    Snapshot, TraceLevel,
};
use std::sync::{Arc, Mutex};

/// Base 64 random fault cases, scaled by `RING_FAULT_SEEDS`.
fn fault_case_count() -> u32 {
    let mult = std::env::var("RING_FAULT_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(1)
        .max(1);
    64 * mult
}

/// Runs a unit-algorithm config under a fault plan through `Engine::par_run`.
fn par_run_unit_faulty(
    inst: &Instance,
    cfg: &UnitConfig,
    plan: &FaultPlan,
    shards: usize,
) -> Result<RunReport, SimError> {
    let engine_cfg = EngineConfig {
        max_steps: cfg.max_steps,
        trace: cfg.trace,
        observe: cfg.observe,
        faults: Some(plan.clone()),
        ..EngineConfig::default()
    };
    Engine::new(build_unit_nodes(inst, cfg), inst.total_work(), engine_cfg).par_run(shards)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fault_case_count()))]

    /// Random instances, random fault plans, all six §6 algorithms: `run`
    /// and `par_run` on shard counts {1, 2, 3, 7} produce bit-identical
    /// `RunReport`s under the same plan, every run still places and
    /// processes all work, and the trace-replay oracle accepts it.
    #[test]
    fn executors_agree_under_fault_plans(
        loads in prop::collection::vec(0u64..100, 2..20),
        alg in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        let inst = Instance::from_loads(loads);
        let m = inst.num_processors();
        let plan = FaultPlan::random(m, 48, seed);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let cfg = cfg.with_trace().with_observe();

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
            let par = par_run_unit_faulty(&inst, &cfg, &plan, shards).unwrap();
            prop_assert_eq!(
                &seq.report,
                &par,
                "{} with {} shards diverged under {:?}",
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
    /// resumes to the *same* `RunReport`, and the trace-replay oracle
    /// accepts the stitched full trace.
    #[test]
    fn resume_is_bit_identical_under_fault_plans(
        loads in prop::collection::vec(0u64..100, 2..20),
        alg in 0usize..6,
        seed in 0u64..1_000_000,
        every in 1u64..16,
        pick in 0usize..64,
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        let inst = Instance::from_loads(loads);
        let m = inst.num_processors();
        let plan = FaultPlan::random(m, 48, seed);
        let (name, cfg) = UnitConfig::all_six()[alg];
        let cfg = cfg.with_trace().with_observe();

        let base = run_unit_faulty(&inst, &cfg, &plan).unwrap();
        let snaps = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&snaps);
        let checkpointed = run_unit_checkpointed(
            &inst,
            &cfg,
            Some(&plan),
            None,
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
            "{} checkpointing every {} changed the report under {:?}",
            name,
            every,
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
        let resumed = resume_unit(&cfg, &snap, None).unwrap();
        prop_assert_eq!(
            &base.report,
            &resumed.report,
            "{} resumed from t={} diverged under {:?}",
            name,
            snap.t,
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

    /// Checkpoint cadence is unobservable: with a random cadence, with and
    /// without a fault plan and with `observe` on or off, the checkpointed
    /// run reports bit-for-bit like the plain one, places and processes all
    /// work and passes the trace-replay oracle, and resuming from a random
    /// boundary reproduces it again. Without a plan or `observe`, drainers
    /// park under the full trace, so the boundaries land while parked
    /// drainers owe their `Processed` events.
    #[test]
    fn checkpoint_cadence_is_unobservable(
        loads in prop::collection::vec(0u64..100, 2..20),
        alg in 0usize..6,
        seed in 0u64..1_000_000,
        every in 1u64..24,
        faulty in 0u8..2,
        observe in 0u8..2,
        pick in 0usize..64,
    ) {
        prop_assume!(loads.iter().sum::<u64>() > 0);
        let inst = Instance::from_loads(loads);
        let m = inst.num_processors();
        let plan = (faulty == 1).then(|| FaultPlan::random(m, 48, seed));
        let (name, cfg) = UnitConfig::all_six()[alg];
        let cfg = if observe == 1 {
            cfg.with_trace().with_observe()
        } else {
            cfg.with_trace()
        };

        let base = match &plan {
            Some(p) => run_unit_faulty(&inst, &cfg, p),
            None => run_unit(&inst, &cfg),
        }
        .unwrap();

        let snaps = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&snaps);
        let run = run_unit_checkpointed(
            &inst,
            &cfg,
            plan.as_ref(),
            None,
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
            "{} checkpoint_every({}) changed the report under {:?}",
            name,
            every,
            &plan
        );
        prop_assert_eq!(
            run.report.metrics.total_processed(),
            inst.total_work(),
            "{} lost work under {:?}",
            name,
            &plan
        );
        let violations = check_run(&inst, &run.report, plan.as_ref());
        prop_assert!(
            violations.is_empty(),
            "{} oracle violations under {:?}: {:?}",
            name,
            &plan,
            violations
        );

        let snaps = snaps.lock().unwrap();
        if snaps.is_empty() {
            return Ok(());
        }
        let snap = &snaps[pick % snaps.len()];
        prop_assert_eq!(snap.t % every, 0, "snapshot off the cadence boundary");
        let resumed = resume_unit(&cfg, snap, None).unwrap();
        prop_assert_eq!(
            &base.report,
            &resumed.report,
            "{} resumed from t={} diverged under {:?}",
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
    /// arena entries or coalesced runs, with and without `observe` (without
    /// it the sinks park and drain on the frontier).
    /// (Fault-free by design: a bandwidth cap can split a per-unit stream
    /// mid-step but never a coalesced run, so capped links are outside the
    /// representation-equivalence contract — see DESIGN.md §10.)
    #[test]
    fn stream_representations_agree(
        initial in prop::collection::vec(0u64..60, 2..16),
        slack in 0u64..40,
        sink in 0usize..16,
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

        let full = |observe| EngineConfig {
            trace: TraceLevel::Full,
            observe,
            ..EngineConfig::default()
        };
        let base_report = stream_engine(&spec, Representation::PerUnit, full(true))
            .run()
            .unwrap();
        for repr in [Representation::PerUnit, Representation::Coalesced] {
            for observe in [false, true] {
                let mut run = stream_engine(&spec, repr, full(observe)).run().unwrap();
                if !observe {
                    run.observability = base_report.observability.clone();
                }
                prop_assert_eq!(&base_report, &run, "{:?}/observe={}", repr, observe);
            }
        }
    }
}
