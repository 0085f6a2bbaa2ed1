//! Cross-executor equivalence on non-ring topologies.
//!
//! The fabric engine's contract — `run` ≡ `par_run` bit-identically, for
//! every shard count, steal seed and pool size — was pinned on rings long
//! before the topology generalization. This battery pins it on every
//! other shape: random hierarchical rings, tori, and cliques under random
//! fault plans, with the conservation oracle replaying every trace and
//! `RINGSNAP` checkpoints crossing executors mid-run (the snapshot is
//! taken under one shard count and resumed under an independently drawn
//! one).
//!
//! Case counts scale with `RING_FAULT_SEEDS` like the other randomized
//! suites.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ring_sched::{run_fabric, CliqueNode, DiffusionNode, FabricAlgo};
use ring_sim::{
    check_fabric_run, AnyTopology, Clique, EngineConfig, Fabric, FaultPlan, HierRing, RunReport,
    SpanOutcome, Topology, Torus2D, TraceLevel,
};

/// Base 12 cases per property, scaled by `RING_FAULT_SEEDS`.
fn cases() -> u32 {
    let mult: u32 = std::env::var("RING_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    12 * mult.max(1)
}

/// A random non-ring topology: hier, torus, or clique, small enough that
/// a property case stays fast but large enough to exercise seams.
fn random_topology(rng: &mut StdRng) -> AnyTopology {
    match rng.gen_range(0..3) {
        0 => AnyTopology::Hier(HierRing::new(rng.gen_range(2..=5), rng.gen_range(3..=8))),
        1 => AnyTopology::Torus(Torus2D::new(rng.gen_range(3..=6), rng.gen_range(3..=6))),
        _ => AnyTopology::Clique(Clique::new(rng.gen_range(2..=20))),
    }
}

/// A skewed random load vector: mostly small, a few hotspots.
fn random_loads(rng: &mut StdRng, n: usize) -> Vec<u64> {
    let mut loads: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=6)).collect();
    for _ in 0..rng.gen_range(1..=3) {
        let v = rng.gen_range(0..n);
        loads[v] += rng.gen_range(20u64..=120);
    }
    loads
}

/// The policy a topology runs in this battery: the clique scheduler on
/// cliques, diffusion everywhere else.
fn policy_for(topo: &AnyTopology) -> FabricAlgo {
    match topo {
        AnyTopology::Clique(_) => FabricAlgo::Clique,
        _ => FabricAlgo::Diffuse,
    }
}

fn full_cfg(faults: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        trace: TraceLevel::Full,
        faults,
        ..EngineConfig::default()
    }
}

/// `run` ≡ `par_run(static)` ≡ `par_run(steal)` on a random topology
/// under a random fault plan, oracle-clean.
fn assert_executors_agree(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_topology(&mut rng);
    let loads = random_loads(&mut rng, topo.len());
    let algo = policy_for(&topo);
    let plan = {
        let p = FaultPlan::random(
            topo.len(),
            rng.gen_range(8..=48),
            rng.gen_range(0..u64::MAX),
        );
        if p.is_empty() {
            None
        } else {
            Some(p)
        }
    };

    let seq = run_fabric(&topo, &loads, algo, full_cfg(plan.clone()), None)
        .unwrap_or_else(|e| panic!("{} seq: {e}", topo.spec()));
    let violations = check_fabric_run(&loads, &topo, &seq, plan.as_ref());
    assert!(
        violations.is_empty(),
        "{} violates the oracle: {violations:?}",
        topo.spec()
    );
    assert_eq!(
        seq.metrics.total_processed(),
        loads.iter().sum::<u64>(),
        "{} lost work",
        topo.spec()
    );

    let shards = rng.gen_range(1..=6);
    let mut cfg = full_cfg(plan);
    cfg.par.steal_seed = Some(rng.gen_range(0..u64::MAX));
    cfg.par.threads = [None, Some(1), Some(8)][rng.gen_range(0..3usize)];
    let par_cfg = cfg.par;
    let par = run_fabric(&topo, &loads, algo, cfg, Some(shards))
        .unwrap_or_else(|e| panic!("{} par: {e}", topo.spec()));
    assert_eq!(seq, par, "{} shards={shards} {par_cfg:?}", topo.spec());
}

/// Pause under one shard count, snapshot, resume into fresh nodes under
/// an independently drawn shard count — the finished report must be
/// bit-identical to the uninterrupted run.
fn assert_checkpoint_crosses_executors(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = random_topology(&mut rng);
    let loads = random_loads(&mut rng, topo.len());
    let total: u64 = loads.iter().sum();
    let plan = {
        let p = FaultPlan::random(
            topo.len(),
            rng.gen_range(8..=32),
            rng.gen_range(0..u64::MAX),
        );
        if p.is_empty() {
            None
        } else {
            Some(p)
        }
    };
    let cfg = full_cfg(plan);
    let pause = rng.gen_range(1..=5);
    let before_shards = rng.gen_range(1..=5);
    let after_shards = rng.gen_range(1..=5);

    // Dispatch on the policy: the node type is part of the fabric's type.
    match policy_for(&topo) {
        FabricAlgo::Diffuse => {
            let seq = {
                let nodes = DiffusionNode::fleet(&loads, &topo);
                Fabric::new(topo.clone(), nodes, total, cfg.clone())
                    .run()
                    .unwrap()
            };
            let nodes = DiffusionNode::fleet(&loads, &topo);
            let mut fab = Fabric::new(topo.clone(), nodes, total, cfg.clone());
            let resumed = match fab.par_run_until(before_shards, pause).unwrap() {
                SpanOutcome::Done(report) => *report,
                SpanOutcome::Paused { .. } => {
                    let image = fab.snapshot().unwrap();
                    let fresh = DiffusionNode::fleet(&loads, &topo);
                    let mut resumed =
                        Fabric::resume(topo.clone(), fresh, cfg.clone(), &image).unwrap();
                    resumed.par_run(after_shards).unwrap()
                }
            };
            assert_identical(&topo, seq, resumed, pause, before_shards, after_shards);
        }
        FabricAlgo::Clique => {
            let seq = {
                let nodes = CliqueNode::fleet(&loads);
                Fabric::new(topo.clone(), nodes, total, cfg.clone())
                    .run()
                    .unwrap()
            };
            let nodes = CliqueNode::fleet(&loads);
            let mut fab = Fabric::new(topo.clone(), nodes, total, cfg.clone());
            let resumed = match fab.par_run_until(before_shards, pause).unwrap() {
                SpanOutcome::Done(report) => *report,
                SpanOutcome::Paused { .. } => {
                    let image = fab.snapshot().unwrap();
                    let fresh = CliqueNode::fleet(&loads);
                    let mut resumed =
                        Fabric::resume(topo.clone(), fresh, cfg.clone(), &image).unwrap();
                    resumed.par_run(after_shards).unwrap()
                }
            };
            assert_identical(&topo, seq, resumed, pause, before_shards, after_shards);
        }
    }
}

fn assert_identical(
    topo: &AnyTopology,
    seq: RunReport,
    resumed: RunReport,
    pause: u64,
    before: usize,
    after: usize,
) {
    assert_eq!(
        seq,
        resumed,
        "{} diverged across a checkpoint (pause={pause} shards {before}->{after})",
        topo.spec()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn executors_agree_on_random_topologies(seed in 0u64..u64::MAX) {
        assert_executors_agree(seed);
    }

    #[test]
    fn checkpoints_cross_shard_counts(seed in 0u64..u64::MAX) {
        assert_checkpoint_crosses_executors(seed);
    }
}
