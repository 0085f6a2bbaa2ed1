//! `Engine::run` on `N` ≡ `Engine::run` on `Unparked<N>`, bit for bit.
//!
//! The sequential engine steps an active-node frontier: a node that
//! promises to do nothing on empty inboxes but drain its backlog is parked
//! and paid its skipped rounds and drained units later (DESIGN.md §6).
//! [`Unparked`] withholds the promise, so the same engine sweeps all `m`
//! nodes every round — the executable full sweep. This battery runs both
//! on random instances across every policy that parks (the six unit
//! algorithms, arbitrary sizes, dynamic arrivals), on sparse rings (most
//! nodes idle) and dense ones (every node draining while Lemma 5
//! wrap-around buckets pass through and wake it), with compression on and
//! off, and compares everything an observer can reach: the `RunReport`
//! with and without a full trace (drainers park only without one), the
//! final node states, the `RINGSNAP` bytes at every pause and checkpoint
//! (taken while drainers are parked mid-drain), and a resume from one of
//! those snapshots.
//!
//! Case counts scale with `RING_FAULT_SEEDS` like the other randomized
//! suites.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ring_sched::arbitrary::{build_sized_nodes, ArbitraryConfig};
use ring_sched::dynamic::{build_dynamic_nodes, Arrival, DynamicNode};
use ring_sched::unit::{build_unit_nodes, UnitConfig};
use ring_sim::{
    CheckpointError, Decoder, Encoder, Engine, EngineConfig, Instance, Node, NodeCtx, Persist,
    Quiescence, RunReport, SizedInstance, Snapshot, SpanOutcome, StepIo, TraceLevel,
};
use std::sync::{Arc, Mutex};

/// Base 8 cases, scaled by `RING_FAULT_SEEDS`; a case runs all eight
/// policies through all three modes.
fn cases() -> u32 {
    let mult: u32 = std::env::var("RING_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    8 * mult.max(1)
}

/// `N` without its quiescence promise: never parked, never compressed.
struct Unparked<N>(N);

impl<N: Node> Node for Unparked<N> {
    type Msg = N::Msg;

    fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, N::Msg>) -> u64 {
        self.0.on_step(ctx, io)
    }

    fn pending_work(&self) -> u64 {
        self.0.pending_work()
    }

    fn quiescence(&self, _now: u64) -> Option<Quiescence> {
        None
    }

    fn fast_forward(&mut self, steps: u64) {
        self.0.fast_forward(steps);
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        self.0.save_state(enc)
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.0.restore_state(dec)
    }
}

/// One policy on one instance: how to build its nodes, the work they hold,
/// and the arrivals (dynamic only, time-sorted) a caller may schedule on
/// them up front or between spans.
struct Family<'a, N> {
    label: String,
    build: &'a dyn Fn() -> Vec<N>,
    total: u64,
    late: &'a [Arrival],
    inject: fn(&mut N, Arrival),
}

fn node_bytes<N: Node>(nodes: &[N]) -> Vec<Vec<u8>> {
    nodes
        .iter()
        .map(|n| {
            let mut enc = Encoder::new();
            n.save_state(&mut enc).expect("node saves");
            enc.into_bytes()
        })
        .collect()
}

/// The family's engine with every late arrival scheduled up front, as
/// `run_dynamic` does.
fn whole_engine<N: Node, W: Node>(
    f: &Family<'_, N>,
    cfg: &EngineConfig,
    wrap: fn(N) -> W,
) -> Engine<W> {
    let mut nodes = (f.build)();
    let mut total = f.total;
    for &a in f.late {
        (f.inject)(&mut nodes[a.processor], a);
        total += a.count;
    }
    Engine::new(nodes.into_iter().map(wrap).collect(), total, cfg.clone())
}

/// One uninterrupted run: the report and the final node states.
fn run_whole<N: Node, W: Node>(
    f: &Family<'_, N>,
    cfg: &EngineConfig,
    wrap: fn(N) -> W,
) -> (RunReport, Vec<Vec<u8>>) {
    let mut engine = whole_engine(f, cfg, wrap);
    let report = engine.run().unwrap_or_else(|e| panic!("{}: {e}", f.label));
    (report, node_bytes(&engine.into_nodes()))
}

/// One checkpointed run: the report and every snapshot's bytes.
fn run_checkpointed<N, W>(
    f: &Family<'_, N>,
    cfg: &EngineConfig,
    wrap: fn(N) -> W,
) -> (RunReport, Vec<Vec<u8>>)
where
    N: Node,
    W: Node,
    W::Msg: Persist,
{
    let mut engine = whole_engine(f, cfg, wrap);
    let taken = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&taken);
    engine.on_checkpoint(move |snap: &Snapshot| {
        sink.lock().expect("sink lock").push(snap.to_bytes());
        Ok(())
    });
    let report = engine.run().unwrap_or_else(|e| panic!("{}: {e}", f.label));
    let taken = std::mem::take(&mut *taken.lock().expect("sink lock"));
    (report, taken)
}

/// `N` ≡ `Unparked<N>` through an uninterrupted run, a run cut into random
/// spans with work injected between them, and a checkpointed run resumed
/// from a random snapshot.
fn assert_family<N>(f: &Family<'_, N>, rng: &mut StdRng)
where
    N: Node,
    N::Msg: Persist,
{
    let label = &f.label;
    let horizon = f.late.last().map_or(0, |a| a.time);
    let all_work = f.total + f.late.iter().map(|a| a.count).sum::<u64>();
    let m = (f.build)().len() as u64;
    // Drainers park only without a full trace, so the pauses and
    // checkpoints below mostly run without one.
    let cfg = EngineConfig {
        max_steps: Some(4 * (all_work + m) + horizon + 64),
        trace: match rng.gen_range(0..4) {
            0 => TraceLevel::Full,
            _ => TraceLevel::Off,
        },
        compress: rng.gen_range(0..2) == 1,
        ..EngineConfig::default()
    };

    // Uninterrupted, under both trace levels.
    let [full, off] = [TraceLevel::Full, TraceLevel::Off].map(|trace| {
        let cfg = EngineConfig {
            trace,
            ..cfg.clone()
        };
        let (report, nodes) = run_whole(f, &cfg, |n| n);
        let (full_report, full_nodes) = run_whole(f, &cfg, Unparked);
        assert_eq!(report, full_report, "{label}: report, trace {trace:?}");
        assert_eq!(
            nodes, full_nodes,
            "{label}: final node states, trace {trace:?}"
        );
        report
    });
    let report = match cfg.trace {
        TraceLevel::Full => full,
        TraceLevel::Off => off,
    };

    // Random spans, scheduling each late arrival at a pause before its time.
    let mut parked = Engine::new((f.build)(), f.total, cfg.clone());
    let mut swept = Engine::new(
        (f.build)().into_iter().map(Unparked).collect(),
        f.total,
        cfg.clone(),
    );
    let mut next = 0;
    let mut paused_snap = None;
    let spanned = loop {
        let t = parked.t();
        let pause_at = t + rng.gen_range(1u64..=9);
        let ahead = pause_at + rng.gen_range(0u64..=40);
        while next < f.late.len() && f.late[next].time < ahead {
            let a = f.late[next];
            (f.inject)(&mut parked.nodes_mut()[a.processor], a);
            (f.inject)(&mut swept.nodes_mut()[a.processor].0, a);
            parked.add_work(a.count);
            swept.add_work(a.count);
            next += 1;
        }
        let a = parked.run_span(pause_at).expect("parked span");
        let b = swept.run_span(pause_at).expect("swept span");
        assert_eq!(a, b, "{label}: span ending at {pause_at}");
        if let SpanOutcome::Done(last) = a {
            assert_eq!(
                node_bytes(parked.nodes()),
                node_bytes(swept.nodes()),
                "{label}: node states after the last span"
            );
            break *last;
        }
        let snap = parked.snapshot().expect("parked snapshot");
        assert_eq!(
            snap.to_bytes(),
            swept.snapshot().expect("swept snapshot").to_bytes(),
            "{label}: snapshot at pause {pause_at}"
        );
        // Once every arrival is in, any pause may serve as a resume point.
        if next == f.late.len() && (paused_snap.is_none() || rng.gen_range(0..3) == 0) {
            paused_snap = Some(snap);
        }
    };
    if let Some(snap) = paused_snap {
        let resumed = Engine::resume((f.build)(), cfg.clone(), &snap)
            .expect("resume")
            .run()
            .expect("resumed run");
        assert_eq!(resumed, spanned, "{label}: resumed from pause {}", snap.t);
    }

    // Checkpoint cadence; the snapshots are taken while nodes are parked.
    let cp_cfg = cfg.clone().checkpoint_every(rng.gen_range(1..=7));
    let (cp_report, snaps) = run_checkpointed(f, &cp_cfg, |n| n);
    let (cp_full_report, full_snaps) = run_checkpointed(f, &cp_cfg, Unparked);
    assert_eq!(
        cp_report, report,
        "{label}: checkpointing changed the report"
    );
    assert_eq!(cp_full_report, report, "{label}: swept checkpointed report");
    assert_eq!(snaps, full_snaps, "{label}: snapshot bytes");
    if !snaps.is_empty() {
        let pick = rng.gen_range(0..snaps.len());
        let snap = Snapshot::from_bytes(&snaps[pick]).expect("snapshot decodes");
        let resumed = Engine::resume((f.build)(), cfg.clone(), &snap)
            .expect("resume")
            .run()
            .expect("resumed run");
        assert_eq!(resumed, report, "{label}: resumed from step {}", snap.t);
    }
}

/// Either a few piles on a mostly empty ring (so most nodes park idle),
/// plus a thin sprinkle of small loads; or a dense ring, every node loaded
/// and a few heavy piles, whose buckets lap the ring (the B/C variants'
/// Lemma 5 wrap-around) and keep waking nodes that parked mid-drain.
fn random_loads(rng: &mut StdRng, m: usize) -> Vec<u64> {
    let dense = rng.gen_range(0..2) == 1;
    let mut loads: Vec<u64> = (0..m)
        .map(|_| match (dense, rng.gen_range(0..5)) {
            (true, _) => rng.gen_range(1..=40),
            (false, 0) => rng.gen_range(1..=3),
            (false, _) => 0,
        })
        .collect();
    for _ in 0..rng.gen_range(1..=3) {
        loads[rng.gen_range(0..m)] += rng.gen_range(5u64..=160);
    }
    loads
}

fn assert_all_policies(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = match rng.gen_range(0..4) {
        0 => rng.gen_range(1..=3),
        _ => rng.gen_range(4..=48),
    };
    let loads = random_loads(&mut rng, m);
    let inst = Instance::from_loads(loads.clone());

    for (name, unit) in UnitConfig::all_six() {
        assert_family(
            &Family {
                label: format!("seed {seed} {name} m={m}"),
                build: &|| build_unit_nodes(&inst, &unit),
                total: inst.total_work(),
                late: &[],
                inject: |_, _| unreachable!("static instances take no arrivals"),
            },
            &mut rng,
        );
    }

    // Arbitrary sizes: each node's load cut into jobs of 1..=7 units.
    let sized = SizedInstance::from_sizes(
        loads
            .iter()
            .map(|&x| {
                let mut left = x;
                let mut jobs = Vec::new();
                while left > 0 {
                    let size = rng.gen_range(1u64..=7).min(left);
                    jobs.push(size);
                    left -= size;
                }
                jobs
            })
            .collect(),
    );
    let arb = ArbitraryConfig {
        bidirectional: rng.gen_range(0..2) == 1,
        ..ArbitraryConfig::default()
    };
    assert_family(
        &Family {
            label: format!("seed {seed} arbitrary m={m}"),
            build: &|| build_sized_nodes(&sized, &arb),
            total: sized.total_work(),
            late: &[],
            inject: |_, _| unreachable!("static instances take no arrivals"),
        },
        &mut rng,
    );

    // Dynamic arrivals: the loads released at t = 0, then a random script
    // with idle gaps for the wake heap to carry. Half the arrivals land on
    // the heaviest processor while it is still draining its own pile.
    let unit = UnitConfig::all_six()[rng.gen_range(0usize..6)].1;
    let heaviest = (0..m).max_by_key(|&i| loads[i]).expect("m >= 1");
    let mut late: Vec<Arrival> = (0..rng.gen_range(0..=6))
        .map(|_| match rng.gen_range(0..2) {
            0 => Arrival {
                time: rng.gen_range(1..=loads[heaviest].max(1)),
                processor: heaviest,
                count: rng.gen_range(1..=40),
            },
            _ => Arrival {
                time: rng.gen_range(1..=150),
                processor: rng.gen_range(0..m),
                count: rng.gen_range(1..=40),
            },
        })
        .collect();
    late.sort_by_key(|a| a.time);
    assert_family(
        &Family {
            label: format!("seed {seed} dynamic {} m={m}", unit.name()),
            build: &|| {
                let mut nodes = build_dynamic_nodes(m, &unit);
                for (processor, &count) in loads.iter().enumerate() {
                    if count > 0 {
                        nodes[processor].inject(Arrival {
                            time: 0,
                            processor,
                            count,
                        });
                    }
                }
                nodes
            },
            total: inst.total_work(),
            late: &late,
            inject: DynamicNode::inject,
        },
        &mut rng,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn parked_runs_match_the_full_sweep(seed in 0u64..u64::MAX) {
        assert_all_policies(seed);
    }
}
