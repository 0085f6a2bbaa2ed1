//! Online (dynamic) job arrivals — an extension beyond the paper's static
//! model.
//!
//! The paper schedules jobs that are all present at time 0 and cites
//! Awerbuch–Kutten–Peleg's *dynamic* distributed scheduling as the general
//! (but loosely-bounded) alternative. This module extends the bucket
//! algorithms to arrivals over time in the most natural way: whenever a
//! batch of new jobs appears at a processor, the processor packs the batch
//! into a fresh bucket — self-drop, optional bidirectional split, dispatch —
//! exactly as it does with its initial load at `t = 0`. All bookkeeping
//! (targets, I1/I2 rounding, Lemma 5 balancing) is shared with the static
//! algorithm; a processor's "originating work" `x_i` grows as arrivals
//! land, which is what travelling buckets see.
//!
//! No approximation proof from the paper carries over verbatim (the static
//! adversary argument does not model release times), so this module also
//! supplies honest *dynamic lower bounds* to measure against:
//!
//! * any job arriving at time `r` finishes no earlier than `r + 1`;
//! * ignoring release times can only help, so every static bound on the
//!   aggregated instance applies;
//! * more sharply, for every time `r`: `r` plus the static bound of the
//!   work arriving *at or after* `r` (that work cannot start before `r`).

use crate::unit::{UnitConfig, UnitNode};
use ring_sim::checkpoint::{CheckpointError, Decoder, Encoder};
use ring_sim::{Engine, EngineConfig, Instance, Node, NodeCtx, RunReport, SimError, StepIo};

/// A batch of unit jobs arriving at a processor at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Step at which the batch becomes available.
    pub time: u64,
    /// Processor it lands on.
    pub processor: usize,
    /// Number of unit jobs.
    pub count: u64,
}

/// A dynamic instance: a ring size plus a list of arrivals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicInstance {
    m: usize,
    arrivals: Vec<Arrival>,
}

impl DynamicInstance {
    /// Builds a dynamic instance. Arrivals are sorted by time internally.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or any arrival names a processor `>= m`.
    pub fn new(m: usize, mut arrivals: Vec<Arrival>) -> Self {
        assert!(m > 0, "need at least one processor");
        assert!(
            arrivals.iter().all(|a| a.processor < m),
            "arrival processor out of range"
        );
        arrivals.sort_by_key(|a| a.time);
        DynamicInstance { m, arrivals }
    }

    /// A static instance viewed as a dynamic one (all arrivals at `t = 0`).
    pub fn from_static(instance: &Instance) -> Self {
        let arrivals = instance
            .loads()
            .iter()
            .enumerate()
            .filter(|(_, &x)| x > 0)
            .map(|(p, &x)| Arrival {
                time: 0,
                processor: p,
                count: x,
            })
            .collect();
        DynamicInstance::new(instance.num_processors(), arrivals)
    }

    /// Ring size.
    pub fn num_processors(&self) -> usize {
        self.m
    }

    /// Total number of jobs over all arrivals.
    pub fn total_work(&self) -> u64 {
        self.arrivals.iter().map(|a| a.count).sum()
    }

    /// Latest arrival time (0 for an empty instance).
    pub fn last_arrival(&self) -> u64 {
        self.arrivals.iter().map(|a| a.time).max().unwrap_or(0)
    }

    /// The arrivals, sorted by time.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Aggregates all arrivals into one static instance (release times
    /// dropped).
    pub fn aggregate(&self) -> Instance {
        let mut loads = vec![0u64; self.m];
        for a in &self.arrivals {
            loads[a.processor] += a.count;
        }
        Instance::from_loads(loads)
    }

    /// The dynamic lower bound: for every release time `r`, `r` plus the
    /// static lower bound of everything arriving at or after `r`
    /// (including `r = 0`, the full aggregate bound). Quadratic in the ring
    /// size — use [`quick_clearance_bound`] where this runs on a hot path.
    pub fn lower_bound(&self) -> u64 {
        let mut best = self.arrivals.iter().map(|a| a.time + 1).max().unwrap_or(0);
        let mut release_times: Vec<u64> = self.arrivals.iter().map(|a| a.time).collect();
        release_times.dedup();
        for &r in &release_times {
            let mut loads = vec![0u64; self.m];
            for a in self.arrivals.iter().filter(|a| a.time >= r) {
                loads[a.processor] += a.count;
            }
            let rest = Instance::from_loads(loads);
            best = best.max(r + ring_opt_free::uncapacitated_lower_bound(&rest));
        }
        best
    }
}

/// A local re-implementation of the closed-form bounds so `ring-sched`
/// does not depend on `ring-opt` (which depends back on `ring-sim` only;
/// the dependency direction is kept acyclic). The formulas are one-liners;
/// the authoritative, heavily-tested versions live in `ring-opt` and the
/// two are cross-checked in the integration tests.
mod ring_opt_free {
    use ring_sim::Instance;

    pub fn uncapacitated_lower_bound(inst: &Instance) -> u64 {
        let m = inst.num_processors();
        let loads = inst.loads();
        let n: u64 = loads.iter().sum();
        let mut best = n.div_ceil(m as u64);
        for start in 0..m {
            if loads[start] == 0 && m > 1 {
                continue;
            }
            let mut work: u64 = 0;
            for k in 1..=m {
                work += loads[(start + k - 1) % m];
                // smallest L with L^2 + (k-1)L >= work
                let b = (k - 1) as f64 / 2.0;
                let l = ((b * b + work as f64).sqrt() - b).ceil() as u64;
                let mut l = l.saturating_sub(1);
                while (l as u128) * (l as u128) + (k as u128 - 1) * (l as u128) < work as u128 {
                    l += 1;
                }
                best = best.max(l);
            }
        }
        best
    }
}

/// An O(m) relaxation of the static core of [`DynamicInstance::lower_bound`]:
/// `max(⌈N/m⌉, max_i ⌈√load_i⌉)` over per-origin outstanding loads. Every
/// term is among the candidates the full window scan maximizes over (the
/// average and each single-node window), so the result is always `<=` the
/// full bound while remaining a true lower bound on clearance time — cheap
/// enough for per-epoch admission decisions at `m = 4096`, where the full
/// O(m²) scan is not.
pub fn quick_clearance_bound(loads: &[u64]) -> u64 {
    if loads.is_empty() {
        return 0;
    }
    let n: u64 = loads.iter().sum();
    let mut best = n.div_ceil(loads.len() as u64);
    for &x in loads {
        best = best.max(ceil_sqrt(x));
    }
    best
}

/// Smallest `r` with `r² >= x`.
fn ceil_sqrt(x: u64) -> u64 {
    let mut r = (x as f64).sqrt() as u64;
    while (r as u128) * (r as u128) < x as u128 {
        r += 1;
    }
    while r > 0 && ((r - 1) as u128) * ((r - 1) as u128) >= x as u128 {
        r -= 1;
    }
    r
}

/// Renders an arrival list back into the [`parse_arrivals`] grammar.
/// `parse_arrivals(render_arrivals(a), m)` reproduces `a` exactly for any
/// time-sorted list — the round trip the scenario DSL relies on.
pub fn render_arrivals(arrivals: &[Arrival]) -> String {
    arrivals
        .iter()
        .map(|a| format!("{}@{}:{}", a.time, a.processor, a.count))
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses the CLI arrival-spec grammar into a time-sorted arrival list.
/// `m` is the ring size, used for index validation.
///
/// Entries are separated by `;`, each `<time>@<processor>:<count>`:
///
/// ```text
/// 0@0:100;10@8:50;25@4:30
/// ```
///
/// releases 100 jobs on processor 0 at step 0, 50 on processor 8 at step
/// 10, and 30 on processor 4 at step 25.
pub fn parse_arrivals(spec: &str, m: usize) -> Result<Vec<Arrival>, String> {
    let mut arrivals = Vec::new();
    for raw in spec.split(';') {
        let entry = raw.trim();
        if entry.is_empty() {
            continue;
        }
        let (time_s, rest) = entry
            .split_once('@')
            .ok_or_else(|| format!("`{entry}`: expected `<time>@<processor>:<count>`"))?;
        let (proc_s, count_s) = rest
            .split_once(':')
            .ok_or_else(|| format!("`{entry}`: expected `<processor>:<count>` after `@`"))?;
        let time: u64 = time_s
            .trim()
            .parse()
            .map_err(|_| format!("`{entry}`: bad time `{time_s}`"))?;
        let processor: usize = proc_s
            .trim()
            .parse()
            .map_err(|_| format!("`{entry}`: bad processor `{proc_s}`"))?;
        let count: u64 = count_s
            .trim()
            .parse()
            .map_err(|_| format!("`{entry}`: bad count `{count_s}`"))?;
        if processor >= m {
            return Err(format!(
                "`{entry}`: processor {processor} out of range (m = {m})"
            ));
        }
        if count == 0 {
            return Err(format!("`{entry}`: a batch must carry at least one job"));
        }
        arrivals.push(Arrival {
            time,
            processor,
            count,
        });
    }
    arrivals.sort_by_key(|a| a.time);
    Ok(arrivals)
}

/// The dynamic policy: a static [`UnitNode`] plus this node's arrival
/// schedule.
pub struct DynamicNode {
    inner: UnitNode,
    /// This node's arrivals, sorted by time, consumed front to back.
    pending: std::collections::VecDeque<Arrival>,
}

impl DynamicNode {
    /// Schedules a future arrival batch on this node, keeping the pending
    /// stream time-sorted (equal-time batches stay in insertion order).
    /// A serving layer calls this between engine spans — while the engine
    /// is paused at a step boundary `B`, injecting batches with
    /// `time >= B` into the node [`ring_sim::Engine::node_mut`] hands out
    /// — and must declare the added jobs through
    /// [`ring_sim::Engine::add_work`].
    pub fn inject(&mut self, a: Arrival) {
        let pos = self.pending.partition_point(|b| b.time <= a.time);
        self.pending.insert(pos, a);
    }

    /// Jobs delivered to this node (locally released or received in a
    /// bucket) and not yet processed — excludes scheduled future arrivals.
    pub fn resident_work(&self) -> u64 {
        self.inner.pending_work()
    }
}

/// Builds one idle dynamic node per processor (no scheduled arrivals).
/// Arrivals are then attached with [`DynamicNode::inject`] — up front, as
/// [`run_dynamic`] does, or between engine spans, as the serving layer
/// does.
pub fn build_dynamic_nodes(m: usize, cfg: &UnitConfig) -> Vec<DynamicNode> {
    let empty = Instance::empty(m);
    crate::unit::build_unit_nodes(&empty, cfg)
        .into_iter()
        .map(|inner| DynamicNode {
            inner,
            pending: std::collections::VecDeque::new(),
        })
        .collect()
}

impl Node for DynamicNode {
    type Msg = crate::bucket::Bucket;

    fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, Self::Msg>) -> u64 {
        let m = ctx.topo.len();
        // New batches first: they are visible to this step's processing.
        while self.pending.front().is_some_and(|a| a.time <= ctx.t) {
            let a = self.pending.pop_front().expect("front checked");
            self.inner
                .emit_bucket(ctx.id, m, a.count, &mut io.out, &mut io.audit);
        }
        for bucket in io
            .inbox
            .from_ccw
            .drain(..)
            .chain(io.inbox.from_cw.drain(..))
        {
            self.inner
                .receive_bucket(bucket, &mut io.out, &mut io.audit, m);
        }
        self.inner.process_tick()
    }

    fn pending_work(&self) -> u64 {
        self.inner.pending_work() + self.pending.iter().map(|a| a.count).sum::<u64>()
    }

    fn quiescence(&self, now: u64) -> Option<ring_sim::Quiescence> {
        // Quiet until the next arrival fires; the inner bucket node is
        // purely reactive in between (this wrapper never calls its
        // emit-on-first-step path, so no `emitted` gate is needed).
        let span = match self.pending.front() {
            Some(a) if a.time <= now => return None,
            Some(a) => a.time - now,
            None => u64::MAX,
        };
        Some(ring_sim::Quiescence {
            span,
            backlog: self.inner.quiet_backlog(),
        })
    }

    fn fast_forward(&mut self, steps: u64) {
        self.inner.fast_forward_drain(steps);
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        self.inner.save_mut_state(enc);
        enc.usize(self.pending.len());
        for a in &self.pending {
            enc.u64(a.time);
            enc.usize(a.processor);
            enc.u64(a.count);
        }
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.inner.restore_mut_state(dec)?;
        let n = dec.usize()?;
        let mut pending = std::collections::VecDeque::with_capacity(n);
        for _ in 0..n {
            pending.push_back(Arrival {
                time: dec.u64()?,
                processor: dec.usize()?,
                count: dec.u64()?,
            });
        }
        self.pending = pending;
        Ok(())
    }
}

/// Outcome of a dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicRun {
    /// Completion time of the last job.
    pub makespan: u64,
    /// Engine report.
    pub report: RunReport,
    /// The dynamic lower bound of the instance (for factor reporting).
    pub lower_bound: u64,
}

/// Builds the engine for a dynamic instance: nodes with the arrival
/// schedule attached and a step budget widened by the release horizon.
fn dynamic_engine(instance: &DynamicInstance, cfg: &UnitConfig) -> Engine<DynamicNode> {
    let mut nodes = build_dynamic_nodes(instance.num_processors(), cfg);
    for &a in instance.arrivals() {
        nodes[a.processor].inject(a);
    }
    let n = instance.total_work();
    let engine_cfg = EngineConfig {
        max_steps: Some(4 * (n + instance.num_processors() as u64) + instance.last_arrival() + 64),
        trace: cfg.trace,
        observe: cfg.observe,
        ..EngineConfig::default()
    };
    Engine::new(nodes, n, engine_cfg)
}

/// Runs a unit-job bucket algorithm on a dynamic instance.
pub fn run_dynamic(instance: &DynamicInstance, cfg: &UnitConfig) -> Result<DynamicRun, SimError> {
    let mut engine = dynamic_engine(instance, cfg);
    let report = engine.run()?;
    Ok(DynamicRun {
        makespan: report.makespan,
        lower_bound: instance.lower_bound(),
        report,
    })
}

/// [`run_dynamic`], under the name callers that ask for threads use: the
/// ring engine has one executor ([`ring_sim::Engine::par_run`]).
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn run_dynamic_par(
    instance: &DynamicInstance,
    cfg: &UnitConfig,
    shards: usize,
) -> Result<DynamicRun, SimError> {
    assert!(shards > 0, "need at least one shard");
    run_dynamic(instance, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_equivalence() {
        // A dynamic instance with everything at t = 0 behaves exactly like
        // the static algorithm.
        let inst = Instance::from_loads(vec![50, 0, 0, 12, 0, 0, 7, 0]);
        let dynamic = DynamicInstance::from_static(&inst);
        for (name, cfg) in UnitConfig::all_six() {
            let stat = crate::unit::run_unit(&inst, &cfg).unwrap();
            let dyn_run = run_dynamic(&dynamic, &cfg).unwrap();
            assert_eq!(stat.makespan, dyn_run.makespan, "{name}");
        }
    }

    #[test]
    fn empty_dynamic_instance() {
        let d = DynamicInstance::new(4, vec![]);
        let run = run_dynamic(&d, &UnitConfig::c1()).unwrap();
        assert_eq!(run.makespan, 0);
        assert_eq!(run.lower_bound, 0);
    }

    #[test]
    fn late_arrivals_extend_the_schedule() {
        let d = DynamicInstance::new(
            8,
            vec![Arrival {
                time: 100,
                processor: 3,
                count: 16,
            }],
        );
        let run = run_dynamic(&d, &UnitConfig::c1()).unwrap();
        assert!(run.makespan > 100, "makespan {}", run.makespan);
        // OPT for 16-on-one-node is 4 (sqrt), released at 100.
        assert!(run.lower_bound >= 104);
        assert!(run.makespan >= run.lower_bound);
    }

    #[test]
    fn staggered_bursts_conserve_work() {
        let d = DynamicInstance::new(
            16,
            vec![
                Arrival {
                    time: 0,
                    processor: 0,
                    count: 100,
                },
                Arrival {
                    time: 10,
                    processor: 8,
                    count: 50,
                },
                Arrival {
                    time: 25,
                    processor: 0,
                    count: 30,
                },
                Arrival {
                    time: 25,
                    processor: 4,
                    count: 30,
                },
            ],
        );
        let run = run_dynamic(&d, &UnitConfig::c1()).unwrap();
        assert_eq!(run.report.metrics.total_processed(), 210);
        assert!(run.makespan >= run.lower_bound);
    }

    #[test]
    fn dynamic_lower_bound_accounts_for_tails() {
        // A big burst released late dominates the aggregate bound.
        let d = DynamicInstance::new(
            64,
            vec![
                Arrival {
                    time: 0,
                    processor: 0,
                    count: 10,
                },
                Arrival {
                    time: 1000,
                    processor: 32,
                    count: 400,
                },
            ],
        );
        // sqrt(400) = 20 => bound >= 1020.
        assert!(d.lower_bound() >= 1020, "lb {}", d.lower_bound());
    }

    #[test]
    fn local_bound_matches_ring_opt() {
        for inst in [
            Instance::from_loads(vec![100, 0, 0, 0, 7]),
            Instance::from_loads(vec![3; 9]),
            Instance::from_loads(vec![0, 50, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0]),
        ] {
            assert_eq!(
                super::ring_opt_free::uncapacitated_lower_bound(&inst),
                ring_opt::uncapacitated_lower_bound(&inst)
            );
        }
    }

    #[test]
    fn par_run_matches_sequential_on_dynamic_instances() {
        let d = DynamicInstance::new(
            16,
            vec![
                Arrival {
                    time: 0,
                    processor: 2,
                    count: 80,
                },
                Arrival {
                    time: 7,
                    processor: 11,
                    count: 33,
                },
                Arrival {
                    time: 40,
                    processor: 2,
                    count: 5,
                },
            ],
        );
        for (name, cfg) in UnitConfig::all_six() {
            let seq = run_dynamic(&d, &cfg).unwrap();
            for shards in [2, 3, 7] {
                let par = run_dynamic_par(&d, &cfg, shards).unwrap();
                assert_eq!(seq.report, par.report, "{name} shards={shards}");
            }
        }
    }

    #[test]
    fn quick_bound_never_exceeds_the_full_bound() {
        let cases: Vec<Vec<u64>> = vec![
            vec![0; 8],
            vec![100, 0, 0, 0, 7],
            vec![3; 9],
            vec![0, 50, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            vec![10_000],
            (0..64).map(|i| (i * i) % 97).collect(),
        ];
        for loads in cases {
            let quick = quick_clearance_bound(&loads);
            let full = super::ring_opt_free::uncapacitated_lower_bound(&Instance::from_loads(
                loads.clone(),
            ));
            assert!(quick <= full, "quick {quick} > full {full} for {loads:?}");
            // Both are bounded below by the average and the deepest √load.
            let n: u64 = loads.iter().sum();
            assert!(quick >= n.div_ceil(loads.len() as u64));
        }
    }

    #[test]
    fn quick_bound_pins_known_values() {
        assert_eq!(quick_clearance_bound(&[]), 0);
        assert_eq!(quick_clearance_bound(&[0, 0, 0]), 0);
        // 16 jobs on one of 8 nodes: √16 = 4 beats ⌈16/8⌉ = 2.
        assert_eq!(quick_clearance_bound(&[16, 0, 0, 0, 0, 0, 0, 0]), 4);
        // Perfectly spread: the average dominates.
        assert_eq!(quick_clearance_bound(&[9, 9, 9]), 9);
        // Non-square burst rounds up.
        assert_eq!(quick_clearance_bound(&[17, 0, 0, 0, 0, 0, 0, 0]), 5);
    }

    #[test]
    fn ceil_sqrt_is_exact() {
        for x in 0..2000u64 {
            let r = super::ceil_sqrt(x);
            assert!(r * r >= x);
            assert!(r == 0 || (r - 1) * (r - 1) < x);
        }
        assert_eq!(super::ceil_sqrt(u64::MAX), 1 << 32);
    }

    #[test]
    fn parse_arrivals_round_trips_the_grammar() {
        let spec = "10@8:50; 0@0:100 ;25@4:30";
        let arrivals = parse_arrivals(spec, 16).unwrap();
        assert_eq!(
            arrivals,
            vec![
                Arrival {
                    time: 0,
                    processor: 0,
                    count: 100
                },
                Arrival {
                    time: 10,
                    processor: 8,
                    count: 50
                },
                Arrival {
                    time: 25,
                    processor: 4,
                    count: 30
                },
            ]
        );
        assert_eq!(parse_arrivals("", 4).unwrap(), vec![]);
    }

    #[test]
    fn parse_arrivals_rejects_malformed_specs() {
        for bad in [
            "5:3",   // missing @
            "5@3",   // missing :count
            "x@3:1", // bad time
            "5@x:1", // bad processor
            "5@3:x", // bad count
            "5@9:1", // processor out of range (m = 4)
            "5@0:0", // empty batch
        ] {
            assert!(parse_arrivals(bad, 4).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn inject_keeps_the_pending_stream_time_sorted() {
        let mut nodes = build_dynamic_nodes(4, &UnitConfig::c1());
        for (time, count) in [(30, 1), (10, 2), (20, 3), (10, 4)] {
            nodes[0].inject(Arrival {
                time,
                processor: 0,
                count,
            });
        }
        let times: Vec<(u64, u64)> = nodes[0].pending.iter().map(|a| (a.time, a.count)).collect();
        // Sorted by time; the two t=10 batches keep insertion order.
        assert_eq!(times, vec![(10, 2), (10, 4), (20, 3), (30, 1)]);
        assert_eq!(nodes[0].pending_work(), 10);
        assert_eq!(nodes[0].resident_work(), 0);
    }

    #[test]
    fn dynamic_factor_reasonable_on_bursty_traffic() {
        let d = DynamicInstance::new(
            32,
            (0..10)
                .map(|k| Arrival {
                    time: 20 * k,
                    processor: ((7 * k) % 32) as usize,
                    count: 60,
                })
                .collect(),
        );
        let run = run_dynamic(&d, &UnitConfig::a2()).unwrap();
        let factor = run.makespan as f64 / run.lower_bound as f64;
        assert!(factor < 4.0, "dynamic factor {factor}");
    }
}
