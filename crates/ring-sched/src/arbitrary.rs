//! The arbitrary-job-size algorithm of §4.2.
//!
//! Jobs have integral processing times `p_{i,j}` and must each run entirely
//! on one processor without preemption. The algorithm simulates the
//! integral algorithm's fractional shadow on the *work* totals
//! (`x_i = Σ_j p_{i,j}`) and rounds with slack `p_max` instead of 1
//! (constraints A1/A2):
//!
//! * **A1** — a bucket's total dropped work through time `t` is at most
//!   `ceil(D(t)) + p_max`;
//! * **A2** — a processor's total accepted work through time `t` is at most
//!   `1 + ceil(R(t)) + p_max`.
//!
//! Drop-off is greedy: "each processor goes through the bucket and greedily
//! chooses jobs until no more can be chosen without violating one of the
//! constraints".
//!
//! Processors do **not** know `p_max` globally; following the paper, each
//! party uses the largest job *it has seen so far* (a bucket: the largest
//! job it has carried; a processor: the largest job that has passed it).
//! Corollary 2: this is a 5.22-approximation against
//! `max{L, p_max}`.

use crate::bucket::Ledger;
use crate::{analysis::C_PAPER, ceil_tol, EPS};
use ring_sim::checkpoint::{CheckpointError, Decoder, Encoder, Persist};
use ring_sim::{
    Direction, Engine, EngineConfig, Job, Node, NodeCtx, Payload, Quiescence, RunReport, SimError,
    SizedInstance, StepIo, TraceLevel,
};
use std::collections::VecDeque;

/// Configuration of an arbitrary-size run.
#[derive(Debug, Clone, Copy)]
pub struct ArbitraryConfig {
    /// Drop-off constant (paper: 1.77; the target rule is the analyzed
    /// variant-C rule).
    pub c: f64,
    /// Send half of each initial bucket in each direction.
    pub bidirectional: bool,
    /// Event recording level.
    pub trace: TraceLevel,
    /// Optional step budget override.
    pub max_steps: Option<u64>,
}

impl Default for ArbitraryConfig {
    fn default() -> Self {
        ArbitraryConfig {
            c: C_PAPER,
            bidirectional: false,
            trace: TraceLevel::Off,
            max_steps: None,
        }
    }
}

/// A travelling bucket of whole jobs plus the work-based fractional shadow.
#[derive(Debug, Clone)]
pub struct SizedBucket {
    /// Origin processor.
    pub origin: usize,
    /// Travel direction.
    pub dir: Direction,
    /// Whole jobs still carried.
    pub jobs: Vec<Job>,
    /// Total size of `jobs`.
    pub work: u64,
    /// Fractional-shadow content.
    pub frac: f64,
    /// Work originating on visited processors.
    pub seen_work: u64,
    /// Cumulative fractional drop `D(t)`.
    pub dropped_frac: f64,
    /// Cumulative integral (work-unit) drop.
    pub dropped_work: u64,
    /// Largest job this bucket has carried (its `p_max` estimate).
    pub p_max_seen: u64,
    /// Hops travelled.
    pub hops: u64,
    /// Lemma 5 balancing mode.
    pub balancing: bool,
    /// Global total work (valid once balancing).
    pub total_work: u64,
}

impl SizedBucket {
    fn new(origin: usize, dir: Direction, jobs: Vec<Job>) -> Self {
        let work: u64 = jobs.iter().map(|j| j.size).sum();
        let p_max_seen = jobs.iter().map(|j| j.size).max().unwrap_or(0);
        SizedBucket {
            origin,
            dir,
            jobs,
            work,
            frac: work as f64,
            seen_work: work,
            dropped_frac: 0.0,
            dropped_work: 0,
            p_max_seen,
            hops: 0,
            balancing: false,
            total_work: 0,
        }
    }

    fn is_spent(&self) -> bool {
        self.jobs.is_empty() && self.frac < EPS
    }

    fn arrive(&mut self, x: u64, m: usize) {
        self.hops += 1;
        if self.balancing {
            return;
        }
        if self.hops >= m as u64 {
            self.balancing = true;
            self.total_work = self.seen_work;
        } else {
            self.seen_work += x;
        }
    }
}

impl Payload for SizedBucket {
    fn job_units(&self) -> u64 {
        self.work
    }
}

impl Persist for SizedBucket {
    fn save(&self, enc: &mut Encoder) {
        enc.usize(self.origin);
        self.dir.save(enc);
        save_jobs(&self.jobs, enc);
        enc.u64(self.work);
        enc.f64(self.frac);
        enc.u64(self.seen_work);
        enc.f64(self.dropped_frac);
        enc.u64(self.dropped_work);
        enc.u64(self.p_max_seen);
        enc.u64(self.hops);
        enc.bool(self.balancing);
        enc.u64(self.total_work);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(SizedBucket {
            origin: dec.usize()?,
            dir: Direction::load(dec)?,
            jobs: load_jobs(dec)?,
            work: dec.u64()?,
            frac: dec.f64()?,
            seen_work: dec.u64()?,
            dropped_frac: dec.f64()?,
            dropped_work: dec.u64()?,
            p_max_seen: dec.u64()?,
            hops: dec.u64()?,
            balancing: dec.bool()?,
            total_work: dec.u64()?,
        })
    }
}

fn save_jobs(jobs: &[Job], enc: &mut Encoder) {
    enc.usize(jobs.len());
    for job in jobs {
        job.save(enc);
    }
}

fn load_jobs(dec: &mut Decoder<'_>) -> Result<Vec<Job>, CheckpointError> {
    let n = dec.usize()?;
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        jobs.push(Job::load(dec)?);
    }
    Ok(jobs)
}

/// Per-processor policy state for the arbitrary-size algorithm.
#[derive(Debug)]
pub struct SizedNode {
    c: f64,
    bidirectional: bool,
    /// Initial resident jobs (consumed into the bucket at t = 0).
    initial: Vec<Job>,
    /// Initial work `x_i`.
    x: u64,
    /// Accepted jobs waiting to run (FIFO, no preemption).
    queue: VecDeque<Job>,
    /// Units left on the job currently running.
    current_remaining: u64,
    ledger: Ledger,
    /// Largest job that has passed this processor (its `p_max` estimate).
    p_max_seen: u64,
    /// Jobs this node accepted (ids, diagnostics).
    accepted_jobs: u64,
    max_travel_seen: u64,
    saw_balancing: bool,
}

impl SizedNode {
    fn new(cfg: &ArbitraryConfig, jobs: Vec<Job>) -> Self {
        let x = jobs.iter().map(|j| j.size).sum();
        SizedNode {
            c: cfg.c,
            bidirectional: cfg.bidirectional,
            initial: jobs,
            x,
            queue: VecDeque::new(),
            current_remaining: 0,
            ledger: Ledger::default(),
            p_max_seen: 0,
            accepted_jobs: 0,
            max_travel_seen: 0,
            saw_balancing: false,
        }
    }

    /// Greedy drop-off under constraints A1/A2 (or the balancing rule).
    fn negotiate_with_m(&mut self, bucket: &mut SizedBucket, m: usize) {
        self.max_travel_seen = self.max_travel_seen.max(bucket.hops);
        // The processor sees every job in the bucket go by.
        self.p_max_seen = self
            .p_max_seen
            .max(bucket.jobs.iter().map(|j| j.size).max().unwrap_or(0));
        self.ledger.passed_frac += bucket.frac;
        self.ledger.passed_int += bucket.work;

        if bucket.balancing {
            self.saw_balancing = true;
            // Accept greedily while under the average-work target; the
            // crossing job may overshoot (bounded by p_max), which keeps
            // the emptying argument intact: any under-target processor
            // accepts at least one job per visit.
            let m_target = bucket.total_work.div_ceil(m as u64);
            let mut kept = Vec::with_capacity(bucket.jobs.len());
            for job in bucket.jobs.drain(..) {
                if self.ledger.accepted_int < m_target {
                    self.accept(job);
                    bucket.work -= job.size;
                    bucket.dropped_work += job.size;
                } else {
                    kept.push(job);
                }
            }
            bucket.jobs = kept;
            // Fractional shadow follows the same average target.
            let target_frac = bucket.total_work as f64 / m as f64;
            let d_frac = (target_frac - self.ledger.accepted_frac).clamp(0.0, bucket.frac);
            bucket.frac -= d_frac;
            if bucket.frac < EPS {
                bucket.frac = 0.0;
            }
            bucket.dropped_frac += d_frac;
            self.ledger.accepted_frac += d_frac;
            return;
        }

        // Fractional shadow: variant-C target on work totals.
        let target = self.c * (bucket.seen_work as f64).sqrt();
        let d_frac = (target - self.ledger.accepted_frac).clamp(0.0, bucket.frac);
        bucket.frac -= d_frac;
        if bucket.frac < EPS {
            bucket.frac = 0.0;
        }
        bucket.dropped_frac += d_frac;
        self.ledger.accepted_frac += d_frac;

        // Greedy integral drop under A1/A2.
        let a1_cap = ceil_tol(bucket.dropped_frac) + bucket.p_max_seen;
        let a2_cap = 1 + ceil_tol(self.ledger.accepted_frac) + self.p_max_seen;
        let mut kept = Vec::with_capacity(bucket.jobs.len());
        for job in bucket.jobs.drain(..) {
            let fits_a1 = bucket.dropped_work + job.size <= a1_cap;
            let fits_a2 = self.ledger.accepted_int + job.size <= a2_cap;
            if fits_a1 && fits_a2 {
                bucket.work -= job.size;
                bucket.dropped_work += job.size;
                self.accept(job);
            } else {
                kept.push(job);
            }
        }
        bucket.jobs = kept;
    }

    fn accept(&mut self, job: Job) {
        self.ledger.accepted_int += job.size;
        self.accepted_jobs += 1;
        self.queue.push_back(job);
    }
}

impl Node for SizedNode {
    type Msg = SizedBucket;

    fn on_step(&mut self, ctx: &NodeCtx, io: &mut StepIo<'_, SizedBucket>) -> u64 {
        let m = ctx.topo.len();

        if ctx.t == 0 {
            let jobs = std::mem::take(&mut self.initial);
            if !jobs.is_empty() {
                let mut b = SizedBucket::new(ctx.id, Direction::Cw, jobs);
                self.negotiate_with_m(&mut b, m);
                if !b.is_spent() {
                    if m == 1 {
                        for job in b.jobs.drain(..) {
                            self.accept(job);
                        }
                    } else if self.bidirectional && m > 2 {
                        let ccw = split_sized(&mut b);
                        if !ccw.is_spent() {
                            io.out.push(Direction::Ccw, ccw);
                        }
                        if !b.is_spent() {
                            io.out.push(Direction::Cw, b);
                        }
                    } else {
                        io.out.push(Direction::Cw, b);
                    }
                }
            }
        } else {
            for msg in io
                .inbox
                .from_ccw
                .drain(..)
                .chain(io.inbox.from_cw.drain(..))
            {
                let mut bucket = msg;
                bucket.arrive(self.x, m);
                self.negotiate_with_m(&mut bucket, m);
                if !bucket.is_spent() {
                    io.out.push(bucket.dir, bucket);
                }
            }
        }

        // Non-preemptive processing: one unit per step into the current job.
        let mut work_done = 0;
        if self.current_remaining == 0 {
            if let Some(job) = self.queue.pop_front() {
                self.current_remaining = job.size;
            }
        }
        if self.current_remaining > 0 {
            self.current_remaining -= 1;
            work_done = 1;
        }
        work_done
    }

    fn pending_work(&self) -> u64 {
        self.current_remaining + self.queue.iter().map(|j| j.size).sum::<u64>()
    }

    fn quiescence(&self, now: u64) -> Option<Quiescence> {
        // Step 0 is the emission step; from step 1 on the node is purely
        // reactive and, with empty inboxes, drains one unit per round
        // (instance job sizes are ≥ 1, so the round that pops a job also
        // works on it).
        (now > 0).then_some(Quiescence {
            span: u64::MAX,
            backlog: self.pending_work(),
        })
    }

    fn fast_forward(&mut self, steps: u64) {
        // Replays the non-preemptive processing loop: finish the current
        // job, pop the next, and stop with the pop deferred when a job
        // completes on the span's last round — exactly the per-round
        // state.
        let mut remaining = steps;
        while remaining > 0 {
            if self.current_remaining == 0 {
                match self.queue.pop_front() {
                    Some(job) => self.current_remaining = job.size,
                    None => break,
                }
            }
            let d = self.current_remaining.min(remaining);
            self.current_remaining -= d;
            remaining -= d;
        }
    }

    // `c` and `bidirectional` are configuration, rebuilt on restore.
    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        save_jobs(&self.initial, enc);
        enc.u64(self.x);
        enc.usize(self.queue.len());
        for job in &self.queue {
            job.save(enc);
        }
        enc.u64(self.current_remaining);
        self.ledger.save(enc);
        enc.u64(self.p_max_seen);
        enc.u64(self.accepted_jobs);
        enc.u64(self.max_travel_seen);
        enc.bool(self.saw_balancing);
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.initial = load_jobs(dec)?;
        self.x = dec.u64()?;
        let n = dec.usize()?;
        let mut queue = VecDeque::with_capacity(n);
        for _ in 0..n {
            queue.push_back(Job::load(dec)?);
        }
        self.queue = queue;
        self.current_remaining = dec.u64()?;
        self.ledger = Ledger::load(dec)?;
        self.p_max_seen = dec.u64()?;
        self.accepted_jobs = dec.u64()?;
        self.max_travel_seen = dec.u64()?;
        self.saw_balancing = dec.bool()?;
        Ok(())
    }
}

/// Splits a bucket's jobs into two near-equal-work halves (first-fit onto
/// the lighter half; the clockwise half keeps ties).
fn split_sized(b: &mut SizedBucket) -> SizedBucket {
    let jobs = std::mem::take(&mut b.jobs);
    let mut cw: Vec<Job> = Vec::with_capacity(jobs.len());
    let mut ccw: Vec<Job> = Vec::with_capacity(jobs.len());
    let (mut wcw, mut wccw) = (0u64, 0u64);
    for job in jobs {
        if wcw <= wccw {
            wcw += job.size;
            cw.push(job);
        } else {
            wccw += job.size;
            ccw.push(job);
        }
    }
    let half_frac = b.frac / 2.0;
    b.jobs = cw;
    b.work = wcw;
    b.frac = half_frac;
    b.dropped_frac = 0.0;
    b.dropped_work = 0;
    SizedBucket {
        origin: b.origin,
        dir: Direction::Ccw,
        jobs: ccw,
        work: wccw,
        frac: half_frac,
        seen_work: b.seen_work,
        dropped_frac: 0.0,
        dropped_work: 0,
        p_max_seen: b.p_max_seen,
        hops: 0,
        balancing: false,
        total_work: 0,
    }
}

/// Outcome of an arbitrary-size run.
#[derive(Debug, Clone)]
pub struct ArbitraryRun {
    /// Schedule length.
    pub makespan: u64,
    /// Engine report.
    pub report: RunReport,
    /// Work accepted per processor.
    pub assigned_work: Vec<u64>,
    /// Jobs accepted per processor.
    pub assigned_jobs: Vec<u64>,
    /// Whether any bucket lapped the ring.
    pub wrapped: bool,
    /// Largest bucket travel distance.
    pub max_bucket_travel: u64,
}

/// Builds the per-processor policy nodes for a sized instance — used by
/// [`run_arbitrary`] and by tests that drive the engine themselves.
pub fn build_sized_nodes(instance: &SizedInstance, cfg: &ArbitraryConfig) -> Vec<SizedNode> {
    assert!(cfg.c > 0.0, "the drop-off constant must be positive");
    (0..instance.num_processors())
        .map(|i| SizedNode::new(cfg, instance.jobs_at(i).to_vec()))
        .collect()
}

/// Runs the arbitrary-size algorithm on a sized instance.
///
/// ```
/// use ring_sim::SizedInstance;
/// use ring_sched::arbitrary::{run_arbitrary, ArbitraryConfig};
///
/// // A batch of uneven jobs at one node.
/// let inst = SizedInstance::from_sizes(vec![vec![8, 5, 5, 2], vec![], vec![], vec![]]);
/// let run = run_arbitrary(&inst, &ArbitraryConfig::default()).unwrap();
/// assert_eq!(run.assigned_work.iter().sum::<u64>(), 20);
/// assert!(run.makespan >= 8); // p_max is a lower bound
/// ```
pub fn run_arbitrary(
    instance: &SizedInstance,
    cfg: &ArbitraryConfig,
) -> Result<ArbitraryRun, SimError> {
    let nodes = build_sized_nodes(instance, cfg);
    let engine_cfg = EngineConfig {
        max_steps: cfg.max_steps,
        trace: cfg.trace,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(nodes, instance.total_work(), engine_cfg);
    let report = engine.run()?;
    let nodes = engine.into_nodes();
    Ok(ArbitraryRun {
        makespan: report.makespan,
        assigned_work: nodes.iter().map(|n| n.ledger.accepted_int).collect(),
        assigned_jobs: nodes.iter().map(|n| n.accepted_jobs).collect(),
        wrapped: nodes.iter().any(|n| n.saw_balancing),
        max_bucket_travel: nodes.iter().map(|n| n.max_travel_seen).max().unwrap_or(0),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_opt::bounds::sized_lower_bound;
    use ring_sim::Instance;

    fn inst(sizes: Vec<Vec<u64>>) -> SizedInstance {
        SizedInstance::from_sizes(sizes)
    }

    #[test]
    fn empty_instance() {
        let run = run_arbitrary(
            &inst(vec![vec![], vec![], vec![]]),
            &ArbitraryConfig::default(),
        )
        .unwrap();
        assert_eq!(run.makespan, 0);
    }

    #[test]
    fn single_big_job_stays_put_cost_pmax() {
        let mut sizes = vec![vec![]; 8];
        sizes[0] = vec![50];
        let run = run_arbitrary(&inst(sizes), &ArbitraryConfig::default()).unwrap();
        // One indivisible job: it is processed somewhere for 50 steps; if it
        // migrated d hops the makespan is 50 + d. It should not migrate far.
        assert!(run.makespan >= 50);
        assert!(run.makespan <= 55, "makespan {}", run.makespan);
    }

    #[test]
    fn work_and_job_counts_conserved() {
        let i = inst(vec![vec![3, 3, 9], vec![], vec![1, 1], vec![20]]);
        let run = run_arbitrary(&i, &ArbitraryConfig::default()).unwrap();
        assert_eq!(run.assigned_work.iter().sum::<u64>(), 37);
        assert_eq!(run.assigned_jobs.iter().sum::<u64>(), 6);
        assert_eq!(run.report.metrics.total_processed(), 37);
    }

    #[test]
    fn respects_corollary2_bound() {
        // makespan <= 5.22 · max(L, p_max) + O(1).
        let cases = [
            {
                let mut s = vec![vec![]; 32];
                s[0] = vec![7; 64]; // 448 units in 7-unit jobs
                s
            },
            {
                let mut s = vec![vec![]; 16];
                s[3] = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
                s[11] = vec![30];
                s
            },
        ];
        for sizes in cases {
            let i = inst(sizes);
            let lb = sized_lower_bound(&i);
            let run = run_arbitrary(&i, &ArbitraryConfig::default()).unwrap();
            assert!(
                run.makespan as f64 <= 5.22 * lb as f64 + 3.0,
                "makespan {} vs 5.22·{}",
                run.makespan,
                lb
            );
        }
    }

    #[test]
    fn unit_sized_instance_close_to_unit_algorithm() {
        // Feeding all-1 jobs through the sized machinery must behave like
        // the unit algorithm (same targets, slack p_max = 1 instead of the
        // I1/I2 slack).
        let unit_inst = Instance::concentrated(64, 0, 400);
        let sized = unit_inst.to_sized();
        let unit_run = crate::unit::run_unit(&unit_inst, &crate::unit::UnitConfig::c1()).unwrap();
        let sized_run = run_arbitrary(&sized, &ArbitraryConfig::default()).unwrap();
        let diff = (sized_run.makespan as i64 - unit_run.makespan as i64).abs();
        assert!(
            diff <= 4,
            "unit {} vs sized {}",
            unit_run.makespan,
            sized_run.makespan
        );
    }

    #[test]
    fn bidirectional_conserves_and_uses_both_sides() {
        let mut sizes = vec![vec![]; 64];
        sizes[0] = vec![2; 200];
        let i = inst(sizes);
        let run = run_arbitrary(
            &i,
            &ArbitraryConfig {
                bidirectional: true,
                ..ArbitraryConfig::default()
            },
        )
        .unwrap();
        assert_eq!(run.assigned_work.iter().sum::<u64>(), 400);
        // Work must land on both sides of the origin.
        assert!(run.assigned_work[1] > 0 || run.assigned_work[2] > 0);
        assert!(run.assigned_work[63] > 0 || run.assigned_work[62] > 0);
    }

    #[test]
    fn wraparound_on_small_ring() {
        let mut sizes = vec![vec![]; 4];
        sizes[0] = vec![5; 2000]; // 10_000 units
        let i = inst(sizes);
        let run = run_arbitrary(&i, &ArbitraryConfig::default()).unwrap();
        assert!(run.wrapped);
        // Near-average split plus travel and p_max slop.
        assert!(
            run.makespan <= 10_000 / 4 + 2 * 4 + 5 + 5,
            "makespan {}",
            run.makespan
        );
    }

    #[test]
    fn jobs_never_split_across_processors() {
        // Total processed work per node must be expressible as a sum of
        // whole accepted jobs (we track both independently).
        let i = inst(vec![vec![4, 9], vec![], vec![6], vec![], vec![2, 2, 2]]);
        let run = run_arbitrary(&i, &ArbitraryConfig::default()).unwrap();
        assert_eq!(
            run.report.metrics.processed_per_node, run.assigned_work,
            "processed work must equal accepted whole-job work"
        );
    }

    #[test]
    fn heterogeneous_sizes_make_progress_everywhere() {
        let mut sizes = vec![vec![]; 24];
        sizes[0] = (1..=40).collect(); // 820 units, p_max 40
        let i = inst(sizes);
        let run = run_arbitrary(&i, &ArbitraryConfig::default()).unwrap();
        let busy = run.assigned_work.iter().filter(|&&w| w > 0).count();
        assert!(busy >= 8, "only {busy} processors used");
    }

    #[test]
    fn split_sized_halves_work() {
        let jobs: Vec<Job> = (0..10)
            .map(|k| Job {
                id: ring_sim::JobId(k),
                origin: 0,
                size: 10 - k % 3,
            })
            .collect();
        let total: u64 = jobs.iter().map(|j| j.size).sum();
        let mut b = SizedBucket::new(0, Direction::Cw, jobs);
        let ccw = split_sized(&mut b);
        assert_eq!(b.work + ccw.work, total);
        let diff = b.work.abs_diff(ccw.work);
        assert!(diff <= 10, "uneven split: {} vs {}", b.work, ccw.work);
    }
}
