//! The service core: client handles, the deterministic virtual-time
//! protocol, and the epoch loop that folds admitted arrivals into the ring
//! engine.
//!
//! # Deterministic virtual time
//!
//! Wall-clock thread timing must never influence scheduling decisions
//! (fixed inputs ⇒ bit-identical completion log), so the service runs on a
//! *virtual* clock measured in engine steps. Every handle owns a
//! non-decreasing **watermark** — a promise that it will never again submit
//! work tagged earlier. Submissions are stamped with the submitting
//! handle's current watermark.
//!
//! All decisions happen on the epoch grid `B_k = k·epoch`. The loop
//! processes boundary `B` only once every handle's effective watermark has
//! reached `B` (a handle blocked in [`Handle::wait`] or [`Handle::submit`]
//! counts as `∞`: it cannot submit anything while blocked, and its
//! watermark is re-pinned to the boundary that wakes it). At that point the
//! set of submissions tagged before `B` is final, so admission order —
//! sorted by `(tag, client, seq)` — is a pure function of the submission
//! history.
//!
//! # Generations
//!
//! The ring runs as a sequence of engine *generations*, one per busy
//! period. A generation starts at the boundary that admits work into an
//! idle ring (`virtual = base + engine step`), is advanced one epoch at a
//! time with [`ring_sim::Engine::run_span`], and is
//! dropped when its engine reports completion. Admitted batches are
//! injected at the paused boundary via [`DynamicNode::inject`] +
//! [`ring_sim::Engine::add_work`].
//!
//! # Completion attribution
//!
//! Unit jobs are interchangeable, so batch completion is attributed FIFO:
//! a ticket completes at the first boundary where the generation's
//! processed-job count reaches the cumulative injected count up to and
//! including that batch. Sojourn = boundary − submission tag, which folds
//! in admission latency (up to one epoch) and quantizes completions to the
//! epoch grid.

use crate::meta::{MetaTicket, ServiceMeta};
use crate::report::{log_digest, EpochSample, LatencySummary, ServiceReport};
use crate::types::{Admission, LogEntry, Outcome, Resolution, ServiceConfig, ShedReason, Ticket};
use ring_sched::dynamic::{build_dynamic_nodes, quick_clearance_bound, Arrival, DynamicNode};
use ring_sim::checkpoint::Snapshot;
use ring_sim::{Engine, EngineConfig, Node, SpanOutcome, TraceLevel};
use ring_stats::LatencyHistogram;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Engine configuration for a scheduling generation: untraced (the replay
/// oracle does not model mid-run injection), unobserved (so nodes park and
/// an idle epoch costs the engine nothing per node), unbounded step budget
/// (the service decides when to stop, not the engine).
fn generation_config() -> EngineConfig {
    EngineConfig {
        max_steps: Some(u64::MAX),
        trace: TraceLevel::Off,
        observe: false,
        ..EngineConfig::default()
    }
}

/// An admitted batch awaiting completion inside the live generation.
#[derive(Debug, Clone, Copy)]
struct GenTicket {
    ticket: Ticket,
    processor: usize,
    jobs: u64,
    /// Generation-cumulative injected jobs through this batch.
    cum_end: u64,
    tag: u64,
}

/// One busy period of the ring.
struct Generation {
    /// Virtual-time offset: `virtual = base + engine step`.
    base: u64,
    engine: Engine<DynamicNode>,
    /// Outstanding batches in admission (= attribution) order.
    fifo: VecDeque<GenTicket>,
    /// Generation-cumulative processed count already attributed to the
    /// latency histogram (the engine's processed total at the previous
    /// epoch boundary): attribution resumes from here each boundary, so
    /// every job is recorded exactly once, at the boundary where the
    /// engine actually processed it.
    attributed: u64,
}

impl Generation {
    fn new(base: u64, cfg: &ServiceConfig) -> Generation {
        Generation {
            base,
            engine: Engine::new(
                build_dynamic_nodes(cfg.m, &cfg.unit),
                0,
                generation_config(),
            ),
            fifo: VecDeque::new(),
            attributed: 0,
        }
    }
}

/// What a blocked handle is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitKind {
    /// [`Handle::submit`]: the admission decision for this ticket.
    Decision(Ticket),
    /// [`Handle::wait`]: the terminal resolution of this ticket.
    Completion(Ticket),
}

struct ClientState {
    watermark: u64,
    waiting: Option<WaitKind>,
    /// Admission decision parked by the loop for a `Decision` waiter.
    decision: Option<Admission>,
    next_seq: u64,
    closed: bool,
}

/// A submission accepted into the ingress queue, awaiting its admission
/// boundary.
#[derive(Debug, Clone, Copy)]
struct Submission {
    tag: u64,
    client: usize,
    seq: u64,
    processor: usize,
    count: u64,
}

struct Shared {
    cfg: ServiceConfig,
    /// Last processed epoch boundary.
    now: u64,
    clients: Vec<ClientState>,
    pending: Vec<Submission>,
    resolved: HashMap<Ticket, Resolution>,
    gen: Option<Generation>,
    /// Admitted-but-incomplete jobs.
    outstanding: u64,
    shutdown: bool,
    // Accounting.
    submitted_jobs: u64,
    admitted_jobs: u64,
    completed_jobs: u64,
    shed_queue_overflow: u64,
    shed_slo: u64,
    shed_draining: u64,
    peak_outstanding: u64,
    generations: u64,
    engine_rounds: u64,
    latency: LatencyHistogram,
    log: Vec<LogEntry>,
    samples: Vec<EpochSample>,
}

impl Shared {
    fn new(cfg: ServiceConfig, clients: usize, now: u64, gen: Option<Generation>) -> Shared {
        // Completion is attributed per ticket, so the resumed backlog is
        // the ticket-job sum — not `total_work - processed`, which dips as
        // soon as the engine clears part of a still-unfinished batch.
        let outstanding = gen
            .as_ref()
            .map_or(0, |g| g.fifo.iter().map(|t| t.jobs).sum());
        Shared {
            generations: gen.is_some() as u64,
            clients: (0..clients)
                .map(|_| ClientState {
                    watermark: now,
                    waiting: None,
                    decision: None,
                    next_seq: 0,
                    closed: false,
                })
                .collect(),
            cfg,
            now,
            pending: Vec::new(),
            resolved: HashMap::new(),
            gen,
            outstanding,
            shutdown: false,
            submitted_jobs: 0,
            admitted_jobs: 0,
            completed_jobs: 0,
            shed_queue_overflow: 0,
            shed_slo: 0,
            shed_draining: 0,
            peak_outstanding: outstanding,
            engine_rounds: 0,
            latency: LatencyHistogram::new(),
            log: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Minimum over each handle's effective watermark (`∞` for closed or
    /// blocked handles, which cannot submit).
    fn effective_min_watermark(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| {
                if c.closed || c.waiting.is_some() {
                    u64::MAX
                } else {
                    c.watermark
                }
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The next epoch boundary the loop may process, if any: the first
    /// boundary at which anything can happen (the live generation advances,
    /// or a pending submission gets its admission decision), provided every
    /// handle's effective watermark has reached it.
    fn next_processable(&self) -> Option<u64> {
        if self.shutdown {
            return None;
        }
        let epoch = self.cfg.epoch;
        let target = if self.gen.is_some() {
            self.now + epoch
        } else {
            let tmin = self.pending.iter().map(|s| s.tag).min()?;
            ((tmin / epoch) + 1) * epoch
        };
        let target = target.max(self.now + epoch);
        (self.effective_min_watermark() >= target).then_some(target)
    }

    /// Records a terminal outcome for a ticket.
    fn finish(&mut self, entry: LogEntry, resolution: Resolution) {
        self.resolved.insert(entry.ticket, resolution);
        self.log.push(entry);
    }

    /// Admission policy for one submission, evaluated against the current
    /// backlog. `Err` carries the typed shed reason.
    fn admit_verdict(&self, s: &Submission) -> Result<(), ShedReason> {
        if self.outstanding.saturating_add(s.count) > self.cfg.queue_cap {
            return Err(ShedReason::QueueOverflow);
        }
        if self.cfg.slo_horizon != u64::MAX {
            // O(m) lower bound on clearing the backlog plus this batch: the
            // per-origin resident loads feed the quick clearance bound, and
            // jobs travelling inside buckets (not resident anywhere) are
            // covered by the global ⌈N/m⌉ term. Both are true lower bounds,
            // so shedding on them never rejects a schedulable-in-time batch
            // spuriously optimistically.
            let mut loads: Vec<u64> = match &self.gen {
                Some(gen) => gen.engine.nodes().iter().map(Node::pending_work).collect(),
                None => vec![0; self.cfg.m],
            };
            loads[s.processor] += s.count;
            let predicted = quick_clearance_bound(&loads)
                .max((self.outstanding.saturating_add(s.count)).div_ceil(self.cfg.m as u64));
            if predicted > self.cfg.slo_horizon {
                return Err(ShedReason::SloExceeded);
            }
        }
        Ok(())
    }

    /// Processes epoch boundary `b` (which must be `now + epoch`): advance
    /// the generation, attribute completions, decide admissions, wake
    /// blocked handles, sample.
    fn process_boundary(&mut self, b: u64) {
        debug_assert_eq!(b, self.now + self.cfg.epoch);
        let mut admitted_here = 0u64;
        let mut completed_here = 0u64;
        let mut shed_here = 0u64;
        let mut rounds_here = 0u64;

        // 1. Advance the live generation to this boundary and pop every
        //    FIFO ticket whose cumulative injected count has been processed.
        let mut finished: Vec<GenTicket> = Vec::new();
        let mut generation_done = false;
        if let Some(gen) = self.gen.as_mut() {
            let pause_at = b - gen.base;
            let before = gen.engine.t();
            let outcome = gen
                .engine
                .run_span(pause_at)
                .expect("generation engines run without faults or step budgets");
            let processed = match &outcome {
                SpanOutcome::Paused { t, processed } => {
                    rounds_here = t - before;
                    *processed
                }
                SpanOutcome::Done(report) => {
                    rounds_here = report.metrics.steps.saturating_sub(before);
                    generation_done = true;
                    report.metrics.total_processed()
                }
            };
            // Sub-batch latency attribution: a job's sojourn ends at the
            // boundary where the engine actually processed it — located by
            // its FIFO position against the cumulative injection counts —
            // not at the boundary where its whole batch resolves. A batch
            // straddling several epochs spreads over them instead of
            // collapsing onto one histogram value, which is what keeps the
            // overload tail (p99 > p95) visible in the report.
            for gt in gen.fifo.iter() {
                let start = (gt.cum_end - gt.jobs).max(gen.attributed);
                if start >= processed {
                    break;
                }
                self.latency
                    .record_n(b - gt.tag, gt.cum_end.min(processed) - start);
            }
            gen.attributed = processed;
            while gen.fifo.front().is_some_and(|g| g.cum_end <= processed) {
                finished.push(gen.fifo.pop_front().expect("front checked"));
            }
        }
        if generation_done {
            self.gen = None;
        }
        for g in finished {
            self.outstanding -= g.jobs;
            completed_here += g.jobs;
            self.completed_jobs += g.jobs;
            self.finish(
                LogEntry {
                    ticket: g.ticket,
                    processor: g.processor,
                    jobs: g.jobs,
                    tag: g.tag,
                    at: b,
                    outcome: Outcome::Completed,
                },
                Resolution::Completed {
                    at: b,
                    sojourn: b - g.tag,
                },
            );
        }

        // 2. Admission decisions for every submission tagged before `b`,
        //    in deterministic (tag, client, seq) order. The watermark
        //    protocol guarantees this set is final.
        let (mut batch, keep): (Vec<Submission>, Vec<Submission>) =
            self.pending.drain(..).partition(|s| s.tag < b);
        self.pending = keep;
        batch.sort_by_key(|s| (s.tag, s.client, s.seq));
        for s in batch {
            let ticket = Ticket {
                client: s.client,
                seq: s.seq,
            };
            let admission = match self.admit_verdict(&s) {
                Ok(()) => {
                    if self.gen.is_none() {
                        self.gen = Some(Generation::new(b, &self.cfg));
                        self.generations += 1;
                    }
                    let gen = self.gen.as_mut().expect("just ensured");
                    let time = b - gen.base;
                    gen.engine.node_mut(s.processor).inject(Arrival {
                        time,
                        processor: s.processor,
                        count: s.count,
                    });
                    gen.engine.add_work(s.count);
                    gen.fifo.push_back(GenTicket {
                        ticket,
                        processor: s.processor,
                        jobs: s.count,
                        cum_end: gen.engine.total_work(),
                        tag: s.tag,
                    });
                    self.outstanding += s.count;
                    self.admitted_jobs += s.count;
                    admitted_here += s.count;
                    Admission::Admitted { at: b }
                }
                Err(reason) => {
                    shed_here += s.count;
                    match reason {
                        ShedReason::QueueOverflow => self.shed_queue_overflow += s.count,
                        ShedReason::SloExceeded => self.shed_slo += s.count,
                        ShedReason::Draining => self.shed_draining += s.count,
                    }
                    self.finish(
                        LogEntry {
                            ticket,
                            processor: s.processor,
                            jobs: s.count,
                            tag: s.tag,
                            at: b,
                            outcome: Outcome::Shed(reason),
                        },
                        Resolution::Shed { at: b, reason },
                    );
                    Admission::Shed { at: b, reason }
                }
            };
            let c = &mut self.clients[s.client];
            if c.waiting == Some(WaitKind::Decision(ticket)) {
                c.decision = Some(admission);
                c.waiting = None;
                c.watermark = c.watermark.max(b);
            }
        }

        // 3. Wake completion-waiters whose ticket has resolved, re-pinning
        //    their watermark to this boundary *before* the loop can move
        //    past it (so the woken client observes a consistent clock).
        for c in self.clients.iter_mut() {
            if let Some(WaitKind::Completion(t)) = c.waiting {
                if self.resolved.contains_key(&t) {
                    c.waiting = None;
                    c.watermark = c.watermark.max(b);
                }
            }
        }

        // 4. Sample and advance the clock. Boundaries where nothing
        //    happened leave no sample.
        if rounds_here > 0 || admitted_here > 0 || completed_here > 0 || shed_here > 0 {
            self.samples.push(EpochSample {
                at: b,
                queue_depth: self.outstanding,
                admitted: admitted_here,
                completed: completed_here,
                shed: shed_here,
                engine_rounds: rounds_here,
            });
        }
        self.engine_rounds += rounds_here;
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding);
        self.now = b;
    }

    /// Stamps a new ticket for `client` and enqueues the submission (or
    /// immediately sheds it when the service is already shut down).
    /// Returns the ticket plus an immediate decision in the shutdown case.
    fn push_submission(
        &mut self,
        client: usize,
        processor: usize,
        count: u64,
    ) -> (Ticket, Option<Admission>) {
        assert!(processor < self.cfg.m, "processor out of range");
        assert!(count > 0, "a batch must carry at least one job");
        assert!(!self.clients[client].closed, "handle is closed");
        let seq = self.clients[client].next_seq;
        self.clients[client].next_seq += 1;
        let ticket = Ticket { client, seq };
        self.submitted_jobs += count;
        let tag = self.clients[client].watermark;
        if self.shutdown {
            let at = self.now;
            self.shed_draining += count;
            self.finish(
                LogEntry {
                    ticket,
                    processor,
                    jobs: count,
                    tag,
                    at,
                    outcome: Outcome::Shed(ShedReason::Draining),
                },
                Resolution::Shed {
                    at,
                    reason: ShedReason::Draining,
                },
            );
            return (
                ticket,
                Some(Admission::Shed {
                    at,
                    reason: ShedReason::Draining,
                }),
            );
        }
        self.pending.push(Submission {
            tag,
            client,
            seq,
            processor,
            count,
        });
        (ticket, None)
    }

    fn report(&self) -> ServiceReport {
        ServiceReport {
            now: self.now,
            epoch: self.cfg.epoch,
            m: self.cfg.m,
            submitted_jobs: self.submitted_jobs,
            admitted_jobs: self.admitted_jobs,
            completed_jobs: self.completed_jobs,
            shed_queue_overflow: self.shed_queue_overflow,
            shed_slo: self.shed_slo,
            shed_draining: self.shed_draining,
            outstanding: self.outstanding,
            peak_outstanding: self.peak_outstanding,
            generations: self.generations,
            engine_rounds: self.engine_rounds,
            latency: LatencySummary::of(&self.latency),
            samples: self.samples.clone(),
        }
    }
}

struct Inner {
    state: Mutex<Shared>,
    /// The epoch loop waits here for watermark/submission progress.
    loop_cv: Condvar,
    /// Blocked handles (and `drain`/`await_idle`) wait here for boundaries.
    client_cv: Condvar,
}

/// The epoch loop: process every boundary the watermark protocol allows,
/// park otherwise. Boundaries at which provably nothing happens (idle ring,
/// no admissible submission) are skipped by fast-forwarding the clock.
fn run_loop(inner: &Inner) {
    let mut g = inner.state.lock().unwrap();
    loop {
        if g.shutdown {
            break;
        }
        if let Some(b) = g.next_processable() {
            g.now = b - g.cfg.epoch;
            g.process_boundary(b);
            inner.client_cv.notify_all();
            continue;
        }
        g = inner.loop_cv.wait(g).unwrap();
    }
    drop(g);
    inner.client_cv.notify_all();
}

/// A client's connection to a [`Service`]. Each handle owns a watermark on
/// the virtual clock and a private ticket sequence; handles are
/// independent and may live on different threads.
///
/// **Liveness contract:** the virtual clock only advances past a boundary
/// once every handle's watermark has reached it, so an idle handle that
/// neither advances nor closes stalls the whole service. Dropping a handle
/// closes it.
pub struct Handle {
    inner: Arc<Inner>,
    id: usize,
}

impl Handle {
    /// This handle's index (the `client` field of its tickets).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The handle's current watermark (virtual time).
    pub fn now(&self) -> u64 {
        self.inner.state.lock().unwrap().clients[self.id].watermark
    }

    /// Raises the watermark to `t` (no-op if it is already past `t`),
    /// promising that no future submission from this handle is tagged
    /// earlier.
    pub fn advance_to(&self, t: u64) {
        let mut g = self.inner.state.lock().unwrap();
        let c = &mut g.clients[self.id];
        if t > c.watermark {
            c.watermark = t;
            self.inner.loop_cv.notify_all();
        }
    }

    /// Submits a batch of `count` unit jobs to `processor` without waiting
    /// for the admission decision (open-loop clients; may be shed — claim
    /// the outcome later with [`Handle::wait`]).
    ///
    /// # Panics
    ///
    /// Panics if `processor` is out of range, `count == 0`, or the handle
    /// is closed.
    pub fn try_submit(&self, processor: usize, count: u64) -> Ticket {
        let mut g = self.inner.state.lock().unwrap();
        let (ticket, _) = g.push_submission(self.id, processor, count);
        self.inner.loop_cv.notify_all();
        ticket
    }

    /// Submits a batch and blocks until its admission decision — the
    /// backpressure primitive: a well-behaved client caps itself at one
    /// undecided batch, and its submission rate is throttled by the
    /// admission policy instead of queue growth.
    ///
    /// On return the handle's watermark sits at the decision boundary.
    ///
    /// # Panics
    ///
    /// Panics as [`Handle::try_submit`] does.
    pub fn submit(&self, processor: usize, count: u64) -> (Ticket, Admission) {
        let mut g = self.inner.state.lock().unwrap();
        let (ticket, immediate) = g.push_submission(self.id, processor, count);
        if let Some(decision) = immediate {
            return (ticket, decision);
        }
        g.clients[self.id].waiting = Some(WaitKind::Decision(ticket));
        self.inner.loop_cv.notify_all();
        loop {
            if let Some(decision) = g.clients[self.id].decision.take() {
                return (ticket, decision);
            }
            if g.shutdown {
                // Drain delivers decisions for every queued submission; this
                // only triggers when the service was dropped without drain.
                let at = g.now;
                g.clients[self.id].waiting = None;
                return (
                    ticket,
                    Admission::Shed {
                        at,
                        reason: ShedReason::Draining,
                    },
                );
            }
            g = self.inner.client_cv.wait(g).unwrap();
        }
    }

    /// Blocks until `ticket` reaches a terminal state and claims its
    /// resolution (each resolution can be claimed exactly once). On return
    /// the handle's watermark sits at the resolution boundary.
    ///
    /// If the service drains while the ticket is still in flight, returns
    /// [`Resolution::Detached`] — the jobs live on in the drain snapshot.
    pub fn wait(&self, ticket: Ticket) -> Resolution {
        let mut g = self.inner.state.lock().unwrap();
        loop {
            if let Some(r) = g.resolved.remove(&ticket) {
                let c = &mut g.clients[self.id];
                c.waiting = None;
                c.watermark = c.watermark.max(r.at());
                self.inner.loop_cv.notify_all();
                return r;
            }
            if g.shutdown {
                let at = g.now;
                g.clients[self.id].waiting = None;
                return Resolution::Detached { at };
            }
            g.clients[self.id].waiting = Some(WaitKind::Completion(ticket));
            self.inner.loop_cv.notify_all();
            g = self.inner.client_cv.wait(g).unwrap();
        }
    }

    /// Permanently releases this handle's hold on the virtual clock (its
    /// effective watermark becomes `∞`). Submitting afterwards panics.
    pub fn close(&self) {
        if let Ok(mut g) = self.inner.state.lock() {
            g.clients[self.id].closed = true;
            self.inner.loop_cv.notify_all();
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.close();
    }
}

/// An online job-submission service on top of the ring engine. See the
/// [module docs](crate::service) for the protocol.
pub struct Service {
    inner: Arc<Inner>,
    thread: Option<JoinHandle<()>>,
}

impl Service {
    fn boot(
        cfg: ServiceConfig,
        clients: usize,
        now: u64,
        gen: Option<Generation>,
    ) -> (Service, Vec<Handle>) {
        assert!(cfg.m > 0, "need at least one processor");
        assert!(cfg.epoch > 0, "epoch must be positive");
        if let crate::ExecutorMode::Parallel(s) = cfg.executor {
            assert!(s > 0, "need at least one shard");
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(Shared::new(cfg, clients, now, gen)),
            loop_cv: Condvar::new(),
            client_cv: Condvar::new(),
        });
        let handles = (0..clients)
            .map(|id| Handle {
                inner: Arc::clone(&inner),
                id,
            })
            .collect();
        let loop_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("ring-service-epoch-loop".into())
            .spawn(move || run_loop(&loop_inner))
            .expect("spawn epoch loop");
        (
            Service {
                inner,
                thread: Some(thread),
            },
            handles,
        )
    }

    /// Starts a fresh service with `clients` handles. All handles must be
    /// created up front: the deterministic protocol needs the full set of
    /// watermark holders from the first boundary.
    pub fn start(cfg: ServiceConfig, clients: usize) -> (Service, Vec<Handle>) {
        Service::boot(cfg, clients, 0, None)
    }

    /// Restores a drained service from its snapshot: the virtual clock,
    /// the paused generation engine (bit-identical, via
    /// [`ring_sim::Engine::resume`]), and the outstanding-ticket FIFO.
    /// Remaining completions then resolve exactly as they would have in
    /// the uninterrupted run. `cfg` must match the drained service's ring
    /// size and epoch; accounting restarts from zero.
    pub fn resume(
        cfg: ServiceConfig,
        snap: &Snapshot,
        clients: usize,
    ) -> Result<(Service, Vec<Handle>), String> {
        let meta = ServiceMeta::decode(&snap.app_meta)?;
        if snap.m != cfg.m {
            return Err(format!(
                "snapshot is for an m={} ring, config says m={}",
                snap.m, cfg.m
            ));
        }
        if meta.epoch != cfg.epoch {
            return Err(format!(
                "snapshot was drained on an epoch-{} grid, config says {} (the boundary grid must be preserved)",
                meta.epoch, cfg.epoch
            ));
        }
        let gen = if snap.processed < snap.total_work {
            let nodes = build_dynamic_nodes(cfg.m, &cfg.unit);
            let engine = Engine::resume(nodes, generation_config(), snap)
                .map_err(|e| format!("cannot resume the generation engine: {e}"))?;
            Some(Generation {
                base: meta.base,
                engine,
                fifo: meta
                    .tickets
                    .iter()
                    .map(|t| GenTicket {
                        ticket: t.ticket,
                        processor: t.processor,
                        jobs: t.jobs,
                        cum_end: t.cum_end,
                        tag: t.tag,
                    })
                    .collect(),
                // Jobs processed before the drain were attributed at the
                // pre-drain boundaries; the resumed run picks up from the
                // snapshot's processed count.
                attributed: snap.processed,
            })
        } else {
            if !meta.tickets.is_empty() {
                return Err("snapshot carries outstanding tickets but no unfinished work".into());
            }
            None
        };
        Ok(Service::boot(cfg, clients, meta.now, gen))
    }

    /// Blocks until the ring is idle: no live generation and no queued
    /// submission. Callers should settle their handles first (close them
    /// or park them at their final watermark) — see the liveness contract
    /// on [`Handle`].
    pub fn await_idle(&self) {
        let mut g = self.inner.state.lock().unwrap();
        while !(g.shutdown || (g.gen.is_none() && g.pending.is_empty())) {
            g = self.inner.client_cv.wait(g).unwrap();
        }
    }

    /// A point-in-time accounting snapshot.
    pub fn report(&self) -> ServiceReport {
        self.inner.state.lock().unwrap().report()
    }

    /// A copy of the completion log so far (terminal outcomes in
    /// deterministic boundary order).
    pub fn completion_log(&self) -> Vec<LogEntry> {
        self.inner.state.lock().unwrap().log.clone()
    }

    /// The reproducibility digest of the completion log so far.
    pub fn log_digest(&self) -> u64 {
        log_digest(&self.inner.state.lock().unwrap().log)
    }

    /// Gracefully drains the service: waits until the epoch loop has
    /// processed every boundary the watermark protocol allows, stops it,
    /// sheds still-queued submissions with [`ShedReason::Draining`], wakes
    /// every blocked handle, and snapshots the paused generation engine
    /// (checkpoint-pure: the same bytes a cadence checkpoint at this
    /// boundary would produce) with the service bookkeeping in
    /// [`Snapshot::app_meta`]. Feed the snapshot to [`Service::resume`] to
    /// continue; in-flight jobs complete bit-identically.
    pub fn drain(mut self) -> (ServiceReport, Snapshot) {
        {
            let mut g = self.inner.state.lock().unwrap();
            while g.next_processable().is_some() {
                g = self.inner.client_cv.wait(g).unwrap();
            }
            g.shutdown = true;
            self.inner.loop_cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            t.join().expect("epoch loop panicked");
        }
        let mut g = self.inner.state.lock().unwrap();
        let now = g.now;
        let mut queued: Vec<Submission> = g.pending.drain(..).collect();
        queued.sort_by_key(|s| (s.tag, s.client, s.seq));
        for s in queued {
            let ticket = Ticket {
                client: s.client,
                seq: s.seq,
            };
            g.shed_draining += s.count;
            g.finish(
                LogEntry {
                    ticket,
                    processor: s.processor,
                    jobs: s.count,
                    tag: s.tag,
                    at: now,
                    outcome: Outcome::Shed(ShedReason::Draining),
                },
                Resolution::Shed {
                    at: now,
                    reason: ShedReason::Draining,
                },
            );
            let c = &mut g.clients[s.client];
            if c.waiting == Some(WaitKind::Decision(ticket)) {
                c.decision = Some(Admission::Shed {
                    at: now,
                    reason: ShedReason::Draining,
                });
                c.waiting = None;
            }
        }
        let meta = ServiceMeta {
            now,
            base: g.gen.as_ref().map_or(now, |gen| gen.base),
            epoch: g.cfg.epoch,
            tickets: g
                .gen
                .as_ref()
                .map(|gen| {
                    gen.fifo
                        .iter()
                        .map(|t| MetaTicket {
                            ticket: t.ticket,
                            processor: t.processor,
                            jobs: t.jobs,
                            cum_end: t.cum_end,
                            tag: t.tag,
                        })
                        .collect()
                })
                .unwrap_or_default(),
        };
        let encoded = meta.encode();
        let snap = match g.gen.as_mut() {
            Some(gen) => {
                gen.engine.set_checkpoint_meta(encoded);
                gen.engine.snapshot()
            }
            None => {
                // Idle ring: snapshot a pristine engine so the drain
                // artifact is uniform (resume recognizes the no-work case).
                let cfg = &g.cfg;
                let mut engine: Engine<DynamicNode> = Engine::new(
                    build_dynamic_nodes(cfg.m, &cfg.unit),
                    0,
                    generation_config(),
                );
                engine.set_checkpoint_meta(encoded);
                engine.snapshot()
            }
        }
        .expect("drained engines sit at a step boundary");
        let report = g.report();
        drop(g);
        self.inner.client_cv.notify_all();
        (report, snap)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            if let Ok(mut g) = self.inner.state.lock() {
                g.shutdown = true;
                self.inner.loop_cv.notify_all();
            }
            let _ = t.join();
            self.inner.client_cv.notify_all();
        }
    }
}
