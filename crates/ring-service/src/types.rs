//! Public value types of the service: configuration, tickets, and the
//! resolutions the service hands back for them.

use ring_sched::unit::UnitConfig;

/// How service generations advance the ring each epoch.
///
/// The parallel executor is bit-identical to the sequential one but pays
/// per-window shard coordination, and since the sequential span steps an
/// active-node frontier there is no idle sweep left for it to win back.
/// `ringsched bench-service --sizes 256,4096` (2 cores, three runs,
/// completed jobs per wall second): m = 256 `run` 2.2–4.7 M vs
/// `par_run(8)` 0.62–0.77 M; m = 4096 `run` 7.6–8.9 M vs `par_run(8)`
/// 2.2–2.6 M and `par_run(2)` 2.3–3.5 M. `run` wins every cell, so it is
/// the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorMode {
    /// [`ring_sim::Engine::run_span`] (the default).
    Sequential,
    /// `par_run_span` on this many shards (must be > 0).
    Parallel(usize),
}

impl ExecutorMode {
    /// Resolves the mode to a concrete shard count: `None` = sequential,
    /// `Some(s)` = parallel on `s` shards.
    pub fn shards_for(self) -> Option<usize> {
        match self {
            ExecutorMode::Sequential => None,
            ExecutorMode::Parallel(s) => Some(s),
        }
    }
}

/// Configuration of a [`crate::Service`].
///
/// The admission knobs default to "accept everything" (`u64::MAX`); callers
/// opt into bounded queues and SLO shedding with the builder methods.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ring size.
    pub m: usize,
    /// Bucket algorithm the scheduling generations run (its `trace`,
    /// `observe`, and `max_steps` fields are ignored: service generations
    /// always run untraced with an unbounded step budget).
    pub unit: UnitConfig,
    /// Virtual steps between epoch boundaries — the grid on which every
    /// admission, shed, and completion decision is made.
    pub epoch: u64,
    /// Maximum admitted-but-incomplete jobs; a batch that would push past
    /// this is shed with [`ShedReason::QueueOverflow`].
    pub queue_cap: u64,
    /// Maximum tolerated clearance prediction, in virtual steps. A batch is
    /// shed with [`ShedReason::SloExceeded`] when the O(m) lower bound on
    /// clearing the backlog (including the batch) exceeds this.
    pub slo_horizon: u64,
    /// Executor selection for generation advancement. Every mode produces
    /// bit-identical results; only wall-clock differs.
    pub executor: ExecutorMode,
}

impl ServiceConfig {
    /// A service on an `m`-ring running algorithm C1 with a 32-step epoch
    /// and admission control disabled.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "need at least one processor");
        ServiceConfig {
            m,
            unit: UnitConfig::c1(),
            epoch: 32,
            queue_cap: u64::MAX,
            slo_horizon: u64::MAX,
            executor: ExecutorMode::Sequential,
        }
    }

    /// Replaces the bucket algorithm.
    pub fn with_unit(mut self, unit: UnitConfig) -> Self {
        self.unit = unit;
        self
    }

    /// Sets the epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch == 0`.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        assert!(epoch > 0, "epoch must be positive");
        self.epoch = epoch;
        self
    }

    /// Bounds admitted-but-incomplete jobs.
    pub fn with_queue_cap(mut self, cap: u64) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Bounds the predicted clearance backlog.
    pub fn with_slo_horizon(mut self, horizon: u64) -> Self {
        self.slo_horizon = horizon;
        self
    }

    /// Runs generations on the parallel executor (shorthand for
    /// `with_executor(ExecutorMode::Parallel(shards))`).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.executor = ExecutorMode::Parallel(shards);
        self
    }

    /// Replaces the executor selection mode.
    pub fn with_executor(mut self, executor: ExecutorMode) -> Self {
        self.executor = executor;
        self
    }
}

/// Identifies one submitted batch: the submitting handle plus a per-handle
/// sequence number. Stable across drain/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket {
    /// Index of the submitting [`crate::Handle`].
    pub client: usize,
    /// Per-handle submission counter.
    pub seq: u64,
}

/// Why a batch was rejected instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Admitting the batch would exceed [`ServiceConfig::queue_cap`].
    QueueOverflow,
    /// The predicted clearance time of the backlog plus the batch exceeds
    /// [`ServiceConfig::slo_horizon`].
    SloExceeded,
    /// The service was draining; the batch was never admitted.
    Draining,
}

impl ShedReason {
    /// Stable short name (used in logs and JSON).
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueOverflow => "queue_overflow",
            ShedReason::SloExceeded => "slo_exceeded",
            ShedReason::Draining => "draining",
        }
    }
}

/// The admission decision for a batch, delivered at the first epoch
/// boundary after its submission tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The batch entered the ring at boundary `at`.
    Admitted {
        /// Boundary (virtual step) of admission.
        at: u64,
    },
    /// The batch was rejected at boundary `at`.
    Shed {
        /// Boundary (virtual step) of the decision.
        at: u64,
        /// Why.
        reason: ShedReason,
    },
}

/// Terminal outcome of a ticket, claimed with [`crate::Handle::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Every job of the batch was processed by boundary `at`.
    Completed {
        /// Boundary (virtual step) at which completion was observed.
        at: u64,
        /// `at` minus the submission tag — the batch sojourn time.
        sojourn: u64,
    },
    /// The batch was rejected at admission time.
    Shed {
        /// Boundary (virtual step) of the decision.
        at: u64,
        /// Why.
        reason: ShedReason,
    },
    /// The service drained while the batch was still admitted and in
    /// flight; its jobs are preserved in the drain snapshot and complete
    /// after [`crate::Service::resume`].
    Detached {
        /// Virtual step of the drain.
        at: u64,
    },
}

impl Resolution {
    /// The boundary the resolution was produced at.
    pub fn at(&self) -> u64 {
        match *self {
            Resolution::Completed { at, .. }
            | Resolution::Shed { at, .. }
            | Resolution::Detached { at } => at,
        }
    }
}

/// Terminal outcome recorded in the completion log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All jobs of the batch were processed.
    Completed,
    /// The batch was rejected at admission time.
    Shed(ShedReason),
}

/// One entry of the service's completion log: a ticket reaching a terminal
/// state. Entries are appended in deterministic epoch-boundary order, so
/// for a fixed submission schedule the whole log is reproducible
/// bit-for-bit (asserted by the crate's determinism tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The batch.
    pub ticket: Ticket,
    /// Processor the batch was submitted to.
    pub processor: usize,
    /// Jobs in the batch.
    pub jobs: u64,
    /// Submission tag (virtual time the client stamped it with).
    pub tag: u64,
    /// Boundary of the terminal decision.
    pub at: u64,
    /// What happened.
    pub outcome: Outcome,
}
