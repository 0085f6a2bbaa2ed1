//! The typed experiment plan a `.ring` file parses into, and its canonical
//! rendering back to DSL text.
//!
//! [`Plan::render`] is the exact inverse of [`crate::parse_plan`]:
//! `parse_plan(&plan.render())` reproduces the plan field-for-field (the
//! round trip the workspace proptest battery pins). Rendering is canonical —
//! sections and keys appear in one fixed order and defaulted settings are
//! omitted — so a rendered plan is also the normal form of every equivalent
//! spelling.

use ring_sched::dynamic::{render_arrivals, Arrival};
use ring_sim::FaultPlan;

/// What kind of experiment the scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Offline/dynamic engine runs reporting makespans (the default).
    #[default]
    Run,
    /// Competitive measurement against the exact offline optimum.
    Compete,
    /// The online job-submission service.
    Serve,
}

impl Mode {
    /// The DSL keyword.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Compete => "compete",
            Mode::Serve => "serve",
        }
    }
}

/// Which topology family a scenario runs on.
///
/// `ring` (the default) drives the classic ring engine and algorithms;
/// the other kinds drive the topology-generic fabric engine with the
/// `diffuse`/`clique` policies. Ring plans render without a `kind` key,
/// so every pre-fabric `.ring` file keeps its exact bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopoKind {
    /// A plain ring (the paper's machine model).
    #[default]
    Ring,
    /// Racks of rings joined by an uplink ring (`racks` × `m`).
    Hier,
    /// A 2D torus (`rows` × `cols`).
    Torus,
    /// A clique (`m` nodes, one-hop metric).
    Clique,
}

impl TopoKind {
    /// The DSL keyword.
    pub fn name(self) -> &'static str {
        match self {
            TopoKind::Ring => "ring",
            TopoKind::Hier => "hier",
            TopoKind::Torus => "torus",
            TopoKind::Clique => "clique",
        }
    }
}

/// Which slice of the 51-case workload catalog a sweep covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogSel {
    /// All 51 cases.
    All,
    /// Part I (36 structured cases).
    Part1,
    /// Part II (9 uniform random cases).
    Part2,
    /// Part III (6 evil-adversary cases).
    Part3,
}

impl CatalogSel {
    /// The DSL keyword.
    pub fn name(self) -> &'static str {
        match self {
            CatalogSel::All => "all",
            CatalogSel::Part1 => "part1",
            CatalogSel::Part2 => "part2",
            CatalogSel::Part3 => "part3",
        }
    }
}

/// A parameterised workload shape generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeKind {
    /// All `n` units on processor 0 (the drain shape).
    Concentrated,
    /// `n` units per processor across a contiguous half-ring region.
    Region,
    /// Per-processor loads uniform in `0..=n`, from `seed`.
    Uniform,
    /// A hotspot-rack datacenter workload (`kind = hier` only): the
    /// middle rack carries `n` per node, everyone else light random
    /// background from `seed`.
    Datacenter,
}

impl ShapeKind {
    /// The DSL keyword.
    pub fn name(self) -> &'static str {
        match self {
            ShapeKind::Concentrated => "concentrated",
            ShapeKind::Region => "region",
            ShapeKind::Uniform => "uniform",
            ShapeKind::Datacenter => "datacenter",
        }
    }
}

/// The workload a scenario runs — exactly one source.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Explicit per-processor loads.
    Loads(Vec<u64>),
    /// One named case of the 51-case workload catalog.
    Case(String),
    /// A sweep over a slice of the workload catalog.
    Catalog(CatalogSel),
    /// A generated shape (`seed` is only meaningful for
    /// [`ShapeKind::Uniform`] and is rendered as 0 otherwise).
    Shape {
        /// Generator family.
        kind: ShapeKind,
        /// Load parameter (units, or per-processor maximum for uniform).
        n: u64,
        /// Seed for the uniform generator.
        seed: u64,
    },
    /// An online arrival script (dynamic runs, compete scripts, service
    /// load).
    Arrivals(Vec<Arrival>),
    /// One named case of the adversarial compete catalog.
    CompeteCase(String),
    /// The full 10-case adversarial compete catalog.
    CompeteCatalog,
}

/// Which §6 algorithm(s) a run-mode scenario executes.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgSelect {
    /// One algorithm by paper name (stored lowercase: `a1`..`c2`), with an
    /// optional drop-off constant override.
    One {
        /// Lowercase paper name.
        name: String,
        /// Drop-off constant override (`None` = the paper's optimum).
        c: Option<f64>,
    },
    /// All six §6 algorithms (the catalog-sweep default).
    AllSix,
}

/// Which executor steps the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The sequential reference executor (the default).
    #[default]
    Run,
    /// The parallel executor with its default pool knobs.
    Par,
    /// The same parallel executor; this mode is what lets a plan state
    /// `tasks-per-shard`, `steal-seed`, `threads` (and the inert
    /// `rebalance`).
    Steal,
}

impl ExecMode {
    /// The DSL keyword.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Run => "run",
            ExecMode::Par => "par",
            ExecMode::Steal => "steal",
        }
    }
}

/// Executor knobs. Every setting is bit-identity-preserving: the same plan
/// under any executor spec produces the same report, so traces diff clean
/// across the whole matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecutorSpec {
    /// Which executor runs the plan.
    pub mode: ExecMode,
    /// Shard count for par/steal (`None` = 4).
    pub shards: Option<usize>,
    /// Locality window (`u64::MAX` renders as `L`).
    pub window: Option<u64>,
    /// Quiescent-span step compression.
    pub compress: bool,
    /// Parsed and rendered, otherwise ignored since PR 15; removed with
    /// the next `benchmark` PR.
    pub rebalance: Option<bool>,
    /// Stealing granularity (steal only).
    pub tasks_per_shard: Option<usize>,
    /// Steal-order perturbation seed (steal only).
    pub steal_seed: Option<u64>,
    /// Forced worker-thread count (steal only).
    pub threads: Option<usize>,
}

/// Service knobs for serve-mode scenarios (all optional; the service
/// supplies its own defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceSpec {
    /// Steps per engine span between submission windows.
    pub epoch: Option<u64>,
    /// Admission queue bound.
    pub queue_cap: Option<u64>,
    /// SLO bound on the dynamic lower bound at admission.
    pub slo: Option<u64>,
    /// Virtual time at which the service drains.
    pub drain_at: Option<u64>,
}

/// A fully validated experiment plan — everything `ringsched run`,
/// `compete`, `serve`, and the conformance suite need to execute a `.ring`
/// scenario with no further decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Scenario name (displayed, and the golden-table row key).
    pub name: String,
    /// What kind of experiment this is.
    pub mode: Mode,
    /// Topology family ([`TopoKind::Ring`] unless the plan says otherwise).
    pub kind: TopoKind,
    /// Explicit ring size — or rack length for `kind = hier`, node count
    /// for `kind = clique` (`None` when the workload implies it).
    pub m: Option<usize>,
    /// Rack count (`kind = hier` only).
    pub racks: Option<usize>,
    /// Torus rows (`kind = torus` only).
    pub rows: Option<usize>,
    /// Torus columns (`kind = torus` only).
    pub cols: Option<usize>,
    /// The workload.
    pub workload: Workload,
    /// Algorithm selection (`None` = the mode's default: all six for run
    /// sweeps, the service default for serve).
    pub algorithm: Option<AlgSelect>,
    /// Executor knobs.
    pub executor: ExecutorSpec,
    /// Fault plan (run-mode static workloads only).
    pub faults: Option<FaultPlan>,
    /// Record full event traces.
    pub trace_full: bool,
    /// Compete-mode policy selection (`None` = the full 8-policy suite).
    pub policies: Option<Vec<String>>,
    /// Serve-mode service knobs.
    pub service: Option<ServiceSpec>,
}

impl Plan {
    /// The effective ring size, when the plan states one directly
    /// (workload-implied sizes — catalog cases, compete scripts — resolve
    /// at execution time).
    pub fn stated_m(&self) -> Option<usize> {
        self.m.or(match &self.workload {
            Workload::Loads(loads) => Some(loads.len()),
            _ => None,
        })
    }

    /// The fabric topology of a non-ring plan (`None` for `kind = ring`).
    /// The parser guarantees the dimension keys are present and in range,
    /// so this never panics on a parsed plan.
    pub fn fabric_topology(&self) -> Option<ring_sim::AnyTopology> {
        use ring_sim::{AnyTopology, Clique, HierRing, Torus2D};
        match self.kind {
            TopoKind::Ring => None,
            TopoKind::Hier => Some(AnyTopology::Hier(HierRing::new(
                self.racks.expect("parser requires racks for hier"),
                self.m.expect("parser requires m for hier"),
            ))),
            TopoKind::Torus => Some(AnyTopology::Torus(Torus2D::new(
                self.rows.expect("parser requires rows for torus"),
                self.cols.expect("parser requires cols for torus"),
            ))),
            TopoKind::Clique => Some(AnyTopology::Clique(Clique::new(
                self.m.expect("parser requires m for clique"),
            ))),
        }
    }

    /// Renders the plan as canonical `.ring` text; the exact inverse of
    /// [`crate::parse_plan`]. Defaulted settings are omitted, so the output
    /// is also the plan's normal form.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("[scenario]\n");
        s.push_str(&format!("name = {}\n", self.name));
        if self.mode != Mode::Run {
            s.push_str(&format!("mode = {}\n", self.mode.name()));
        }
        if self.kind != TopoKind::Ring || self.m.is_some() {
            s.push_str("\n[topology]\n");
            if self.kind != TopoKind::Ring {
                s.push_str(&format!("kind = {}\n", self.kind.name()));
            }
            if let Some(m) = self.m {
                s.push_str(&format!("m = {m}\n"));
            }
            if let Some(v) = self.racks {
                s.push_str(&format!("racks = {v}\n"));
            }
            if let Some(v) = self.rows {
                s.push_str(&format!("rows = {v}\n"));
            }
            if let Some(v) = self.cols {
                s.push_str(&format!("cols = {v}\n"));
            }
        }
        s.push_str("\n[workload]\n");
        match &self.workload {
            Workload::Loads(loads) => {
                let loads: Vec<String> = loads.iter().map(u64::to_string).collect();
                s.push_str(&format!("loads = {}\n", loads.join(" ")));
            }
            Workload::Case(id) => s.push_str(&format!("case = {id}\n")),
            Workload::Catalog(sel) => s.push_str(&format!("catalog = {}\n", sel.name())),
            Workload::Shape { kind, n, seed } => {
                s.push_str(&format!("shape = {}\n", kind.name()));
                s.push_str(&format!("n = {n}\n"));
                if matches!(kind, ShapeKind::Uniform | ShapeKind::Datacenter) {
                    s.push_str(&format!("seed = {seed}\n"));
                }
            }
            Workload::Arrivals(arrivals) => {
                s.push_str(&format!("arrivals = {}\n", render_arrivals(arrivals)));
            }
            Workload::CompeteCase(name) => s.push_str(&format!("compete-case = {name}\n")),
            Workload::CompeteCatalog => s.push_str("compete-catalog = all\n"),
        }
        if let Some(alg) = &self.algorithm {
            s.push_str("\n[algorithm]\n");
            match alg {
                AlgSelect::One { name, c } => {
                    s.push_str(&format!("name = {name}\n"));
                    if let Some(c) = c {
                        s.push_str(&format!("c = {c}\n"));
                    }
                }
                AlgSelect::AllSix => s.push_str("name = all6\n"),
            }
        }
        if self.executor != ExecutorSpec::default() {
            s.push_str("\n[executor]\n");
            let ex = &self.executor;
            if ex.mode != ExecMode::Run {
                s.push_str(&format!("mode = {}\n", ex.mode.name()));
            }
            if let Some(v) = ex.shards {
                s.push_str(&format!("shards = {v}\n"));
            }
            if let Some(v) = ex.window {
                if v == u64::MAX {
                    s.push_str("window = L\n");
                } else {
                    s.push_str(&format!("window = {v}\n"));
                }
            }
            if ex.compress {
                s.push_str("compress = true\n");
            }
            if let Some(v) = ex.rebalance {
                s.push_str(&format!("rebalance = {v}\n"));
            }
            if let Some(v) = ex.tasks_per_shard {
                s.push_str(&format!("tasks-per-shard = {v}\n"));
            }
            if let Some(v) = ex.steal_seed {
                s.push_str(&format!("steal-seed = {v}\n"));
            }
            if let Some(v) = ex.threads {
                s.push_str(&format!("threads = {v}\n"));
            }
        }
        if let Some(plan) = &self.faults {
            s.push_str("\n[faults]\n");
            s.push_str(&format!("plan = {}\n", plan.render_spec()));
        }
        if self.trace_full {
            s.push_str("\n[trace]\nlevel = full\n");
        }
        if let Some(policies) = &self.policies {
            s.push_str("\n[compete]\n");
            s.push_str(&format!("policies = {}\n", policies.join(" ")));
        }
        if let Some(svc) = &self.service {
            s.push_str("\n[service]\n");
            if let Some(v) = svc.epoch {
                s.push_str(&format!("epoch = {v}\n"));
            }
            if let Some(v) = svc.queue_cap {
                s.push_str(&format!("queue-cap = {v}\n"));
            }
            if let Some(v) = svc.slo {
                s.push_str(&format!("slo = {v}\n"));
            }
            if let Some(v) = svc.drain_at {
                s.push_str(&format!("drain-at = {v}\n"));
            }
        }
        s
    }
}
