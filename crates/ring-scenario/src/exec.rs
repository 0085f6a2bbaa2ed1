//! Plan execution: turning a validated [`Plan`] into engine runs and a
//! report the CLI and the conformance suite consume directly.
//!
//! Run-mode plans resolve to a list of `(case, instance)` pairs times a
//! list of algorithms; each cell runs through the ring engine (a fabric
//! plan through the executor it names) and yields one [`PlanRow`] (with a
//! [`TraceFile`] when tracing is on).
//! Compete-mode plans resolve to compete-harness scripts and yield
//! [`CaseRatio`] rows plus the harness digest. The report digest covers
//! only case/algorithm/makespan triples — never executor choice — so the
//! same plan digests identically across `run`, `par`, and `steal`, which is
//! exactly the bit-identity the CI scenario matrix pins.

use crate::plan::{AlgSelect, CatalogSel, ExecMode, Mode, Plan, ShapeKind, TopoKind, Workload};
use ring_compete::{measure, measure_suite, policy_by_name, report_digest, CaseRatio};
use ring_sched::dynamic::{run_dynamic, DynamicInstance};
use ring_sched::unit::{run_unit, run_unit_faulty};
use ring_sched::{run_fabric, FabricAlgo, UnitConfig};
use ring_sim::engine::RunReport;
use ring_sim::{AnyTopology, EngineConfig, Instance, Topology, TraceFile, TraceLevel};
use ring_workloads::catalog::{catalog, catalog_case, Part};
use ring_workloads::{random, structured};

/// Shard count for par/steal executors when the plan does not set one.
pub const DEFAULT_SHARDS: usize = 4;

/// One executed (case, algorithm) cell of a run-mode plan.
#[derive(Debug, Clone)]
pub struct PlanRow {
    /// Workload case label.
    pub case: String,
    /// Algorithm paper name (`"A1"`..`"C2"`).
    pub algorithm: String,
    /// Schedule length the run achieved.
    pub makespan: u64,
    /// The binary-format trace, when the plan asked for `level = full`.
    pub trace: Option<TraceFile>,
}

/// Everything a plan execution produced.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Scenario name (from the plan).
    pub name: String,
    /// Run-mode rows (empty in compete mode).
    pub rows: Vec<PlanRow>,
    /// Compete-mode rows (empty in run mode).
    pub ratios: Vec<CaseRatio>,
    /// FNV-1a digest of the result table — executor-independent by
    /// construction (see the module docs).
    pub digest: u64,
}

/// FNV-1a 64-bit, kept bit-compatible with `ring_sim`'s checkpoint/trace
/// checksum so digests printed by different tools agree.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Resolves the plan's workload to concrete `(label, instance)` pairs.
/// Only meaningful for static run-mode workloads.
fn resolve_instances(plan: &Plan) -> Result<Vec<(String, Instance)>, String> {
    match &plan.workload {
        Workload::Loads(loads) => Ok(vec![(
            format!("loads-m{}", loads.len()),
            Instance::from_loads(loads.clone()),
        )]),
        Workload::Case(id) => {
            let case = catalog_case(id).ok_or_else(|| format!("unknown catalog case `{id}`"))?;
            Ok(vec![(case.id, case.instance)])
        }
        Workload::Catalog(sel) => {
            let want = |p: Part| match sel {
                CatalogSel::All => true,
                CatalogSel::Part1 => p == Part::Structured,
                CatalogSel::Part2 => p == Part::Random,
                CatalogSel::Part3 => p == Part::Adversary,
            };
            Ok(catalog()
                .into_iter()
                .filter(|c| want(c.part))
                .map(|c| (c.id, c.instance))
                .collect())
        }
        Workload::Shape { kind, n, seed } => {
            let m = plan.m.ok_or("shape workloads need [topology] m")?;
            let (label, inst) = match kind {
                ShapeKind::Concentrated => (
                    format!("concentrated-m{m}-n{n}"),
                    structured::concentrated_node(m, *n),
                ),
                ShapeKind::Region => (
                    format!("region-m{m}-n{n}"),
                    structured::concentrated_region(m, *n),
                ),
                ShapeKind::Uniform => (
                    format!("uniform-m{m}-n{n}-s{seed}"),
                    random::uniform(m, *n, *seed),
                ),
                ShapeKind::Datacenter => {
                    return Err("datacenter shapes run on hier topologies".to_string())
                }
            };
            Ok(vec![(label, inst)])
        }
        _ => Err("workload does not resolve to static instances".to_string()),
    }
}

/// The algorithms a run-mode plan executes, as `(paper name, config)`.
fn resolve_algorithms(plan: &Plan) -> Result<Vec<(String, UnitConfig)>, String> {
    match &plan.algorithm {
        None | Some(AlgSelect::AllSix) => Ok(UnitConfig::all_six()
            .into_iter()
            .map(|(name, cfg)| (name.to_string(), cfg))
            .collect()),
        Some(AlgSelect::One { name, c }) => {
            let mut cfg =
                UnitConfig::from_name(name).ok_or_else(|| format!("unknown algorithm `{name}`"))?;
            if let Some(c) = c {
                cfg = cfg.with_c(*c);
            }
            Ok(vec![(cfg.name(), cfg)])
        }
    }
}

/// Applies the plan's trace level to an algorithm config. The ring engine
/// has one executor, so `mode`, `shards`, `compress` and the pool keys
/// (`window`, `rebalance`, `tasks-per-shard`, `steal-seed`, `threads`)
/// change nothing on a ring; they still parse, and a fabric plan passes
/// `mode`, `shards` and `steal-seed` to the fabric's pool.
fn apply_executor(plan: &Plan, mut cfg: UnitConfig) -> UnitConfig {
    if plan.trace_full {
        cfg = cfg.with_trace();
    }
    cfg
}

/// Builds the row's trace file when the plan asked for one, moving the
/// report's event log into it.
fn capture_trace(plan: &Plan, report: RunReport, meta: &str) -> Option<TraceFile> {
    plan.trace_full
        .then(|| TraceFile::from_owned_report(report, plan.faults.as_ref(), meta))
}

fn run_static(plan: &Plan) -> Result<Vec<PlanRow>, String> {
    let instances = resolve_instances(plan)?;
    let algorithms = resolve_algorithms(plan)?;
    let mut rows = Vec::with_capacity(instances.len() * algorithms.len());
    for (case, inst) in &instances {
        for (alg, base_cfg) in &algorithms {
            let cfg = apply_executor(plan, *base_cfg);
            let run = match &plan.faults {
                None => run_unit(inst, &cfg),
                Some(f) => run_unit_faulty(inst, &cfg, f),
            }
            .map_err(|e| format!("{case}/{alg}: {e}"))?;
            let meta = format!("{}/{case}/{alg}", plan.name);
            rows.push(PlanRow {
                case: case.clone(),
                algorithm: alg.clone(),
                makespan: run.makespan,
                trace: capture_trace(plan, run.report, &meta),
            });
        }
    }
    Ok(rows)
}

/// Runs a non-ring (`[topology] kind`) plan: one fabric policy over one
/// workload, through the executor the plan names. The case label embeds
/// the topology spec (`hier:4x8`, `torus:4x6`, `clique:16`) so digests
/// distinguish shapes the way ring labels embed `m`.
fn run_fabric_static(plan: &Plan) -> Result<Vec<PlanRow>, String> {
    let topo = plan
        .fabric_topology()
        .expect("caller checked the topology kind");
    let spec = topo.spec();
    let (case, loads) = match &plan.workload {
        Workload::Loads(loads) => (format!("loads-{spec}"), loads.clone()),
        Workload::Shape { kind, n, seed } => match kind {
            ShapeKind::Concentrated => {
                let mut loads = vec![0u64; topo.len()];
                loads[0] = *n;
                (format!("concentrated-{spec}-n{n}"), loads)
            }
            ShapeKind::Uniform => (
                format!("uniform-{spec}-n{n}-s{seed}"),
                random::uniform(topo.len(), *n, *seed).loads().to_vec(),
            ),
            ShapeKind::Datacenter => {
                let racks = plan.racks.expect("datacenter shape requires kind = hier");
                let rack_len = plan.m.expect("hier topologies carry m");
                (
                    format!("datacenter-{spec}-n{n}-s{seed}"),
                    ring_workloads::hotspot_rack(racks, rack_len, racks / 2, *n, 20, *seed),
                )
            }
            ShapeKind::Region => unreachable!("the parser pins region shapes to rings"),
        },
        _ => return Err("topology plans run static loads or shape workloads".to_string()),
    };
    let algo = match &plan.algorithm {
        Some(AlgSelect::One { name, .. }) => {
            FabricAlgo::parse(name).map_err(|e| format!("{case}: {e}"))?
        }
        None => {
            if matches!(topo, AnyTopology::Clique(_)) {
                FabricAlgo::Clique
            } else {
                FabricAlgo::Diffuse
            }
        }
        Some(AlgSelect::AllSix) => unreachable!("the parser pins all6 to rings"),
    };
    let mut config = EngineConfig {
        faults: plan.faults.clone(),
        ..EngineConfig::default()
    };
    if plan.trace_full {
        config.trace = TraceLevel::Full;
    }
    config.par.steal_seed = plan.executor.steal_seed;
    let shards = match plan.executor.mode {
        ExecMode::Run => None,
        _ => Some(plan.executor.shards.unwrap_or(DEFAULT_SHARDS)),
    };
    let report = run_fabric(&topo, &loads, algo, config, shards)
        .map_err(|e| format!("{case}/{}: {e}", algo.name()))?;
    let meta = format!("{}/{case}/{}", plan.name, algo.name());
    Ok(vec![PlanRow {
        case,
        algorithm: algo.name().to_string(),
        makespan: report.makespan,
        trace: capture_trace(plan, report, &meta),
    }])
}

fn run_arrivals(plan: &Plan) -> Result<Vec<PlanRow>, String> {
    let Workload::Arrivals(arrivals) = &plan.workload else {
        unreachable!("caller checked the workload kind");
    };
    let m = plan.m.ok_or("arrival workloads need [topology] m")?;
    let inst = DynamicInstance::new(m, arrivals.clone());
    let case = format!("arrivals-m{m}");
    let algorithms = resolve_algorithms(plan)?;
    let mut rows = Vec::with_capacity(algorithms.len());
    for (alg, base_cfg) in &algorithms {
        let cfg = apply_executor(plan, *base_cfg);
        let run = run_dynamic(&inst, &cfg).map_err(|e| format!("{case}/{alg}: {e}"))?;
        let meta = format!("{}/{case}/{alg}", plan.name);
        rows.push(PlanRow {
            case: case.clone(),
            algorithm: alg.clone(),
            makespan: run.makespan,
            trace: capture_trace(plan, run.report, &meta),
        });
    }
    Ok(rows)
}

fn run_compete(plan: &Plan) -> Result<Vec<CaseRatio>, String> {
    let scripts = match &plan.workload {
        Workload::CompeteCatalog => ring_compete::compete_catalog(),
        Workload::CompeteCase(name) => {
            vec![ring_compete::compete_case(name)
                .ok_or_else(|| format!("unknown compete case `{name}`"))?]
        }
        Workload::Arrivals(arrivals) => {
            let m = plan.m.ok_or("arrival workloads need [topology] m")?;
            let raw: Vec<(u64, usize, u64)> = arrivals
                .iter()
                .map(|a| (a.time, a.processor, a.count))
                .collect();
            vec![ring_compete::Script::new(&plan.name, m, &raw)]
        }
        _ => return Err("compete mode needs an arrival-script workload".to_string()),
    };
    let shards = match plan.executor.mode {
        ExecMode::Run => None,
        _ => Some(plan.executor.shards.unwrap_or(DEFAULT_SHARDS)),
    };
    let mut ratios = Vec::new();
    for script in &scripts {
        match &plan.policies {
            None => ratios.extend(measure_suite(script, shards)),
            Some(names) => {
                for name in names {
                    let policy =
                        policy_by_name(name).ok_or_else(|| format!("unknown policy `{name}`"))?;
                    ratios.push(measure(script, &policy, shards));
                }
            }
        }
    }
    Ok(ratios)
}

/// Digest over the executor-independent result table: one
/// `case/algorithm=makespan` line per row.
fn rows_digest(rows: &[PlanRow]) -> u64 {
    let mut text = String::new();
    for r in rows {
        text.push_str(&format!("{}/{}={}\n", r.case, r.algorithm, r.makespan));
    }
    fnv1a64(text.as_bytes())
}

/// Executes a validated plan.
///
/// Run-mode plans produce `rows` (one per case × algorithm); compete-mode
/// plans produce `ratios`. Serve-mode plans are interactive and are
/// executed by `ringsched serve`, not here — passing one is an error.
pub fn execute(plan: &Plan) -> Result<PlanReport, String> {
    match plan.mode {
        Mode::Run => {
            let rows = if plan.kind != TopoKind::Ring {
                run_fabric_static(plan)?
            } else if matches!(plan.workload, Workload::Arrivals(_)) {
                run_arrivals(plan)?
            } else {
                run_static(plan)?
            };
            let digest = rows_digest(&rows);
            Ok(PlanReport {
                name: plan.name.clone(),
                rows,
                ratios: Vec::new(),
                digest,
            })
        }
        Mode::Compete => {
            let ratios = run_compete(plan)?;
            let digest = report_digest(&ratios);
            Ok(PlanReport {
                name: plan.name.clone(),
                rows: Vec::new(),
                ratios,
                digest,
            })
        }
        Mode::Serve => Err(
            "serve-mode scenarios drive the interactive service; run them with \
             `ringsched serve <plan.ring>`"
                .to_string(),
        ),
    }
}
