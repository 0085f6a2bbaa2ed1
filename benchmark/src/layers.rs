//! Re-performs a plan through the layers' public functions, one span per
//! layer call.
//!
//! `ring_scenario::execute` is what the end-to-end passes time; it is a
//! black box to a span recorder that may not touch `crates/`. The traced
//! run therefore walks the same steps itself — resolve the workload, build
//! the policy nodes, build the engine, run the executor the plan names,
//! capture the trace — and the `scenario.execute.unattributed_frac` metric
//! says how much of `execute` this walk fails to account for.

use crate::span::Recorder;
use ring_compete::{compete_case, compete_catalog, policy_by_name, policy_suite, Policy, Script};
use ring_opt::{competitive_ratio, offline_optimum, SolverBudget};
use ring_scenario::{
    AlgSelect, CatalogSel, ExecMode, Mode, Plan, ShapeKind, TopoKind, Workload, DEFAULT_SHARDS,
};
use ring_sched::dynamic::{run_dynamic, run_dynamic_par};
use ring_sched::online::run_online;
use ring_sched::unit::build_unit_nodes;
use ring_sched::{run_fabric, CliqueNode, DiffusionNode, FabricAlgo, UnitConfig};
use ring_sim::{
    AnyTopology, Engine, EngineConfig, Instance, ParStrategy, RunReport, Topology, TraceFile,
    TraceLevel,
};
use ring_workloads::catalog::{catalog, Part};
use ring_workloads::{random, structured};

/// Replays any run- or compete-mode plan and returns the makespan of each
/// row, in the order `execute` reports them.
pub fn replay(plan: &Plan, rec: &mut Recorder) -> Result<Vec<u64>, String> {
    match plan.mode {
        Mode::Run if plan.kind == TopoKind::Ring => replay_ring(plan, rec, ring_run_name(plan)),
        Mode::Run => replay_fabric(plan, rec),
        Mode::Compete => replay_compete(plan, rec),
        Mode::Serve => Err("serve plans are driven through ring_service".to_string()),
    }
}

/// The span that wraps the executor call of a ring plan.
pub fn ring_run_name(plan: &Plan) -> &'static str {
    match (plan.executor.mode, plan.executor.rebalance) {
        (ExecMode::Run, _) => "engine.run",
        (ExecMode::Par, _) => "engine.par_static",
        (ExecMode::Steal, Some(false)) => "engine.par_steal_norebal",
        (ExecMode::Steal, _) => "engine.par_steal",
    }
}

fn ring_instances(plan: &Plan) -> Result<Vec<Instance>, String> {
    match &plan.workload {
        Workload::Loads(loads) => Ok(vec![Instance::from_loads(loads.clone())]),
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
                .map(|c| c.instance)
                .collect())
        }
        Workload::Shape { kind, n, seed } => {
            let m = plan.m.ok_or("shape workloads need [topology] m")?;
            Ok(vec![match kind {
                ShapeKind::Concentrated => structured::concentrated_node(m, *n),
                ShapeKind::Region => structured::concentrated_region(m, *n),
                ShapeKind::Uniform => random::uniform(m, *n, *seed),
                ShapeKind::Datacenter => return Err("datacenter shapes need kind = hier".into()),
            }])
        }
        other => Err(format!("no ring replay for workload {other:?}")),
    }
}

fn ring_algorithms(plan: &Plan) -> Result<Vec<UnitConfig>, String> {
    match &plan.algorithm {
        None | Some(AlgSelect::AllSix) => {
            Ok(UnitConfig::all_six().into_iter().map(|(_, c)| c).collect())
        }
        Some(AlgSelect::One { name, c }) => {
            let cfg =
                UnitConfig::from_name(name).ok_or_else(|| format!("unknown algorithm `{name}`"))?;
            Ok(vec![c.map_or(cfg, |c| cfg.with_c(c))])
        }
    }
}

/// The plan's trace and executor settings applied to an algorithm, as
/// `execute` applies them.
fn ring_unit_config(plan: &Plan, mut cfg: UnitConfig) -> UnitConfig {
    let ex = &plan.executor;
    if plan.trace_full {
        cfg = cfg.with_trace();
    }
    if ex.compress {
        cfg = cfg.with_compress();
    }
    if let Some(w) = ex.window {
        cfg = cfg.with_window(w);
    }
    if ex.mode == ExecMode::Steal {
        cfg.par.strategy = Some(ParStrategy::Steal);
        cfg.par.rebalance = ex.rebalance;
        cfg.par.tasks_per_shard = ex.tasks_per_shard;
        cfg.par.steal_seed = ex.steal_seed;
        cfg.par.threads = ex.threads;
    }
    cfg
}

/// Replays a static ring plan. `run_name` names the span around the
/// executor call; the sequential-run counts are taken only under
/// `engine.run`, so comparison cells under other names do not inflate them.
pub fn replay_ring(
    plan: &Plan,
    rec: &mut Recorder,
    run_name: &'static str,
) -> Result<Vec<u64>, String> {
    let instances = rec.span("workloads.resolve", |_| ring_instances(plan))?;
    let algorithms = ring_algorithms(plan)?;
    let shards = plan.executor.shards.unwrap_or(DEFAULT_SHARDS);
    let mut rows = Vec::with_capacity(instances.len() * algorithms.len());
    for inst in &instances {
        for base in &algorithms {
            let cfg = ring_unit_config(plan, *base);
            let nodes = rec.span("sched.build_nodes", |_| build_unit_nodes(inst, &cfg));
            let mut engine = rec.span("engine.new", |_| {
                let engine_cfg = EngineConfig {
                    max_steps: cfg.max_steps,
                    trace: cfg.trace,
                    observe: cfg.observe,
                    faults: plan.faults.clone(),
                    compress: cfg.compress,
                    window: cfg.window,
                    par: cfg.par,
                    ..EngineConfig::default()
                };
                Engine::new(nodes, inst.total_work(), engine_cfg)
            });
            let report = rec
                .span(run_name, |_| match plan.executor.mode {
                    ExecMode::Run => engine.run(),
                    _ => engine.par_run(shards),
                })
                .map_err(|e| format!("{}: {e}", plan.name))?;
            let m = inst.num_processors() as f64;
            if run_name == "engine.run" {
                count_sequential_run(rec, &report, m);
            }
            if report.metrics.total_processed() != inst.total_work() {
                return Err(format!(
                    "{}: processed {} of {} jobs",
                    plan.name,
                    report.metrics.total_processed(),
                    inst.total_work()
                ));
            }
            capture_trace(plan, &report, rec);
            rows.push(report.makespan);
        }
    }
    Ok(rows)
}

/// Builds the row's trace file when the plan asks for one, as `execute`
/// does, and lets it go: the pass consumes the one `execute` returned.
fn capture_trace(plan: &Plan, report: &RunReport, rec: &mut Recorder) {
    if plan.trace_full {
        std::hint::black_box(rec.span("tracefile.from_report", |_| {
            TraceFile::from_report(report, plan.faults.as_ref(), &plan.name)
        }));
    }
}

fn count_sequential_run(rec: &mut Recorder, report: &RunReport, m: f64) {
    let metrics = &report.metrics;
    rec.count("engine.run.steps", metrics.steps as f64);
    rec.count("engine.run.node_steps", metrics.steps as f64 * m);
    rec.count(
        "engine.run.busy_node_steps",
        metrics.busy_steps_per_node.iter().sum::<u64>() as f64,
    );
    rec.count("engine.run.messages", metrics.messages_sent as f64);
    rec.count("fault.dropped", metrics.messages_dropped as f64);
    rec.count("fault.delayed", metrics.messages_delayed as f64);
    rec.count("fault.retried", metrics.messages_retried as f64);
}

fn fabric_loads(plan: &Plan, topo: &AnyTopology) -> Result<Vec<u64>, String> {
    match &plan.workload {
        Workload::Loads(loads) => Ok(loads.clone()),
        Workload::Shape { kind, n, seed } => match kind {
            ShapeKind::Concentrated => {
                let mut loads = vec![0u64; topo.len()];
                loads[0] = *n;
                Ok(loads)
            }
            ShapeKind::Uniform => Ok(random::uniform(topo.len(), *n, *seed).loads().to_vec()),
            ShapeKind::Datacenter => {
                let racks = plan.racks.ok_or("datacenter shapes need racks")?;
                let rack_len = plan.m.ok_or("hier topologies carry m")?;
                Ok(ring_workloads::hotspot_rack(
                    racks,
                    rack_len,
                    racks / 2,
                    *n,
                    20,
                    *seed,
                ))
            }
            ShapeKind::Region => Err("region shapes are ring-only".to_string()),
        },
        other => Err(format!("no fabric replay for workload {other:?}")),
    }
}

/// Replays a torus, hier or clique plan. The policy fleet is built once on
/// its own so that `sched.build_nodes` has a span, then the run goes through
/// `ring_sched::run_fabric` as `execute` does: `Fabric<N>::run` is generic,
/// and an instance compiled into this crate was measured to run a third
/// faster than the one in `ring-sched` that users get.
pub fn replay_fabric(plan: &Plan, rec: &mut Recorder) -> Result<Vec<u64>, String> {
    let topo = rec
        .span("topology.build", |_| plan.fabric_topology())
        .ok_or("not a fabric plan")?;
    let loads = rec.span("workloads.resolve", |_| fabric_loads(plan, &topo))?;
    let algo = match &plan.algorithm {
        Some(AlgSelect::One { name, .. }) => FabricAlgo::parse(name)?,
        _ if matches!(topo, AnyTopology::Clique(_)) => FabricAlgo::Clique,
        _ => FabricAlgo::Diffuse,
    };
    rec.span("sched.build_nodes", |_| match algo {
        FabricAlgo::Diffuse => drop(std::hint::black_box(DiffusionNode::fleet(&loads, &topo))),
        FabricAlgo::Clique => drop(std::hint::black_box(CliqueNode::fleet(&loads))),
    });

    let mut config = EngineConfig {
        faults: plan.faults.clone(),
        ..EngineConfig::default()
    };
    if plan.trace_full {
        config.trace = TraceLevel::Full;
    }
    if plan.executor.mode == ExecMode::Steal {
        config.par.strategy = Some(ParStrategy::Steal);
        config.par.steal_seed = plan.executor.steal_seed;
    }
    let shards = match plan.executor.mode {
        ExecMode::Run => None,
        _ => Some(plan.executor.shards.unwrap_or(DEFAULT_SHARDS)),
    };
    let run_name = match (shards, &topo) {
        (Some(_), _) => "fabric.par",
        (None, AnyTopology::Torus(_)) => "fabric.torus.run",
        (None, AnyTopology::Hier(_)) => "fabric.hier.run",
        (None, AnyTopology::Clique(_)) => "fabric.clique.run",
        (None, AnyTopology::Ring(_)) => "fabric.ring.run",
    };
    let report = rec
        .span(run_name, |_| {
            run_fabric(&topo, &loads, algo, config, shards)
        })
        .map_err(|e| format!("{}: {e}", plan.name))?;
    if shards.is_none() {
        rec.count(
            "fabric.run.node_steps",
            report.metrics.steps as f64 * topo.len() as f64,
        );
        rec.count("fabric.run.messages", report.metrics.messages_sent as f64);
    }
    let total: u64 = loads.iter().sum();
    if report.metrics.total_processed() != total {
        return Err(format!(
            "{}: processed {} of {total} jobs",
            plan.name,
            report.metrics.total_processed()
        ));
    }
    capture_trace(plan, &report, rec);
    Ok(vec![report.makespan])
}

/// The scripts a compete plan measures, as `execute` resolves them.
fn compete_scripts(plan: &Plan) -> Result<Vec<Script>, String> {
    match &plan.workload {
        Workload::CompeteCatalog => Ok(compete_catalog()),
        Workload::CompeteCase(name) => Ok(vec![
            compete_case(name).ok_or_else(|| format!("unknown compete case `{name}`"))?
        ]),
        Workload::Arrivals(arrivals) => {
            let m = plan.m.ok_or("arrival workloads need [topology] m")?;
            let raw: Vec<(u64, usize, u64)> = arrivals
                .iter()
                .map(|a| (a.time, a.processor, a.count))
                .collect();
            Ok(vec![Script::new(&plan.name, m, &raw)])
        }
        other => Err(format!("no compete replay for workload {other:?}")),
    }
}

/// Replays a compete plan: per script and policy, the online run and the
/// offline flow solves that `ring_compete::measure` performs, in two spans.
pub fn replay_compete(plan: &Plan, rec: &mut Recorder) -> Result<Vec<u64>, String> {
    let scripts = rec.span("workloads.resolve", |_| compete_scripts(plan))?;
    let policies: Vec<Policy> = match &plan.policies {
        None => policy_suite(),
        Some(names) => names
            .iter()
            .map(|n| policy_by_name(n).ok_or_else(|| format!("unknown policy `{n}`")))
            .collect::<Result<_, _>>()?,
    };
    let shards = match plan.executor.mode {
        ExecMode::Run => None,
        _ => Some(plan.executor.shards.unwrap_or(DEFAULT_SHARDS)),
    };
    let mut rows = Vec::new();
    for script in &scripts {
        for policy in &policies {
            let online = rec.span("compete.measure", |rec| -> Result<u64, String> {
                let online = rec.span("compete.online", |_| match policy {
                    Policy::Engine(cfg) => {
                        let inst = script.dynamic();
                        match shards {
                            Some(s) => run_dynamic_par(&inst, cfg, s),
                            None => run_dynamic(&inst, cfg),
                        }
                        .map(|run| run.makespan)
                        .map_err(|e| format!("{}/{}: {e}", script.name, policy.name()))
                    }
                    Policy::Assignment(p) => Ok(run_online(script.m, &script.arrivals, p).makespan),
                })?;
                let denom = rec.span("opt.offline_optimum", |_| {
                    offline_optimum(
                        script.m,
                        &script.releases(),
                        Some(online),
                        &SolverBudget::default(),
                    )
                });
                rec.count("opt.offline_optimum.calls", 1.0);
                std::hint::black_box(competitive_ratio(online, &denom));
                Ok(online)
            })?;
            rows.push(online);
        }
    }
    Ok(rows)
}
