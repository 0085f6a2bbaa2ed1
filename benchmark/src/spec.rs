//! The benchmark's fixed vocabulary: workload names, end-to-end metrics with
//! their direction and regression bound, and per-layer metrics. Later
//! changes are judged against these names, so nothing here is renamed.

/// Default workload seed (the paper's year).
pub const DEFAULT_SEED: u64 = 1994;

/// Default time budget of the timed passes, and `run_seconds` of
/// `BENCHMARK.json`: five passes of every workload but `catalog`, whose 5 s
/// passes get three.
pub const DEFAULT_SECONDS: f64 = 8.0;

/// Workload names with one line each on why the workload exists.
pub const WORKLOADS: [(&str, &str); 8] = [
    (
        "catalog",
        "The paper's Table 1 verbatim (306 rows, m <= 1000, every node busy): policy kernels and per-unit delivery; bypasses idle sweeps, par executors, faults, traces, fabric.",
    ),
    (
        "sparse",
        "One pile on a 65536-ring: cost follows ring size, not work, so an active-frontier or idle-skip change lands here and not in catalog.",
    ),
    (
        "parallel",
        "Every parallel executor on 2 shards (ring par, ring steal with recut, torus par): halo exchange, barrier wait, steal; bypasses the sequential engine.",
    ),
    (
        "traced-faulty",
        "Fault kernel, full trace, RINGTRACE encode/decode, oracle replay, RINGSNAP checkpoint and resume: layers no other workload reaches.",
    ),
    (
        "fabric",
        "The second engine (torus, hier, clique) with the diffusion and clique policies; its sim_steps is where a better clique algorithm shows.",
    ),
    (
        "service-steady",
        "Closed loop, one client, nothing shed: ingress, epoch batch, engine span, attribution, log, with per-ticket wall latency.",
    ),
    (
        "service-overload",
        "Open-loop virtual-time script against a bounded queue and SLO: shed path, fire-and-forget ingress, mutex contention.",
    ),
    (
        "compete",
        "Compete catalog plus page-migration arrivals at m = 128: the only workload where ring-opt flow solves and ring-compete dominate.",
    ),
];

/// How `compare` judges a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// A measured quantity: the change may be worse than the parent by at
    /// most `bound` (a share of the parent's median).
    Within(f64),
    /// As [`Rule::Within`], but a difference below `floor` (in the metric's
    /// unit) never counts: a few milliseconds of set-up are all jitter.
    WithinOrFloor(f64, f64),
    /// A simulated count: must repeat bit for bit at equal seeds.
    Exact,
}

/// Which workloads report a metric.
#[derive(Debug, Clone, Copy)]
pub enum On {
    All,
    Only(&'static [&'static str]),
}

impl On {
    pub fn includes(self, workload: &str) -> bool {
        match self {
            On::All => true,
            On::Only(list) => list.contains(&workload),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub rule: Rule,
    pub on: On,
}

const SERVICE: On = On::Only(&["service-steady", "service-overload"]);

/// The 13 end-to-end metrics. The six with `On::All` are never zero on any
/// workload and are the ones `BENCHMARK.json` lists; the rest exist on some
/// workloads only, or are zero when all is well, and are judged by
/// `ringbench compare`.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e(
        "setup_s",
        "s",
        false,
        Rule::WithinOrFloor(0.25, 0.005),
        On::All,
    ),
    e2e("wall_s", "s", false, Rule::Within(0.25), On::All),
    e2e("jobs_per_s", "1/s", true, Rule::Within(0.25), On::All),
    e2e("node_steps_per_s", "1/s", true, Rule::Within(0.25), On::All),
    e2e("sim_steps", "steps", false, Rule::Exact, On::All),
    e2e("peak_rss_mb", "MiB", false, Rule::Within(0.25), On::All),
    e2e(
        "ticket_rtt_p50_us",
        "us",
        false,
        Rule::Within(0.25),
        On::Only(&["service-steady"]),
    ),
    e2e(
        "ticket_rtt_p99_us",
        "us",
        false,
        Rule::Within(0.25),
        On::Only(&["service-steady"]),
    ),
    e2e("sojourn_p99_steps", "steps", false, Rule::Exact, SERVICE),
    e2e("shed_frac", "ratio", false, Rule::Exact, SERVICE),
    e2e(
        "ratio_max",
        "ratio",
        false,
        Rule::Exact,
        On::Only(&["compete"]),
    ),
    e2e(
        "trace_bytes_per_event",
        "B",
        false,
        Rule::Exact,
        On::Only(&["traced-faulty"]),
    ),
    e2e("failed_frac", "ratio", false, Rule::Exact, On::All),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    rule: Rule,
    on: On,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        rule,
        on,
    }
}

/// The end-to-end metrics every workload reports and none reports as zero:
/// what the driver protocol prints with `--trace 0`.
pub fn universal() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| matches!(m.on, On::All) && m.name != "failed_frac")
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Per-layer metrics, from the traced run only. A workload that bypasses a
/// layer reports that layer's metrics as 0.
pub const LAYERS: [Layer; 80] = [
    // scenario
    lo("scenario.parse.s", "s"),
    lo("scenario.parse.bytes", "B"),
    lo("scenario.execute.s", "s"),
    lo("scenario.report.s", "s"),
    lo("scenario.execute.unattributed_frac", "ratio"),
    // workloads, sched
    lo("workloads.generate.s", "s"),
    lo("sched.build_nodes.s", "s"),
    // engine: sequential run
    lo("engine.new.s", "s"),
    lo("engine.run.s", "s"),
    lo("engine.run.steps", "steps"),
    lo("engine.run.node_steps", "count"),
    lo("engine.run.busy_node_steps", "count"),
    hi("engine.run.active_frac", "ratio"),
    lo("engine.run.messages", "count"),
    lo("engine.run.ns_per_node_step", "ns"),
    lo("engine.run.ns_per_busy_node_step", "ns"),
    lo("engine.run.ns_per_message", "ns"),
    // engine: compression, parallel executors, tracing
    lo("engine.compress.s", "s"),
    hi("engine.compress.ratio", "ratio"),
    lo("engine.par_static.s", "s"),
    lo("engine.par_steal.s", "s"),
    lo("engine.par_steal_norebal.s", "s"),
    hi("engine.par_static.speedup", "ratio"),
    hi("engine.par_steal.speedup", "ratio"),
    hi("engine.rebalance.ratio", "ratio"),
    lo("engine.trace_full.ratio", "ratio"),
    // fault
    lo("fault.plan_parse.s", "s"),
    lo("fault.overhead.ratio", "ratio"),
    lo("fault.dropped", "count"),
    lo("fault.delayed", "count"),
    lo("fault.retried", "count"),
    // tracefile
    lo("tracefile.from_report.s", "s"),
    lo("tracefile.to_bytes.s", "s"),
    lo("tracefile.from_bytes.s", "s"),
    lo("tracefile.events", "count"),
    lo("tracefile.bytes", "B"),
    hi("tracefile.encode_mb_per_s", "MB/s"),
    hi("tracefile.decode_mb_per_s", "MB/s"),
    // oracle
    lo("oracle.check.s", "s"),
    hi("oracle.check.events_per_s", "1/s"),
    lo("oracle.violations", "count"),
    // checkpoint
    lo("checkpoint.overhead.s", "s"),
    lo("checkpoint.count", "count"),
    lo("checkpoint.bytes", "B"),
    lo("checkpoint.to_bytes.s", "s"),
    lo("checkpoint.from_bytes.s", "s"),
    lo("checkpoint.resume.s", "s"),
    // topology, fabric
    lo("topology.build.s", "s"),
    lo("topology.peer.ns", "ns"),
    lo("fabric.torus.run.s", "s"),
    lo("fabric.hier.run.s", "s"),
    lo("fabric.clique.run.s", "s"),
    lo("fabric.run.ns_per_node_step", "ns"),
    lo("fabric.run.messages", "count"),
    lo("fabric.par.s", "s"),
    hi("fabric.par.speedup", "ratio"),
    // opt, compete
    lo("opt.offline_optimum.s", "s"),
    lo("opt.offline_optimum.calls", "count"),
    lo("opt.share", "ratio"),
    lo("compete.online.s", "s"),
    lo("compete.measure.s", "s"),
    // service
    lo("service.start.s", "s"),
    lo("service.submit.us_p50", "us"),
    lo("service.submit.us_p99", "us"),
    lo("service.wait.us_p50", "us"),
    lo("service.wait.us_p99", "us"),
    lo("service.try_submit.us_p50", "us"),
    lo("service.try_submit.us_p99", "us"),
    lo("service.advance_to.us_p50", "us"),
    lo("service.await_idle.s", "s"),
    lo("service.report.s", "s"),
    lo("service.drain.s", "s"),
    lo("service.resume.s", "s"),
    lo("service.epochs", "count"),
    lo("service.generations", "count"),
    lo("service.us_per_epoch", "us"),
    lo("service.shed.queue_overflow", "count"),
    lo("service.shed.slo_exceeded", "count"),
    lo("service.engine_ref.s", "s"),
    lo("service.overhead.ratio", "ratio"),
];
