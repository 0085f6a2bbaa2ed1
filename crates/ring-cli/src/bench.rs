//! `ringsched bench` — the engine throughput baseline.
//!
//! Runs the stream workload (`ring_sim::stream`) over a matrix of ring
//! sizes and message representations (per-unit vs count-coalesced), plus
//! the drain shape, the hotspot shape, and the fabric engine's torus and
//! clique shapes under `run` and `par_run`. Emits a hand-written JSON
//! report (`BENCH_engine.json` by convention) with per-case best-of-reps
//! timings and machine-independent speedup *ratios*.
//!
//! The ratios — coalesced over per-unit jobs/sec on the same machine,
//! fabric `par_run` over `run` — are what the trajectory tracks: absolute
//! ns/step numbers shift with hardware, the ratios should not.

use ring_sched::{run_fabric, FabricAlgo};
use ring_sim::stream::{stream_engine, Representation, StreamSpec};
use ring_sim::{AnyTopology, Clique, EngineConfig, SpanOutcome, Topology, Torus2D};
use ring_workloads::pagemig::PageMigration;
use std::collections::HashMap;
use std::process::exit;
use std::time::{Duration, Instant};

/// Rings larger than this are benchmarked in fixed-span mode: running the
/// stream to completion costs O(m²) node steps, which at 2^16+ nodes is
/// minutes per rep, while a fixed span still exposes the per-round sweep
/// cost the large-m axis is there to measure.
const SPAN_ONLY_ABOVE: usize = 8192;

/// Rounds simulated per rep in fixed-span mode.
const SPAN_ROUNDS: u64 = 256;

/// The topology (torus/clique) cells stop at 2^16 nodes: they baseline
/// the generic fabric engine, not the million-node span axis.
const FABRIC_MAX_M: usize = 1 << 16;

/// One cell of the benchmark matrix.
struct BenchRecord {
    key: String,
    m: usize,
    shape: &'static str,
    repr: &'static str,
    executor: String,
    total_work: u64,
    steps: u64,
    reps: usize,
    best_ns_per_step: f64,
    jobs_per_sec: f64,
}

/// A machine-independent speedup ratio between two cells (also used by
/// `bench-service` for its deterministic tail-latency and completion
/// ratios).
pub(crate) struct SpeedupRecord {
    pub(crate) key: String,
    pub(crate) ratio: f64,
}

/// Best-of-reps: every run is deterministic, so timing differences are
/// pure measurement noise (scheduler preemption, cache pollution from the
/// previous cell) and noise is strictly additive — the minimum is the
/// least-contaminated estimate.
fn best(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[0]
}

/// Times one configuration `reps` times (after one warmup) and returns the
/// record for the best run.
fn bench_case(
    key: String,
    shape: &'static str,
    spec: &StreamSpec,
    repr: Representation,
    reps: usize,
) -> BenchRecord {
    let exec = |spec: &StreamSpec| stream_engine(spec, repr, EngineConfig::default()).run();
    // Warmup (also captures steps/makespan once; every rep is identical
    // because the whole pipeline is deterministic).
    let report = exec(spec).unwrap_or_else(|e| {
        eprintln!("bench case {key} failed: {e}");
        exit(1)
    });
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let rep = exec(spec).unwrap_or_else(|e| {
            eprintln!("bench case {key} failed: {e}");
            exit(1)
        });
        times.push(start.elapsed());
        assert_eq!(rep.makespan, report.makespan, "nondeterministic bench run");
    }
    let elapsed = best(times);
    let ns = elapsed.as_nanos() as f64;
    let steps = report.metrics.steps;
    BenchRecord {
        key,
        m: spec.initial.len(),
        shape,
        repr: match repr {
            Representation::PerUnit => "per_unit",
            Representation::Coalesced => "coalesced",
        },
        executor: "run".to_string(),
        total_work: spec.total_work(),
        steps,
        reps,
        best_ns_per_step: ns / steps.max(1) as f64,
        jobs_per_sec: spec.total_work() as f64 / elapsed.as_secs_f64(),
    }
}

/// Times the fixed-span shape: `SPAN_ROUNDS` rounds of the spread stream
/// on a large ring, paused mid-flight; throughput is jobs processed within
/// the span. Only the coalesced representation runs here — per-unit arena
/// traffic at these sizes measures allocator churn, not the sweep.
fn bench_span_case(key: String, spec: &StreamSpec, reps: usize) -> BenchRecord {
    let exec = |spec: &StreamSpec| {
        let mut engine = stream_engine(spec, Representation::Coalesced, EngineConfig::default());
        match engine.run_span(SPAN_ROUNDS) {
            Ok(SpanOutcome::Paused { processed, .. }) => processed,
            Ok(SpanOutcome::Done(report)) => report.metrics.total_processed(),
            Err(e) => {
                eprintln!("bench case {key} failed: {e}");
                exit(1)
            }
        }
    };
    let processed = exec(spec);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let p = exec(spec);
        times.push(start.elapsed());
        assert_eq!(p, processed, "nondeterministic bench run");
    }
    let elapsed = best(times);
    BenchRecord {
        key,
        m: spec.initial.len(),
        shape: "span",
        repr: "coalesced",
        executor: "run".to_string(),
        total_work: processed,
        steps: SPAN_ROUNDS,
        reps,
        best_ns_per_step: elapsed.as_nanos() as f64 / SPAN_ROUNDS as f64,
        jobs_per_sec: processed as f64 / elapsed.as_secs_f64(),
    }
}

/// The *hotspot* shape: an imbalanced drain derived from the page-migration
/// workload's seeded hotspot walk. Each wave's burst lands on the walking
/// hotspot neighborhood with a thin uniform background; collapsing the
/// script's arrivals into initial loads (quota = load, so every unit drains
/// where it sits) yields a ring where a few contiguous stretches hold large
/// backlogs and the rest quiesce after a handful of rounds.
fn hotspot_spec(m: usize) -> StreamSpec {
    let burst = (m as u64 / 2).max(4);
    let script = PageMigration::new(m, 16, 1, burst).script(1994);
    let mut initial = vec![0u64; m];
    for (_, p, c) in script {
        initial[p] += c;
    }
    StreamSpec::new(initial.clone(), initial)
}

/// The largest divisor of `m` no greater than √m, so the torus bench
/// shape is as square as `m` allows (`None` skips primes/tiny sizes).
fn torus_rows(m: usize) -> Option<usize> {
    let mut best = None;
    let mut r = 2;
    while r * r <= m {
        if m % r == 0 {
            best = Some(r);
        }
        r += 1;
    }
    best
}

/// Times one fabric (topology-generic engine) configuration, mirroring
/// [`bench_case`] for non-ring shapes.
fn bench_fabric_case(
    key: String,
    shape: &'static str,
    topo: &AnyTopology,
    loads: &[u64],
    algo: FabricAlgo,
    shards: Option<usize>,
    reps: usize,
) -> BenchRecord {
    let exec = || run_fabric(topo, loads, algo, EngineConfig::default(), shards);
    let report = exec().unwrap_or_else(|e| {
        eprintln!("bench case {key} failed: {e}");
        exit(1)
    });
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let rep = exec().unwrap_or_else(|e| {
            eprintln!("bench case {key} failed: {e}");
            exit(1)
        });
        times.push(start.elapsed());
        assert_eq!(rep.makespan, report.makespan, "nondeterministic bench run");
    }
    let elapsed = best(times);
    let steps = report.metrics.steps;
    BenchRecord {
        key,
        m: topo.len(),
        shape,
        repr: "coalesced",
        executor: match shards {
            Some(s) => format!("par_run({s})"),
            None => "run".to_string(),
        },
        total_work: loads.iter().sum(),
        steps,
        reps,
        best_ns_per_step: elapsed.as_nanos() as f64 / steps.max(1) as f64,
        jobs_per_sec: loads.iter().sum::<u64>() as f64 / elapsed.as_secs_f64(),
    }
}

/// The torus and clique cells: the fabric engine's diffusion policy
/// spreading a concentrated pile over an (as square as possible) torus,
/// and the congested-clique batch scheduler balancing a skewed clique —
/// each under both executors, with a `-fabric-par` speedup ratio per
/// shape that the `--check` baseline regresses.
fn bench_fabric_cells(
    results: &mut Vec<BenchRecord>,
    speedups: &mut Vec<SpeedupRecord>,
    m: usize,
    shards: usize,
    reps: usize,
) {
    if m > FABRIC_MAX_M {
        return;
    }
    let mut cells: Vec<(&'static str, AnyTopology, Vec<u64>, FabricAlgo)> = Vec::new();
    if let Some(rows) = torus_rows(m) {
        let mut loads = vec![0u64; m];
        loads[0] = m as u64;
        cells.push((
            "torus",
            AnyTopology::Torus(Torus2D::new(rows, m / rows)),
            loads,
            FabricAlgo::Diffuse,
        ));
    }
    if m >= 2 {
        // One heavy node plus a thin deterministic background: the grant
        // round has real surpluses and deficits to match.
        let mut loads: Vec<u64> = (0..m).map(|v| (v % 7) as u64).collect();
        loads[0] = 64 * m as u64;
        cells.push((
            "clique",
            AnyTopology::Clique(Clique::new(m)),
            loads,
            FabricAlgo::Clique,
        ));
    }
    for (shape, topo, loads, algo) in cells {
        eprintln!("benchmarking {} ({reps} reps per cell)...", topo.spec());
        for (exec_name, s) in [("run", None), ("par", Some(shards))] {
            let key = format!("{shape}-m{m}-{exec_name}");
            results.push(bench_fabric_case(key, shape, &topo, &loads, algo, s, reps));
        }
        let run_jps = find_jobs_per_sec(results, &format!("{shape}-m{m}-run"));
        let par_jps = find_jobs_per_sec(results, &format!("{shape}-m{m}-par"));
        speedups.push(SpeedupRecord {
            key: format!("{shape}-m{m}-fabric-par"),
            ratio: par_jps / run_jps,
        });
    }
}

fn record_json(r: &BenchRecord) -> String {
    format!(
        "    {{\"key\": \"{}\", \"m\": {}, \"shape\": \"{}\", \"repr\": \"{}\", \"executor\": \"{}\", \"total_work\": {}, \"steps\": {}, \"reps\": {}, \"best_ns_per_step\": {:.1}, \"jobs_per_sec\": {:.1}}}",
        r.key,
        r.m,
        r.shape,
        r.repr,
        r.executor,
        r.total_work,
        r.steps,
        r.reps,
        r.best_ns_per_step,
        r.jobs_per_sec
    )
}

fn to_json(results: &[BenchRecord], speedups: &[SpeedupRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": \"ringsched-bench-v1\",\n  \"results\": [\n");
    out.push_str(
        &results
            .iter()
            .map(record_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    out.push_str("\n  ],\n  \"speedups\": [\n");
    out.push_str(&speedups_json(speedups));
    out.push_str("\n  ]\n}\n");
    out
}

/// Renders the `"speedups"` array body, one object per line, matching what
/// [`parse_speedups`] reads back.
pub(crate) fn speedups_json(speedups: &[SpeedupRecord]) -> String {
    speedups
        .iter()
        .map(|s| format!("    {{\"key\": \"{}\", \"ratio\": {:.3}}}", s.key, s.ratio))
        .collect::<Vec<_>>()
        .join(",\n")
}

/// Extracts `key → ratio` pairs from a bench JSON file. Deliberately
/// line-based (the emitter writes one speedup object per line) so the
/// offline toolchain needs no JSON parser.
fn parse_speedups(text: &str) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("{\"key\": \"") else {
            continue;
        };
        let Some((key, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(rest) = rest.strip_prefix(", \"ratio\": ") else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(ratio) = num.parse::<f64>() {
            out.insert(key.to_string(), ratio);
        }
    }
    out
}

fn find_jobs_per_sec(results: &[BenchRecord], key: &str) -> f64 {
    results
        .iter()
        .find(|r| r.key == key)
        .map(|r| r.jobs_per_sec)
        .unwrap_or_else(|| panic!("missing bench record {key}"))
}

/// Runs the benchmark matrix and returns (results, speedups).
fn run_matrix(
    sizes: &[usize],
    reps: usize,
    shards: usize,
) -> (Vec<BenchRecord>, Vec<SpeedupRecord>) {
    let mut results = Vec::new();
    let mut speedups = Vec::new();
    for &m in sizes {
        // Spread is the message-bound axis: heavy enough that per-unit arena
        // traffic (~work·m/2 entries) dominates the fixed per-step cost.
        // Drain is the quiet-round axis and only needs enough work to make
        // the drain phase long.
        let spread_work = 48 * m as u64;
        let drain_work = 16 * m as u64;
        let spread = StreamSpec::spread(m, spread_work);
        bench_fabric_cells(&mut results, &mut speedups, m, shards, reps);
        if m > SPAN_ONLY_ABOVE {
            eprintln!("benchmarking m={m} (fixed span of {SPAN_ROUNDS} rounds, {reps} reps)...");
            results.push(bench_span_case(format!("span-m{m}-run"), &spread, reps));
            continue;
        }
        let drain = StreamSpec::drain(m, drain_work);
        eprintln!("benchmarking m={m} (spread work={spread_work}, {reps} reps per cell)...");
        for (repr_name, repr) in [
            ("per_unit", Representation::PerUnit),
            ("coalesced", Representation::Coalesced),
        ] {
            let key = format!("spread-m{m}-run-{repr_name}");
            results.push(bench_case(key, "spread", &spread, repr, reps));
        }
        let per_unit = find_jobs_per_sec(&results, &format!("spread-m{m}-run-per_unit"));
        let coalesced = find_jobs_per_sec(&results, &format!("spread-m{m}-run-coalesced"));
        speedups.push(SpeedupRecord {
            key: format!("spread-m{m}-run"),
            ratio: coalesced / per_unit,
        });
        results.push(bench_case(
            format!("drain-m{m}-plain"),
            "drain",
            &drain,
            Representation::Coalesced,
            reps,
        ));
        // The hotspot shape is the imbalanced-ring axis.
        results.push(bench_case(
            format!("hotspot-m{m}-run"),
            "hotspot",
            &hotspot_spec(m),
            Representation::Coalesced,
            reps,
        ));
    }
    (results, speedups)
}

/// Entry point for `ringsched bench`.
///
/// Flags: `--json <path>` (write the report), `--sizes 256,1024,4096`
/// (sizes above 8192 run in fixed-span mode), `--reps <n>`, `--shards
/// <n>` (the fabric `par_run` cells), `--check <baseline.json>` (fail if
/// any speedup ratio present in both runs dropped below 80% of the
/// baseline).
pub fn cmd_bench(flags: &HashMap<String, String>) {
    let sizes: Vec<usize> = flags
        .get("sizes")
        .map(String::as_str)
        .unwrap_or("256,1024,4096,65536,1048576")
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("--sizes must be a comma-separated list of ring sizes");
                exit(2)
            })
        })
        .collect();
    let reps = flags
        .get("reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize)
        .max(1);
    let shards = flags
        .get("shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8usize)
        .max(2);

    let (results, speedups) = run_matrix(&sizes, reps, shards);

    println!(
        "{:<28} {:>6} {:>10} {:>9} {:>16} {:>14}",
        "case", "m", "steps", "reps", "ns/step", "jobs/sec"
    );
    for r in &results {
        println!(
            "{:<28} {:>6} {:>10} {:>9} {:>16.1} {:>14.0}",
            r.key, r.m, r.steps, r.reps, r.best_ns_per_step, r.jobs_per_sec
        );
    }
    println!();
    for s in &speedups {
        println!("speedup {:<24} {:>8.2}x", s.key, s.ratio);
    }

    let json = to_json(&results, &speedups);
    if let Some(path) = flags.get("json") {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        println!("\nwrote {path}");
    }

    if let Some(baseline_path) = flags.get("check") {
        check_speedups(&speedups, baseline_path);
    }
}

/// Compares current speedup ratios against a checked-in baseline file and
/// exits non-zero on a >20% regression (shared by `bench` and
/// `bench-service`).
pub(crate) fn check_speedups(speedups: &[SpeedupRecord], baseline_path: &str) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {baseline_path}: {e}");
        exit(1)
    });
    let baseline = parse_speedups(&text);
    let mut compared = 0;
    let mut failed = false;
    for s in speedups {
        let Some(&base) = baseline.get(&s.key) else {
            continue;
        };
        compared += 1;
        let floor = 0.8 * base;
        let ok = s.ratio >= floor;
        println!(
            "check {:<24} current {:>7.2}x vs baseline {:>7.2}x (floor {:>6.2}x) {}",
            s.key,
            s.ratio,
            base,
            floor,
            if ok { "ok" } else { "REGRESSED" }
        );
        failed |= !ok;
    }
    if compared == 0 {
        eprintln!("no speedup keys in common with {baseline_path}; nothing checked");
        exit(1);
    }
    if failed {
        eprintln!("speedup regression vs {baseline_path} (>20% drop)");
        exit(1);
    }
    println!("all {compared} speedup ratios within 20% of baseline");
}
