//! `ringsched serve` / `loadgen` / `bench-service` — the online
//! job-submission service front end.
//!
//! `serve` drives a [`ring_service::Service`] from a scripted arrival
//! spec (the same `<time>@<processor>:<count>` grammar `run --arrivals`
//! uses), optionally resuming from a drain snapshot and optionally
//! draining back into one. `loadgen` runs the seeded open/closed-loop
//! load generator and prints the reproducibility digest. `bench-service`
//! sweeps the service benchmark matrix and emits `BENCH_service.json`.

use crate::bench::{check_speedups, speedups_json, SpeedupRecord};
use ring_sched::dynamic::parse_arrivals;
use ring_service::{
    run_loadgen, LoadMode, LoadgenConfig, LoadgenReport, Outcome, Service, ServiceConfig,
};
use ring_sim::Snapshot;
use std::collections::HashMap;
use std::process::exit;

/// Builds a [`ServiceConfig`] from the shared service flags
/// (`--m --alg --c --epoch --queue-cap --slo --par`).
fn service_config(flags: &HashMap<String, String>) -> ServiceConfig {
    let m = crate::get_u64(flags, "m", 64) as usize;
    let mut cfg = ServiceConfig::new(m)
        .with_unit(crate::alg_config(flags))
        .with_epoch(crate::get_u64(flags, "epoch", 32));
    if flags.contains_key("queue-cap") {
        cfg = cfg.with_queue_cap(crate::get_u64(flags, "queue-cap", u64::MAX));
    }
    if flags.contains_key("slo") {
        cfg = cfg.with_slo_horizon(crate::get_u64(flags, "slo", u64::MAX));
    }
    // `--par <n>` still selects `ExecutorMode::Parallel`, which runs the
    // same engine loop as the default (DESIGN.md §6); `--par seq` states
    // the default.
    match flags.get("par").map(String::as_str) {
        None | Some("seq") | Some("0") => {}
        Some(_) => cfg = cfg.with_shards(crate::get_u64(flags, "par", 8).max(1) as usize),
    }
    cfg
}

fn print_log(service: &Service) {
    for e in service.completion_log() {
        let outcome = match e.outcome {
            Outcome::Completed => "completed".to_string(),
            Outcome::Shed(reason) => format!("shed:{}", reason.name()),
        };
        println!(
            "  ticket c{}#{} processor={} jobs={} tag={} at={} {}",
            e.ticket.client, e.ticket.seq, e.processor, e.jobs, e.tag, e.at, outcome
        );
    }
    println!("log digest: {:016x}", service.log_digest());
}

/// Entry point for `ringsched serve`.
pub fn cmd_serve(flags: &HashMap<String, String>) {
    let cfg = service_config(flags);
    let m = cfg.m;
    let epoch = cfg.epoch;
    let (service, handles) = match flags.get("resume") {
        Some(path) => {
            let snap = Snapshot::read_from_file(std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("cannot load snapshot {path}: {e}");
                exit(1)
            });
            println!("resuming service from {path}: {}", snap.summary());
            Service::resume(cfg, &snap, 1).unwrap_or_else(|e| {
                eprintln!("resume failed: {e}");
                exit(1)
            })
        }
        None => Service::start(cfg, 1),
    };
    let handle = &handles[0];
    println!(
        "service: m={m} epoch={epoch} starting at virtual time {}",
        handle.now()
    );

    let mut arrivals = flags
        .get("arrivals")
        .map(|spec| {
            parse_arrivals(spec, m).unwrap_or_else(|e| {
                eprintln!("bad --arrivals spec: {e}");
                exit(2)
            })
        })
        .unwrap_or_default();
    arrivals.sort_by_key(|a| a.time);
    let drain_at = flags.get("drain-at").map(|_| {
        let t = crate::get_u64(flags, "drain-at", 0);
        if t == 0 {
            eprintln!("--drain-at must be positive");
            exit(2)
        }
        t
    });

    let mut submitted = 0usize;
    for a in &arrivals {
        if drain_at.is_some_and(|d| a.time >= d) {
            eprintln!(
                "skipping arrival {}@{}:{} at or after --drain-at",
                a.time, a.processor, a.count
            );
            continue;
        }
        handle.advance_to(a.time);
        handle.try_submit(a.processor, a.count);
        submitted += 1;
    }
    println!("submitted {submitted} batches");

    if let Some(t) = drain_at {
        handle.advance_to(t);
        let (report, snap) = service.drain();
        let path = flags
            .get("snapshot")
            .map(String::as_str)
            .unwrap_or("service.ringsnap");
        snap.write_to_file(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write snapshot {path}: {e}");
                exit(1)
            });
        println!(
            "drained at {}: {} jobs still in flight, snapshot -> {path}",
            report.now, report.outstanding
        );
        println!("service report: {}", report.to_json());
        return;
    }

    handle.close();
    service.await_idle();
    print_log(&service);
    println!("service report: {}", service.report().to_json());
}

/// Builds a [`LoadgenConfig`] from `--mode --clients --batches --max-batch
/// --spacing --seed`.
fn loadgen_config(flags: &HashMap<String, String>) -> LoadgenConfig {
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("open") {
        "open" => LoadMode::Open,
        "closed" => LoadMode::Closed,
        other => {
            eprintln!("--mode must be open or closed, got {other}");
            exit(2)
        }
    };
    let defaults = LoadgenConfig::new(mode);
    LoadgenConfig {
        mode,
        clients: crate::get_u64(flags, "clients", defaults.clients as u64).max(1) as usize,
        batches: crate::get_u64(flags, "batches", defaults.batches),
        max_batch: crate::get_u64(flags, "max-batch", defaults.max_batch).max(1),
        spacing: crate::get_u64(flags, "spacing", defaults.spacing).max(1),
        seed: crate::get_u64(flags, "seed", defaults.seed),
    }
}

/// Entry point for `ringsched loadgen`.
pub fn cmd_loadgen(flags: &HashMap<String, String>) {
    let cfg = service_config(flags);
    let load = loadgen_config(flags);
    println!(
        "loadgen: {} loop, {} clients x {} batches (seed {}) on m={} epoch={}",
        load.mode.name(),
        load.clients,
        load.batches,
        load.seed,
        cfg.m,
        cfg.epoch
    );
    let out = run_loadgen(cfg, &load);
    let r = &out.service;
    println!(
        "completed {} / submitted {} jobs ({} shed) in {:.3}s wall ({:.0} jobs/sec)",
        r.completed_jobs,
        r.submitted_jobs,
        r.shed_jobs(),
        out.wall_secs,
        out.jobs_per_sec
    );
    println!(
        "sojourn latency: p50={} p95={} p99={} max={} (virtual steps, {} jobs)",
        r.latency.p50, r.latency.p95, r.latency.p99, r.latency.max, r.latency.count
    );
    println!("log digest: {:016x}", out.digest);
    println!("service report: {}", r.to_json());
}

/// One cell of the service benchmark matrix.
struct ServiceBenchRecord {
    key: String,
    m: usize,
    executor: String,
    submitted: u64,
    completed: u64,
    shed: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    digest: u64,
    wall_secs: f64,
    jobs_per_sec: f64,
}

fn service_record_json(r: &ServiceBenchRecord) -> String {
    // `wall_micros` is the canonical duration (integer microseconds —
    // rounding a sub-millisecond cell to 3 decimals used to put ~25%
    // quantization error into any rate derived from the file); `wall_secs`
    // is serialized at full precision and `jobs_per_sec` is derived from
    // the unrounded duration upstream, never from the printed value.
    format!(
        "    {{\"key\": \"{}\", \"m\": {}, \"executor\": \"{}\", \"submitted\": {}, \"completed\": {}, \"shed\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"digest\": \"{:016x}\", \"wall_micros\": {}, \"wall_secs\": {}, \"jobs_per_sec\": {:.1}}}",
        r.key,
        r.m,
        r.executor,
        r.submitted,
        r.completed,
        r.shed,
        r.p50,
        r.p95,
        r.p99,
        r.digest,
        (r.wall_secs * 1e6).round() as u64,
        r.wall_secs,
        r.jobs_per_sec
    )
}

/// The fixed seeded workload each cell runs: open-loop overload sized to
/// the ring, so admission control and the latency tail are both exercised.
fn bench_load(m: usize) -> (ServiceConfig, LoadgenConfig) {
    let cfg = ServiceConfig::new(m)
        .with_epoch(32)
        .with_queue_cap(4 * m as u64)
        .with_slo_horizon(64 * ((m as f64).sqrt().ceil() as u64).max(1));
    // Offered load runs past ring capacity (4 clients pushing ~m jobs per
    // 2·spacing steps against m jobs/step of service with a 4m-job queue),
    // so the cells exercise shedding, not just the happy path.
    let load = LoadgenConfig {
        mode: LoadMode::Open,
        clients: 4,
        batches: 48,
        max_batch: 2 * m as u64,
        spacing: 4,
        seed: 1994,
    };
    (cfg, load)
}

fn service_bench_cell(m: usize) -> ServiceBenchRecord {
    let (cfg, load) = bench_load(m);
    let out: LoadgenReport = run_loadgen(cfg, &load);
    let r = &out.service;
    ServiceBenchRecord {
        key: format!("service-m{m}-run"),
        m,
        executor: "run".to_string(),
        submitted: r.submitted_jobs,
        completed: r.completed_jobs,
        shed: r.shed_jobs(),
        p50: r.latency.p50,
        p95: r.latency.p95,
        p99: r.latency.p99,
        digest: out.digest,
        wall_secs: out.wall_secs,
        jobs_per_sec: out.jobs_per_sec,
    }
}

/// Entry point for `ringsched bench-service`.
///
/// Flags: `--json <path>`, `--sizes 256,1024,4096`,
/// `--check <baseline.json>`. The `"speedups"` ratios are *deterministic*
/// (tail-latency spread p99/p50 and completion fraction under the fixed
/// seeded overload), so the CI check regresses scheduling behaviour, not
/// machine speed.
pub fn cmd_bench_service(flags: &HashMap<String, String>) {
    let sizes: Vec<usize> = flags
        .get("sizes")
        .map(String::as_str)
        .unwrap_or("256,1024,4096")
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("--sizes must be a comma-separated list of ring sizes");
                exit(2)
            })
        })
        .collect();

    let mut results = Vec::new();
    let mut speedups = Vec::new();
    for &m in &sizes {
        eprintln!("benchmarking service on m={m}...");
        let seq = service_bench_cell(m);
        speedups.push(SpeedupRecord {
            key: format!("service-m{m}-tail-spread"),
            ratio: seq.p99 as f64 / seq.p50.max(1) as f64,
        });
        speedups.push(SpeedupRecord {
            key: format!("service-m{m}-completion"),
            ratio: seq.completed as f64 / seq.submitted.max(1) as f64,
        });
        results.push(seq);
    }

    println!(
        "{:<22} {:>6} {:>12} {:>10} {:>8} {:>6} {:>6} {:>6} {:>12}",
        "case", "m", "executor", "completed", "shed", "p50", "p95", "p99", "jobs/sec"
    );
    for r in &results {
        println!(
            "{:<22} {:>6} {:>12} {:>10} {:>8} {:>6} {:>6} {:>6} {:>12.0}",
            r.key, r.m, r.executor, r.completed, r.shed, r.p50, r.p95, r.p99, r.jobs_per_sec
        );
    }
    println!();
    for s in &speedups {
        println!("ratio {:<28} {:>8.3}", s.key, s.ratio);
    }

    let mut json =
        String::from("{\n  \"schema\": \"ringsched-bench-service-v1\",\n  \"results\": [\n");
    json.push_str(
        &results
            .iter()
            .map(service_record_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str("\n  ],\n  \"speedups\": [\n");
    json.push_str(&speedups_json(&speedups));
    json.push_str("\n  ]\n}\n");
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
