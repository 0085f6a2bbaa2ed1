//! Runs one workload in this process and reduces its passes to metrics.
//!
//! The untraced run gives the end-to-end numbers: set-up repeated and its
//! median taken, one warm-up pass, then timed passes of fixed work. The
//! traced run gives the per-layer numbers from spans and never feeds an
//! end-to-end metric.

use crate::derive::layer_metrics;
use crate::span::Recorder;
use crate::spec::{self, DEFAULT_SEED, END_TO_END, LAYERS};
use crate::workloads::{self, read_repo_file, repo_root, Outcome, Prepared, Size};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub size: Size,
    /// Time budget for the timed passes. The work of a pass is fixed, so
    /// the budget only chooses between 3 and 5 passes.
    pub seconds: f64,
    pub trace: bool,
}

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    pub fn of(samples: &[f64]) -> Stat {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let value = match n {
            0 => 0.0,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        Stat {
            value,
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            n,
        }
    }

    fn exact(value: f64) -> Stat {
        Stat {
            value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

pub struct RunResult {
    pub workload: String,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics by name (untraced run only).
    pub metrics: BTreeMap<&'static str, Stat>,
    /// Per-layer metrics by name (traced run only).
    pub layers: BTreeMap<&'static str, Stat>,
    /// Wall time of the passes of the traced run, to set against `wall_s`.
    pub traced_wall_s: Option<Stat>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 5;
const MAX_TRACED_REPS: u32 = 3;

/// Set-up is short next to a pass, so it is repeated until it has been
/// observed for this long, and at least five times.
const SETUP_OBSERVE_S: f64 = 0.2;
const MAX_SETUP_REPS: usize = 200;

pub fn run(opts: &Options) -> Result<RunResult, String> {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

fn absorb(outcome: &mut Outcome, attempted: &mut u64, failures: &mut Vec<String>) {
    *attempted += outcome.checks;
    failures.append(&mut outcome.failures);
}

fn run_untraced(opts: &Options) -> Result<RunResult, String> {
    let mut off = Recorder::off();
    let mut setup_s = Vec::new();
    let observe = Instant::now();
    // Set-up is everything before the first timed operation: building the
    // inputs, and reading the digest the passes will be held to.
    let (mut prepared, pinned): (Box<dyn Prepared>, Option<u64>) = loop {
        let start = Instant::now();
        let prepared = workloads::setup(&opts.workload, opts.seed, opts.size, &mut off)?;
        let pinned = pinned_digest(&opts.workload, opts.size, opts.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let enough = observe.elapsed().as_secs_f64() >= SETUP_OBSERVE_S && setup_s.len() >= 5;
        if enough || setup_s.len() >= MAX_SETUP_REPS {
            break (prepared, pinned);
        }
    };

    let mut attempted = 0;
    let mut failures = Vec::new();
    absorb(&mut prepared.reference(), &mut attempted, &mut failures);
    let mut warm_up = prepared.pass(&mut off);
    absorb(&mut warm_up, &mut attempted, &mut failures);

    let mut passes: Vec<Outcome> = Vec::new();
    let timed = Instant::now();
    loop {
        let mut pass = prepared.pass(&mut off);
        absorb(&mut pass, &mut attempted, &mut failures);
        attempted += 1;
        if pass.digest != warm_up.digest {
            failures.push(format!(
                "pass {} digest {:016x} differs from the warm-up's {:016x}",
                passes.len(),
                pass.digest,
                warm_up.digest
            ));
        }
        let next_ends = timed.elapsed().as_secs_f64() + pass.wall_s;
        passes.push(pass);
        let fits = next_ends <= opts.seconds;
        if passes.len() >= MAX_PASSES || (passes.len() >= MIN_PASSES && !fits) {
            break;
        }
    }

    if let Some(pinned) = pinned {
        attempted += 1;
        if pinned != warm_up.digest {
            failures.push(format!(
                "digest {:016x} differs from {pinned:016x} pinned in benchmark/expected.txt",
                warm_up.digest
            ));
        }
    }

    let per_pass = |f: &dyn Fn(&Outcome) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", Stat::of(&setup_s));
    metrics.insert("wall_s", Stat::of(&per_pass(&|p| p.wall_s)));
    metrics.insert(
        "jobs_per_s",
        Stat::of(&per_pass(&|p| p.jobs as f64 / p.wall_s)),
    );
    metrics.insert(
        "node_steps_per_s",
        Stat::of(&per_pass(&|p| p.node_steps as f64 / p.wall_s)),
    );
    // Simulated quantities repeat exactly (the digest gate above holds the
    // passes to the warm-up), so the warm-up's value stands for all.
    metrics.insert("sim_steps", Stat::exact(warm_up.sim_steps as f64));
    for (name, _) in &warm_up.scoped {
        let samples: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.scoped.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        metrics.insert(name, Stat::of(&samples));
    }
    metrics.insert("peak_rss_mb", Stat::exact(peak_rss_mb()?));
    metrics.insert(
        "failed_frac",
        Stat::exact(failures.len() as f64 / attempted.max(1) as f64),
    );
    for metric in &END_TO_END {
        let reported = metrics.contains_key(metric.name);
        if reported != metric.on.includes(&opts.workload) {
            return Err(format!(
                "{}: metric {} reported = {reported}, against the table in spec.rs",
                opts.workload, metric.name
            ));
        }
    }
    Ok(RunResult {
        workload: opts.workload.clone(),
        attempted,
        failures,
        metrics,
        layers: BTreeMap::new(),
        traced_wall_s: None,
    })
}

fn run_traced(opts: &Options) -> Result<RunResult, String> {
    let mut rec = Recorder::on();
    rec.begin_rep(0);
    let mut prepared = rec.span("setup", |rec| {
        workloads::setup(&opts.workload, opts.seed, opts.size, rec)
    })?;

    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut per_rep: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut walls = Vec::new();
    let timed = Instant::now();
    for rep in 1..=MAX_TRACED_REPS {
        let rep_start = Instant::now();
        rec.begin_rep(rep);
        rec.span("rep", |rec| {
            let mut pass = rec.span("pass", |rec| prepared.pass(rec));
            absorb(&mut pass, &mut attempted, &mut failures);
            walls.push(pass.wall_s);
            attempted += 1;
            failures.extend(prepared.layers(rec));
        });
        let setup: Vec<_> = rec.rep_spans(0).collect();
        let spans: Vec<_> = rec.rep_spans(rep).collect();
        per_rep.push(layer_metrics(&setup, &spans, rec.counts()));
        let next_ends = timed.elapsed().as_secs_f64() + rep_start.elapsed().as_secs_f64();
        if next_ends > opts.seconds {
            break;
        }
    }

    let mut layers = BTreeMap::new();
    for layer in &LAYERS {
        let samples: Vec<f64> = per_rep.iter().map(|m| m[layer.name]).collect();
        layers.insert(layer.name, Stat::of(&samples));
    }
    let out_dir = repo_root().join("benchmark/out");
    let path = out_dir.join(format!("{}.spans.jsonl", opts.workload));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, rec.to_jsonl(&opts.workload)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(RunResult {
        workload: opts.workload.clone(),
        attempted,
        failures,
        metrics: BTreeMap::new(),
        layers,
        traced_wall_s: Some(Stat::of(&walls)),
    })
}

/// The digest `benchmark/expected.txt` pins for this workload, size and
/// seed, if it pins one: lines are `<workload> <size> <seed> <digest>`.
/// Only the default seed is pinned; other seeds rely on the gates that
/// need no stored value (executor agreement, the oracle, conservation).
fn pinned_digest(workload: &str, size: Size, seed: u64) -> Result<Option<u64>, String> {
    let table = read_repo_file("benchmark/expected.txt")?;
    let wanted = [workload, size.name(), &seed.to_string()];
    for line in table.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [w, s, d, hex] = words[..] {
            if [w, s, d] == wanted {
                return u64::from_str_radix(hex, 16)
                    .map(Some)
                    .map_err(|_| format!("expected.txt: `{hex}` is not a digest"));
            }
        }
    }
    if seed == DEFAULT_SEED {
        return Err(format!(
            "benchmark/expected.txt pins no digest for {workload} {} at the default seed",
            size.name()
        ));
    }
    Ok(None)
}

/// One warm-up-free pass per workload and size at the default seed, as the
/// lines of `benchmark/expected.txt`.
pub fn expected_lines() -> Result<String, String> {
    let mut out = String::from(
        "# <workload> <size> <seed> <digest of one pass> -- regenerate with `ringbench digests`\n",
    );
    for size in [Size::Full, Size::Smoke] {
        for (workload, _) in spec::WORKLOADS {
            let mut off = Recorder::off();
            let mut prepared = workloads::setup(workload, DEFAULT_SEED, size, &mut off)?;
            let pass = prepared.pass(&mut off);
            if !pass.failures.is_empty() {
                return Err(format!("{workload}: {}", pass.failures.join("; ")));
            }
            out.push_str(&format!(
                "{workload} {} {DEFAULT_SEED} {:016x}\n",
                size.name(),
                pass.digest
            ));
        }
    }
    Ok(out)
}

/// `VmHWM` of this process in MiB: each workload runs in a process of its
/// own, so this is the workload's peak resident set.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
