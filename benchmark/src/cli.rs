//! The command line.
//!
//! ```text
//! ringbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--full]
//! ringbench all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ringbench compare A.json B.json
//! ringbench digests
//! ```
//!
//! The first form measures one workload in this process and prints its
//! result as the last line of standard output; it is what `BENCHMARK.json`
//! names. `all` runs every workload, each in a child process of its own so
//! that peak memory is per workload. See `benchmark/README.md`.

use crate::json::{self, Value};
use crate::runner::{self, Options};
use crate::workloads::Size;
use crate::{compare, report, spec};
use std::process::{Command, ExitCode, Stdio};

/// Every environment variable the engines read a default from. Plans state
/// these settings themselves; a stray export must not change a run.
const ENGINE_ENV: [&str; 6] = [
    "RING_WINDOW",
    "RING_PAR_STRAT",
    "RING_REBALANCE",
    "RING_STEAL_TASKS",
    "RING_STEAL_SEED",
    "RING_PAR_THREADS",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    full: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        size: Size::Full,
        full: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(value("--out")?),
            "--smoke" => parsed.size = Size::Smoke,
            "--full" => parsed.full = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn require_two_cores() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err(format!(
            "{cores} core available; the parallel and service workloads need 2"
        ));
    }
    Ok(())
}

/// Measures one workload in this process.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    require_two_cores()?;
    let result = runner::run(&Options {
        workload: workload.to_string(),
        seed: args.seed,
        size: args.size,
        seconds: args.seconds,
        trace: args.trace,
    })?;
    let full = report::full(&result);
    eprint!("{}", report::table(&full));
    if args.full {
        let mut line = String::new();
        full.write(&mut line);
        println!("{line}");
    } else {
        println!("{}", report::contract_line(&result, args.trace));
    }
    Ok(result.correct())
}

/// Runs `--workload <workload> --full` in a child process and parses the
/// last line it prints.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--full"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seconds", &args.seconds.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if args.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{workload}: the child printed no result ({})",
            output.status
        )
    })?;
    json::parse(line).map_err(|e| format!("{workload}: {e}"))
}

fn all(args: &Args) -> Result<bool, String> {
    require_two_cores()?;
    let mut workloads = Vec::new();
    let mut correct = true;
    for (workload, _) in spec::WORKLOADS {
        let mut result = child(args, workload, false)?;
        if args.trace {
            let traced = child(args, workload, true)?;
            merge_traced(&mut result, &traced);
        }
        print!("{}", report::table(&result));
        correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        workloads.push((workload.to_string(), result));
    }
    let report = Value::Obj(vec![
        ("schema".to_string(), Value::Str("ringbench/1".to_string())),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("size".to_string(), Value::Str(args.size.name().to_string())),
        ("workloads".to_string(), Value::Obj(workloads)),
    ]);
    if let Some(path) = &args.out {
        let mut text = String::new();
        report.write(&mut text);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(correct)
}

/// Folds a traced child's result into the untraced one: the layer metrics,
/// the failures, and the tracing overhead (traced pass minus `wall_s`).
fn merge_traced(result: &mut Value, traced: &Value) {
    let Value::Obj(fields) = result else { return };
    let wall = fields
        .iter()
        .find(|(k, _)| k == "metrics")
        .and_then(|(_, m)| m.get("wall_s")?.get("value")?.as_f64());
    for (key, value) in fields.iter_mut() {
        match (key.as_str(), value, traced.get(key)) {
            ("layers", value, Some(theirs)) => *value = theirs.clone(),
            ("failures", Value::Arr(ours), Some(Value::Arr(theirs))) => {
                ours.extend(theirs.iter().cloned())
            }
            ("correct", Value::Bool(ours), Some(Value::Bool(theirs))) => *ours &= *theirs,
            ("attempted" | "failed", Value::Num(ours), Some(Value::Num(theirs))) => *ours += theirs,
            _ => {}
        }
    }
    if let Some((wall, traced_wall)) = wall.zip(traced.get("traced_wall_s").and_then(Value::as_f64))
    {
        fields.push((
            "trace_overhead_s".to_string(),
            Value::Num(traced_wall - wall),
        ));
    }
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: ringbench compare A.json B.json".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    compare::compare(&load(a)?, &load(b)?)
}

pub fn main() -> ExitCode {
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let command = args.positional.first().map(String::as_str);
        match (command, &args.workload) {
            (None, Some(workload)) => run_one(&args, workload),
            (Some("all"), None) => all(&args),
            (Some("compare"), None) => compare_files(&args.positional[1..]),
            (Some("digests"), None) => runner::expected_lines().map(|lines| {
                print!("{lines}");
                true
            }),
            _ => Err(
                "usage: ringbench --workload <name> | all | compare A B | digests \
                      (see benchmark/README.md)"
                    .to_string(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ringbench: {message}");
            ExitCode::from(2)
        }
    }
}
