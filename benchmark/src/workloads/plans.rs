//! What every plan-driven workload shares — parse, execute, render, gate —
//! and the `catalog` workload, which is nothing else.

use super::{fold_digest, read_repo_file, Outcome, Prepared, Size};
use crate::layers;
use crate::span::Recorder;
use ring_scenario::{execute, parse_plan, Plan, PlanReport};
use ring_workloads::catalog::{catalog as table1, Part};
use std::fmt::Write as _;
use std::time::Instant;

/// One `.ring` plan of a pass with what the gate knows about it.
pub struct PlanInput {
    pub text: String,
    /// `(jobs, nodes)` of each result row, in report order: the work the
    /// row processes and the size of the network it ran on.
    pub rows: Vec<(u64, u64)>,
    /// The digest the report must carry, where one is pinned in
    /// `tests/golden_scenarios.txt`.
    pub golden: Option<u64>,
}

/// Parses, executes and renders every plan the way `ringsched run|compete`
/// does, with the rendered rows going to a sink. Sets every field of the
/// outcome, `wall_s` included.
pub fn run_plans(inputs: &[PlanInput], rec: &mut Recorder) -> (Outcome, Vec<PlanReport>) {
    let mut out = Outcome::default();
    let mut reports = Vec::with_capacity(inputs.len());
    let mut sink = String::new();
    let start = Instant::now();
    for input in inputs {
        rec.count("scenario.parse.bytes", input.text.len() as f64);
        let plan = match rec.span("scenario.parse", |_| parse_plan(&input.text)) {
            Ok(plan) => plan,
            Err(e) => {
                out.check(false, || format!("parse: {e}"));
                continue;
            }
        };
        let report = match rec.span("scenario.execute", |_| execute(&plan)) {
            Ok(report) => report,
            Err(e) => {
                out.check(false, || format!("{}: {e}", plan.name));
                continue;
            }
        };
        rec.span("scenario.report", |_| render(&report, &mut sink));
        reports.push(report);
    }
    std::hint::black_box(&sink);
    out.wall_s = start.elapsed().as_secs_f64();

    out.check(reports.len() == inputs.len(), || {
        "a plan did not execute".to_string()
    });
    for (input, report) in inputs.iter().zip(&reports) {
        let makespans = makespans(report);
        out.check(makespans.len() == input.rows.len(), || {
            format!(
                "{}: {} rows, expected {}",
                report.name,
                makespans.len(),
                input.rows.len()
            )
        });
        for (&makespan, &(jobs, nodes)) in makespans.iter().zip(&input.rows) {
            out.jobs += jobs;
            out.node_steps += makespan * nodes;
            out.sim_steps += makespan;
        }
        if let Some(golden) = input.golden {
            out.check(report.digest == golden, || {
                format!(
                    "{}: digest {:016x}, golden {golden:016x}",
                    report.name, report.digest
                )
            });
        }
    }
    out.digest = fold_digest(reports.iter().map(|r| r.digest));
    (out, reports)
}

/// Row makespans of a report: run rows, or the online makespans of compete
/// rows.
pub fn makespans(report: &PlanReport) -> Vec<u64> {
    if report.ratios.is_empty() {
        report.rows.iter().map(|r| r.makespan).collect()
    } else {
        report.ratios.iter().map(|r| r.online).collect()
    }
}

/// The text `ringsched run|compete <plan.ring>` prints for a report.
fn render(report: &PlanReport, sink: &mut String) {
    sink.clear();
    let _ = writeln!(
        sink,
        "scenario {}: {} rows",
        report.name,
        report.rows.len() + report.ratios.len()
    );
    for row in &report.rows {
        let _ = writeln!(
            sink,
            "  {:<24} {:<3} makespan={}",
            row.case, row.algorithm, row.makespan
        );
    }
    if !report.ratios.is_empty() {
        sink.push_str(&ring_compete::render_table(&report.ratios));
    }
    let _ = writeln!(sink, "digest: {:016x}", report.digest);
}

/// Walks every plan through [`layers::replay`] under one `layers` span and
/// holds the walk to the makespans `execute` reported for the same plans.
pub fn replay_plans(inputs: &[PlanInput], seen: &[Vec<u64>], rec: &mut Recorder) -> Vec<String> {
    let mut failures = Vec::new();
    rec.span("layers", |rec| {
        for (i, input) in inputs.iter().enumerate() {
            let rows = parse_plan(&input.text)
                .map_err(|e| e.to_string())
                .and_then(|plan| layers::replay(&plan, rec));
            match rows {
                Err(e) => failures.push(format!("layer replay: {e}")),
                Ok(replayed) => {
                    if seen.get(i) != Some(&replayed) {
                        failures.push(format!(
                            "layer replay of plan {i} disagrees with execute on makespans"
                        ));
                    }
                }
            }
        }
    });
    failures
}

/// A comparison cell of the traced run: the plan with one setting changed,
/// walked through the ring layers with its executor call under `run_name`.
/// Returns the makespans, which no executor setting may change.
pub fn ring_cell(
    text: &str,
    edit: impl FnOnce(&mut Plan),
    run_name: &'static str,
    rec: &mut Recorder,
) -> Result<Vec<u64>, String> {
    let mut plan = parse_plan(text).map_err(|e| e.to_string())?;
    edit(&mut plan);
    layers::replay_ring(&plan, rec, run_name)
}

/// `<file> <rows> <digest>` lines of `tests/golden_scenarios.txt`.
pub fn golden_digest(file: &str) -> Result<u64, String> {
    let table = read_repo_file("tests/golden_scenarios.txt")?;
    for line in table.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [name, _rows, hex] = words[..] {
            if name == file {
                return u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("golden digest of {file} is not hex: {hex}"));
            }
        }
    }
    Err(format!("no golden digest for {file}"))
}

/// A workload that is a fixed list of plans and nothing more.
pub struct PlanWorkload {
    pub inputs: Vec<PlanInput>,
    /// Makespans of the latest pass, which the layer walk must reproduce.
    pub seen: Vec<Vec<u64>>,
}

impl PlanWorkload {
    /// Takes the plans of a pass, once each is known to parse: a generator
    /// bug should stop set-up with its position, not fail every pass.
    pub fn new(inputs: Vec<PlanInput>) -> Result<Self, String> {
        for input in &inputs {
            parse_plan(&input.text).map_err(|e| format!("generated plan: {e}"))?;
        }
        Ok(PlanWorkload {
            inputs,
            seen: Vec::new(),
        })
    }

    pub fn run(&mut self, rec: &mut Recorder) -> (Outcome, Vec<PlanReport>) {
        let (out, reports) = run_plans(&self.inputs, rec);
        self.seen = reports.iter().map(makespans).collect();
        (out, reports)
    }
}

impl Prepared for PlanWorkload {
    fn pass(&mut self, rec: &mut Recorder) -> Outcome {
        self.run(rec).0
    }

    fn layers(&mut self, rec: &mut Recorder) -> Vec<String> {
        replay_plans(&self.inputs, &self.seen, rec)
    }
}

/// `catalog`: the three Table 1 scenario files, verbatim. The seed changes
/// nothing here; the paper's experiment has no free input. Smoke keeps
/// Part II alone: Part I holds the m = 1000 `huge` rows.
pub fn catalog(size: Size, rec: &mut Recorder) -> Result<Box<dyn Prepared>, String> {
    let cases = rec.span("workloads.generate", |_| table1());
    let parts: &[(&str, Part)] = size.pick(
        &[
            ("catalog-part1.ring", Part::Structured),
            ("catalog-part2.ring", Part::Random),
            ("catalog-part3.ring", Part::Adversary),
        ],
        &[("catalog-part2.ring", Part::Random)],
    );
    let mut inputs = Vec::new();
    for &(file, part) in parts {
        // Six algorithms per case, in the order `execute` reports them.
        let rows = cases
            .iter()
            .filter(|c| c.part == part)
            .flat_map(|c| {
                let row = (c.instance.total_work(), c.instance.num_processors() as u64);
                std::iter::repeat(row).take(6)
            })
            .collect();
        inputs.push(PlanInput {
            text: read_repo_file(&format!("scenarios/{file}"))?,
            rows,
            golden: Some(golden_digest(file)?),
        });
    }
    Ok(Box::new(PlanWorkload::new(inputs)?))
}
