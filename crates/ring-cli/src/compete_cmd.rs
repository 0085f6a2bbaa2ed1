//! `ringsched compete`: competitive ratios for online schedulers.
//!
//! Measures the six §6 engine algorithms plus the `ring-sched::online`
//! policy suite against the exact offline optimum (release-time-aware
//! lower bound where exactness is out of reach — flagged `*`). By default
//! it sweeps the whole adversarial catalog; `--arrivals` measures one
//! custom script, `--case` one catalog entry, `--alg`/`--policy` one
//! scheduler.

use crate::get_u64;
use ring_compete::{
    compete_catalog, measure, measure_suite, policy_suite, render_table, report_digest, CaseRatio,
    Policy, Script,
};
use ring_sched::dynamic::parse_arrivals;
use std::collections::HashMap;
use std::process::exit;

/// Entry point for the `compete` subcommand.
pub fn cmd_compete(flags: &HashMap<String, String>) {
    let shards = flags.get("par").map(|s| {
        s.parse::<usize>()
            .unwrap_or_else(|_| {
                eprintln!("--par must be a shard count");
                exit(2)
            })
            .max(1)
    });
    let policies = select_policies(flags);
    let scripts = select_scripts(flags);
    let mut rows: Vec<CaseRatio> = Vec::new();
    for script in &scripts {
        match &policies {
            None => rows.extend(measure_suite(script, shards)),
            Some(picked) => rows.extend(picked.iter().map(|p| measure(script, p, shards))),
        }
    }
    print!("{}", render_table(&rows));
    println!("report digest: {:016x}", report_digest(&rows));
    println!("(* = lower-bound denominator: the ratio is an upper estimate)");
}

/// The `--policy`/`--alg` pick, or `None` for the whole suite (measured
/// with one offline solve per script).
fn select_policies(flags: &HashMap<String, String>) -> Option<Vec<Policy>> {
    let want = flags.get("policy").or_else(|| flags.get("alg"))?;
    let picked: Vec<Policy> = policy_suite()
        .into_iter()
        .filter(|p| p.name().eq_ignore_ascii_case(want))
        .collect();
    if picked.is_empty() {
        eprintln!("unknown policy {want}; choose one of a1 b1 c1 a2 b2 c2 mig ml");
        exit(2)
    }
    Some(picked)
}

fn select_scripts(flags: &HashMap<String, String>) -> Vec<Script> {
    if let Some(spec) = flags.get("arrivals") {
        let m = get_u64(flags, "m", 64) as usize;
        let arrivals = parse_arrivals(spec, m).unwrap_or_else(|e| {
            eprintln!("bad --arrivals spec: {e}");
            exit(2)
        });
        let raw: Vec<(u64, usize, u64)> = arrivals
            .iter()
            .map(|a| (a.time, a.processor, a.count))
            .collect();
        return vec![Script::new("custom", m, &raw)];
    }
    let catalog = compete_catalog();
    match flags.get("case") {
        None => catalog,
        Some(id) => {
            let picked: Vec<Script> = catalog.into_iter().filter(|s| &s.name == id).collect();
            if picked.is_empty() {
                eprintln!("unknown compete case {id}; one of:");
                for s in compete_catalog() {
                    eprintln!("  {}", s.name);
                }
                exit(2)
            }
            picked
        }
    }
}
