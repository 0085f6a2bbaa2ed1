//! Golden optimum snapshot: pins the exact uncapacitated optimum of every
//! one of the 51 Table 1 catalog cases. With `golden_makespans.txt` pinning
//! the numerators, this pins all 306 approximation factors of Figures 2–7.
//!
//! The optima come from the closed-form cut test
//! (`ring_opt::staircase::feasible`) with no solver budget, so every row is
//! exact whatever `SolverBudget` the experiments run with. Each value `T`
//! is certified by Dinic on the staircase network (`T` feasible, `T − 1`
//! not): in this test for the rows whose networks are small, and for every
//! row but the three largest with the ignored
//! `dinic_certifies_every_tractable_optimum` (about four minutes in release):
//!
//! ```text
//! cargo test --release --test golden_optima -- --ignored
//! ```
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! RING_BLESS=1 cargo test --test golden_optima
//! ```

use ring_opt::exact::{optimum_uncapacitated, SolverBudget};
use ring_opt::staircase::{metric_feasible, network_size_estimate};
use ring_sim::Instance;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden_optima.txt");

/// Rows whose staircase networks Dinic does not finish within minutes.
const BEYOND_DINIC: [&str; 3] = ["I-m1000-d4-huge", "I-m1000-d4-large", "III-m1000-L500-k500"];

fn golden() -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_optima.txt missing — run with RING_BLESS=1 to create it");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (id, opt) = l.split_once(' ').expect("`case_id optimum` rows");
            (id.to_string(), opt.parse().expect("numeric optimum"))
        })
        .collect()
}

/// Dinic's verdict that `opt` is the least feasible makespan.
fn assert_dinic_certifies(id: &str, inst: &Instance, opt: u64) {
    let topo = inst.topology();
    let dinic = |t| metric_feasible(inst.loads(), |i, j| topo.distance(i, j), topo.diameter(), t);
    assert!(dinic(opt), "{id}: Dinic finds T = {opt} infeasible");
    assert!(
        !dinic(opt - 1),
        "{id}: Dinic finds T = {} feasible",
        opt - 1
    );
}

#[test]
fn catalog_optima_match_golden_snapshot() {
    let unbounded = SolverBudget {
        max_network_edges: u64::MAX,
    };
    let mut actual =
        String::from("# case_id optimum — regenerate with RING_BLESS=1 (see golden_optima.rs)\n");
    for case in ring_workloads::catalog() {
        let opt = optimum_uncapacitated(&case.instance, None, &unbounded);
        assert!(opt.is_exact(), "{}: no budget, yet {opt:?}", case.id);
        writeln!(actual, "{} {}", case.id, opt.value()).unwrap();
    }
    if std::env::var("RING_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden file");
        eprintln!("blessed {GOLDEN_PATH}");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_optima.txt missing — run with RING_BLESS=1 to create it");
    let diffs: Vec<String> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  got `{a}`, golden `{e}`"))
        .collect();
    assert!(
        diffs.is_empty() && actual.lines().count() == expected.lines().count(),
        "catalog optima drifted from the golden snapshot:\n{}\n\
         If this change is intended, re-bless with RING_BLESS=1.",
        diffs.join("\n")
    );
}

/// Certifies every golden row whose id passes `select` and whose
/// staircase network at the optimum has at most `max_edges` edges.
fn certify(select: impl Fn(&str) -> bool, max_edges: u64) -> usize {
    let mut checked = 0;
    for (case, (id, opt)) in ring_workloads::catalog().iter().zip(golden()) {
        assert_eq!(case.id, id);
        if select(&id) && network_size_estimate(&case.instance, opt) <= max_edges {
            assert_dinic_certifies(&id, &case.instance, opt);
            checked += 1;
        }
    }
    checked
}

/// The rows whose staircase network is small enough for Dinic in a debug
/// build.
#[test]
fn dinic_certifies_the_small_optima() {
    let checked = certify(|_| true, 20_000);
    assert!(checked >= 20, "only {checked} rows certified");
}

#[test]
#[ignore = "about four minutes in release; run with --ignored"]
fn dinic_certifies_every_tractable_optimum() {
    assert_eq!(certify(|id| !BEYOND_DINIC.contains(&id), u64::MAX), 48);
}
