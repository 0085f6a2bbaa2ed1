//! Competitive-ratio battery: random arrival scripts, every online
//! scheduler the repo ships (the six §6 engine algorithms plus the
//! migration-budget and multi-list assignment policies), measured by the
//! ring-compete harness against the exact (or certified-lower-bound)
//! offline optimum.
//!
//! Invariants pinned here:
//!
//! * every measured ratio is ≥ 1 and every online makespan dominates its
//!   denominator — the harness can never report a scheduler "beating" the
//!   offline optimum;
//! * the full ratio report is bit-identical (same FNV digest) whether the
//!   engine runs through `run` or `par_run` on shard counts {1, 2, 7};
//! * engine measurements are oracle-clean: a traced run of the same
//!   instance passes the trace-replay oracle (and the `self-check`
//!   feature re-asserts this inside the engine on every traced run);
//! * the multi-list policy honors its model's guarantee on its model's
//!   instances: for job-by-job scripts (unit batches, one release wave)
//!   its makespan stays within `2·OPT + m` — 2-competitiveness plus the
//!   ring-distance slack its model does not price.
//!
//! The base case count scales with `RING_FAULT_SEEDS` (CI's compete-matrix
//! job sets it to 8).

use proptest::prelude::*;
use ring_compete::{measure, measure_suite, policy_suite, report_digest, Policy, Script};
use ring_sched::dynamic::run_dynamic;
use ring_sched::online::{run_online, OnlinePolicy};
use ring_sched::unit::UnitConfig;
use ring_sim::check_report;

/// Base 12 random scripts per property, scaled by `RING_FAULT_SEEDS`.
fn case_count() -> u32 {
    let mult = std::env::var("RING_FAULT_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(1)
        .max(1);
    12 * mult
}

/// Random dynamic scripts: a ring of 4–24 processors, 1–9 release events
/// within a 60-step horizon, batches of 1–29 jobs. Small enough that the
/// exact solver answers every suffix instance instantly in debug builds.
/// (The shim's strategies are plain samplers, so the processor index is
/// drawn wide and folded into range here.)
fn arb_script() -> impl Strategy<Value = (usize, Vec<(u64, usize, u64)>)> {
    (
        4usize..=24,
        prop::collection::vec((0u64..60, 0usize..64, 1u64..30), 1..10),
    )
}

fn script_from(name: &str, m: usize, raw: &[(u64, usize, u64)]) -> Script {
    let folded: Vec<(u64, usize, u64)> = raw.iter().map(|&(t, p, c)| (t, p % m, c)).collect();
    Script::new(name, m, &folded)
}

/// Job-by-job instances of the multi-list model: one release wave of unit
/// batches (each job is its own batch, all visible at t = 0).
fn arb_joblist() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (4usize..=16, prop::collection::vec(0usize..64, 1..40))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(case_count()))]

    /// No scheduler ever beats the offline optimum — the feasibility
    /// argument behind the harness, asserted over the whole suite.
    #[test]
    fn every_ratio_is_at_least_one(case in arb_script()) {
        let (m, raw) = case;
        let script = script_from("prop", m, &raw);
        for row in measure_suite(&script, None) {
            prop_assert!(row.ratio >= 1.0, "{row:?}");
            prop_assert!(row.online >= row.denominator, "{row:?}");
        }
    }

    /// The ratio report is bit-identical whether the engine is asked for
    /// `run` or `par_run` on shard counts {1, 2, 7}: the same FNV digest.
    #[test]
    fn report_digest_is_shard_independent(case in arb_script()) {
        let (m, raw) = case;
        let script = script_from("prop", m, &raw);
        let base = report_digest(&measure_suite(&script, None));
        for shards in [1usize, 2, 7] {
            let sharded = report_digest(&measure_suite(&script, Some(shards)));
            prop_assert_eq!(base, sharded, "shards={}", shards);
        }
    }

    /// Engine measurements are oracle-clean: the traced run of the measured
    /// instance passes the trace-replay oracle for every §6 algorithm.
    /// (The dev-dependency `self-check` feature also re-asserts this inside
    /// the engine itself on every traced run.)
    #[test]
    fn engine_measurements_are_oracle_clean(case in arb_script()) {
        let (m, raw) = case;
        let script = script_from("prop", m, &raw);
        for (name, cfg) in UnitConfig::all_six() {
            let run = run_dynamic(&script.dynamic(), &cfg.with_trace()).unwrap();
            let violations = check_report(&run.report, m, None);
            prop_assert!(violations.is_empty(), "{}: {:?}", name, violations);
        }
    }

    /// Dwibedy–Mohanty multi-list keeps its 2-competitive guarantee on its
    /// own model's instances (job-by-job lists, no release times), up to
    /// the ring-distance slack `m` its distance-free model does not price.
    #[test]
    fn multilist_two_competitive_plus_ring_slack(case in arb_joblist()) {
        let (m, jobs) = case;
        let raw: Vec<(u64, usize, u64)> = jobs.iter().map(|&p| (0, p % m, 1)).collect();
        let script = Script::new("joblist", m, &raw);
        let row = measure(&script, &Policy::Assignment(OnlinePolicy::MultiList), None);
        prop_assert!(row.exact, "single-wave instances must get exact denominators");
        prop_assert!(
            row.online <= 2 * row.denominator + m as u64,
            "ML makespan {} on m={} exceeds 2·{} + {}",
            row.online, m, row.denominator, m
        );
    }
}

/// The suite under measurement is exactly the six §6 algorithms plus the
/// two online policies, in fixed order — the golden table's row set.
#[test]
fn the_measured_suite_is_six_algorithms_plus_two_policies() {
    let names: Vec<String> = policy_suite().iter().map(Policy::name).collect();
    assert_eq!(names, ["A1", "B1", "C1", "A2", "B2", "C2", "MIG", "ML"]);
}

/// A singleton script is scheduled perfectly by the migration-budget
/// policy and measured at exactly ratio 1 with an exact denominator.
#[test]
fn singleton_scripts_measure_exactly_one() {
    for (t, p) in [(0u64, 0usize), (7, 3), (100, 5)] {
        let script = Script::new("one", 8, &[(t, p, 1)]);
        let row = measure(
            &script,
            &Policy::Assignment(OnlinePolicy::MigrationBudget { budget: 1.0 }),
            None,
        );
        assert!(row.exact, "{row:?}");
        assert_eq!(row.online, t + 1, "{row:?}");
        assert_eq!(row.ratio, 1.0, "{row:?}");
    }
}

/// Migration budget 0 degenerates to plain greedy assignment: with no
/// migration allowance the policy must still be feasible and measured
/// sanely.
#[test]
fn zero_migration_budget_is_still_sound() {
    let raw = vec![(0, 0, 30), (5, 4, 12), (9, 1, 7)];
    let script = Script::new("no-mig", 8, &raw);
    let frozen = run_online(
        8,
        &script.arrivals,
        &OnlinePolicy::MigrationBudget { budget: 0.0 },
    );
    assert_eq!(frozen.migrations, 0);
    let row = measure(
        &script,
        &Policy::Assignment(OnlinePolicy::MigrationBudget { budget: 0.0 }),
        None,
    );
    assert_eq!(row.online, frozen.makespan);
    assert!(row.ratio >= 1.0);
}
