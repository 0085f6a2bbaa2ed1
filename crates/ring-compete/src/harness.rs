//! The measurement core: run a policy on an arrival script, re-solve the
//! revealed instance offline, report the ratio.
//!
//! A [`Script`] is a named dynamic instance. A [`Policy`] is anything the
//! repo can run online against it: one of the six §6 bucket algorithms on
//! the engine, or one of the assignment-level policies from
//! `ring_sched::online`. [`measure`] produces one [`CaseRatio`] row;
//! [`measure_suite`] sweeps the whole [`policy_suite`]. Reports are
//! rendered with [`render_table`] and fingerprinted with [`report_digest`]
//! (FNV-1a, the same construction as `ring_service::report::log_digest`)
//! so regression tests can pin a whole table to one `u64`.

use ring_opt::{competitive_ratio, offline_optimum, OfflineOptimum, Release, SolverBudget};
use ring_sched::dynamic::{run_dynamic, Arrival, DynamicInstance};
use ring_sched::online::{run_online, OnlinePolicy};
use ring_sched::UnitConfig;

/// A named arrival script on an `m`-ring — the unit the harness measures.
#[derive(Debug, Clone)]
pub struct Script {
    /// Display name (catalog key, golden-table row prefix).
    pub name: String,
    /// Ring size.
    pub m: usize,
    /// Time-sorted arrivals.
    pub arrivals: Vec<Arrival>,
}

impl Script {
    /// Wraps a raw `(time, processor, count)` script (the
    /// `ring_workloads::ArrivalScript` shape) for measurement.
    ///
    /// # Panics
    ///
    /// Panics if any processor index is out of range for `m`.
    pub fn new(name: &str, m: usize, script: &[(u64, usize, u64)]) -> Self {
        let arrivals: Vec<Arrival> = script
            .iter()
            .map(|&(time, processor, count)| {
                assert!(processor < m, "{name}: processor {processor} >= m {m}");
                Arrival {
                    time,
                    processor,
                    count,
                }
            })
            .collect();
        // DynamicInstance::new sorts by time; re-extract so the stored
        // arrivals are canonical whatever order the caller supplied.
        let inst = DynamicInstance::new(m, arrivals);
        Script {
            name: name.to_string(),
            m,
            arrivals: inst.arrivals().to_vec(),
        }
    }

    /// The script as a dynamic engine instance.
    pub fn dynamic(&self) -> DynamicInstance {
        DynamicInstance::new(self.m, self.arrivals.clone())
    }

    /// The script as ring-opt release records.
    pub fn releases(&self) -> Vec<Release> {
        self.arrivals
            .iter()
            .map(|a| Release {
                time: a.time,
                processor: a.processor,
                count: a.count,
            })
            .collect()
    }

    /// Total work in the script.
    pub fn total_work(&self) -> u64 {
        self.arrivals.iter().map(|a| a.count).sum()
    }
}

/// One online scheduler the harness can measure.
#[derive(Debug, Clone)]
pub enum Policy {
    /// A §6 bucket algorithm run on the full distributed engine.
    Engine(UnitConfig),
    /// An assignment-level policy from `ring_sched::online`.
    Assignment(OnlinePolicy),
}

impl Policy {
    /// Display name: the paper name for engine algorithms (`"C1"`), the
    /// policy tag for assignment policies (`"MIG"`, `"ML"`).
    pub fn name(&self) -> String {
        match self {
            Policy::Engine(cfg) => cfg.name(),
            Policy::Assignment(p) => p.name().to_string(),
        }
    }
}

/// The full measurement suite: the six §6 algorithms plus the two online
/// assignment policies, in fixed report order.
pub fn policy_suite() -> Vec<Policy> {
    let mut suite: Vec<Policy> = UnitConfig::all_six()
        .into_iter()
        .map(|(_, cfg)| Policy::Engine(cfg))
        .collect();
    suite.extend(
        OnlinePolicy::suite()
            .into_iter()
            .map(|(_, p)| Policy::Assignment(p)),
    );
    suite
}

/// Looks up one suite policy by its case-insensitive display name
/// (`a1`/`b1`/`c1`/`a2`/`b2`/`c2`/`mig`/`ml`); `None` if unknown.
pub fn policy_by_name(name: &str) -> Option<Policy> {
    policy_suite()
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
}

/// One measured (script, policy) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseRatio {
    /// Script name.
    pub case: String,
    /// Policy name.
    pub policy: String,
    /// Online makespan achieved by the policy.
    pub online: u64,
    /// Offline denominator value.
    pub denominator: u64,
    /// Whether the denominator is the exact optimum (`false` = certified
    /// lower bound, flagged `*` in rendered tables).
    pub exact: bool,
    /// `online / denominator` (1.0 for an empty script).
    pub ratio: f64,
}

impl CaseRatio {
    /// The denominator as the ring-opt result type.
    pub fn offline(&self) -> OfflineOptimum {
        if self.exact {
            OfflineOptimum::Exact(self.denominator)
        } else {
            OfflineOptimum::LowerBound(self.denominator)
        }
    }
}

/// Runs `policy` on `script` and measures it against the offline optimum.
///
/// `_shards` is ignored: the ring engine has one executor
/// (`ring_sim::Engine::par_run`). The online makespan is handed to
/// the offline solver as its upper hint, so the exact search never scans
/// past what the online run already achieved.
///
/// # Panics
///
/// Panics if the engine rejects the instance (step-budget exhaustion —
/// impossible for finite scripts within the engine's widened budget) or if
/// an online run undercuts its own certified lower bound, which would be a
/// soundness bug worth crashing on.
pub fn measure(script: &Script, policy: &Policy, _shards: Option<usize>) -> CaseRatio {
    let online = match policy {
        Policy::Engine(cfg) => {
            let inst = script.dynamic();
            run_dynamic(&inst, cfg)
                .unwrap_or_else(|e| panic!("{}/{}: engine error {e:?}", script.name, policy.name()))
                .makespan
        }
        Policy::Assignment(p) => run_online(script.m, &script.arrivals, p).makespan,
    };
    let denom = offline_optimum(
        script.m,
        &script.releases(),
        Some(online),
        &SolverBudget::default(),
    );
    CaseRatio {
        case: script.name.clone(),
        policy: policy.name(),
        online,
        denominator: denom.value(),
        exact: denom.is_exact(),
        ratio: competitive_ratio(online, &denom),
    }
}

/// Measures every policy in [`policy_suite`] on `script`.
pub fn measure_suite(script: &Script, shards: Option<usize>) -> Vec<CaseRatio> {
    policy_suite()
        .iter()
        .map(|p| measure(script, p, shards))
        .collect()
}

/// FNV-1a fingerprint of a ratio report (same construction as the service
/// log digest): bit-identical reports have equal digests, so a whole table
/// pins to one `u64` in regression tests.
pub fn report_digest(rows: &[CaseRatio]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in rows {
        eat(r.case.as_bytes());
        eat(r.policy.as_bytes());
        eat(&r.online.to_le_bytes());
        eat(&r.denominator.to_le_bytes());
        eat(&[u8::from(r.exact)]);
        eat(&r.ratio.to_bits().to_le_bytes());
    }
    h
}

/// Renders rows as an aligned text table. Lower-bound denominators are
/// flagged `*` (their ratios are upper estimates of the true ratio, as in
/// the paper's §6.2 substitution).
pub fn render_table(rows: &[CaseRatio]) -> String {
    let mut out = String::from("case                           policy  online  offline  ratio\n");
    for r in rows {
        let flag = if r.exact { " " } else { "*" };
        out.push_str(&format!(
            "{:<30} {:>6} {:>7} {:>7}{} {:>6.3}\n",
            r.case, r.policy, r.online, r.denominator, flag, r.ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike() -> Script {
        Script::new(
            "spike",
            16,
            &ring_workloads::adversary::spike_train(16, 3, 4, 2, 12),
        )
    }

    #[test]
    fn suite_covers_six_engine_algorithms_plus_two_policies() {
        let names: Vec<String> = policy_suite().iter().map(Policy::name).collect();
        assert_eq!(names, ["A1", "B1", "C1", "A2", "B2", "C2", "MIG", "ML"]);
    }

    #[test]
    fn every_ratio_is_at_least_one() {
        for row in measure_suite(&spike(), None) {
            assert!(row.ratio >= 1.0, "{row:?}");
            assert!(row.online >= row.denominator, "{row:?}");
        }
    }

    #[test]
    fn sequential_and_sharded_measurements_agree() {
        let s = spike();
        for p in policy_suite() {
            assert_eq!(
                measure(&s, &p, None),
                measure(&s, &p, Some(4)),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn single_wave_scripts_get_exact_denominators() {
        let s = Script::new("burst", 8, &[(0, 0, 16)]);
        for row in measure_suite(&s, None) {
            assert!(row.exact, "{row:?}");
            assert_eq!(row.denominator, 4, "{row:?}"); // 16 jobs / 8-ring staircase optimum
        }
    }

    #[test]
    fn empty_script_measures_ratio_one() {
        let s = Script::new("empty", 8, &[]);
        let row = measure(&s, &Policy::Engine(UnitConfig::c1()), None);
        assert_eq!((row.online, row.denominator, row.ratio), (0, 0, 1.0));
        assert!(row.exact);
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let rows = measure_suite(&spike(), None);
        let d = report_digest(&rows);
        assert_eq!(d, report_digest(&rows));
        let mut reordered = rows.clone();
        reordered.swap(0, 1);
        assert_ne!(d, report_digest(&reordered));
        let mut bumped = rows;
        bumped[0].online += 1;
        assert_ne!(d, report_digest(&bumped));
    }

    #[test]
    fn render_flags_lower_bound_denominators() {
        let rows = vec![
            CaseRatio {
                case: "a".into(),
                policy: "C1".into(),
                online: 10,
                denominator: 10,
                exact: true,
                ratio: 1.0,
            },
            CaseRatio {
                case: "b".into(),
                policy: "C1".into(),
                online: 12,
                denominator: 10,
                exact: false,
                ratio: 1.2,
            },
        ];
        let table = render_table(&rows);
        let exact_row = table.lines().nth(1).unwrap();
        assert!(
            exact_row.ends_with("1.000") && !exact_row.contains('*'),
            "{table}"
        );
        assert!(table.contains("10*"), "{table}");
    }

    #[test]
    #[should_panic(expected = "processor 9 >= m 8")]
    fn out_of_range_processor_rejected() {
        let _ = Script::new("bad", 8, &[(0, 9, 1)]);
    }
}
