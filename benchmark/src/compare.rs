//! `ringbench compare A.json B.json`: is B worse than A?
//!
//! A and B are reports of `ringbench all`, of the same code (the A/A
//! check) or of a parent and a change. Each end-to-end metric is judged on
//! each workload by its own direction and bound; nothing is averaged.

use crate::json::Value;
use crate::spec::{EndToEnd, Rule, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Ok,
    /// The runs of one side differ among themselves by more than the
    /// bound, so "no worse" cannot be told from "worse" ...
    Unresolved,
    /// ... unless every run of B reads better than every run of A. Also a
    /// simulated count that went down.
    Improved,
    Breach,
    /// One of the reports lacks the metric.
    Missing,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Breach => "BREACH",
            Verdict::Missing => "MISSING",
        }
    }
}

/// Median, minimum and maximum of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Side {
    fn read(report: &Value, workload: &str, metric: &str) -> Option<Side> {
        let fields = report
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?;
        let num = |key: &str| fields.get(key).and_then(Value::as_f64);
        let value = num("value")?;
        Some(Side {
            value,
            min: num("min").unwrap_or(value),
            max: num("max").unwrap_or(value),
        })
    }

    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

pub fn judge(metric: &EndToEnd, a: Side, b: Side) -> Verdict {
    // How much worse B's median is, in the metric's unit.
    let worse_by = if metric.higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    let (bound, floor) = match metric.rule {
        Rule::Exact => {
            return match worse_by {
                w if w > 0.0 => Verdict::Breach,
                w if w < 0.0 => Verdict::Improved,
                _ => Verdict::Same,
            }
        }
        Rule::Within(bound) => (bound, 0.0),
        Rule::WithinOrFloor(bound, floor) => (bound, floor),
    };
    if worse_by.abs() < floor {
        return Verdict::Ok;
    }
    if worse_by > bound * a.value.abs() {
        return Verdict::Breach;
    }
    if a.spread().max(b.spread()) <= bound {
        return Verdict::Ok;
    }
    // Too noisy to call unchanged, unless B wins run by run.
    let every_run_better = if metric.higher_is_better {
        b.min > a.max
    } else {
        b.max < a.min
    };
    if every_run_better {
        Verdict::Improved
    } else {
        Verdict::Unresolved
    }
}

/// Prints one row per metric and workload; `Ok(true)` when nothing is
/// breached or missing.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    for (key, report) in [("A", a), ("B", b)] {
        if report.get("workloads").and_then(Value::as_obj).is_none() {
            return Err(format!("{key} is not a `ringbench all` report"));
        }
    }
    println!(
        "{:<17} {:<22} {:>16} {:>16} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "B vs A", "spread", "bound"
    );
    let mut clean = true;
    for (workload, _) in WORKLOADS {
        for metric in END_TO_END.iter().filter(|m| m.on.includes(workload)) {
            let sides =
                Side::read(a, workload, metric.name).zip(Side::read(b, workload, metric.name));
            let Some((sa, sb)) = sides else {
                println!(
                    "{workload:<17} {:<22} {:>69}",
                    metric.name,
                    Verdict::Missing.name()
                );
                clean = false;
                continue;
            };
            let verdict = judge(metric, sa, sb);
            clean &= verdict != Verdict::Breach;
            let change = if sa.value == 0.0 {
                0.0
            } else {
                (sb.value - sa.value) / sa.value.abs()
            };
            let bound = match metric.rule {
                Rule::Exact => "exact".to_string(),
                Rule::Within(b) | Rule::WithinOrFloor(b, _) => format!("{:.0}%", b * 100.0),
            };
            println!(
                "{workload:<17} {:<22} {:>16.6} {:>16.6} {:>+8.2}% {:>7.2}% {bound:>8}  {}",
                metric.name,
                sa.value,
                sb.value,
                change * 100.0,
                sa.spread().max(sb.spread()) * 100.0,
                verdict.name()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn side(value: f64, min: f64, max: f64) -> Side {
        Side { value, min, max }
    }

    #[test]
    fn timing_metrics_follow_direction_and_bound() {
        let wall = metric("wall_s");
        let a = side(1.00, 0.99, 1.01);
        assert_eq!(judge(wall, a, side(1.05, 1.04, 1.06)), Verdict::Ok);
        assert_eq!(judge(wall, a, side(1.30, 1.29, 1.31)), Verdict::Breach);
        assert_eq!(judge(wall, a, side(0.90, 0.89, 0.91)), Verdict::Ok);
        assert_eq!(judge(wall, a, side(1.02, 0.85, 1.25)), Verdict::Unresolved);
        let noisy = side(1.00, 0.80, 1.20);
        assert_eq!(
            judge(wall, noisy, side(0.70, 0.65, 0.75)),
            Verdict::Improved
        );
        let rate = metric("jobs_per_s");
        assert_eq!(
            judge(rate, side(100.0, 99.0, 101.0), side(70.0, 69.0, 71.0)),
            Verdict::Breach
        );
        assert_eq!(
            judge(rate, side(100.0, 99.0, 101.0), side(120.0, 119.0, 121.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn counts_must_repeat_and_setup_has_a_floor() {
        let steps = metric("sim_steps");
        assert_eq!(
            judge(steps, side(737.0, 737.0, 737.0), side(737.0, 737.0, 737.0)),
            Verdict::Same
        );
        assert_eq!(
            judge(steps, side(737.0, 737.0, 737.0), side(738.0, 738.0, 738.0)),
            Verdict::Breach
        );
        assert_eq!(
            judge(steps, side(737.0, 737.0, 737.0), side(700.0, 700.0, 700.0)),
            Verdict::Improved
        );
        let setup = metric("setup_s");
        assert_eq!(
            judge(setup, side(0.001, 0.001, 0.001), side(0.004, 0.004, 0.004)),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, side(0.100, 0.100, 0.100), side(0.140, 0.140, 0.140)),
            Verdict::Breach
        );
    }
}
