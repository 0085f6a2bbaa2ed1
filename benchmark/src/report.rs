//! The two spellings of a workload's result: the one-line object of the
//! driver protocol, and the fuller object `all` collects and `compare`
//! reads.

use crate::json::{self, Value};
use crate::runner::{RunResult, Stat};
use crate::spec::{self, END_TO_END, LAYERS};

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .expect("every reported metric is in spec.rs")
}

fn metric(name: &str, stat: &Stat, spread: bool) -> (String, Value) {
    let mut fields = vec![
        ("value".to_string(), Value::Num(stat.value)),
        ("unit".to_string(), Value::Str(unit_of(name).to_string())),
    ];
    if spread {
        fields.push(("min".to_string(), Value::Num(stat.min)));
        fields.push(("max".to_string(), Value::Num(stat.max)));
        fields.push(("n".to_string(), Value::Num(stat.n as f64)));
    }
    (name.to_string(), Value::Obj(fields))
}

fn verdict(result: &RunResult) -> Vec<(String, Value)> {
    vec![
        ("correct".to_string(), Value::Bool(result.correct())),
        (
            "attempted".to_string(),
            Value::Num(result.attempted.max(1) as f64),
        ),
        (
            "failed".to_string(),
            Value::Num(result.failures.len() as f64),
        ),
    ]
}

/// The driver protocol's last line: `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end metrics every workload has after an untraced
/// run, every per-layer metric after a traced one.
pub fn contract_line(result: &RunResult, traced: bool) -> String {
    let metrics: Vec<(String, Value)> = if traced {
        LAYERS
            .iter()
            .map(|l| metric(l.name, &result.layers[l.name], false))
            .collect()
    } else {
        spec::universal()
            .map(|m| metric(m.name, &result.metrics[m.name], false))
            .collect()
    };
    let mut fields = verdict(result);
    fields.push(("metrics".to_string(), Value::Obj(metrics)));
    let mut line = String::new();
    Value::Obj(fields).write(&mut line);
    line
}

/// Everything the run measured, with spreads and the failure texts.
pub fn full(result: &RunResult) -> Value {
    let mut fields = vec![("workload".to_string(), Value::Str(result.workload.clone()))];
    fields.extend(verdict(result));
    fields.push((
        "failures".to_string(),
        Value::Arr(result.failures.iter().cloned().map(Value::Str).collect()),
    ));
    fields.push((
        "metrics".to_string(),
        Value::Obj(
            END_TO_END
                .iter()
                .filter_map(|m| result.metrics.get(m.name).map(|s| metric(m.name, s, true)))
                .collect(),
        ),
    ));
    fields.push((
        "layers".to_string(),
        Value::Obj(
            LAYERS
                .iter()
                .filter_map(|l| result.layers.get(l.name).map(|s| metric(l.name, s, true)))
                .collect(),
        ),
    ));
    if let Some(wall) = &result.traced_wall_s {
        fields.push(("traced_wall_s".to_string(), Value::Num(wall.value)));
    }
    Value::Obj(fields)
}

/// One line per metric: name, value, unit and, where there is one, the
/// spread of the samples behind the value.
pub fn table(workload: &Value) -> String {
    let mut out = String::new();
    let name = workload
        .get("workload")
        .and_then(Value::as_str)
        .unwrap_or("?");
    for section in ["metrics", "layers"] {
        for (metric, fields) in workload.get(section).and_then(Value::as_obj).unwrap_or(&[]) {
            let num = |key: &str| fields.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            let unit = fields.get("unit").and_then(Value::as_str).unwrap_or("");
            let mut value = String::new();
            json::write_num(&mut value, num("value"));
            out.push_str(&format!("{name:<17} {metric:<38} {value:>22} {unit:<6}"));
            if num("n") > 1.0 {
                out.push_str(&format!(
                    " [{:.6} .. {:.6}, n={}]",
                    num("min"),
                    num("max"),
                    num("n")
                ));
            }
            out.push('\n');
        }
    }
    if let Some(overhead) = workload.get("trace_overhead_s").and_then(Value::as_f64) {
        out.push_str(&format!(
            "{name:<17} {:<38} {overhead:>22.6} s      (traced pass - wall_s)\n",
            "trace_overhead_s"
        ));
    }
    for failure in workload
        .get("failures")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        out.push_str(&format!(
            "{name:<17} FAILED: {}\n",
            failure.as_str().unwrap_or("?")
        ));
    }
    out
}
