//! Runs every workload at `--smoke` size through the real binary and holds
//! the output to the benchmark's own vocabulary: the metric tables of
//! `spec.rs`, `BENCHMARK.json`, and the shape of the recorded spans.

use ringbench::json::{self, Value};
use ringbench::span::{self_times, Span};
use ringbench::spec::{self, Rule, END_TO_END, LAYERS, WORKLOADS};
use ringbench::workloads::repo_root;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn ringbench(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_ringbench"))
        .args(args)
        .output()
        .expect("the ringbench binary runs");
    assert!(
        output.status.success(),
        "ringbench {args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("output is UTF-8")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|item| item.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

fn keys(object: &Value) -> Vec<&str> {
    object
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn manifest() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let manifest = manifest();
    let workloads = manifest.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    assert_eq!(
        manifest.get("run_seconds").and_then(Value::as_f64),
        Some(spec::DEFAULT_SECONDS)
    );
    for (listed, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(listed.get("name").and_then(Value::as_str), Some(name));
        assert_eq!(listed.get("why").and_then(Value::as_str), Some(why));
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is too long"
        );
    }

    let end_to_end = manifest.get("end_to_end").unwrap().as_arr().unwrap();
    let universal: Vec<_> = spec::universal().collect();
    assert_eq!(
        names(manifest.get("end_to_end").unwrap()).len(),
        universal.len()
    );
    for (listed, metric) in end_to_end.iter().zip(universal) {
        let field = |key: &str| listed.get(key).and_then(Value::as_str);
        assert_eq!(field("name"), Some(metric.name));
        assert_eq!(field("unit"), Some(metric.unit), "{}", metric.name);
        let better = if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field("better"), Some(better), "{}", metric.name);
        let bound = listed.get("bound").and_then(Value::as_f64).unwrap();
        match metric.rule {
            // The driver compares medians over seeds, which simulated
            // counts follow; `compare` holds them exact at equal seeds.
            Rule::Exact => assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name),
            Rule::Within(b) | Rule::WithinOrFloor(b, _) => assert_eq!(bound, b, "{}", metric.name),
        }
    }

    let per_layer = manifest.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(per_layer.len(), LAYERS.len());
    for (listed, layer) in per_layer.iter().zip(&LAYERS) {
        let field = |key: &str| listed.get(key).and_then(Value::as_str);
        assert_eq!(field("name"), Some(layer.name));
        assert_eq!(field("unit"), Some(layer.unit), "{}", layer.name);
        let better = if layer.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field("better"), Some(better), "{}", layer.name);
    }
}

fn read_spans(path: &Path) -> Vec<Span> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .map(|line| {
            let v = json::parse(line).expect("a span line parses");
            let num = |key: &str| v.get(key).and_then(Value::as_f64).expect(key) as u64;
            Span {
                id: num("id") as u32,
                parent: v.get("parent").and_then(Value::as_f64).map(|p| p as u32),
                // Names are only compared here, so a leaked copy will do.
                name: Box::leak(
                    v.get("name")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string()
                        .into_boxed_str(),
                ),
                start_ns: num("start_ns"),
                end_ns: num("end_ns"),
                rep: num("rep") as u32,
            }
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_metric_and_well_formed_spans() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let start = Instant::now();
    ringbench(&[
        "all",
        "--smoke",
        "--trace",
        "1",
        "--out",
        out.to_str().unwrap(),
    ]);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed < 20.0, "the smoke run took {elapsed:.1} s");

    let report = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let workloads = report.get("workloads").unwrap();
    assert_eq!(keys(workloads), WORKLOADS.map(|(name, _)| name));
    for (name, _) in WORKLOADS {
        let result = workloads.get(name).unwrap();
        assert_eq!(
            result.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name}: {:?}",
            result.get("failures")
        );
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = result.get("metrics").unwrap();
        for metric in END_TO_END.iter().filter(|m| m.on.includes(name)) {
            let fields = metrics
                .get(metric.name)
                .unwrap_or_else(|| panic!("{name} lacks {}", metric.name));
            assert_eq!(
                fields.get("unit").and_then(Value::as_str),
                Some(metric.unit)
            );
            assert!(fields.get("value").and_then(Value::as_f64).is_some());
        }
        assert_eq!(
            keys(metrics).len(),
            END_TO_END.iter().filter(|m| m.on.includes(name)).count(),
            "{name} reports a metric it should not"
        );
        let layers = result.get("layers").unwrap();
        assert_eq!(keys(layers), LAYERS.map(|l| l.name), "{name}");
        for layer in &LAYERS {
            let fields = layers.get(layer.name).unwrap();
            assert_eq!(fields.get("unit").and_then(Value::as_str), Some(layer.unit));
        }
        assert!(result
            .get("trace_overhead_s")
            .and_then(Value::as_f64)
            .is_some());

        // Spans nest, children stay inside their parents, and self times
        // add up to the root of each tree.
        let path = repo_root().join(format!("benchmark/out/{name}.spans.jsonl"));
        let spans = read_spans(&path);
        assert!(!spans.is_empty(), "{name}: no spans");
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(span.id as usize, i);
            assert!(span.start_ns <= span.end_ns);
            if let Some(p) = span.parent {
                let parent = &spans[p as usize];
                assert!(p < span.id, "{name}: span {i} starts before its parent");
                assert!(
                    parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                    "{name}: span {i} ({}) leaves its parent ({})",
                    span.name,
                    parent.name
                );
                assert_eq!(parent.rep, span.rep);
            }
        }
        let own = self_times(&spans);
        let mut root_of: Vec<usize> = (0..spans.len()).collect();
        for (i, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                root_of[i] = root_of[p as usize];
            }
        }
        for (r, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            let total = (root.end_ns - root.start_ns) as f64;
            let summed: u64 = (0..spans.len())
                .filter(|&i| root_of[i] == r)
                .map(|i| own[i])
                .sum();
            assert!(
                (summed as f64 - total).abs() <= 0.01 * total,
                "{name}: self times under `{}` sum to {summed}, the root lasts {total}",
                root.name
            );
        }
    }

    // The driver protocol: the last line, with exactly the listed metrics.
    let manifest = manifest();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = ringbench(&[
            "--workload",
            "sparse",
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics), names(manifest.get(section).unwrap()));
        for (name, fields) in metrics.as_obj().unwrap() {
            assert_eq!(keys(fields), ["value", "unit"], "{name}");
        }
    }
}
