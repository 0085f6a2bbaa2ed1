//! Turns the spans and counts of one traced repetition into the per-layer
//! metrics of `spec::LAYERS`.
//!
//! A metric named `<span>.s` is the summed duration of the spans of that
//! name; a metric with the name of a count is that count. The rest are
//! ratios of those, each written out below with its base.

use crate::span::Span;
use crate::spec::LAYERS;
use crate::workloads::percentile;
use std::collections::BTreeMap;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `setup` holds the spans of set-up, which happens once, before the
/// repetitions; only input generation is read from it.
pub fn layer_metrics(
    setup: &[&Span],
    rep: &[&Span],
    counts: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    // An empty `f64` sum is -0.0; adding 0.0 makes an absent layer read 0.
    let secs = |name: &str| -> f64 {
        rep.iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .sum::<f64>()
            + 0.0
    };
    let count = |name: &str| -> f64 { counts.get(name).copied().unwrap_or(0.0) };
    let micros = |name: &str| -> Vec<f64> {
        rep.iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e6)
            .collect()
    };

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for layer in &LAYERS {
        let value = match layer.name.strip_suffix(".s") {
            Some(span) => secs(span),
            None => count(layer.name),
        };
        out.insert(layer.name, value);
    }
    let mut set = |name: &'static str, value: f64| {
        assert!(
            out.insert(name, value).is_some(),
            "{name} is not a layer metric"
        );
    };

    set(
        "workloads.generate.s",
        setup
            .iter()
            .filter(|s| s.name == "workloads.generate")
            .map(|s| s.secs())
            .sum::<f64>()
            + 0.0,
    );
    // Share of `execute` the layer walk does not account for.
    let (execute, walk) = (secs("scenario.execute"), secs("layers"));
    if execute > 0.0 && walk > 0.0 {
        set(
            "scenario.execute.unattributed_frac",
            (execute - walk) / execute,
        );
    }

    let run = secs("engine.run");
    let node_steps = count("engine.run.node_steps");
    let busy = count("engine.run.busy_node_steps");
    set("engine.run.active_frac", ratio(busy, node_steps));
    set("engine.run.ns_per_node_step", ratio(run * 1e9, node_steps));
    set("engine.run.ns_per_busy_node_step", ratio(run * 1e9, busy));
    set(
        "engine.run.ns_per_message",
        ratio(run * 1e9, count("engine.run.messages")),
    );
    // Speed-ups are sequential time over the other executor's time on the
    // same instance; above 1 the other executor wins.
    set("engine.compress.ratio", ratio(run, secs("engine.compress")));
    set(
        "engine.par_static.speedup",
        ratio(run, secs("engine.par_static")),
    );
    set(
        "engine.par_steal.speedup",
        ratio(run, secs("engine.par_steal")),
    );
    set(
        "engine.rebalance.ratio",
        ratio(secs("engine.par_steal_norebal"), secs("engine.par_steal")),
    );
    let untraced = secs("engine.run_untraced");
    set("engine.trace_full.ratio", ratio(run, untraced));
    set(
        "fault.overhead.ratio",
        ratio(untraced, secs("engine.run_faultfree")),
    );

    let trace_mb = count("tracefile.bytes") / 1e6;
    set(
        "tracefile.encode_mb_per_s",
        ratio(trace_mb, secs("tracefile.to_bytes")),
    );
    set(
        "tracefile.decode_mb_per_s",
        ratio(trace_mb, secs("tracefile.from_bytes")),
    );
    set(
        "oracle.check.events_per_s",
        ratio(count("tracefile.events"), secs("oracle.check")),
    );
    let plain = secs("checkpoint.plain_run");
    if plain > 0.0 {
        set("checkpoint.overhead.s", secs("checkpoint.run") - plain);
    }

    set(
        "topology.peer.ns",
        ratio(secs("topology.peer") * 1e9, count("topology.peer.calls")),
    );
    let fabric_runs =
        secs("fabric.torus.run") + secs("fabric.hier.run") + secs("fabric.clique.run");
    set(
        "fabric.run.ns_per_node_step",
        ratio(fabric_runs * 1e9, count("fabric.run.node_steps")),
    );
    set(
        "fabric.par.speedup",
        ratio(secs("fabric.torus.run"), secs("fabric.par")),
    );
    set(
        "opt.share",
        ratio(secs("opt.offline_optimum"), secs("compete.measure")),
    );

    for (op, p50, p99) in [
        (
            "service.submit",
            "service.submit.us_p50",
            Some("service.submit.us_p99"),
        ),
        (
            "service.wait",
            "service.wait.us_p50",
            Some("service.wait.us_p99"),
        ),
        (
            "service.try_submit",
            "service.try_submit.us_p50",
            Some("service.try_submit.us_p99"),
        ),
        ("service.advance_to", "service.advance_to.us_p50", None),
    ] {
        let mut sample = micros(op);
        set(p50, percentile(&mut sample, 0.50));
        if let Some(p99) = p99 {
            set(p99, percentile(&mut sample, 0.99));
        }
    }
    let session = secs("service.session");
    set(
        "service.us_per_epoch",
        ratio(session * 1e6, count("service.epochs")),
    );
    // A service session over the bare engine on the same arrivals.
    set(
        "service.overhead.ratio",
        ratio(secs("service.ref_session"), secs("service.engine_ref")),
    );
    out
}
