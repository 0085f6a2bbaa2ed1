//! The ring engine's cost on the stream workload (per-unit vs coalesced
//! messages, the drain shape) and the price of observability. `Engine::run` is the ring's one executor
//! (`par_run` is the same loop), so there is no executor axis here.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ring_sched::unit::{run_unit, UnitConfig};
use ring_sim::stream::{stream_engine, Representation, StreamSpec};
use ring_sim::{EngineConfig, Instance};
use std::hint::black_box;

/// A concentrated load: one source, 16·m unit jobs — the workload shape
/// with the longest wavefronts (bucket travels Θ(√n) hops).
fn instance(m: usize) -> Instance {
    Instance::concentrated(m, 0, (m as u64) * 16)
}

fn sequential_run(c: &mut Criterion) {
    for &m in &[256usize, 1024, 4096] {
        let inst = instance(m);
        let cfg = UnitConfig::c1();
        let mut group = c.benchmark_group(format!("engine/m={m}"));
        group.throughput(Throughput::Elements(m as u64));
        group.bench_function("run", |b| {
            b.iter(|| run_unit(black_box(&inst), &cfg).unwrap().makespan)
        });
        group.finish();
    }
}

fn coalesced_representation(c: &mut Criterion) {
    // The count-coalesced message axis: the same stream workload with one
    // arena entry per unit job versus one run per link per step, plus the
    // drain shape, whose sink parks while it drains. The `ringsched bench`
    // subcommand tracks the same ratios as a JSON trajectory baseline
    // (BENCH_engine.json).
    for &m in &[256usize, 1024] {
        let spread = StreamSpec::spread(m, 48 * m as u64);
        let drain = StreamSpec::drain(m, 16 * m as u64);
        // Equivalence guard: never benchmark variants that disagree.
        let base = stream_engine(&spread, Representation::PerUnit, EngineConfig::default())
            .run()
            .unwrap();
        let coal = stream_engine(&spread, Representation::Coalesced, EngineConfig::default())
            .run()
            .unwrap();
        assert_eq!(base, coal, "m={m} representations diverged");

        let mut group = c.benchmark_group(format!("engine/stream/m={m}"));
        group.throughput(Throughput::Elements(spread.total_work()));
        for (name, repr) in [
            ("per_unit", Representation::PerUnit),
            ("coalesced", Representation::Coalesced),
        ] {
            group.bench_function(name, |b| {
                b.iter(|| {
                    stream_engine(black_box(&spread), repr, EngineConfig::default())
                        .run()
                        .unwrap()
                        .makespan
                })
            });
        }
        group.bench_function("drain", |b| {
            b.iter(|| {
                stream_engine(
                    black_box(&drain),
                    Representation::Coalesced,
                    EngineConfig::default(),
                )
                .run()
                .unwrap()
                .makespan
            })
        });
        group.finish();
    }
}

fn observe_overhead(c: &mut Criterion) {
    // The observability series are opt-in; this pins down what turning
    // them on costs relative to a bare run.
    let inst = instance(1024);
    let mut group = c.benchmark_group("engine/observe");
    group.bench_function("off", |b| {
        b.iter(|| {
            run_unit(black_box(&inst), &UnitConfig::c1())
                .unwrap()
                .makespan
        })
    });
    group.bench_function("on", |b| {
        b.iter(|| {
            run_unit(black_box(&inst), &UnitConfig::c1().with_observe())
                .unwrap()
                .makespan
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sequential_run, coalesced_representation, observe_overhead
}
criterion_main!(benches);
