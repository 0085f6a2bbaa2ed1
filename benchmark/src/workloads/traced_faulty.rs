//! `traced-faulty`: the same ring engine used the other way round — a
//! dense fault plan, full tracing, then everything that consumes a trace
//! or a snapshot: `RINGTRACE` encode and decode, the oracle replay, a
//! checkpointed re-run and a resume from the middle `RINGSNAP`.

use super::plans::{ring_cell, PlanInput, PlanWorkload};
use super::{fold_digest, Outcome, Prepared, Rng, Size};
use crate::span::Recorder;
use ring_scenario::parse_plan;
use ring_sched::unit::{resume_unit, run_unit_checkpointed};
use ring_sched::UnitConfig;
use ring_sim::{FaultPlan, Instance, Snapshot, TraceFile};
use ring_workloads::random;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Entries in the generated fault plan, eight of each kind.
/// `FaultPlan::random` emits at most five, and none at all for some seeds,
/// so the plan is written out in the `drop:/delay=/cap=/stall:/slow=`
/// grammar instead.
const FAULTS: u64 = 40;
const CHECKPOINT_EVERY: u64 = 256;
const LOADS_SEED: u64 = crate::spec::DEFAULT_SEED;

struct TracedFaulty {
    plans: PlanWorkload,
    m: usize,
    fault_spec: String,
    faults: FaultPlan,
    instance: Instance,
}

fn fault_spec(seed: u64, m: u64, horizon: u64) -> String {
    let mut rng = Rng::new(seed, 3);
    let entries: Vec<String> = (0..FAULTS)
        .map(|i| {
            let node = rng.range(0, m - 1);
            let from = rng.range(0, horizon - 1);
            let until = from + rng.range(8, 71);
            let dir = if rng.next_u64() % 2 == 0 { "cw" } else { "ccw" };
            match i % 5 {
                0 => format!("drop:{node}{dir}@{from}..{until}"),
                1 => format!("delay={}:{node}{dir}@{from}..{until}", rng.range(1, 4)),
                2 => format!("cap={}:{node}{dir}@{from}..{until}", rng.range(1, 4)),
                3 => format!("stall:{node}@{from}..{until}"),
                _ => format!("slow={}:{node}@{from}..{until}", rng.range(2, 4)),
            }
        })
        .collect();
    entries.join(";")
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Box<dyn Prepared>, String> {
    let m: usize = size.pick(512, 64);
    let max: u64 = size.pick(4_800, 400);
    // The seed places the faults. The loads keep one seed: the makespan of
    // C2 on 512 uniform loads moves by three percent from draw to draw,
    // which would make `sim_steps` at different seeds incomparable.
    let (fault_spec, instance) = rec.span("workloads.generate", |_| {
        (
            fault_spec(seed, m as u64, max / 4),
            random::uniform(m, max, LOADS_SEED),
        )
    });
    let text = format!(
        "[scenario]\nname = traced-faulty\n\n[topology]\nm = {m}\n\n[workload]\nshape = uniform\n\
         n = {max}\nseed = {LOADS_SEED}\n\n[algorithm]\nname = c2\n\n[faults]\nplan = {fault_spec}\n\n\
         [trace]\nlevel = full\n"
    );
    let faults = parse_plan(&text)
        .map_err(|e| e.to_string())?
        .faults
        .ok_or("the generated fault plan is empty")?;
    Ok(Box::new(TracedFaulty {
        plans: PlanWorkload::new(vec![PlanInput {
            text,
            rows: vec![(instance.total_work(), m as u64)],
            golden: None,
        }])?,
        m,
        fault_spec,
        faults,
        instance,
    }))
}

impl TracedFaulty {
    /// Everything downstream of `execute`: returns the words that go into
    /// the pass digest.
    fn consume(
        &self,
        trace: &TraceFile,
        makespan: u64,
        out: &mut Outcome,
        rec: &mut Recorder,
    ) -> Vec<u64> {
        let entries = self.faults.link_faults().len() + self.faults.proc_faults().len();
        out.check(entries >= 32, || {
            format!("fault plan has {entries} entries")
        });
        let metrics = &trace.metrics;
        out.check(
            metrics.messages_dropped > 0
                && metrics.messages_delayed > 0
                && metrics.messages_retried > 0,
            || "the fault plan never dropped, delayed or retried a message".to_string(),
        );

        let bytes = rec.span("tracefile.to_bytes", |_| trace.to_bytes());
        rec.count("tracefile.events", trace.events.len() as f64);
        rec.count("tracefile.bytes", bytes.len() as f64);
        out.scoped.push((
            "trace_bytes_per_event",
            bytes.len() as f64 / trace.events.len().max(1) as f64,
        ));
        match rec.span("tracefile.from_bytes", |_| TraceFile::from_bytes(&bytes)) {
            Err(e) => out.check(false, || format!("RINGTRACE decode: {e}")),
            Ok(decoded) => {
                let violations = rec.span("oracle.check", |_| decoded.check());
                rec.count("oracle.violations", violations.len() as f64);
                out.check(violations.is_empty(), || {
                    format!(
                        "oracle: {} violations, first {:?}",
                        violations.len(),
                        violations[0]
                    )
                });
                out.check(&decoded == trace, || {
                    "RINGTRACE round trip changed the trace".to_string()
                });
            }
        }

        // Checkpointing is measured on the untraced run, so its cost is not
        // the cost of copying a growing trace into every snapshot.
        let cfg = UnitConfig::c2();
        let snapshots: Arc<Mutex<Vec<Snapshot>>> = Arc::default();
        let sink = Arc::clone(&snapshots);
        let rerun = rec.span("checkpoint.run", |_| {
            run_unit_checkpointed(
                &self.instance,
                &cfg,
                Some(&self.faults),
                None,
                CHECKPOINT_EVERY,
                "ringbench",
                move |snap| {
                    sink.lock()
                        .expect("no panic holds this lock")
                        .push(snap.clone());
                    Ok(())
                },
            )
        });
        out.check(
            matches!(&rerun, Ok(run) if run.makespan == makespan),
            || "the checkpointed re-run changed the makespan".to_string(),
        );
        let snapshots = snapshots.lock().expect("no panic holds this lock");
        let encoded: Vec<Vec<u8>> = rec.span("checkpoint.to_bytes", |_| {
            snapshots.iter().map(Snapshot::to_bytes).collect()
        });
        let snap_bytes: usize = encoded.iter().map(Vec::len).sum();
        rec.count("checkpoint.count", encoded.len() as f64);
        rec.count("checkpoint.bytes", snap_bytes as f64);
        out.check(!encoded.is_empty(), || "no snapshot was taken".to_string());
        if let Some(middle) = encoded.get(encoded.len() / 2) {
            let resumed = rec
                .span("checkpoint.from_bytes", |_| Snapshot::from_bytes(middle))
                .map_err(|e| e.to_string())
                .and_then(|snap| {
                    rec.span("checkpoint.resume", |_| resume_unit(&cfg, &snap, None))
                        .map_err(|e| e.to_string())
                });
            out.check(
                matches!(&resumed, Ok(run) if run.makespan == makespan),
                || {
                    format!(
                        "resume from the middle snapshot: {:?}",
                        resumed.map(|r| r.makespan)
                    )
                },
            );
        }
        vec![
            trace.digest(),
            bytes.len() as u64,
            encoded.len() as u64,
            snap_bytes as u64,
        ]
    }
}

impl Prepared for TracedFaulty {
    fn pass(&mut self, rec: &mut Recorder) -> Outcome {
        let start = Instant::now();
        let (mut out, reports) = self.plans.run(rec);
        let row = reports.first().and_then(|r| r.rows.first());
        match row.and_then(|row| row.trace.as_ref().map(|t| (t, row.makespan))) {
            None => out.check(false, || "execute returned no trace".to_string()),
            Some((trace, makespan)) => {
                let words = self.consume(trace, makespan, &mut out, rec);
                out.digest = fold_digest(std::iter::once(out.digest).chain(words));
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out
    }

    fn layers(&mut self, rec: &mut Recorder) -> Vec<String> {
        let mut failures = self.plans.layers(rec);
        let text = &self.plans.inputs[0].text;
        let cells = rec.span("cells", |rec| -> Result<Vec<Vec<u64>>, String> {
            rec.span("fault.plan_parse", |_| {
                FaultPlan::parse(&self.fault_spec, self.m)
            })?;
            // The bases of the ratios: the faulty run untraced (also what a
            // checkpointed run is compared with), and the fault-free run.
            let untraced = rec.span("checkpoint.plain_run", |rec| {
                ring_cell(
                    text,
                    |plan| plan.trace_full = false,
                    "engine.run_untraced",
                    rec,
                )
            })?;
            let fault_free = ring_cell(
                text,
                |plan| {
                    plan.trace_full = false;
                    plan.faults = None;
                },
                "engine.run_faultfree",
                rec,
            )?;
            Ok(vec![untraced, fault_free])
        });
        match cells {
            Err(e) => failures.push(format!("traced-faulty cells: {e}")),
            Ok(cells) => {
                if Some(&cells[0]) != self.plans.seen.first() {
                    failures.push("tracing changed the makespan".to_string());
                }
            }
        }
        failures
    }
}
