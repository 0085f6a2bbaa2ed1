//! The two service workloads: one `ring_service::Service`, used two ways.
//!
//! `service-steady` is a closed loop: one client submits a ticket, waits
//! for it to complete, thinks, and submits the next, with admission
//! unbounded, so nothing is shed and each ticket has a wall-clock round
//! trip. `service-overload` is an open loop on virtual time: the client
//! replays a script of `advance_to` + `try_submit` against a bounded queue
//! and an SLO horizon and claims the outcomes at the end; the offered load
//! is set so that about half the jobs are shed, by both rules.
//!
//! Load comes from the calling thread; the service adds its one epoch-loop
//! thread. The executor is forced to `Sequential`, since `Auto` reads the
//! core count.

use super::{fold_digest, Outcome, Prepared, Rng, Size};
use crate::span::Recorder;
use ring_sched::dynamic::{run_dynamic, Arrival, DynamicInstance};
use ring_service::{
    revealed_script, Admission, ExecutorMode, LogEntry, Resolution, Service, ServiceConfig,
};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Overload,
}

/// One scripted submission. `when` is the think time after the ticket for
/// the closed loop, and the virtual submission time for the open loop.
struct Op {
    processor: usize,
    count: u64,
    when: u64,
}

struct ServiceLoad {
    kind: Kind,
    cfg: ServiceConfig,
    script: Vec<Op>,
    /// How many submissions the engine-only comparison replays.
    reference_ops: usize,
}

const EPOCH: u64 = 32;

pub fn setup(
    kind: Kind,
    seed: u64,
    size: Size,
    rec: &mut Recorder,
) -> Result<Box<dyn Prepared>, String> {
    let m: usize = size.pick(1024, 128);
    let reference_ops = match kind {
        Kind::Steady => size.pick(300, 20),
        Kind::Overload => size.pick(400, 100),
    };
    let mut cfg = ServiceConfig::new(m)
        .with_epoch(EPOCH)
        .with_executor(ExecutorMode::Sequential);
    let script = rec.span("workloads.generate", |_| {
        let mut rng = Rng::new(seed, 6);
        match kind {
            // 2000 tickets put 20 samples beyond p99. Tickets of up to 4m
            // jobs keep the engine span of a ticket above the two thread
            // hand-offs around it, whose cost on a two-core VM doubles from
            // one run to the next with where the scheduler puts the threads.
            Kind::Steady => (0..size.pick(2000, 300))
                .map(|_| Op {
                    processor: rng.range(0, m as u64 - 1) as usize,
                    count: rng.range(1, 4 * m as u64),
                    when: rng.range(1, 8),
                })
                .collect(),
            Kind::Overload => {
                // Tickets arrive every 1.5 steps on average with up to 200
                // jobs each, about twice what the ring clears.
                let mut now = 0;
                (0..size.pick(24_000, 1_500))
                    .map(|_| {
                        now += rng.range(1, 2);
                        Op {
                            processor: rng.range(0, m as u64 - 1) as usize,
                            count: rng.range(1, 200),
                            when: now,
                        }
                    })
                    .collect::<Vec<Op>>()
            }
        }
    });
    if kind == Kind::Overload {
        cfg = cfg.with_queue_cap(8 * m as u64).with_slo_horizon(13);
    }
    // Set-up includes bringing a service up, as a caller would.
    rec.span("service.start", |_| drop(Service::start(cfg.clone(), 1)));
    Ok(Box::new(ServiceLoad {
        kind,
        cfg,
        script,
        reference_ops,
    }))
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(sample: &mut [f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

impl ServiceLoad {
    /// One service lifetime over the first `ops` submissions of the script:
    /// start, the client loop, idle, report. Returns the outcome and the
    /// completion log when `keep_log` asks for it.
    fn session(&self, ops: usize, keep_log: bool, rec: &mut Recorder) -> (Outcome, Vec<LogEntry>) {
        let script = &self.script[..ops];
        let mut out = Outcome::default();
        let (service, handles) = rec.span("service.start", |_| Service::start(self.cfg.clone(), 1));
        let client = &handles[0];
        let mut rtt_us = Vec::with_capacity(script.len());
        let mut unresolved = 0u64;
        let start = Instant::now();
        let report = rec.span("service.session", |rec| {
            match self.kind {
                Kind::Steady => {
                    for op in script {
                        let sent = Instant::now();
                        let (ticket, admission) =
                            rec.span("service.submit", |_| client.submit(op.processor, op.count));
                        let resolution = rec.span("service.wait", |_| client.wait(ticket));
                        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        if !matches!(admission, Admission::Admitted { .. })
                            || !matches!(resolution, Resolution::Completed { .. })
                        {
                            unresolved += 1;
                        }
                        rec.span("service.advance_to", |_| {
                            client.advance_to(client.now() + op.when)
                        });
                    }
                }
                Kind::Overload => {
                    let mut tickets = Vec::with_capacity(script.len());
                    for op in script {
                        rec.span("service.advance_to", |_| client.advance_to(op.when));
                        tickets.push(rec.span("service.try_submit", |_| {
                            client.try_submit(op.processor, op.count)
                        }));
                    }
                    rec.span("service.claim", |_| {
                        for ticket in tickets {
                            if matches!(client.wait(ticket), Resolution::Detached { .. }) {
                                unresolved += 1;
                            }
                        }
                    });
                }
            }
            client.close();
            rec.span("service.await_idle", |_| service.await_idle());
            rec.span("service.report", |_| {
                let report = service.report();
                std::hint::black_box(report.to_json());
                out.digest = fold_digest([service.log_digest(), report.now]);
                report
            })
        });
        out.wall_s = start.elapsed().as_secs_f64();

        let shed = report.shed_jobs();
        out.jobs = report.completed_jobs;
        out.node_steps = report.engine_rounds * report.m as u64;
        out.sim_steps = report.now;
        out.check(unresolved == 0, || {
            format!("{unresolved} tickets were refused or detached")
        });
        out.check(
            report.completed_jobs + shed == report.submitted_jobs && report.outstanding == 0,
            || {
                format!(
                    "{} completed + {shed} shed != {} submitted",
                    report.completed_jobs, report.submitted_jobs
                )
            },
        );
        let shed_frac = shed as f64 / report.submitted_jobs.max(1) as f64;
        match self.kind {
            Kind::Steady => {
                out.check(shed == 0, || format!("the steady service shed {shed} jobs"));
                out.scoped
                    .push(("ticket_rtt_p50_us", percentile(&mut rtt_us, 0.50)));
                out.scoped
                    .push(("ticket_rtt_p99_us", percentile(&mut rtt_us, 0.99)));
            }
            Kind::Overload => out.check(
                ops < self.script.len() || (report.shed_queue_overflow > 0 && report.shed_slo > 0),
                || "overload did not shed by both the queue bound and the SLO".to_string(),
            ),
        }
        out.scoped
            .push(("sojourn_p99_steps", report.latency.p99 as f64));
        out.scoped.push(("shed_frac", shed_frac));
        rec.count("service.epochs", (report.now / report.epoch) as f64);
        rec.count("service.generations", report.generations as f64);
        rec.count(
            "service.shed.queue_overflow",
            report.shed_queue_overflow as f64,
        );
        rec.count("service.shed.slo_exceeded", report.shed_slo as f64);
        // Read after the clock stopped: the log is the cells' input, not
        // part of what a caller waits for.
        let log = if keep_log {
            service.completion_log()
        } else {
            Vec::new()
        };
        (out, log)
    }
}

impl Prepared for ServiceLoad {
    fn pass(&mut self, rec: &mut Recorder) -> Outcome {
        self.session(self.script.len(), false, rec).0
    }

    fn layers(&mut self, rec: &mut Recorder) -> Vec<String> {
        let mut failures = Vec::new();
        let m = self.cfg.m;
        rec.span("cells", |rec| {
            // The service against the bare engine on the same arrivals.
            // `run_dynamic` steps every node through every virtual step,
            // idle ones too, and takes a minute on the whole script; both
            // sides therefore run a prefix of it.
            let (reference, log) = rec.opaque("service.ref_session", |rec| {
                self.session(self.reference_ops, true, rec)
            });
            failures.extend(reference.failures);
            let arrivals: Vec<Arrival> = revealed_script(&log)
                .into_iter()
                .map(|(time, processor, count)| Arrival {
                    time,
                    processor,
                    count,
                })
                .collect();
            let instance = DynamicInstance::new(m, arrivals);
            if let Err(e) = rec.span("service.engine_ref", |_| {
                run_dynamic(&instance, &self.cfg.unit)
            }) {
                failures.push(format!("engine reference run: {e}"));
            }

            // Drain a service mid-flight and resume it from the snapshot.
            // Admission is left open here so the burst is in flight, not shed.
            let open = ServiceConfig {
                queue_cap: u64::MAX,
                slo_horizon: u64::MAX,
                ..self.cfg.clone()
            };
            let (service, handles) = Service::start(open.clone(), 1);
            handles[0].try_submit(0, 64 * m as u64);
            handles[0].advance_to(2 * EPOCH);
            let (_, snapshot) = rec.span("service.drain", |_| service.drain());
            drop(handles);
            let resumed = rec.span("service.resume", |_| {
                Service::resume(open, &snapshot, 0).map(|(restored, _)| {
                    restored.await_idle();
                    restored.report()
                })
            });
            match resumed {
                Ok(report) if report.outstanding == 0 && report.completed_jobs > 0 => {}
                Ok(report) => failures.push(format!(
                    "resumed service left {} jobs outstanding",
                    report.outstanding
                )),
                Err(e) => failures.push(format!("service resume: {e}")),
            }
        });
        failures
    }
}
