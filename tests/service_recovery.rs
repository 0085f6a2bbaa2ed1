//! Crash-recovery drill for the online service: a scripted run that is
//! drained mid-flight, snapshotted to disk, restarted, and resumed must
//! produce a completion log bit-identical to the uninterrupted run —
//! every terminal decision, boundary, and sojourn, in the same order.

use ring_service::{LogEntry, Service, ServiceConfig};
use ring_sim::Snapshot;
use std::time::Duration;

/// The scripted single-handle scenario: `(virtual time, processor, jobs)`.
/// Total work (434 jobs on an 8-ring) far outlasts the drain point, and
/// the queue cap sheds the 200-job burst, so the log mixes completions
/// and sheds.
fn script() -> Vec<(u64, usize, u64)> {
    vec![
        (0, 0, 120),
        (5, 3, 40),
        (30, 6, 200),
        (70, 1, 10),
        (100, 0, 64),
    ]
}

/// The step the interrupted run drains at: past every submission tag, far
/// before the work completes.
const DRAIN_AT: u64 = 112;

fn cfg() -> ServiceConfig {
    ServiceConfig::new(8).with_epoch(16).with_queue_cap(250)
}

/// Runs the script to completion without interruption.
fn uninterrupted() -> Vec<LogEntry> {
    let (service, handles) = Service::start(cfg(), 1);
    let h = &handles[0];
    for (t, p, c) in script() {
        h.advance_to(t);
        h.try_submit(p, c);
    }
    h.close();
    service.await_idle();
    service.completion_log()
}

/// Runs the script, drains at [`DRAIN_AT`], round-trips the snapshot
/// through a file, resumes, and returns
/// `(pre-drain log, outstanding at drain, resumed log)`.
fn interrupted(resume_cfg: ServiceConfig) -> (Vec<LogEntry>, u64, Vec<LogEntry>) {
    let (service, handles) = Service::start(cfg(), 1);
    let h = &handles[0];
    for (t, p, c) in script() {
        h.advance_to(t);
        h.try_submit(p, c);
    }
    h.advance_to(DRAIN_AT);
    // Every decision up to the drain point lands once the loop catches up;
    // the boundary past DRAIN_AT cannot process while the handle is open.
    while service.report().now < DRAIN_AT {
        std::thread::sleep(Duration::from_millis(1));
    }
    let pre_log = service.completion_log();
    let (report, snap) = service.drain();
    assert_eq!(report.now, DRAIN_AT);
    assert_eq!(report.shed_draining, 0, "nothing was queued at the drain");
    assert!(report.outstanding > 0, "the drill must interrupt live work");
    drop(handles);

    let path = std::env::temp_dir().join(format!(
        "ringsvc-recovery-{}-{}.ringsnap",
        std::process::id(),
        resume_cfg.executor.shards_for().map_or(0, |s| s)
    ));
    snap.write_to_file(&path).expect("write snapshot");
    let restored_snap = Snapshot::read_from_file(&path).expect("read snapshot");
    std::fs::remove_file(&path).ok();

    let (restored, handles2) =
        Service::resume(resume_cfg, &restored_snap, 0).expect("resume from drain snapshot");
    assert!(handles2.is_empty());
    restored.await_idle();
    (pre_log, report.outstanding, restored.completion_log())
}

#[test]
fn drained_and_resumed_log_is_bit_identical_to_the_uninterrupted_run() {
    let full = uninterrupted();
    let (pre, outstanding, post) = interrupted(cfg());

    let post_jobs: u64 = post.iter().map(|e| e.jobs).sum();
    assert_eq!(
        post_jobs, outstanding,
        "the resumed run completes exactly the detached work"
    );

    let mut stitched = pre.clone();
    stitched.extend(post.iter().copied());
    assert_eq!(
        stitched, full,
        "pre-drain log + resumed log must equal the uninterrupted log entry-for-entry"
    );
    assert_eq!(
        ring_service::log_digest(&stitched),
        ring_service::log_digest(&full)
    );
}

#[test]
fn recovery_preserves_the_competitive_ratio() {
    // A drained-and-resumed run is the same *online algorithm* as the
    // uninterrupted one: replaying both logs through the competitive
    // harness must produce the same ratio against the same revealed
    // instance — recovery may not make the service look better or worse
    // than it was.
    let full = uninterrupted();
    let (pre, _, post) = interrupted(cfg());
    let mut stitched = pre;
    stitched.extend(post.iter().copied());

    let baseline = ring_compete::ratio_from_log(8, &full);
    let recovered = ring_compete::ratio_from_log(8, &stitched);
    assert_eq!(
        baseline, recovered,
        "recovery changed the measured competitive ratio"
    );
    // And the measurement itself is meaningful: real completed work,
    // online cost dominating a sound denominator.
    assert!(baseline.completed_jobs > 0);
    assert!(baseline.online >= baseline.denominator);
    assert!(baseline.ratio >= 1.0);
}

#[test]
fn recovery_is_executor_independent() {
    let (pre_seq, _, post_seq) = interrupted(cfg());
    let (pre_par, _, post_par) = interrupted(cfg().with_shards(3));
    assert_eq!(pre_seq, pre_par);
    assert_eq!(
        post_seq, post_par,
        "resuming on the arc-parallel executor must not change the log"
    );
}
