//! Crash-recovery drill for the checkpoint subsystem.
//!
//! A run is aborted mid-flight (the snapshot sink fails after a few
//! writes, exactly like a full disk or a killed process), recovery picks
//! the newest snapshot *file* off disk, and the resumed run must finish
//! with a `RunReport` bit-identical to the uninterrupted baseline — with
//! the trace-replay oracle accepting the stitched full trace. Damaged
//! snapshots (truncated, bit-flipped, wrong magic, wrong version) must
//! fail closed with a typed [`CheckpointError`], never a panic.

use ring_sched::unit::{resume_unit, run_unit_checkpointed, run_unit_faulty, UnitConfig};
use ring_sim::stream::{build_stream_nodes, stream_engine, Representation, StreamSpec};
use ring_sim::{
    check_run, CheckpointError, Engine, EngineConfig, FaultPlan, Instance, SimError, Snapshot,
    TraceLevel,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ring-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
}

#[test]
fn crash_mid_run_recovers_from_the_last_good_snapshot() {
    let inst = Instance::from_loads(vec![90, 0, 3, 0, 0, 41, 0, 7, 0, 0, 0, 16]);
    let plan = FaultPlan::random(inst.num_processors(), 48, 77);
    let cfg = UnitConfig::c2().with_trace().with_observe();
    let base = run_unit_faulty(&inst, &cfg, &plan).expect("baseline run");

    // Checkpoint to disk every 4 steps; the sink "crashes" right after
    // persisting the third snapshot.
    let dir = scratch_dir("crash");
    let out = dir.clone();
    let mut written = 0u32;
    let err = run_unit_checkpointed(
        &inst,
        &cfg,
        Some(&plan),
        None,
        4,
        "",
        move |snap: &Snapshot| -> Result<(), CheckpointError> {
            snap.write_to_file(&out.join(format!("snap-{:010}.ringsnap", snap.t)))?;
            written += 1;
            if written == 3 {
                return Err(CheckpointError::Io("simulated crash".into()));
            }
            Ok(())
        },
    )
    .expect_err("the sink crash must abort the run");
    match &err {
        SimError::Checkpoint { step, error } => {
            assert_eq!(*step, 12, "crashed at the third 4-step boundary");
            assert_eq!(*error, CheckpointError::Io("simulated crash".into()));
        }
        other => panic!("unexpected error {other:?}"),
    }

    // Recovery: newest snapshot file on disk, resumed to completion.
    let files = snapshot_files(&dir);
    assert_eq!(files.len(), 3, "three snapshots made it to disk");
    let snap = Snapshot::read_from_file(files.last().unwrap()).expect("last snapshot loads");
    assert_eq!(snap.t, 12);
    let resumed = resume_unit(&cfg, &snap, None).expect("resumed run");
    assert_eq!(
        base.report, resumed.report,
        "recovery must be bit-identical to the uninterrupted run"
    );
    let violations = check_run(&inst, &resumed.report, Some(&plan));
    assert!(
        violations.is_empty(),
        "oracle rejected the stitched trace: {violations:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_works_across_shard_counts() {
    let inst = Instance::from_loads(vec![64, 0, 0, 5, 0, 31, 0, 0, 2]);
    let cfg = UnitConfig::a2().with_trace().with_observe();
    let base = run_unit_checkpointed(
        &inst,
        &cfg,
        None,
        None,
        u64::MAX - 1, // cadence beyond the makespan: a plain baseline
        "",
        |_: &Snapshot| -> Result<(), CheckpointError> { Ok(()) },
    )
    .expect("baseline run");

    // Save on 3 shards, recover from disk on 1, 2, and 7.
    let dir = scratch_dir("shards");
    let out = dir.clone();
    run_unit_checkpointed(
        &inst,
        &cfg,
        None,
        Some(3),
        5,
        "",
        move |snap: &Snapshot| -> Result<(), CheckpointError> {
            snap.write_to_file(&out.join(format!("snap-{:010}.ringsnap", snap.t)))
        },
    )
    .expect("checkpointed par run");
    let files = snapshot_files(&dir);
    assert!(!files.is_empty());
    for file in &files {
        let snap = Snapshot::read_from_file(file).expect("snapshot loads");
        for shards in [None, Some(1), Some(2), Some(7)] {
            let resumed = resume_unit(&cfg, &snap, shards).expect("resumed run");
            assert_eq!(
                base.report, resumed.report,
                "resume from t={} on {shards:?} shards diverged",
                snap.t
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_snapshots_fail_closed_with_typed_errors() {
    let inst = Instance::concentrated(10, 0, 200);
    let cfg = UnitConfig::c1().with_trace().with_observe();
    let snaps: Arc<Mutex<Vec<Snapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&snaps);
    run_unit_checkpointed(
        &inst,
        &cfg,
        None,
        None,
        5,
        "meta survives the round-trip",
        move |s: &Snapshot| -> Result<(), CheckpointError> {
            log.lock().unwrap().push(s.clone());
            Ok(())
        },
    )
    .expect("checkpointed run");
    let snaps = snaps.lock().unwrap();
    let snap = snaps.first().expect("at least one snapshot");
    let bytes = snap.to_bytes();
    assert_eq!(
        Snapshot::from_bytes(&bytes)
            .expect("intact bytes load")
            .app_meta,
        "meta survives the round-trip"
    );

    // Truncation anywhere: a typed error, never a panic.
    for cut in [0, 4, 8, 12, bytes.len() / 2, bytes.len() - 1] {
        let err = Snapshot::from_bytes(&bytes[..cut])
            .expect_err(&format!("truncated to {cut} bytes must not load"));
        assert!(
            matches!(
                err,
                CheckpointError::UnexpectedEof
                    | CheckpointError::BadChecksum
                    | CheckpointError::Corrupt(_)
            ),
            "truncated to {cut}: {err:?}"
        );
    }

    // A flipped bit in the payload: the checksum catches it.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert_eq!(
        Snapshot::from_bytes(&corrupt).expect_err("bit flip must not load"),
        CheckpointError::BadChecksum
    );

    // Wrong magic fails before anything else is believed.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert_eq!(
        Snapshot::from_bytes(&bad_magic).expect_err("bad magic must not load"),
        CheckpointError::BadMagic
    );

    // An unknown version fails closed even with a valid checksum. FNV-1a
    // is re-implemented here so the test also pins the checksum algorithm.
    fn fnv1a(data: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let mut future = bytes.clone();
    future[8] = 99; // the little-endian version field follows the 8-byte magic
    let body_len = future.len() - 8;
    let sum = fnv1a(&future[..body_len]).to_le_bytes();
    future[body_len..].copy_from_slice(&sum);
    assert_eq!(
        Snapshot::from_bytes(&future).expect_err("future version must not load"),
        CheckpointError::BadVersion { found: 99 }
    );

    // Damage on the file path reports just as cleanly.
    let dir = scratch_dir("damage");
    let path = dir.join("truncated.ringsnap");
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    let err = Snapshot::read_from_file(&path).expect_err("truncated file must not load");
    assert!(
        matches!(
            err,
            CheckpointError::UnexpectedEof | CheckpointError::BadChecksum
        ),
        "{err:?}"
    );
    assert!(
        matches!(
            Snapshot::read_from_file(&dir.join("missing.ringsnap"))
                .expect_err("missing file must not load"),
            CheckpointError::Io(_)
        ),
        "missing file must be an Io error"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The count-coalesced stream workload checkpoints and resumes exactly,
/// with the sink parked mid-drain at most boundaries — and because the
/// message *layout* is not part of the persisted state, a run saved with
/// coalesced runs may resume with per-unit messages and still report
/// bit-identically.
#[test]
fn stream_coalesced_checkpoints_resume_exactly() {
    let spec = StreamSpec::drain(10, 400);
    let full = EngineConfig {
        trace: TraceLevel::Full,
        ..EngineConfig::default()
    };
    let base = stream_engine(&spec, Representation::Coalesced, full.clone())
        .run()
        .expect("baseline stream run");

    let snaps: Arc<Mutex<Vec<Snapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&snaps);
    let mut engine = stream_engine(
        &spec,
        Representation::Coalesced,
        full.clone().checkpoint_every(6),
    );
    engine.on_checkpoint(move |s: &Snapshot| {
        log.lock().unwrap().push(s.clone());
        Ok(())
    });
    assert_eq!(base, engine.run().expect("checkpointed stream run"));

    let snaps = snaps.lock().unwrap();
    assert!(!snaps.is_empty(), "the drain shape runs long enough");
    for snap in snaps.iter() {
        for repr in [Representation::Coalesced, Representation::PerUnit] {
            let resumed = Engine::resume(build_stream_nodes(&spec, repr), full.clone(), snap)
                .expect("resume accepts the snapshot")
                .run()
                .expect("resumed stream run");
            assert_eq!(base, resumed, "t={} repr={repr:?}", snap.t);
        }
    }
}
