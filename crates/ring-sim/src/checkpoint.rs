//! Versioned checkpoint/restore for engine runs.
//!
//! A [`Snapshot`] captures the *complete* state of an [`crate::Engine`] at a
//! step boundary: the double-buffered message arenas, the per-link fault
//! queues (hold/retry attempts, delay readiness, bandwidth backlog), every
//! node's policy state (via [`crate::Node::save_state`]), the accumulated
//! metrics, trace, and observability series, and the fault plan itself.
//! Resuming from a snapshot ([`crate::Engine::resume`]) continues the run and
//! produces a [`crate::RunReport`] **bit-for-bit identical** to the
//! uninterrupted run — the property the workspace's resume-equivalence
//! proptests assert across algorithms, fault plans, and shard counts.
//!
//! Two design points keep snapshots small and self-describing:
//!
//! * **The fault plan needs no RNG state.** Every fault predicate is a pure
//!   function of `(node, link, step)` ([`crate::FaultPlan`]); seeded plans
//!   expand to explicit epoch lists at construction. The snapshot therefore
//!   stores the plan's epochs plus the current step — nothing else — and the
//!   resumed run replays the identical fault schedule.
//! * **Messages are opaque blobs.** The snapshot container is not generic
//!   over the message type; each message is serialized through the
//!   [`Persist`] trait into a length-prefixed blob. The container can be
//!   inspected (header, metrics, step) without knowing the policy's types.
//!
//! The wire format is a workspace-local little-endian binary codec
//! ([`Encoder`]/[`Decoder`]) — no external serialization crates — framed by
//! the [`SNAPSHOT_MAGIC`] tag, a format version, and a trailing FNV-1a
//! checksum. Corrupted or truncated images fail closed with a typed
//! [`CheckpointError`]; decoding never panics.

use std::collections::VecDeque;

use crate::fault::{FaultPlan, LinkFault, LinkFaultKind, ProcFault, ProcFaultKind};
use crate::metrics::{LinkStats, Metrics, Observability, StepSample};
use crate::topology::Direction;
use crate::trace::{DropKind, Event, TraceLevel};

/// Leading magic bytes of every serialized snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RINGSNAP";

/// Current snapshot format version. Bumped on any codec change; readers
/// reject versions they do not know ([`CheckpointError::BadVersion`]).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Typed checkpoint/restore failures. Every decode path reports one of
/// these — corrupted snapshots fail closed, they never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the decoder finished.
    UnexpectedEof,
    /// The leading bytes are not [`SNAPSHOT_MAGIC`] — not a snapshot file.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    BadVersion {
        /// The version tag found in the file.
        found: u32,
    },
    /// The trailing checksum does not match the payload — the image was
    /// corrupted in storage or transit.
    BadChecksum,
    /// Structurally invalid content (bad enum tag, trailing bytes, an
    /// out-of-range count, ...).
    Corrupt(&'static str),
    /// The node or message type does not support persistence (the default
    /// [`crate::Node::save_state`] / [`crate::Node::restore_state`]).
    Unsupported(&'static str),
    /// The snapshot does not fit what it is being restored into (wrong ring
    /// size, wrong total work, ...).
    Mismatch(String),
    /// An I/O failure while writing or reading a snapshot (message only —
    /// kept `Clone`/`Eq` so it can travel inside [`crate::SimError`]).
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::UnexpectedEof => write!(f, "snapshot ended unexpectedly"),
            CheckpointError::BadMagic => write!(f, "not a ring snapshot (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(
                    f,
                    "unknown snapshot format version {found} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            CheckpointError::BadChecksum => write!(f, "snapshot checksum mismatch (corrupted)"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            CheckpointError::Unsupported(what) => write!(f, "checkpoint unsupported: {what}"),
            CheckpointError::Mismatch(what) => write!(f, "snapshot mismatch: {what}"),
            CheckpointError::Io(what) => write!(f, "snapshot i/o error: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Little-endian binary encoder backing the snapshot codec. Policies write
/// their state through this in [`crate::Node::save_state`] and
/// [`Persist::save`].
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, returning the written bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, so round-trips are
    /// bit-exact (the engine's whole equivalence story relies on this).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Little-endian binary decoder over a borrowed byte slice; the counterpart
/// of [`Encoder`]. Every read is bounds-checked and fails with
/// [`CheckpointError::UnexpectedEof`] instead of panicking.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed (trailing garbage means the
    /// image does not match the schema that is reading it).
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` written by [`Encoder::usize`]; fails if the value
    /// does not fit the platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Corrupt("usize overflow"))
    }

    /// Reads a bool (rejecting anything but 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bad bool")),
        }
    }

    /// Reads an `f64` from its bit pattern (bit-exact).
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(CheckpointError::UnexpectedEof);
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CheckpointError::Corrupt("invalid utf-8"))
    }
}

/// A message type that can round-trip through the snapshot codec.
///
/// Implementations must be bit-exact: `load(save(m)) == m` in every field
/// the policy can observe, including `f64` bit patterns (use
/// [`Encoder::f64`]/[`Decoder::f64`]). The engine requires this bound only
/// on the checkpoint entry points ([`crate::Engine::on_checkpoint`],
/// [`crate::Engine::resume`]); plain runs stay bound-free.
pub trait Persist: Sized {
    /// Serializes `self` into the encoder.
    fn save(&self, enc: &mut Encoder);

    /// Decodes one value, consuming exactly what [`Persist::save`] wrote.
    fn load(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError>;
}

impl Persist for Direction {
    fn save(&self, enc: &mut Encoder) {
        enc.u8(match self {
            Direction::Cw => 0,
            Direction::Ccw => 1,
        });
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        match dec.u8()? {
            0 => Ok(Direction::Cw),
            1 => Ok(Direction::Ccw),
            _ => Err(CheckpointError::Corrupt("bad direction tag")),
        }
    }
}

impl Persist for crate::instance::Job {
    fn save(&self, enc: &mut Encoder) {
        enc.u64(self.id.0);
        enc.usize(self.origin);
        enc.u64(self.size);
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        Ok(crate::instance::Job {
            id: crate::instance::JobId(dec.u64()?),
            origin: dec.usize()?,
            size: dec.u64()?,
        })
    }
}

/// One entry of a serialized per-link fault queue: the staged message blob
/// plus its departure bookkeeping (see the engine's hold-and-retry rule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedBlob {
    /// Earliest step the message may depart (push step + link delay).
    pub ready: u64,
    /// Failed departure attempts so far.
    pub attempts: u64,
    /// The serialized message.
    pub msg: Vec<u8>,
}

/// A complete, self-describing image of an engine run at a step boundary.
///
/// All `Vec` fields are indexed by node (`m` entries). Message payloads are
/// opaque [`Persist`] blobs, so the container itself is not generic; the
/// typed arenas are reconstructed by [`crate::Engine::resume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Ring size.
    pub m: usize,
    /// Total work units of the instance.
    pub total_work: u64,
    /// The step boundary this snapshot was taken at (the next step to run).
    pub t: u64,
    /// Work units processed so far.
    pub processed: u64,
    /// Logical messages that entered the arenas in round `t - 1` (zero
    /// means every inbox is empty at `t`). Quiescent-span compression read
    /// it; nothing does now, but the field stays so that `RINGSNAP` bytes
    /// and the pinned images do not change, and resume carries it through.
    pub prev_round_departed: u64,
    /// Trace level of the interrupted run.
    pub trace_level: TraceLevel,
    /// The deterministic fault schedule, if one was installed. Pure in
    /// `(node, link, step)`, so no RNG state accompanies it — replaying it
    /// from step `t` is exact.
    pub faults: Option<FaultPlan>,
    /// Metrics accumulated through step `t - 1`.
    pub metrics: Metrics,
    /// Trace events recorded through step `t - 1`, in engine order.
    pub events: Vec<Event>,
    /// Observability series through step `t - 1` (`None` if not collected).
    pub observability: Option<Observability>,
    /// Per-node policy state ([`crate::Node::save_state`] blobs).
    pub nodes: Vec<Vec<u8>>,
    /// Clockwise message arena: for each receiving node, the messages
    /// delivered at step `t`, as [`Persist`] blobs in arrival order.
    pub arena_cw: Vec<Vec<Vec<u8>>>,
    /// Counterclockwise message arena (same layout as `arena_cw`).
    pub arena_ccw: Vec<Vec<Vec<u8>>>,
    /// Per-node clockwise link queue under fault injection (FIFO order).
    pub queue_cw: Vec<Vec<StagedBlob>>,
    /// Per-node counterclockwise link queue (same layout as `queue_cw`).
    pub queue_ccw: Vec<Vec<StagedBlob>>,
    /// Free-form application metadata (the CLI stores the flags needed to
    /// rebuild the policy nodes; the engine never interprets it).
    pub app_meta: String,
}

impl Snapshot {
    /// One-line human summary (used by the CLI).
    pub fn summary(&self) -> String {
        format!(
            "step {} · {}/{} units processed · m = {} · {} trace events{}",
            self.t,
            self.processed,
            self.total_work,
            self.m,
            self.events.len(),
            if self.faults.is_some() {
                " · fault plan attached"
            } else {
                ""
            }
        )
    }

    /// Serializes the snapshot: magic, version, payload, FNV-1a checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        enc.u32(SNAPSHOT_VERSION);
        self.encode_payload(&mut enc);
        let sum = fnv1a(&enc.buf);
        enc.u64(sum);
        enc.into_bytes()
    }

    /// Decodes a snapshot, verifying magic, version, and checksum. Fails
    /// closed with a typed [`CheckpointError`] on any defect.
    pub fn from_bytes(data: &[u8]) -> Result<Snapshot, CheckpointError> {
        if data.len() < SNAPSHOT_MAGIC.len() + 4 + 8 {
            return Err(CheckpointError::UnexpectedEof);
        }
        if data[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let (body, tail) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a(body) != stored {
            return Err(CheckpointError::BadChecksum);
        }
        let mut dec = Decoder::new(&body[SNAPSHOT_MAGIC.len()..]);
        let version = dec.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        let snap = Snapshot::decode_payload(&mut dec)?;
        dec.finish()?;
        Ok(snap)
    }

    /// Writes the serialized snapshot to a file.
    pub fn write_to_file(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and decodes a snapshot file.
    pub fn read_from_file(path: &std::path::Path) -> Result<Snapshot, CheckpointError> {
        let data = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Snapshot::from_bytes(&data)
    }

    fn encode_payload(&self, enc: &mut Encoder) {
        enc.usize(self.m);
        enc.u64(self.total_work);
        enc.u64(self.t);
        enc.u64(self.processed);
        enc.u64(self.prev_round_departed);
        enc.u8(match self.trace_level {
            TraceLevel::Off => 0,
            TraceLevel::Full => 1,
        });
        match &self.faults {
            None => enc.bool(false),
            Some(plan) => {
                enc.bool(true);
                encode_fault_plan(enc, plan);
            }
        }
        encode_metrics(enc, &self.metrics);
        enc.usize(self.events.len());
        for ev in &self.events {
            encode_event(enc, ev);
        }
        match &self.observability {
            None => enc.bool(false),
            Some(obs) => {
                enc.bool(true);
                encode_observability(enc, obs);
            }
        }
        for blob in &self.nodes {
            enc.bytes(blob);
        }
        for arena in [&self.arena_cw, &self.arena_ccw] {
            for cell in arena.iter() {
                enc.usize(cell.len());
                for msg in cell {
                    enc.bytes(msg);
                }
            }
        }
        for queue in [&self.queue_cw, &self.queue_ccw] {
            for cell in queue.iter() {
                enc.usize(cell.len());
                for staged in cell {
                    enc.u64(staged.ready);
                    enc.u64(staged.attempts);
                    enc.bytes(&staged.msg);
                }
            }
        }
        enc.str(&self.app_meta);
    }

    fn decode_payload(dec: &mut Decoder<'_>) -> Result<Snapshot, CheckpointError> {
        let m = dec.usize()?;
        if m == 0 {
            return Err(CheckpointError::Corrupt("zero ring size"));
        }
        let total_work = dec.u64()?;
        let t = dec.u64()?;
        let processed = dec.u64()?;
        let prev_round_departed = dec.u64()?;
        let trace_level = match dec.u8()? {
            0 => TraceLevel::Off,
            1 => TraceLevel::Full,
            _ => return Err(CheckpointError::Corrupt("bad trace level")),
        };
        let faults = if dec.bool()? {
            Some(decode_fault_plan(dec)?)
        } else {
            None
        };
        let metrics = decode_metrics(dec, m)?;
        let n_events = dec.usize()?;
        let mut events = Vec::new();
        for _ in 0..n_events {
            events.push(decode_event(dec)?);
        }
        let observability = if dec.bool()? {
            Some(decode_observability(dec, m)?)
        } else {
            None
        };
        let mut nodes = Vec::with_capacity(m);
        for _ in 0..m {
            nodes.push(dec.bytes()?.to_vec());
        }
        let decode_arena = |dec: &mut Decoder<'_>| -> Result<Vec<Vec<Vec<u8>>>, CheckpointError> {
            let mut arena = Vec::with_capacity(m);
            for _ in 0..m {
                let n = dec.usize()?;
                let mut cell = Vec::new();
                for _ in 0..n {
                    cell.push(dec.bytes()?.to_vec());
                }
                arena.push(cell);
            }
            Ok(arena)
        };
        let arena_cw = decode_arena(dec)?;
        let arena_ccw = decode_arena(dec)?;
        let decode_queue =
            |dec: &mut Decoder<'_>| -> Result<Vec<Vec<StagedBlob>>, CheckpointError> {
                let mut queue = Vec::with_capacity(m);
                for _ in 0..m {
                    let n = dec.usize()?;
                    let mut cell = Vec::new();
                    for _ in 0..n {
                        cell.push(StagedBlob {
                            ready: dec.u64()?,
                            attempts: dec.u64()?,
                            msg: dec.bytes()?.to_vec(),
                        });
                    }
                    queue.push(cell);
                }
                Ok(queue)
            };
        let queue_cw = decode_queue(dec)?;
        let queue_ccw = decode_queue(dec)?;
        let app_meta = dec.str()?;
        Ok(Snapshot {
            m,
            total_work,
            t,
            processed,
            prev_round_departed,
            trace_level,
            faults,
            metrics,
            events,
            observability,
            nodes,
            arena_cw,
            arena_ccw,
            queue_cw,
            queue_ccw,
            app_meta,
        })
    }
}

/// Decodes a `Vec<M>` arena cell back into typed messages, requiring every
/// blob to be fully consumed.
pub(crate) fn load_msgs<M: Persist>(blobs: &[Vec<u8>]) -> Result<Vec<M>, CheckpointError> {
    let mut out = Vec::with_capacity(blobs.len());
    for blob in blobs {
        let mut dec = Decoder::new(blob);
        let msg = M::load(&mut dec)?;
        dec.finish()?;
        out.push(msg);
    }
    Ok(out)
}

/// Serializes one message through a monomorphized save hook.
pub(crate) fn save_msg_blob<M>(save: fn(&M, &mut Encoder), msg: &M) -> Vec<u8> {
    let mut enc = Encoder::new();
    save(msg, &mut enc);
    enc.into_bytes()
}

/// FNV-1a 64-bit checksum (tiny, dependency-free, and plenty for detecting
/// storage corruption — this is an integrity check, not a MAC). Shared with
/// the binary trace format in [`crate::tracefile`].
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_u64s(enc: &mut Encoder, v: &[u64]) {
    for &x in v {
        enc.u64(x);
    }
}

fn decode_u64s(dec: &mut Decoder<'_>, n: usize) -> Result<Vec<u64>, CheckpointError> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(dec.u64()?);
    }
    Ok(v)
}

pub(crate) fn encode_metrics(enc: &mut Encoder, m: &Metrics) {
    enc.u64(m.messages_sent);
    enc.u64(m.job_hops);
    encode_u64s(enc, &m.processed_per_node);
    encode_u64s(enc, &m.busy_steps_per_node);
    enc.u64(m.peak_inflight_jobs);
    match m.last_busy_step {
        None => enc.bool(false),
        Some(t) => {
            enc.bool(true);
            enc.u64(t);
        }
    }
    enc.u64(m.steps);
    enc.u64(m.messages_dropped);
    enc.u64(m.messages_delayed);
    enc.u64(m.messages_retried);
}

pub(crate) fn decode_metrics(dec: &mut Decoder<'_>, m: usize) -> Result<Metrics, CheckpointError> {
    Ok(Metrics {
        messages_sent: dec.u64()?,
        job_hops: dec.u64()?,
        processed_per_node: decode_u64s(dec, m)?,
        busy_steps_per_node: decode_u64s(dec, m)?,
        peak_inflight_jobs: dec.u64()?,
        last_busy_step: if dec.bool()? { Some(dec.u64()?) } else { None },
        steps: dec.u64()?,
        messages_dropped: dec.u64()?,
        messages_delayed: dec.u64()?,
        messages_retried: dec.u64()?,
    })
}

pub(crate) fn encode_event(enc: &mut Encoder, ev: &Event) {
    match *ev {
        Event::Processed { t, node, units } => {
            enc.u8(0);
            enc.u64(t);
            enc.usize(node);
            enc.u64(units);
        }
        Event::Sent {
            t,
            node,
            dir,
            job_units,
        } => {
            enc.u8(1);
            enc.u64(t);
            enc.usize(node);
            dir.save(enc);
            enc.u64(job_units);
        }
        Event::DroppedOff {
            t,
            node,
            bucket,
            units,
            frac_bits,
            cum_drop_frac_bits,
            cum_accept_frac_bits,
            p_max_bucket,
            p_max_node,
            kind,
        } => {
            enc.u8(2);
            enc.u64(t);
            enc.usize(node);
            enc.u64(bucket);
            enc.u64(units);
            enc.u64(frac_bits);
            enc.u64(cum_drop_frac_bits);
            enc.u64(cum_accept_frac_bits);
            enc.u64(p_max_bucket);
            enc.u64(p_max_node);
            enc.u8(match kind {
                DropKind::Regular => 0,
                DropKind::Balancing => 1,
                DropKind::Forced => 2,
            });
        }
        // Fabric-only (never present in ring snapshots, so tag 3 does not
        // perturb any version-1 byte image).
        Event::SentOn {
            t,
            node,
            port,
            job_units,
        } => {
            enc.u8(3);
            enc.u64(t);
            enc.usize(node);
            enc.usize(port);
            enc.u64(job_units);
        }
    }
}

pub(crate) fn decode_event(dec: &mut Decoder<'_>) -> Result<Event, CheckpointError> {
    match dec.u8()? {
        0 => Ok(Event::Processed {
            t: dec.u64()?,
            node: dec.usize()?,
            units: dec.u64()?,
        }),
        1 => Ok(Event::Sent {
            t: dec.u64()?,
            node: dec.usize()?,
            dir: Direction::load(dec)?,
            job_units: dec.u64()?,
        }),
        2 => Ok(Event::DroppedOff {
            t: dec.u64()?,
            node: dec.usize()?,
            bucket: dec.u64()?,
            units: dec.u64()?,
            frac_bits: dec.u64()?,
            cum_drop_frac_bits: dec.u64()?,
            cum_accept_frac_bits: dec.u64()?,
            p_max_bucket: dec.u64()?,
            p_max_node: dec.u64()?,
            kind: match dec.u8()? {
                0 => DropKind::Regular,
                1 => DropKind::Balancing,
                2 => DropKind::Forced,
                _ => return Err(CheckpointError::Corrupt("bad drop kind")),
            },
        }),
        3 => Ok(Event::SentOn {
            t: dec.u64()?,
            node: dec.usize()?,
            port: dec.usize()?,
            job_units: dec.u64()?,
        }),
        _ => Err(CheckpointError::Corrupt("bad event tag")),
    }
}

fn encode_sample(enc: &mut Encoder, s: &StepSample) {
    enc.u64(s.t);
    enc.u64(s.delivered_payload);
    enc.u64(s.sent_payload);
    enc.u64(s.messages);
    enc.u64(s.processed);
    enc.u64(s.dropped_off);
    enc.u64(s.max_pending);
    enc.u64(s.total_pending);
    enc.u64(s.link_dropped);
    enc.u64(s.link_delayed);
    enc.u64(s.link_retried);
}

fn decode_sample(dec: &mut Decoder<'_>) -> Result<StepSample, CheckpointError> {
    Ok(StepSample {
        t: dec.u64()?,
        delivered_payload: dec.u64()?,
        sent_payload: dec.u64()?,
        messages: dec.u64()?,
        processed: dec.u64()?,
        dropped_off: dec.u64()?,
        max_pending: dec.u64()?,
        total_pending: dec.u64()?,
        link_dropped: dec.u64()?,
        link_delayed: dec.u64()?,
        link_retried: dec.u64()?,
    })
}

fn encode_observability(enc: &mut Encoder, o: &Observability) {
    enc.usize(o.num_processors);
    enc.usize(o.samples.len());
    for s in &o.samples {
        encode_sample(enc, s);
    }
    encode_u64s(enc, &o.links.cw_messages);
    encode_u64s(enc, &o.links.ccw_messages);
    encode_u64s(enc, &o.links.cw_payload);
    encode_u64s(enc, &o.links.ccw_payload);
    encode_u64s(enc, &o.links.cw_busy_steps);
    encode_u64s(enc, &o.links.ccw_busy_steps);
    encode_u64s(enc, &o.dropoffs_per_node);
}

fn decode_observability(dec: &mut Decoder<'_>, m: usize) -> Result<Observability, CheckpointError> {
    let num_processors = dec.usize()?;
    if num_processors != m {
        return Err(CheckpointError::Corrupt("observability ring size mismatch"));
    }
    let n = dec.usize()?;
    let mut samples = Vec::new();
    for _ in 0..n {
        samples.push(decode_sample(dec)?);
    }
    Ok(Observability {
        num_processors,
        samples,
        links: LinkStats {
            cw_messages: decode_u64s(dec, m)?,
            ccw_messages: decode_u64s(dec, m)?,
            cw_payload: decode_u64s(dec, m)?,
            ccw_payload: decode_u64s(dec, m)?,
            cw_busy_steps: decode_u64s(dec, m)?,
            ccw_busy_steps: decode_u64s(dec, m)?,
        },
        dropoffs_per_node: decode_u64s(dec, m)?,
    })
}

pub(crate) fn encode_fault_plan(enc: &mut Encoder, plan: &FaultPlan) {
    enc.usize(plan.link_faults().len());
    for f in plan.link_faults() {
        enc.usize(f.node);
        f.dir.save(enc);
        enc.u64(f.from);
        enc.u64(f.until);
        match f.kind {
            LinkFaultKind::Drop => enc.u8(0),
            LinkFaultKind::Delay(d) => {
                enc.u8(1);
                enc.u64(d);
            }
            LinkFaultKind::Bandwidth(c) => {
                enc.u8(2);
                enc.u64(c);
            }
        }
    }
    enc.usize(plan.proc_faults().len());
    for f in plan.proc_faults() {
        enc.usize(f.node);
        enc.u64(f.from);
        enc.u64(f.until);
        match f.kind {
            ProcFaultKind::Stall => enc.u8(0),
            ProcFaultKind::Slowdown(k) => {
                enc.u8(1);
                enc.u64(k);
            }
        }
    }
}

pub(crate) fn decode_fault_plan(dec: &mut Decoder<'_>) -> Result<FaultPlan, CheckpointError> {
    let mut plan = FaultPlan::new();
    let n_link = dec.usize()?;
    for _ in 0..n_link {
        let node = dec.usize()?;
        let dir = Direction::load(dec)?;
        let from = dec.u64()?;
        let until = dec.u64()?;
        let kind = match dec.u8()? {
            0 => LinkFaultKind::Drop,
            1 => LinkFaultKind::Delay(dec.u64()?),
            2 => LinkFaultKind::Bandwidth(dec.u64()?),
            _ => return Err(CheckpointError::Corrupt("bad link fault tag")),
        };
        plan.add_link_fault(LinkFault {
            node,
            dir,
            from,
            until,
            kind,
        });
    }
    let n_proc = dec.usize()?;
    for _ in 0..n_proc {
        let node = dec.usize()?;
        let from = dec.u64()?;
        let until = dec.u64()?;
        let kind = match dec.u8()? {
            0 => ProcFaultKind::Stall,
            1 => ProcFaultKind::Slowdown(dec.u64()?),
            _ => return Err(CheckpointError::Corrupt("bad proc fault tag")),
        };
        plan.add_proc_fault(ProcFault {
            node,
            from,
            until,
            kind,
        });
    }
    Ok(plan)
}

/// Reconstructs a typed fault-queue cell from its serialized form.
pub(crate) fn load_queue<M: Persist>(
    blobs: &[StagedBlob],
) -> Result<VecDeque<(u64, u64, M)>, CheckpointError> {
    let mut q = VecDeque::with_capacity(blobs.len());
    for staged in blobs {
        let mut dec = Decoder::new(&staged.msg);
        let msg = M::load(&mut dec)?;
        dec.finish()?;
        q.push_back((staged.ready, staged.attempts, msg));
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        let mut metrics = Metrics {
            processed_per_node: vec![2, 0],
            busy_steps_per_node: vec![2, 0],
            ..Metrics::default()
        };
        metrics.steps = 3;
        metrics.last_busy_step = Some(1);
        Snapshot {
            m: 2,
            total_work: 5,
            t: 3,
            processed: 2,
            prev_round_departed: 1,
            trace_level: TraceLevel::Full,
            faults: Some(FaultPlan::random(2, 8, 7)),
            metrics,
            events: vec![
                Event::Processed {
                    t: 0,
                    node: 0,
                    units: 1,
                },
                Event::Sent {
                    t: 1,
                    node: 0,
                    dir: Direction::Ccw,
                    job_units: 3,
                },
            ],
            observability: None,
            nodes: vec![vec![1, 2, 3], vec![]],
            arena_cw: vec![vec![vec![9, 9]], vec![]],
            arena_ccw: vec![vec![], vec![]],
            queue_cw: vec![
                vec![StagedBlob {
                    ready: 4,
                    attempts: 1,
                    msg: vec![8],
                }],
                vec![],
            ],
            queue_ccw: vec![vec![], vec![]],
            app_meta: "alg=b1".to_string(),
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn header_is_magic_then_version() {
        let bytes = tiny_snapshot().to_bytes();
        assert_eq!(&bytes[..8], b"RINGSNAP");
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            SNAPSHOT_VERSION
        );
    }

    #[test]
    fn corruption_fails_closed() {
        let bytes = tiny_snapshot().to_bytes();
        // Truncation.
        for cut in [0, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::UnexpectedEof | CheckpointError::BadChecksum
                ),
                "cut at {cut}: {err:?}"
            );
        }
        // Bit flips anywhere are caught by the checksum (or the magic).
        for i in [0, 8, 12, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Snapshot::from_bytes(&bad).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[8] = 0xFF; // mangle the version field…
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum); // …but fix the checksum
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(CheckpointError::BadVersion { found: _ })
        ));
    }

    #[test]
    fn decoder_rejects_trailing_bytes() {
        let mut enc = Encoder::new();
        enc.u64(1);
        enc.u8(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u64().unwrap(), 1);
        assert!(dec.finish().is_err());
        assert_eq!(dec.u8().unwrap(), 0);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.0, -0.0, 1.77, f64::NAN, f64::INFINITY, 1e-300] {
            let mut enc = Encoder::new();
            enc.f64(v);
            let bytes = enc.into_bytes();
            let got = Decoder::new(&bytes).f64().unwrap();
            assert_eq!(v.to_bits(), got.to_bits());
        }
    }
}
