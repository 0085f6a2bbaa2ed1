//! Compact binary trace files (`RINGTRACE`) and their JSON mirror.
//!
//! Full-detail traces grow with (steps × messages); serialising them as JSON
//! is the scale bottleneck once rings reach 10^6 nodes. This module stores a
//! complete run — header, fault plan, metrics, and the full event log — in a
//! length-prefixed binary format that is typically 10–30× smaller than the
//! equivalent JSON:
//!
//! * event timestamps are delta-encoded (wrapping `u64` difference from the
//!   previous event) and written as LEB128 varints, so the common "same step
//!   or next step" case costs one byte;
//! * the event discriminant, send direction, and drop kind fold into a
//!   single tag byte;
//! * fractional-ledger shadows stay fixed-width `f64::to_bits` words, so
//!   replay is bit-exact.
//!
//! The file layout mirrors the `RINGSNAP` checkpoint discipline
//! ([`crate::checkpoint`]): magic bytes, a little-endian `u32` version, the
//! payload, and a trailing FNV-1a 64-bit checksum over everything before it.
//! Decoding fails closed with a typed [`TraceFileError`] — truncated,
//! bit-flipped, wrong-magic, or future-version files are rejected before any
//! payload is interpreted, and no input panics.
//!
//! The oracle replays a decoded trace with no format-specific code:
//! [`TraceFile::check`] hands the file's own events, metrics and fault plan
//! to the same [`crate::oracle`] core that [`crate::check_report`] uses,
//! borrowing them rather than rebuilding a [`RunReport`]. The format is a
//! transport, not a semantic layer.

use std::fmt;
use std::path::Path;

use crate::checkpoint::fnv1a;
use crate::engine::RunReport;
use crate::fault::{FaultPlan, LinkFault, LinkFaultKind, ProcFault, ProcFaultKind};
use crate::metrics::Metrics;
use crate::oracle::{check_trace_file, OracleViolation};
use crate::topology::Direction;
use crate::trace::{DropKind, Event, Trace, TraceLevel};

/// Magic bytes opening every binary trace file.
pub const TRACE_MAGIC: [u8; 9] = *b"RINGTRACE";

/// Base trace format version: ring traces (cw/ccw sends only) are written
/// at this version, byte-identically to every build since it was pinned.
pub const TRACE_VERSION: u32 = 1;

/// Trace format version for topology-generic (fabric) traces: version 2
/// adds the [`Event::SentOn`] tag, which records sends by local port
/// number instead of ring direction. Writers only emit it when a `SentOn`
/// event is actually present — traces of ring runs keep version 1, so
/// their golden byte images are untouched. Decoders accept
/// `1..=TRACE_VERSION_FABRIC` and reject anything newer.
pub const TRACE_VERSION_FABRIC: u32 = 2;

/// Why a trace file failed to decode. Every branch is fail-closed: a file
/// that does not decode cleanly yields an error, never a partial trace and
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// The input ended before a complete value could be read.
    UnexpectedEof,
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's version is not one this build understands.
    BadVersion {
        /// The version the file claims.
        found: u32,
    },
    /// The FNV-1a trailer does not match the file contents.
    BadChecksum,
    /// The payload is structurally invalid (the checksum matched, so this
    /// indicates an encoder bug or a deliberately malformed file).
    Corrupt(&'static str),
    /// A JSON trace failed to parse at the given byte offset.
    Json {
        /// Byte offset of the first offending character.
        offset: usize,
        /// What went wrong.
        msg: &'static str,
    },
    /// An underlying filesystem error.
    Io(String),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::UnexpectedEof => write!(f, "trace file truncated"),
            TraceFileError::BadMagic => write!(f, "not a RINGTRACE file (bad magic)"),
            TraceFileError::BadVersion { found } => write!(
                f,
                "unsupported trace version {found} (this build reads <= {TRACE_VERSION_FABRIC})"
            ),
            TraceFileError::BadChecksum => write!(f, "trace checksum mismatch (file corrupted)"),
            TraceFileError::Corrupt(what) => write!(f, "corrupt trace payload: {what}"),
            TraceFileError::Json { offset, msg } => {
                write!(f, "invalid JSON trace at byte {offset}: {msg}")
            }
            TraceFileError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// A self-contained recorded run: everything the oracle needs to re-derive
/// every safety property, plus the provenance string the CLI displays.
///
/// Fields are public so tests can build (or deliberately corrupt) traces
/// directly; the engine-facing constructor is [`TraceFile::from_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Ring size of the recorded run.
    pub m: usize,
    /// Total units of work in the recorded instance.
    pub total_work: u64,
    /// Reported makespan.
    pub makespan: u64,
    /// Free-form provenance (scenario name, algorithm, executor). Not part
    /// of [`TraceFile::diff`]: two executors producing identical runs keep
    /// different labels.
    pub meta: String,
    /// Aggregate counters of the run.
    pub metrics: Metrics,
    /// The fault plan the run executed under, if any. Stored so the oracle
    /// can re-check fault legality from the file alone.
    pub faults: Option<FaultPlan>,
    /// Detail level the trace was recorded at.
    pub level: TraceLevel,
    /// The event log, in engine order.
    pub events: Vec<Event>,
}

/// The step index an event occurred in.
pub fn event_step(ev: &Event) -> u64 {
    match *ev {
        Event::Processed { t, .. }
        | Event::Sent { t, .. }
        | Event::SentOn { t, .. }
        | Event::DroppedOff { t, .. } => t,
    }
}

/// The step index an oracle violation points at, when it has one (aggregate
/// violations like a total-work mismatch have no single step).
pub fn violation_step(v: &OracleViolation) -> Option<u64> {
    match v {
        OracleViolation::Overwork { step, .. }
        | OracleViolation::ProcessedWhileStalled { step, .. }
        | OracleViolation::SentOnDownLink { step, .. }
        | OracleViolation::BandwidthExceeded { step, .. }
        | OracleViolation::NegativeBalance { step, .. }
        | OracleViolation::I1Exceeded { step, .. }
        | OracleViolation::I2Exceeded { step, .. }
        | OracleViolation::NonMonotoneLedger { step, .. } => Some(*step),
        OracleViolation::TraceUnavailable
        | OracleViolation::TotalMismatch { .. }
        | OracleViolation::MakespanMismatch { .. }
        | OracleViolation::DropAccountingMismatch { .. } => None,
    }
}

/// The first point at which two traces disagree (see [`TraceFile::diff`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceDiff {
    /// A header field differs; both sides rendered for display.
    Header {
        /// Name of the differing field.
        field: &'static str,
        /// Left value.
        left: String,
        /// Right value.
        right: String,
    },
    /// The event logs diverge at `index` (`None` = that side's log ended).
    Event {
        /// Index into the event logs.
        index: usize,
        /// Step of the first differing event (minimum of the two sides).
        step: u64,
        /// Left event, if any.
        left: Option<Event>,
        /// Right event, if any.
        right: Option<Event>,
    },
}

impl TraceFile {
    /// Captures a finished run. Ring size and total work are derived from
    /// the report's per-node metrics, so the caller only supplies what the
    /// report cannot know: the fault plan and a provenance label. Copies
    /// the events; [`TraceFile::from_owned_report`] moves them instead.
    pub fn from_report(report: &RunReport, faults: Option<&FaultPlan>, meta: &str) -> Self {
        Self::assemble(
            report.makespan,
            report.metrics.clone(),
            report.trace.clone(),
            faults,
            meta,
        )
    }

    /// [`TraceFile::from_report`] for a report the caller is done with: the
    /// event log and the metrics move into the file rather than being
    /// copied.
    pub fn from_owned_report(report: RunReport, faults: Option<&FaultPlan>, meta: &str) -> Self {
        Self::assemble(report.makespan, report.metrics, report.trace, faults, meta)
    }

    fn assemble(
        makespan: u64,
        metrics: Metrics,
        trace: Trace,
        faults: Option<&FaultPlan>,
        meta: &str,
    ) -> Self {
        TraceFile {
            m: metrics.processed_per_node.len(),
            total_work: metrics.processed_per_node.iter().sum(),
            makespan,
            meta: meta.to_string(),
            metrics,
            faults: faults.cloned(),
            level: trace.level(),
            events: trace.into_events(),
        }
    }

    /// Reconstitutes the [`RunReport`] this trace was captured from
    /// (observability time series are not stored and come back as `None`).
    pub fn to_report(&self) -> RunReport {
        RunReport {
            makespan: self.makespan,
            metrics: self.metrics.clone(),
            trace: Trace::from_events(self.level, self.events.clone()),
            observability: None,
        }
    }

    /// Replays the trace through the [`crate::oracle`] in place, returning
    /// every violation it finds (empty = the run checks out): exactly what
    /// [`crate::check_report`] finds on [`TraceFile::to_report`], without
    /// copying the events.
    pub fn check(&self) -> Vec<OracleViolation> {
        check_trace_file(self)
    }

    /// One-line summary for `ringsched trace info`.
    pub fn summary(&self) -> String {
        let faults = match &self.faults {
            Some(p) => format!("{}L+{}P", p.link_faults().len(), p.proc_faults().len()),
            None => "none".to_string(),
        };
        format!(
            "m={} total_work={} makespan={} steps={} events={} level={} faults={} meta={:?}",
            self.m,
            self.total_work,
            self.makespan,
            self.metrics.steps,
            self.events.len(),
            match self.level {
                TraceLevel::Off => "off",
                TraceLevel::Full => "full",
            },
            faults,
            self.meta,
        )
    }

    /// The first point at which two traces disagree, or `None` if they
    /// describe the same run. Headers (ring size, totals, metrics, faults)
    /// are compared before events; [`TraceFile::meta`] is provenance and is
    /// deliberately excluded, so the same run captured under different
    /// executors diffs clean.
    pub fn diff(&self, other: &TraceFile) -> Option<TraceDiff> {
        let header = |field, l: &dyn fmt::Debug, r: &dyn fmt::Debug| {
            Some(TraceDiff::Header {
                field,
                left: format!("{l:?}"),
                right: format!("{r:?}"),
            })
        };
        if self.m != other.m {
            return header("m", &self.m, &other.m);
        }
        if self.total_work != other.total_work {
            return header("total_work", &self.total_work, &other.total_work);
        }
        if self.makespan != other.makespan {
            return header("makespan", &self.makespan, &other.makespan);
        }
        if self.level != other.level {
            return header("level", &self.level, &other.level);
        }
        if self.faults != other.faults {
            return header("faults", &self.faults, &other.faults);
        }
        if self.metrics != other.metrics {
            return header("metrics", &self.metrics, &other.metrics);
        }
        let n = self.events.len().max(other.events.len());
        for i in 0..n {
            let l = self.events.get(i).copied();
            let r = other.events.get(i).copied();
            if l != r {
                let step = match (&l, &r) {
                    (Some(a), Some(b)) => event_step(a).min(event_step(b)),
                    (Some(a), None) => event_step(a),
                    (None, Some(b)) => event_step(b),
                    (None, None) => unreachable!(),
                };
                return Some(TraceDiff::Event {
                    index: i,
                    step,
                    left: l,
                    right: r,
                });
            }
        }
        None
    }

    /// A copy restricted to events in the step range `[from, until)`, for
    /// time-travel inspection. The header (makespan, metrics, totals) still
    /// describes the *whole* run, so a slice is for reading, not for oracle
    /// replay; its `meta` records the window.
    pub fn slice(&self, from: u64, until: u64) -> TraceFile {
        let mut out = self.clone();
        out.events = self
            .events
            .iter()
            .filter(|e| {
                let t = event_step(e);
                from <= t && t < until
            })
            .copied()
            .collect();
        out.meta = format!("{} [slice {from}..{until})", self.meta);
        out
    }

    /// FNV-1a digest of the canonical binary encoding: a stable fingerprint
    /// for golden pins and cross-executor comparisons. `meta` is part of the
    /// bytes, so digest equality is stricter than [`TraceFile::diff`].
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }

    /// The format version this trace serialises at: [`TRACE_VERSION`]
    /// unless the event log uses the fabric-only [`Event::SentOn`] tag,
    /// which needs [`TRACE_VERSION_FABRIC`]. Keying the version on content
    /// rather than provenance keeps every ring trace — old or new — at the
    /// pinned version-1 byte image.
    pub fn wire_version(&self) -> u32 {
        if self
            .events
            .iter()
            .any(|e| matches!(e, Event::SentOn { .. }))
        {
            TRACE_VERSION_FABRIC
        } else {
            TRACE_VERSION
        }
    }

    // ---------------------------------------------------------------- binary

    /// Serialises to the `RINGTRACE` binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.events.len() * 6);
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&self.wire_version().to_le_bytes());
        put_vu64(&mut buf, self.m as u64);
        put_vu64(&mut buf, self.total_work);
        put_vu64(&mut buf, self.makespan);
        put_vu64(&mut buf, self.meta.len() as u64);
        buf.extend_from_slice(self.meta.as_bytes());
        buf.push(match self.level {
            TraceLevel::Off => 0,
            TraceLevel::Full => 1,
        });
        match &self.faults {
            None => buf.push(0),
            Some(plan) => {
                buf.push(1);
                encode_plan(&mut buf, plan);
            }
        }
        encode_metrics(&mut buf, &self.metrics);
        put_vu64(&mut buf, self.events.len() as u64);
        let mut prev_t = 0u64;
        for ev in &self.events {
            prev_t = encode_event(&mut buf, ev, prev_t);
        }
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decodes a `RINGTRACE` file. Magic, version, and checksum are checked
    /// before any payload is interpreted; every failure is a typed
    /// [`TraceFileError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceFile, TraceFileError> {
        let header = TRACE_MAGIC.len() + 4;
        if bytes.len() < header + 8 {
            if bytes.len() >= TRACE_MAGIC.len() && bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
                return Err(TraceFileError::BadMagic);
            }
            return Err(TraceFileError::UnexpectedEof);
        }
        if bytes[..TRACE_MAGIC.len()] != TRACE_MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let version = u32::from_le_bytes(
            bytes[TRACE_MAGIC.len()..header]
                .try_into()
                .expect("4 version bytes"),
        );
        if !(TRACE_VERSION..=TRACE_VERSION_FABRIC).contains(&version) {
            return Err(TraceFileError::BadVersion { found: version });
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 trailer bytes"));
        if fnv1a(&bytes[..body_end]) != stored {
            return Err(TraceFileError::BadChecksum);
        }
        let mut r = Reader::new(&bytes[header..body_end]);
        let m = r.vu64()? as usize;
        let total_work = r.vu64()?;
        let makespan = r.vu64()?;
        let meta_len = r.vu64()? as usize;
        let meta = String::from_utf8(r.bytes(meta_len)?.to_vec())
            .map_err(|_| TraceFileError::Corrupt("meta is not UTF-8"))?;
        let level = match r.u8()? {
            0 => TraceLevel::Off,
            1 => TraceLevel::Full,
            _ => return Err(TraceFileError::Corrupt("unknown trace level")),
        };
        let faults = match r.u8()? {
            0 => None,
            1 => Some(decode_plan(&mut r)?),
            _ => return Err(TraceFileError::Corrupt("unknown fault-plan flag")),
        };
        let metrics = decode_metrics(&mut r, m)?;
        let n_events = r.vu64()? as usize;
        // Every event costs at least 3 bytes; reject length prefixes that
        // could not possibly fit (guards allocation on corrupt input).
        if n_events > r.remaining() {
            return Err(TraceFileError::Corrupt("event count overruns buffer"));
        }
        let mut events = Vec::with_capacity(n_events);
        let mut prev_t = 0u64;
        for _ in 0..n_events {
            let (ev, t) = decode_event(&mut r, prev_t)?;
            prev_t = t;
            events.push(ev);
        }
        r.finish()?;
        Ok(TraceFile {
            m,
            total_work,
            makespan,
            meta,
            metrics,
            faults,
            level,
            events,
        })
    }

    /// Writes the binary encoding to `path`.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), TraceFileError> {
        std::fs::write(path, self.to_bytes()).map_err(|e| TraceFileError::Io(e.to_string()))
    }

    /// Reads and decodes a binary trace from `path`.
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<TraceFile, TraceFileError> {
        let bytes = std::fs::read(path).map_err(|e| TraceFileError::Io(e.to_string()))?;
        TraceFile::from_bytes(&bytes)
    }

    // ------------------------------------------------------------------ json

    /// Renders the trace as compact JSON — the legacy full-trace
    /// representation the binary format replaces. Fractional ledgers are
    /// emitted as their `f64::to_bits` integers, so the JSON round trip is
    /// exactly as bit-faithful as the binary one.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.events.len() * 48);
        s.push_str("{\"format\":\"ringtrace\",\"version\":");
        s.push_str(&self.wire_version().to_string());
        s.push_str(",\"m\":");
        s.push_str(&self.m.to_string());
        s.push_str(",\"total_work\":");
        s.push_str(&self.total_work.to_string());
        s.push_str(",\"makespan\":");
        s.push_str(&self.makespan.to_string());
        s.push_str(",\"meta\":");
        json_string(&mut s, &self.meta);
        s.push_str(",\"level\":");
        s.push_str(match self.level {
            TraceLevel::Off => "\"off\"",
            TraceLevel::Full => "\"full\"",
        });
        s.push_str(",\"faults\":");
        match &self.faults {
            None => s.push_str("null"),
            Some(plan) => plan_to_json(&mut s, plan),
        }
        s.push_str(",\"metrics\":");
        metrics_to_json(&mut s, &self.metrics);
        s.push_str(",\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            event_to_json(&mut s, ev);
        }
        s.push_str("]}");
        s
    }

    /// Parses a trace from the JSON produced by [`TraceFile::to_json`].
    pub fn from_json(text: &str) -> Result<TraceFile, TraceFileError> {
        let value = json::parse(text)?;
        let obj = value.as_obj("trace root")?;
        if obj.get_str("format")? != "ringtrace" {
            return Err(TraceFileError::Corrupt("format is not \"ringtrace\""));
        }
        let version = obj.get_u64("version")?;
        if !(u64::from(TRACE_VERSION)..=u64::from(TRACE_VERSION_FABRIC)).contains(&version) {
            return Err(TraceFileError::BadVersion {
                found: version.min(u64::from(u32::MAX)) as u32,
            });
        }
        let m = obj.get_u64("m")? as usize;
        let level = match obj.get_str("level")? {
            "off" => TraceLevel::Off,
            "full" => TraceLevel::Full,
            _ => return Err(TraceFileError::Corrupt("unknown trace level")),
        };
        let faults = match obj.get("faults")? {
            json::Value::Null => None,
            v => Some(plan_from_json(v)?),
        };
        let metrics = metrics_from_json(obj.get("metrics")?, m)?;
        let mut events = Vec::new();
        for ev in obj.get("events")?.as_arr("events")? {
            events.push(event_from_json(ev)?);
        }
        Ok(TraceFile {
            m,
            total_work: obj.get_u64("total_work")?,
            makespan: obj.get_u64("makespan")?,
            meta: obj.get_str("meta")?.to_string(),
            metrics,
            faults,
            level,
            events,
        })
    }
}

// --------------------------------------------------------------- primitives

pub(crate) fn put_vu64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, TraceFileError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(TraceFileError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn vu64(&mut self) -> Result<u64, TraceFileError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(TraceFileError::Corrupt("varint overflow"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceFileError::Corrupt("varint too long"));
            }
        }
    }

    pub(crate) fn u64_fixed(&mut self) -> Result<u64, TraceFileError> {
        let bytes = self.bytes(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceFileError> {
        if self.remaining() < n {
            return Err(TraceFileError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn finish(&self) -> Result<(), TraceFileError> {
        if self.remaining() != 0 {
            return Err(TraceFileError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ------------------------------------------------------------- event codec

// Event tags fold the discriminant with the send direction / drop kind so
// the common events cost one tag byte plus a few varints.
const TAG_PROCESSED: u8 = 0;
const TAG_SENT_CW: u8 = 1;
const TAG_SENT_CCW: u8 = 2;
const TAG_DROP_REGULAR: u8 = 3;
const TAG_DROP_BALANCING: u8 = 4;
const TAG_DROP_FORCED: u8 = 5;
// Version-2 (fabric) only: a send keyed by local port number.
const TAG_SENT_ON: u8 = 6;

/// Encodes one event; returns its step for the next event's delta base.
/// Deltas are *wrapping*, so even non-monotone hand-built traces round-trip
/// exactly (they just cost a long varint).
pub(crate) fn encode_event(buf: &mut Vec<u8>, ev: &Event, prev_t: u64) -> u64 {
    match *ev {
        Event::Processed { t, node, units } => {
            buf.push(TAG_PROCESSED);
            put_vu64(buf, t.wrapping_sub(prev_t));
            put_vu64(buf, node as u64);
            put_vu64(buf, units);
            t
        }
        Event::Sent {
            t,
            node,
            dir,
            job_units,
        } => {
            buf.push(match dir {
                Direction::Cw => TAG_SENT_CW,
                Direction::Ccw => TAG_SENT_CCW,
            });
            put_vu64(buf, t.wrapping_sub(prev_t));
            put_vu64(buf, node as u64);
            put_vu64(buf, job_units);
            t
        }
        Event::SentOn {
            t,
            node,
            port,
            job_units,
        } => {
            buf.push(TAG_SENT_ON);
            put_vu64(buf, t.wrapping_sub(prev_t));
            put_vu64(buf, node as u64);
            put_vu64(buf, port as u64);
            put_vu64(buf, job_units);
            t
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
            buf.push(match kind {
                DropKind::Regular => TAG_DROP_REGULAR,
                DropKind::Balancing => TAG_DROP_BALANCING,
                DropKind::Forced => TAG_DROP_FORCED,
            });
            put_vu64(buf, t.wrapping_sub(prev_t));
            put_vu64(buf, node as u64);
            put_vu64(buf, bucket);
            put_vu64(buf, units);
            buf.extend_from_slice(&frac_bits.to_le_bytes());
            buf.extend_from_slice(&cum_drop_frac_bits.to_le_bytes());
            buf.extend_from_slice(&cum_accept_frac_bits.to_le_bytes());
            put_vu64(buf, p_max_bucket);
            put_vu64(buf, p_max_node);
            t
        }
    }
}

pub(crate) fn decode_event(
    r: &mut Reader<'_>,
    prev_t: u64,
) -> Result<(Event, u64), TraceFileError> {
    let tag = r.u8()?;
    let t = prev_t.wrapping_add(r.vu64()?);
    let node = r.vu64()? as usize;
    let ev = match tag {
        TAG_PROCESSED => Event::Processed {
            t,
            node,
            units: r.vu64()?,
        },
        TAG_SENT_CW | TAG_SENT_CCW => Event::Sent {
            t,
            node,
            dir: if tag == TAG_SENT_CW {
                Direction::Cw
            } else {
                Direction::Ccw
            },
            job_units: r.vu64()?,
        },
        TAG_SENT_ON => Event::SentOn {
            t,
            node,
            port: r.vu64()? as usize,
            job_units: r.vu64()?,
        },
        TAG_DROP_REGULAR | TAG_DROP_BALANCING | TAG_DROP_FORCED => Event::DroppedOff {
            t,
            node,
            bucket: r.vu64()?,
            units: r.vu64()?,
            frac_bits: r.u64_fixed()?,
            cum_drop_frac_bits: r.u64_fixed()?,
            cum_accept_frac_bits: r.u64_fixed()?,
            p_max_bucket: r.vu64()?,
            p_max_node: r.vu64()?,
            kind: match tag {
                TAG_DROP_REGULAR => DropKind::Regular,
                TAG_DROP_BALANCING => DropKind::Balancing,
                _ => DropKind::Forced,
            },
        },
        _ => return Err(TraceFileError::Corrupt("unknown event tag")),
    };
    Ok((ev, t))
}

// -------------------------------------------------------- fault-plan codec

const LINK_DROP: u8 = 0;
const LINK_DELAY: u8 = 1;
const LINK_BANDWIDTH: u8 = 2;
const PROC_STALL: u8 = 0;
const PROC_SLOWDOWN: u8 = 1;

pub(crate) fn encode_plan(buf: &mut Vec<u8>, plan: &FaultPlan) {
    put_vu64(buf, plan.link_faults().len() as u64);
    for f in plan.link_faults() {
        put_vu64(buf, f.node as u64);
        buf.push(match f.dir {
            Direction::Cw => 0,
            Direction::Ccw => 1,
        });
        put_vu64(buf, f.from);
        put_vu64(buf, f.until);
        match f.kind {
            LinkFaultKind::Drop => buf.push(LINK_DROP),
            LinkFaultKind::Delay(d) => {
                buf.push(LINK_DELAY);
                put_vu64(buf, d);
            }
            LinkFaultKind::Bandwidth(c) => {
                buf.push(LINK_BANDWIDTH);
                put_vu64(buf, c);
            }
        }
    }
    put_vu64(buf, plan.proc_faults().len() as u64);
    for f in plan.proc_faults() {
        put_vu64(buf, f.node as u64);
        put_vu64(buf, f.from);
        put_vu64(buf, f.until);
        match f.kind {
            ProcFaultKind::Stall => buf.push(PROC_STALL),
            ProcFaultKind::Slowdown(k) => {
                buf.push(PROC_SLOWDOWN);
                put_vu64(buf, k);
            }
        }
    }
}

pub(crate) fn decode_plan(r: &mut Reader<'_>) -> Result<FaultPlan, TraceFileError> {
    let mut plan = FaultPlan::new();
    let n_link = r.vu64()? as usize;
    if n_link > r.remaining() {
        return Err(TraceFileError::Corrupt("link-fault count overruns buffer"));
    }
    for _ in 0..n_link {
        let node = r.vu64()? as usize;
        let dir = match r.u8()? {
            0 => Direction::Cw,
            1 => Direction::Ccw,
            _ => return Err(TraceFileError::Corrupt("unknown link direction")),
        };
        let from = r.vu64()?;
        let until = r.vu64()?;
        let kind = match r.u8()? {
            LINK_DROP => LinkFaultKind::Drop,
            LINK_DELAY => LinkFaultKind::Delay(r.vu64()?),
            LINK_BANDWIDTH => LinkFaultKind::Bandwidth(r.vu64()?),
            _ => return Err(TraceFileError::Corrupt("unknown link-fault kind")),
        };
        plan.add_link_fault(LinkFault {
            node,
            dir,
            from,
            until,
            kind,
        });
    }
    let n_proc = r.vu64()? as usize;
    if n_proc > r.remaining() {
        return Err(TraceFileError::Corrupt("proc-fault count overruns buffer"));
    }
    for _ in 0..n_proc {
        let node = r.vu64()? as usize;
        let from = r.vu64()?;
        let until = r.vu64()?;
        let kind = match r.u8()? {
            PROC_STALL => ProcFaultKind::Stall,
            PROC_SLOWDOWN => ProcFaultKind::Slowdown(r.vu64()?),
            _ => return Err(TraceFileError::Corrupt("unknown proc-fault kind")),
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

// ----------------------------------------------------------- metrics codec

pub(crate) fn encode_metrics(buf: &mut Vec<u8>, metrics: &Metrics) {
    put_vu64(buf, metrics.messages_sent);
    put_vu64(buf, metrics.job_hops);
    put_vu64(buf, metrics.processed_per_node.len() as u64);
    for &v in &metrics.processed_per_node {
        put_vu64(buf, v);
    }
    for &v in &metrics.busy_steps_per_node {
        put_vu64(buf, v);
    }
    put_vu64(buf, metrics.peak_inflight_jobs);
    match metrics.last_busy_step {
        None => buf.push(0),
        Some(t) => {
            buf.push(1);
            put_vu64(buf, t);
        }
    }
    put_vu64(buf, metrics.steps);
    put_vu64(buf, metrics.messages_dropped);
    put_vu64(buf, metrics.messages_delayed);
    put_vu64(buf, metrics.messages_retried);
}

pub(crate) fn decode_metrics(r: &mut Reader<'_>, m: usize) -> Result<Metrics, TraceFileError> {
    let messages_sent = r.vu64()?;
    let job_hops = r.vu64()?;
    let n = r.vu64()? as usize;
    if n != m {
        return Err(TraceFileError::Corrupt("per-node metrics disagree with m"));
    }
    if n > r.remaining() {
        return Err(TraceFileError::Corrupt("node count overruns buffer"));
    }
    let mut processed_per_node = Vec::with_capacity(n);
    for _ in 0..n {
        processed_per_node.push(r.vu64()?);
    }
    let mut busy_steps_per_node = Vec::with_capacity(n);
    for _ in 0..n {
        busy_steps_per_node.push(r.vu64()?);
    }
    let peak_inflight_jobs = r.vu64()?;
    let last_busy_step = match r.u8()? {
        0 => None,
        1 => Some(r.vu64()?),
        _ => return Err(TraceFileError::Corrupt("unknown last-busy flag")),
    };
    Ok(Metrics {
        messages_sent,
        job_hops,
        processed_per_node,
        busy_steps_per_node,
        peak_inflight_jobs,
        last_busy_step,
        steps: r.vu64()?,
        messages_dropped: r.vu64()?,
        messages_delayed: r.vu64()?,
        messages_retried: r.vu64()?,
    })
}

// ------------------------------------------------------------- json writer

fn json_string(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

fn dir_name(dir: Direction) -> &'static str {
    match dir {
        Direction::Cw => "cw",
        Direction::Ccw => "ccw",
    }
}

fn plan_to_json(s: &mut String, plan: &FaultPlan) {
    s.push_str("{\"links\":[");
    for (i, f) in plan.link_faults().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let (kind, value) = match f.kind {
            LinkFaultKind::Drop => ("drop", None),
            LinkFaultKind::Delay(d) => ("delay", Some(d)),
            LinkFaultKind::Bandwidth(c) => ("cap", Some(c)),
        };
        s.push_str(&format!(
            "{{\"node\":{},\"dir\":\"{}\",\"from\":{},\"until\":{},\"kind\":\"{}\"",
            f.node,
            dir_name(f.dir),
            f.from,
            f.until,
            kind
        ));
        if let Some(v) = value {
            s.push_str(&format!(",\"value\":{v}"));
        }
        s.push('}');
    }
    s.push_str("],\"procs\":[");
    for (i, f) in plan.proc_faults().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let (kind, value) = match f.kind {
            ProcFaultKind::Stall => ("stall", None),
            ProcFaultKind::Slowdown(k) => ("slow", Some(k)),
        };
        s.push_str(&format!(
            "{{\"node\":{},\"from\":{},\"until\":{},\"kind\":\"{}\"",
            f.node, f.from, f.until, kind
        ));
        if let Some(v) = value {
            s.push_str(&format!(",\"value\":{v}"));
        }
        s.push('}');
    }
    s.push_str("]}");
}

fn metrics_to_json(s: &mut String, metrics: &Metrics) {
    s.push_str(&format!(
        "{{\"messages_sent\":{},\"job_hops\":{},\"processed_per_node\":[",
        metrics.messages_sent, metrics.job_hops
    ));
    for (i, v) in metrics.processed_per_node.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push_str("],\"busy_steps_per_node\":[");
    for (i, v) in metrics.busy_steps_per_node.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s.push_str(&format!(
        "],\"peak_inflight_jobs\":{},\"last_busy_step\":",
        metrics.peak_inflight_jobs
    ));
    match metrics.last_busy_step {
        None => s.push_str("null"),
        Some(t) => s.push_str(&t.to_string()),
    }
    s.push_str(&format!(
        ",\"steps\":{},\"messages_dropped\":{},\"messages_delayed\":{},\"messages_retried\":{}}}",
        metrics.steps, metrics.messages_dropped, metrics.messages_delayed, metrics.messages_retried
    ));
}

fn event_to_json(s: &mut String, ev: &Event) {
    match *ev {
        Event::Processed { t, node, units } => {
            s.push_str(&format!(
                "{{\"type\":\"processed\",\"t\":{t},\"node\":{node},\"units\":{units}}}"
            ));
        }
        Event::Sent {
            t,
            node,
            dir,
            job_units,
        } => {
            s.push_str(&format!(
                "{{\"type\":\"sent\",\"t\":{t},\"node\":{node},\"dir\":\"{}\",\"job_units\":{job_units}}}",
                dir_name(dir)
            ));
        }
        Event::SentOn {
            t,
            node,
            port,
            job_units,
        } => {
            s.push_str(&format!(
                "{{\"type\":\"sent_on\",\"t\":{t},\"node\":{node},\"port\":{port},\"job_units\":{job_units}}}"
            ));
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
            let kind = match kind {
                DropKind::Regular => "regular",
                DropKind::Balancing => "balancing",
                DropKind::Forced => "forced",
            };
            s.push_str(&format!(
                "{{\"type\":\"dropped_off\",\"t\":{t},\"node\":{node},\"bucket\":{bucket},\
                 \"units\":{units},\"frac_bits\":{frac_bits},\
                 \"cum_drop_frac_bits\":{cum_drop_frac_bits},\
                 \"cum_accept_frac_bits\":{cum_accept_frac_bits},\
                 \"p_max_bucket\":{p_max_bucket},\"p_max_node\":{p_max_node},\
                 \"kind\":\"{kind}\"}}"
            ));
        }
    }
}

// ------------------------------------------------------------- json reader

mod json {
    //! A minimal JSON reader scoped to the trace schema: `null`, unsigned
    //! integers, strings, arrays, and objects. Not a general-purpose parser
    //! (no floats, no booleans — the schema never produces them).

    use super::TraceFileError;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Value {
        /// `null`.
        Null,
        /// An unsigned integer (the schema has no floats or negatives).
        Num(u64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub(super) fn as_obj(
            &self,
            what: &'static str,
        ) -> Result<&Vec<(String, Value)>, TraceFileError> {
            match self {
                Value::Obj(fields) => Ok(fields),
                _ => Err(TraceFileError::Corrupt(what)),
            }
        }

        pub(super) fn as_arr(&self, what: &'static str) -> Result<&[Value], TraceFileError> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(TraceFileError::Corrupt(what)),
            }
        }

        pub(super) fn as_u64(&self, what: &'static str) -> Result<u64, TraceFileError> {
            match self {
                Value::Num(n) => Ok(*n),
                _ => Err(TraceFileError::Corrupt(what)),
            }
        }

        pub(super) fn as_str(&self, what: &'static str) -> Result<&str, TraceFileError> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(TraceFileError::Corrupt(what)),
            }
        }
    }

    /// Field lookup on a parsed object.
    pub(super) trait ObjExt {
        /// The value of `key`, or a corrupt-trace error.
        fn get(&self, key: &'static str) -> Result<&Value, TraceFileError>;
        /// The value of `key` as a u64.
        fn get_u64(&self, key: &'static str) -> Result<u64, TraceFileError>;
        /// The value of `key` as a string slice.
        fn get_str(&self, key: &'static str) -> Result<&str, TraceFileError>;
    }

    impl ObjExt for Vec<(String, Value)> {
        fn get(&self, key: &'static str) -> Result<&Value, TraceFileError> {
            self.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(TraceFileError::Corrupt("missing field"))
        }

        fn get_u64(&self, key: &'static str) -> Result<u64, TraceFileError> {
            self.get(key)?.as_u64("field is not a number")
        }

        fn get_str(&self, key: &'static str) -> Result<&str, TraceFileError> {
            self.get(key)?.as_str("field is not a string")
        }
    }

    pub(super) fn parse(text: &str) -> Result<Value, TraceFileError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing input after value"));
        }
        Ok(value)
    }

    fn err(offset: usize, msg: &'static str) -> TraceFileError {
        TraceFileError::Json { offset, msg }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(
        bytes: &[u8],
        pos: &mut usize,
        c: u8,
        msg: &'static str,
    ) -> Result<(), TraceFileError> {
        if bytes.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(err(*pos, msg))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, TraceFileError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(err(*pos, "unexpected end of input")),
            Some(b'n') => {
                if bytes[*pos..].starts_with(b"null") {
                    *pos += 4;
                    Ok(Value::Null)
                } else {
                    Err(err(*pos, "expected null"))
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(err(*pos, "expected , or ] in array")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':', "expected : after object key")?;
                    let value = parse_value(bytes, pos)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(err(*pos, "expected , or } in object")),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *pos;
                let mut n: u64 = 0;
                while let Some(d) = bytes.get(*pos).filter(|b| b.is_ascii_digit()) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d - b'0')))
                        .ok_or_else(|| err(start, "integer overflows u64"))?;
                    *pos += 1;
                }
                Ok(Value::Num(n))
            }
            Some(_) => Err(err(*pos, "unexpected character")),
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, TraceFileError> {
        expect(bytes, pos, b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err(*pos, "unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| err(*pos, "non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(*pos, "bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err(*pos, "\\u escape is not a scalar"))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(err(*pos, "unknown escape")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the writer never splits one).
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| err(*pos, "invalid UTF-8 in string"))?;
                    let c = rest.chars().next().expect("non-empty rest");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }
}

use json::ObjExt;

fn dir_from_json(name: &str) -> Result<Direction, TraceFileError> {
    match name {
        "cw" => Ok(Direction::Cw),
        "ccw" => Ok(Direction::Ccw),
        _ => Err(TraceFileError::Corrupt("unknown direction")),
    }
}

fn plan_from_json(value: &json::Value) -> Result<FaultPlan, TraceFileError> {
    let obj = value.as_obj("faults is not an object")?;
    let mut plan = FaultPlan::new();
    for f in obj.get("links")?.as_arr("links is not an array")? {
        let f = f.as_obj("link fault is not an object")?;
        let kind = match f.get_str("kind")? {
            "drop" => LinkFaultKind::Drop,
            "delay" => LinkFaultKind::Delay(f.get_u64("value")?),
            "cap" => LinkFaultKind::Bandwidth(f.get_u64("value")?),
            _ => return Err(TraceFileError::Corrupt("unknown link-fault kind")),
        };
        plan.add_link_fault(LinkFault {
            node: f.get_u64("node")? as usize,
            dir: dir_from_json(f.get_str("dir")?)?,
            from: f.get_u64("from")?,
            until: f.get_u64("until")?,
            kind,
        });
    }
    for f in obj.get("procs")?.as_arr("procs is not an array")? {
        let f = f.as_obj("proc fault is not an object")?;
        let kind = match f.get_str("kind")? {
            "stall" => ProcFaultKind::Stall,
            "slow" => ProcFaultKind::Slowdown(f.get_u64("value")?),
            _ => return Err(TraceFileError::Corrupt("unknown proc-fault kind")),
        };
        plan.add_proc_fault(ProcFault {
            node: f.get_u64("node")? as usize,
            from: f.get_u64("from")?,
            until: f.get_u64("until")?,
            kind,
        });
    }
    Ok(plan)
}

fn metrics_from_json(value: &json::Value, m: usize) -> Result<Metrics, TraceFileError> {
    let obj = value.as_obj("metrics is not an object")?;
    let nums = |key: &'static str| -> Result<Vec<u64>, TraceFileError> {
        obj.get(key)?
            .as_arr("per-node metric is not an array")?
            .iter()
            .map(|v| v.as_u64("per-node metric is not a number"))
            .collect()
    };
    let processed_per_node = nums("processed_per_node")?;
    let busy_steps_per_node = nums("busy_steps_per_node")?;
    if processed_per_node.len() != m || busy_steps_per_node.len() != m {
        return Err(TraceFileError::Corrupt("per-node metrics disagree with m"));
    }
    Ok(Metrics {
        messages_sent: obj.get_u64("messages_sent")?,
        job_hops: obj.get_u64("job_hops")?,
        processed_per_node,
        busy_steps_per_node,
        peak_inflight_jobs: obj.get_u64("peak_inflight_jobs")?,
        last_busy_step: match obj.get("last_busy_step")? {
            json::Value::Null => None,
            v => Some(v.as_u64("last_busy_step is not a number")?),
        },
        steps: obj.get_u64("steps")?,
        messages_dropped: obj.get_u64("messages_dropped")?,
        messages_delayed: obj.get_u64("messages_delayed")?,
        messages_retried: obj.get_u64("messages_retried")?,
    })
}

fn event_from_json(value: &json::Value) -> Result<Event, TraceFileError> {
    let obj = value.as_obj("event is not an object")?;
    let t = obj.get_u64("t")?;
    let node = obj.get_u64("node")? as usize;
    match obj.get_str("type")? {
        "processed" => Ok(Event::Processed {
            t,
            node,
            units: obj.get_u64("units")?,
        }),
        "sent" => Ok(Event::Sent {
            t,
            node,
            dir: dir_from_json(obj.get_str("dir")?)?,
            job_units: obj.get_u64("job_units")?,
        }),
        "sent_on" => Ok(Event::SentOn {
            t,
            node,
            port: obj.get_u64("port")? as usize,
            job_units: obj.get_u64("job_units")?,
        }),
        "dropped_off" => Ok(Event::DroppedOff {
            t,
            node,
            bucket: obj.get_u64("bucket")?,
            units: obj.get_u64("units")?,
            frac_bits: obj.get_u64("frac_bits")?,
            cum_drop_frac_bits: obj.get_u64("cum_drop_frac_bits")?,
            cum_accept_frac_bits: obj.get_u64("cum_accept_frac_bits")?,
            p_max_bucket: obj.get_u64("p_max_bucket")?,
            p_max_node: obj.get_u64("p_max_node")?,
            kind: match obj.get_str("kind")? {
                "regular" => DropKind::Regular,
                "balancing" => DropKind::Balancing,
                "forced" => DropKind::Forced,
                _ => return Err(TraceFileError::Corrupt("unknown drop kind")),
            },
        }),
        _ => Err(TraceFileError::Corrupt("unknown event type")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, Node, NodeCtx, Payload, StepIo};
    use crate::instance::Instance;

    /// A hand-built trace exercising every event kind, tag, and fault
    /// family. Not oracle-consistent — codec tests only; the workspace-level
    /// `trace_oracle` suite round-trips real §6 algorithm runs.
    fn sample_trace() -> TraceFile {
        let plan = FaultPlan::parse(
            "drop:3cw@2..5;delay=2:0ccw@1..3;cap=1:7cw@3..9;stall:1@0..4;slow=3:2@8..40",
            8,
        )
        .unwrap();
        let mut events = Vec::new();
        for t in 0..40u64 {
            events.push(Event::Processed {
                t,
                node: (t as usize) % 8,
                units: 1,
            });
            events.push(Event::Sent {
                t,
                node: (t as usize + 3) % 8,
                dir: if t % 2 == 0 {
                    Direction::Cw
                } else {
                    Direction::Ccw
                },
                job_units: t % 5,
            });
            if t % 4 == 0 {
                events.push(Event::DroppedOff {
                    t,
                    node: (t as usize + 5) % 8,
                    bucket: t / 4,
                    units: 1,
                    frac_bits: (0.25f64 * t as f64).to_bits(),
                    cum_drop_frac_bits: (0.5f64 + t as f64).to_bits(),
                    cum_accept_frac_bits: (0.75f64 + t as f64).to_bits(),
                    p_max_bucket: t % 3,
                    p_max_node: t % 7,
                    kind: match t % 3 {
                        0 => DropKind::Regular,
                        1 => DropKind::Balancing,
                        _ => DropKind::Forced,
                    },
                });
            }
        }
        let metrics = Metrics {
            messages_sent: 40,
            job_hops: 77,
            processed_per_node: vec![5; 8],
            busy_steps_per_node: vec![5; 8],
            peak_inflight_jobs: 4,
            last_busy_step: Some(39),
            steps: 40,
            messages_dropped: 3,
            messages_delayed: 2,
            messages_retried: 1,
        };
        TraceFile {
            m: 8,
            total_work: 40,
            makespan: 40,
            meta: "unit-test \"sample\"\nwith escapes".to_string(),
            metrics,
            faults: Some(plan),
            level: TraceLevel::Full,
            events,
        }
    }

    struct LocalOnly {
        remaining: u64,
    }

    #[derive(Debug, Clone)]
    enum NoMsg {}

    impl Payload for NoMsg {
        fn job_units(&self) -> u64 {
            match *self {}
        }
    }

    impl Node for LocalOnly {
        type Msg = NoMsg;

        fn on_step(&mut self, _ctx: &NodeCtx, _io: &mut StepIo<'_, NoMsg>) -> u64 {
            if self.remaining > 0 {
                self.remaining -= 1;
                1
            } else {
                0
            }
        }

        fn pending_work(&self) -> u64 {
            self.remaining
        }
    }

    #[test]
    fn captured_engine_run_is_oracle_clean_after_round_trip() {
        let inst = Instance::from_loads(vec![4, 0, 2, 1]);
        let nodes: Vec<LocalOnly> = inst
            .loads()
            .iter()
            .map(|&x| LocalOnly { remaining: x })
            .collect();
        let config = EngineConfig {
            trace: TraceLevel::Full,
            ..EngineConfig::default()
        };
        let report = Engine::new(nodes, inst.total_work(), config).run().unwrap();
        let tf = TraceFile::from_report(&report, None, "local-only");
        assert_eq!(tf.m, 4);
        assert_eq!(tf.total_work, 7);
        assert!(tf.check().is_empty());
        let back = TraceFile::from_bytes(&tf.to_bytes()).unwrap();
        assert!(back.check().is_empty());
        assert_eq!(back.to_report(), {
            let mut r = report.clone();
            r.observability = None;
            r
        });
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let tf = sample_trace();
        let bytes = tf.to_bytes();
        let back = TraceFile::from_bytes(&bytes).unwrap();
        assert_eq!(tf, back);
        assert_eq!(tf.digest(), back.digest());
    }

    #[test]
    fn binary_beats_json_by_a_wide_margin() {
        let tf = sample_trace();
        let binary = tf.to_bytes().len();
        let json = tf.to_json().len();
        assert!(
            binary * 4 <= json,
            "binary {binary} bytes vs json {json} bytes"
        );
    }

    #[test]
    fn json_round_trip_is_exact() {
        let tf = sample_trace();
        let back = TraceFile::from_json(&tf.to_json()).unwrap();
        assert_eq!(tf, back);
    }

    /// A `SentOn` event (topology-generic send) promotes the file to the
    /// fabric version; everything else stays at the pinned ring version.
    #[test]
    fn sent_on_events_bump_the_wire_version() {
        let mut tf = sample_trace();
        assert_eq!(tf.wire_version(), TRACE_VERSION);
        tf.events.push(Event::SentOn {
            t: 41,
            node: 2,
            port: 3,
            job_units: 5,
        });
        assert_eq!(tf.wire_version(), TRACE_VERSION_FABRIC);
        let bytes = tf.to_bytes();
        assert_eq!(
            u32::from_le_bytes(
                bytes[TRACE_MAGIC.len()..TRACE_MAGIC.len() + 4]
                    .try_into()
                    .unwrap()
            ),
            TRACE_VERSION_FABRIC
        );
        let back = TraceFile::from_bytes(&bytes).unwrap();
        assert_eq!(tf, back);
        let back = TraceFile::from_json(&tf.to_json()).unwrap();
        assert_eq!(tf, back);
    }

    #[test]
    fn corruption_fails_closed() {
        let tf = sample_trace();
        let bytes = tf.to_bytes();

        // Truncations at every prefix length: typed error, never a panic.
        for len in 0..bytes.len() {
            let err = TraceFile::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceFileError::UnexpectedEof
                        | TraceFileError::BadChecksum
                        | TraceFileError::Corrupt(_)
                ),
                "prefix {len}: {err:?}"
            );
        }

        // Any single bit flip in the body is caught by the checksum (or the
        // magic/version checks that precede it).
        for byte in [0, 5, 12, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x40;
            assert!(TraceFile::from_bytes(&bad).is_err(), "flip at {byte}");
        }

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            TraceFile::from_bytes(&bad).unwrap_err(),
            TraceFileError::BadMagic
        );

        // Future version (checksum fixed up so only the version differs).
        let mut future = bytes.clone();
        future[TRACE_MAGIC.len()..TRACE_MAGIC.len() + 4]
            .copy_from_slice(&(TRACE_VERSION_FABRIC + 1).to_le_bytes());
        let body_end = future.len() - 8;
        let sum = fnv1a(&future[..body_end]);
        future[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            TraceFile::from_bytes(&future).unwrap_err(),
            TraceFileError::BadVersion {
                found: TRACE_VERSION_FABRIC + 1
            }
        );
    }

    #[test]
    fn diff_ignores_meta_but_not_events() {
        let tf = sample_trace();
        let mut relabeled = tf.clone();
        relabeled.meta = "same run, different executor".to_string();
        assert_eq!(tf.diff(&relabeled), None);
        assert_ne!(tf.digest(), relabeled.digest(), "digest does cover meta");

        let mut tampered = tf.clone();
        let last = tampered.events.len() - 1;
        match &mut tampered.events[last] {
            Event::Processed { units, .. }
            | Event::Sent {
                job_units: units, ..
            }
            | Event::SentOn {
                job_units: units, ..
            } => *units += 1,
            Event::DroppedOff { units, .. } => *units += 1,
        }
        match tf.diff(&tampered) {
            Some(TraceDiff::Event { index, .. }) => assert_eq!(index, last),
            other => panic!("expected event diff, got {other:?}"),
        }

        let mut shorter = tf.clone();
        shorter.events.pop();
        assert!(matches!(
            tf.diff(&shorter),
            Some(TraceDiff::Event { right: None, .. })
        ));
    }

    #[test]
    fn slice_keeps_only_the_window() {
        let tf = sample_trace();
        let lo = tf.makespan / 3;
        let hi = 2 * tf.makespan / 3;
        let sliced = tf.slice(lo, hi);
        assert!(!sliced.events.is_empty());
        for ev in &sliced.events {
            let t = event_step(ev);
            assert!(lo <= t && t < hi);
        }
        assert!(sliced.meta.contains("slice"));
    }

    #[test]
    fn violation_step_extracts_where_it_can() {
        assert_eq!(
            violation_step(&OracleViolation::Overwork {
                node: 1,
                step: 9,
                units: 2
            }),
            Some(9)
        );
        assert_eq!(
            violation_step(&OracleViolation::TotalMismatch {
                processed: 1,
                expected: 2
            }),
            None
        );
    }
}
