//! Optional per-event traces of a simulation run.
//!
//! Full traces grow with (steps × messages), so they are opt-in via
//! [`TraceLevel`]; large experiment sweeps run with [`TraceLevel::Off`] and
//! rely on [`crate::Metrics`] plus the engine's built-in conservation checks.

use serde::{Deserialize, Serialize};

use crate::topology::Direction;

/// How much event detail the engine records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TraceLevel {
    /// Record nothing (metrics only).
    #[default]
    Off,
    /// Record every processing and send event.
    Full,
}

/// Why a scheduling policy permanently kept (dropped off) work at a node.
///
/// Recorded on [`Event::DroppedOff`] so the [`crate::oracle`] knows which
/// invariant governs the event: `Regular` drops are bound by the paper's
/// I1/I2 (unit) or A1/A2 (arbitrary-size) rounding constraints; `Balancing`
/// drops follow the Lemma 5 wrap-around rule instead; `Forced` drops are
/// exempt from both (spill after a second lap, or a singleton ring keeping
/// everything).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropKind {
    /// A rounding-constrained drop in the bucket's first lap.
    Regular,
    /// A Lemma 5 wrap-around balancing drop (bucket lapped the ring).
    Balancing,
    /// A drop exempt from the cumulative constraints (spill, singleton
    /// ring).
    Forced,
}

/// One recorded simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// `node` processed `units` units of work during step `t`.
    Processed {
        /// Step index.
        t: u64,
        /// Processor index.
        node: usize,
        /// Units processed (0 or 1 in the paper's model; the engine enforces
        /// ≤ 1 but records the claimed value).
        units: u64,
    },
    /// `node` sent a message carrying `job_units` of job payload in
    /// direction `dir` during step `t` (delivered at `t + 1`).
    Sent {
        /// Step index.
        t: u64,
        /// Sending processor.
        node: usize,
        /// Travel direction.
        dir: Direction,
        /// Job payload carried.
        job_units: u64,
    },
    /// `node` sent a message carrying `job_units` of job payload out of
    /// local link `port` during step `t` (delivered at `t + 1`).
    ///
    /// The topology-generic form of [`Event::Sent`], recorded by the fabric
    /// engine where links are numbered by port rather than cw/ccw. Ring
    /// runs keep emitting `Sent` (ports 0/1 are exactly cw/ccw), so ring
    /// trace bytes are unchanged; `SentOn` only appears in traces of
    /// non-ring topologies, which are written at the bumped
    /// [`crate::tracefile::TRACE_VERSION_FABRIC`].
    SentOn {
        /// Step index.
        t: u64,
        /// Sending node.
        node: usize,
        /// Local out-link (port) index at the sender.
        port: usize,
        /// Job payload carried.
        job_units: u64,
    },
    /// `node` permanently accepted work out of bucket `bucket` during step
    /// `t`, together with the cumulative ledgers the policy used to justify
    /// it. Fractional ledgers are stored as [`f64::to_bits`] so the event
    /// stays `Eq` and merges bit-for-bit across executors.
    DroppedOff {
        /// Step index.
        t: u64,
        /// Accepting processor.
        node: usize,
        /// Identifier of the bucket the work came from (unique per emitted
        /// bucket within one run).
        bucket: u64,
        /// Integral work units accepted by this event.
        units: u64,
        /// Fractional (shadow) work accepted by this event, as bits.
        frac_bits: u64,
        /// Bucket-cumulative fractional drop after this event, as bits
        /// (the I1/A1 reference level).
        cum_drop_frac_bits: u64,
        /// Node-cumulative fractional acceptance after this event, as bits
        /// (the I2/A2 reference level).
        cum_accept_frac_bits: u64,
        /// Largest job size seen by the bucket so far (0 for unit jobs).
        p_max_bucket: u64,
        /// Largest job size seen by the node so far (0 for unit jobs).
        p_max_node: u64,
        /// Which invariant family governs this drop.
        kind: DropKind,
    },
}

/// An ordered log of [`Event`]s for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<Event>,
    level: TraceLevel,
}

impl Trace {
    pub(crate) fn new(level: TraceLevel) -> Self {
        Trace {
            events: Vec::new(),
            level,
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, ev: Event) {
        if matches!(self.level, TraceLevel::Full) {
            self.events.push(ev);
        }
    }

    /// Builds a trace directly from an event list. Intended for tests that
    /// construct (or deliberately corrupt) traces to exercise the
    /// [`crate::oracle`]; the engine itself only records through the normal
    /// path.
    pub fn from_events(level: TraceLevel, events: Vec<Event>) -> Self {
        Trace { events, level }
    }

    /// The level this trace was recorded at.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// All recorded events, in engine order (grouped by step, then by node).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events of a particular step.
    pub fn step_events(&self, t: u64) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| match e {
            Event::Processed { t: et, .. }
            | Event::Sent { t: et, .. }
            | Event::SentOn { t: et, .. }
            | Event::DroppedOff { t: et, .. } => *et == t,
        })
    }

    /// Total units processed according to the trace.
    pub fn total_processed(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::Processed { units, .. } => *units,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_trace_records_nothing() {
        let mut tr = Trace::new(TraceLevel::Off);
        tr.record(Event::Processed {
            t: 0,
            node: 0,
            units: 1,
        });
        assert!(tr.events().is_empty());
    }

    #[test]
    fn full_trace_records_and_filters_by_step() {
        let mut tr = Trace::new(TraceLevel::Full);
        tr.record(Event::Processed {
            t: 0,
            node: 0,
            units: 1,
        });
        tr.record(Event::Sent {
            t: 1,
            node: 0,
            dir: Direction::Cw,
            job_units: 3,
        });
        tr.record(Event::Processed {
            t: 1,
            node: 1,
            units: 1,
        });
        assert_eq!(tr.events().len(), 3);
        assert_eq!(tr.step_events(1).count(), 2);
        assert_eq!(tr.total_processed(), 2);
    }
}
