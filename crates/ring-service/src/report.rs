//! Service accounting: per-epoch samples, sojourn-latency summaries, and
//! the JSON rendering (hand-written, in the style of
//! [`ring_sim::Observability::to_json`] — the offline toolchain has no
//! serde_json).

use crate::types::{LogEntry, Outcome, ShedReason};
use ring_stats::LatencyHistogram;

/// One processed epoch boundary with activity. Boundaries at which nothing
/// happened (no engine rounds, no admissions, sheds, or completions) are
/// not recorded — the virtual clock fast-forwards over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSample {
    /// The boundary (virtual step).
    pub at: u64,
    /// Admitted-but-incomplete jobs after processing the boundary.
    pub queue_depth: u64,
    /// Jobs admitted at this boundary.
    pub admitted: u64,
    /// Jobs whose completion was attributed to this boundary.
    pub completed: u64,
    /// Jobs shed at this boundary.
    pub shed: u64,
    /// Engine rounds simulated to reach this boundary: the epoch, or fewer
    /// when the generation finished inside it.
    pub engine_rounds: u64,
}

/// Sojourn-latency percentiles over completed jobs (nearest-rank, exact:
/// computed from the full [`LatencyHistogram`], not a sketch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Completed jobs measured.
    pub count: u64,
    /// Mean sojourn in virtual steps.
    pub mean: f64,
    /// Median sojourn.
    pub p50: u64,
    /// 95th-percentile sojourn.
    pub p95: u64,
    /// 99th-percentile sojourn.
    pub p99: u64,
    /// Largest sojourn.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes a histogram (all zeros when nothing completed).
    pub fn of(h: &LatencyHistogram) -> LatencySummary {
        if h.total() == 0 {
            return LatencySummary {
                count: 0,
                mean: 0.0,
                p50: 0,
                p95: 0,
                p99: 0,
                max: 0,
            };
        }
        LatencySummary {
            count: h.total(),
            mean: h.mean().unwrap_or(0.0),
            p50: h.p50().unwrap_or(0),
            p95: h.p95().unwrap_or(0),
            p99: h.p99().unwrap_or(0),
            max: h.max().unwrap_or(0),
        }
    }
}

/// A point-in-time accounting snapshot of a [`crate::Service`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Last processed epoch boundary.
    pub now: u64,
    /// Epoch length.
    pub epoch: u64,
    /// Ring size.
    pub m: usize,
    /// Jobs submitted through handles (admitted or not).
    pub submitted_jobs: u64,
    /// Jobs admitted into the ring.
    pub admitted_jobs: u64,
    /// Jobs completed.
    pub completed_jobs: u64,
    /// Jobs shed for queue overflow.
    pub shed_queue_overflow: u64,
    /// Jobs shed for predicted SLO violation.
    pub shed_slo: u64,
    /// Jobs shed because the service was draining.
    pub shed_draining: u64,
    /// Admitted-but-incomplete jobs right now.
    pub outstanding: u64,
    /// Largest `outstanding` ever observed at a boundary.
    pub peak_outstanding: u64,
    /// Scheduling generations started (busy periods of the ring).
    pub generations: u64,
    /// Engine rounds executed across all generations.
    pub engine_rounds: u64,
    /// Sojourn latency over completed jobs.
    pub latency: LatencySummary,
    /// Per-boundary activity series.
    pub samples: Vec<EpochSample>,
}

impl ServiceReport {
    /// Total shed jobs across all reasons.
    pub fn shed_jobs(&self) -> u64 {
        self.shed_queue_overflow + self.shed_slo + self.shed_draining
    }

    /// Renders the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"now\": {}, \"epoch\": {}, \"m\": {}, ",
            self.now, self.epoch, self.m
        ));
        out.push_str(&format!(
            "\"submitted_jobs\": {}, \"admitted_jobs\": {}, \"completed_jobs\": {}, ",
            self.submitted_jobs, self.admitted_jobs, self.completed_jobs
        ));
        out.push_str(&format!(
            "\"shed\": {{\"queue_overflow\": {}, \"slo_exceeded\": {}, \"draining\": {}}}, ",
            self.shed_queue_overflow, self.shed_slo, self.shed_draining
        ));
        out.push_str(&format!(
            "\"outstanding\": {}, \"peak_outstanding\": {}, \"generations\": {}, \"engine_rounds\": {}, ",
            self.outstanding, self.peak_outstanding, self.generations, self.engine_rounds
        ));
        out.push_str(&format!(
            "\"latency\": {{\"count\": {}, \"mean\": {:.3}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}, ",
            self.latency.count,
            self.latency.mean,
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.max
        ));
        out.push_str("\"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"at\": {}, \"queue_depth\": {}, \"admitted\": {}, \"completed\": {}, \"shed\": {}, \"engine_rounds\": {}}}",
                s.at, s.queue_depth, s.admitted, s.completed, s.shed, s.engine_rounds
            ));
        }
        out.push_str("]}");
        out
    }
}

/// FNV-1a digest over a completion log — the reproducibility fingerprint
/// the seeded load generator reports (fixed seed ⇒ fixed digest, across
/// runs, executors, and shard counts).
pub fn log_digest(log: &[LogEntry]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in log {
        eat(e.ticket.client as u64);
        eat(e.ticket.seq);
        eat(e.processor as u64);
        eat(e.jobs);
        eat(e.tag);
        eat(e.at);
        eat(match e.outcome {
            Outcome::Completed => 0,
            Outcome::Shed(ShedReason::QueueOverflow) => 1,
            Outcome::Shed(ShedReason::SloExceeded) => 2,
            Outcome::Shed(ShedReason::Draining) => 3,
        });
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ticket;

    #[test]
    fn latency_summary_of_empty_histogram_is_zero() {
        let s = LatencySummary::of(&LatencyHistogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let a = LogEntry {
            ticket: Ticket { client: 0, seq: 0 },
            processor: 1,
            jobs: 5,
            tag: 10,
            at: 32,
            outcome: Outcome::Completed,
        };
        let b = LogEntry {
            ticket: Ticket { client: 1, seq: 0 },
            processor: 2,
            jobs: 5,
            tag: 10,
            at: 64,
            outcome: Outcome::Shed(ShedReason::SloExceeded),
        };
        assert_ne!(log_digest(&[a, b]), log_digest(&[b, a]));
        assert_ne!(log_digest(&[a]), log_digest(&[b]));
        assert_eq!(log_digest(&[a, b]), log_digest(&[a, b]));
    }
}
