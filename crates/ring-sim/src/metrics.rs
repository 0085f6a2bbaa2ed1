//! Aggregate run metrics collected by the engine on every run, regardless of
//! trace level, plus the opt-in per-step [`Observability`] time series.

use serde::{Deserialize, Serialize};

/// Aggregate counters for one simulation run.
///
/// These are cheap to maintain (O(1) per message / per step), so the engine
/// always collects them; detailed per-event data lives in
/// [`crate::trace::Trace`] and is opt-in.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Total number of *logical* messages sent over all links and steps. A
    /// count-coalesced arena entry ([`crate::Coalesce`]) contributes its
    /// [`crate::Payload::run_len`], so the counter is representation-
    /// independent: the same stream reports the same number whether it was
    /// sent one unit message at a time or as run-length entries.
    pub messages_sent: u64,
    /// Total job-units × hops moved. One job travelling `d` hops contributes
    /// `d` (this is the total communication volume of the schedule).
    pub job_hops: u64,
    /// Units of work processed by each node.
    pub processed_per_node: Vec<u64>,
    /// Number of steps in which each node processed work.
    pub busy_steps_per_node: Vec<u64>,
    /// The largest total job payload in flight at the end of any step.
    pub peak_inflight_jobs: u64,
    /// Last step index in which any node processed work (`None` if the
    /// instance was empty).
    pub last_busy_step: Option<u64>,
    /// Number of steps actually simulated.
    pub steps: u64,
    /// Fault injection: logical-message × step drop events on downed links
    /// (each step a queued message is refused by a dropping link counts
    /// once; coalesced runs count [`crate::Payload::run_len`]).
    pub messages_dropped: u64,
    /// Fault injection: logical-message × step hold events for non-drop
    /// reasons (delay epochs and bandwidth backlog).
    pub messages_delayed: u64,
    /// Fault injection: logical messages that departed only after at least
    /// one failed attempt (the retry rule succeeding).
    pub messages_retried: u64,
}

impl Metrics {
    pub(crate) fn new(m: usize) -> Self {
        Metrics {
            processed_per_node: vec![0; m],
            busy_steps_per_node: vec![0; m],
            ..Metrics::default()
        }
    }

    /// Total units of work processed across all nodes.
    pub fn total_processed(&self) -> u64 {
        self.processed_per_node.iter().sum()
    }

    /// Mean node utilization over the makespan: busy steps / (m × makespan).
    /// Returns 1.0 for an empty run (vacuously fully utilized).
    pub fn utilization(&self) -> f64 {
        let makespan = match self.last_busy_step {
            Some(t) => t + 1,
            None => return 1.0,
        };
        let busy: u64 = self.busy_steps_per_node.iter().sum();
        busy as f64 / (makespan as f64 * self.processed_per_node.len() as f64)
    }
}

/// One step of the opt-in observability time series.
///
/// Every counter is an exact integer so samples compare bit-for-bit across
/// runs; derived floating-point views (imbalance, utilization) are computed
/// on demand from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepSample {
    /// Step index.
    pub t: u64,
    /// Job payload delivered to nodes at the start of this step (sent during
    /// step `t - 1`).
    pub delivered_payload: u64,
    /// Job payload put in flight during this step (delivered at `t + 1`).
    pub sent_payload: u64,
    /// Logical messages sent during this step (control and job-carrying
    /// alike; coalesced runs count [`crate::Payload::run_len`] each).
    pub messages: u64,
    /// Work units processed during this step.
    pub processed: u64,
    /// Payload that stopped travelling this step: delivered to some node and
    /// not forwarded onward (the bucket algorithms' "drop-off").
    pub dropped_off: u64,
    /// Largest resident backlog ([`crate::Node::pending_work`]) on any node
    /// at the end of this step.
    pub max_pending: u64,
    /// Total resident backlog across all nodes at the end of this step.
    pub total_pending: u64,
    /// Messages refused by downed links during this step (fault injection).
    pub link_dropped: u64,
    /// Messages held back by delay epochs or bandwidth backlog during this
    /// step (fault injection).
    pub link_delayed: u64,
    /// Messages that departed this step after at least one failed attempt
    /// (fault injection).
    pub link_retried: u64,
}

/// Cumulative per-link counters, indexed by the *sending* node. The
/// clockwise entry of node `i` describes the directed link `i → i + 1`; the
/// counterclockwise entry the link `i → i - 1`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Logical messages sent clockwise by each node (a coalesced run counts
    /// [`crate::Payload::run_len`], not 1 — the series is identical whichever
    /// representation carried the units).
    pub cw_messages: Vec<u64>,
    /// Logical messages sent counterclockwise by each node (run-length
    /// weighted, like `cw_messages`).
    pub ccw_messages: Vec<u64>,
    /// Job payload sent clockwise by each node.
    pub cw_payload: Vec<u64>,
    /// Job payload sent counterclockwise by each node.
    pub ccw_payload: Vec<u64>,
    /// Steps in which each node's clockwise link carried at least one
    /// message.
    pub cw_busy_steps: Vec<u64>,
    /// Steps in which each node's counterclockwise link carried at least one
    /// message.
    pub ccw_busy_steps: Vec<u64>,
}

impl LinkStats {
    fn new(m: usize) -> Self {
        LinkStats {
            cw_messages: vec![0; m],
            ccw_messages: vec![0; m],
            cw_payload: vec![0; m],
            ccw_payload: vec![0; m],
            cw_busy_steps: vec![0; m],
            ccw_busy_steps: vec![0; m],
        }
    }
}

/// Opt-in per-step observability of a run ([`crate::EngineConfig::observe`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Observability {
    /// Ring size.
    pub num_processors: usize,
    /// One sample per simulated step, in step order.
    pub samples: Vec<StepSample>,
    /// Cumulative per-link counters.
    pub links: LinkStats,
    /// Cumulative payload dropped off (delivered and not forwarded) at each
    /// node.
    pub dropoffs_per_node: Vec<u64>,
}

impl Observability {
    /// An empty observability record for an `m`-ring.
    pub(crate) fn new(m: usize) -> Self {
        Observability {
            num_processors: m,
            samples: Vec::new(),
            links: LinkStats::new(m),
            dropoffs_per_node: vec![0; m],
        }
    }

    /// Records one node's sends during the current step.
    pub(crate) fn record_sends(
        &mut self,
        node: usize,
        cw_messages: u64,
        cw_payload: u64,
        ccw_messages: u64,
        ccw_payload: u64,
    ) {
        if cw_messages > 0 {
            self.links.cw_messages[node] += cw_messages;
            self.links.cw_payload[node] += cw_payload;
            self.links.cw_busy_steps[node] += 1;
        }
        if ccw_messages > 0 {
            self.links.ccw_messages[node] += ccw_messages;
            self.links.ccw_payload[node] += ccw_payload;
            self.links.ccw_busy_steps[node] += 1;
        }
    }

    /// Per-step load imbalance: `max_i pending_i − mean pending` at the end
    /// of each step.
    pub fn imbalance_series(&self) -> Vec<f64> {
        let m = self.num_processors.max(1) as f64;
        self.samples
            .iter()
            .map(|s| s.max_pending as f64 - s.total_pending as f64 / m)
            .collect()
    }

    /// Largest per-step load imbalance over the run (0 for an empty run).
    pub fn peak_imbalance(&self) -> f64 {
        self.imbalance_series().into_iter().fold(0.0, f64::max)
    }

    /// Per-step job payload in flight (what was sent during each step).
    pub fn inflight_series(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.sent_payload).collect()
    }

    /// Per-step fault dynamics: `(dropped, delayed, retried)` message
    /// counts for every simulated step (all zeros without a fault plan).
    pub fn fault_series(&self) -> Vec<(u64, u64, u64)> {
        self.samples
            .iter()
            .map(|s| (s.link_dropped, s.link_delayed, s.link_retried))
            .collect()
    }

    /// Fraction of steps in which each node's links carried at least one
    /// message, averaged over both directions. Empty runs report all zeros.
    pub fn link_utilization(&self) -> Vec<f64> {
        let steps = self.samples.len() as f64;
        if steps == 0.0 {
            return vec![0.0; self.num_processors];
        }
        (0..self.num_processors)
            .map(|i| {
                (self.links.cw_busy_steps[i] + self.links.ccw_busy_steps[i]) as f64 / (2.0 * steps)
            })
            .collect()
    }

    /// Serializes the record as JSON (hand-written: the build environment's
    /// serde is a no-op shim, and the format is simple enough to emit
    /// directly).
    pub fn to_json(&self) -> String {
        fn u64s(v: &[u64]) -> String {
            let items: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"t\":{},\"delivered_payload\":{},\"sent_payload\":{},\
                     \"messages\":{},\"processed\":{},\"dropped_off\":{},\
                     \"max_pending\":{},\"total_pending\":{},\
                     \"link_dropped\":{},\"link_delayed\":{},\"link_retried\":{}}}",
                    s.t,
                    s.delivered_payload,
                    s.sent_payload,
                    s.messages,
                    s.processed,
                    s.dropped_off,
                    s.max_pending,
                    s.total_pending,
                    s.link_dropped,
                    s.link_delayed,
                    s.link_retried
                )
            })
            .collect();
        format!(
            "{{\"num_processors\":{},\"samples\":[{}],\"links\":{{\
             \"cw_messages\":{},\"ccw_messages\":{},\"cw_payload\":{},\
             \"ccw_payload\":{},\"cw_busy_steps\":{},\"ccw_busy_steps\":{}}},\
             \"dropoffs_per_node\":{}}}",
            self.num_processors,
            samples.join(","),
            u64s(&self.links.cw_messages),
            u64s(&self.links.ccw_messages),
            u64s(&self.links.cw_payload),
            u64s(&self.links.ccw_payload),
            u64s(&self.links.cw_busy_steps),
            u64s(&self.links.ccw_busy_steps),
            u64s(&self.dropoffs_per_node)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_of_empty_run_is_one() {
        let m = Metrics::new(4);
        assert_eq!(m.utilization(), 1.0);
    }

    #[test]
    fn utilization_counts_busy_fraction() {
        let mut m = Metrics::new(2);
        m.last_busy_step = Some(3); // makespan 4, capacity 8 busy-steps
        m.busy_steps_per_node = vec![4, 2];
        assert!((m.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn total_processed_sums_nodes() {
        let mut m = Metrics::new(3);
        m.processed_per_node = vec![1, 2, 3];
        assert_eq!(m.total_processed(), 6);
    }

    #[test]
    fn imbalance_is_max_minus_mean() {
        let mut o = Observability::new(4);
        o.samples.push(StepSample {
            t: 0,
            max_pending: 10,
            total_pending: 16,
            ..StepSample::default()
        });
        // 10 - 16/4 = 6
        assert_eq!(o.imbalance_series(), vec![6.0]);
        assert_eq!(o.peak_imbalance(), 6.0);
    }

    #[test]
    fn json_round_trips_basic_shape() {
        let mut o = Observability::new(2);
        o.samples.push(StepSample {
            t: 0,
            processed: 2,
            ..StepSample::default()
        });
        o.dropoffs_per_node = vec![1, 0];
        let json = o.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"num_processors\":2"));
        assert!(json.contains("\"processed\":2"));
        assert!(json.contains("\"dropoffs_per_node\":[1,0]"));
    }
}
