//! # ring-compete — the competitive-analysis harness
//!
//! The repo computes exact optima (`ring-opt`) and runs online schedulers
//! (the six §6 bucket algorithms on the engine, the `ring-sched::online`
//! policy suite, and the `ring-service` epoch loop) — this crate closes
//! the loop between them. It takes any arrival script (or any service
//! completion log, via the deterministic virtual-time protocol), re-solves
//! the revealed instance *offline* with `ring-opt`'s exact solver —
//! extended with release-time-aware lower bounds where the exact solver
//! does not apply — and reports the empirical competitive ratio
//! `online makespan / offline optimum`.
//!
//! Every denominator is either the exact dynamic optimum or an explicitly
//! flagged certified lower bound (mirroring the paper's §6.2, where
//! intractable optima were substituted by lower bounds); either way the
//! reported ratio is never an overestimate of the true competitive ratio,
//! and because every online run is a feasible schedule of the offline
//! model, it is never below 1.
//!
//! ```
//! use ring_compete::{measure_suite, Script};
//!
//! // A spike train on a 32-ring, measured for all six §6 algorithms plus
//! // the migration-budget and multi-list online policies.
//! let script = Script::new(
//!     "spikes",
//!     32,
//!     &ring_workloads::adversary::spike_train(32, 4, 8, 3, 20),
//! );
//! for row in measure_suite(&script, None) {
//!     assert!(row.ratio >= 1.0, "{row:?}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod harness;
pub mod replay;

pub use catalog::{compete_case, compete_catalog};
pub use harness::{
    measure, measure_suite, policy_by_name, policy_suite, render_table, report_digest, CaseRatio,
    Policy, Script,
};
pub use replay::{ratio_from_log, LogRatio};
