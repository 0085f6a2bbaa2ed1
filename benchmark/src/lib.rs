//! `ringbench`: the end-to-end and per-layer benchmark of this repository.
//!
//! It links the workspace crates and drives what the CLI drives —
//! `ring_scenario::parse_plan -> execute -> report` and
//! `ring_service::Service` — over eight workloads, each chosen to stress
//! layers the others bypass. Whole passes are timed with tracing off; a
//! separate traced run attributes the same work to the repository's
//! modules. `benchmark/README.md` has the tables and the commands.

pub mod cli;
pub mod compare;
pub mod derive;
pub mod json;
pub mod layers;
pub mod report;
pub mod runner;
pub mod span;
pub mod spec;
pub mod workloads;
