//! # ring-opt — lower bounds and exact optima for ring scheduling
//!
//! Empirical approximation factors (§6 of the paper) need a denominator:
//! either the exact optimal makespan or a lower bound on it. This crate
//! provides both, for both link models:
//!
//! * [`bounds`] — closed-form lower bounds: the Lemma 1 window bound, the
//!   trivial `ceil(n/m)` and `p_max` bounds, and the Lemma 10 window bound
//!   for unit-capacity links (§7).
//! * [`flow`] — a self-contained Dinic max-flow solver.
//! * [`staircase`] — feasibility of a target makespan `T` on an
//!   *uncapacitated* network, via a distance-staircase transportation
//!   network: on a ring its min cut in closed form, checked by concave line
//!   DPs with no flow network; on any other metric by Dinic.
//! * [`timeexp`] — feasibility of `T` on a *unit-capacity* ring, via a
//!   time-expanded flow network.
//! * [`exact`] — optimum solvers that gallop up from the lower bound over
//!   the feasibility tests, with a size budget and graceful fall-back to
//!   lower bounds (mirroring §6.2, where some optima "eluded" the authors
//!   and lower bounds were used instead).
//!
//! The authors mention an unpublished `m²`-space method for exact optima
//! improving on Deng et al.; our min-cut solver is a documented
//! substitution that is still *exact* (see DESIGN.md §5). Dinic remains for
//! the torus, the §7 network, and as the ring test's oracle.
//!
//! ```
//! use ring_sim::Instance;
//! use ring_opt::exact::{optimum_uncapacitated, OptResult, SolverBudget};
//!
//! // 16 jobs on one processor of an 8-ring: OPT is 4 (processor 0 and its
//! // neighbors at distances 1..4 can absorb 4+3+3+2+2+1+1 = 16 units in 4
//! // steps, and Lemma 1 with k = 1 shows 4 is necessary).
//! let inst = Instance::concentrated(8, 0, 16);
//! let opt = optimum_uncapacitated(&inst, None, &SolverBudget::default());
//! assert_eq!(opt, OptResult::Exact(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod bounds;
pub mod exact;
pub mod flow;
pub mod release;
pub mod sized;
pub mod staircase;
pub mod timeexp;

pub use assignment::{extract_assignment, Assignment};
pub use bounds::{
    capacitated_lower_bound, lemma1_lower_bound, lemma1_window_bound, mean_load_bound,
    uncapacitated_lower_bound,
};
pub use exact::{
    metric_optimum, optimum_capacitated, optimum_uncapacitated, OptResult, SolverBudget,
};
pub use release::{competitive_ratio, offline_optimum, OfflineOptimum, Release};
pub use sized::{branch_and_bound_sized, greedy_sized_makespan, SizedOpt};
