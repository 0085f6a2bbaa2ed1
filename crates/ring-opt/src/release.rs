//! Release-time-aware offline optima — the denominator of a competitive
//! ratio.
//!
//! The paper's offline model has every job present at `t = 0`, where the
//! solvers of [`crate::exact`] compute the optimum exactly. An
//! *online* instance reveals work over time, and the exact solvers do not
//! model release times. This module closes the gap the way §6.2 of the
//! paper closes its own ("some instances' optimum schedule lengths still
//! eluded us" — lower bounds were substituted):
//!
//! * **Single release wave** (all work released at one time `r`): the
//!   optimum is exactly `r + OPT(loads)` — before `r` nothing exists, and
//!   from `r` on the problem *is* the static one. The exact solver applies
//!   and the result is flagged [`OfflineOptimum::Exact`].
//! * **Multiple release waves**: for every release time `r`, the work
//!   released at or after `r` cannot be processed before `r`, and
//!   clearing just that work takes at least its static optimum even with
//!   every processor idle and perfectly positioned. Hence
//!   `max_r (r + OPT(suffix_r))` is a true lower bound on the dynamic
//!   optimum, computed with the *exact* solver per suffix and flagged
//!   [`OfflineOptimum::LowerBound`]. Ratios against it are pessimistic
//!   (never inflated), exactly like the paper's §6.2 lower-bound rows.
//!
//! Both denominators are safe: an empirical competitive ratio computed
//! against them is never an overestimate of the true ratio... and for the
//! `Exact` case it is the true ratio.

use crate::exact::{optimum_uncapacitated, SolverBudget};
use ring_sim::Instance;

/// One batch of unit jobs revealed to the online algorithm.
///
/// Mirrors `ring_sched::dynamic::Arrival` structurally; `ring-opt` keeps
/// its own copy so the dependency graph stays `ring-sched → ring-sim ←
/// ring-opt` (acyclic), as with the closed-form bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Release {
    /// Step at which the batch is revealed.
    pub time: u64,
    /// Processor it lands on.
    pub processor: usize,
    /// Number of unit jobs.
    pub count: u64,
}

/// The offline denominator for a revealed instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfflineOptimum {
    /// The exact dynamic optimum (single release wave, solved exactly).
    Exact(u64),
    /// A certified lower bound on the dynamic optimum (multiple release
    /// waves, or the solver exceeded its budget). Ratios against it
    /// are pessimistic, as in the paper's §6.2.
    LowerBound(u64),
}

impl OfflineOptimum {
    /// The numeric denominator.
    pub fn value(&self) -> u64 {
        match *self {
            OfflineOptimum::Exact(v) | OfflineOptimum::LowerBound(v) => v,
        }
    }

    /// True iff the denominator is the exact dynamic optimum.
    pub fn is_exact(&self) -> bool {
        matches!(self, OfflineOptimum::Exact(_))
    }
}

fn suffix_instance(m: usize, releases: &[Release], from: u64) -> Instance {
    let mut loads = vec![0u64; m];
    for r in releases.iter().filter(|r| r.time >= from) {
        loads[r.processor] += r.count;
    }
    Instance::from_loads(loads)
}

/// The offline optimum (or certified lower bound) of a revealed instance.
///
/// `upper_hint` should be a makespan an online run actually achieved — it
/// caps each per-suffix search and sizes its budget gate.
///
/// # Panics
///
/// Panics if `m == 0` or any release names a processor `>= m`.
pub fn offline_optimum(
    m: usize,
    releases: &[Release],
    upper_hint: Option<u64>,
    budget: &SolverBudget,
) -> OfflineOptimum {
    assert!(m > 0, "need at least one processor");
    assert!(
        releases.iter().all(|r| r.processor < m),
        "release processor out of range"
    );
    if releases.iter().map(|r| r.count).sum::<u64>() == 0 {
        return OfflineOptimum::Exact(0);
    }
    let mut times: Vec<u64> = releases
        .iter()
        .filter(|r| r.count > 0)
        .map(|r| r.time)
        .collect();
    times.sort_unstable();
    times.dedup();
    let single_wave = times.len() == 1;
    let mut best = 0u64;
    let mut every_suffix_exact = true;
    for &r in &times {
        let suffix = suffix_instance(m, releases, r);
        // The hint for the suffix search: the online makespan minus the
        // release offset is achievable for the suffix work (the online
        // schedule itself clears it in that window).
        let hint = upper_hint.and_then(|h| h.checked_sub(r)).filter(|&h| h > 0);
        let opt = optimum_uncapacitated(&suffix, hint, budget);
        every_suffix_exact &= opt.is_exact();
        best = best.max(r + opt.value());
    }
    // Any job released at `r` still needs one step of processing.
    best = best.max(times.last().copied().unwrap_or(0) + 1);
    if single_wave && every_suffix_exact {
        OfflineOptimum::Exact(best)
    } else {
        OfflineOptimum::LowerBound(best)
    }
}

/// Competitive ratio of an online makespan against a denominator,
/// saturating at `1.0` only through genuine equality — an online makespan
/// below the denominator is a model violation and panics (the engine and
/// the assignment-level policies both produce feasible offline schedules,
/// so this can only fire on a harness bug).
pub fn competitive_ratio(online_makespan: u64, denom: &OfflineOptimum) -> f64 {
    let d = denom.value();
    if d == 0 {
        assert_eq!(online_makespan, 0, "work appeared from nowhere");
        return 1.0;
    }
    assert!(
        online_makespan >= d,
        "online makespan {online_makespan} beat the offline denominator {d}"
    );
    online_makespan as f64 / d as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(time: u64, processor: usize, count: u64) -> Release {
        Release {
            time,
            processor,
            count,
        }
    }

    #[test]
    fn empty_instance_is_exactly_zero() {
        let r = offline_optimum(8, &[], None, &SolverBudget::default());
        assert_eq!(r, OfflineOptimum::Exact(0));
    }

    #[test]
    fn t0_wave_matches_static_solver() {
        // 16 jobs on one node of an 8-ring at t = 0: OPT = 4 (lib.rs doc).
        let r = offline_optimum(8, &[rel(0, 0, 16)], None, &SolverBudget::default());
        assert_eq!(r, OfflineOptimum::Exact(4));
    }

    #[test]
    fn late_single_wave_is_shifted_exactly() {
        // Same 16-job heap released at t = 100: OPT = 104, still exact.
        let r = offline_optimum(8, &[rel(100, 3, 16)], None, &SolverBudget::default());
        assert_eq!(r, OfflineOptimum::Exact(104));
    }

    #[test]
    fn equal_time_batches_still_count_as_one_wave() {
        // Two heaps, both at t = 5, on a ring big enough that they do not
        // interact: each heap of 50 needs ceil(sqrt(... lemma 8)) — the
        // solver handles the interaction; the point is the Exact flag.
        let r = offline_optimum(
            64,
            &[rel(5, 10, 50), rel(5, 15, 50)],
            None,
            &SolverBudget::default(),
        );
        // exact.rs pins OPT = 9 for this two-heap layout at t = 0.
        assert_eq!(r, OfflineOptimum::Exact(14));
    }

    #[test]
    fn multi_wave_is_a_flagged_lower_bound() {
        let releases = [rel(0, 0, 10), rel(1000, 4, 400)];
        let r = offline_optimum(64, &releases, None, &SolverBudget::default());
        assert!(!r.is_exact());
        // sqrt(400) = 20 released at 1000 dominates.
        assert_eq!(r.value(), 1020);
    }

    #[test]
    fn suffix_bound_beats_aggregate_when_tail_is_heavy() {
        // Aggregate OPT of 10+400 jobs near each other is well below
        // 1000 + OPT(400): the suffix term must win.
        let releases = [rel(0, 0, 10), rel(1000, 1, 400)];
        let r = offline_optimum(64, &releases, None, &SolverBudget::default());
        assert!(r.value() >= 1020);
    }

    #[test]
    fn zero_count_releases_are_ignored() {
        let r = offline_optimum(
            8,
            &[rel(0, 0, 16), rel(50, 2, 0)],
            None,
            &SolverBudget::default(),
        );
        assert_eq!(r, OfflineOptimum::Exact(4));
    }

    #[test]
    fn hint_does_not_change_the_answer() {
        let releases = [rel(0, 0, 100), rel(30, 8, 40)];
        let free = offline_optimum(32, &releases, None, &SolverBudget::default());
        let hinted = offline_optimum(32, &releases, Some(200), &SolverBudget::default());
        assert_eq!(free, hinted);
    }

    #[test]
    fn tiny_budget_degrades_to_closed_form_lower_bound() {
        let budget = SolverBudget {
            max_network_edges: 4,
        };
        let r = offline_optimum(1000, &[rel(0, 0, 100_000)], None, &budget);
        assert!(!r.is_exact());
        assert!(r.value() >= 316, "closed-form sqrt bound survives");
    }

    #[test]
    fn ratio_of_a_feasible_run_is_at_least_one() {
        let denom = OfflineOptimum::Exact(10);
        assert_eq!(competitive_ratio(10, &denom), 1.0);
        assert!(competitive_ratio(13, &denom) > 1.29);
        assert_eq!(competitive_ratio(0, &OfflineOptimum::Exact(0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "beat the offline denominator")]
    fn ratio_below_one_is_rejected() {
        let _ = competitive_ratio(5, &OfflineOptimum::Exact(10));
    }

    #[test]
    fn late_jobs_need_one_processing_step() {
        // A single 1-job release at t = 7 finishes at 8, not 7.
        let r = offline_optimum(4, &[rel(7, 2, 1)], None, &SolverBudget::default());
        assert_eq!(r, OfflineOptimum::Exact(8));
    }
}
