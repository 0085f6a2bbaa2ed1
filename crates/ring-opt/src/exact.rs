//! Exact optimum makespan: the smallest feasible `T` under a monotone
//! feasibility test.
//!
//! * uncapacitated ring — [`crate::staircase::feasible`], the closed-form
//!   min cut (no flow network);
//! * uncapacitated, any metric — [`crate::staircase::metric_feasible`],
//!   Dinic on the staircase network (the torus uses it);
//! * unit-capacity ring — [`crate::timeexp::feasible`], Dinic on the
//!   time-expanded network of §7.
//!
//! The search gallops up from the closed-form lower bounds of
//! [`crate::bounds`] (`lb`, `lb + 1`, `lb + 3`, …), capped by a
//! caller-provided hint (typically the makespan an algorithm just
//! achieved), then bisects the last bracket.
//!
//! Mirroring §6.2 of the paper — where "some instances' optimum schedule
//! lengths still eluded us" and lower bounds were substituted — the solver
//! takes a [`SolverBudget`]; when the feasibility network for the search
//! range would exceed it, the solver returns
//! [`OptResult::LowerBoundOnly`] instead of thrashing. The ring test builds
//! no network, but its gate still estimates the staircase network, so the
//! fall-back decisions (and `--fast` output) are the flow solver's.

use crate::bounds::{capacitated_lower_bound, uncapacitated_lower_bound};
use crate::{staircase, timeexp};
use ring_sim::Instance;

/// Resource budget for the exact solvers.
#[derive(Debug, Clone, Copy)]
pub struct SolverBudget {
    /// Maximum estimated directed-edge count of any single feasibility
    /// network. Networks above this make the solver fall back to the lower
    /// bound.
    pub max_network_edges: u64,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget {
            // ~tens of MB and a few seconds per query at worst.
            max_network_edges: 30_000_000,
        }
    }
}

/// Outcome of an optimum query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptResult {
    /// The exact optimal makespan.
    Exact(u64),
    /// The instance exceeded the solver budget; this is only a lower bound
    /// on the optimum (approximation factors computed against it are
    /// pessimistic, as in the paper's §6.2).
    LowerBoundOnly(u64),
}

impl OptResult {
    /// The numeric value (exact optimum or lower bound).
    pub fn value(&self) -> u64 {
        match *self {
            OptResult::Exact(v) | OptResult::LowerBoundOnly(v) => v,
        }
    }

    /// True iff this is an exact optimum.
    pub fn is_exact(&self) -> bool {
        matches!(self, OptResult::Exact(_))
    }
}

/// The smallest feasible makespan at or above `lower`, a valid lower bound
/// on it; `feasible` must be monotone in `T`.
///
/// Test cost grows with `T`, and an online hint is often about twice the
/// optimum, so the search gallops up from the bound (`lower`, `lower + 1`,
/// `lower + 3`, `lower + 7`, …, capped by the hint) and bisects only the
/// last bracket. A hint below the optimum is overtaken and galloping goes
/// on past it.
fn gallop_optimum(
    lower: u64,
    upper_hint: Option<u64>,
    mut feasible: impl FnMut(u64) -> bool,
) -> u64 {
    // Invariant: every makespan below `lo` is infeasible.
    let mut lo = lower;
    let mut span = 1u64;
    let mut hi = loop {
        let mut probe = lower.saturating_add(span - 1).max(lo);
        if let Some(h) = upper_hint.filter(|&h| h >= lo) {
            probe = probe.min(h);
        }
        if feasible(probe) {
            break probe;
        }
        lo = probe + 1;
        span = span.saturating_mul(2);
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// Exact optimal makespan on an uncapacitated ring, subject to the budget.
///
/// `upper_hint` should be a makespan known to be achievable (e.g. from a
/// simulation run); it caps the gallop of the search. The feasibility test
/// is the closed-form cut of [`staircase`] and builds no flow network; the
/// budget gate still estimates the staircase network at the hint (or at
/// `8 × lower bound` without one), so `LowerBoundOnly` answers are the
/// same ones the flow solver gave.
pub fn optimum_uncapacitated(
    instance: &Instance,
    upper_hint: Option<u64>,
    budget: &SolverBudget,
) -> OptResult {
    let lb = uncapacitated_lower_bound(instance);
    if instance.total_work() == 0 {
        return OptResult::Exact(0);
    }
    // The largest staircase network the search range spans is at its upper
    // end.
    let probe_t = upper_hint.unwrap_or(lb.saturating_mul(8).max(16));
    if staircase::network_size_estimate(instance, probe_t) > budget.max_network_edges {
        return OptResult::LowerBoundOnly(lb);
    }
    OptResult::Exact(gallop_optimum(lb, upper_hint, |t| {
        staircase::feasible(instance, t)
    }))
}

/// Exact optimal makespan on **any** uncapacitated network given its
/// shortest-path metric, subject to the budget.
///
/// This is the topology-generic face of [`optimum_uncapacitated`]: the
/// staircase feasibility argument ([`staircase::metric_feasible`]) never
/// uses ring structure, so the search over it is exact for meshes,
/// tori, hierarchies — any metric. `lower` must be a valid lower bound on
/// the optimum (it seeds the search from below and is returned verbatim
/// when the budget is exceeded); `diameter` must bound `dist(i, j)` over
/// all pairs.
pub fn metric_optimum(
    loads: &[u64],
    dist: impl Fn(usize, usize) -> usize + Copy,
    diameter: usize,
    lower: u64,
    upper_hint: Option<u64>,
    budget: &SolverBudget,
) -> OptResult {
    if loads.iter().sum::<u64>() == 0 {
        return OptResult::Exact(0);
    }
    let m = loads.len() as u64;
    let probe_t = upper_hint.unwrap_or(lower.saturating_mul(8).max(16));
    // Size of the largest feasibility network the search could build:
    // assignment edges plus per-processor distance chains.
    let dmax = probe_t.saturating_sub(1).min(diameter as u64);
    let est = m * m + m * (dmax + 1);
    if est > budget.max_network_edges {
        return OptResult::LowerBoundOnly(lower);
    }
    OptResult::Exact(gallop_optimum(lower, upper_hint, |t| {
        staircase::metric_feasible(loads, dist, diameter, t)
    }))
}

/// Exact optimal makespan on a unit-capacity ring, subject to the budget.
pub fn optimum_capacitated(
    instance: &Instance,
    upper_hint: Option<u64>,
    budget: &SolverBudget,
) -> OptResult {
    let lb = capacitated_lower_bound(instance);
    if instance.total_work() == 0 {
        return OptResult::Exact(0);
    }
    let probe_t = upper_hint.unwrap_or(lb.saturating_mul(8).max(16));
    if timeexp::network_size_estimate(instance, probe_t) > budget.max_network_edges {
        return OptResult::LowerBoundOnly(lb);
    }
    OptResult::Exact(gallop_optimum(lb, upper_hint, |t| {
        timeexp::feasible(instance, t)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt_u(inst: &Instance) -> u64 {
        optimum_uncapacitated(inst, None, &SolverBudget::default()).value()
    }

    fn opt_c(inst: &Instance) -> u64 {
        optimum_capacitated(inst, None, &SolverBudget::default()).value()
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::empty(5);
        assert_eq!(
            optimum_uncapacitated(&inst, None, &SolverBudget::default()),
            OptResult::Exact(0)
        );
        assert_eq!(
            optimum_capacitated(&inst, None, &SolverBudget::default()),
            OptResult::Exact(0)
        );
    }

    #[test]
    fn concentrated_matches_closed_form() {
        // For n jobs on one node of a big ring, OPT is the smallest T with
        // T + 2·(T-1 + … + 1) = T² ≥ ... exactly: T + 2·Σ_{d=1}^{T-1}(T-d)
        // = T + T(T-1) = T². So OPT = ceil(sqrt(n)).
        for n in [1u64, 2, 3, 4, 5, 10, 16, 17, 50, 100, 101] {
            let inst = Instance::concentrated(64, 3, n);
            let expect = (n as f64).sqrt().ceil() as u64;
            assert_eq!(opt_u(&inst), expect, "n={n}");
        }
    }

    #[test]
    fn upper_hint_does_not_change_answer() {
        let inst = Instance::from_loads(vec![40, 0, 0, 7, 0, 0, 0, 13]);
        let free = opt_u(&inst);
        let hinted = optimum_uncapacitated(&inst, Some(free + 17), &SolverBudget::default());
        assert_eq!(hinted, OptResult::Exact(free));
        // A hint exactly equal to OPT also works.
        let tight = optimum_uncapacitated(&inst, Some(free), &SolverBudget::default());
        assert_eq!(tight, OptResult::Exact(free));
        // A hint below OPT is overtaken, not trusted.
        let low = optimum_uncapacitated(&inst, Some(free - 3), &SolverBudget::default());
        assert_eq!(low, OptResult::Exact(free));
    }

    #[test]
    fn capacitated_at_least_uncapacitated() {
        let insts = [
            Instance::from_loads(vec![30, 0, 0, 0, 0, 0]),
            Instance::from_loads(vec![5, 5, 5, 5]),
            Instance::from_loads(vec![17, 0, 9, 0, 4, 0, 0, 2]),
        ];
        for inst in &insts {
            assert!(opt_c(inst) >= opt_u(inst));
        }
    }

    #[test]
    fn tiny_budget_falls_back_to_lower_bound() {
        let inst = Instance::concentrated(1000, 0, 100_000);
        let budget = SolverBudget {
            max_network_edges: 10,
        };
        let r = optimum_uncapacitated(&inst, None, &budget);
        assert!(!r.is_exact());
        assert_eq!(r.value(), crate::bounds::uncapacitated_lower_bound(&inst));
    }

    #[test]
    fn optimum_never_below_lower_bound() {
        let insts = [
            Instance::from_loads(vec![13, 2, 0, 44, 0, 0, 9, 1]),
            Instance::from_loads(vec![100, 100, 0, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for inst in &insts {
            let lb = crate::bounds::uncapacitated_lower_bound(inst);
            assert!(opt_u(inst) >= lb);
            let clb = crate::bounds::capacitated_lower_bound(inst);
            assert!(opt_c(inst) >= clb);
        }
    }

    #[test]
    fn section5_two_cluster_optimum() {
        // Lemma 8 closed form, z = 2, heaps of 50 at distance 5.
        let mut loads = vec![0u64; 64];
        loads[10] = 50;
        loads[15] = 50;
        let inst = Instance::from_loads(loads);
        assert_eq!(opt_u(&inst), 9);
    }
}
