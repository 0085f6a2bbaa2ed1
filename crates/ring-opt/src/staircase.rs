//! Feasibility of a target makespan on an **uncapacitated** network.
//!
//! A schedule of length `T` exists iff the jobs can be assigned to
//! processors such that each processor `j` can fit its assigned jobs into
//! its `T` time slots, where a job originating at distance `d` from `j`
//! only fits into slots `d, d+1, …, T-1` (it needs `d` steps to arrive).
//! Because links are uncapacitated, *any* fractional split of job counts can
//! move simultaneously, so per-processor slot feasibility is the only
//! constraint. For a fixed set of jobs assigned to `j` with arrival
//! distances `d_1, …`, all fit iff for every `d`:
//!
//! ```text
//! #{jobs with distance ≥ d}  ≤  T − d
//! ```
//!
//! (earliest-arrival-last is an exchange-argument-optimal packing).
//!
//! # The staircase network
//!
//! The condition is a transportation problem:
//!
//! * source → `src_i` with capacity `x_i` for each processor `i`;
//! * `src_i` → `chain(j, d)` with unbounded capacity, where
//!   `d = dist(i, j) ≤ T − 1`;
//! * `chain(j, d)` → `chain(j, d−1)` with capacity `T − d` — the staircase:
//!   all flow passing this edge represents jobs reaching `j` from distance
//!   `≥ d`, of which at most `T − d` fit;
//! * `chain(j, 0)` → sink with capacity `T`.
//!
//! `T` is feasible iff the max flow equals the total work `n`. All
//! capacities are integral, so an integral optimal flow exists and the test
//! is exact for unit jobs. [`metric_feasible`] builds this network and runs
//! Dinic on it; it serves any metric (`ring-mesh` uses the torus) and is
//! the oracle the ring test below is checked against.
//!
//! # The closed-form cut on a ring
//!
//! Let `S` be the loaded processors whose source edge a cut leaves uncut.
//! The cheapest way to separate the chains they reach costs
//! `max(0, T − dist(j, S))` at each processor `j`, so `T` is feasible iff
//! no `S` has
//!
//! ```text
//! W(S)  >  Σ_j max(0, T − dist(j, S)).
//! ```
//!
//! On a ring, `dist(j, S)` depends only on the two `S`-members around `j`.
//! Charge each member's own `T` and the processors up to the next member
//! to the gap `g` between them; the gap then costs
//!
//! ```text
//! c(g) = T + Σ_{h=1}^{g−1} max(0, T − ⌈h/2⌉),   c(g+1) − c(g) = max(0, T − ⌈g/2⌉),
//! ```
//!
//! so `c` is concave and nondecreasing, and `c(g) = T²` once `g ≥ 2T − 1`.
//! [`feasible`] looks for a violating `S` with two families of line DPs
//! over the `k` loaded positions, split by where `S` starts, with no flow
//! network:
//!
//! * **(A) no member of `S` lies in `[0, 2T − 1)`.** Then the gap across
//!   position 0 is at least `2T` and costs `T²` whatever its ends. One
//!   free-start DP over the loaded positions from `2T − 1` on sums loads
//!   minus the inner gap costs; a value above `T²` is a violation. (Every
//!   gap of at least `2T` spans a multiple of `T`, so cuts at all multiples
//!   of `T` would cover any `S` with such a gap; family (B) covers the
//!   ones that start before `2T − 1`, which leaves only the cut at 0.)
//! * **(B) `S` starts at a loaded `p < 2T − 1`.** One fixed-start DP per
//!   such `p` closes each prefix ending at `q` with the wrap gap
//!   `c(m − q + p)`. This is every `S` whose gaps are all below `2T`.
//!
//! Because `c` is concave, a newer DP candidate beats an older one on a
//! prefix of later positions, so the inner maximum is a stack of candidates
//! with binary-searched breakpoints (Galil–Giancarlo's concave least-weight
//! subsequence). One test costs `O((1 + min(k, 2T)) · k · log m)`.
//! Arithmetic is `i128` with gap costs clamped just above the total work,
//! which keeps every sign and makes `T ≥ 2^32` (where `T²` overflows `u64`)
//! safe.

use crate::flow::{FlowNetwork, INF};
use ring_sim::Instance;

/// Estimated number of directed edges the staircase network for makespan
/// `t` would contain. The ring test builds no network; this estimate only
/// feeds [`crate::exact::SolverBudget`]'s gate, which keeps the lower-bound
/// fall-back decisions the flow solver used to make.
pub fn network_size_estimate(instance: &Instance, t: u64) -> u64 {
    let m = instance.num_processors() as u64;
    if t == 0 {
        return m;
    }
    let reach = (t - 1).saturating_mul(2).saturating_add(1).min(m); // within distance t-1
    let sources = instance.loads().iter().filter(|&&x| x > 0).count() as u64;
    let dmax = (t - 1).min(m / 2);
    // source edges + assignment edges + chain edges
    sources + sources * reach + m * (dmax + 1)
}

/// Returns true iff a schedule of length `t` exists for `instance` on an
/// uncapacitated ring (the closed-form cut of the module docs).
pub fn feasible(instance: &Instance, t: u64) -> bool {
    ring_feasible(instance.loads(), t)
}

/// [`feasible`] on a raw load vector: processor `i` of a `loads.len()`-ring
/// holds `loads[i]` unit jobs.
fn ring_feasible(loads: &[u64], t: u64) -> bool {
    let n: u128 = loads.iter().map(|&x| u128::from(x)).sum();
    if n == 0 {
        return true;
    }
    let max_load = loads.iter().copied().max().unwrap_or(0);
    if t == 0 {
        return false;
    }
    if t >= max_load {
        // Every processor clears its own jobs without moving any.
        return true;
    }
    let m = loads.len() as u64;
    let cost = GapCost {
        t: u128::from(t),
        cap: n + 1,
    };
    let piles: Vec<(u64, i128)> = loads
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x > 0)
        .map(|(i, &x)| (i as u64, i128::from(x)))
        .collect();
    let mut env = Envelope::default();
    let starts = piles.partition_point(|&(p, _)| p < t.saturating_mul(2) - 1);

    // (A) No member before 2T − 1: the gap across 0 costs T². A value above
    // T² needs more than T² work, so T² ≥ n rules the family out.
    let t_squared = u128::from(t) * u128::from(t);
    if t_squared < n && free_start_exceeds(&piles[starts..], t_squared as i128, m, &cost, &mut env)
    {
        return false;
    }

    // (B) The first member lies in [0, 2T − 1).
    for s in 0..starts {
        if fixed_start_violates(&piles[s..], m, &cost, &mut env) {
            return false;
        }
    }
    true
}

/// Family (A): members anywhere in `piles`, a free start, and the gap
/// across position 0 charged `bar = T²`. True iff some prefix value
/// exceeds `bar`.
fn free_start_exceeds(
    piles: &[(u64, i128)],
    bar: i128,
    m: u64,
    cost: &GapCost,
    env: &mut Envelope,
) -> bool {
    env.clear();
    for &(q, x) in piles {
        let value = x + env.best(q, cost).map_or(0, |b| b.max(0));
        if value > bar {
            return true;
        }
        // A candidate worth at most one gap's minimum cost T never beats
        // starting afresh.
        if value > cost.t as i128 {
            env.push(q, value, m, cost);
        }
    }
    false
}

/// Family (B): `piles[0]` is the first member; the others follow it on the
/// line. True iff some member set closed by its wrap gap has positive
/// slack `W(S) − Σ c(gaps)`.
fn fixed_start_violates(piles: &[(u64, i128)], m: u64, cost: &GapCost, env: &mut Envelope) -> bool {
    let (p, x) = piles[0];
    if x > cost.at(m) {
        return true;
    }
    env.clear();
    env.push(0, x, m, cost);
    for &(pos, x) in &piles[1..] {
        let q = pos - p;
        let Some(best) = env.best(q, cost) else {
            break;
        };
        let value = x + best;
        if value > cost.at(m - q) {
            return true;
        }
        env.push(q, value, m, cost);
    }
    false
}

/// The gap cost `c(g)` of the module docs for one makespan, clamped at
/// `cap` (one more than the total work): a gap that costs more than all the
/// work makes any set containing it slack-negative either way, and a
/// minimum of a concave function and a constant is still concave.
struct GapCost {
    t: u128,
    cap: u128,
}

impl GapCost {
    /// `c(g)` for `g ≥ 1`.
    fn at(&self, g: u64) -> i128 {
        // c(g) = g·T − Σ_{h=1}^{g−1} ⌈h/2⌉ up to g = 2T − 1, then flat at T².
        let g = u128::from(g).min(2 * self.t - 1);
        let h = g - 1;
        let ceil_halves = h.div_ceil(2) * (h / 2 + 1);
        (g * self.t - ceil_halves).min(self.cap) as i128
    }
}

/// One DP candidate: a member at line position `pos` whose best prefix is
/// worth `value`. It offers `value − c(q − pos)` to a later position `q`
/// and is the best candidate for `q < until`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    pos: u64,
    value: i128,
    until: u64,
}

/// The upper envelope of DP candidates under a concave gap cost. Newer
/// candidates sit on top and own a prefix of the later positions, so a
/// query pops the candidates whose range has passed and a push pops the
/// ones the newcomer beats everywhere they still own.
#[derive(Debug, Default)]
struct Envelope {
    stack: Vec<Candidate>,
}

impl Envelope {
    fn clear(&mut self) {
        self.stack.clear();
    }

    /// The best `value − c(q − pos)` over the candidates, for a `q` beyond
    /// every pushed position and no smaller than any earlier query.
    fn best(&mut self, q: u64, cost: &GapCost) -> Option<i128> {
        while self.stack.last().is_some_and(|top| top.until <= q) {
            self.stack.pop();
        }
        self.stack
            .last()
            .map(|top| top.value - cost.at(q - top.pos))
    }

    /// Adds the candidate `(pos, value)`; later queries stay below `end`.
    fn push(&mut self, pos: u64, value: i128, end: u64, cost: &GapCost) {
        let beats =
            |old: &Candidate, q: u64| value - cost.at(q - pos) >= old.value - cost.at(q - old.pos);
        let mut from = pos + 1;
        let until = loop {
            let Some(top) = self.stack.last().copied() else {
                break end;
            };
            // `top` owns [from, top.until).
            if top.until <= from || beats(&top, top.until - 1) {
                from = from.max(top.until);
                self.stack.pop();
                continue;
            }
            // The newcomer wins on a prefix of [from, top.until): find
            // where it starts losing.
            let (mut lo, mut hi) = (from, top.until - 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if beats(&top, mid) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            break lo;
        };
        if until > pos + 1 {
            self.stack.push(Candidate { pos, value, until });
        }
    }
}

/// The staircase feasibility test for **any** uncapacitated network, given
/// its shortest-path metric, by Dinic max-flow on the network of the module
/// docs. The argument never uses ring structure — only that a job `d` hops
/// away arrives after `d` steps and that links carry unlimited traffic — so
/// the same test answers the §8 open problem's *optimum* for meshes, tori,
/// or any other topology (`ring-mesh` uses it with the torus metric).
///
/// `diameter` must be an upper bound on `dist(i, j)` over all pairs.
pub fn metric_feasible(
    loads: &[u64],
    dist: impl Fn(usize, usize) -> usize,
    diameter: usize,
    t: u64,
) -> bool {
    let n: u64 = loads.iter().sum();
    if n == 0 {
        return true;
    }
    if t == 0 {
        return false;
    }
    let m = loads.len();
    // Jobs further than t-1 hops from every processor they could use cannot
    // be processed at all, but every processor can at least process its own
    // jobs, so distance 0 always exists; cap chains at dmax.
    let dmax = ((t - 1) as usize).min(diameter);

    // Node layout: 0 = source, 1 = sink, 2..2+m = per-processor sources,
    // then chains: chain(j, d) = chain_base + j*(dmax+1) + d.
    let chain_base = 2 + m;
    let chain_len = dmax + 1;
    let num_nodes = chain_base + m * chain_len;
    let mut g = FlowNetwork::new(num_nodes);
    let src = 0usize;
    let sink = 1usize;
    let chain = |j: usize, d: usize| chain_base + j * chain_len + d;

    for j in 0..m {
        g.add_edge(chain(j, 0), sink, t);
        for d in 1..=dmax {
            g.add_edge(chain(j, d), chain(j, d - 1), t - d as u64);
        }
    }
    for (i, &x) in loads.iter().enumerate() {
        if x == 0 {
            continue;
        }
        g.add_edge(src, 2 + i, x);
        // Every destination within dmax hops.
        for j in 0..m {
            let d = dist(i, j);
            if d <= dmax {
                g.add_edge(2 + i, chain(j, d), INF);
            }
        }
    }

    g.max_flow(src, sink) == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The Dinic staircase test on the ring metric: the oracle.
    fn dinic_ring_feasible(loads: &[u64], t: u64) -> bool {
        let topo = Instance::from_loads(loads.to_vec()).topology();
        metric_feasible(loads, |i, j| topo.distance(i, j), topo.diameter(), t)
    }

    #[test]
    fn empty_instance_feasible_at_zero() {
        let inst = Instance::empty(4);
        assert!(feasible(&inst, 0));
    }

    #[test]
    fn nonempty_instance_infeasible_at_zero() {
        let inst = Instance::concentrated(4, 0, 1);
        assert!(!feasible(&inst, 0));
        assert!(feasible(&inst, 1));
    }

    #[test]
    fn concentrated_16_on_8_ring() {
        // Capacity within T=4: 4 + 2*3 + 2*2 + 2*1 = 16 exactly.
        let inst = Instance::concentrated(8, 0, 16);
        assert!(!feasible(&inst, 3));
        assert!(feasible(&inst, 4));
    }

    #[test]
    fn concentrated_17_needs_5() {
        let inst = Instance::concentrated(8, 0, 17);
        assert!(!feasible(&inst, 4));
        assert!(feasible(&inst, 5));
    }

    #[test]
    fn uniform_load_is_tight_at_mean() {
        let inst = Instance::from_loads(vec![6; 5]);
        assert!(!feasible(&inst, 5));
        assert!(feasible(&inst, 6));
    }

    #[test]
    fn two_cluster_instance_respects_interference() {
        // Section 5 geometry: two heaps of W at distance 2z+1; between them
        // the escape regions overlap, so the interval bound alone is not
        // tight — the cut test must capture the interaction.
        // W = 50 on processors 0 and 5 of a 100-ring (z = 2).
        let mut loads = vec![0u64; 100];
        loads[0] = 50;
        loads[5] = 50;
        let inst = Instance::from_loads(loads);
        // Lemma 8: 2W = 2t² - (t-z)² + (t-z) with z=2 -> t=8 gives
        // 2·64 - 36 + 6 = 98 < 100; t=9 gives 162 - 49 + 7 = 120 >= 100.
        assert!(!feasible(&inst, 8));
        assert!(feasible(&inst, 9));
    }

    #[test]
    fn single_processor_ring() {
        let inst = Instance::from_loads(vec![12]);
        assert!(!feasible(&inst, 11));
        assert!(feasible(&inst, 12));
    }

    #[test]
    fn feasibility_is_monotone_in_t() {
        let inst = Instance::from_loads(vec![9, 0, 0, 4, 0, 30, 0, 1]);
        let mut was_feasible = false;
        for t in 0..40 {
            let f = feasible(&inst, t);
            assert!(!was_feasible || f, "feasibility must be monotone (t={t})");
            was_feasible = f;
        }
        assert!(was_feasible);
    }

    #[test]
    fn size_estimate_grows_with_t() {
        let inst = Instance::concentrated(100, 0, 1000);
        assert!(network_size_estimate(&inst, 10) < network_size_estimate(&inst, 100));
    }

    #[test]
    fn size_estimate_saturates_instead_of_overflowing() {
        let inst = Instance::concentrated(100, 0, 1000);
        // One source, all 100 processors in reach, chains capped at m/2.
        assert_eq!(network_size_estimate(&inst, u64::MAX), 1 + 100 + 100 * 51);
    }

    #[test]
    fn gap_cost_matches_its_definition() {
        for t in 1..=12u64 {
            let cost = GapCost {
                t: u128::from(t),
                cap: u128::MAX,
            };
            let mut direct = t as i128;
            for g in 1..=3 * t + 2 {
                assert_eq!(cost.at(g), direct, "c({g}) at T = {t}");
                direct += (t as i128 - g.div_ceil(2) as i128).max(0);
            }
            assert_eq!(
                cost.at(2 * t - 1),
                (t * t) as i128,
                "c(2T-1) = T² at T = {t}"
            );
        }
    }

    /// Family (A) alone sees this instance: nothing is loaded before
    /// position 20. A run of ten piles of 10 binds at T = 5 (W = 100 beats
    /// 9·5 + 25), built from piles worth only 2T each, after a lone pile
    /// whose candidate is worth less than starting afresh.
    #[test]
    fn free_start_chains_light_piles_far_from_zero() {
        let mut loads = vec![0u64; 64];
        loads[20] = 10;
        for x in &mut loads[40..50] {
            *x = 10;
        }
        assert!(!ring_feasible(&loads, 5));
        for t in 0..=12 {
            assert_eq!(
                ring_feasible(&loads, t),
                dinic_ring_feasible(&loads, t),
                "T = {t}"
            );
        }
    }

    /// The candidate stack answers every query with the brute-force
    /// maximum over all pushed candidates, whatever the spacing and values.
    #[test]
    fn envelope_matches_brute_force_maximum() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0054);
        for _ in 0..400 {
            let t = rng.gen_range(1..=30u64);
            let cost = GapCost {
                t: u128::from(t),
                cap: u128::from(rng.gen_range(t..=2 * t * t)),
            };
            let spread = (t * t) as i64;
            let mut positions = Vec::new();
            let mut q = 0;
            for _ in 0..rng.gen_range(1..=60) {
                q += rng.gen_range(1..=3 * t);
                positions.push(q);
            }
            let end = q + 1;
            let mut env = Envelope::default();
            let mut pushed: Vec<(u64, i128)> = Vec::new();
            for &q in &positions {
                let brute = pushed.iter().map(|&(p, v)| v - cost.at(q - p)).max();
                assert_eq!(env.best(q, &cost), brute, "T = {t}, q = {q}, {pushed:?}");
                let value = i128::from(rng.gen_range(-spread..=3 * spread));
                env.push(q, value, end, &cost);
                pushed.push((q, value));
            }
        }
    }

    /// Every T in 0..=40 and every m in 1..=40, on sparse, dense and
    /// single-pile loads (T near m/2 is where gaps wrap the ring).
    #[test]
    fn cut_test_matches_dinic_on_small_rings() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0051);
        for m in 1..=40usize {
            let mut sparse = vec![0u64; m];
            for _ in 0..rng.gen_range(1..=3usize) {
                sparse[rng.gen_range(0..m)] += rng.gen_range(1..=400u64);
            }
            let dense: Vec<u64> = (0..m).map(|_| rng.gen_range(0..=30u64)).collect();
            let mut pile = vec![0u64; m];
            pile[rng.gen_range(0..m)] = rng.gen_range(1..=1600u64);
            for loads in [sparse, dense, pile] {
                for t in 0..=40 {
                    assert_eq!(
                        ring_feasible(&loads, t),
                        dinic_ring_feasible(&loads, t),
                        "T = {t} on {loads:?}"
                    );
                }
            }
        }
    }

    /// Random rings up to m = 100 in three shapes (scattered piles, dense
    /// with spikes, one loaded arc). The cut test's optimum must be exactly
    /// Dinic's: feasible at OPT and not at OPT − 1, where the violating set
    /// is tight and the DPs must find the maximizing one.
    #[test]
    fn cut_test_optimum_matches_dinic_on_random_rings() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0053);
        for case in 0..150 {
            let m = rng.gen_range(2..=100usize);
            let mut loads = vec![0u64; m];
            match case % 3 {
                0 => {
                    for _ in 0..rng.gen_range(1..=10usize) {
                        loads[rng.gen_range(0..m)] += rng.gen_range(1..=2000u64);
                    }
                }
                1 => {
                    for x in &mut loads {
                        *x = if rng.gen_bool(0.1) {
                            rng.gen_range(100..=1500u64)
                        } else {
                            rng.gen_range(0..=40u64)
                        };
                    }
                }
                _ => {
                    let start = rng.gen_range(0..m);
                    for i in 0..rng.gen_range(1..=m.div_ceil(3)) {
                        loads[(start + i) % m] = rng.gen_range(0..=300u64);
                    }
                    loads[start] += 1;
                }
            }
            let (mut lo, mut opt) = (1, loads.iter().copied().max().unwrap_or(1));
            while lo < opt {
                let mid = lo + (opt - lo) / 2;
                if ring_feasible(&loads, mid) {
                    opt = mid;
                } else {
                    lo = mid + 1;
                }
            }
            assert!(dinic_ring_feasible(&loads, opt), "OPT = {opt} on {loads:?}");
            assert!(
                !dinic_ring_feasible(&loads, opt - 1),
                "OPT = {opt} on {loads:?}"
            );
        }
    }

    /// Loads in the 2^40..2^50 range: Dinic's work does not grow with
    /// capacities, so it still checks the cut test where T is in the
    /// millions and gap costs are large.
    #[test]
    fn cut_test_matches_dinic_on_heavy_loads() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0052);
        for m in [2usize, 3, 5, 8, 13] {
            for _ in 0..4 {
                let loads: Vec<u64> = (0..m)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            rng.gen_range(1u64 << 40..1 << 50)
                        } else {
                            0
                        }
                    })
                    .collect();
                let n: u64 = loads.iter().sum();
                let (mut lo, mut hi) = (0u64, n);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if dinic_ring_feasible(&loads, mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                for t in [lo.saturating_sub(1), lo, lo + 1] {
                    assert_eq!(ring_feasible(&loads, t), t >= lo, "T = {t} on {loads:?}");
                }
            }
        }
    }

    #[test]
    fn makespans_past_2_pow_32_stay_exact() {
        // One pile of u64::MAX on an 8-ring: at T ≥ 4 every processor takes
        // T minus its distance, so capacity is 8T − 16 and OPT is the
        // smallest T with 8T − 16 ≥ u64::MAX, which is 2^61 + 2. T² is far
        // past u64 here.
        let mut loads = vec![0u64; 8];
        loads[3] = u64::MAX;
        let opt = (1u64 << 61) + 2;
        assert!(ring_feasible(&loads, opt));
        assert!(!ring_feasible(&loads, opt - 1));
        assert!(!ring_feasible(&loads, 1 << 32));
    }

    #[test]
    fn loads_summing_near_u64_max_stay_exact() {
        // Two adjacent piles of 2^63 − 1 on a 4-ring: the pair is the
        // binding set, with capacity 4T − 2 ≥ 2^64 − 2 from T = 2^62 on.
        let a = (1u64 << 63) - 1;
        let loads = [a, a, 0, 0];
        assert!(ring_feasible(&loads, 1 << 62));
        assert!(!ring_feasible(&loads, (1 << 62) - 1));
    }
}
