//! Deterministic, seedable fault injection for engine runs.
//!
//! A [`FaultPlan`] is a *pure schedule* of degradations: every query is a
//! function of `(plan, node/link, step)` and nothing else, so the ring
//! engine, the fabric and its round pool evaluate exactly the same faults
//! and stay bit-for-bit identical (asserted by the workspace equivalence
//! proptests).
//!
//! Three fault families are modelled, all scoped to half-open step epochs
//! `[from, until)`:
//!
//! * **Link drops** — the directed link transmits nothing during the epoch;
//!   messages queue at the sender and are automatically re-offered every
//!   following step (the retry rule) until the link heals.
//! * **Link delays / bandwidth caps** — a message entering the link during
//!   a delay epoch departs no earlier than `push_step + d`; a bandwidth cap
//!   bounds the job payload departing per step (FIFO, head-of-line).
//! * **Processor stalls / slowdowns** — a stalled processor skips its step
//!   entirely (undelivered messages are carried over to its next step); a
//!   slowdown by factor `k` lets the processor run only every `k`-th step
//!   of the epoch.
//!
//! Plans come from three places: built programmatically ([`FaultPlan::new`]
//! plus the `add_*` methods), generated from a seed ([`FaultPlan::random`] —
//! an internal splitmix64, no external RNG dependency), or parsed from the
//! CLI spec grammar ([`FaultPlan::parse`]).
//!
//! A plan is kept as the two lists it was built from, in insertion order.
//! Runs and oracle checks do not scan them: each lays the plan out once,
//! as a crate-internal `FaultTable` sized by the ring, whose per-step
//! queries read only the faults of the node they ask about.

use crate::topology::Direction;
use serde::{Deserialize, Serialize};

/// What a link fault does during its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkFaultKind {
    /// The link transmits nothing; eligible messages are counted as dropped
    /// and retried on following steps.
    Drop,
    /// Messages entering the link depart no earlier than `push + delay`
    /// steps after being pushed (0 is a no-op).
    Delay(u64),
    /// At most this much job payload departs per step (0 blocks every
    /// payload-carrying message; pure control messages still pass).
    Bandwidth(u64),
}

/// A fault on one directed link for one step epoch.
///
/// The link is identified by its *sending* node and direction, matching
/// [`crate::LinkStats`]: `(node, Cw)` is the link `node → node + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Sending node of the directed link.
    pub node: usize,
    /// Direction of the directed link.
    pub dir: Direction,
    /// First step the fault is active.
    pub from: u64,
    /// First step the fault is no longer active (half-open epoch).
    pub until: u64,
    /// What the fault does.
    pub kind: LinkFaultKind,
}

/// What a processor fault does during its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcFaultKind {
    /// The processor skips its step entirely (no processing, no sends);
    /// messages addressed to it are deferred to its next step.
    Stall,
    /// The processor runs only every `k`-th step of the epoch (step `t`
    /// runs iff `(t - from) % k == 0`). `Slowdown(1)` is a no-op.
    Slowdown(u64),
}

/// A fault on one processor for one step epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcFault {
    /// Affected processor.
    pub node: usize,
    /// First step the fault is active.
    pub from: u64,
    /// First step the fault is no longer active (half-open epoch).
    pub until: u64,
    /// What the fault does.
    pub kind: ProcFaultKind,
}

/// A deterministic schedule of link and processor faults.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    link_faults: Vec<LinkFault>,
    proc_faults: Vec<ProcFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; runs behave exactly as without one).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a link fault.
    pub fn add_link_fault(&mut self, fault: LinkFault) -> &mut Self {
        self.link_faults.push(fault);
        self
    }

    /// Adds a processor fault.
    pub fn add_proc_fault(&mut self, fault: ProcFault) -> &mut Self {
        self.proc_faults.push(fault);
        self
    }

    /// The scheduled link faults.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.link_faults
    }

    /// The scheduled processor faults.
    pub fn proc_faults(&self) -> &[ProcFault] {
        &self.proc_faults
    }

    /// True iff the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.proc_faults.is_empty()
    }

    /// One past the last step any fault is active (0 for an empty plan).
    /// After this step the system is fault-free; the engine widens its
    /// default step budget by a multiple of this.
    pub fn horizon(&self) -> u64 {
        let link = self.link_faults.iter().map(|f| f.until).max().unwrap_or(0);
        let proc = self.proc_faults.iter().map(|f| f.until).max().unwrap_or(0);
        link.max(proc)
    }

    /// A seeded random plan for an `m`-ring with all epochs inside
    /// `[0, horizon)`: a handful of drop/delay/bandwidth link faults and
    /// stall/slowdown processor faults. Same `(m, horizon, seed)` → same
    /// plan, on every platform (internal splitmix64; no RNG dependency).
    pub fn random(m: usize, horizon: u64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut plan = FaultPlan::new();
        if m == 0 || horizon == 0 {
            return plan;
        }
        let epoch = |rng: &mut SplitMix64| {
            let from = rng.below(horizon);
            let len = 1 + rng.below(horizon - from);
            (from, from + len)
        };
        let n_link = rng.below(4) as usize; // 0..=3 link faults
        for _ in 0..n_link {
            let node = rng.below(m as u64) as usize;
            let dir = if rng.below(2) == 0 {
                Direction::Cw
            } else {
                Direction::Ccw
            };
            let (from, until) = epoch(&mut rng);
            let kind = match rng.below(3) {
                0 => LinkFaultKind::Drop,
                1 => LinkFaultKind::Delay(1 + rng.below(4)),
                _ => LinkFaultKind::Bandwidth(rng.below(3)),
            };
            plan.add_link_fault(LinkFault {
                node,
                dir,
                from,
                until,
                kind,
            });
        }
        let n_proc = rng.below(3) as usize; // 0..=2 processor faults
        for _ in 0..n_proc {
            let node = rng.below(m as u64) as usize;
            let (from, until) = epoch(&mut rng);
            let kind = if rng.below(2) == 0 {
                ProcFaultKind::Stall
            } else {
                ProcFaultKind::Slowdown(2 + rng.below(3))
            };
            plan.add_proc_fault(ProcFault {
                node,
                from,
                until,
                kind,
            });
        }
        plan
    }

    /// Renders the plan back into the [`FaultPlan::parse`] grammar, one
    /// explicit entry per fault (a `seed=` origin is expanded, not kept, so
    /// the rendering is self-contained). `parse(render_spec(p), m) == p` for
    /// every plan — the round trip the scenario DSL relies on.
    pub fn render_spec(&self) -> String {
        let mut entries = Vec::with_capacity(self.link_faults.len() + self.proc_faults.len());
        for f in &self.link_faults {
            let dir = match f.dir {
                Direction::Cw => "cw",
                Direction::Ccw => "ccw",
            };
            let head = match f.kind {
                LinkFaultKind::Drop => "drop".to_string(),
                LinkFaultKind::Delay(d) => format!("delay={d}"),
                LinkFaultKind::Bandwidth(c) => format!("cap={c}"),
            };
            entries.push(format!("{head}:{}{dir}@{}..{}", f.node, f.from, f.until));
        }
        for f in &self.proc_faults {
            let head = match f.kind {
                ProcFaultKind::Stall => "stall".to_string(),
                ProcFaultKind::Slowdown(k) => format!("slow={k}"),
            };
            entries.push(format!("{head}:{}@{}..{}", f.node, f.from, f.until));
        }
        entries.join(";")
    }

    /// Parses the CLI fault-spec grammar. `m` is the ring size (used for
    /// index validation and by `seed=` entries).
    ///
    /// Entries are separated by `;`:
    ///
    /// ```text
    /// drop:<node><cw|ccw>@<from>..<until>      link drops everything
    /// delay=<d>:<node><cw|ccw>@<from>..<until> messages held d extra steps
    /// cap=<u>:<node><cw|ccw>@<from>..<until>   at most u payload per step
    /// stall:<node>@<from>..<until>             processor skips its steps
    /// slow=<k>:<node>@<from>..<until>          processor runs every k-th step
    /// seed=<s>[@<horizon>]                     a random plan (default horizon 64)
    /// ```
    ///
    /// Example: `drop:3cw@10..20;stall:1@0..15`.
    pub fn parse(spec: &str, m: usize) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(rest) = entry.strip_prefix("seed=") {
                let (seed_s, horizon_s) = match rest.split_once('@') {
                    Some((s, h)) => (s, Some(h)),
                    None => (rest, None),
                };
                let seed: u64 = parse_num(seed_s, entry)?;
                let horizon: u64 = match horizon_s {
                    Some(h) => parse_num(h, entry)?,
                    None => 64,
                };
                let random = FaultPlan::random(m, horizon, seed);
                plan.link_faults.extend(random.link_faults);
                plan.proc_faults.extend(random.proc_faults);
                continue;
            }
            let (head, loc) = entry
                .split_once(':')
                .ok_or_else(|| format!("`{entry}`: expected `kind:target@from..until`"))?;
            let (target, span) = loc
                .split_once('@')
                .ok_or_else(|| format!("`{entry}`: expected `@from..until`"))?;
            let (from_s, until_s) = span
                .split_once("..")
                .ok_or_else(|| format!("`{entry}`: expected `from..until`"))?;
            let from: u64 = parse_num(from_s, entry)?;
            let until: u64 = parse_num(until_s, entry)?;
            if until <= from {
                return Err(format!("`{entry}`: empty epoch {from}..{until}"));
            }
            let link_kind = if head == "drop" {
                Some(LinkFaultKind::Drop)
            } else if let Some(d) = head.strip_prefix("delay=") {
                Some(LinkFaultKind::Delay(parse_num(d, entry)?))
            } else if let Some(c) = head.strip_prefix("cap=") {
                Some(LinkFaultKind::Bandwidth(parse_num(c, entry)?))
            } else {
                None
            };
            if let Some(kind) = link_kind {
                let (node, dir) = if let Some(n) = target.strip_suffix("ccw") {
                    (n, Direction::Ccw)
                } else if let Some(n) = target.strip_suffix("cw") {
                    (n, Direction::Cw)
                } else {
                    return Err(format!("`{entry}`: link target must end in cw or ccw"));
                };
                let node: usize = parse_num(node, entry)?;
                check_node(node, m, entry)?;
                plan.add_link_fault(LinkFault {
                    node,
                    dir,
                    from,
                    until,
                    kind,
                });
                continue;
            }
            let proc_kind = if head == "stall" {
                ProcFaultKind::Stall
            } else if let Some(k) = head.strip_prefix("slow=") {
                let k: u64 = parse_num(k, entry)?;
                if k == 0 {
                    return Err(format!("`{entry}`: slowdown factor must be >= 1"));
                }
                ProcFaultKind::Slowdown(k)
            } else {
                return Err(format!(
                    "`{entry}`: unknown fault kind `{head}` \
                     (drop, delay=<d>, cap=<u>, stall, slow=<k>, seed=<s>)"
                ));
            };
            let node: usize = parse_num(target, entry)?;
            check_node(node, m, entry)?;
            plan.add_proc_fault(ProcFault {
                node,
                from,
                until,
                kind: proc_kind,
            });
        }
        Ok(plan)
    }
}

/// A directed link's fault state at one step, as [`FaultTable::link`]
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LinkState {
    /// Some active fault drops everything.
    pub(crate) down: bool,
    /// Delay imposed on messages entering the link (max over the active
    /// delay faults; 0 if none).
    pub(crate) delay: u64,
    /// Payload cap (min over the active bandwidth faults; `None` if
    /// uncapped).
    pub(crate) cap: Option<u64>,
}

/// A [`FaultPlan`] laid out for the per-step queries of one `m`-node run.
///
/// The faults are grouped by node in CSR form: `proc_start[i]..
/// proc_start[i + 1]` are node `i`'s processor faults in `procs`, and
/// `link_start[2i + d]..link_start[2i + d + 1]` the link faults on `(i, d)`
/// (`d = 0` cw, `1` ccw) in `links`. A query reads only its own group, so
/// a node with no faults costs two index loads. Faults on nodes `≥ m` (a
/// plan built with [`FaultPlan::add_link_fault`] is not range-checked, and
/// a corrupted trace may name any node) share one trailing group per kind
/// and direction, which queries filter by node — so the table is sized by
/// `m`, never by a node id, and answers every node as the plan defines.
///
/// The engine, the fabric and the oracle build one when a run or a check
/// starts; the plan itself stays a plain list, so building, parsing and
/// rendering it cost what they did.
#[derive(Debug, Clone)]
pub(crate) struct FaultTable {
    m: usize,
    proc_start: Vec<usize>,
    procs: Vec<ProcFault>,
    link_start: Vec<usize>,
    links: Vec<LinkFault>,
    /// Nodes `< m` with at least one processor fault, ascending: the only
    /// ones that can ever skip a step.
    stallable: Vec<usize>,
}

impl FaultTable {
    /// Lays `plan` out for a run over nodes `0..m`.
    pub(crate) fn new(plan: &FaultPlan, m: usize) -> Self {
        let (proc_start, procs) = group(&plan.proc_faults, m + 1, |f| f.node.min(m));
        let (link_start, links) = group(&plan.link_faults, 2 * (m + 1), |f| {
            link_slot(f.node.min(m), f.dir)
        });
        let stallable = (0..m)
            .filter(|&i| proc_start[i] < proc_start[i + 1])
            .collect();
        FaultTable {
            m,
            proc_start,
            procs,
            link_start,
            links,
            stallable,
        }
    }

    /// Nodes that have processor faults, ascending. Every other node runs
    /// every step.
    pub(crate) fn stallable(&self) -> &[usize] {
        &self.stallable
    }

    /// Whether processor `node` executes step `t` (false while stalled or
    /// in a skipped slowdown phase; all active faults must allow the step).
    pub(crate) fn node_runs(&self, node: usize, t: u64) -> bool {
        let slot = node.min(self.m);
        self.procs[self.proc_start[slot]..self.proc_start[slot + 1]]
            .iter()
            .filter(|f| f.node == node && f.from <= t && t < f.until)
            .all(|f| match f.kind {
                ProcFaultKind::Stall => false,
                ProcFaultKind::Slowdown(k) => k <= 1 || (t - f.from) % k == 0,
            })
    }

    /// The state of the directed link `(node, dir)` at step `t`: down if
    /// any active fault drops, the largest active delay, the smallest
    /// active cap.
    pub(crate) fn link(&self, node: usize, dir: Direction, t: u64) -> LinkState {
        let slot = link_slot(node.min(self.m), dir);
        let mut state = LinkState::default();
        for f in &self.links[self.link_start[slot]..self.link_start[slot + 1]] {
            if f.node != node || t < f.from || t >= f.until {
                continue;
            }
            match f.kind {
                LinkFaultKind::Drop => state.down = true,
                LinkFaultKind::Delay(d) => state.delay = state.delay.max(d),
                LinkFaultKind::Bandwidth(c) => {
                    state.cap = Some(state.cap.map_or(c, |cap| cap.min(c)))
                }
            }
        }
        state
    }
}

fn link_slot(node: usize, dir: Direction) -> usize {
    match dir {
        Direction::Cw => 2 * node,
        Direction::Ccw => 2 * node + 1,
    }
}

/// Counting-sorts `faults` into `slots` groups (stable, so each group keeps
/// plan order): returns the `slots + 1` group starts and the grouped faults.
fn group<F: Copy>(faults: &[F], slots: usize, slot: impl Fn(&F) -> usize) -> (Vec<usize>, Vec<F>) {
    let mut start = vec![0usize; slots + 1];
    for f in faults {
        start[slot(f) + 1] += 1;
    }
    for s in 1..=slots {
        start[s] += start[s - 1];
    }
    let mut grouped = faults.to_vec();
    let mut at = start.clone();
    for f in faults {
        let s = slot(f);
        grouped[at[s]] = *f;
        at[s] += 1;
    }
    (start, grouped)
}

fn parse_num<T: std::str::FromStr>(s: &str, entry: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("`{entry}`: `{s}` is not a number"))
}

fn check_node(node: usize, m: usize, entry: &str) -> Result<(), String> {
    if node >= m {
        return Err(format!(
            "`{entry}`: node {node} out of range (ring size {m})"
        ));
    }
    Ok(())
}

/// The splitmix64 generator (Steele–Lea–Flood) — tiny, seedable, and fully
/// portable; all the randomness a fault plan needs.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.horizon(), 0);
        let table = FaultTable::new(&plan, 1);
        assert!(table.node_runs(0, 0));
        assert!(table.stallable().is_empty());
        assert_eq!(table.link(0, Direction::Cw, 0), LinkState::default());
    }

    #[test]
    fn epochs_are_half_open() {
        let mut plan = FaultPlan::new();
        plan.add_link_fault(LinkFault {
            node: 2,
            dir: Direction::Cw,
            from: 5,
            until: 8,
            kind: LinkFaultKind::Drop,
        });
        let table = FaultTable::new(&plan, 4);
        let down = |node, dir, t| table.link(node, dir, t).down;
        assert!(!down(2, Direction::Cw, 4));
        assert!(down(2, Direction::Cw, 5));
        assert!(down(2, Direction::Cw, 7));
        assert!(!down(2, Direction::Cw, 8));
        // Other links are unaffected.
        assert!(!down(2, Direction::Ccw, 6));
        assert!(!down(3, Direction::Cw, 6));
        assert_eq!(plan.horizon(), 8);
    }

    #[test]
    fn overlapping_delays_take_max_and_caps_take_min() {
        let mut plan = FaultPlan::new();
        for (d, kind) in [
            (3, LinkFaultKind::Delay(3)),
            (1, LinkFaultKind::Delay(1)),
            (0, LinkFaultKind::Bandwidth(5)),
            (0, LinkFaultKind::Bandwidth(2)),
        ] {
            let _ = d;
            plan.add_link_fault(LinkFault {
                node: 0,
                dir: Direction::Ccw,
                from: 0,
                until: 10,
                kind,
            });
        }
        let link = FaultTable::new(&plan, 1).link(0, Direction::Ccw, 4);
        assert_eq!(link.delay, 3);
        assert_eq!(link.cap, Some(2));
    }

    #[test]
    fn stall_and_slowdown_gate_steps() {
        let mut plan = FaultPlan::new();
        plan.add_proc_fault(ProcFault {
            node: 1,
            from: 2,
            until: 5,
            kind: ProcFaultKind::Stall,
        });
        plan.add_proc_fault(ProcFault {
            node: 3,
            from: 10,
            until: 16,
            kind: ProcFaultKind::Slowdown(3),
        });
        let table = FaultTable::new(&plan, 4);
        assert_eq!(table.stallable(), &[1, 3]);
        assert!(table.node_runs(1, 1));
        assert!(!table.node_runs(1, 2));
        assert!(!table.node_runs(1, 4));
        assert!(table.node_runs(1, 5));
        // Slowdown(3) runs at 10, 13 and skips the rest of the epoch.
        let runs: Vec<u64> = (9..17).filter(|&t| table.node_runs(3, t)).collect();
        assert_eq!(runs, vec![9, 10, 13, 16]);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = FaultPlan::random(8, 32, 42);
        let b = FaultPlan::random(8, 32, 42);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::random(8, 32, 43));
        for seed in 0..50 {
            let p = FaultPlan::random(8, 32, seed);
            assert!(p.horizon() <= 32, "seed {seed}");
            for f in p.link_faults() {
                assert!(f.node < 8 && f.from < f.until);
            }
            for f in p.proc_faults() {
                assert!(f.node < 8 && f.from < f.until);
            }
        }
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let plan = FaultPlan::parse(
            "drop:3cw@10..20; delay=2:0ccw@0..5; cap=1:7cw@3..9; stall:1@0..15; slow=4:2@8..40",
            8,
        )
        .unwrap();
        assert_eq!(plan.link_faults().len(), 3);
        assert_eq!(plan.proc_faults().len(), 2);
        let table = FaultTable::new(&plan, 8);
        assert!(table.link(3, Direction::Cw, 12).down);
        assert_eq!(table.link(0, Direction::Ccw, 2).delay, 2);
        assert_eq!(table.link(7, Direction::Cw, 3).cap, Some(1));
        assert!(!table.node_runs(1, 3));
        assert!(table.node_runs(2, 8) && !table.node_runs(2, 9));
    }

    #[test]
    fn render_spec_round_trips_through_parse() {
        let spec =
            "drop:3cw@10..20; delay=2:0ccw@0..5; cap=1:7cw@3..9; stall:1@0..15; slow=4:2@8..40";
        let plan = FaultPlan::parse(spec, 8).unwrap();
        assert_eq!(FaultPlan::parse(&plan.render_spec(), 8).unwrap(), plan);
        // Seeded plans render as explicit entries, not as the seed.
        let seeded = FaultPlan::random(16, 48, 7);
        let rendered = seeded.render_spec();
        assert!(!rendered.contains("seed"));
        assert_eq!(FaultPlan::parse(&rendered, 16).unwrap(), seeded);
        assert_eq!(FaultPlan::new().render_spec(), "");
    }

    #[test]
    fn parse_seed_entry_expands_to_a_random_plan() {
        let parsed = FaultPlan::parse("seed=42@32", 8).unwrap();
        assert_eq!(parsed, FaultPlan::random(8, 32, 42));
        let default_horizon = FaultPlan::parse("seed=7", 4).unwrap();
        assert_eq!(default_horizon, FaultPlan::random(4, 64, 7));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "drop:3@1..2",     // missing direction
            "drop:9cw@1..2",   // node out of range
            "drop:1cw@5..5",   // empty epoch
            "wobble:1cw@1..2", // unknown kind
            "slow=0:1@1..2",   // zero slowdown
            "drop:1cw@xx..2",  // not a number
            "drop:1cw",        // no span
        ] {
            assert!(FaultPlan::parse(bad, 8).is_err(), "{bad} should fail");
        }
    }

    /// The plan's definition of every query, read off the whole list.
    fn scan_node_runs(plan: &FaultPlan, node: usize, t: u64) -> bool {
        plan.proc_faults()
            .iter()
            .filter(|f| f.node == node && f.from <= t && t < f.until)
            .all(|f| match f.kind {
                ProcFaultKind::Stall => false,
                ProcFaultKind::Slowdown(k) => k <= 1 || (t - f.from) % k == 0,
            })
    }

    fn scan_link(plan: &FaultPlan, node: usize, dir: Direction, t: u64) -> LinkState {
        let active: Vec<LinkFaultKind> = plan
            .link_faults()
            .iter()
            .filter(|f| f.node == node && f.dir == dir && f.from <= t && t < f.until)
            .map(|f| f.kind)
            .collect();
        LinkState {
            down: active.iter().any(|k| matches!(k, LinkFaultKind::Drop)),
            delay: active
                .iter()
                .filter_map(|k| match *k {
                    LinkFaultKind::Delay(d) => Some(d),
                    _ => None,
                })
                .max()
                .unwrap_or(0),
            cap: active
                .iter()
                .filter_map(|k| match *k {
                    LinkFaultKind::Bandwidth(c) => Some(c),
                    _ => None,
                })
                .min(),
        }
    }

    /// A seeded plan that stresses the table's grouping: overlapping
    /// epochs on few nodes, duplicated entries, `Slowdown(0)` and
    /// `Slowdown(1)`, epochs that never end, and nodes past the ring.
    fn messy_plan(m: usize, horizon: u64, rng: &mut SplitMix64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let node = |rng: &mut SplitMix64| {
            if rng.below(5) == 0 {
                m + rng.below(3) as usize
            } else {
                rng.below(m.min(6) as u64) as usize
            }
        };
        let epoch = |rng: &mut SplitMix64| {
            let from = rng.below(horizon);
            let until = if rng.below(6) == 0 {
                u64::MAX
            } else {
                from + 1 + rng.below(horizon - from)
            };
            (from, until)
        };
        for _ in 0..rng.below(24) {
            let (from, until) = epoch(rng);
            let fault = LinkFault {
                node: node(rng),
                dir: Direction::BOTH[rng.below(2) as usize],
                from,
                until,
                kind: match rng.below(3) {
                    0 => LinkFaultKind::Drop,
                    1 => LinkFaultKind::Delay(rng.below(4)),
                    _ => LinkFaultKind::Bandwidth(rng.below(4)),
                },
            };
            plan.add_link_fault(fault);
            if rng.below(4) == 0 {
                plan.add_link_fault(fault);
            }
        }
        for _ in 0..rng.below(12) {
            let (from, until) = epoch(rng);
            let fault = ProcFault {
                node: node(rng),
                from,
                until,
                kind: match rng.below(4) {
                    0 => ProcFaultKind::Stall,
                    k => ProcFaultKind::Slowdown(k - 1 + rng.below(2) * 2),
                },
            };
            plan.add_proc_fault(fault);
            if rng.below(4) == 0 {
                plan.add_proc_fault(fault);
            }
        }
        plan
    }

    #[test]
    fn table_answers_every_query_as_the_plan_scan_does() {
        let mut rng = SplitMix64::new(0x7ab1e);
        let horizon = 40;
        let mut slowdowns = [false; 4];
        for m in [1usize, 2, 3, 512] {
            for _ in 0..60 {
                let plan = messy_plan(m, horizon, &mut rng);
                for f in plan.proc_faults() {
                    if let ProcFaultKind::Slowdown(k) = f.kind {
                        slowdowns[(k as usize).min(3)] = true;
                    }
                }
                let table = FaultTable::new(&plan, m);
                let steps = (0..horizon + 2).chain([u64::MAX - 1, u64::MAX]);
                for t in steps {
                    for node in 0..m + 2 {
                        assert_eq!(
                            table.node_runs(node, t),
                            scan_node_runs(&plan, node, t),
                            "node_runs({node}, {t}) on m = {m}: {plan:?}"
                        );
                        for dir in Direction::BOTH {
                            assert_eq!(
                                table.link(node, dir, t),
                                scan_link(&plan, node, dir, t),
                                "link({node}, {dir:?}, {t}) on m = {m}: {plan:?}"
                            );
                        }
                    }
                }
                let stallable: Vec<usize> = (0..m)
                    .filter(|&i| plan.proc_faults().iter().any(|f| f.node == i))
                    .collect();
                assert_eq!(table.stallable(), &stallable[..]);
            }
        }
        assert_eq!(
            slowdowns, [true; 4],
            "Slowdown(0), (1), (2) and (3+) all drawn"
        );
    }
}
