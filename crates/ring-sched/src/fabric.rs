//! Topology-generic scheduling policies for the fabric engine.
//!
//! Two first-class non-ring policies, plus run helpers:
//!
//! * [`DiffusionNode`] — nearest-neighbor load diffusion for *any*
//!   topology: each node announces its backlog over every port and pushes
//!   half of any ≥ 2-unit gap toward a poorer neighbor. On a ring this is
//!   a coarse cousin of the §7 algorithm (no unit-capacity discipline);
//!   on hierarchies and tori it is the natural local balancer, and its
//!   convergence time scales with the topology diameter — which is the
//!   whole point of the ring-vs-torus-vs-clique comparison in
//!   EXPERIMENTS.md.
//! * [`CliqueNode`] — the congested-clique batch scheduler. The clique's
//!   one-hop metric makes global balancing a constant-round affair, but
//!   the congested-clique model restricts every node to O(n) words per
//!   round. The scheduler fits: round 0, every node reports its load to a
//!   coordinator (n − 1 words in at node 0); round 1, the coordinator
//!   computes the average and grants each surplus node a recipient list
//!   (O(n) words out in total); round 2, surplus nodes ship jobs one hop
//!   to their assigned recipients. Every node processes one unit per step
//!   throughout, so the redistribution rounds are never idle.
//!
//! Both policies implement fabric checkpointing, so the workspace
//! equivalence battery can pause, snapshot, and resume them across
//! executors and shard counts.

use ring_sim::checkpoint::{CheckpointError, Decoder, Encoder, Persist};
use ring_sim::{
    AnyTopology, EngineConfig, Fabric, FabricCtx, FabricNode, FabricOutbox, Payload, RunReport,
    SimError, Topology,
};

/// A message between fabric policy nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricMsg {
    /// Job payload on the move.
    Jobs(u64),
    /// "I currently hold this many unprocessed units" (control).
    Load(u64),
    /// Coordinator grant: ship the given units to each listed node
    /// (control; the congested-clique round-1 message).
    Grants(Vec<(usize, u64)>),
}

impl Payload for FabricMsg {
    fn job_units(&self) -> u64 {
        match self {
            FabricMsg::Jobs(u) => *u,
            FabricMsg::Load(_) | FabricMsg::Grants(_) => 0,
        }
    }
}

impl Persist for FabricMsg {
    fn save(&self, enc: &mut Encoder) {
        match self {
            FabricMsg::Jobs(u) => {
                enc.u8(0);
                enc.u64(*u);
            }
            FabricMsg::Load(x) => {
                enc.u8(1);
                enc.u64(*x);
            }
            FabricMsg::Grants(grants) => {
                enc.u8(2);
                enc.usize(grants.len());
                for (dest, units) in grants {
                    enc.usize(*dest);
                    enc.u64(*units);
                }
            }
        }
    }

    fn load(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        match dec.u8()? {
            0 => Ok(FabricMsg::Jobs(dec.u64()?)),
            1 => Ok(FabricMsg::Load(dec.u64()?)),
            2 => {
                let n = dec.usize()?;
                if n > 1 << 24 {
                    return Err(CheckpointError::Corrupt("grant list implausibly long"));
                }
                let mut grants = Vec::with_capacity(n);
                for _ in 0..n {
                    let dest = dec.usize()?;
                    let units = dec.u64()?;
                    grants.push((dest, units));
                }
                Ok(FabricMsg::Grants(grants))
            }
            _ => Err(CheckpointError::Corrupt("bad fabric message tag")),
        }
    }
}

/// Nearest-neighbor diffusion on an arbitrary topology.
///
/// Per step: absorb arrivals, process one unit, then for each port in
/// ascending order push `gap / 2` units toward any neighbor whose last
/// announced backlog trails ours by at least 2, and re-announce our
/// backlog on every port whenever it changed. Purely local, deterministic,
/// and size-oblivious — the fabric analogue of the paper's "use only
/// local information" discipline.
#[derive(Debug, Clone)]
pub struct DiffusionNode {
    backlog: u64,
    /// Last load heard per port (`u64::MAX` = never heard).
    est: Vec<u64>,
    /// Last backlog we announced (`None` = never announced).
    announced: Option<u64>,
}

impl DiffusionNode {
    /// One node holding `backlog` units, with one estimate slot per port.
    pub fn new(backlog: u64, degree: usize) -> Self {
        DiffusionNode {
            backlog,
            est: vec![u64::MAX; degree],
            announced: None,
        }
    }

    /// Builds the whole fleet from per-node loads.
    pub fn fleet(loads: &[u64], topo: &AnyTopology) -> Vec<DiffusionNode> {
        assert_eq!(loads.len(), topo.len(), "one load per node");
        loads
            .iter()
            .enumerate()
            .map(|(i, &x)| DiffusionNode::new(x, topo.degree(i)))
            .collect()
    }

    /// Units currently resident (tests / diagnostics).
    pub fn backlog(&self) -> u64 {
        self.backlog
    }
}

impl FabricNode for DiffusionNode {
    type Msg = FabricMsg;

    fn on_step(
        &mut self,
        _ctx: &FabricCtx<'_>,
        inbox: &mut Vec<(usize, FabricMsg)>,
        out: &mut FabricOutbox<'_, FabricMsg>,
    ) -> u64 {
        for (port, msg) in inbox.drain(..) {
            match msg {
                FabricMsg::Jobs(u) => self.backlog += u,
                FabricMsg::Load(x) => self.est[port] = x,
                FabricMsg::Grants(_) => unreachable!("diffusion uses no coordinator"),
            }
        }
        let work = if self.backlog > 0 {
            self.backlog -= 1;
            1
        } else {
            0
        };
        for port in 0..self.est.len() {
            let est = self.est[port];
            if est != u64::MAX && self.backlog > est && self.backlog - est >= 2 {
                let give = (self.backlog - est) / 2;
                self.backlog -= give;
                out.push(port, FabricMsg::Jobs(give));
            }
        }
        if self.announced != Some(self.backlog) {
            self.announced = Some(self.backlog);
            for port in 0..self.est.len() {
                out.push(port, FabricMsg::Load(self.backlog));
            }
        }
        work
    }

    fn pending_work(&self) -> u64 {
        self.backlog
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        enc.u64(self.backlog);
        enc.usize(self.est.len());
        for &e in &self.est {
            enc.u64(e);
        }
        match self.announced {
            Some(x) => {
                enc.bool(true);
                enc.u64(x);
            }
            None => enc.bool(false),
        }
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.backlog = dec.u64()?;
        let n = dec.usize()?;
        if n != self.est.len() {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot node has degree {n}, restoring into degree {}",
                self.est.len()
            )));
        }
        for e in self.est.iter_mut() {
            *e = dec.u64()?;
        }
        self.announced = if dec.bool()? { Some(dec.u64()?) } else { None };
        Ok(())
    }
}

/// The congested-clique batch scheduler (see the module docs for the
/// three-round protocol). Node 0 is the coordinator; phases are keyed on
/// global time, which every node shares in the synchronous model.
#[derive(Debug, Clone)]
pub struct CliqueNode {
    backlog: u64,
}

impl CliqueNode {
    /// One node holding `backlog` units.
    pub fn new(backlog: u64) -> Self {
        CliqueNode { backlog }
    }

    /// Builds the whole fleet from per-node loads.
    pub fn fleet(loads: &[u64]) -> Vec<CliqueNode> {
        loads.iter().map(|&x| CliqueNode::new(x)).collect()
    }

    /// Units currently resident (tests / diagnostics).
    pub fn backlog(&self) -> u64 {
        self.backlog
    }
}

/// Port of node `v` facing node `u` on a clique (`u != v`).
fn clique_port(v: usize, u: usize) -> usize {
    if u < v {
        u
    } else {
        u - 1
    }
}

impl FabricNode for CliqueNode {
    type Msg = FabricMsg;

    fn on_step(
        &mut self,
        ctx: &FabricCtx<'_>,
        inbox: &mut Vec<(usize, FabricMsg)>,
        out: &mut FabricOutbox<'_, FabricMsg>,
    ) -> u64 {
        let n = ctx.topo.len();
        // Absorb arrivals; remember control messages for this step's phase.
        let mut reports: Vec<(usize, u64)> = Vec::new();
        let mut grants: Vec<(usize, u64)> = Vec::new();
        for (port, msg) in inbox.drain(..) {
            match msg {
                FabricMsg::Jobs(u) => self.backlog += u,
                FabricMsg::Load(x) => {
                    reports.push((ctx.topo.peer(ctx.id, port), x));
                }
                FabricMsg::Grants(list) => grants.extend(list),
            }
        }
        let work = if self.backlog > 0 {
            self.backlog -= 1;
            1
        } else {
            0
        };
        match ctx.t {
            // Round 0: everyone reports its (post-processing) load to the
            // coordinator — one word per node, n − 1 words into node 0.
            0 => {
                if ctx.id != 0 && n > 1 {
                    out.push(clique_port(ctx.id, 0), FabricMsg::Load(self.backlog));
                }
            }
            // Round 1: the coordinator averages the reported loads (plus
            // its own) and grants each surplus node a recipient list.
            // Its own surplus ships immediately — one hop, like any other.
            1 => {
                if ctx.id == 0 && n > 1 {
                    reports.push((0, self.backlog));
                    reports.sort_unstable_by_key(|&(v, _)| v);
                    let total: u64 = reports.iter().map(|&(_, x)| x).sum();
                    let avg = total.div_ceil(n as u64);
                    let mut deficits: Vec<(usize, u64)> = reports
                        .iter()
                        .filter(|&&(_, x)| x < avg)
                        .map(|&(v, x)| (v, avg - x))
                        .collect();
                    let mut next_deficit = 0usize;
                    for &(v, x) in reports.iter().filter(|&&(_, x)| x > avg) {
                        let mut surplus = x - avg;
                        let mut list: Vec<(usize, u64)> = Vec::new();
                        while surplus > 0 && next_deficit < deficits.len() {
                            let (dest, need) = &mut deficits[next_deficit];
                            let give = surplus.min(*need);
                            list.push((*dest, give));
                            surplus -= give;
                            *need -= give;
                            if *need == 0 {
                                next_deficit += 1;
                            }
                        }
                        if list.is_empty() {
                            continue;
                        }
                        if v == 0 {
                            for (dest, units) in list {
                                let ship = units.min(self.backlog);
                                if ship > 0 {
                                    self.backlog -= ship;
                                    out.push(clique_port(0, dest), FabricMsg::Jobs(ship));
                                }
                            }
                        } else {
                            out.push(clique_port(0, v), FabricMsg::Grants(list));
                        }
                    }
                }
            }
            // Round 2: granted nodes ship jobs one hop, capped at what
            // they still hold (their estimate was one step stale).
            _ => {
                for (dest, units) in grants {
                    let ship = units.min(self.backlog);
                    if ship > 0 {
                        self.backlog -= ship;
                        out.push(clique_port(ctx.id, dest), FabricMsg::Jobs(ship));
                    }
                }
            }
        }
        work
    }

    fn pending_work(&self) -> u64 {
        self.backlog
    }

    fn save_state(&self, enc: &mut Encoder) -> Result<(), CheckpointError> {
        enc.u64(self.backlog);
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CheckpointError> {
        self.backlog = dec.u64()?;
        Ok(())
    }
}

/// Which fabric policy to run on a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricAlgo {
    /// Nearest-neighbor diffusion ([`DiffusionNode`]) — any topology.
    Diffuse,
    /// The congested-clique batch scheduler ([`CliqueNode`]) — cliques
    /// only (it assumes the one-hop metric).
    Clique,
}

impl FabricAlgo {
    /// The scenario-DSL / CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            FabricAlgo::Diffuse => "diffuse",
            FabricAlgo::Clique => "clique",
        }
    }

    /// Parses the scenario-DSL / CLI spelling.
    pub fn parse(s: &str) -> Result<FabricAlgo, String> {
        match s {
            "diffuse" => Ok(FabricAlgo::Diffuse),
            "clique" => Ok(FabricAlgo::Clique),
            other => Err(format!(
                "unknown fabric algorithm `{other}` (expected diffuse|clique)"
            )),
        }
    }
}

/// Runs a fabric policy over `loads` on `topo`: sequentially when
/// `shards` is `None`, via the parallel executor otherwise. The report is
/// bit-identical either way (the fabric engine's contract).
pub fn run_fabric(
    topo: &AnyTopology,
    loads: &[u64],
    algo: FabricAlgo,
    config: EngineConfig,
    shards: Option<usize>,
) -> Result<RunReport, SimError> {
    let total: u64 = loads.iter().sum();
    match algo {
        FabricAlgo::Diffuse => {
            let nodes = DiffusionNode::fleet(loads, topo);
            let mut fab = Fabric::new(topo.clone(), nodes, total, config);
            match shards {
                None => fab.run(),
                Some(s) => fab.par_run(s),
            }
        }
        FabricAlgo::Clique => {
            assert!(
                matches!(topo, AnyTopology::Clique(_)),
                "the clique scheduler assumes the one-hop metric"
            );
            let nodes = CliqueNode::fleet(loads);
            let mut fab = Fabric::new(topo.clone(), nodes, total, config);
            match shards {
                None => fab.run(),
                Some(s) => fab.par_run(s),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacitated::{build_capacitated_nodes, run_capacitated};
    use ring_sim::{check_fabric_run, Fabric, Instance, LinkCapacity, RingLift, TraceLevel};

    fn full_cfg() -> EngineConfig {
        EngineConfig {
            trace: TraceLevel::Full,
            ..EngineConfig::default()
        }
    }

    fn checked(topo: &AnyTopology, loads: &[u64], algo: FabricAlgo) -> RunReport {
        let report = run_fabric(topo, loads, algo, full_cfg(), None).unwrap();
        let violations = check_fabric_run(loads, topo, &report, None);
        assert!(violations.is_empty(), "{}: {violations:?}", topo.spec());
        assert_eq!(report.metrics.total_processed(), loads.iter().sum::<u64>());
        report
    }

    #[test]
    fn diffusion_drains_every_shape() {
        for spec in ["ring:8", "hier:3x4", "torus:4x4", "clique:10"] {
            let topo: AnyTopology = spec.parse().unwrap();
            let loads: Vec<u64> = (0..topo.len()).map(|i| ((i * 5 + 1) % 9) as u64).collect();
            checked(&topo, &loads, FabricAlgo::Diffuse);
        }
    }

    #[test]
    fn diffusion_spreads_a_hotspot() {
        // One node holds everything; diffusion must beat draining locally.
        let topo: AnyTopology = "torus:4x4".parse().unwrap();
        let mut loads = vec![0u64; topo.len()];
        loads[5] = 160;
        let report = checked(&topo, &loads, FabricAlgo::Diffuse);
        assert!(
            report.makespan < 160,
            "diffusion never exported (makespan {})",
            report.makespan
        );
        assert!(report.metrics.job_hops > 0);
    }

    #[test]
    fn clique_scheduler_balances_in_constant_rounds() {
        let topo: AnyTopology = "clique:16".parse().unwrap();
        let mut loads = vec![0u64; 16];
        loads[3] = 160; // avg 10
        let report = checked(&topo, &loads, FabricAlgo::Clique);
        // Redistribution takes 3 rounds; afterwards every node drains
        // ~avg units. Far below the 160-step local drain, and within a
        // small constant of the ceil(W/n) = 10 lower bound.
        assert!(
            report.makespan <= 16,
            "clique balancing too slow: makespan {}",
            report.makespan
        );
        assert!(report.makespan >= 10);
    }

    #[test]
    fn clique_scheduler_handles_coordinator_hotspot_and_tiny_cliques() {
        // The coordinator itself is the pile: it must ship its own
        // surplus (directly at round 1).
        let topo: AnyTopology = "clique:8".parse().unwrap();
        let mut loads = vec![0u64; 8];
        loads[0] = 80;
        let report = checked(&topo, &loads, FabricAlgo::Clique);
        assert!(report.makespan <= 14, "makespan {}", report.makespan);

        for spec in ["clique:1", "clique:2"] {
            let topo: AnyTopology = spec.parse().unwrap();
            let loads: Vec<u64> = (0..topo.len()).map(|i| 3 + i as u64).collect();
            checked(&topo, &loads, FabricAlgo::Clique);
        }
    }

    #[test]
    fn fabric_policies_run_identically_under_both_executors() {
        let cases = [
            ("hier:2x5", FabricAlgo::Diffuse),
            ("torus:3x5", FabricAlgo::Diffuse),
            ("clique:11", FabricAlgo::Clique),
        ];
        for (spec, algo) in cases {
            let topo: AnyTopology = spec.parse().unwrap();
            let loads: Vec<u64> = (0..topo.len()).map(|i| ((i * 3) % 8) as u64).collect();
            let seq = run_fabric(&topo, &loads, algo, full_cfg(), None).unwrap();
            for shards in [2, 4] {
                for steal_seed in [0, 1] {
                    let mut cfg = full_cfg();
                    cfg.par.steal_seed = Some(steal_seed);
                    let par = run_fabric(&topo, &loads, algo, cfg, Some(shards)).unwrap();
                    assert_eq!(
                        seq, par,
                        "{spec} {algo:?} shards={shards} seed={steal_seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn lifted_capacitated_matches_the_ring_engine() {
        // The §7 algorithm, lifted node-for-node onto the fabric via
        // RingLift, must schedule exactly as the ring engine does —
        // makespan, per-node processing, message counts, everything the
        // metrics can see.
        for loads in [
            vec![40, 0, 0, 0, 0, 0, 0, 0],
            vec![9, 1, 7, 0, 3, 5, 2, 8],
            vec![0, 0, 25, 0, 0, 25, 0, 0],
        ] {
            let inst = Instance::from_loads(loads.clone());
            let ring = run_capacitated(&inst, TraceLevel::Off).unwrap();

            let topo: AnyTopology = format!("ring:{}", loads.len()).parse().unwrap();
            let lifted: Vec<RingLift<_>> = build_capacitated_nodes(&inst)
                .into_iter()
                .map(RingLift::new)
                .collect();
            let cfg = EngineConfig {
                link_capacity: LinkCapacity::UnitJobs,
                ..EngineConfig::default()
            };
            let fab = Fabric::new(topo, lifted, inst.total_work(), cfg)
                .run()
                .unwrap();
            assert_eq!(ring.makespan, fab.makespan, "loads {loads:?}");
            assert_eq!(ring.report.metrics, fab.metrics, "loads {loads:?}");
        }
    }
}
