//! `fabric`: sequential runs on the topologies the ring engine does not
//! cover — a pile on a torus and on a clique, a hot rack on a hierarchical
//! ring — through `ring_sim::Fabric` and the diffusion and clique policies.

use super::plans::{PlanInput, PlanWorkload};
use super::{Outcome, Prepared, Rng, Size};
use crate::span::Recorder;
use ring_scenario::parse_plan;
use ring_sim::Topology;

/// `peer` and `distance` calls timed by the `topology.peer` cell.
const PEER_CALLS: usize = 1_000_000;

struct FabricRuns {
    plans: PlanWorkload,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Box<dyn Prepared>, String> {
    let side: u64 = size.pick(256, 16);
    let (racks, rack_len): (usize, usize) = size.pick((64, 64), (8, 8));
    let clique: u64 = size.pick(65_536, 256);
    let torus_base: u64 = size.pick(500_000, 3_000);
    let hot: u64 = size.pick(100_000, 500);
    let clique_base: u64 = size.pick(1_000_000, 5_000);
    let (torus_pile, clique_pile, rack_jobs) = rec.span("workloads.generate", |_| {
        let mut rng = Rng::new(seed, 4);
        (
            torus_base + rng.range(0, torus_base / 100),
            clique_base + rng.range(0, clique_base / 100),
            // The loads the datacenter shape will generate, for the job count.
            ring_workloads::hotspot_rack(racks, rack_len, racks / 2, hot, 20, seed)
                .iter()
                .sum::<u64>(),
        )
    });
    let inputs = vec![
        PlanInput {
            text: format!(
                "[scenario]\nname = torus\n\n[topology]\nkind = torus\nrows = {side}\ncols = {side}\n\n\
                 [workload]\nshape = concentrated\nn = {torus_pile}\n"
            ),
            rows: vec![(torus_pile, side * side)],
            golden: None,
        },
        PlanInput {
            text: format!(
                "[scenario]\nname = hier\n\n[topology]\nkind = hier\nm = {rack_len}\nracks = {racks}\n\n\
                 [workload]\nshape = datacenter\nn = {hot}\nseed = {seed}\n"
            ),
            rows: vec![(rack_jobs, (racks * rack_len) as u64)],
            golden: None,
        },
        PlanInput {
            text: format!(
                "[scenario]\nname = clique\n\n[topology]\nkind = clique\nm = {clique}\n\n\
                 [workload]\nshape = concentrated\nn = {clique_pile}\n"
            ),
            rows: vec![(clique_pile, clique)],
            golden: None,
        },
    ];
    Ok(Box::new(FabricRuns {
        plans: PlanWorkload::new(inputs)?,
    }))
}

impl Prepared for FabricRuns {
    fn pass(&mut self, rec: &mut Recorder) -> Outcome {
        self.plans.pass(rec)
    }

    fn layers(&mut self, rec: &mut Recorder) -> Vec<String> {
        let mut failures = self.plans.layers(rec);
        let topologies: Vec<_> = self
            .plans
            .inputs
            .iter()
            .filter_map(|input| parse_plan(&input.text).ok()?.fabric_topology())
            .collect();
        if topologies.len() != self.plans.inputs.len() {
            failures.push("a fabric plan has no fabric topology".to_string());
            return failures;
        }
        rec.span("cells", |rec| {
            rec.span("topology.peer", |_| {
                let mut acc = 0usize;
                for i in 0..PEER_CALLS / 2 {
                    let topo = &topologies[i % topologies.len()];
                    let v = i.wrapping_mul(2_654_435_761) % topo.len();
                    acc = acc.wrapping_add(topo.peer(v, i % topo.degree(v)));
                    acc = acc.wrapping_add(topo.distance(v, acc % topo.len()));
                }
                std::hint::black_box(acc);
            });
            rec.count("topology.peer.calls", PEER_CALLS as f64);
        });
        failures
    }
}
