//! `sparse`: one pile on a large ring, sequential, uncompressed. About one
//! node-step in two thousand does work, so the cost is the idle sweep.

use super::plans::{ring_cell, PlanInput, PlanWorkload};
use super::{Outcome, Prepared, Rng, Size};
use crate::span::Recorder;

struct Sparse {
    plans: PlanWorkload,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Box<dyn Prepared>, String> {
    let m: u64 = size.pick(65_536, 2_048);
    let base: u64 = size.pick(100_000, 4_000);
    // The seed moves the pile's size by up to one percent: the makespan is
    // its square root, so passes at different seeds stay comparable.
    let n = rec.span("workloads.generate", |_| {
        base + Rng::new(seed, 1).range(0, base / 100)
    });
    let text = format!(
        "[scenario]\nname = sparse\n\n[topology]\nm = {m}\n\n[workload]\nshape = concentrated\nn = {n}\n\n[algorithm]\nname = c1\n"
    );
    Ok(Box::new(Sparse {
        plans: PlanWorkload::new(vec![PlanInput {
            text,
            rows: vec![(n, m)],
            golden: None,
        }])?,
    }))
}

impl Prepared for Sparse {
    fn pass(&mut self, rec: &mut Recorder) -> Outcome {
        self.plans.pass(rec)
    }

    fn layers(&mut self, rec: &mut Recorder) -> Vec<String> {
        let mut failures = self.plans.layers(rec);
        // What an idle-skip has to beat: the same instance with
        // quiescent-span compression on.
        let compressed = rec.span("cells", |rec| {
            ring_cell(
                &self.plans.inputs[0].text,
                |plan| plan.executor.compress = true,
                "engine.compress",
                rec,
            )
        });
        match compressed {
            Ok(makespans) if Some(&makespans) == self.plans.seen.first() => {}
            Ok(_) => failures.push("compress changed the makespan".to_string()),
            Err(e) => failures.push(format!("compress cell: {e}")),
        }
        failures
    }
}
