//! `compete`: online policies measured against the offline optimum. One
//! pass is the adversarial compete catalog (80 golden rows) plus eight
//! page-migration arrival scripts on a 128-ring, where the per-wave flow
//! solves of `ring-opt`, repeated for each of the eight policies, are most
//! of the time. m = 256 takes twenty times longer and is out of scope.

use super::plans::{golden_digest, PlanInput, PlanWorkload};
use super::{read_repo_file, Outcome, Prepared, Rng, Size};
use crate::span::Recorder;
use ring_compete::{compete_catalog, policy_suite};
use ring_workloads::pagemig::PageMigration;

/// Generated scripts per pass. How long the flow solves take depends on
/// where a script's walk goes, so a pass averages over eight short scripts
/// rather than two long ones.
const SCRIPTS: usize = 8;

struct Compete {
    plans: PlanWorkload,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Box<dyn Prepared>, String> {
    let m: usize = size.pick(128, 32);
    let waves: u64 = size.pick(7, 3);
    let policies = policy_suite().len();
    let (catalog_rows, scripts) = rec.span("workloads.generate", |_| {
        let catalog_rows: Vec<(u64, u64)> = compete_catalog()
            .iter()
            .flat_map(|s| std::iter::repeat((s.total_work(), s.m as u64)).take(policies))
            .collect();
        let mut rng = Rng::new(seed, 5);
        let scripts: Vec<_> = (0..SCRIPTS)
            .map(|_| PageMigration::new(m, waves, 8, m as u64 / 2).script(rng.next_u64()))
            .collect();
        (catalog_rows, scripts)
    });
    let mut inputs = vec![PlanInput {
        text: read_repo_file("scenarios/compete-catalog.ring")?,
        rows: catalog_rows,
        golden: Some(golden_digest("compete-catalog.ring")?),
    }];
    for (i, script) in scripts.iter().enumerate() {
        let arrivals: Vec<String> = script
            .iter()
            .map(|(time, processor, count)| format!("{time}@{processor}:{count}"))
            .collect();
        let jobs: u64 = script.iter().map(|&(_, _, count)| count).sum();
        inputs.push(PlanInput {
            text: format!(
                "[scenario]\nname = pagemig-{i}\nmode = compete\n\n[topology]\nm = {m}\n\n\
                 [workload]\narrivals = {}\n",
                arrivals.join(";")
            ),
            rows: vec![(jobs, m as u64); policies],
            golden: None,
        });
    }
    Ok(Box::new(Compete {
        plans: PlanWorkload::new(inputs)?,
    }))
}

impl Prepared for Compete {
    fn pass(&mut self, rec: &mut Recorder) -> Outcome {
        let (mut out, reports) = self.plans.run(rec);
        let worst = reports
            .iter()
            .flat_map(|r| &r.ratios)
            .map(|r| r.ratio)
            .fold(0.0, f64::max);
        out.check(worst >= 1.0, || {
            format!("largest competitive ratio is {worst}")
        });
        out.scoped.push(("ratio_max", worst));
        out
    }

    fn layers(&mut self, rec: &mut Recorder) -> Vec<String> {
        self.plans.layers(rec)
    }
}
