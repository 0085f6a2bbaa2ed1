//! `parallel`: every parallel executor the repo ships, on two shards and
//! two threads because the reference box has two cores. The ring plans run
//! one hotspot instance (the page-migration walk collapsed to initial
//! loads, as `ringsched bench` builds it) under static arcs and under
//! stealing with ledger recuts; the torus plan runs the fabric's `par_run`.
//! Every executor knob is written into the plans, so no `RING_*` variable
//! or core count decides anything.

use super::plans::{ring_cell, PlanInput, PlanWorkload};
use super::{Outcome, Prepared, Rng, Size};
use crate::layers;
use crate::span::Recorder;
use ring_scenario::{execute, parse_plan, ExecutorSpec};
use ring_workloads::pagemig::PageMigration;

const PAR: &str = "[executor]\nmode = par\nshards = 2\nwindow = 64\n";
const STEAL: &str = "[executor]\nmode = steal\nshards = 2\nwindow = 64\nrebalance = true\n\
                     tasks-per-shard = 4\nsteal-seed = 0\nthreads = 2\n";

struct Parallel {
    plans: PlanWorkload,
    /// The hotspot plan with no `[executor]` section.
    sequential: String,
    /// Digest of the sequential run, once `reference` has made it.
    reference: Option<u64>,
}

pub fn setup(seed: u64, size: Size, rec: &mut Recorder) -> Result<Box<dyn Prepared>, String> {
    let m: usize = size.pick(131_072, 2_048);
    let side: u64 = size.pick(256, 16);
    let pile_base: u64 = size.pick(500_000, 4_000);
    let (loads, pile) = rec.span("workloads.generate", |_| {
        // The hotspot is the one `ringsched bench` builds (page-migration
        // seed 1994) at every workload seed: its makespan jumps by half when
        // the burst moves by one percent, so no redrawn or rescaled walk
        // gives passes that compare across seeds. The seed sizes the pile.
        let mut loads = vec![0u64; m];
        for (_, p, c) in PageMigration::new(m, 16, 1, m as u64 / 2).script(1994) {
            loads[p] += c;
        }
        (
            loads,
            pile_base + Rng::new(seed, 2).range(0, pile_base / 100),
        )
    });
    let total: u64 = loads.iter().sum();
    let line: Vec<String> = loads.iter().map(u64::to_string).collect();
    let sequential = format!(
        "[scenario]\nname = hotspot\n\n[workload]\nloads = {}\n\n[algorithm]\nname = c2\n",
        line.join(" ")
    );
    let torus = format!(
        "[scenario]\nname = torus-par\n\n[topology]\nkind = torus\nrows = {side}\ncols = {side}\n\n\
         [workload]\nshape = concentrated\nn = {pile}\n\n[executor]\nmode = par\nshards = 2\n"
    );
    let ring_row = vec![(total, m as u64)];
    let inputs = vec![
        PlanInput {
            text: format!("{sequential}\n{PAR}"),
            rows: ring_row.clone(),
            golden: None,
        },
        PlanInput {
            text: format!("{sequential}\n{STEAL}"),
            rows: ring_row,
            golden: None,
        },
        PlanInput {
            text: torus,
            rows: vec![(pile, side * side)],
            golden: None,
        },
    ];
    Ok(Box::new(Parallel {
        plans: PlanWorkload::new(inputs)?,
        sequential,
        reference: None,
    }))
}

impl Prepared for Parallel {
    fn reference(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let digest = parse_plan(&self.sequential)
            .map_err(|e| e.to_string())
            .and_then(|plan| execute(&plan))
            .map(|report| report.digest);
        out.check(digest.is_ok(), || {
            format!("sequential reference: {}", digest.clone().unwrap_err())
        });
        self.reference = digest.ok();
        out
    }

    fn pass(&mut self, rec: &mut Recorder) -> Outcome {
        let (mut out, reports) = self.plans.run(rec);
        if let [par, steal, _torus] = &reports[..] {
            out.check(par.digest == steal.digest, || {
                "hotspot digest differs between par and steal".to_string()
            });
            if let Some(reference) = self.reference {
                out.check(par.digest == reference, || {
                    "hotspot digest differs between run and par".to_string()
                });
            }
        }
        out
    }

    fn layers(&mut self, rec: &mut Recorder) -> Vec<String> {
        let mut failures = self.plans.layers(rec);
        let inputs = &self.plans.inputs;
        let cells = rec.span("cells", |rec| -> Result<Vec<Vec<u64>>, String> {
            // The bases of the speed-ups: the sequential engine on the
            // hotspot, stealing without recuts, the sequential fabric.
            let run = ring_cell(
                &inputs[0].text,
                |plan| plan.executor = ExecutorSpec::default(),
                "engine.run",
                rec,
            )?;
            let norebal = ring_cell(
                &inputs[1].text,
                |plan| plan.executor.rebalance = Some(false),
                "engine.par_steal_norebal",
                rec,
            )?;
            let mut torus = parse_plan(&inputs[2].text).map_err(|e| e.to_string())?;
            torus.executor = ExecutorSpec::default();
            Ok(vec![run, norebal, layers::replay_fabric(&torus, rec)?])
        });
        match cells {
            Err(e) => failures.push(format!("parallel cells: {e}")),
            Ok(cells) => {
                let seen = &self.plans.seen;
                if seen.len() != 3
                    || cells[0] != seen[0]
                    || cells[1] != seen[1]
                    || cells[2] != seen[2]
                {
                    failures.push("an executor changed a makespan".to_string());
                }
            }
        }
        failures
    }
}
