//! The eight workloads. Each builds its inputs from the seed (`setup`),
//! runs whole passes of fixed work (`pass`), and in the traced run walks
//! the same work layer by layer and adds layer-only comparison cells
//! (`layers`). The program under test only ever sees the generated inputs.

mod compete;
mod fabric;
mod parallel;
mod plans;
mod service;
mod sparse;
mod traced_faulty;

pub use service::percentile;

use crate::span::Recorder;
use std::path::PathBuf;

/// What one pass did, with everything the end-to-end metrics need.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The timed part of the pass.
    pub wall_s: f64,
    /// Unit jobs processed.
    pub jobs: u64,
    /// Sum of makespan × node count over the runs of the pass.
    pub node_steps: u64,
    /// Sum of makespans (for a service: the final virtual clock).
    pub sim_steps: u64,
    /// Digest of everything the pass produced; equal across repetitions.
    pub digest: u64,
    /// Correctness checks made and the ones that failed.
    pub checks: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics only this workload has.
    pub scoped: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one check; `ok == false` records `what` as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

pub trait Prepared {
    /// An untimed check against a reference the passes bypass (the
    /// sequential executor, for the parallel workload). Runs once.
    fn reference(&mut self) -> Outcome {
        Outcome::default()
    }

    /// One pass. With the recorder on, the same work runs inside spans.
    fn pass(&mut self, rec: &mut Recorder) -> Outcome;

    /// The pass again through the layers' public functions, plus this
    /// workload's comparison cells. Returns what failed.
    fn layers(&mut self, rec: &mut Recorder) -> Vec<String>;
}

/// Input sizes: the measured ones, or the small ones of `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Builds the inputs of workload `name` from `seed`.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    rec: &mut Recorder,
) -> Result<Box<dyn Prepared>, String> {
    match name {
        "catalog" => plans::catalog(size, rec),
        "sparse" => sparse::setup(seed, size, rec),
        "parallel" => parallel::setup(seed, size, rec),
        "traced-faulty" => traced_faulty::setup(seed, size, rec),
        "fabric" => fabric::setup(seed, size, rec),
        "service-steady" => service::setup(service::Kind::Steady, seed, size, rec),
        "service-overload" => service::setup(service::Kind::Overload, seed, size, rec),
        "compete" => compete::setup(seed, size, rec),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The checkout this binary was built in: the benchmark reads the catalog
/// scenarios and golden digests from there and writes only under
/// `benchmark/out`.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

pub fn read_repo_file(rel: &str) -> Result<String, String> {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone and not on which `rand` stand-in the workspace links.
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the generators of one workload.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// FNV-1a over 64-bit words: folds the digests of a pass into one.
pub fn fold_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
