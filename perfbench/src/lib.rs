//! Single-core benchmark of the frequenz flows.
//!
//! An untraced run times whole passes over a workload's kernels through
//! the public flow entry points and prints the end-to-end metrics. A traced
//! run replays both flows layer by layer through the public API, with a
//! span around every call into a layer, and prints the per-layer metrics.
//! See `README.md` in this directory.

pub mod affinity;
pub mod cli;
pub mod metrics;
pub mod pass;
pub mod probe;
pub mod replay;
pub mod spans;
pub mod workload;

use hls::Kernel;
use std::hint::black_box;
use std::time::Instant;
use workload::Workload;

/// Kernel-set builds timed before each kernel run of the untraced passes.
pub const SETUP_BATCH: usize = 4;

/// Times [`SETUP_BATCH`] builds of the workload's kernels (graphs and
/// software references), appending seconds per build to `samples`. Each
/// build is dropped outside the timed region.
pub fn sample_setup(workload: Workload, samples: &mut Vec<f64>) {
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        let built: Vec<Kernel> = black_box(workload.kernels());
        samples.push(t.elapsed().as_secs_f64());
        drop(built);
    }
}
