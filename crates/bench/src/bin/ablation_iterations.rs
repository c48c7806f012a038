//! Ablation: the iteration cap of the Figure-4 loop (1 … 6).
//!
//! One iteration is the non-iterative mapping-aware placement; the paper's
//! iterative refinement (Section V) needs "less than 3 iterations" to meet
//! the level target. This sweep shows achieved levels and buffer counts as
//! the cap grows.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin ablation_iterations -- [--jobs N]
//! ```

use dataflow::par;
use frequenz_bench::{jobs_from_args, CompareError};
use frequenz_core::{optimize_iterative_with_cache, FlowOptions, SynthCache};

fn main() -> Result<(), CompareError> {
    let kernels = [
        hls::kernels::gsumif(64),
        hls::kernels::matrix(6),
        hls::kernels::mvt(6),
    ];
    // Every (kernel, cap) cell is independent — fan the grid out, but keep
    // one synthesis cache per kernel: the cap-c run re-synthesizes the
    // same intermediate graphs the cap-(c−1) run already saw.
    let caches: Vec<SynthCache> = kernels.iter().map(|_| SynthCache::new()).collect();
    let combos: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|ki| (1..=6).map(move |cap| (ki, cap)))
        .collect();
    let cells = par::map(&combos, jobs_from_args(), |&(ki, cap)| {
        let k = &kernels[ki];
        let opts = FlowOptions {
            max_iterations: cap,
            ..FlowOptions::default()
        };
        optimize_iterative_with_cache(k.graph(), k.back_edges(), &opts, &caches[ki])
            .map(|r| (ki, cap, r))
    });
    println!(
        "{:<15} | {:>4} | {:>7} {:>7} {:>9}",
        "kernel", "cap", "levels", "buffers", "converged"
    );
    let mut last_kernel = usize::MAX;
    for cell in cells {
        let (ki, cap, r) = cell?;
        if ki != last_kernel && last_kernel != usize::MAX {
            println!();
        }
        last_kernel = ki;
        println!(
            "{:<15} | {:>4} | {:>7} {:>7} {:>9}",
            kernels[ki].name,
            cap,
            r.achieved_levels,
            r.buffers.len(),
            r.converged
        );
    }
    for (k, cache) in kernels.iter().zip(&caches) {
        eprintln!(
            "[ablation_iterations] {}: cache {}/{} hits",
            k.name,
            cache.hits(),
            cache.hits() + cache.misses()
        );
    }
    Ok(())
}
