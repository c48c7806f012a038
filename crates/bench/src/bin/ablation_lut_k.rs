//! Ablation: LUT input count K ∈ {4, 5, 6}.
//!
//! The paper maps with ABC's `if -K 6` (Stratix-IV ALMs ≈ 6-LUTs). Smaller
//! K deepens the mapping, forcing more buffers for the same nanosecond
//! budget; this sweep quantifies the sensitivity.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin ablation_lut_k -- [--jobs N]
//! ```

use dataflow::par;
use frequenz_bench::{jobs_from_args, CompareError};
use frequenz_core::{measure_with_cache, optimize_iterative_with_cache, FlowOptions, SynthCache};

fn main() -> Result<(), CompareError> {
    let kernels = [hls::kernels::gsum(64), hls::kernels::gsumif(64)];
    // One cache per kernel: distinct K values are distinct cache keys, so
    // sharing across the K sweep is safe and the measurement re-synthesis
    // of each flow's final graph always hits.
    let caches: Vec<SynthCache> = kernels.iter().map(|_| SynthCache::new()).collect();
    let combos: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|ki| [4usize, 5, 6].into_iter().map(move |lut_k| (ki, lut_k)))
        .collect();
    let cells = par::map(&combos, jobs_from_args(), |&(ki, lut_k)| {
        let k = &kernels[ki];
        let opts = FlowOptions {
            k: lut_k,
            ..FlowOptions::default()
        };
        let r = optimize_iterative_with_cache(k.graph(), k.back_edges(), &opts, &caches[ki])?;
        let m = measure_with_cache(&r.graph, lut_k, k.max_cycles * 8, &caches[ki])?;
        Ok::<_, CompareError>((ki, lut_k, r, m))
    });
    println!(
        "{:<10} | {:>2} | {:>6} {:>7} {:>7} {:>8} {:>9}",
        "kernel", "K", "levels", "buffers", "LUTs", "CP(ns)", "ET(ns)"
    );
    let mut last_kernel = usize::MAX;
    for cell in cells {
        let (ki, lut_k, r, m) = cell?;
        if ki != last_kernel && last_kernel != usize::MAX {
            println!();
        }
        last_kernel = ki;
        println!(
            "{:<10} | {:>2} | {:>6} {:>7} {:>7} {:>8.2} {:>9.0}",
            kernels[ki].name,
            lut_k,
            m.logic_levels,
            r.buffers.len(),
            m.luts,
            m.cp_ns,
            m.exec_time_ns
        );
    }
    Ok(())
}
