//! Ablation: the optimization objective — the paper's Eq. 3
//! (throughput + penalty-weighted area) vs a pure area-minimization
//! objective under the same clock-period constraints, demonstrating the
//! claim that the mapping-aware model "could be adapted to any
//! optimization objective".
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin ablation_objective -- [--jobs N]
//! ```

use dataflow::par;
use frequenz_bench::{jobs_from_args, CompareError};
use frequenz_core::{
    measure_with_cache, optimize_iterative_with_cache, FlowOptions, Objective, SynthCache,
};

fn main() -> Result<(), CompareError> {
    let kernels = [hls::kernels::gsum(64), hls::kernels::matrix(6)];
    let variants = [
        ("Eq.3", Objective::ThroughputAndArea, true),
        ("area-only", Objective::AreaOnly, false),
    ];
    let caches: Vec<SynthCache> = kernels.iter().map(|_| SynthCache::new()).collect();
    let combos: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|ki| (0..variants.len()).map(move |vi| (ki, vi)))
        .collect();
    let cells = par::map(&combos, jobs_from_args(), |&(ki, vi)| {
        let k = &kernels[ki];
        let (_, objective, slack) = variants[vi];
        let opts = FlowOptions {
            objective,
            slack_matching: slack,
            ..FlowOptions::default()
        };
        let r = optimize_iterative_with_cache(k.graph(), k.back_edges(), &opts, &caches[ki])?;
        let m = measure_with_cache(&r.graph, opts.k, k.max_cycles * 8, &caches[ki])?;
        Ok::<_, CompareError>((ki, vi, r, m))
    });
    println!(
        "{:<10} | {:>10} | {:>7} {:>7} {:>9} {:>9}",
        "kernel", "objective", "buffers", "LUTs", "cycles", "ET(ns)"
    );
    for cell in cells {
        let (ki, vi, r, m) = cell?;
        println!(
            "{:<10} | {:>10} | {:>7} {:>7} {:>9} {:>9.0}",
            kernels[ki].name,
            variants[vi].0,
            r.buffers.len(),
            m.luts,
            m.cycles,
            m.exec_time_ns
        );
    }
    println!("\n(area-only trades cycles for fewer buffers at the same CP budget)");
    Ok(())
}
