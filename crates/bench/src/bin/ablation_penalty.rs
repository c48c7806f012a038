//! Ablation: the penalty term of Eq. 3 on vs off.
//!
//! With the penalty disabled (β weight applied uniformly — Eq. 1), the
//! solver happily buffers channels whose source unit shares logic with its
//! successor, forbidding cross-unit LUT packing and inflating area. This
//! ablation measures whether it does on a subset of kernels; the results
//! are in EXPERIMENTS.md ("Ablations").
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin ablation_penalty -- [--jobs N]
//! ```

use dataflow::par;
use frequenz_bench::{jobs_from_args, CompareError};
use frequenz_core::{measure_with_cache, optimize_iterative_with_cache, FlowOptions, SynthCache};

fn main() -> Result<(), CompareError> {
    let kernels = [
        hls::kernels::gsum(64),
        hls::kernels::gsumif(64),
        hls::kernels::gaussian(8),
        hls::kernels::matrix(6),
    ];
    // The on/off pair of one kernel shares a cache: both runs start from
    // the same seeded graph, so the off-variant's first synthesis hits.
    let caches: Vec<SynthCache> = kernels.iter().map(|_| SynthCache::new()).collect();
    let combos: Vec<(usize, bool)> = (0..kernels.len())
        .flat_map(|ki| [true, false].into_iter().map(move |on| (ki, on)))
        .collect();
    // `--jobs` sizes the cell pool and each flow's synthesis and slack
    // pools, as in `table1`; the printed table is the same at any count.
    let jobs = jobs_from_args();
    let cells = par::map(&combos, jobs, |&(ki, on)| {
        let k = &kernels[ki];
        let opts = FlowOptions {
            jobs,
            use_penalties: on,
            ..FlowOptions::default()
        };
        let r = optimize_iterative_with_cache(k.graph(), k.back_edges(), &opts, &caches[ki])?;
        let m = measure_with_cache(&r.graph, opts.k, k.max_cycles * 8, &caches[ki])?;
        Ok::<_, CompareError>((ki, on, m))
    });
    let mut results = Vec::new();
    for cell in cells {
        results.push(cell?);
    }
    println!(
        "{:<15} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "kernel", "LUTs(on)", "FFs(on)", "ET(on)", "LUTs(off)", "FFs(off)", "ET(off)"
    );
    for (ki, k) in kernels.iter().enumerate() {
        let find = |want_on: bool| {
            results
                .iter()
                .find(|(i, on, _)| *i == ki && *on == want_on)
                .map(|(_, _, m)| m)
                .expect("every cell completed")
        };
        let (m_on, m_off) = (find(true), find(false));
        println!(
            "{:<15} | {:>8} {:>8} {:>8.0} | {:>8} {:>8} {:>8.0}",
            k.name,
            m_on.luts,
            m_on.ffs,
            m_on.exec_time_ns,
            m_off.luts,
            m_off.ffs,
            m_off.exec_time_ns
        );
    }
    println!("\n(on = Eq. 3 with logic-sharing penalties; off = Eq. 1 weights on the same model)");
    Ok(())
}
