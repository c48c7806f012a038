//! Resource breakdown: where do the LUTs and FFs of a kernel go, under
//! both strategies? Makes the paper's "redundant buffers are an expensive
//! overhead" claim directly visible.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin utilization [kernel]
//! ```
//!
//! `kernel` is any Table I kernel at its Table I size (default: gsumif).

use frequenz_core::{
    optimize_baseline_with_cache, optimize_iterative_with_cache, utilization, FlowOptions,
    SynthCache,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gsumif".into());
    let Some(kernel) = hls::kernels::all_kernels()
        .into_iter()
        .find(|k| k.name == name)
    else {
        return Err(format!("unsupported kernel {name}").into());
    };
    let opts = FlowOptions::default();
    // One cache across both flows: the breakdown's re-syntheses of the
    // final graphs below are guaranteed hits.
    let cache = SynthCache::new();
    let prev = optimize_baseline_with_cache(kernel.graph(), kernel.back_edges(), &opts, &cache)?;
    let iter = optimize_iterative_with_cache(kernel.graph(), kernel.back_edges(), &opts, &cache)?;
    let sp = cache.synthesize(&prev.graph, opts.k)?;
    let si = cache.synthesize(&iter.graph, opts.k)?;
    let up = utilization(kernel.graph(), &sp);
    let ui = utilization(kernel.graph(), &si);

    println!("{name}: resource breakdown (Prev = mapping-agnostic, Iter = mapping-aware)\n");
    println!(
        "{:<10} | {:>8} {:>8} | {:>8} {:>8}",
        "category", "LUTs(P)", "FFs(P)", "LUTs(I)", "FFs(I)"
    );
    let mut cats: Vec<&String> = up.iter().chain(ui.iter()).map(|(c, _, _)| c).collect();
    cats.sort();
    cats.dedup();
    for c in cats {
        let find = |u: &[(String, usize, usize)]| {
            u.iter()
                .find(|(cc, _, _)| cc == c)
                .map(|(_, l, f)| (*l, *f))
                .unwrap_or((0, 0))
        };
        let (lp, fp) = find(&up);
        let (li, fi) = find(&ui);
        println!("{c:<10} | {lp:>8} {fp:>8} | {li:>8} {fi:>8}");
    }
    println!(
        "\ntotals     | {:>8} {:>8} | {:>8} {:>8}",
        sp.lut_count(),
        sp.ff_count(),
        si.lut_count(),
        si.ff_count()
    );
    println!(
        "buffers placed: prev = {}, iter = {}",
        prev.buffers.len(),
        iter.buffers.len()
    );
    Ok(())
}
