//! Head-to-head: the mapping-agnostic baseline ("Prev.") vs the iterative
//! mapping-aware flow ("Iter.") on one kernel — a single row of Table I.
//!
//! ```sh
//! cargo run --release --example compare_strategies [kernel]
//! ```
//!
//! `kernel` is one of the nine Table I names (default: `gsumif`), run at
//! its Table I size.

use frequenz::core::{measure, optimize_baseline, optimize_iterative, FlowOptions};
use frequenz::hls::kernels;
use frequenz::sim::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gsumif".into());
    let kernel = kernels::all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .ok_or_else(|| format!("unknown kernel {name}"))?;
    let opts = FlowOptions::default();
    let budget = kernel.max_cycles * 8; // Table I's measurement budget

    println!("kernel {name}: running the mapping-agnostic baseline (Prev.)...");
    let prev = optimize_baseline(kernel.graph(), kernel.back_edges(), &opts)?;
    let prev_report = measure(&prev.graph, opts.k, budget)?;

    println!("kernel {name}: running the mapping-aware iterative flow (Iter.)...");
    let iter = optimize_iterative(kernel.graph(), kernel.back_edges(), &opts)?;
    let iter_report = measure(&iter.graph, opts.k, budget)?;

    // Both must still compute the right answer.
    for (label, g) in [("prev", &prev.graph), ("iter", &iter.graph)] {
        let mut s = Simulator::new(g)?;
        let stats = s.run(budget)?;
        kernel
            .check_outputs(stats.exit_value, |m| s.memory(m))
            .map_err(|e| format!("{label} broke the kernel: {e}"))?;
    }

    println!("\n              {:>12}  {:>12}", "Prev.", "Iter.");
    println!(
        "buffers       {:>12}  {:>12}",
        prev_report.buffers, iter_report.buffers
    );
    println!(
        "logic levels  {:>12}  {:>12}",
        prev_report.logic_levels, iter_report.logic_levels
    );
    println!(
        "CP (ns)       {:>12.2}  {:>12.2}",
        prev_report.cp_ns, iter_report.cp_ns
    );
    println!(
        "clock cycles  {:>12}  {:>12}",
        prev_report.cycles, iter_report.cycles
    );
    println!(
        "exec time(ns) {:>12.0}  {:>12.0}   ({:+.0}%)",
        prev_report.exec_time_ns,
        iter_report.exec_time_ns,
        100.0 * (iter_report.exec_time_ns - prev_report.exec_time_ns) / prev_report.exec_time_ns
    );
    println!(
        "LUTs          {:>12}  {:>12}   ({:+.0}%)",
        prev_report.luts,
        iter_report.luts,
        100.0 * (iter_report.luts as f64 - prev_report.luts as f64) / prev_report.luts as f64
    );
    println!(
        "FFs           {:>12}  {:>12}   ({:+.0}%)",
        prev_report.ffs,
        iter_report.ffs,
        100.0 * (iter_report.ffs as f64 - prev_report.ffs as f64) / prev_report.ffs as f64
    );
    println!(
        "\niterations: prev {} (single solve), iter {}",
        prev.iterations.len(),
        iter.iterations.len()
    );
    Ok(())
}
