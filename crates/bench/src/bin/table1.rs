//! Regenerates **Table I** of the paper: the nine kernels measured under
//! the mapping-agnostic baseline ("Prev.") and the iterative mapping-aware
//! flow ("Iter.") — CP, clock cycles, execution time, LUTs, FFs, logic
//! levels, and the improvement ratios.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin table1 -- [--jobs N] \
//!     [--target N] [--lut-k N] [--max-iterations N] \
//!     [--no-penalties] [--no-slack-matching] [--area-only]
//! ```
//!
//! With no flags it runs the paper's operating point (6 levels, K = 6).
//! The other flags move the operating point or switch one mechanism of
//! the flows off, for the target sweep and the ablations in
//! EXPERIMENTS.md; the header line names every setting off its default.
//! A malformed command line exits with code 2 before any flow runs.
//!
//! Kernels run in parallel (`--jobs`, default: all cores). Everything
//! deterministic is printed first: Table I, one counter table per layer
//! for both flows, the summary verdicts and the Figure 5 series. A line
//! starting with `durations` then opens the wall-clock figures and the
//! job count, the only output that differs between runs and job counts;
//! `scripts/check_table1.sh` pins every line above it at targets 6, 4
//! and 8.

use frequenz_bench::{compare_kernels, flow_options_from_args, CompareError, KernelComparison};
use frequenz_core::{FlowOptions, FlowTrace, Objective};
use std::time::Duration;

/// Prints `lines` under `title` and a `header` of whitespace-separated
/// column names, one column per cell: the kernel and row-label columns
/// left-aligned, every other column right-aligned to its widest cell.
fn print_table(title: &str, header: &str, lines: Vec<Vec<String>>) {
    let mut all = vec![header
        .split_whitespace()
        .map(String::from)
        .collect::<Vec<_>>()];
    all.extend(lines);
    let widths: Vec<usize> = (0..all[0].len())
        .map(|i| all.iter().map(|l| l[i].chars().count()).max().unwrap_or(0))
        .collect();
    println!("\n{title}");
    for line in &all {
        let cells: Vec<String> = line
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(i, (cell, &w))| {
                if i < 2 {
                    format!("{cell:<w$}")
                } else {
                    format!("{cell:>w$}")
                }
            })
            .collect();
        println!("{}", cells.join(" "));
    }
}

/// A rate as a whole percentage.
fn pct(rate: f64) -> String {
    format!("{:.0}%", 100.0 * rate)
}

/// One table's lines: for each kernel, its labeled rows, each after the
/// kernel name.
fn lines(
    rows: &[KernelComparison],
    per_kernel: impl Fn(&KernelComparison) -> Vec<(&'static str, Vec<String>)>,
) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for c in rows {
        for (label, cells) in per_kernel(c) {
            let mut line = vec![c.name.to_string(), label.to_string()];
            line.extend(cells);
            out.push(line);
        }
    }
    out
}

/// The Prev and Iter rows of one kernel: `cells` of each flow's trace.
fn flows(
    c: &KernelComparison,
    cells: impl Fn(&FlowTrace) -> Vec<String>,
) -> Vec<(&'static str, Vec<String>)> {
    vec![
        ("Prev", cells(&c.prev_trace)),
        ("Iter", cells(&c.iter_trace)),
    ]
}

/// Formats counters as cells.
fn counts<const N: usize>(values: [u64; N]) -> Vec<String> {
    values.iter().map(u64::to_string).collect()
}

/// Compares the nine evaluation kernels on `opts.jobs` threads, prints
/// Table I and returns the comparisons. Rows are in kernel order no matter
/// the job count.
///
/// # Errors
///
/// Propagates the first (in kernel order) kernel failure.
fn run_table1_jobs(opts: &FlowOptions) -> Result<Vec<KernelComparison>, CompareError> {
    let rows = compare_kernels(&hls::kernels::all_kernels(), opts)?;
    println!(
        "{:<15} | {:>6} {:>6} | {:>8} {:>8} | {:>9} {:>9} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>5} {:>5} | {:>5}",
        "Benchmark", "CP(P)", "CP(I)", "Cyc(P)", "Cyc(I)", "ET(P)", "ET(I)", "ET%",
        "LUT(P)", "LUT(I)", "LUT%", "FF(P)", "FF(I)", "FF%", "LL(P)", "LL(I)", "iters"
    );
    for c in &rows {
        println!(
            "{:<15} | {:>6.2} {:>6.2} | {:>8} {:>8} | {:>9.0} {:>9.0} {:>+5.0}% | {:>6} {:>6} {:>+5.0}% | {:>6} {:>6} {:>+5.0}% | {:>5} {:>5} | {:>5}",
            c.name,
            c.prev.cp_ns,
            c.iter.cp_ns,
            c.prev.cycles,
            c.iter.cycles,
            c.prev.exec_time_ns,
            c.iter.exec_time_ns,
            100.0 * c.et_ratio(),
            c.prev.luts,
            c.iter.luts,
            100.0 * c.lut_ratio(),
            c.prev.ffs,
            c.iter.ffs,
            100.0 * c.ff_ratio(),
            c.prev.logic_levels,
            c.iter.logic_levels,
            c.iter_iterations,
        );
    }
    Ok(rows)
}

/// The counter tables: one per layer, both flows, nothing timed.
fn print_counters(rows: &[KernelComparison]) {
    print_table(
        "synthesis counters:",
        "Benchmark flow fullS incrS lbl(re) lbl(new) re% packed unitT dirtyBBs",
        lines(rows, |c| {
            flows(c, |t| {
                let mut cells = counts([
                    t.full_synths,
                    t.incr_synths,
                    t.labels_reused,
                    t.labels_computed,
                ]);
                cells.push(pct(t.label_reuse_rate()));
                cells.extend(counts([t.par_pack_tasks, t.par_unit_tasks]));
                cells.push(format!("{}/{}", t.dirty_bbs, t.dirty_bbs + t.clean_bbs));
                cells
            })
        }),
    );
    print_table(
        "placement MILP counters (lazyR: lazy clock-period cut rounds; cuts, rounds: root cuts; trunc: truncated/solves; lpFb: LP-rounding fallbacks):",
        "Benchmark flow lazyR pivots nodes refactor rowsDrop cuts rounds pruned tighten warmH/M trunc lpFb",
        lines(rows, |c| {
            flows(c, |t| {
                let mut cells = counts([
                    t.cut_rounds as u64,
                    t.milp_pivots,
                    t.milp_nodes,
                    t.milp_refactors,
                    t.milp_rows_dropped,
                    t.milp_cuts,
                    t.milp_cut_rounds,
                    t.milp_nodes_pruned,
                    t.milp_bounds_tightened,
                ]);
                cells.push(format!("{}/{}", t.milp_warm_hits, t.milp_warm_misses));
                cells.push(format!("{}/{}", t.milp_truncated, t.milp_solves));
                cells.push(t.milp_lp_fallbacks.to_string());
                cells
            })
        }),
    );
    print_table(
        "simulation and slack counters (meas: verification and measurement runs):",
        "Benchmark flow runs cycles compiles trials pruned",
        lines(rows, |c| {
            let mut v = flows(c, |t| {
                counts([
                    t.sim_runs,
                    t.sim_cycles,
                    t.sim_compiles,
                    t.slack_trials,
                    t.slack_trials_pruned,
                ])
            });
            let m = &c.meas_sim;
            let mut meas = counts([m.runs, m.cycles, m.compiles]);
            meas.extend(["-".into(), "-".into()]);
            v.push(("meas", meas));
            v
        }),
    );
    let cache_cells = |hits: u64, misses: u64, rate: f64| {
        let mut cells = counts([hits, hits + misses]);
        cells.push(pct(rate));
        cells
    };
    print_table(
        "synthesis cache counters (all: the whole comparison, one cache per kernel):",
        "Benchmark flow hits requests hit%",
        lines(rows, |c| {
            let mut v = flows(c, |t| {
                cache_cells(t.cache_hits, t.cache_misses, t.cache_hit_rate())
            });
            v.push((
                "all",
                cache_cells(c.cache_hits, c.cache_misses, c.cache_hit_rate()),
            ));
            v
        }),
    );
}

/// The verdicts against the paper's claims.
fn print_summary(rows: &[KernelComparison], opts: &FlowOptions) {
    let n = rows.len();
    println!("\nsummary ({n} kernels):");
    let improved_et = rows.iter().filter(|r| r.et_ratio() < 0.0).count();
    let improved_lut = rows.iter().filter(|r| r.lut_ratio() <= 0.0).count();
    let improved_ff = rows.iter().filter(|r| r.ff_ratio() <= 0.0).count();
    let meets = rows
        .iter()
        .filter(|r| r.iter.logic_levels <= opts.target_levels)
        .count();
    println!("  iterative meets the level target on {meets}/{n} kernels");
    println!("  execution time improved on {improved_et}/{n} kernels");
    println!("  LUTs improved on {improved_lut}/{n}, FFs on {improved_ff}/{n}");
    let best_et = rows
        .iter()
        .map(|r| r.et_ratio())
        .fold(f64::INFINITY, f64::min);
    println!(
        "  best execution-time reduction: {:.0}% (paper: up to -29%)",
        100.0 * best_et
    );
    let mut iter = FlowTrace::default();
    for r in rows {
        iter.absorb(&r.iter_trace);
    }
    println!(
        "  incremental re-synthesis: {}/{} FlowMap labels reused ({})",
        iter.labels_reused,
        iter.labels_reused + iter.labels_computed,
        pct(iter.label_reuse_rate())
    );
}

/// The wall-clock figures, after the `durations` line.
fn print_durations(rows: &[KernelComparison], jobs: usize, total: Duration) {
    println!(
        "\ndurations (wall clock, not pinned; {jobs} jobs): {} kernels in {:.1} s",
        rows.len(),
        total.as_secs_f64()
    );
    let s = |d: Duration| format!("{:.2}", d.as_secs_f64());
    // Only one column of the `meas` and `all` rows is timed.
    let one = |col: usize, value: String| {
        let mut cells = vec!["-".to_string(); 8];
        cells[col] = value;
        cells
    };
    print_table(
        "phase seconds (sim overlaps timing and slack; all: the whole comparison):",
        "Benchmark flow total synth full incr timing milp slack sim",
        lines(rows, |c| {
            let mut v = flows(c, |t| {
                [
                    t.total,
                    t.synth,
                    t.synth_full,
                    t.synth_incremental,
                    t.timing,
                    t.milp,
                    t.slack,
                    t.sim,
                ]
                .map(s)
                .to_vec()
            });
            v.push(("meas", one(7, s(c.meas_sim.time))));
            v.push(("all", one(0, format!("{:.2}", c.wall_s))));
            v
        }),
    );
}

/// The header line: the operating point, then each flow switch that is
/// off its default. The job count is left to the durations line.
fn header(opts: &FlowOptions) -> String {
    let mut line = format!(
        "Table I reproduction — target {} logic levels (CP ≈ {:.1} ns), K = {}",
        opts.target_levels,
        opts.target_levels as f64 * dataflow::LOGIC_LEVEL_DELAY_NS,
        opts.k
    );
    if opts.max_iterations != FlowOptions::default().max_iterations {
        line += &format!(", iteration cap {}", opts.max_iterations);
    }
    if !opts.use_penalties {
        line += ", no penalties";
    }
    if !opts.slack_matching {
        line += ", no slack matching";
    }
    if opts.objective == Objective::AreaOnly {
        line += ", area-only objective";
    }
    line
}

fn main() -> Result<(), CompareError> {
    // One knob drives both pools: kernels compare in parallel *and* each
    // flow's synthesis/slack lanes use the same worker width. Branch and
    // bound sizes its node-LP pool from the CPU mask instead, so `--jobs 1`
    // is not single-threaded on a multi-core host. Results are
    // bit-identical at any job count, so this only trades wall clock.
    let opts = flow_options_from_args();
    println!("{}", header(&opts));
    let t0 = std::time::Instant::now();
    let rows = run_table1_jobs(&opts)?;
    let total = t0.elapsed();
    print_counters(&rows);
    print_summary(&rows, &opts);

    // Figure 5 companion series (Iter normalized to Prev).
    println!("\nFigure 5 series (name, ET ratio, LUT ratio, FF ratio):");
    for r in &rows {
        println!(
            "  {:<15} {:>6.3} {:>6.3} {:>6.3}",
            r.name,
            r.iter.exec_time_ns / r.prev.exec_time_ns,
            r.iter.luts as f64 / r.prev.luts as f64,
            r.iter.ffs as f64 / r.prev.ffs as f64
        );
    }

    print_durations(&rows, opts.jobs, total);
    Ok(())
}
