//! Benchmark harness: the shared Prev-vs-Iter comparison runner used by
//! the table/figure regeneration binaries (`table1`, `figure5`, the
//! ablations), and the command-line parsing shared with the lane benches
//! (`bench_milp`, `bench_sim`, `bench_synth`).
//!
//! Comparisons run **in parallel** across kernels ([`parallel_map`],
//! `--jobs N` in every binary) with a per-kernel [`SynthCache`] shared by
//! the baseline flow, the iterative flow and the final measurements, so
//! structurally repeated syntheses are served from memory. Row order is
//! deterministic — the kernel list order — regardless of the job count.

use frequenz_core::{
    measure_traced, optimize_baseline_with_cache, optimize_iterative_with_cache, CircuitReport,
    FlowOptions, FlowResult, FlowTrace, SimStats, SynthCache,
};
use hls::Kernel;
use sim::{SimEngine, Simulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One row of Table I: a kernel measured under both strategies.
#[derive(Debug, Clone)]
pub struct KernelComparison {
    /// Kernel name.
    pub name: &'static str,
    /// The mapping-agnostic baseline measurement ("Prev.").
    pub prev: CircuitReport,
    /// The iterative mapping-aware measurement ("Iter.").
    pub iter: CircuitReport,
    /// Iterations the mapping-aware flow used.
    pub iter_iterations: usize,
    /// Whether the mapping-aware flow met the level target.
    pub iter_converged: bool,
    /// Phase breakdown of the baseline flow.
    pub prev_trace: FlowTrace,
    /// Phase breakdown of the iterative flow.
    pub iter_trace: FlowTrace,
    /// Synthesis-cache hits across the whole comparison (both flows and
    /// both measurements share one cache).
    pub cache_hits: u64,
    /// Synthesis-cache misses across the whole comparison.
    pub cache_misses: u64,
    /// Simulation time outside the flows: the two verification runs and
    /// the two Table I measurements (the flows' own simulation time lives
    /// in their traces' `sim` lanes).
    pub meas_sim: SimStats,
    /// Wall-clock seconds for the whole comparison.
    pub wall_s: f64,
}

impl KernelComparison {
    /// Execution-time ratio `iter / prev − 1` (negative = improvement).
    pub fn et_ratio(&self) -> f64 {
        self.iter.exec_time_ns / self.prev.exec_time_ns - 1.0
    }

    /// LUT ratio `iter / prev − 1`.
    pub fn lut_ratio(&self) -> f64 {
        self.iter.luts as f64 / self.prev.luts as f64 - 1.0
    }

    /// FF ratio `iter / prev − 1`.
    pub fn ff_ratio(&self) -> f64 {
        self.iter.ffs as f64 / self.prev.ffs as f64 - 1.0
    }

    /// Cache hit rate across the comparison (0 when nothing ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Errors from a comparison run (`Send + Sync` so failures cross the
/// parallel runner's thread boundary).
pub type CompareError = Box<dyn std::error::Error + Send + Sync>;

/// Runs `f` over `items` on up to `jobs` scoped threads, returning the
/// results **in item order**.
///
/// Work is claimed dynamically (an atomic cursor), so long and short items
/// mix freely; `jobs <= 1` degenerates to a plain sequential map, and the
/// thread count never exceeds the item count. Panics in a worker propagate
/// when the scope joins.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().unwrap() = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot is filled"))
        .collect()
}

/// Parses `--jobs N` (or `-j N`, `--jobs=N`) from the process arguments;
/// defaults to the machine's available parallelism. A malformed or zero
/// job count prints the reason and exits with code 2: the worker pools
/// need at least one thread, as [`FlowOptions::validate`] requires.
pub fn jobs_from_args() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    count_from_args(JOBS_FLAGS, cores)
}

/// Parses `--repeats N` (or `--repeats=N`) from the process arguments;
/// defaults to 3. A malformed or zero count prints the reason and exits
/// with code 2.
pub fn repeats_from_args() -> usize {
    count_from_args(&["--repeats"], 3)
}

/// The count named by the first of `flags` in the process arguments, or
/// `default` if none is given. A malformed or zero count prints the
/// reason and exits with code 2.
pub fn count_from_args(flags: &[&str], default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    match parse_count(&args, flags) {
        Ok(n) => n.unwrap_or(default),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// The spellings [`jobs_from_args`] accepts.
const JOBS_FLAGS: &[&str] = &["--jobs", "-j"];

/// The count named by the first `FLAG N` or `FLAG=N` in `args` with
/// `FLAG` one of `flags`, or `None` if there is none.
///
/// # Errors
///
/// A flag without a value, a value that is not an unsigned integer, or 0.
fn parse_count(args: &[String], flags: &[&str]) -> Result<Option<usize>, String> {
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let (flag, value) = if flags.contains(&a.as_str()) {
            let value = args.next().ok_or_else(|| format!("{a} needs a value"))?;
            (a.as_str(), value.as_str())
        } else if let Some((flag, value)) = a.split_once('=').filter(|(f, _)| flags.contains(f)) {
            (flag, value)
        } else {
            continue;
        };
        return match value.parse::<usize>() {
            Ok(0) => Err(format!("{flag} 0: must be at least 1")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("{flag} {value:?}: not an unsigned integer")),
        };
    }
    Ok(None)
}

/// The value of the first `FLAG VALUE` or `FLAG=VALUE` in the process
/// arguments, or `None` if `flag` is not given (a trailing `flag` with
/// no value also reads as absent).
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// Asserts that `result`'s circuit still computes the kernel's reference
/// outputs (every optimization must be functionally invisible).
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn verify_outputs(kernel: &Kernel, result: &FlowResult) -> Result<(), CompareError> {
    verify_outputs_traced(kernel, result, &mut SimStats::default())
}

/// [`verify_outputs`] with instrumentation: the verification run's wall
/// clock, executed cycles and bytecode compile are tallied into `sim`.
///
/// # Errors
///
/// Same contract as [`verify_outputs`].
pub fn verify_outputs_traced(
    kernel: &Kernel,
    result: &FlowResult,
    sim: &mut SimStats,
) -> Result<(), CompareError> {
    let mut s = Simulator::with_engine(&result.graph, SimEngine::Compiled)?;
    sim.compiles += 1;
    let t = Instant::now();
    let res = s.run(kernel.max_cycles * 8);
    sim.tally(t.elapsed(), s.cycle());
    let stats = res?;
    if let Some(exp) = kernel.expected_exit {
        if stats.exit_value != Some(exp) {
            return Err(format!(
                "{}: exit value {:?} != expected {exp}",
                kernel.name, stats.exit_value
            )
            .into());
        }
    }
    for (mem, expected) in &kernel.expected_mems {
        if s.memory(*mem) != expected.as_slice() {
            return Err(format!(
                "{}: memory {} deviates from the reference",
                kernel.name,
                result.graph.memory(*mem).name()
            )
            .into());
        }
    }
    Ok(())
}

/// Runs both flows on `kernel` and measures them — one full Table I row.
///
/// Both flows and both measurements share one fresh [`SynthCache`], so the
/// iterative flow's internal repeats and each measurement's re-synthesis
/// of the flow's final graph hit memory.
///
/// # Errors
///
/// Propagates flow, measurement and verification failures.
pub fn compare_kernel(
    kernel: &Kernel,
    opts: &FlowOptions,
) -> Result<KernelComparison, CompareError> {
    let start = Instant::now();
    let budget = kernel.max_cycles * 8;
    let cache = SynthCache::new();
    let mut meas_sim = SimStats::default();
    let prev = optimize_baseline_with_cache(kernel.graph(), kernel.back_edges(), opts, &cache)?;
    verify_outputs_traced(kernel, &prev, &mut meas_sim)?;
    let sim_opts = frequenz_core::SimOptions {
        engine: opts.sim_engine,
    };
    let prev_report = measure_traced(&prev.graph, opts.k, budget, &cache, sim_opts, &mut meas_sim)?;

    let iter = optimize_iterative_with_cache(kernel.graph(), kernel.back_edges(), opts, &cache)?;
    verify_outputs_traced(kernel, &iter, &mut meas_sim)?;
    let iter_report = measure_traced(&iter.graph, opts.k, budget, &cache, sim_opts, &mut meas_sim)?;

    Ok(KernelComparison {
        name: kernel.name,
        prev: prev_report,
        iter: iter_report,
        iter_iterations: iter.iterations.len(),
        iter_converged: iter.converged,
        prev_trace: prev.trace,
        iter_trace: iter.trace,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        meas_sim,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// The evaluation kernel set (Table I scale).
pub fn evaluation_kernels() -> Vec<Kernel> {
    hls::kernels::all_kernels()
}

/// Runs [`compare_kernel`] over `kernels` on `jobs` threads; rows come
/// back in kernel order.
///
/// # Errors
///
/// Propagates the first (in kernel order) failure.
pub fn compare_kernels(
    kernels: &[Kernel],
    opts: &FlowOptions,
    jobs: usize,
) -> Result<Vec<KernelComparison>, CompareError> {
    let results = parallel_map(kernels, jobs, |kernel| {
        let t = Instant::now();
        let out = compare_kernel(kernel, opts);
        match &out {
            Ok(c) => eprintln!(
                "[bench] {} done in {:.1} s (cache {}/{} hits)",
                kernel.name,
                t.elapsed().as_secs_f64(),
                c.cache_hits,
                c.cache_hits + c.cache_misses
            ),
            Err(e) => eprintln!("[bench] {} FAILED: {e}", kernel.name),
        }
        out
    });
    results.into_iter().collect()
}

/// Prints a Table I-style header + rows and returns the comparisons
/// (sequentially: [`run_table1_jobs`] with one job).
///
/// # Errors
///
/// Propagates the first kernel failure.
pub fn run_table1(opts: &FlowOptions) -> Result<Vec<KernelComparison>, CompareError> {
    run_table1_jobs(opts, 1)
}

/// Prints a Table I-style header + rows and returns the comparisons,
/// comparing kernels on `jobs` threads. Output rows are in kernel order no
/// matter the job count.
///
/// # Errors
///
/// Propagates the first (in kernel order) kernel failure.
pub fn run_table1_jobs(
    opts: &FlowOptions,
    jobs: usize,
) -> Result<Vec<KernelComparison>, CompareError> {
    let kernels = evaluation_kernels();
    let rows = compare_kernels(&kernels, opts, jobs)?;
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
    // Incremental re-synthesis breakdown of the iterative flow: how much
    // FlowMap work was reused across iterations, and what it bought.
    println!();
    println!(
        "{:<15} | {:>8} {:>8} {:>6} | {:>5} {:>5} | {:>9} | {:>8} {:>8}",
        "Benchmark",
        "lbl(re)",
        "lbl(new)",
        "re%",
        "incrS",
        "fullS",
        "dirtyBBs",
        "tFull(s)",
        "tIncr(s)"
    );
    for c in &rows {
        let t = &c.iter_trace;
        println!(
            "{:<15} | {:>8} {:>8} {:>5.0}% | {:>5} {:>5} | {:>4}/{:<4} | {:>8.2} {:>8.2}",
            c.name,
            t.labels_reused,
            t.labels_computed,
            100.0 * t.label_reuse_rate(),
            t.incr_synths,
            t.full_synths,
            t.dirty_bbs,
            t.dirty_bbs + t.clean_bbs,
            t.synth_full.as_secs_f64(),
            t.synth_incremental.as_secs_f64(),
        );
    }
    // MILP solver breakdown of the iterative flow: sparse revised simplex
    // work (pivots, refactorizations), branch-and-bound nodes (explored vs
    // pruned by bound), rows removed by model canonicalization, root
    // strengthening (cuts, presolve bound tightenings), and cross-iteration
    // warm-start adoptions.
    println!();
    println!(
        "{:<15} | {:>8} {:>9} {:>6} {:>8} | {:>8} | {:>5} {:>6} {:>7} {:>8}",
        "Benchmark",
        "milp(s)",
        "pivots",
        "nodes",
        "refactor",
        "rowsDrop",
        "cuts",
        "pruned",
        "tighten",
        "warmH/M"
    );
    for c in &rows {
        let t = &c.iter_trace;
        println!(
            "{:<15} | {:>8.2} {:>9} {:>6} {:>8} | {:>8} | {:>5} {:>6} {:>7} {:>8}",
            c.name,
            t.milp.as_secs_f64(),
            t.milp_pivots,
            t.milp_nodes,
            t.milp_refactors,
            t.milp_rows_dropped,
            t.milp_cuts,
            t.milp_nodes_pruned,
            t.milp_bounds_tightened,
            format!("{}/{}", t.milp_warm_hits, t.milp_warm_misses),
        );
    }
    // Synthesis-lane breakdown: worker-pool width and the deterministic
    // parallel task counts (unit-characterization tasks of the baseline
    // flow, LUTs packed by the cover pass) next to the label-reuse rate —
    // the knobs and yields of the parallel synthesis lane.
    println!();
    println!(
        "{:<15} | {:>5} | {:>9} {:>9} | {:>9} {:>9} | {:>6}",
        "Benchmark", "jobs", "unitT(P)", "unitT(I)", "packed(P)", "packed(I)", "reuse%"
    );
    for c in &rows {
        let p = &c.prev_trace;
        let t = &c.iter_trace;
        println!(
            "{:<15} | {:>5} | {:>9} {:>9} | {:>9} {:>9} | {:>5.0}%",
            c.name,
            p.synth_jobs.max(t.synth_jobs),
            p.par_unit_tasks,
            t.par_unit_tasks,
            p.par_pack_tasks,
            t.par_pack_tasks,
            100.0 * t.label_reuse_rate(),
        );
    }
    // Simulation breakdown: where the cycle-level runs happen (both flows'
    // profiling + slack trials, plus the out-of-flow verification and
    // measurement runs) — the lane that closes the wall-vs-total gap.
    println!();
    println!(
        "{:<15} | {:>8} {:>6} {:>10} | {:>8} {:>6} {:>6} | {:>8} {:>10}",
        "Benchmark",
        "sim(s)",
        "runs",
        "cycles",
        "slack(s)",
        "trials",
        "pruned",
        "meas(s)",
        "measCyc"
    );
    for c in &rows {
        let p = &c.prev_trace;
        let t = &c.iter_trace;
        println!(
            "{:<15} | {:>8.2} {:>6} {:>10} | {:>8.2} {:>6} {:>6} | {:>8.2} {:>10}",
            c.name,
            (p.sim + t.sim).as_secs_f64(),
            p.sim_runs + t.sim_runs,
            p.sim_cycles + t.sim_cycles,
            (p.slack + t.slack).as_secs_f64(),
            p.slack_trials + t.slack_trials,
            p.slack_trials_pruned + t.slack_trials_pruned,
            c.meas_sim.time.as_secs_f64(),
            c.meas_sim.cycles,
        );
    }
    Ok(rows)
}

/// Renders the comparisons as a JSON document (hand-rolled — the build is
/// offline, so no serde): per-kernel wall clock, cache statistics and the
/// Table I metrics. Suitable for `BENCH_table1.json`.
pub fn comparisons_to_json(rows: &[KernelComparison], total_wall_s: f64, jobs: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"total_wall_s\": {total_wall_s:.3},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, c) in rows.iter().enumerate() {
        let t = &c.iter_trace;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_hit_rate\": {:.4}, \"et_prev_ns\": {:.1}, \"et_iter_ns\": {:.1}, \
             \"luts_prev\": {}, \"luts_iter\": {}, \"ffs_prev\": {}, \"ffs_iter\": {}, \
             \"levels_prev\": {}, \"levels_iter\": {}, \"iterations\": {}, \"converged\": {}, \
             \"labels_reused\": {}, \"labels_computed\": {}, \"label_reuse_rate\": {:.4}, \
             \"incr_synths\": {}, \"full_synths\": {}, \"dirty_bbs\": {}, \"clean_bbs\": {}, \
             \"synth_full_s\": {:.3}, \"synth_incr_s\": {:.3}, \
             \"milp_s\": {:.3}, \"milp_pivots\": {}, \"milp_nodes\": {}, \
             \"milp_refactors\": {}, \"milp_rows_dropped\": {}, \
             \"milp_cuts\": {}, \"milp_cut_rounds\": {}, \"milp_nodes_pruned\": {}, \
             \"milp_bounds_tightened\": {}, \"milp_warm_hits\": {}, \
             \"milp_warm_misses\": {}, \
             \"sim_s\": {:.3}, \"sim_runs\": {}, \"sim_cycles\": {}, \
             \"slack_trials\": {}, \"slack_trials_pruned\": {}, \
             \"synth_jobs\": {}, \"par_unit_tasks\": {}, \"par_pack_tasks\": {}, \
             \"meas_sim_s\": {:.3}, \"meas_sim_runs\": {}, \"meas_sim_cycles\": {}}}{}\n",
            c.name,
            c.wall_s,
            c.cache_hits,
            c.cache_misses,
            c.cache_hit_rate(),
            c.prev.exec_time_ns,
            c.iter.exec_time_ns,
            c.prev.luts,
            c.iter.luts,
            c.prev.ffs,
            c.iter.ffs,
            c.prev.logic_levels,
            c.iter.logic_levels,
            c.iter_iterations,
            c.iter_converged,
            t.labels_reused,
            t.labels_computed,
            t.label_reuse_rate(),
            t.incr_synths,
            t.full_synths,
            t.dirty_bbs,
            t.clean_bbs,
            t.synth_full.as_secs_f64(),
            t.synth_incremental.as_secs_f64(),
            t.milp.as_secs_f64(),
            t.milp_pivots,
            t.milp_nodes,
            t.milp_refactors,
            t.milp_rows_dropped,
            t.milp_cuts,
            t.milp_cut_rounds,
            t.milp_nodes_pruned,
            t.milp_bounds_tightened,
            t.milp_warm_hits,
            t.milp_warm_misses,
            (c.prev_trace.sim + t.sim).as_secs_f64(),
            c.prev_trace.sim_runs + t.sim_runs,
            c.prev_trace.sim_cycles + t.sim_cycles,
            c.prev_trace.slack_trials + t.slack_trials,
            c.prev_trace.slack_trials_pruned + t.slack_trials_pruned,
            c.prev_trace.synth_jobs.max(t.synth_jobs),
            c.prev_trace.par_unit_tasks + t.par_unit_tasks,
            c.prev_trace.par_pack_tasks + t.par_pack_tasks,
            c.meas_sim.time.as_secs_f64(),
            c.meas_sim.runs,
            c.meas_sim.cycles,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        let seq = parallel_map(&items, 1, |&x| x * 3);
        let par = parallel_map(&items, 8, |&x| x * 3);
        assert_eq!(seq, par);
        assert_eq!(par[10], 30);
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscription() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        let one = [7u32];
        assert_eq!(parallel_map(&one, 64, |&x| x + 1), vec![8]);
    }

    fn count(flags: &[&str], args: &[&str]) -> Result<Option<usize>, String> {
        let args: Vec<String> = std::iter::once("table1")
            .chain(args.iter().copied())
            .map(String::from)
            .collect();
        parse_count(&args, flags)
    }

    fn jobs(args: &[&str]) -> Result<Option<usize>, String> {
        count(JOBS_FLAGS, args)
    }

    fn repeats(args: &[&str]) -> Result<Option<usize>, String> {
        count(&["--repeats"], args)
    }

    #[test]
    fn parse_jobs_reads_every_spelling() {
        assert_eq!(jobs(&[]), Ok(None));
        assert_eq!(jobs(&["--json", "out.json"]), Ok(None));
        assert_eq!(jobs(&["--jobs", "4"]), Ok(Some(4)));
        assert_eq!(jobs(&["--jobs=3"]), Ok(Some(3)));
        assert_eq!(jobs(&["-j", "2", "--json", "out.json"]), Ok(Some(2)));
    }

    #[test]
    fn parse_jobs_rejects_malformed_counts() {
        let bad: [&[&str]; 6] = [
            &["--jobs", "abc"],
            &["--jobs", "0"],
            &["--jobs=0"],
            &["-j", "-1"],
            &["--jobs"],
            &["--jobs="],
        ];
        for args in bad {
            assert!(jobs(args).is_err(), "{args:?} was accepted");
        }
    }

    #[test]
    fn parse_repeats_reads_both_spellings() {
        assert_eq!(repeats(&[]), Ok(None));
        assert_eq!(
            repeats(&["--out", "x.json", "--baseline", "y.json"]),
            Ok(None)
        );
        assert_eq!(repeats(&["--repeats", "1"]), Ok(Some(1)));
        assert_eq!(repeats(&["--repeats=5", "--out", "x.json"]), Ok(Some(5)));
        // Another flag's count is not a repeat count.
        assert_eq!(repeats(&["--jobs", "4"]), Ok(None));
    }

    #[test]
    fn parse_repeats_rejects_malformed_counts() {
        let bad: [&[&str]; 6] = [
            &["--repeats", "abc"],
            &["--repeats", "0"],
            &["--repeats=0"],
            &["--repeats", "-1"],
            &["--repeats"],
            &["--repeats="],
        ];
        for args in bad {
            assert!(repeats(args).is_err(), "{args:?} was accepted");
        }
    }

    #[test]
    fn json_rendering_is_well_formed_enough() {
        let rows: Vec<KernelComparison> = Vec::new();
        let j = comparisons_to_json(&rows, 1.25, 4);
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"total_wall_s\": 1.250"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }

    #[test]
    fn json_rows_carry_incremental_synthesis_fields() {
        let report = frequenz_core::CircuitReport {
            luts: 10,
            ffs: 20,
            logic_levels: 6,
            cp_ns: 4.2,
            cycles: 100,
            exec_time_ns: 420.0,
            buffers: 3,
        };
        let iter_trace = FlowTrace {
            labels_reused: 40,
            labels_computed: 10,
            incr_synths: 2,
            full_synths: 1,
            dirty_bbs: 3,
            clean_bbs: 9,
            milp_pivots: 123,
            milp_nodes: 7,
            milp_refactors: 2,
            milp_rows_dropped: 15,
            milp_cuts: 21,
            milp_cut_rounds: 5,
            milp_nodes_pruned: 6,
            milp_bounds_tightened: 44,
            milp_warm_hits: 2,
            milp_warm_misses: 3,
            sim_runs: 11,
            sim_cycles: 4242,
            slack_trials: 30,
            slack_trials_pruned: 4,
            synth_jobs: 4,
            par_unit_tasks: 6,
            par_pack_tasks: 55,
            ..FlowTrace::default()
        };
        let row = KernelComparison {
            name: "probe",
            prev: report.clone(),
            iter: report,
            iter_iterations: 2,
            iter_converged: true,
            prev_trace: FlowTrace::default(),
            iter_trace,
            cache_hits: 5,
            cache_misses: 4,
            meas_sim: SimStats {
                time: std::time::Duration::from_millis(12),
                runs: 4,
                cycles: 999,
                compiles: 1,
            },
            wall_s: 0.5,
        };
        let j = comparisons_to_json(&[row], 0.5, 1);
        assert!(j.contains("\"labels_reused\": 40"));
        assert!(j.contains("\"label_reuse_rate\": 0.8000"));
        assert!(j.contains("\"incr_synths\": 2"));
        assert!(j.contains("\"full_synths\": 1"));
        assert!(j.contains("\"dirty_bbs\": 3"));
        assert!(j.contains("\"clean_bbs\": 9"));
        assert!(j.contains("\"synth_full_s\": 0.000"));
        assert!(j.contains("\"milp_pivots\": 123"));
        assert!(j.contains("\"milp_nodes\": 7"));
        assert!(j.contains("\"milp_refactors\": 2"));
        assert!(j.contains("\"milp_rows_dropped\": 15"));
        assert!(j.contains("\"milp_cuts\": 21"));
        assert!(j.contains("\"milp_cut_rounds\": 5"));
        assert!(j.contains("\"milp_nodes_pruned\": 6"));
        assert!(j.contains("\"milp_bounds_tightened\": 44"));
        assert!(j.contains("\"milp_warm_hits\": 2"));
        assert!(j.contains("\"milp_warm_misses\": 3"));
        assert!(j.contains("\"sim_runs\": 11"));
        assert!(j.contains("\"sim_cycles\": 4242"));
        assert!(j.contains("\"slack_trials\": 30"));
        assert!(j.contains("\"slack_trials_pruned\": 4"));
        assert!(j.contains("\"synth_jobs\": 4"));
        assert!(j.contains("\"par_unit_tasks\": 6"));
        assert!(j.contains("\"par_pack_tasks\": 55"));
        assert!(j.contains("\"meas_sim_s\": 0.012"));
        assert!(j.contains("\"meas_sim_runs\": 4"));
        assert!(j.contains("\"meas_sim_cycles\": 999"));
    }
}
