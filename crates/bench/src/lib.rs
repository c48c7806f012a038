//! Benchmark harness: the shared Prev-vs-Iter comparison runner and the
//! `--jobs` parser used by the table/figure regeneration binaries
//! (`table1`, `figure5`, the ablations, `utilization`).
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
    let args: Vec<String> = std::env::args().collect();
    match parse_jobs(&args) {
        Ok(n) => n.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// The spellings [`jobs_from_args`] accepts.
const JOBS_FLAGS: &[&str] = &["--jobs", "-j"];

/// The job count named by the first `FLAG N` or `FLAG=N` in `args` with
/// `FLAG` one of [`JOBS_FLAGS`], or `None` if there is none.
///
/// # Errors
///
/// A flag without a value, a value that is not an unsigned integer, or 0.
fn parse_jobs(args: &[String]) -> Result<Option<usize>, String> {
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let (flag, value) = if JOBS_FLAGS.contains(&a.as_str()) {
            let value = args.next().ok_or_else(|| format!("{a} needs a value"))?;
            (a.as_str(), value.as_str())
        } else if let Some((flag, value)) =
            a.split_once('=').filter(|(f, _)| JOBS_FLAGS.contains(f))
        {
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
    Ok(rows)
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

    fn jobs(args: &[&str]) -> Result<Option<usize>, String> {
        let args: Vec<String> = std::iter::once("table1")
            .chain(args.iter().copied())
            .map(String::from)
            .collect();
        parse_jobs(&args)
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
        let bad: [&[&str]; 7] = [
            &["--jobs", "abc"],
            &["--jobs", "0"],
            &["--jobs=0"],
            &["-j", "-1"],
            &["--jobs"],
            &["--jobs="],
            // A flag is not a value: the next argument is not taken as one.
            &["--jobs", "--json"],
        ];
        for args in bad {
            assert!(jobs(args).is_err(), "{args:?} was accepted");
        }
    }
}
