//! Benchmark harness: the shared Prev-vs-Iter comparison runner behind
//! `table1`, and the parser of its flags (`utilization` takes a kernel
//! name instead).
//!
//! `table1` runs Table I at any operating point: `--target N`,
//! `--lut-k N` and `--max-iterations N` move it, and `--no-penalties`,
//! `--no-slack-matching` and `--area-only` switch one mechanism off
//! ([`flow_options_from_args`]). Comparisons run **in parallel** across
//! kernels ([`dataflow::par::map`], `--jobs N`) with a per-kernel
//! [`SynthCache`] shared by the baseline flow, the iterative flow and the
//! final measurements, so structurally repeated syntheses are served from
//! memory. Row order is deterministic — the kernel list order —
//! regardless of the job count.

use frequenz_core::{
    measure_traced, optimize_baseline_with_cache, optimize_iterative_with_cache, CircuitReport,
    FlowOptions, FlowResult, FlowTrace, Objective, SimStats, SynthCache,
};
use hls::Kernel;
use sim::{SimEngine, Simulator};
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

/// The validated [`FlowOptions`] of the process's command line: `table1`'s
/// flags. Unset fields keep their defaults, except `jobs`, which defaults
/// to the machine's available parallelism.
///
/// The numeric flags take `FLAG N` or `FLAG=N`: `--jobs` (or `-j`),
/// `--target`, `--lut-k` and `--max-iterations` set `jobs`,
/// `target_levels`, `k` and `max_iterations`. The switches take no value:
/// `--no-penalties`, `--no-slack-matching` and `--area-only` clear
/// `use_penalties` and `slack_matching`, and select
/// [`Objective::AreaOnly`].
///
/// A malformed command line prints the reason and exits with code 2,
/// before any flow runs: an unknown flag or a stray argument (a switch
/// given a value is one), a numeric flag without a value or with one that
/// is not an unsigned integer, or options [`FlowOptions::validate`]
/// rejects (such as `--jobs 0`).
pub fn flow_options_from_args() -> FlowOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flow_options(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// [`flow_options_from_args`] on `args`, the command line without the
/// program name.
///
/// # Errors
///
/// Why the command line is malformed.
fn parse_flow_options(args: &[String]) -> Result<FlowOptions, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag} {value:?}: not an unsigned integer"))
    }
    let mut opts = FlowOptions {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..FlowOptions::default()
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        let mut value = || match inline {
            Some(value) => Ok(value),
            None => args
                .next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value")),
        };
        match (flag, inline) {
            ("--no-penalties", None) => opts.use_penalties = false,
            ("--no-slack-matching", None) => opts.slack_matching = false,
            ("--area-only", None) => opts.objective = Objective::AreaOnly,
            ("--jobs" | "-j", _) => opts.jobs = number(flag, value()?)?,
            ("--target", _) => opts.target_levels = number(flag, value()?)?,
            ("--lut-k", _) => opts.k = number(flag, value()?)?,
            ("--max-iterations", _) => opts.max_iterations = number(flag, value()?)?,
            _ => return Err(format!("unknown option {arg:?}")),
        }
    }
    opts.validate().map_err(|e| e.to_string())?;
    Ok(opts)
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

/// Runs [`compare_kernel`] over `kernels` on `opts.jobs` threads, the
/// width each flow's synthesis and slack pools also take; rows come back
/// in kernel order.
///
/// # Errors
///
/// Propagates the first (in kernel order) failure.
pub fn compare_kernels(
    kernels: &[Kernel],
    opts: &FlowOptions,
) -> Result<Vec<KernelComparison>, CompareError> {
    let results = dataflow::par::map(kernels, opts.jobs, |kernel| {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FlowOptions, String> {
        let args: Vec<String> = args.iter().copied().map(String::from).collect();
        parse_flow_options(&args)
    }

    #[test]
    fn no_flags_are_the_defaults() {
        let opts = parse(&[]).unwrap();
        let d = FlowOptions::default();
        assert_eq!(
            (opts.target_levels, opts.k, opts.max_iterations),
            (d.target_levels, d.k, d.max_iterations)
        );
        assert!(opts.use_penalties && opts.slack_matching);
        assert_eq!(opts.objective, Objective::ThroughputAndArea);
        assert!(opts.jobs >= 1);
    }

    #[test]
    fn each_numeric_flag_sets_its_field_in_both_spellings() {
        type Field = fn(&FlowOptions) -> usize;
        let flags: [(&str, Field); 5] = [
            ("--jobs", |o| o.jobs),
            ("-j", |o| o.jobs),
            ("--target", |o| o.target_levels as usize),
            ("--lut-k", |o| o.k),
            ("--max-iterations", |o| o.max_iterations),
        ];
        for (flag, field) in flags {
            let spaced = parse(&[flag, "5"]).unwrap();
            assert_eq!(field(&spaced), 5, "{flag} 5");
            let joined = parse(&[&format!("{flag}=4")]).unwrap();
            assert_eq!(field(&joined), 4, "{flag}=4");
        }
    }

    #[test]
    fn each_switch_sets_its_field() {
        assert!(!parse(&["--no-penalties"]).unwrap().use_penalties);
        assert!(!parse(&["--no-slack-matching"]).unwrap().slack_matching);
        assert_eq!(
            parse(&["--area-only"]).unwrap().objective,
            Objective::AreaOnly
        );
        let all = parse(&[
            "--target",
            "8",
            "--no-slack-matching",
            "--jobs=1",
            "--area-only",
        ])
        .unwrap();
        assert_eq!((all.target_levels, all.jobs), (8, 1));
        assert!(!all.slack_matching && all.use_penalties);
        assert_eq!(all.objective, Objective::AreaOnly);
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        let bad: &[&[&str]] = &[
            // Unknown flags and stray arguments.
            &["--json", "out.json"],
            &["--bogus"],
            &["extra"],
            // Missing values.
            &["--jobs"],
            &["--target"],
            &["--lut-k"],
            &["--max-iterations"],
            &["--jobs="],
            // A flag is not a value: the next argument is not taken as one.
            &["--jobs", "--no-penalties"],
            // Values that are not unsigned integers.
            &["--jobs", "abc"],
            &["-j", "-1"],
            &["--target", "4.5"],
            &["--lut-k=x"],
            &["--max-iterations", "-2"],
            // A switch takes no value.
            &["--no-penalties=1"],
            // Options the flows reject.
            &["--jobs", "0"],
            &["--jobs=0"],
            &["--target", "1"],
            &["--lut-k", "2"],
            &["--max-iterations", "0"],
        ];
        for args in bad {
            assert!(parse(args).is_err(), "{args:?} was accepted");
        }
    }
}
