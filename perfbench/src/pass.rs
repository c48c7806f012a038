//! Untraced passes: the flows called exactly as a user calls them, one
//! kernel at a time, each with a fresh synthesis cache.

use crate::metrics::{geomean, median, ratio, Metric, END_TO_END};
use crate::probe::{to_reference, SpeedProbe};
use frequenz_bench::{verify_outputs, CompareError};
use frequenz_core::{
    measure_traced, optimize_baseline_with_cache, optimize_iterative_with_cache, CircuitReport,
    FlowOptions, FlowResult, SimOptions, SimStats, SynthCache,
};
use hls::Kernel;
use std::time::{Duration, Instant};

/// One flow's product and its Table I measurement.
#[derive(Debug, Clone)]
pub struct FlowRun {
    /// What the flow returned.
    pub result: FlowResult,
    /// The measured circuit.
    pub report: CircuitReport,
}

/// Both flows on one kernel, as one pass runs them.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// The baseline flow, when the workload runs it.
    pub prev: Option<FlowRun>,
    /// The iterative flow.
    pub iter: FlowRun,
    /// Synthesis-cache hits over the whole kernel.
    pub cache_hits: u64,
    /// Synthesis-cache misses over the whole kernel.
    pub cache_misses: u64,
}

/// The per-kernel results a pass checks and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Qor {
    /// The baseline circuit, when the workload runs it.
    pub prev: Option<CircuitReport>,
    /// The iterative circuit.
    pub iter: CircuitReport,
    /// Whether the iterative circuit meets the level target.
    pub levels_met: bool,
}

/// Runs the workload's flows on `kernel` in `compare_kernel`'s order:
/// Prev flow, verification, measurement, then the same for Iter. Every
/// produced circuit is checked against the kernel's software reference.
///
/// # Errors
///
/// The first flow, verification or measurement failure.
pub fn run_kernel(
    kernel: &Kernel,
    opts: &FlowOptions,
    with_prev: bool,
) -> Result<KernelRun, CompareError> {
    let cache = SynthCache::new();
    let budget = kernel.max_cycles * 8;
    let sim_opts = SimOptions {
        engine: opts.sim_engine,
    };
    let mut sim = SimStats::default();
    let mut flow = |result: FlowResult| -> Result<FlowRun, CompareError> {
        verify_outputs(kernel, &result)?;
        let report = measure_traced(&result.graph, opts.k, budget, &cache, sim_opts, &mut sim)?;
        Ok(FlowRun { result, report })
    };
    let prev = if with_prev {
        let r = optimize_baseline_with_cache(kernel.graph(), kernel.back_edges(), opts, &cache)?;
        Some(flow(r)?)
    } else {
        None
    };
    let r = optimize_iterative_with_cache(kernel.graph(), kernel.back_edges(), opts, &cache)?;
    let iter = flow(r)?;
    Ok(KernelRun {
        prev,
        iter,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    })
}

impl KernelRun {
    /// The results a pass compares across passes and seeds.
    pub fn qor(&self, target_levels: u32) -> Qor {
        Qor {
            prev: self.prev.as_ref().map(|p| p.report.clone()),
            iter: self.iter.report.clone(),
            levels_met: self.iter.report.logic_levels <= target_levels,
        }
    }
}

/// What the untraced passes of one run measured.
#[derive(Debug, Clone)]
pub struct Passes {
    /// Kernel names, in workload order.
    pub names: Vec<&'static str>,
    /// Host seconds per kernel (workload order), one entry per pass.
    pub seconds: Vec<Vec<f64>>,
    /// The same runs in reference seconds (see [`crate::probe`]).
    pub ref_seconds: Vec<Vec<f64>>,
    /// Each kernel's results from its first successful pass.
    pub qor: Vec<Option<Qor>>,
    /// Kernel runs attempted.
    pub attempted: u64,
    /// Kernel runs whose flow, verification or measurement failed.
    pub failed: u64,
    /// Kernels whose results differed between passes.
    pub unstable: Vec<&'static str>,
}

/// Runs `kernels` in `order`: one full pass, then the same order again and
/// again until `budget` host seconds have elapsed, finishing the kernel in
/// progress. Every kernel therefore has at least one sample, and the run
/// ends at most one kernel after the budget. Each kernel run is timed in
/// host seconds and, with the samples `probe` takes during it, in
/// reference seconds. `between` runs before every kernel, outside its
/// timing. A failing kernel is counted and the run goes on.
pub fn run_passes(
    kernels: &[Kernel],
    order: &[usize],
    opts: &FlowOptions,
    with_prev: bool,
    budget: Duration,
    probe: &SpeedProbe,
    mut between: impl FnMut(),
) -> Passes {
    let n = kernels.len();
    let mut out = Passes {
        names: kernels.iter().map(|k| k.name).collect(),
        seconds: vec![Vec::new(); n],
        ref_seconds: vec![Vec::new(); n],
        qor: vec![None; n],
        attempted: 0,
        failed: 0,
        unstable: Vec::new(),
    };
    let start = Instant::now();
    for (step, &i) in order.iter().cycle().enumerate() {
        if step >= n && start.elapsed() >= budget {
            break;
        }
        between();
        let kernel = &kernels[i];
        let (t, before) = (Instant::now(), probe.totals());
        let run = run_kernel(kernel, opts, with_prev).map(|r| r.qor(opts.target_levels));
        let host = t.elapsed().as_secs_f64();
        // A kernel shorter than the probe's period may see no sample of
        // its own; the run's mean so far stands in.
        let mean = probe.totals().mean_since(before);
        out.seconds[i].push(host);
        out.ref_seconds[i].push(to_reference(host, mean.unwrap_or_else(|| probe.mean())));
        out.attempted += 1;
        match run {
            Ok(q) => match &out.qor[i] {
                Some(first) if *first != q => out.unstable.push(kernel.name),
                Some(_) => {}
                None => out.qor[i] = Some(q),
            },
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: {} failed: {e}", kernel.name);
            }
        }
    }
    out
}

impl Passes {
    /// Host seconds for one pass: the sum over kernels of each kernel's
    /// median time over its runs.
    pub fn wall_s(&self) -> f64 {
        self.seconds.iter().map(|s| median(s)).sum()
    }

    /// [`Passes::wall_s`] in reference seconds.
    pub fn ref_wall_s(&self) -> f64 {
        self.ref_seconds.iter().map(|s| median(s)).sum()
    }

    /// Whether every circuit of every pass matched its reference and every
    /// pass reproduced the first one's results.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unstable.is_empty()
    }

    /// Every end-to-end metric, in [`END_TO_END`] order, given the set-up
    /// time in reference seconds and the process's peak resident set in
    /// MiB. The pass time is [`Passes::ref_wall_s`].
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
        let ok: Vec<&Qor> = self.qor.iter().flatten().collect();
        let et: Vec<f64> = ok.iter().map(|q| q.iter.exec_time_ns).collect();
        let sum = |f: fn(&Qor) -> usize| ok.iter().map(|q| f(q)).sum::<usize>() as f64;
        let values = [
            self.ref_wall_s(),
            setup_s,
            peak_rss_mb,
            geomean(&et),
            sum(|q| q.iter.luts),
            sum(|q| q.iter.ffs),
            sum(|q| q.levels_met as usize),
            ratio((self.attempted - self.failed) as f64, self.attempted as f64),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, unit, v))
            .collect()
    }
}
