//! Benchmarks the compiled bytecode engine against the full-sweep oracle
//! on the nine kernels' seeded graphs (bit-identity checked) and on the
//! workload that motivated the compiled backend: the slack-matching pass's
//! trial simulations (sim sub-lane wall clock, jobs=1, buffer-set identity
//! checked across engines and job counts).
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin bench_sim -- \
//!     [--repeats N] [--out FILE] [--baseline FILE]
//! ```
//!
//! Writes `BENCH_sim.json` (per-kernel simulated cycles/second for both
//! engines, speedups, the slack-lane comparison, and the identity
//! verdicts) and prints a table. Each engine runs every kernel
//! `--repeats` times (default 3; a malformed or zero count exits with
//! code 2) and the minimum wall clock is reported.
//!
//! With `--baseline FILE`, the previously committed `BENCH_sim.json` is
//! read *before* the fresh run overwrites it and the run fails if any
//! kernel's completed cycle count drifts by more than 10% (they are
//! deterministic — any drift is a semantics change) or if any identity
//! verdict is false.

use frequenz_bench::{arg_value, repeats_from_args, CompareError};
use frequenz_core::{slack_match_traced, FlowTrace, SlackOptions, SynthCache};
use sim::{RunStats, SimEngine, SimError, Simulator};
use std::time::Instant;

struct Row {
    name: &'static str,
    cycles: u64,
    sweep_s: f64,
    compiled_s: f64,
    engines_identical: bool,
    slack_sweep_sim_s: f64,
    slack_compiled_sim_s: f64,
    slack_trials: u64,
    slack_pruned: u64,
    slack_buffers: usize,
    slack_jobs_identical: bool,
    slack_engines_identical: bool,
}

impl Row {
    /// Compiled vs full sweep on one seeded run (compile included).
    fn compiled_speedup(&self) -> f64 {
        self.sweep_s / self.compiled_s.max(1e-12)
    }

    /// Compiled vs full sweep on the slack-trial workload (one compile
    /// amortized over every profile and trial of the pass).
    fn slack_speedup(&self) -> f64 {
        self.slack_sweep_sim_s / self.slack_compiled_sim_s.max(1e-12)
    }

    fn compiled_cps(&self) -> f64 {
        self.cycles as f64 / self.compiled_s.max(1e-12)
    }
}

/// Everything externally observable about one run, for the identity check.
type Fingerprint = (
    Result<RunStats, SimError>,
    u64,
    Vec<u64>,
    Vec<u64>,
    Vec<Vec<u64>>,
);

fn fingerprint(g: &dataflow::Graph, engine: SimEngine, budget: u64) -> Fingerprint {
    let mut s = Simulator::with_engine(g, engine).expect("seeded kernels construct");
    let res = s.run(budget);
    (
        res,
        s.cycle(),
        g.channels().map(|(c, _)| s.transfers(c)).collect(),
        g.channels().map(|(c, _)| s.stalls(c)).collect(),
        g.memories().map(|(m, _)| s.memory(m).to_vec()).collect(),
    )
}

/// Runs the kernel `repeats` times under `engine`, returning the minimum
/// wall clock (construction included — for the compiled engine that is
/// the compile pass) and the completed cycle count.
fn time_engine(
    g: &dataflow::Graph,
    engine: SimEngine,
    budget: u64,
    repeats: usize,
) -> Result<(f64, u64), CompareError> {
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..repeats {
        let t = Instant::now();
        let mut s = Simulator::with_engine(g, engine)?;
        let stats = s.run(budget)?;
        best = best.min(t.elapsed().as_secs_f64());
        cycles = stats.cycles;
    }
    Ok((best, cycles))
}

/// Extracts `(name, cycles)` per kernel from a previously written
/// `BENCH_sim.json`. Hand-rolled on purpose: the bench crate has no JSON
/// dependency, and the file is machine-written one kernel per line.
fn baseline_cycles(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(end) = rest.find('"') else { continue };
        let name = rest[..end].to_string();
        let Some(kpos) = line.find("\"cycles\": ") else {
            continue;
        };
        let digits: String = line[kpos + 10..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(n) = digits.parse() {
            out.push((name, n));
        }
    }
    out
}

fn main() -> Result<(), CompareError> {
    let repeats = repeats_from_args();
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_sim.json".into());
    // Read the committed baseline *now*: `--baseline` may point at the same
    // path as `--out`, which is overwritten below.
    let baseline = match arg_value("--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let pairs = baseline_cycles(&text);
            if pairs.is_empty() {
                return Err(format!("baseline {path} holds no kernel cycle counts").into());
            }
            Some(pairs)
        }
        None => None,
    };
    let kernels = hls::kernels::all_kernels();
    println!(
        "sim engine benchmark — {} kernels, {repeats} repeats per engine (min reported)",
        kernels.len()
    );
    println!(
        "{:<15} | {:>8} | {:>9} {:>9} {:>7} | {:>10} | {:>9} {:>9} {:>7} | {:>6} {:>5} | {:>5}",
        "Benchmark",
        "cycles",
        "sweep(s)",
        "compl(s)",
        "cp/sw",
        "compl c/s",
        "slkSw(s)",
        "slkCp(s)",
        "slack x",
        "trials",
        "bufs",
        "ident"
    );

    let mut rows: Vec<Row> = Vec::new();
    for kernel in &kernels {
        let g = kernel.seeded_graph();
        let budget = kernel.max_cycles * 4;

        // Bit-identity first: cycles, exit, counters, memories, errors —
        // the full-sweep engine is the oracle.
        let engines_identical = fingerprint(&g, SimEngine::Compiled, budget)
            == fingerprint(&g, SimEngine::FullSweep, budget);
        if !engines_identical {
            eprintln!("[bench_sim] {}: engines diverged!", kernel.name);
        }

        let (sweep_s, cycles) = time_engine(&g, SimEngine::FullSweep, budget, repeats)?;
        let (compiled_s, compiled_cycles) = time_engine(&g, SimEngine::Compiled, budget, repeats)?;
        assert_eq!(
            cycles, compiled_cycles,
            "{}: compiled cycle count differs",
            kernel.name
        );

        // Slack-matching lane: the same pass on both engines, jobs=1 so no
        // thread scheduling muddies the sim sub-lane wall clock. One shared
        // synthesis cache keeps the level probes (identical by
        // construction) from dominating — only `trace.sim` is compared.
        let cache = SynthCache::new();
        let seed: Vec<_> = kernel.back_edges().to_vec();
        let mut lane: Vec<(Vec<_>, u64, u64, f64)> = Vec::new(); // per engine
        for engine in [SimEngine::FullSweep, SimEngine::Compiled] {
            let opts = SlackOptions {
                sim_budget: budget,
                jobs: 1,
                engine,
                ..SlackOptions::default()
            };
            let mut best_sim = f64::INFINITY;
            let mut outcome = None;
            for _ in 0..repeats {
                let mut trace = FlowTrace::default();
                let buffers = slack_match_traced(kernel.graph(), &seed, &opts, &cache, &mut trace)?;
                best_sim = best_sim.min(trace.sim.as_secs_f64());
                outcome = Some((buffers, trace.slack_trials, trace.slack_trials_pruned));
            }
            let (buffers, trials, pruned) = outcome.expect("at least one repeat");
            lane.push((buffers, trials, pruned, best_sim));
        }
        let slack_engines_identical =
            lane[0].0 == lane[1].0 && lane[0].1 == lane[1].1 && lane[0].2 == lane[1].2;
        if !slack_engines_identical {
            eprintln!("[bench_sim] {}: slack engines diverged!", kernel.name);
        }

        // Jobs sweep on the default (compiled) engine: the pass must pick
        // the same buffers (and run the same number of trials) at any job
        // count.
        let mut slack_jobs_identical = true;
        for jobs in [2usize, 8] {
            let opts = SlackOptions {
                sim_budget: budget,
                jobs,
                ..SlackOptions::default()
            };
            let mut trace = FlowTrace::default();
            let buffers = slack_match_traced(kernel.graph(), &seed, &opts, &cache, &mut trace)?;
            let got = (buffers, trace.slack_trials, trace.slack_trials_pruned);
            if got != (lane[1].0.clone(), lane[1].1, lane[1].2) {
                slack_jobs_identical = false;
                eprintln!("[bench_sim] {}: slack jobs={jobs} diverged!", kernel.name);
            }
        }

        let row = Row {
            name: kernel.name,
            cycles,
            sweep_s,
            compiled_s,
            engines_identical,
            slack_sweep_sim_s: lane[0].3,
            slack_compiled_sim_s: lane[1].3,
            slack_trials: lane[1].1,
            slack_pruned: lane[1].2,
            slack_buffers: lane[1].0.len(),
            slack_jobs_identical,
            slack_engines_identical,
        };
        println!(
            "{:<15} | {:>8} | {:>9.4} {:>9.4} {:>6.2}x | {:>10.0} | {:>9.4} {:>9.4} {:>6.2}x | {:>6} {:>5} | {:>5}",
            row.name,
            row.cycles,
            row.sweep_s,
            row.compiled_s,
            row.compiled_speedup(),
            row.compiled_cps(),
            row.slack_sweep_sim_s,
            row.slack_compiled_sim_s,
            row.slack_speedup(),
            row.slack_trials,
            row.slack_buffers,
            row.engines_identical && row.slack_jobs_identical && row.slack_engines_identical,
        );
        rows.push(row);
    }

    // Headline numbers: the aggregate slack-lane speedup (the workload the
    // compiled engine exists for), the paper-scale kernel (gemver) and the
    // slowest simulation overall.
    let slack_sweep_total: f64 = rows.iter().map(|r| r.slack_sweep_sim_s).sum();
    let slack_compiled_total: f64 = rows.iter().map(|r| r.slack_compiled_sim_s).sum();
    let slack_total_speedup = slack_sweep_total / slack_compiled_total.max(1e-12);
    let gemver = rows.iter().find(|r| r.name == "gemver");
    let largest = rows
        .iter()
        .max_by(|a, b| a.sweep_s.total_cmp(&b.sweep_s))
        .expect("at least one kernel");
    if let Some(g) = gemver {
        println!(
            "\ngemver: compiled engine is {:.2}x faster than the full sweep",
            g.compiled_speedup(),
        );
    }
    println!(
        "slack-trial lane (all kernels, jobs=1): compiled {slack_compiled_total:.4}s vs \
         sweep {slack_sweep_total:.4}s — {slack_total_speedup:.2}x"
    );
    println!(
        "slowest sweep: {} — compiled engine {:.2}x faster",
        largest.name,
        largest.compiled_speedup()
    );
    let all_engines = rows.iter().all(|r| r.engines_identical);
    let all_jobs = rows.iter().all(|r| r.slack_jobs_identical);
    let all_slack_engines = rows.iter().all(|r| r.slack_engines_identical);
    println!(
        "engine identity: {}; slack jobs sweep (1/2/8): {}; slack engines: {}",
        if all_engines {
            "bit-identical on every kernel"
        } else {
            "DIVERGED — see stderr"
        },
        if all_jobs {
            "identical buffer sets"
        } else {
            "DIVERGED — see stderr"
        },
        if all_slack_engines {
            "identical buffer sets"
        } else {
            "DIVERGED — see stderr"
        }
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str("  \"jobs_swept\": [1, 2, 8],\n");
    json.push_str(&format!(
        "  \"slack_sim_speedup_compiled_vs_sweep\": {slack_total_speedup:.3},\n"
    ));
    if let Some(g) = gemver {
        json.push_str(&format!(
            "  \"gemver_compiled_speedup\": {:.3},\n",
            g.compiled_speedup()
        ));
    }
    json.push_str(&format!("  \"largest_kernel\": \"{}\",\n", largest.name));
    json.push_str(&format!(
        "  \"largest_kernel_compiled_speedup\": {:.3},\n",
        largest.compiled_speedup()
    ));
    json.push_str(&format!("  \"engines_bit_identical\": {all_engines},\n"));
    json.push_str(&format!("  \"jobs_bit_identical\": {all_jobs},\n"));
    json.push_str(&format!(
        "  \"slack_engines_bit_identical\": {all_slack_engines},\n"
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"sweep_s\": {:.6}, \
             \"compiled_s\": {:.6}, \"compiled_speedup\": {:.3}, \
             \"compiled_cycles_per_s\": {:.0}, \
             \"slack_sweep_sim_s\": {:.6}, \"slack_compiled_sim_s\": {:.6}, \
             \"slack_speedup\": {:.3}, \
             \"engines_bit_identical\": {}, \"slack_trials\": {}, \"slack_trials_pruned\": {}, \
             \"slack_buffers\": {}, \"slack_jobs_identical\": {}, \
             \"slack_engines_identical\": {}}}{}\n",
            r.name,
            r.cycles,
            r.sweep_s,
            r.compiled_s,
            r.compiled_speedup(),
            r.compiled_cps(),
            r.slack_sweep_sim_s,
            r.slack_compiled_sim_s,
            r.slack_speedup(),
            r.engines_identical,
            r.slack_trials,
            r.slack_pruned,
            r.slack_buffers,
            r.slack_jobs_identical,
            r.slack_engines_identical,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json)?;
    eprintln!("[bench_sim] wrote {out}");

    // Cycle-count regression gate: fresh vs the committed baseline. Runs
    // after the new JSON lands so a failing run still leaves the numbers
    // behind for inspection. Cycle counts are deterministic, so the 10%
    // head-room only forgives intentional semantic changes that were
    // committed together with a refreshed baseline.
    if let Some(pairs) = baseline {
        let mut regressed = false;
        for (name, base_cycles) in &pairs {
            let Some(r) = rows.iter().find(|r| r.name == name.as_str()) else {
                eprintln!("[bench_sim] baseline kernel {name} no longer benchmarked");
                continue;
            };
            let hi = *base_cycles as f64 * 1.10 + 1e-9;
            let lo = *base_cycles as f64 * 0.90 - 1e-9;
            if (r.cycles as f64) > hi || (r.cycles as f64) < lo {
                eprintln!(
                    "[bench_sim] REGRESSION: {name} completed in {} cycles, baseline {} (>10%)",
                    r.cycles, base_cycles
                );
                regressed = true;
            }
        }
        if regressed {
            return Err("simulated cycle counts drifted >10% vs baseline".into());
        }
        eprintln!(
            "[bench_sim] cycle counts within 10% of baseline on all {} kernels",
            pairs.len()
        );
    }
    if !all_engines || !all_jobs || !all_slack_engines {
        return Err("identity check failed — see stderr".into());
    }
    Ok(())
}
