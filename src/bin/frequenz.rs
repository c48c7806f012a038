//! `frequenz` — command-line front end for the mapping-aware frequency
//! regulation flow.
//!
//! ```text
//! frequenz list
//! frequenz run <kernel> [--flow iter|prev|seed] [--target N] [--lut-k N] [--vcd FILE]
//! frequenz dot <kernel> [--optimized]
//! frequenz blif <kernel>
//! ```

use frequenz::core::{
    measure, optimize_baseline, optimize_iterative, synthesize, FlowOptions, FlowResult,
};
use frequenz::dataflow::Graph;
use frequenz::hls::{kernels, Kernel};
use frequenz::netlist::write_blif;
use frequenz::sim::{SimError, Simulator, VcdTracer};
use std::io::Write as _;
use std::process::ExitCode;

fn kernel_by_name(name: &str) -> Option<Kernel> {
    Some(match name {
        "insertion_sort" => kernels::insertion_sort(32),
        "stencil_2d" => kernels::stencil_2d(8),
        "covariance" => kernels::covariance(8),
        "gsum" => kernels::gsum(128),
        "gsumif" => kernels::gsumif(128),
        "gaussian" => kernels::gaussian(8),
        "matrix" => kernels::matrix(8),
        "mvt" => kernels::mvt(8),
        "gemver" => kernels::gemver(8),
        _ => return None,
    })
}

const KERNEL_NAMES: [&str; 9] = [
    "insertion_sort",
    "stencil_2d",
    "covariance",
    "gsum",
    "gsumif",
    "gaussian",
    "matrix",
    "mvt",
    "gemver",
];

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  frequenz list\n  frequenz run <kernel> [--flow iter|prev|seed] \
         [--target N] [--lut-k N] [--vcd FILE]\n  frequenz dot <kernel> [--optimized]\n  \
         frequenz blif <kernel>\n  frequenz dfg <kernel>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for n in KERNEL_NAMES {
                let k = kernel_by_name(n).expect("known kernel");
                println!(
                    "{:<15} {:>4} units {:>4} channels {:>2} loop rings",
                    n,
                    k.graph().num_units(),
                    k.graph().num_channels(),
                    k.back_edges().len()
                );
            }
            ExitCode::SUCCESS
        }
        Some("run") => cmd_run(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("blif") => cmd_blif(&args[1..]),
        Some("dfg") => cmd_dfg(&args[1..]),
        _ => usage(),
    }
}

/// What `frequenz run` was asked for after the kernel name.
struct RunArgs<'a> {
    opts: FlowOptions,
    flow: &'a str,
    vcd: Option<&'a str>,
}

/// Reads `frequenz run`'s options: each is a known flag followed by its
/// value, and the resulting [`FlowOptions`] must validate.
///
/// # Errors
///
/// An unknown flag, a flag without a value (the next argument is another
/// flag, or there is none), a `--target`/`--lut-k` that is not an
/// unsigned integer, a `--flow` other than `iter`/`prev`/`seed`, or
/// options the flow would reject.
fn parse_run_args(args: &[String]) -> Result<RunArgs<'_>, String> {
    let mut run = RunArgs {
        opts: FlowOptions::default(),
        flow: "iter",
        vcd: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if !["--flow", "--target", "--lut-k", "--vcd"].contains(&flag.as_str()) {
            return Err(format!("unknown option {flag:?}"));
        }
        let value = match args.next() {
            Some(v) if !v.starts_with("--") => v.as_str(),
            _ => return Err(format!("{flag} needs a value")),
        };
        let number = || format!("{flag} {value:?}: not an unsigned integer");
        match flag.as_str() {
            "--flow" if ["iter", "prev", "seed"].contains(&value) => run.flow = value,
            "--flow" => return Err(format!("--flow {value:?}: not one of iter, prev, seed")),
            "--target" => run.opts.target_levels = value.parse().map_err(|_| number())?,
            "--lut-k" => run.opts.k = value.parse().map_err(|_| number())?,
            _ => run.vcd = Some(value), // --vcd
        }
    }
    run.opts.validate().map_err(|e| e.to_string())?;
    Ok(run)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(kernel) = kernel_by_name(name) else {
        eprintln!("unknown kernel {name:?}; try `frequenz list`");
        return ExitCode::FAILURE;
    };
    let RunArgs { opts, flow, vcd } = match parse_run_args(&args[1..]) {
        Ok(run) => run,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };

    let result: Result<(Graph, String), Box<dyn std::error::Error>> = (|| {
        Ok(match flow {
            "prev" => {
                let r = optimize_baseline(kernel.graph(), kernel.back_edges(), &opts)?;
                let d = describe(&r);
                (r.graph, d)
            }
            "seed" => (kernel.seeded_graph(), "seed buffers only".into()),
            _ => {
                let r = optimize_iterative(kernel.graph(), kernel.back_edges(), &opts)?;
                let d = describe(&r);
                (r.graph, d)
            }
        })
    })();
    let (graph, summary) = match result {
        Ok(x) => x,
        Err(e) => {
            eprintln!("flow failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{name}: {summary}");

    // Simulate (optionally with waveforms) and verify.
    let mut sim = match Simulator::new(&graph) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simulator construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = kernel.max_cycles * 8;
    let run = |sim: &mut Simulator<'_>| -> Result<u64, Box<dyn std::error::Error>> {
        if let Some(path) = vcd {
            let file = std::fs::File::create(path)?;
            let mut w = std::io::BufWriter::new(file);
            let mut vcd = VcdTracer::new(&graph, &mut w)?;
            // The same budget check as `Simulator::run`, one cycle at a time.
            while !sim.exited() {
                if sim.cycle() >= budget {
                    return Err(SimError::Timeout { max_cycles: budget }.into());
                }
                sim.step()?;
                vcd.sample(sim)?;
            }
            w.flush()?;
            Ok(sim.cycle())
        } else {
            Ok(sim.run(budget)?.cycles)
        }
    };
    let cycles = match run(&mut sim) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (mem, expected) in &kernel.expected_mems {
        if sim.memory(*mem) != expected.as_slice() {
            eprintln!(
                "FAIL: memory {} deviates from reference",
                graph.memory(*mem).name()
            );
            return ExitCode::FAILURE;
        }
    }
    println!("simulated {cycles} cycles; outputs match the software reference");
    if let Some(path) = vcd {
        println!("waveforms written to {path}");
    }

    match measure(&graph, opts.k, kernel.max_cycles * 8) {
        Ok(report) => println!("{report}"),
        Err(e) => eprintln!("measurement failed: {e}"),
    }
    ExitCode::SUCCESS
}

fn describe(r: &FlowResult) -> String {
    format!(
        "{} buffers, {} logic levels, {} iteration(s), converged = {}",
        r.buffers.len(),
        r.achieved_levels,
        r.iterations.len(),
        r.converged
    )
}

fn cmd_dot(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(kernel) = kernel_by_name(name) else {
        eprintln!("unknown kernel {name:?}");
        return ExitCode::FAILURE;
    };
    let graph = if args.iter().any(|a| a == "--optimized") {
        match optimize_iterative(kernel.graph(), kernel.back_edges(), &FlowOptions::default()) {
            Ok(r) => r.graph,
            Err(e) => {
                eprintln!("flow failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        kernel.seeded_graph()
    };
    print!("{}", graph.to_dot());
    ExitCode::SUCCESS
}

fn cmd_dfg(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(kernel) = kernel_by_name(name) else {
        eprintln!("unknown kernel {name:?}");
        return ExitCode::FAILURE;
    };
    print!("{}", kernel.graph().to_dfg_text());
    ExitCode::SUCCESS
}

fn cmd_blif(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(kernel) = kernel_by_name(name) else {
        eprintln!("unknown kernel {name:?}");
        return ExitCode::FAILURE;
    };
    let g = kernel.seeded_graph();
    match synthesize(&g, 6) {
        Ok(synth) => {
            let stdout = std::io::stdout();
            if let Err(e) = write_blif(&synth.netlist, name, stdout.lock()) {
                eprintln!("blif export failed: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            ExitCode::FAILURE
        }
    }
}
