//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report, then one JSON result line as the last line of
//! standard output. Exits 2 on a malformed command line and 1 when the
//! process cannot be pinned to one CPU or the speed probe cannot start.

use perfbench::affinity;
use perfbench::cli::{self, Args, USAGE};
use perfbench::metrics::{median, result_line};
use perfbench::pass::run_passes;
use perfbench::probe::{self, SpeedProbe, REF_SAMPLE_S};
use perfbench::replay::trace_workload;
use perfbench::sample_setup;
use perfbench::workload::kernel_order;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let before = affinity::allowed_cpus().unwrap_or_default();
    let cpu = match affinity::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            return ExitCode::from(1);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} | seed {} | seconds {} | trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "cpu affinity {:?} -> [{cpu}] | available_parallelism {parallelism}",
        before
    );
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn untraced(args: Args) -> ExitCode {
    // Started after pinning, so the probe shares the flows' CPU.
    let probe = match SpeedProbe::start() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot start the speed probe: {e}");
            return ExitCode::from(1);
        }
    };
    let w = args.workload;
    let kernels = w.kernels();
    let order = kernel_order(kernels.len(), args.seed);
    let names: Vec<&str> = order.iter().map(|&i| kernels[i].name).collect();
    println!("kernel order {names:?}");
    // Set-up is sub-millisecond: sample it before every kernel run, so its
    // median spans the whole run rather than one instant of it.
    let mut setup = Vec::new();
    let p = run_passes(
        &kernels,
        &order,
        &w.options(),
        w.runs_prev(),
        Duration::from_secs(args.seconds),
        &probe,
        || sample_setup(w, &mut setup),
    );
    println!("kernel seconds per run, host | reference:");
    for (i, name) in p.names.iter().enumerate() {
        let fmt = |v: &[f64]| v.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>();
        let (host, reference) = (fmt(&p.seconds[i]), fmt(&p.ref_seconds[i]));
        println!("  {name:<15} {} | {}", host.join(" "), reference.join(" "));
    }
    // Set-up runs between kernel runs, so the run's mean sample time
    // stands for the host's speed during it.
    let mean = probe.mean();
    let samples = probe.totals().samples;
    drop(probe);
    println!(
        "pass seconds, host {:.3} | reference {:.3} | probe samples {samples}, mean {:.1} us \
         (reference {:.1} us)",
        p.wall_s(),
        p.ref_wall_s(),
        mean * 1e6,
        REF_SAMPLE_S * 1e6
    );
    let threads = affinity::proc_status("Threads").unwrap_or(0);
    let rss_kb = affinity::proc_status("VmHWM").unwrap_or(0);
    println!(
        "kernel runs {} | setup samples {} | threads at exit {threads} | unstable {:?}",
        p.attempted,
        setup.len(),
        p.unstable
    );
    let setup_s = probe::to_reference(median(&setup), mean);
    let metrics = p.end_to_end(setup_s, rss_kb as f64 / 1024.0);
    println!(
        "{}",
        result_line(p.correct(), p.attempted, p.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn traced(args: Args) -> ExitCode {
    let t = trace_workload(args.workload, args.seed);
    print!("{}", t.report);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &t.spans_json)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    println!(
        "{}",
        result_line(t.correct, t.attempted, t.failed, &t.metrics)
    );
    ExitCode::SUCCESS
}
