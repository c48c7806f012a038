//! Self-tests of the benchmark: metric names, the result shape, the strict
//! command line, seed invariance, replay fidelity, and the invariants the
//! `long_trip` workload is built on.

use hls::kernels::{gsum, gsumif, matrix};
use perfbench::metrics::{result_line, valid_name, END_TO_END};
use perfbench::pass::run_passes;
use perfbench::probe::SpeedProbe;
use perfbench::replay::{trace_kernels, trace_workload, PER_LAYER};
use perfbench::workload::{kernel_order, Workload};
use std::collections::HashSet;
use std::process::Command;
use std::time::Duration;

#[test]
fn metric_names_and_units_are_legal_and_unique() {
    let mut seen = HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(*name), "{name} is listed twice");
        let unit_ok = |b: u8| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b);
        assert!(
            (1..=16).contains(&unit.len()) && unit.bytes().all(unit_ok),
            "{unit}"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        let entry = format!("{{\"name\": \"{w}\", \"why\":");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(text.matches("\"why\":").count(), Workload::ALL.len());
}

#[test]
fn untraced_result_has_the_contract_shape() {
    let kernels = vec![gsum(16)];
    let probe = SpeedProbe::start().expect("a thread can be spawned");
    let p = run_passes(
        &kernels,
        &[0],
        &Workload::Table1.options(),
        true,
        Duration::ZERO,
        &probe,
        || {},
    );
    assert_eq!((p.attempted, p.failed), (1, 0));
    assert!(p.correct());
    let metrics = p.end_to_end(0.001, 10.0);
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    let line = result_line(p.correct(), p.attempted, p.failed, &metrics);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    assert!(line.ends_with("}}}") && !line.contains('\n'));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"}}")), "{unit}");
    }
}

#[test]
fn per_kernel_results_do_not_depend_on_the_seed() {
    let kernels = vec![gsum(16), gsumif(16), matrix(4)];
    let opts = Workload::Table1.options();
    let first = kernel_order(kernels.len(), 1);
    let probe = SpeedProbe::start().expect("a thread can be spawned");
    let seed = (2..)
        .find(|&s| kernel_order(kernels.len(), s) != first)
        .expect("some seed reorders three kernels");
    let a = run_passes(&kernels, &first, &opts, true, Duration::ZERO, &probe, || {});
    let b = run_passes(
        &kernels,
        &kernel_order(kernels.len(), seed),
        &opts,
        true,
        Duration::ZERO,
        &probe,
        || {},
    );
    assert!(a.correct() && b.correct());
    assert!(a.qor.iter().all(Option::is_some));
    assert_eq!(a.qor, b.qor);
}

#[test]
fn replay_reproduces_both_flows_on_small_kernels() {
    let kernels = vec![gsum(16), gsumif(16)];
    for w in [Workload::Table1, Workload::TightClock] {
        let t = trace_kernels(&kernels, &[0, 1], w);
        assert!(t.correct, "{w}: a kernel failed");
        assert!(t.mismatches.is_empty(), "{w}: {:?}", t.mismatches);
        let names: Vec<&str> = t.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        let value = |name: &str| t.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("replay.mismatches"), 0.0);
        assert!(value("flow.iter.s") > 0.0 && value("place.iter.s") > 0.0);
        assert_eq!(value("flow.prev.s") > 0.0, w.runs_prev(), "{w}");
        assert!(value("netlist.s") > 0.0 && value("lutmap.s") > 0.0);
        assert!(value("trace.unaccounted_ratio") < 0.05);
        assert!(t.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn long_trip_keeps_its_circuits_and_cycle_budget() {
    let t = trace_workload(Workload::LongTrip, 0);
    assert!(t.correct);
    assert!(t.mismatches.is_empty(), "{:?}", t.mismatches);
    // The same circuits as at Table I size: only simulation grows.
    assert_eq!((t.counts.iter_luts, t.counts.iter_ffs), (2070, 961));
    // Above 400k cycles the profiling budget truncates and the slack lane
    // collapses.
    assert!(
        t.counts.max_run_cycles < 400_000,
        "a run took {} cycles",
        t.counts.max_run_cycles
    );
}

#[test]
fn binary_rejects_bad_command_lines() {
    let bad = [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload table1 --seed x --seconds 1 --trace 0",
        "--workload table1 --seed 1 --seconds 1.5 --trace 0",
        "--workload table1 --seed 1 --seconds 1 --trace 3",
        "--workload table1 --seed 1 --seconds 1",
        "--workload table1 --seed 1 --seconds 1 --trace 0 --jobs abc",
    ];
    for line in bad {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(line.split_whitespace())
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{line}");
        assert!(out.stdout.is_empty(), "{line} printed a result");
    }
}
