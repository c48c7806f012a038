//! Benchmarks the synthesis lane on the nine kernels' elaborated gate
//! netlists: the retained HashMap reference labeler (the pre-dense serial
//! lane) against the dense-array FlowMap mapper at jobs 1/2/4/8, plus the
//! self-seeded incremental lane (label reuse through an order-isomorphic
//! netlist matching). Every lane is checked bit-identical against the
//! reference before any wall clock is reported.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin bench_synth -- \
//!     [--repeats N] [--jobs N] [--out FILE] [--baseline FILE]
//! ```
//!
//! Writes `BENCH_synth.json` (per-kernel wall clocks, speedups, LUT/cut
//! statistics and the identity verdicts) and prints a table. `--repeats`
//! sets the runs per lane (default 3) and `--jobs` picks the headline
//! parallel lane (default 4 — it must be one of the swept counts
//! 1/2/4/8); a malformed or zero count exits with code 2.
//!
//! With `--baseline FILE`, the previously committed `BENCH_synth.json` is
//! read *before* the fresh run overwrites it, and the run fails if any
//! kernel's LUT count or total cut-input count drifts by more than 10%.
//! Both are deterministic products of the mapper, so any drift is a
//! mapping-semantics change — the head-room only forgives intentional
//! changes committed together with a refreshed baseline.

use frequenz_bench::{arg_value, count_from_args, repeats_from_args, CompareError};
use lutmap::{map_netlist, map_netlist_reference, map_netlist_with_seed, MapOptions};
use netlist::{elaborate, match_netlists, Netlist};
use std::time::Instant;

const SWEEP: [usize; 4] = [1, 2, 4, 8];
const K: usize = 6;

struct Row {
    name: &'static str,
    gates: usize,
    luts: usize,
    depth: u32,
    cut_inputs: usize,
    reference_s: f64,
    dense_s: [f64; SWEEP.len()],
    seeded_s: f64,
    label_reuse_rate: f64,
    identical: bool,
}

impl Row {
    /// Dense single-thread lane vs the HashMap reference — the pure
    /// data-layout win.
    fn dense_speedup(&self) -> f64 {
        self.reference_s / self.dense_s[0].max(1e-12)
    }

    /// Dense lane at `jobs` (a member of [`SWEEP`]) vs the reference —
    /// layout and parallelism combined.
    fn speedup_at(&self, jobs: usize) -> f64 {
        let i = SWEEP.iter().position(|&j| j == jobs).expect("swept count");
        self.reference_s / self.dense_s[i].max(1e-12)
    }

    /// Self-seeded incremental lane vs the reference.
    fn seeded_speedup(&self) -> f64 {
        self.reference_s / self.seeded_s.max(1e-12)
    }
}

/// Minimum wall clock of `repeats` runs of `f`.
fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let v = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("at least one repeat"))
}

/// Extracts `(name, luts, cut_inputs)` per kernel from a previously
/// written `BENCH_synth.json` (hand-rolled: the bench crate has no JSON
/// dependency, and the file is machine-written one kernel per line).
fn baseline_stats(text: &str) -> Vec<(String, u64, u64)> {
    fn field(line: &str, key: &str) -> Option<u64> {
        let pos = line.find(key)?;
        let digits: String = line[pos + key.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().ok()
    }
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(end) = rest.find('"') else { continue };
        let name = rest[..end].to_string();
        if let (Some(luts), Some(cuts)) =
            (field(line, "\"luts\": "), field(line, "\"cut_inputs\": "))
        {
            out.push((name, luts, cuts));
        }
    }
    out
}

/// Elaborates and optimizes one kernel's seeded graph into the gate
/// netlist the mapper consumes.
fn kernel_netlist(kernel: &hls::Kernel) -> Netlist {
    let mut nl = elaborate(&kernel.seeded_graph())
        .expect("kernel graphs are validated")
        .netlist;
    nl.optimize();
    nl
}

fn main() -> Result<(), CompareError> {
    let repeats = repeats_from_args();
    let headline_jobs = count_from_args(&["--jobs"], 4);
    if !SWEEP.contains(&headline_jobs) {
        return Err(format!("--jobs must be one of {SWEEP:?}, got {headline_jobs}").into());
    }
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_synth.json".into());
    // Read the committed baseline *now*: `--baseline` may point at the
    // same path as `--out`, which is overwritten below.
    let baseline = match arg_value("--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let stats = baseline_stats(&text);
            if stats.is_empty() {
                return Err(format!("baseline {path} holds no kernel mapping stats").into());
            }
            Some(stats)
        }
        None => None,
    };

    let kernels = hls::kernels::all_kernels();
    println!(
        "synthesis lane benchmark — {} kernels, {repeats} repeats per lane (min reported), \
         K = {K}, headline jobs = {headline_jobs}",
        kernels.len()
    );
    println!(
        "{:<15} | {:>6} {:>6} {:>5} | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>9} {:>7} | {:>9} {:>6} | {:>5}",
        "Benchmark",
        "gates",
        "luts",
        "depth",
        "ref(s)",
        "dense(s)",
        "layout",
        "j2(s)",
        "j4(s)",
        "j8(s)",
        "j4 x",
        "seed(s)",
        "reuse%",
        "ident"
    );

    let mut rows: Vec<Row> = Vec::new();
    for kernel in &kernels {
        let nl = kernel_netlist(kernel);
        let ref_opts = MapOptions {
            k: K,
            area_recovery: true,
            jobs: 1,
        };

        // The pre-PR serial lane: HashMap labels/cuts, per-gate flow-net
        // allocations. Retained as the measured baseline and the oracle.
        let (reference_s, reference) = best_of(repeats, || {
            map_netlist_reference(&nl, &ref_opts).expect("kernel netlists are acyclic")
        });

        // Dense lane across the jobs sweep, every result checked against
        // the reference before its wall clock counts.
        let mut dense_s = [0.0; SWEEP.len()];
        let mut identical = true;
        let mut first = None;
        for (i, &jobs) in SWEEP.iter().enumerate() {
            let opts = MapOptions {
                k: K,
                area_recovery: true,
                jobs,
            };
            let (s, net) = best_of(repeats, || {
                map_netlist(&nl, &opts).expect("kernel netlists are acyclic")
            });
            dense_s[i] = s;
            if !net.bit_identical(&reference) {
                identical = false;
                eprintln!(
                    "[bench_synth] {}: dense lane diverged from reference at jobs={jobs}!",
                    kernel.name
                );
            }
            if first.is_none() {
                first = Some(net);
            }
        }
        let dense = first.expect("sweep is non-empty");

        // Self-seeded incremental lane: map once to harvest the seed, match
        // the netlist against itself (order-isomorphic, total), then remap
        // with every label served from the seed.
        let (_, seed, _) =
            map_netlist_with_seed(&nl, &ref_opts, None).expect("kernel netlists are acyclic");
        let matching = match_netlists(&nl, &nl);
        let mut reuse_rate = 0.0;
        let (seeded_s, seeded_ok) = best_of(repeats, || {
            let (net, _, stats) = map_netlist_with_seed(&nl, &ref_opts, Some((&seed, &matching)))
                .expect("kernel netlists are acyclic");
            let total = stats.labels_reused + stats.labels_computed;
            reuse_rate = if total == 0 {
                0.0
            } else {
                stats.labels_reused as f64 / total as f64
            };
            net.bit_identical(&reference)
        });
        if !seeded_ok {
            identical = false;
            eprintln!(
                "[bench_synth] {}: seeded lane diverged from reference!",
                kernel.name
            );
        }

        let row = Row {
            name: kernel.name,
            gates: nl.num_gates(),
            luts: dense.num_luts(),
            depth: dense.depth(),
            cut_inputs: dense.total_cut_inputs(),
            reference_s,
            dense_s,
            seeded_s,
            label_reuse_rate: reuse_rate,
            identical,
        };
        println!(
            "{:<15} | {:>6} {:>6} {:>5} | {:>9.4} {:>9.4} {:>5.2}x | {:>9.4} {:>9.4} {:>9.4} {:>6.2}x | {:>9.4} {:>5.0}% | {:>5}",
            row.name,
            row.gates,
            row.luts,
            row.depth,
            row.reference_s,
            row.dense_s[0],
            row.dense_speedup(),
            row.dense_s[1],
            row.dense_s[2],
            row.dense_s[3],
            row.speedup_at(headline_jobs),
            row.seeded_s,
            100.0 * row.label_reuse_rate,
            row.identical,
        );
        rows.push(row);
    }

    // Headline numbers: aggregate lane wall clocks (the honest whole-suite
    // speedup, robust to per-kernel jitter on tiny netlists).
    let ref_total: f64 = rows.iter().map(|r| r.reference_s).sum();
    let dense_total: f64 = rows.iter().map(|r| r.dense_s[0]).sum();
    let headline_i = SWEEP
        .iter()
        .position(|&j| j == headline_jobs)
        .expect("validated above");
    let headline_total: f64 = rows.iter().map(|r| r.dense_s[headline_i]).sum();
    let seeded_total: f64 = rows.iter().map(|r| r.seeded_s).sum();
    let layout_speedup = ref_total / dense_total.max(1e-12);
    let headline_speedup = ref_total / headline_total.max(1e-12);
    let seeded_speedup = ref_total / seeded_total.max(1e-12);
    println!(
        "\ndense layout (jobs=1): {dense_total:.4}s vs reference {ref_total:.4}s — \
         {layout_speedup:.2}x from the data layout alone"
    );
    println!(
        "dense at jobs={headline_jobs}: {headline_total:.4}s — {headline_speedup:.2}x vs the \
         pre-dense serial lane"
    );
    println!(
        "self-seeded incremental lane: {seeded_total:.4}s — {seeded_speedup:.2}x \
         (label reuse {:.0}% mean)",
        100.0 * rows.iter().map(|r| r.label_reuse_rate).sum::<f64>() / rows.len().max(1) as f64
    );
    let all_identical = rows.iter().all(|r| r.identical);
    println!(
        "lane identity: {}",
        if all_identical {
            "every lane bit-identical to the reference on every kernel"
        } else {
            "DIVERGED — see stderr"
        }
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!("  \"k\": {K},\n"));
    json.push_str("  \"jobs_swept\": [1, 2, 4, 8],\n");
    json.push_str(&format!("  \"headline_jobs\": {headline_jobs},\n"));
    json.push_str(&format!(
        "  \"dense_layout_speedup\": {layout_speedup:.3},\n"
    ));
    json.push_str(&format!("  \"headline_speedup\": {headline_speedup:.3},\n"));
    json.push_str(&format!("  \"seeded_speedup\": {seeded_speedup:.3},\n"));
    json.push_str(&format!("  \"lanes_bit_identical\": {all_identical},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"gates\": {}, \"luts\": {}, \"depth\": {}, \
             \"cut_inputs\": {}, \"reference_s\": {:.6}, \"dense_s\": {:.6}, \
             \"dense_j2_s\": {:.6}, \"dense_j4_s\": {:.6}, \"dense_j8_s\": {:.6}, \
             \"seeded_s\": {:.6}, \"dense_layout_speedup\": {:.3}, \
             \"headline_speedup\": {:.3}, \"seeded_speedup\": {:.3}, \
             \"label_reuse_rate\": {:.4}, \"bit_identical\": {}}}{}\n",
            r.name,
            r.gates,
            r.luts,
            r.depth,
            r.cut_inputs,
            r.reference_s,
            r.dense_s[0],
            r.dense_s[1],
            r.dense_s[2],
            r.dense_s[3],
            r.seeded_s,
            r.dense_speedup(),
            r.speedup_at(headline_jobs),
            r.seeded_speedup(),
            r.label_reuse_rate,
            r.identical,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json)?;
    eprintln!("[bench_synth] wrote {out}");

    // Mapping-quality regression gate: fresh vs the committed baseline.
    // Runs after the new JSON lands so a failing run still leaves the
    // numbers behind for inspection.
    if let Some(stats) = baseline {
        let mut regressed = false;
        for (name, base_luts, base_cuts) in &stats {
            let Some(r) = rows.iter().find(|r| r.name == name.as_str()) else {
                eprintln!("[bench_synth] baseline kernel {name} no longer benchmarked");
                continue;
            };
            for (what, fresh, base) in [
                ("LUT count", r.luts as f64, *base_luts as f64),
                ("cut-input count", r.cut_inputs as f64, *base_cuts as f64),
            ] {
                if fresh > base * 1.10 + 1e-9 || fresh < base * 0.90 - 1e-9 {
                    eprintln!(
                        "[bench_synth] REGRESSION: {name} {what} {fresh} vs baseline {base} (>10%)"
                    );
                    regressed = true;
                }
            }
        }
        if regressed {
            return Err("mapping quality drifted >10% vs baseline".into());
        }
        eprintln!(
            "[bench_synth] LUT and cut-input counts within 10% of baseline on all {} kernels",
            stats.len()
        );
    }
    if !all_identical {
        return Err("lane identity check failed — see stderr".into());
    }
    Ok(())
}
