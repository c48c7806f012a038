//! Choice-free dataflow circuit (CFDFC) extraction.
//!
//! The throughput term of the buffer-placement MILP needs the circuit's
//! cycles and how often each executes. Dynamatic profiles the C program;
//! we profile the *circuit*: the seeded graph (full buffers on all loop
//! back edges) is simulated once and each simple cycle is weighted by the
//! number of tokens observed on its least-active channel.

use crate::trace::SimStats;
use dataflow::{enumerate_simple_cycles, BufferSpec, ChannelId, Graph};
use sim::{SimEngine, SimOptions, Simulator};
use std::time::Instant;

/// One choice-free dataflow circuit: a simple cycle with profiling data.
#[derive(Debug, Clone)]
pub struct Cfdfc {
    /// The channels of the cycle, in traversal order.
    pub channels: Vec<ChannelId>,
    /// Observed executions (tokens through the least-active channel).
    pub frequency: u64,
    /// Sum of the sequential latencies of the units on the cycle.
    pub latency: u32,
    /// Tokens circulating in steady state (one per loop-carried value).
    pub tokens: u32,
}

/// Extracts up to `max` CFDFCs from `base`, ordered by decreasing
/// frequency. `back_edges` seed the profiling run; cycles that never
/// execute (frequency 0) are dropped.
///
/// If the profiling simulation fails (even to construct) or exceeds
/// `sim_budget` cycles, all cycles get frequency 1 (uniform weighting) —
/// buffer placement then still enforces correctness, just without
/// throughput preferences.
pub fn extract_cfdfcs(
    base: &Graph,
    back_edges: &[ChannelId],
    max: usize,
    sim_budget: u64,
) -> Vec<Cfdfc> {
    extract_cfdfcs_traced(
        base,
        back_edges,
        max,
        sim_budget,
        SimOptions::default(),
        &mut SimStats::default(),
    )
}

/// [`extract_cfdfcs`] with instrumentation and an engine choice: the
/// profiling run's wall clock, executed cycles (and bytecode compiles,
/// for [`SimEngine::Compiled`]) are tallied into `sim`.
pub fn extract_cfdfcs_traced(
    base: &Graph,
    back_edges: &[ChannelId],
    max: usize,
    sim_budget: u64,
    opts: SimOptions,
    sim: &mut SimStats,
) -> Vec<Cfdfc> {
    let cycles = enumerate_simple_cycles(base, 4096);
    let mut seeded = base.clone();
    for &ch in back_edges {
        seeded.set_buffer(ch, BufferSpec::FULL);
    }
    // A graph the simulator rejects (it should never reach this pass, but
    // the pass must not panic on it) degrades to uniform weighting, the
    // same fallback as a failed run.
    let mut simulator = Simulator::with_engine(&seeded, opts.engine).ok();
    if opts.engine == SimEngine::Compiled && simulator.is_some() {
        sim.compiles += 1;
    }
    let t = Instant::now();
    let profiled = simulator
        .as_mut()
        .map(|s| s.run(sim_budget).is_ok())
        .unwrap_or(false);
    sim.tally(
        t.elapsed(),
        simulator.as_ref().map(|s| s.cycle()).unwrap_or(0),
    );

    let mut cfdfcs: Vec<Cfdfc> = cycles
        .into_iter()
        .map(|channels| {
            let frequency = match (&simulator, profiled) {
                (Some(s), true) => channels.iter().map(|&c| s.transfers(c)).min().unwrap_or(0),
                _ => 1,
            };
            let latency: u32 = channels
                .iter()
                .map(|&c| base.unit(base.channel(c).dst().unit).latency())
                .sum();
            Cfdfc {
                channels,
                frequency,
                latency,
                tokens: 1,
            }
        })
        .filter(|c| c.frequency > 0)
        .collect();
    cfdfcs.sort_by_key(|c| std::cmp::Reverse(c.frequency));
    cfdfcs.truncate(max);
    cfdfcs
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls::kernels;

    #[test]
    fn kernel_loops_are_found_and_weighted() {
        let k = kernels::gsum(16);
        let cfdfcs = extract_cfdfcs(k.graph(), k.back_edges(), 8, 100_000);
        assert!(!cfdfcs.is_empty(), "gsum has loop rings");
        // All rings of the single loop iterate ~16 times.
        for c in &cfdfcs {
            assert!(c.frequency >= 8, "frequency {}", c.frequency);
            assert_eq!(c.tokens, 1);
        }
        // Ordered by decreasing frequency.
        for w in cfdfcs.windows(2) {
            assert!(w[0].frequency >= w[1].frequency);
        }
    }

    #[test]
    fn inner_loops_outweigh_outer_loops() {
        let k = kernels::matrix(4);
        let cfdfcs = extract_cfdfcs(k.graph(), k.back_edges(), 32, 200_000);
        assert!(cfdfcs.len() >= 2);
        let max_f = cfdfcs[0].frequency;
        let min_f = cfdfcs.last().unwrap().frequency;
        assert!(
            max_f >= 2 * min_f,
            "innermost ({max_f}) should dominate outermost ({min_f})"
        );
    }

    #[test]
    fn profiling_engine_never_changes_the_weights() {
        let k = kernels::gsumif(8);
        let mut per_engine = Vec::new();
        for engine in [SimEngine::FullSweep, SimEngine::Compiled] {
            let mut sim = SimStats::default();
            let cfdfcs = extract_cfdfcs_traced(
                k.graph(),
                k.back_edges(),
                16,
                100_000,
                SimOptions { engine },
                &mut sim,
            );
            assert_eq!(
                sim.compiles,
                u64::from(engine == SimEngine::Compiled),
                "{engine:?}: compile accounting"
            );
            per_engine.push(
                cfdfcs
                    .into_iter()
                    .map(|c| (c.channels, c.frequency))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(per_engine[0], per_engine[1]);
    }

    #[test]
    fn unsimulatable_graph_degrades_to_uniform_weights() {
        use dataflow::{OpKind, PortRef, UnitKind};
        // A dangling input port: the simulator refuses to construct, the
        // extraction must fall back to frequency 1 instead of panicking.
        let mut g = Graph::new("dangling");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
            .unwrap();
        let u = g
            .add_unit(UnitKind::Operator(OpKind::Add), "u", bb, 8)
            .unwrap();
        let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(u, 0)).unwrap();
        g.connect(PortRef::new(u, 0), PortRef::new(x, 0)).unwrap();
        let cfdfcs = extract_cfdfcs(&g, &[], 8, 1_000);
        for c in &cfdfcs {
            assert_eq!(c.frequency, 1);
        }
    }

    #[test]
    fn latency_accounts_for_pipelined_units() {
        let k = kernels::gsumif(8); // multiplier inside the loop body
        let cfdfcs = extract_cfdfcs(k.graph(), k.back_edges(), 16, 100_000);
        // The accumulation ring itself has latency 0 (comb adder), but no
        // ring should report absurd latency.
        for c in &cfdfcs {
            assert!(c.latency <= 16);
        }
    }
}
