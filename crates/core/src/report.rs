//! Post-"place & route" measurement (the columns of Table I).
//!
//! The paper measures its circuits after VPR place & route on a
//! Stratix-IV-like device. We measure on the mapped LUT network with a
//! deterministic routing-delay model: each LUT contributes one logic level
//! (0.7 ns), each net hop a fanout- and utilization-dependent routing
//! delay, plus a small deterministic per-net jitter — reproducing the
//! paper's observation that routing makes the achieved CP deviate from
//! the `6 × 0.7 = 4.2 ns` target.

use crate::synth::{synthesize, SynthCache, Synthesis};
use crate::trace::SimStats;
use dataflow::{Graph, LOGIC_LEVEL_DELAY_NS};
use lutmap::{LutId, LutInput};
use sim::{SimEngine, SimError, SimOptions, Simulator};
use std::fmt;
use std::time::Instant;

/// Routing-model constants (calibrated once; see DESIGN.md).
const ROUTE_BASE_NS: f64 = 0.06;
const ROUTE_FANOUT_NS: f64 = 0.05;
const ROUTE_CONGESTION_NS_PER_LUT: f64 = 0.000_04;
const ROUTE_JITTER_NS: f64 = 0.05;

/// Everything Table I reports about one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitReport {
    /// LUT count.
    pub luts: usize,
    /// Flip-flop count.
    pub ffs: usize,
    /// Post-synthesis logic levels.
    pub logic_levels: u32,
    /// Achieved clock period in nanoseconds (levels + routing model).
    pub cp_ns: f64,
    /// Clock cycles to completion.
    pub cycles: u64,
    /// `cp_ns × cycles`.
    pub exec_time_ns: f64,
    /// Buffers placed on channels.
    pub buffers: usize,
}

impl fmt::Display for CircuitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CP {:.2} ns | {} cycles | ET {:.0} ns | {} LUTs | {} FFs | {} levels | {} buffers",
            self.cp_ns,
            self.cycles,
            self.exec_time_ns,
            self.luts,
            self.ffs,
            self.logic_levels,
            self.buffers
        )
    }
}

/// Measurement failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum MeasureError {
    /// Synthesis failed (unbuffered cycle).
    Synthesis(lutmap::MapError),
    /// The functional simulation failed.
    Simulation(SimError),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            MeasureError::Simulation(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Deterministic pseudo-random jitter in `[0, 1)` from a LUT id.
fn jitter(l: LutId) -> f64 {
    let h = (l.index() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(31)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h >> 40) as f64 / (1u64 << 24) as f64
}

/// The achieved clock period of a synthesis result under the routing
/// model: the delay-weighted critical path over the LUT network.
pub fn clock_period_ns(synth: &Synthesis) -> f64 {
    let luts = &synth.luts;
    let n = luts.num_luts();
    if n == 0 {
        return LOGIC_LEVEL_DELAY_NS;
    }
    // Fanout per LUT.
    let mut fanout = vec![0usize; n];
    for (_, lut) in luts.luts() {
        for input in lut.inputs() {
            if let LutInput::Lut(src) = input {
                fanout[src.index()] += 1;
            }
        }
    }
    let congestion = ROUTE_CONGESTION_NS_PER_LUT * n as f64;
    // Arrival-time DP in LUT-level order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| luts.lut(LutId::from_raw(i as u32)).level());
    let mut arrival = vec![0.0f64; n];
    let mut worst: f64 = LOGIC_LEVEL_DELAY_NS;
    for &i in &order {
        let id = LutId::from_raw(i as u32);
        let lut = luts.lut(id);
        let mut t: f64 = 0.0;
        for input in lut.inputs() {
            if let LutInput::Lut(src) = input {
                let hop = ROUTE_BASE_NS
                    + ROUTE_FANOUT_NS * (1.0 + fanout[src.index()] as f64).log2()
                    + congestion
                    + ROUTE_JITTER_NS * jitter(*src);
                t = t.max(arrival[src.index()] + hop);
            }
        }
        arrival[i] = t + LOGIC_LEVEL_DELAY_NS;
        worst = worst.max(arrival[i]);
    }
    worst
}

/// Per-category resource utilization: `(category, luts, ffs)` where the
/// category is a unit mnemonic (`"fork"`, `"add"`, …) or `"buffer"` for
/// channel-owned logic and `"other"` for unattributed glue.
///
/// The paper's area discussion attributes cost to redundant buffers; this
/// breakdown makes that visible per circuit.
pub fn utilization(g: &Graph, synth: &Synthesis) -> Vec<(String, usize, usize)> {
    use std::collections::BTreeMap;
    let mut luts: BTreeMap<String, usize> = BTreeMap::new();
    for (_, lut) in synth.luts.luts() {
        let cat = match lut.origin() {
            netlist::Origin::Unit(u) => g.unit(u).kind().mnemonic().to_string(),
            netlist::Origin::Channel(_) => "buffer".to_string(),
            netlist::Origin::External => "other".to_string(),
        };
        *luts.entry(cat).or_default() += 1;
    }
    let live = synth.netlist.live_mask();
    let mut ffs: BTreeMap<String, usize> = BTreeMap::new();
    for (id, gate) in synth.netlist.gates() {
        if !live[id.index()] || !gate.kind().is_reg() {
            continue;
        }
        let cat = match gate.origin() {
            netlist::Origin::Unit(u) => g.unit(u).kind().mnemonic().to_string(),
            netlist::Origin::Channel(_) => "buffer".to_string(),
            netlist::Origin::External => "other".to_string(),
        };
        *ffs.entry(cat).or_default() += 1;
    }
    let mut cats: Vec<String> = luts.keys().chain(ffs.keys()).cloned().collect();
    cats.sort();
    cats.dedup();
    cats.into_iter()
        .map(|c| {
            let l = luts.get(&c).copied().unwrap_or(0);
            let f = ffs.get(&c).copied().unwrap_or(0);
            (c, l, f)
        })
        .collect()
}

/// Synthesizes, measures and functionally simulates a buffered circuit.
///
/// # Errors
///
/// [`MeasureError::Synthesis`] for unbuffered cycles and
/// [`MeasureError::Simulation`] for deadlocks/timeouts (a budget of
/// `sim_budget` cycles applies).
pub fn measure(g: &Graph, k: usize, sim_budget: u64) -> Result<CircuitReport, MeasureError> {
    let synth = synthesize(g, k).map_err(MeasureError::Synthesis)?;
    measure_synthesized(
        g,
        &synth,
        sim_budget,
        SimOptions::default(),
        &mut SimStats::default(),
    )
}

/// [`measure`] with a caller-owned synthesis cache, instrumentation and an
/// engine choice. When the cache already saw the flow that produced `g`
/// (the iterative flow re-synthesizes its own final answer), the
/// measurement's synthesis is a guaranteed hit. The functional
/// simulation's wall clock and executed cycles (and bytecode compiles,
/// for [`SimEngine::Compiled`]) are tallied into `sim` (also on failure —
/// a deadlocked run still burns real time).
///
/// # Errors
///
/// Same contract as [`measure`].
pub fn measure_traced(
    g: &Graph,
    k: usize,
    sim_budget: u64,
    cache: &SynthCache,
    opts: SimOptions,
    sim: &mut SimStats,
) -> Result<CircuitReport, MeasureError> {
    let synth = cache.synthesize(g, k).map_err(MeasureError::Synthesis)?;
    measure_synthesized(g, &synth, sim_budget, opts, sim)
}

fn measure_synthesized(
    g: &Graph,
    synth: &Synthesis,
    sim_budget: u64,
    opts: SimOptions,
    sim: &mut SimStats,
) -> Result<CircuitReport, MeasureError> {
    let mut s = Simulator::with_engine(g, opts.engine).map_err(MeasureError::Simulation)?;
    if opts.engine == SimEngine::Compiled {
        sim.compiles += 1;
    }
    let t = Instant::now();
    let res = s.run(sim_budget);
    sim.tally(t.elapsed(), s.cycle());
    let stats = res.map_err(MeasureError::Simulation)?;
    let cp_ns = clock_period_ns(synth);
    Ok(CircuitReport {
        luts: synth.lut_count(),
        ffs: synth.ff_count(),
        logic_levels: synth.logic_levels(),
        cp_ns,
        cycles: stats.cycles,
        exec_time_ns: cp_ns * stats.cycles as f64,
        buffers: g.buffered_channels().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls::kernels;

    #[test]
    fn measures_a_seeded_kernel() {
        let k = kernels::gsum(16);
        let g = k.seeded_graph();
        let r = measure(&g, 6, k.max_cycles).unwrap();
        assert!(r.luts > 10);
        assert!(r.ffs > 10);
        assert!(r.logic_levels >= 2);
        assert!(r.cp_ns >= r.logic_levels as f64 * LOGIC_LEVEL_DELAY_NS);
        assert!(r.cycles > 10);
        assert!((r.exec_time_ns - r.cp_ns * r.cycles as f64).abs() < 1e-9);
        assert_eq!(r.buffers, k.back_edges().len());
    }

    #[test]
    fn utilization_accounts_for_everything() {
        let k = kernels::gsum(16);
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let util = utilization(&g, &synth);
        let lut_sum: usize = util.iter().map(|(_, l, _)| l).sum();
        let ff_sum: usize = util.iter().map(|(_, _, f)| f).sum();
        assert_eq!(lut_sum, synth.lut_count());
        assert_eq!(ff_sum, synth.ff_count());
        // Seeded buffers must appear as a category.
        assert!(util.iter().any(|(c, _, f)| c == "buffer" && *f > 0));
    }

    #[test]
    fn cp_grows_with_levels() {
        let k = kernels::gsumif(8);
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let cp6 = clock_period_ns(&synth);
        let synth4 = synthesize(&g, 4).unwrap();
        let cp4 = clock_period_ns(&synth4);
        // K=4 gives at least as many levels, so CP is at least comparable.
        assert!(cp4 + 0.35 >= cp6, "cp4 {cp4:.2} vs cp6 {cp6:.2}");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for i in 0..256 {
            let j = jitter(LutId::from_raw(i));
            assert!((0.0..1.0).contains(&j));
            assert_eq!(j, jitter(LutId::from_raw(i)));
        }
    }

    #[test]
    fn measurement_rejects_unbuffered_cycles() {
        let k = kernels::gsum(8);
        assert!(matches!(
            measure(k.graph(), 6, 1000),
            Err(MeasureError::Synthesis(_))
        ));
    }
}
