//! Per-run flow instrumentation.
//!
//! Every flow run ([`optimize_iterative`](crate::optimize_iterative) and
//! [`optimize_baseline`](crate::optimize_baseline)) records where its wall
//! clock went — synthesis, the timing lane (LUT→DFG mapping, timing
//! models, CFDFC extraction, penalties), MILP solving, slack matching —
//! together with the deterministic work counters of each lane. The trace
//! rides on [`FlowResult`](crate::FlowResult); `table1` prints its
//! counters (pinned by `scripts/check_table1.sh`) apart from its
//! durations.

use crate::place::PlacementResult;
use crate::synth::SynthDelta;
use std::time::{Duration, Instant};

/// Wall-clock and cache accounting for one flow run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTrace {
    /// Time spent synthesizing (elaborate + optimize + LUT map), cache
    /// misses only — cache hits cost effectively nothing. The slack pass's
    /// level probes are billed to `slack` instead, though their work is
    /// counted in the synthesis counters below.
    pub synth: Duration,
    /// Time spent mapping LUT edges back onto the DFG, building
    /// mapping-aware (or baseline) timing models, extracting CFDFCs and
    /// computing the Eq. 2 penalties.
    pub timing: Duration,
    /// Time spent in the placement MILP.
    pub milp: Duration,
    /// Time spent in the slack-matching pass (simulation + level probes).
    pub slack: Duration,
    /// Whole-run wall clock.
    pub total: Duration,
    /// Synthesis requests served from the [`SynthCache`](crate::SynthCache).
    pub cache_hits: u64,
    /// Synthesis requests that ran a real synthesis.
    pub cache_misses: u64,
    /// Total MILP cut-generation rounds across all iterations.
    pub cut_rounds: usize,
    /// Simplex pivots spent by the placement MILPs (all iterations and cut
    /// rounds) — the deterministic work measure behind the pivot budget.
    pub milp_pivots: u64,
    /// Basis refactorizations performed by the sparse revised simplex.
    pub milp_refactors: u64,
    /// Branch-and-bound nodes explored by the placement MILPs.
    pub milp_nodes: u64,
    /// Constraint rows removed by MILP presolve.
    pub milp_rows_dropped: u64,
    /// Gomory cuts added at MILP root nodes.
    pub milp_cuts: u64,
    /// Root cut-separation rounds consumed by the MILP solver (distinct
    /// from the lazy clock-period `cut_rounds`, which rebuild the model).
    pub milp_cut_rounds: u64,
    /// Branch-and-bound nodes pruned by the incumbent bound before their
    /// LP was ever solved.
    pub milp_nodes_pruned: u64,
    /// Variable bounds tightened by MILP presolve.
    pub milp_bounds_tightened: u64,
    /// Placement solves that adopted a warm-start basis from a previous
    /// iteration (or lazy cut round) of the same placement problem.
    pub milp_warm_hits: u64,
    /// Placement-store lookups that did *not* end in an adopted warm start
    /// (empty store, or the remapped entry failed revalidation).
    pub milp_warm_misses: u64,
    /// Placement MILP solves (one per lazy clock-period round).
    pub milp_solves: u64,
    /// Placement solves that returned an unproven incumbent at the work or
    /// node limit.
    pub milp_truncated: u64,
    /// Placement solves that found no incumbent and fell back to rounding
    /// the LP relaxation.
    pub milp_lp_fallbacks: u64,
    /// Figure-4 iterations executed.
    pub iterations: usize,
    /// Portion of `synth` spent in full (basis-less) synthesis runs.
    pub synth_full: Duration,
    /// Portion of `synth` spent in incremental (basis-seeded) runs.
    pub synth_incremental: Duration,
    /// Cache misses that ran incrementally against a basis.
    pub incr_synths: u64,
    /// Cache misses that synthesized from scratch.
    pub full_synths: u64,
    /// FlowMap labels copied from a basis instead of recomputed.
    pub labels_reused: u64,
    /// FlowMap labels computed by the max-flow test.
    pub labels_computed: u64,
    /// Basic blocks whose structure changed since the previous iteration
    /// (summed over iterations; the first iteration counts all blocks).
    pub dirty_bbs: u64,
    /// Basic blocks untouched since the previous iteration (summed).
    pub clean_bbs: u64,
    /// Wall clock inside cycle-accurate simulator runs — CFDFC profiling
    /// and slack-matching trials. A *cross-cutting* lane: it overlaps
    /// `timing` and `slack` (like `synth_full`/`synth_incremental` overlap
    /// `synth`) rather than adding a disjoint phase.
    pub sim: Duration,
    /// Simulator runs started (completed, timed out, or failed).
    pub sim_runs: u64,
    /// Clock cycles executed across all simulator runs.
    pub sim_cycles: u64,
    /// Bytecode programs compiled for [`sim::SimEngine::Compiled`] runs.
    /// The compiled engine's economics live here: slack matching compiles
    /// *once* per pass and shares the program across every trial thread,
    /// so this stays far below `sim_runs`.
    pub sim_compiles: u64,
    /// Slack-matching trial simulations evaluated.
    pub slack_trials: u64,
    /// Slack trials aborted by the incumbent-bound early exit (they spent
    /// their full cycle cap without beating the round's best).
    pub slack_trials_pruned: u64,
    /// Independent unit-characterization tasks fanned out by the baseline
    /// flow (one per unique unit signature) — jobs-invariant by design.
    pub par_unit_tasks: u64,
    /// LUTs packed by the (potentially parallel) cover-construction pass
    /// across all syntheses — jobs-invariant by design.
    pub par_pack_tasks: u64,
}

/// Wall clock and work counters of a batch of simulator runs, tallied by
/// the functions that own the runs and merged into a [`FlowTrace`] via
/// [`FlowTrace::record_sim`] (the borrow-friendly way to time a sub-lane
/// inside a phase that is itself timed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Wall clock inside the runs.
    pub time: Duration,
    /// Runs started.
    pub runs: u64,
    /// Cycles executed.
    pub cycles: u64,
    /// Bytecode programs compiled (compiled engine only).
    pub compiles: u64,
}

impl SimStats {
    /// Tallies one finished run.
    pub fn tally(&mut self, time: Duration, cycles: u64) {
        self.time += time;
        self.runs += 1;
        self.cycles += cycles;
    }
}

impl FlowTrace {
    /// Fraction of synthesis requests served from cache (0 when none ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of FlowMap labels served from a basis (0 when none ran).
    pub fn label_reuse_rate(&self) -> f64 {
        let total = self.labels_reused + self.labels_computed;
        if total == 0 {
            0.0
        } else {
            self.labels_reused as f64 / total as f64
        }
    }

    /// Merges the work counters of one placement call into the MILP lane
    /// (its wall clock is timed by the caller, into `milp`).
    pub fn record_placement(&mut self, p: &PlacementResult) {
        self.cut_rounds += p.cut_rounds;
        self.milp_pivots += p.milp_pivots;
        self.milp_refactors += p.milp_refactors;
        self.milp_nodes += p.milp_nodes;
        self.milp_rows_dropped += p.milp_rows_dropped;
        self.milp_cuts += p.milp_cuts;
        self.milp_cut_rounds += p.milp_cut_rounds;
        self.milp_nodes_pruned += p.milp_nodes_pruned;
        self.milp_bounds_tightened += p.milp_bounds_tightened;
        self.milp_warm_hits += p.milp_warm_hits;
        self.milp_warm_misses += p.milp_warm_misses;
        self.milp_solves += p.milp_solves;
        self.milp_truncated += p.milp_truncated;
        self.milp_lp_fallbacks += p.milp_lp_fallbacks;
    }

    /// Merges the work counters of one synthesis request into the
    /// synthesis lane (its wall clock is billed by the caller): a miss
    /// counts as a full or incremental synthesis, and its labels and
    /// packed LUTs are added. Every miss of a flow passes through here,
    /// so `full_synths + incr_synths` equals the flow's cache misses.
    pub fn record_synth(&mut self, delta: &SynthDelta) {
        if !delta.cache_hit {
            if delta.incremental {
                self.incr_synths += 1;
            } else {
                self.full_synths += 1;
            }
        }
        self.labels_reused += delta.labels_reused as u64;
        self.labels_computed += delta.labels_computed as u64;
        self.par_pack_tasks += delta.luts_packed as u64;
    }

    /// Merges a batch of simulator-run stats into the `sim` lane.
    pub fn record_sim(&mut self, stats: SimStats) {
        self.sim += stats.time;
        self.sim_runs += stats.runs;
        self.sim_cycles += stats.cycles;
        self.sim_compiles += stats.compiles;
    }

    /// Sums phase durations and counters of `other` into `self` (used to
    /// aggregate the two flows of a comparison run).
    pub fn absorb(&mut self, other: &FlowTrace) {
        self.synth += other.synth;
        self.timing += other.timing;
        self.milp += other.milp;
        self.slack += other.slack;
        self.total += other.total;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cut_rounds += other.cut_rounds;
        self.milp_pivots += other.milp_pivots;
        self.milp_refactors += other.milp_refactors;
        self.milp_nodes += other.milp_nodes;
        self.milp_rows_dropped += other.milp_rows_dropped;
        self.milp_cuts += other.milp_cuts;
        self.milp_cut_rounds += other.milp_cut_rounds;
        self.milp_nodes_pruned += other.milp_nodes_pruned;
        self.milp_bounds_tightened += other.milp_bounds_tightened;
        self.milp_warm_hits += other.milp_warm_hits;
        self.milp_warm_misses += other.milp_warm_misses;
        self.milp_solves += other.milp_solves;
        self.milp_truncated += other.milp_truncated;
        self.milp_lp_fallbacks += other.milp_lp_fallbacks;
        self.iterations += other.iterations;
        self.synth_full += other.synth_full;
        self.synth_incremental += other.synth_incremental;
        self.incr_synths += other.incr_synths;
        self.full_synths += other.full_synths;
        self.labels_reused += other.labels_reused;
        self.labels_computed += other.labels_computed;
        self.dirty_bbs += other.dirty_bbs;
        self.clean_bbs += other.clean_bbs;
        self.sim += other.sim;
        self.sim_runs += other.sim_runs;
        self.sim_cycles += other.sim_cycles;
        self.sim_compiles += other.sim_compiles;
        self.slack_trials += other.slack_trials;
        self.slack_trials_pruned += other.slack_trials_pruned;
        self.par_unit_tasks += other.par_unit_tasks;
        self.par_pack_tasks += other.par_pack_tasks;
    }
}

/// Times a closure, accumulating its wall clock into `slot`.
pub(crate) fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_and_mixes() {
        let mut t = FlowTrace::default();
        assert_eq!(t.cache_hit_rate(), 0.0);
        t.cache_hits = 3;
        t.cache_misses = 1;
        assert!((t.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    /// A trace with every field named and set to `n` times a value of its
    /// own, so a field that `absorb` drops, overwrites or adds into the
    /// wrong slot shows up in the sums below. No `..FlowTrace::default()`:
    /// a new field fails to compile here until it is named.
    fn every_field(n: u64) -> FlowTrace {
        let ms = |k: u64| Duration::from_millis(k * n);
        let c = |k: u64| k * n;
        FlowTrace {
            synth: ms(2),
            timing: ms(3),
            milp: ms(5),
            slack: ms(7),
            total: ms(11),
            cache_hits: c(13),
            cache_misses: c(17),
            cut_rounds: c(19) as usize,
            milp_pivots: c(23),
            milp_refactors: c(29),
            milp_nodes: c(31),
            milp_rows_dropped: c(37),
            milp_cuts: c(41),
            milp_cut_rounds: c(43),
            milp_nodes_pruned: c(47),
            milp_bounds_tightened: c(53),
            milp_warm_hits: c(59),
            milp_warm_misses: c(61),
            milp_solves: c(67),
            milp_truncated: c(71),
            milp_lp_fallbacks: c(73),
            iterations: c(79) as usize,
            synth_full: ms(83),
            synth_incremental: ms(89),
            incr_synths: c(97),
            full_synths: c(101),
            labels_reused: c(103),
            labels_computed: c(107),
            dirty_bbs: c(109),
            clean_bbs: c(113),
            sim: ms(127),
            sim_runs: c(131),
            sim_cycles: c(137),
            sim_compiles: c(139),
            slack_trials: c(149),
            slack_trials_pruned: c(151),
            par_unit_tasks: c(157),
            par_pack_tasks: c(163),
        }
    }

    #[test]
    fn absorb_accumulates() {
        let mut t = FlowTrace::default();
        t.absorb(&every_field(1));
        assert_eq!(t, every_field(1), "absorbing into a default trace");
        t.absorb(&every_field(2));
        assert_eq!(t, every_field(3), "absorbing into a non-default trace");
    }

    #[test]
    fn record_sim_merges_the_sim_lane() {
        let mut t = FlowTrace::default();
        let mut s = SimStats::default();
        s.tally(Duration::from_millis(4), 100);
        s.tally(Duration::from_millis(6), 50);
        s.compiles += 1;
        t.record_sim(s);
        t.record_sim(s);
        assert_eq!(t.sim, Duration::from_millis(20));
        assert_eq!(t.sim_runs, 4);
        assert_eq!(t.sim_cycles, 300);
        assert_eq!(t.sim_compiles, 2);
    }

    #[test]
    fn record_placement_merges_every_milp_counter() {
        let p = PlacementResult {
            buffers: Vec::new(),
            throughputs: Vec::new(),
            cut_rounds: 1,
            unbreakable_levels: Vec::new(),
            objective: 0.0,
            milp_pivots: 2,
            milp_refactors: 3,
            milp_nodes: 4,
            milp_rows_dropped: 5,
            milp_cuts: 6,
            milp_cut_rounds: 7,
            milp_nodes_pruned: 8,
            milp_bounds_tightened: 9,
            milp_warm_hits: 10,
            milp_warm_misses: 11,
            milp_solves: 12,
            milp_truncated: 13,
            milp_lp_fallbacks: 14,
        };
        let mut t = FlowTrace::default();
        t.record_placement(&p);
        t.record_placement(&p);
        let got = [
            t.cut_rounds as u64,
            t.milp_pivots,
            t.milp_refactors,
            t.milp_nodes,
            t.milp_rows_dropped,
            t.milp_cuts,
            t.milp_cut_rounds,
            t.milp_nodes_pruned,
            t.milp_bounds_tightened,
            t.milp_warm_hits,
            t.milp_warm_misses,
            t.milp_solves,
            t.milp_truncated,
            t.milp_lp_fallbacks,
        ];
        assert_eq!(got, [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28]);
    }

    #[test]
    fn label_reuse_rate_handles_zero_and_mixes() {
        let mut t = FlowTrace::default();
        assert_eq!(t.label_reuse_rate(), 0.0);
        t.labels_reused = 30;
        t.labels_computed = 10;
        assert!((t.label_reuse_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timed_accumulates_into_slot() {
        let mut slot = Duration::ZERO;
        let v = timed(&mut slot, || 7);
        assert_eq!(v, 7);
        let first = slot;
        timed(&mut slot, || ());
        assert!(slot >= first);
    }
}
