//! The iterative mapping-aware flow (Figure 4 and Section V).
//!
//! Each iteration: synthesize → map LUT edges to the DFG → build the
//! timing model → compute penalties → solve the MILP → re-synthesize with
//! the proposed buffers and check the achieved logic levels. On a miss, a
//! sparse, low-penalty subset of the proposed buffers (spread evenly
//! across basic blocks) is *fixed* and the procedure repeats with the
//! refreshed mapping; convergence is not guaranteed in theory but occurs
//! within a couple of iterations in practice (Section VI-A observes < 3).

use crate::cfdfc::extract_cfdfcs_traced;
use crate::lutdfg::{map_lut_edges_cached, ClassifyCache};
use crate::penalty::compute_penalties;
use crate::place::{place_buffers_warm, PlaceError, PlacementProblem};
use crate::synth::{SynthCache, SynthHandle, SynthOptions};
use crate::timing::TimingGraph;
use crate::trace::{timed, FlowTrace, SimStats};
use dataflow::collections::{HashMap, HashSet};
use dataflow::{count_dirty_bbs, fingerprint_bbs, BufferSpec, ChannelId, Graph};
use lutmap::MapError;
use std::fmt;
use std::time::Instant;

/// Tuning knobs of both flows (iterative and baseline).
#[derive(Debug, Clone)]
pub struct FlowOptions {
    /// LUT input count (the paper's `if -K 6`).
    pub k: usize,
    /// Logic-level budget (the paper targets 6 ⇒ CP ≈ 4.2 ns).
    pub target_levels: u32,
    /// Maximum buffering iterations (the paper observes < 3 suffice).
    pub max_iterations: usize,
    /// Throughput weight α of Eq. 3.
    pub alpha: f64,
    /// Buffer-cost weight β of Eq. 3.
    pub beta: f64,
    /// CFDFCs kept for the throughput term.
    pub max_cfdfcs: usize,
    /// Cycle budget of the CFDFC profiling simulation.
    pub sim_budget: u64,
    /// Cut-generation rounds per MILP solve.
    pub max_cut_rounds: usize,
    /// Levels reserved for the control logic a buffer itself inserts
    /// (TEHB/OEHB handshake gates): the MILP regulates paths to
    /// `target_levels − buffer_margin` so the real circuit lands at
    /// `target_levels`.
    pub buffer_margin: u32,
    /// Use the logic-sharing penalties of Eq. 3 (`false` = Eq. 1 weights
    /// on the same mapping-aware model — the penalty ablation).
    pub use_penalties: bool,
    /// Run the shared slack-matching pass after placement (both flows).
    pub slack_matching: bool,
    /// Simulation engine for every simulation-driven step (CFDFC
    /// profiling, slack matching, measurement). The compiled default is
    /// the production engine; [`sim::SimEngine::FullSweep`] is its
    /// bit-identical oracle, selected only to check a flow against it.
    pub sim_engine: sim::SimEngine,
    /// The MILP objective (Eq. 3 by default; area-only for the ablation).
    pub objective: crate::place::Objective,
    /// Worker threads shared by every parallel stage of the flow: the
    /// FlowMap LUT packer ([`SynthOptions::jobs`](crate::SynthOptions)),
    /// the per-unit baseline characterization, and the slack-matching
    /// trial pool ([`SlackOptions::jobs`](crate::SlackOptions)). Every one
    /// of those stages is bit-identical at any job count; 0 is invalid
    /// (rejected by [`FlowOptions::validate`]). The placement MILP's
    /// branch-and-bound pool is not among them: it is sized from the CPU
    /// mask ([`dataflow::par::default_jobs`]), so `jobs: 1` leaves a flow
    /// single-threaded only on a single-CPU mask.
    pub jobs: usize,
    /// Carry each iteration's optimal MILP basis and incumbent into the
    /// next iteration's solve ([`milp::MilpWarmStore`]). Warm starts are
    /// revalidated by the solver. On `table1` the store moves no Table I
    /// row and no counter but the warm hits and misses, and saves no
    /// measurable MILP time; `tests/incremental_equivalence.rs` checks
    /// that a flow's outcome is the same with it off.
    pub milp_warm_start: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            k: 6,
            target_levels: 6,
            max_iterations: 8,
            alpha: 1.0,
            beta: 0.01,
            max_cfdfcs: 8,
            sim_budget: 400_000,
            max_cut_rounds: 24,
            objective: Default::default(),
            buffer_margin: 1,
            use_penalties: true,
            slack_matching: true,
            milp_warm_start: true,
            sim_engine: sim::SimEngine::Compiled,
            jobs: dataflow::par::default_jobs(),
        }
    }
}

impl FlowOptions {
    /// Rejects option combinations the flows cannot run with.
    ///
    /// Both [`optimize_iterative`] and
    /// [`optimize_baseline`](crate::optimize_baseline) call this up front,
    /// so impossible configurations fail with a typed
    /// [`FlowError::InvalidOptions`] instead of panicking (or silently
    /// under-budgeting) deep inside the loop.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidOptions`] describing the offending field:
    /// `k < 3` (below the widest primitive gate), `max_iterations == 0`
    /// (the Figure-4 loop must run at least once),
    /// `buffer_margin >= target_levels` (the margin consumes the whole
    /// level budget — the internal MILP target would underflow), a
    /// non-finite / negative `alpha` or `beta`, or `jobs == 0` (the
    /// synthesis and slack worker pools need at least one thread).
    pub fn validate(&self) -> Result<(), FlowError> {
        if self.k < 3 {
            return Err(FlowError::InvalidOptions(format!(
                "k = {} is below the minimum of 3 (the widest primitive gate)",
                self.k
            )));
        }
        if self.max_iterations == 0 {
            return Err(FlowError::InvalidOptions(
                "max_iterations = 0: the flow must run at least one iteration".into(),
            ));
        }
        if self.buffer_margin >= self.target_levels {
            return Err(FlowError::InvalidOptions(format!(
                "buffer_margin {} consumes the whole target of {} levels; \
                 no budget is left for datapath logic",
                self.buffer_margin, self.target_levels
            )));
        }
        if !self.alpha.is_finite() || self.alpha < 0.0 {
            return Err(FlowError::InvalidOptions(format!(
                "alpha must be finite and non-negative, got {}",
                self.alpha
            )));
        }
        if !self.beta.is_finite() || self.beta < 0.0 {
            return Err(FlowError::InvalidOptions(format!(
                "beta must be finite and non-negative, got {}",
                self.beta
            )));
        }
        if self.jobs == 0 {
            return Err(FlowError::InvalidOptions(
                "jobs = 0: the synthesis/slack worker pools need at least one thread".into(),
            ));
        }
        Ok(())
    }
}

/// What happened in one Figure-4 iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Buffers proposed by the solver this iteration (fixed included).
    pub proposed: Vec<ChannelId>,
    /// Logic levels achieved after re-synthesis with those buffers.
    pub achieved_levels: u32,
    /// Buffers fixed for the next iteration (empty when converged).
    pub fixed_for_next: Vec<ChannelId>,
    /// Mean penalty of the proposed buffers (diagnostic).
    pub mean_penalty: f64,
}

/// The product of a flow run.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The final buffered circuit.
    pub graph: Graph,
    /// The buffers placed.
    pub buffers: Vec<ChannelId>,
    /// Logic levels of the final circuit.
    pub achieved_levels: u32,
    /// Per-iteration history.
    pub iterations: Vec<IterationRecord>,
    /// `true` if the level budget was met.
    pub converged: bool,
    /// Where the run's wall clock went (see [`FlowTrace`]).
    pub trace: FlowTrace,
}

/// Flow failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// Technology mapping failed.
    Synthesis(MapError),
    /// Buffer placement failed.
    Placement(PlaceError),
    /// The [`FlowOptions`] are unusable (see [`FlowOptions::validate`]).
    InvalidOptions(String),
    /// A simulator could not be constructed (malformed graph reached a
    /// simulation-driven pass).
    Simulation(sim::SimError),
    /// A slack-matching trial worker panicked. `trial` is the candidate
    /// index within its round — the *first* failing trial in deterministic
    /// candidate order, regardless of thread scheduling.
    TrialPanic {
        /// Candidate index of the failing trial within its round.
        trial: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            FlowError::Placement(e) => write!(f, "placement failed: {e}"),
            FlowError::InvalidOptions(msg) => write!(f, "invalid flow options: {msg}"),
            FlowError::Simulation(e) => write!(f, "simulation failed: {e}"),
            FlowError::TrialPanic { trial, message } => {
                write!(f, "slack-matching trial {trial} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<MapError> for FlowError {
    fn from(e: MapError) -> Self {
        FlowError::Synthesis(e)
    }
}

impl From<PlaceError> for FlowError {
    fn from(e: PlaceError) -> Self {
        FlowError::Placement(e)
    }
}

impl From<sim::SimError> for FlowError {
    fn from(e: sim::SimError) -> Self {
        FlowError::Simulation(e)
    }
}

/// Applies `buffers` (as full OEHB+TEHB pairs) to a copy of `base`.
pub fn apply_buffers(base: &Graph, buffers: &[ChannelId]) -> Graph {
    let mut g = base.clone();
    for &c in buffers {
        g.set_buffer(c, BufferSpec::FULL);
    }
    g
}

/// Runs the paper's iterative mapping-aware flow.
///
/// `base` is the unbuffered circuit; `back_edges` are the loop-ring
/// channels that receive the initial (and permanent) buffers.
///
/// # Errors
///
/// Propagates synthesis and placement failures; an unconverged run is not
/// an error (the result reports `converged: false` with the best circuit
/// seen).
pub fn optimize_iterative(
    base: &Graph,
    back_edges: &[ChannelId],
    opts: &FlowOptions,
) -> Result<FlowResult, FlowError> {
    optimize_iterative_with_cache(base, back_edges, opts, &SynthCache::new())
}

/// [`optimize_iterative`] with a caller-owned synthesis cache.
///
/// Sharing one cache across the iterative flow, the baseline flow and the
/// final [`measure`](crate::measure) of the same kernel lets structurally
/// repeated syntheses (iteration *i+1* re-synthesizing iteration *i*'s
/// graph, slack-matching probes, the final measurement) hit memory instead
/// of re-running elaboration + optimization + mapping.
///
/// # Errors
///
/// Same contract as [`optimize_iterative`].
pub fn optimize_iterative_with_cache(
    base: &Graph,
    back_edges: &[ChannelId],
    opts: &FlowOptions,
    cache: &SynthCache,
) -> Result<FlowResult, FlowError> {
    opts.validate()?;
    let run_start = Instant::now();
    let mut trace = FlowTrace::default();
    let synth_opts = SynthOptions {
        k: opts.k,
        jobs: opts.jobs,
    };
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let mut cfdfc_sim = SimStats::default();
    let cfdfcs = timed(&mut trace.timing, || {
        extract_cfdfcs_traced(
            base,
            back_edges,
            opts.max_cfdfcs,
            opts.sim_budget,
            sim::SimOptions {
                engine: opts.sim_engine,
            },
            &mut cfdfc_sim,
        )
    });
    trace.record_sim(cfdfc_sim);
    let mut fixed: Vec<ChannelId> = back_edges.to_vec();
    let mut iterations = Vec::new();
    let mut best: Option<(u32, Vec<ChannelId>)> = None;

    // Incremental-re-synthesis state: the previous iteration's synthesis
    // handle serves as the basis for the next one (FlowMap labels of
    // structurally unchanged cones are reused), and the classify memo
    // carries LUT-edge classifications across iterations (they depend only
    // on the base topology).
    let mut prev_handle: Option<SynthHandle> = None;
    let mut prev_bbs: Option<Vec<(dataflow::BasicBlockId, dataflow::Fingerprint)>> = None;
    let mut classify_cache = ClassifyCache::default();

    // One warm-start store for the whole run: iteration i+1's placement
    // MILP starts from iteration i's optimal basis and incumbent (the
    // models share a shape whenever re-synthesis left the variable set
    // unchanged; any numeric drift is revalidated at adoption time).
    let warm_store = opts.milp_warm_start.then(milp::MilpWarmStore::new);

    let mut extra_margin = 0u32;
    for iteration in 1..=opts.max_iterations {
        // Synthesize the current circuit (with the fixed buffers) and
        // derive the mapping-aware timing model.
        let g_cur = apply_buffers(base, &fixed);

        // Dirty-BB accounting: which basic blocks changed structurally
        // since the graph the previous iteration synthesized?
        let cur_bbs = fingerprint_bbs(&g_cur);
        let dirty = match &prev_bbs {
            Some(prev) => count_dirty_bbs(prev, &cur_bbs),
            None => cur_bbs.len(),
        };
        trace.dirty_bbs += dirty as u64;
        trace.clean_bbs += cur_bbs.len().saturating_sub(dirty) as u64;
        prev_bbs = Some(cur_bbs);

        let cur_handle = synth_step(&mut trace, cache, &g_cur, &synth_opts, prev_handle.as_ref())?;
        let synth = cur_handle.synthesis();
        let timing = timed(&mut trace.timing, || {
            let map = map_lut_edges_cached(base, synth, &mut classify_cache);
            TimingGraph::build(base, synth, &map)
        });
        let penalties = if opts.use_penalties {
            timed(&mut trace.timing, || compute_penalties(base, &timing))
        } else {
            HashMap::default()
        };

        let problem = PlacementProblem {
            graph: base,
            timing: &timing,
            penalties: &penalties,
            cfdfcs: &cfdfcs,
            // Adaptive margin: every missed iteration tightens the
            // internal budget one more level, so mapping disruptions the
            // model cannot foresee are eventually out-margined.
            target_levels: opts
                .target_levels
                .saturating_sub(opts.buffer_margin + extra_margin)
                .max(2),
            fixed: &fixed,
            alpha: opts.alpha,
            beta: opts.beta,
            max_cut_rounds: opts.max_cut_rounds,
            objective: opts.objective,
        };
        let placement = timed(&mut trace.milp, || {
            place_buffers_warm(&problem, warm_store.as_ref())
        })?;
        trace.record_placement(&placement);

        // Re-synthesize with the proposed buffers; check the real levels.
        // The circuit just synthesized is the natural basis: the proposal
        // extends the fixed set, so most basic blocks are untouched.
        let g_new = apply_buffers(base, &placement.buffers);
        let new_handle = synth_step(&mut trace, cache, &g_new, &synth_opts, Some(&cur_handle))?;
        let achieved = new_handle.synthesis().logic_levels();

        let mean_penalty = if placement.buffers.is_empty() {
            0.0
        } else {
            placement
                .buffers
                .iter()
                .map(|c| penalties.get(c).copied().unwrap_or(0.0))
                .sum::<f64>()
                / placement.buffers.len() as f64
        };

        if best.as_ref().map(|(lv, _)| achieved < *lv).unwrap_or(true) {
            best = Some((achieved, placement.buffers.clone()));
        }

        if achieved <= opts.target_levels || iteration == opts.max_iterations {
            iterations.push(IterationRecord {
                iteration,
                proposed: placement.buffers.clone(),
                achieved_levels: achieved,
                fixed_for_next: Vec::new(),
                mean_penalty,
            });
            let converged = achieved <= opts.target_levels;
            let (mut best_levels, mut best_buffers) = if converged {
                (achieved, placement.buffers)
            } else {
                best.expect("at least one iteration ran")
            };
            if opts.slack_matching {
                let slack_opts = crate::slack::SlackOptions {
                    k: opts.k,
                    target_levels: opts.target_levels.max(best_levels),
                    sim_budget: opts.sim_budget,
                    engine: opts.sim_engine,
                    jobs: opts.jobs,
                };
                let widened = crate::slack::slack_match_traced(
                    base,
                    &best_buffers,
                    &slack_opts,
                    cache,
                    &mut trace,
                )?;
                if widened.len() != best_buffers.len() {
                    best_buffers = widened;
                    if let Ok(s2) = synth_step(
                        &mut trace,
                        cache,
                        &apply_buffers(base, &best_buffers),
                        &synth_opts,
                        Some(&cur_handle),
                    ) {
                        best_levels = s2.synthesis().logic_levels();
                    }
                }
            }
            trace.iterations = iterations.len();
            trace.cache_hits = cache.hits() - hits0;
            trace.cache_misses = cache.misses() - misses0;
            trace.total = run_start.elapsed();
            return Ok(FlowResult {
                graph: apply_buffers(base, &best_buffers),
                buffers: best_buffers,
                achieved_levels: best_levels,
                iterations,
                converged,
                trace,
            });
        }

        // Miss: tighten the internal budget and fix a sparse, low-penalty
        // subset, evenly across basic blocks (Section V), then iterate
        // with the refreshed mapping.
        extra_margin = (extra_margin + 1).min(3);
        let new_fixed = select_sparse_subset(base, &placement.buffers, &fixed, &penalties);
        iterations.push(IterationRecord {
            iteration,
            proposed: placement.buffers,
            achieved_levels: achieved,
            fixed_for_next: new_fixed.clone(),
            mean_penalty,
        });
        fixed = new_fixed;
        prev_handle = Some(cur_handle);
    }
    unreachable!("loop returns on the last iteration");
}

/// Runs one cached synthesis, splitting its wall clock and label counters
/// into the incremental/full lanes of the trace. Both flows synthesize
/// through here, so they report the same synthesis counters.
pub(crate) fn synth_step(
    trace: &mut FlowTrace,
    cache: &SynthCache,
    g: &Graph,
    opts: &SynthOptions,
    basis: Option<&SynthHandle>,
) -> Result<SynthHandle, MapError> {
    let start = Instant::now();
    let out = cache.synthesize_with_basis_opts(g, opts, basis);
    let dt = start.elapsed();
    trace.synth += dt;
    if let Ok((_, delta)) = &out {
        if !delta.cache_hit {
            if delta.incremental {
                trace.synth_incremental += dt;
            } else {
                trace.synth_full += dt;
            }
        }
        trace.record_synth(delta);
    }
    out.map(|(h, _)| h)
}

/// The paper's subset rule: keep the previously fixed buffers, then add —
/// per basic block — the proposed buffer with the lowest penalty, so the
/// retained set is sparse (affects independent logic regions) and cheap
/// (disrupts the fewest logic optimizations). Penalty ties break on the
/// lower [`ChannelId`], making the pick canonical regardless of the order
/// the solver emitted the proposal in.
fn select_sparse_subset(
    g: &Graph,
    proposed: &[ChannelId],
    already_fixed: &[ChannelId],
    penalties: &HashMap<ChannelId, f64>,
) -> Vec<ChannelId> {
    let fixed_set: HashSet<ChannelId> = already_fixed.iter().copied().collect();
    let mut per_bb: HashMap<dataflow::BasicBlockId, (ChannelId, f64)> = HashMap::default();
    for &c in proposed {
        if fixed_set.contains(&c) {
            continue;
        }
        let bb = g.unit(g.channel(c).src().unit).bb();
        let p = penalties.get(&c).copied().unwrap_or(0.0);
        match per_bb.get(&bb) {
            Some((held, best)) if *best < p || (*best == p && *held < c) => {}
            _ => {
                per_bb.insert(bb, (c, p));
            }
        }
    }
    let mut out = already_fixed.to_vec();
    out.extend(per_bb.values().map(|(c, _)| *c));
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls::kernels;
    use sim::Simulator;

    #[test]
    fn iterative_flow_converges_on_gsum() {
        let k = kernels::gsum(16);
        let r = optimize_iterative(k.graph(), k.back_edges(), &FlowOptions::default())
            .expect("flow runs");
        assert!(r.converged, "achieved {} levels", r.achieved_levels);
        assert!(r.achieved_levels <= 6);
        assert!(r.iterations.len() <= 5);
        // The final circuit still computes the right answer.
        let mut s = Simulator::new(&r.graph).unwrap();
        let stats = s.run(k.max_cycles * 4).unwrap();
        assert_eq!(stats.exit_value, k.expected_exit);
    }

    #[test]
    fn buffers_include_loop_seeds() {
        let k = kernels::gsumif(16);
        let r = optimize_iterative(k.graph(), k.back_edges(), &FlowOptions::default()).unwrap();
        for be in k.back_edges() {
            assert!(r.buffers.contains(be));
        }
    }

    #[test]
    fn sparse_subset_is_per_basic_block() {
        let k = kernels::matrix(4);
        let g = k.graph();
        let penalties = HashMap::default();
        let proposed: Vec<_> = g.channels().map(|(c, _)| c).take(12).collect();
        let picked = select_sparse_subset(g, &proposed, &[], &penalties);
        // At most one new pick per basic block.
        let mut bbs = HashSet::default();
        for c in &picked {
            let bb = g.unit(g.channel(*c).src().unit).bb();
            assert!(bbs.insert(bb), "two picks in one bb");
        }
    }

    #[test]
    fn invalid_options_are_rejected_up_front() {
        let k = kernels::gsum(8);
        let reject = |opts: FlowOptions| {
            let err = optimize_iterative(k.graph(), k.back_edges(), &opts).unwrap_err();
            assert!(
                matches!(err, FlowError::InvalidOptions(_)),
                "expected InvalidOptions, got {err}"
            );
            let err = crate::optimize_baseline(k.graph(), k.back_edges(), &opts).unwrap_err();
            assert!(matches!(err, FlowError::InvalidOptions(_)));
        };
        // The level budget must not underflow: a margin that consumes the
        // whole target used to slip through to the MILP silently.
        reject(FlowOptions {
            target_levels: 2,
            buffer_margin: 2,
            ..FlowOptions::default()
        });
        // Zero iterations used to hit the `unreachable!` at the loop end.
        reject(FlowOptions {
            max_iterations: 0,
            ..FlowOptions::default()
        });
        reject(FlowOptions {
            k: 2,
            ..FlowOptions::default()
        });
        reject(FlowOptions {
            alpha: f64::NAN,
            ..FlowOptions::default()
        });
        reject(FlowOptions {
            beta: -1.0,
            ..FlowOptions::default()
        });
        // Zero worker threads would deadlock the scoped pools.
        reject(FlowOptions {
            jobs: 0,
            ..FlowOptions::default()
        });
        assert!(FlowOptions::default().validate().is_ok());
    }

    #[test]
    fn iterative_flow_reports_incremental_reuse() {
        let k = kernels::gsumif(16);
        let r = optimize_iterative(k.graph(), k.back_edges(), &FlowOptions::default()).unwrap();
        let t = &r.trace;
        let bbs = fingerprint_bbs(k.graph()).len() as u64;
        assert_eq!(t.dirty_bbs + t.clean_bbs, bbs * t.iterations as u64);
        assert!(t.dirty_bbs > 0, "iteration 1 must count all BBs dirty");
        if t.iterations > 1 {
            assert!(
                t.incr_synths > 0,
                "multi-iteration runs must synthesize incrementally"
            );
            assert!(t.labels_reused > 0, "no FlowMap labels were reused");
        }
        assert!(t.synth_full + t.synth_incremental <= t.synth);
    }

    #[test]
    fn tight_target_still_terminates() {
        let k = kernels::gsum(8);
        let opts = FlowOptions {
            target_levels: 2, // likely unachievable
            max_iterations: 3,
            ..FlowOptions::default()
        };
        let r = optimize_iterative(k.graph(), k.back_edges(), &opts).unwrap();
        assert_eq!(r.iterations.len(), 3);
        assert!(!r.iterations.is_empty());
    }
}
