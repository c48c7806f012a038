//! Slack matching: capacity buffers on stalling channels.
//!
//! The cycle-level throughput constraints of the placement MILP see only
//! individual rings; when rings *couple* (an inner loop back-pressuring an
//! outer one, a latency chain feeding an accumulator), extra channel
//! capacity between them removes stalls without touching any critical
//! cycle. This is the classic slack-matching step of elastic/asynchronous
//! design (Najibi & Beerel; Venkataramani & Goldstein — refs [15, 16] of
//! the paper), driven here by simulation: repeatedly buffer the most
//! back-pressured channel and keep the change if it reduces total cycles
//! without violating the logic-level budget.
//!
//! Each round's trial simulations are independent, so they run together
//! and the accept/reject decisions are replayed sequentially in fixed
//! candidate order — the outcome is bit-identical at any job count, the
//! same discipline as the placement MILP's fixed-wave branch-and-bound.
//! Every trial is additionally capped at the round-start incumbent cycle
//! count: a trial that reaches the incumbent can only be rejected, so
//! aborting it there (reported as a pruned trial, distinct from a genuine
//! deadlock) preserves behavior while skipping the useless tail of the
//! simulation.
//!
//! With the default [`SimEngine::Compiled`] engine the pass lowers the
//! base circuit to bytecode **once** ([`sim::Program`]). The first profile
//! runs on [`CompiledSim::with_buffers`]; each round's trials (at most 36:
//! eight singles and their pairs) run as the lanes of [`CompiledLanes`],
//! split into [`SlackOptions::jobs`] contiguous groups of at most
//! [`MAX_LANES`] lanes on the [`dataflow::par`] pool. The trials of a round
//! differ in one or two buffers and stay nearly synchronized, so one
//! dispatch per unit serves every lane. Every lane's outcome and spent
//! cycles equal its own single run's, which `tests/sim_equivalence.rs`
//! pins lane by lane; the full-sweep oracle ([`SimEngine::FullSweep`])
//! runs the trials one interpreted simulation at a time and picks the same
//! buffers after the same trials and cycles, so the engine choice never
//! changes the chosen buffer set — only how fast it arrives.
//!
//! Both strategies (mapping-aware and baseline) run the same pass, so the
//! comparison between them stays apples-to-apples.

use crate::iterate::{apply_buffers, FlowError};
use crate::synth::{SynthCache, SynthOptions};
use crate::trace::{FlowTrace, SimStats};
use dataflow::{par, ChannelId, Graph};
use sim::{
    CompiledLanes, CompiledSim, LaneRun, Program, SimEngine, SimError, Simulator, MAX_LANES,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Maximum buffers the pass may add.
const MAX_ADDED: usize = 16;

/// Stall-ranked channels tried per round, singly and in pairs.
const CANDIDATES_PER_ROUND: usize = 8;

/// Options for [`slack_match_traced`].
#[derive(Debug, Clone)]
pub struct SlackOptions {
    /// Simulation cycle budget per trial.
    pub sim_budget: u64,
    /// LUT input count for the level re-check.
    pub k: usize,
    /// Logic-level budget that must not be exceeded.
    pub target_levels: u32,
    /// Worker threads per round: the compiled engine splits a round's
    /// trials into this many contiguous lane groups (more when a group
    /// would exceed [`MAX_LANES`]), the interpreter runs this many trials
    /// at once. Results are applied in fixed candidate order, so any job
    /// count produces the same buffer set, trials and simulated cycles —
    /// this is purely a throughput knob.
    pub jobs: usize,
    /// Simulation engine for profiles and trials. [`SimEngine::Compiled`]
    /// (the default) compiles the circuit once per pass and runs each
    /// round's trials as the lanes of one [`CompiledLanes`] run per group,
    /// which is what makes large candidate rounds cheap;
    /// [`SimEngine::FullSweep`] is its bit-identical oracle, one
    /// interpreted trial at a time.
    pub engine: SimEngine,
}

impl Default for SlackOptions {
    fn default() -> Self {
        SlackOptions {
            sim_budget: 2_000_000,
            k: 6,
            target_levels: 6,
            jobs: par::default_jobs(),
            engine: SimEngine::Compiled,
        }
    }
}

/// How one pass simulates: a bytecode program compiled once and shared
/// (buffer sets overlaid per run, each round's trials run as lanes), or
/// per-run full-sweep simulators over freshly buffered graph clones.
enum SimFactory<'g> {
    Compiled(Arc<Program>),
    Interpreted(&'g Graph),
}

impl<'g> SimFactory<'g> {
    /// Builds the factory for `base`: the compiled flavor lowers the graph
    /// to bytecode once (counted in `sim.compiles`).
    fn build(
        base: &'g Graph,
        engine: SimEngine,
        sim: &mut SimStats,
    ) -> Result<SimFactory<'g>, FlowError> {
        match engine {
            SimEngine::Compiled => {
                let prog = Arc::new(Program::compile(base)?);
                sim.compiles += 1;
                Ok(SimFactory::Compiled(prog))
            }
            SimEngine::FullSweep => Ok(SimFactory::Interpreted(base)),
        }
    }

    /// Runs `base` + `bufs` once, for at most `budget` cycles.
    fn run(&self, bufs: &[ChannelId], budget: u64) -> Result<LaneRun, SimError> {
        let ids = |n: usize| (0..n).map(|c| ChannelId::from_raw(c as u32));
        match self {
            SimFactory::Compiled(prog) => {
                let mut vm = CompiledSim::with_buffers(Arc::clone(prog), bufs);
                let result = vm.run(budget);
                let n = prog.num_channels();
                Ok(LaneRun {
                    result,
                    cycle: vm.cycle(),
                    stalls: ids(n).map(|c| vm.stalls(c)).collect(),
                    transfers: ids(n).map(|c| vm.transfers(c)).collect(),
                })
            }
            SimFactory::Interpreted(base) => {
                let g = apply_buffers(base, bufs);
                let mut s = Simulator::with_engine(&g, SimEngine::FullSweep)?;
                let result = s.run(budget);
                let n = g.num_channels();
                Ok(LaneRun {
                    result,
                    cycle: s.cycle(),
                    stalls: ids(n).map(|c| s.stalls(c)).collect(),
                    transfers: ids(n).map(|c| s.transfers(c)).collect(),
                })
            }
        }
    }
}

/// Non-zero per-channel stall counts, ranked for candidate selection.
type Stalls = Vec<(ChannelId, u64)>;

/// Completion cycles (`None` on run failure), the run's [`Stalls`], and
/// the cycles executed.
type ProfileResult = (Option<u64>, Stalls, u64);

/// Runs one simulation; returns completion cycles (`None` on run failure),
/// the per-channel stall counts, and the cycles actually executed.
///
/// # Errors
///
/// Only simulator *construction* failures (malformed graph); a deadlocked
/// or timed-out run is an ordinary `None` outcome.
fn profile(
    factory: &SimFactory<'_>,
    bufs: &[ChannelId],
    budget: u64,
) -> Result<ProfileResult, SimError> {
    let run = factory.run(bufs, budget)?;
    let cycles = run.result.as_ref().ok().map(|r| r.cycles);
    Ok((cycles, ranked_stalls(&run.stalls), run.cycle))
}

/// The non-zero stall counts of a run, ranked by count descending with
/// ties broken by ascending [`ChannelId`] — an explicit total order, so
/// the candidate ranking never depends on sort-implementation details.
fn ranked_stalls(stalls: &[u64]) -> Stalls {
    let mut ranked: Stalls = stalls
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(c, &n)| (ChannelId::from_raw(c as u32), n))
        .collect();
    ranked.sort_by_key(|&(c, n)| (std::cmp::Reverse(n), c));
    ranked
}

/// Outcome of one trial simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TrialOutcome {
    /// Completed below the cap: a real cycle count to compare, and the
    /// run's ranked stall profile. A run that completes below the cap
    /// completes the same way under any larger budget, so this is the
    /// profile of the trial's buffer set: accepted, it seeds the next
    /// round's candidates without simulating the set again.
    Completed(u64, Stalls),
    /// Hit the cycle cap. Distinct from [`TrialOutcome::Failed`]: the
    /// trial spent its full budget without finishing — under the incumbent
    /// bound this means "pruned, cannot beat the best", not "broken".
    TimedOut,
    /// Deadlock, missing fixpoint, or a memory fault: unusable candidate.
    Failed,
}

/// A trial's outcome and the cycles it actually executed (the budget
/// spent).
fn trial_outcome(run: LaneRun) -> (TrialOutcome, u64) {
    match run.result {
        Ok(r) => (
            TrialOutcome::Completed(r.cycles, ranked_stalls(&run.stalls)),
            r.cycles,
        ),
        Err(SimError::Timeout { max_cycles }) => (TrialOutcome::TimedOut, max_cycles),
        Err(_) => (TrialOutcome::Failed, run.cycle),
    }
}

/// One trial's outcome and spent cycles, or its simulator's construction
/// error.
type TrialResult = Result<(TrialOutcome, u64), SimError>;

/// Simulates every trial set of a round for at most `cap` cycles, results
/// in trial order. The compiled engine runs the sets as lanes of one
/// program, in `jobs` contiguous groups of at most [`MAX_LANES`] lanes;
/// the interpreter runs them one at a time. Either way each trial's
/// outcome and spent cycles are its own single run's.
///
/// # Errors
///
/// [`FlowError::TrialPanic`] when a worker panics (naming the first trial
/// of its lane group); a trial's construction error is returned in its
/// slot.
fn run_trials(
    factory: &SimFactory<'_>,
    sets: &[Vec<ChannelId>],
    cap: u64,
    jobs: usize,
) -> Result<Vec<TrialResult>, FlowError> {
    let SimFactory::Compiled(prog) = factory else {
        return parallel_trials(sets.len(), jobs, |i| {
            factory.run(&sets[i], cap).map(trial_outcome)
        });
    };
    let groups = jobs.max(sets.len().div_ceil(MAX_LANES)).min(sets.len());
    let bounds: Vec<usize> = (0..=groups)
        .map(|g| g * sets.len() / groups.max(1))
        .collect();
    let runs = parallel_trials(groups, jobs, |g| {
        CompiledLanes::with_buffers(Arc::clone(prog), &sets[bounds[g]..bounds[g + 1]]).run(cap)
    })
    .map_err(|e| match e {
        FlowError::TrialPanic { trial, message } => FlowError::TrialPanic {
            trial: bounds[trial],
            message,
        },
        other => other,
    })?;
    Ok(runs
        .into_iter()
        .flatten()
        .map(|r| Ok(trial_outcome(r)))
        .collect())
}

/// Runs `f` over `0..n` on the [`dataflow::par`] pool (up to `jobs`
/// threads), returning the results in index order.
///
/// # Errors
///
/// A panicking `f` is caught where it runs, and the failure reported is
/// the one with the *lowest index* — [`FlowError::TrialPanic`] —
/// deterministic at any job count.
pub(crate) fn parallel_trials<R, F>(n: usize, jobs: usize, f: F) -> Result<Vec<R>, FlowError>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }

    let indices: Vec<usize> = (0..n).collect();
    par::map(&indices, jobs, |&i| catch_unwind(AssertUnwindSafe(|| f(i))))
        .into_iter()
        .enumerate()
        .map(|(trial, r)| {
            r.map_err(|p| FlowError::TrialPanic {
                trial,
                message: panic_message(p),
            })
        })
        .collect()
}

/// Greedily adds capacity buffers where backpressure concentrates.
///
/// Returns the augmented buffer list (a superset of `buffers`). The level
/// budget is re-checked by synthesis for every accepted buffer, so the
/// pass can only improve cycle counts, never the clock period. Synthesis
/// goes through the caller-owned `cache`: probing the same buffer set
/// twice (or re-checking the set the enclosing flow just synthesized)
/// hits it. A probe's work goes into the synthesis counters
/// ([`FlowTrace::record_synth`]) and its time into `trace.slack` only.
///
/// The pass accumulates its wall clock into `trace.slack`, the simulator
/// sub-lane into `trace.sim` (runs/cycles/compiles included), and the
/// trial/pruned counters.
///
/// # Errors
///
/// [`FlowError::Simulation`] when `base` cannot be simulated at all
/// (malformed graph) and [`FlowError::TrialPanic`] when a trial worker
/// panics; a trial that merely deadlocks or times out is an ordinary
/// rejected candidate, not an error.
pub fn slack_match_traced(
    base: &Graph,
    buffers: &[ChannelId],
    opts: &SlackOptions,
    cache: &SynthCache,
    trace: &mut FlowTrace,
) -> Result<Vec<ChannelId>, FlowError> {
    let pass = Instant::now();
    let mut sim = SimStats::default();
    let result = slack_match_inner(base, buffers, opts, cache, trace, &mut sim);
    trace.slack += pass.elapsed();
    trace.record_sim(sim);
    result
}

fn slack_match_inner(
    base: &Graph,
    buffers: &[ChannelId],
    opts: &SlackOptions,
    cache: &SynthCache,
    trace: &mut FlowTrace,
    sim: &mut SimStats,
) -> Result<Vec<ChannelId>, FlowError> {
    // One compile for the whole pass: every profile and trial below
    // overlays its buffer set on this shared program.
    let factory = SimFactory::build(base, opts.engine, sim)?;

    let mut current: Vec<ChannelId> = buffers.to_vec();
    let t = Instant::now();
    let (first, mut stalls, spent) = profile(&factory, &current, opts.sim_budget)?;
    sim.tally(t.elapsed(), spent);
    let Some(mut best_cycles) = first else {
        return Ok(current);
    };

    // `stalls` is always the profile of `current`: the pre-loop run, then
    // the accepted trial's own run. No round simulates `current` again.
    let mut added = 0usize;
    while added < MAX_ADDED {
        let top: Vec<ChannelId> = stalls
            .iter()
            .filter(|(c, _)| !current.contains(c))
            .take(CANDIDATES_PER_ROUND)
            .map(|(c, _)| *c)
            .collect();
        // Candidate sets: singles first, then pairs — ring re-alignment
        // often needs capacity on two coupled channels at once (e.g. both
        // index channels of a loop header).
        let mut candidates: Vec<Vec<ChannelId>> = top.iter().map(|&c| vec![c]).collect();
        for i in 0..top.len() {
            for j in (i + 1)..top.len() {
                candidates.push(vec![top[i], top[j]]);
            }
        }
        candidates.retain(|cand| added + cand.len() <= MAX_ADDED);

        // Simulate every candidate concurrently, capped at the round-start
        // incumbent: a trial reaching `best_cycles` can only be rejected,
        // so cutting it off there is behavior-preserving. The cap is fixed
        // *before* the round (unlike a live shared incumbent, which would
        // let thread scheduling decide how far each trial runs and break
        // the jobs-count invariance of the synthesis-cache contents).
        let cap = opts.sim_budget.min(best_cycles);
        let sets: Vec<Vec<ChannelId>> = candidates
            .iter()
            .map(|cand| current.iter().chain(cand).copied().collect())
            .collect();
        let t = Instant::now();
        let outcomes = run_trials(&factory, &sets, cap, opts.jobs)?;
        sim.time += t.elapsed();
        sim.runs += outcomes.len() as u64;
        trace.slack_trials += outcomes.len() as u64;

        // Replay acceptance sequentially in candidate order — identical
        // results at any job count. Construction errors (impossible for a
        // graph that profiled above, but structured all the same) surface
        // in the same deterministic order.
        let mut accepted: Option<(Vec<ChannelId>, u64, Stalls)> = None;
        for ((cand, trial), outcome) in candidates.into_iter().zip(&sets).zip(outcomes) {
            let (outcome, spent) = outcome?;
            sim.cycles += spent;
            let (cycles, trial_stalls) = match outcome {
                TrialOutcome::Completed(c, st) => (c, st),
                TrialOutcome::TimedOut => {
                    trace.slack_trials_pruned += 1;
                    continue;
                }
                TrialOutcome::Failed => continue,
            };
            let better = accepted
                .as_ref()
                .map(|(_, c, _)| cycles < *c)
                .unwrap_or(cycles < best_cycles);
            if better {
                let gt = apply_buffers(base, trial);
                let synth_opts = SynthOptions {
                    k: opts.k,
                    jobs: opts.jobs,
                };
                // Counted like every synthesis of the flow; its time stays
                // in `slack`, which times the whole pass.
                let levels = match cache.synthesize_with_basis_opts(&gt, &synth_opts, None) {
                    Ok((s, delta)) => {
                        trace.record_synth(&delta);
                        s.synthesis().logic_levels()
                    }
                    Err(_) => continue,
                };
                if levels <= opts.target_levels {
                    accepted = Some((cand, cycles, trial_stalls));
                }
            }
        }
        match accepted {
            Some((cand, cycles, trial_stalls)) => {
                added += cand.len();
                current.extend(cand);
                best_cycles = cycles;
                stalls = trial_stalls;
            }
            None => break,
        }
    }
    current.sort();
    current.dedup();
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize;
    use hls::kernels;

    /// Profiles `base` + `bufs` with the given engine (test convenience).
    fn profile_once(
        base: &Graph,
        bufs: &[ChannelId],
        budget: u64,
        engine: SimEngine,
    ) -> (Option<u64>, Vec<(ChannelId, u64)>, u64) {
        let factory = SimFactory::build(base, engine, &mut SimStats::default()).unwrap();
        profile(&factory, bufs, budget).unwrap()
    }

    #[test]
    fn slack_matching_never_hurts_cycles() {
        let k = kernels::gsum(32);
        let seed: Vec<ChannelId> = k.back_edges().to_vec();
        let (before, _, _) = profile_once(k.graph(), &seed, k.max_cycles * 4, SimEngine::default());
        let opts = SlackOptions {
            sim_budget: k.max_cycles * 4,
            target_levels: 16, // generous: this test is about cycles
            ..SlackOptions::default()
        };
        let matched = slack_match_traced(
            k.graph(),
            &seed,
            &opts,
            &SynthCache::new(),
            &mut FlowTrace::default(),
        )
        .unwrap();
        let (after, _, _) =
            profile_once(k.graph(), &matched, k.max_cycles * 4, SimEngine::default());
        assert!(after.unwrap() <= before.unwrap());
        // The result still computes the right value.
        let g1 = apply_buffers(k.graph(), &matched);
        let mut s = Simulator::new(&g1).unwrap();
        let stats = s.run(k.max_cycles * 4).unwrap();
        assert_eq!(stats.exit_value, k.expected_exit);
    }

    #[test]
    fn respects_the_level_budget() {
        let k = kernels::gsumif(16);
        let seed: Vec<ChannelId> = k.back_edges().to_vec();
        let opts = SlackOptions {
            sim_budget: k.max_cycles * 4,
            target_levels: 32,
            ..SlackOptions::default()
        };
        let matched = slack_match_traced(
            k.graph(),
            &seed,
            &opts,
            &SynthCache::new(),
            &mut FlowTrace::default(),
        )
        .unwrap();
        let g = apply_buffers(k.graph(), &matched);
        let levels = synthesize(&g, 6).unwrap().logic_levels();
        assert!(levels <= 32);
    }

    #[test]
    fn stall_profile_identifies_hotspots() {
        let k = kernels::matrix(4);
        for engine in [SimEngine::FullSweep, SimEngine::Compiled] {
            let (cycles, stalls, _) =
                profile_once(k.graph(), k.back_edges(), k.max_cycles * 4, engine);
            assert!(cycles.is_some());
            assert!(!stalls.is_empty(), "a seeded matmul must stall somewhere");
            // Sorted descending, ties broken by ascending channel id.
            for w in stalls.windows(2) {
                assert!(w[0].1 >= w[1].1);
                if w[0].1 == w[1].1 {
                    assert!(w[0].0 < w[1].0, "tie not broken by channel id");
                }
            }
        }
    }

    #[test]
    fn traced_pass_accounts_trials_and_sim_lane() {
        let k = kernels::gsum(24);
        let seed: Vec<ChannelId> = k.back_edges().to_vec();
        let opts = SlackOptions {
            sim_budget: k.max_cycles * 4,
            target_levels: 16,
            ..SlackOptions::default()
        };
        let cache = SynthCache::new();
        let mut trace = FlowTrace::default();
        let matched = slack_match_traced(k.graph(), &seed, &opts, &cache, &mut trace).unwrap();
        let again = slack_match_traced(k.graph(), &seed, &opts, &cache, &mut FlowTrace::default());
        assert_eq!(matched, again.unwrap(), "a warm cache changes nothing");
        assert_eq!(
            trace.sim_runs,
            1 + trace.slack_trials,
            "one profile, then trials only: an accepted trial's run is the next round's profile"
        );
        assert!(trace.sim_cycles > 0);
        assert_eq!(
            trace.sim_compiles, 1,
            "the compiled engine lowers the circuit exactly once per pass"
        );
        assert!(trace.slack >= trace.sim, "sim is a sub-lane of slack here");
        assert!(trace.slack_trials >= trace.slack_trials_pruned);
    }

    #[test]
    fn parallel_trials_preserves_index_order() {
        let out = parallel_trials(17, 8, |i| i * i).unwrap();
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        let empty = parallel_trials(0, 4, |i| i).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn panicking_trial_surfaces_lowest_index_deterministically() {
        for jobs in [1usize, 2, 8] {
            let err = parallel_trials(9, jobs, |i| {
                if i % 3 == 2 {
                    panic!("boom at {i}");
                }
                i
            })
            .unwrap_err();
            match err {
                FlowError::TrialPanic { trial, message } => {
                    assert_eq!(trial, 2, "jobs={jobs}: first failing index wins");
                    assert_eq!(message, "boom at 2");
                }
                other => panic!("expected TrialPanic, got {other}"),
            }
        }
    }

    #[test]
    fn unvalidated_base_is_a_structured_simulation_error() {
        use dataflow::{OpKind, PortRef, UnitKind};
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
        // No validate(): port 1 of `u` dangles. Both engines must report
        // it as FlowError::Simulation, never panic.
        for engine in [SimEngine::Compiled, SimEngine::FullSweep] {
            let opts = SlackOptions {
                engine,
                ..SlackOptions::default()
            };
            let mut trace = FlowTrace::default();
            match slack_match_traced(&g, &[], &opts, &SynthCache::new(), &mut trace) {
                Err(FlowError::Simulation(SimError::UnconnectedPort { .. })) => {}
                other => panic!("{engine:?}: expected UnconnectedPort, got {other:?}"),
            }
        }
    }
}
