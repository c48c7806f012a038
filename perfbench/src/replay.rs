//! The traced run: each kernel's flows replayed layer by layer through the
//! public API, in the flows' own call order, with a span around every call
//! into a layer.
//!
//! Per kernel, the untraced flows run first (fresh cache) and give the
//! reference: the fixed buffer set of every Fig. 4 iteration (the subset
//! rule is private to the flow) and the counters the replay must reproduce.
//! The replay then runs on a second fresh cache:
//!
//! * Prev: `characterize_units_jobs` → `baseline_timing_graph` →
//!   `extract_cfdfcs_traced` → `place_buffers` → synthesis →
//!   `slack_match_traced` → the final synthesis;
//! * Iter: `extract_cfdfcs_traced` once, then per iteration
//!   `apply_buffers` → `synthesize_with_basis_opts` → `map_lut_edges_cached`
//!   → `TimingGraph::build` → `compute_penalties` → `place_buffers_warm`
//!   (one `MilpWarmStore` per run) → re-synthesis, and `slack_match_traced`
//!   at the end;
//! * both: `verify_outputs_traced` and `measure_traced`.
//!
//! Every synthesis miss is re-run once more through the public stages
//! (`elaborate` + `Netlist::optimize`, then `match_netlists` +
//! `map_netlist_with_seed`) under probe spans, which splits the synthesis
//! time into `netlist` and `lutmap` without counting the re-run as replay
//! time.

use crate::metrics::{geomean, ratio, Metric};
use crate::pass::{run_kernel, FlowRun};
use crate::spans::Tracer;
use crate::workload::{kernel_order, Workload};
use dataflow::collections::HashMap;
use dataflow::{count_dirty_bbs, fingerprint_bbs, ChannelId, Graph};
use frequenz_bench::{verify_outputs_traced, CompareError};
use frequenz_core::{
    apply_buffers, baseline_timing_graph, characterize_units_jobs, compute_penalties,
    extract_cfdfcs_traced, map_lut_edges_cached, measure_traced, place_buffers, place_buffers_warm,
    slack_match_traced, Cfdfc, CircuitReport, ClassifyCache, FlowOptions, FlowResult, FlowTrace,
    LutDfgMap, PlacementProblem, PlacementResult, SimOptions, SimStats, SlackOptions, SynthCache,
    SynthDelta, SynthHandle, SynthOptions, Synthesis, TimingGraph,
};
use hls::Kernel;
use lutmap::{map_netlist_with_seed, MapOptions, MapSeed};
use netlist::{elaborate, match_netlists};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The per-layer metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("place.prev.s", "s"),
    ("place.iter.s", "s"),
    ("place.cut_rounds", "count"),
    ("milp.prev.nodes", "count"),
    ("milp.prev.pivots", "count"),
    ("milp.iter.nodes", "count"),
    ("milp.iter.pivots", "count"),
    ("milp.nodes_pruned", "count"),
    ("milp.refactors", "count"),
    ("milp.warm_hit_ratio", "ratio"),
    ("synth.s", "s"),
    ("synth.calls", "count"),
    ("synth.cache_hit_ratio", "ratio"),
    ("netlist.s", "s"),
    ("netlist.gates", "count"),
    ("lutmap.s", "s"),
    ("lutmap.labels_computed", "count"),
    ("lutmap.label_reuse_ratio", "ratio"),
    ("lutmap.luts", "count"),
    ("lutdfg.s", "s"),
    ("timing.s", "s"),
    ("timing.nodes", "count"),
    ("penalty.s", "s"),
    ("cfdfc.s", "s"),
    ("cfdfc.sim_cycles", "count"),
    ("slack.s", "s"),
    ("slack.trials", "count"),
    ("slack.pruned_ratio", "ratio"),
    ("slack.accept_ratio", "ratio"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.compiles", "count"),
    ("sim.cycles_per_s", "1/s"),
    ("verify.s", "s"),
    ("report.s", "s"),
    ("baseline.s", "s"),
    ("baseline.unit_tasks", "count"),
    ("prev.et_ns_geomean", "sim_ns"),
    ("prev.luts", "count"),
    ("flow.iter.s", "s"),
    ("flow.prev.s", "s"),
    ("iterate.iterations", "count"),
    ("iterate.dirty_bb_ratio", "ratio"),
    ("iterate.driver.s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
    ("replay.mismatches", "count"),
];

/// Deterministic counts the replay reads from what each call returns.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Lazy clock-period cut rounds, both flows.
    pub place_cut_rounds: u64,
    /// Branch-and-bound nodes of the Prev placement.
    pub milp_prev_nodes: u64,
    /// Simplex pivots of the Prev placement.
    pub milp_prev_pivots: u64,
    /// Branch-and-bound nodes of the Iter placements.
    pub milp_iter_nodes: u64,
    /// Simplex pivots of the Iter placements.
    pub milp_iter_pivots: u64,
    /// Nodes pruned by the incumbent bound, both flows.
    pub milp_nodes_pruned: u64,
    /// Basis refactorizations, both flows.
    pub milp_refactors: u64,
    /// Warm-store adoptions of the Iter placements.
    pub milp_warm_hits: u64,
    /// Warm-store lookups that adopted nothing.
    pub milp_warm_misses: u64,
    /// Live logic gates after optimization, over synthesis misses.
    pub netlist_gates: u64,
    /// FlowMap labels computed by the replay's synthesis calls.
    pub labels_computed: u64,
    /// FlowMap labels reused from a basis by those calls.
    pub labels_reused: u64,
    /// LUTs mapped, over synthesis misses.
    pub lutmap_luts: u64,
    /// Synthesis requests served from the cache (all callers).
    pub synth_hits: u64,
    /// Synthesis requests that ran a synthesis (all callers).
    pub synth_misses: u64,
    /// Nodes of the mapping-aware timing graphs built.
    pub timing_nodes: u64,
    /// Cycles of the CFDFC profiling runs.
    pub cfdfc_sim_cycles: u64,
    /// Slack-matching trials.
    pub slack_trials: u64,
    /// Slack-matching trials cut short by the incumbent bound.
    pub slack_pruned: u64,
    /// Buffers slack matching added.
    pub slack_accepted: u64,
    /// Every simulator run: profiling, slack, verification, measurement.
    pub sim: SimStats,
    /// The benchmark's own verification runs.
    pub verify_sim: SimStats,
    /// The longest single profiling, verification or measurement run.
    pub max_run_cycles: u64,
    /// Unit-characterization tasks of the Prev flow.
    pub unit_tasks: u64,
    /// Fig. 4 iterations.
    pub iterations: u64,
    /// Basic blocks changed since the previous iteration (summed).
    pub dirty_bbs: u64,
    /// Basic blocks unchanged since the previous iteration (summed).
    pub clean_bbs: u64,
    /// Prev execution times, one per kernel.
    pub prev_et_ns: Vec<f64>,
    /// Prev LUTs, summed.
    pub prev_luts: u64,
    /// Iter LUTs, summed.
    pub iter_luts: u64,
    /// Iter FFs, summed.
    pub iter_ffs: u64,
}

fn add_sim(into: &mut SimStats, s: &SimStats) {
    into.time += s.time;
    into.runs += s.runs;
    into.cycles += s.cycles;
    into.compiles += s.compiles;
}

/// What a replayed flow produced, with the counters the real flow records
/// in its [`FlowTrace`].
struct Replayed {
    graph: Graph,
    buffers: Vec<ChannelId>,
    achieved: u32,
    converged: bool,
    trace: FlowTrace,
}

/// Which flow a placement belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Flow {
    Prev,
    Iter,
}

/// One kernel's replay state.
struct Ctx<'a> {
    kernel: &'a Kernel,
    opts: &'a FlowOptions,
    synth_opts: SynthOptions,
    map_opts: MapOptions,
    cache: SynthCache,
    /// FlowMap seeds of the probe's own mappings, by synthesis identity.
    seeds: HashMap<usize, MapSeed>,
    counts: &'a mut Counts,
    mismatches: &'a mut Vec<String>,
}

fn key_of(s: &Arc<Synthesis>) -> usize {
    Arc::as_ptr(s) as usize
}

impl<'a> Ctx<'a> {
    fn mismatch(&mut self, what: String) {
        self.mismatches
            .push(format!("{}: {what}", self.kernel.name));
    }

    fn check(&mut self, flow: &str, field: &str, replay: u64, real: u64) {
        if replay != real {
            self.mismatch(format!("{flow} {field}: replay {replay}, flow {real}"));
        }
    }

    /// One synthesis request, as the flows make it.
    fn synth(
        &mut self,
        tr: &mut Tracer,
        g: &Graph,
        basis: Option<&SynthHandle>,
        ft: &mut FlowTrace,
    ) -> Result<SynthHandle, CompareError> {
        let out = tr.span("synth", |_| {
            self.cache
                .synthesize_with_basis_opts(g, &self.synth_opts, basis)
        });
        let (handle, delta) = out?;
        ft.labels_reused += delta.labels_reused as u64;
        ft.labels_computed += delta.labels_computed as u64;
        self.counts.labels_reused += delta.labels_reused as u64;
        self.counts.labels_computed += delta.labels_computed as u64;
        if !delta.cache_hit {
            if delta.incremental {
                ft.incr_synths += 1;
            } else {
                ft.full_synths += 1;
            }
            self.split(tr, g, basis, &handle, &delta);
        }
        Ok(handle)
    }

    /// Re-runs a miss's synthesis stages on the same inputs under probe
    /// spans, and checks they rebuild the LUT network the cache holds.
    fn split(
        &mut self,
        tr: &mut Tracer,
        g: &Graph,
        basis: Option<&SynthHandle>,
        got: &SynthHandle,
        delta: &SynthDelta,
    ) {
        let probed = tr.probe("synth.split", |tr| {
            // A basis served as a cache hit has no probe seed yet: map its
            // netlist from scratch, which gives the same labels.
            if let Some(b) = basis {
                let key = key_of(b.synthesis());
                if !self.seeds.contains_key(&key) {
                    let (_, seed, _) =
                        map_netlist_with_seed(&b.synthesis().netlist, &self.map_opts, None)
                            .map_err(|e| format!("basis mapping failed: {e}"))?;
                    self.seeds.insert(key, seed);
                }
            }
            let nl = tr.span("netlist", |_| {
                elaborate(g).map(|e| {
                    let mut nl = e.netlist;
                    nl.optimize();
                    nl
                })
            });
            let nl = nl.map_err(|e| format!("elaboration failed: {e}"))?;
            let mapped = tr.span("lutmap", |_| {
                let seeded = basis.map(|b| {
                    let seed = &self.seeds[&key_of(b.synthesis())];
                    (seed, match_netlists(&b.synthesis().netlist, &nl))
                });
                map_netlist_with_seed(&nl, &self.map_opts, seeded.as_ref().map(|(s, m)| (*s, m)))
            });
            let (luts, seed, stats) = mapped.map_err(|e| format!("mapping failed: {e}"))?;
            Ok::<_, String>((nl.num_live_logic(), luts, seed, stats))
        });
        match probed {
            Ok((gates, luts, seed, stats)) => {
                self.counts.netlist_gates += gates as u64;
                self.counts.lutmap_luts += luts.num_luts() as u64;
                let s = got.synthesis();
                if luts.num_luts() != s.lut_count() || luts.depth() != s.logic_levels() {
                    self.mismatch(format!(
                        "stage re-run mapped {} LUTs/{} levels, cache holds {}/{}",
                        luts.num_luts(),
                        luts.depth(),
                        s.lut_count(),
                        s.logic_levels()
                    ));
                }
                if (stats.labels_reused, stats.labels_computed)
                    != (delta.labels_reused, delta.labels_computed)
                {
                    self.mismatch(format!(
                        "stage re-run reused/computed {}/{} labels, cache {}/{}",
                        stats.labels_reused,
                        stats.labels_computed,
                        delta.labels_reused,
                        delta.labels_computed
                    ));
                }
                self.seeds.insert(key_of(s), seed);
            }
            Err(e) => self.mismatch(format!("stage re-run: {e}")),
        }
    }

    fn cfdfcs(&mut self, tr: &mut Tracer, ft: &mut FlowTrace) -> Vec<Cfdfc> {
        let (k, o) = (self.kernel, self.opts);
        let mut s = SimStats::default();
        let cfdfcs = tr.span("cfdfc", |_| {
            extract_cfdfcs_traced(
                k.graph(),
                k.back_edges(),
                o.max_cfdfcs,
                o.sim_budget,
                SimOptions {
                    engine: o.sim_engine,
                },
                &mut s,
            )
        });
        ft.record_sim(s);
        self.counts.cfdfc_sim_cycles += s.cycles;
        self.counts.max_run_cycles = self.counts.max_run_cycles.max(s.cycles);
        add_sim(&mut self.counts.sim, &s);
        cfdfcs
    }

    fn place(
        &mut self,
        tr: &mut Tracer,
        flow: Flow,
        problem: &PlacementProblem<'_>,
        store: Option<&milp::MilpWarmStore>,
        ft: &mut FlowTrace,
    ) -> Result<PlacementResult, CompareError> {
        let name = if flow == Flow::Prev {
            "place.prev"
        } else {
            "place.iter"
        };
        let p = tr.span(name, |_| match store {
            Some(_) => place_buffers_warm(problem, store),
            None => place_buffers(problem),
        })?;
        ft.cut_rounds += p.cut_rounds;
        ft.milp_pivots += p.milp_pivots;
        ft.milp_refactors += p.milp_refactors;
        ft.milp_nodes += p.milp_nodes;
        ft.milp_rows_dropped += p.milp_rows_dropped;
        ft.milp_cuts += p.milp_cuts;
        ft.milp_cut_rounds += p.milp_cut_rounds;
        ft.milp_nodes_pruned += p.milp_nodes_pruned;
        ft.milp_bounds_tightened += p.milp_bounds_tightened;
        ft.milp_warm_hits += p.milp_warm_hits;
        ft.milp_warm_misses += p.milp_warm_misses;
        let c = &mut *self.counts;
        c.place_cut_rounds += p.cut_rounds as u64;
        c.milp_nodes_pruned += p.milp_nodes_pruned;
        c.milp_refactors += p.milp_refactors;
        match flow {
            Flow::Prev => {
                c.milp_prev_nodes += p.milp_nodes;
                c.milp_prev_pivots += p.milp_pivots;
            }
            Flow::Iter => {
                c.milp_iter_nodes += p.milp_nodes;
                c.milp_iter_pivots += p.milp_pivots;
                c.milp_warm_hits += p.milp_warm_hits;
                c.milp_warm_misses += p.milp_warm_misses;
            }
        }
        Ok(p)
    }

    fn slack(
        &mut self,
        tr: &mut Tracer,
        buffers: &[ChannelId],
        target_levels: u32,
        ft: &mut FlowTrace,
    ) -> Result<Vec<ChannelId>, CompareError> {
        let o = self.opts;
        let slack_opts = SlackOptions {
            k: o.k,
            target_levels,
            sim_budget: o.sim_budget,
            engine: o.sim_engine,
            jobs: o.jobs,
            ..SlackOptions::default()
        };
        let mut st = FlowTrace::default();
        let base = self.kernel.graph();
        let widened = tr.span("slack", |_| {
            slack_match_traced(base, buffers, &slack_opts, &self.cache, &mut st)
        })?;
        let c = &mut *self.counts;
        c.slack_trials += st.slack_trials;
        c.slack_pruned += st.slack_trials_pruned;
        c.slack_accepted += widened.len().saturating_sub(buffers.len()) as u64;
        add_sim(
            &mut c.sim,
            &SimStats {
                time: st.sim,
                runs: st.sim_runs,
                cycles: st.sim_cycles,
                compiles: st.sim_compiles,
            },
        );
        ft.absorb(&st);
        Ok(widened)
    }

    /// The baseline flow, as `optimize_baseline_with_cache` runs it.
    fn prev(&mut self, tr: &mut Tracer) -> Result<Replayed, CompareError> {
        tr.span("flow.prev", |tr| {
            let (k, o) = (self.kernel, self.opts);
            let (base, back) = (k.graph(), k.back_edges());
            let mut ft = FlowTrace::default();
            let (unit_levels, tasks) =
                tr.span("baseline", |_| characterize_units_jobs(base, o.k, o.jobs))?;
            ft.par_unit_tasks += tasks;
            self.counts.unit_tasks += tasks;
            let timing = tr.span("baseline", |_| baseline_timing_graph(base, &unit_levels));
            let penalties = HashMap::default();
            let cfdfcs = self.cfdfcs(tr, &mut ft);
            let problem = PlacementProblem {
                graph: base,
                timing: &timing,
                penalties: &penalties,
                cfdfcs: &cfdfcs,
                target_levels: o.target_levels,
                fixed: back,
                alpha: o.alpha,
                beta: o.beta,
                max_cut_rounds: o.max_cut_rounds,
                objective: o.objective,
            };
            let placement = self.place(tr, Flow::Prev, &problem, None, &mut ft)?;
            let mut buffers = placement.buffers;
            if o.slack_matching {
                let g = apply_buffers(base, &buffers);
                let achieved0 = self
                    .synth(tr, &g, None, &mut ft)?
                    .synthesis()
                    .logic_levels();
                buffers = self.slack(tr, &buffers, o.target_levels.max(achieved0), &mut ft)?;
            }
            let graph = apply_buffers(base, &buffers);
            let achieved = self
                .synth(tr, &graph, None, &mut ft)?
                .synthesis()
                .logic_levels();
            ft.iterations = 1;
            Ok(Replayed {
                graph,
                buffers,
                achieved,
                converged: achieved <= o.target_levels,
                trace: ft,
            })
        })
    }

    /// The iterative flow, as `optimize_iterative_with_cache` runs it; the
    /// fixed set of each next iteration comes from `reference`.
    fn iter(&mut self, tr: &mut Tracer, reference: &FlowResult) -> Result<Replayed, CompareError> {
        tr.span("flow.iter", |tr| {
            let (k, o) = (self.kernel, self.opts);
            let (base, back) = (k.graph(), k.back_edges());
            let mut ft = FlowTrace::default();
            let cfdfcs = self.cfdfcs(tr, &mut ft);
            let mut fixed: Vec<ChannelId> = back.to_vec();
            let mut best: Option<(u32, Vec<ChannelId>)> = None;
            let mut prev_handle: Option<SynthHandle> = None;
            let mut prev_model: Option<(Arc<Synthesis>, LutDfgMap, TimingGraph)> = None;
            let mut prev_bbs: Option<Vec<(dataflow::BasicBlockId, dataflow::Fingerprint)>> = None;
            let mut classify = ClassifyCache::default();
            let store = o.milp_warm_start.then(milp::MilpWarmStore::new);
            let mut extra_margin = 0u32;
            for iteration in 1..=o.max_iterations {
                let g_cur = apply_buffers(base, &fixed);
                let cur_bbs = fingerprint_bbs(&g_cur);
                let dirty = match &prev_bbs {
                    Some(p) => count_dirty_bbs(p, &cur_bbs),
                    None => cur_bbs.len(),
                };
                ft.dirty_bbs += dirty as u64;
                ft.clean_bbs += cur_bbs.len().saturating_sub(dirty) as u64;
                prev_bbs = Some(cur_bbs);

                let cur_handle = self.synth(tr, &g_cur, prev_handle.as_ref(), &mut ft)?;
                let synth = cur_handle.synthesis().clone();
                let (map, timing) = match &prev_model {
                    Some((ps, pm, pt)) if Arc::ptr_eq(ps, &synth) => (pm.clone(), pt.clone()),
                    _ => {
                        let m = tr.span("lutdfg", |_| {
                            map_lut_edges_cached(base, &synth, &mut classify)
                        });
                        let t = tr.span("timing", |_| TimingGraph::build(base, &synth, &m));
                        self.counts.timing_nodes += t.num_nodes() as u64;
                        (m, t)
                    }
                };
                prev_model = Some((synth, map, timing));
                let timing = &prev_model.as_ref().expect("just set").2;
                let penalties = if o.use_penalties {
                    tr.span("penalty", |_| compute_penalties(base, timing))
                } else {
                    HashMap::default()
                };
                let problem = PlacementProblem {
                    graph: base,
                    timing,
                    penalties: &penalties,
                    cfdfcs: &cfdfcs,
                    target_levels: o
                        .target_levels
                        .saturating_sub(o.buffer_margin + extra_margin)
                        .max(2),
                    fixed: &fixed,
                    alpha: o.alpha,
                    beta: o.beta,
                    max_cut_rounds: o.max_cut_rounds,
                    objective: o.objective,
                };
                let placement = self.place(tr, Flow::Iter, &problem, store.as_ref(), &mut ft)?;
                let g_new = apply_buffers(base, &placement.buffers);
                let new_handle = self.synth(tr, &g_new, Some(&cur_handle), &mut ft)?;
                let achieved = new_handle.synthesis().logic_levels();
                let record = reference.iterations.get(iteration - 1);
                if record.map(|r| (&r.proposed, r.achieved_levels))
                    != Some((&placement.buffers, achieved))
                {
                    self.mismatch(format!(
                        "iter iteration {iteration} differs from the flow's"
                    ));
                }
                if best.as_ref().is_none_or(|(lv, _)| achieved < *lv) {
                    best = Some((achieved, placement.buffers.clone()));
                }
                if achieved <= o.target_levels || iteration == o.max_iterations {
                    let converged = achieved <= o.target_levels;
                    let (mut best_levels, mut best_buffers) = if converged {
                        (achieved, placement.buffers)
                    } else {
                        best.expect("at least one iteration ran")
                    };
                    if o.slack_matching {
                        let target = o.target_levels.max(best_levels);
                        let widened = self.slack(tr, &best_buffers, target, &mut ft)?;
                        if widened.len() != best_buffers.len() {
                            best_buffers = widened;
                            let g = apply_buffers(base, &best_buffers);
                            if let Ok(s2) = self.synth(tr, &g, Some(&cur_handle), &mut ft) {
                                best_levels = s2.synthesis().logic_levels();
                            }
                        }
                    }
                    ft.iterations = iteration;
                    return Ok(Replayed {
                        graph: apply_buffers(base, &best_buffers),
                        buffers: best_buffers,
                        achieved: best_levels,
                        converged,
                        trace: ft,
                    });
                }
                extra_margin = (extra_margin + 1).min(3);
                // The flow's subset rule is private: take the fixed set the
                // untraced run chose after this iteration.
                fixed = match record {
                    Some(r) if !r.fixed_for_next.is_empty() => r.fixed_for_next.clone(),
                    _ => return Err("the flow stopped before the replay did".into()),
                };
                prev_handle = Some(cur_handle);
            }
            unreachable!("the loop returns on its last iteration")
        })
    }

    /// Checks a replayed flow against the untraced one: buffers, levels,
    /// iterations, cache traffic, and the counters the flow records.
    fn compare(&mut self, flow: Flow, got: &Replayed, real: &FlowResult) {
        let name = if flow == Flow::Prev { "prev" } else { "iter" };
        if got.buffers != real.buffers {
            self.mismatch(format!("{name} buffers differ"));
        }
        let (g, r) = (&got.trace, &real.trace);
        let mut fields = vec![
            (
                "achieved_levels",
                got.achieved as u64,
                real.achieved_levels as u64,
            ),
            ("converged", got.converged as u64, real.converged as u64),
            (
                "iterations",
                g.iterations as u64,
                real.iterations.len() as u64,
            ),
            ("cache_hits", g.cache_hits, r.cache_hits),
            ("cache_misses", g.cache_misses, r.cache_misses),
            ("cut_rounds", g.cut_rounds as u64, r.cut_rounds as u64),
            ("milp_pivots", g.milp_pivots, r.milp_pivots),
            ("milp_refactors", g.milp_refactors, r.milp_refactors),
            ("milp_nodes", g.milp_nodes, r.milp_nodes),
            (
                "milp_rows_dropped",
                g.milp_rows_dropped,
                r.milp_rows_dropped,
            ),
            ("slack_trials", g.slack_trials, r.slack_trials),
            (
                "slack_trials_pruned",
                g.slack_trials_pruned,
                r.slack_trials_pruned,
            ),
            ("sim_runs", g.sim_runs, r.sim_runs),
            ("sim_cycles", g.sim_cycles, r.sim_cycles),
            ("sim_compiles", g.sim_compiles, r.sim_compiles),
        ];
        match flow {
            // The baseline flow copies only five MILP counters into its
            // trace; the others are checked on Iter and reported from the
            // replay's `PlacementResult`.
            Flow::Prev => fields.push(("par_unit_tasks", g.par_unit_tasks, r.par_unit_tasks)),
            Flow::Iter => fields.extend([
                ("milp_cuts", g.milp_cuts, r.milp_cuts),
                ("milp_cut_rounds", g.milp_cut_rounds, r.milp_cut_rounds),
                (
                    "milp_nodes_pruned",
                    g.milp_nodes_pruned,
                    r.milp_nodes_pruned,
                ),
                (
                    "milp_bounds_tightened",
                    g.milp_bounds_tightened,
                    r.milp_bounds_tightened,
                ),
                ("milp_warm_hits", g.milp_warm_hits, r.milp_warm_hits),
                ("milp_warm_misses", g.milp_warm_misses, r.milp_warm_misses),
                ("dirty_bbs", g.dirty_bbs, r.dirty_bbs),
                ("clean_bbs", g.clean_bbs, r.clean_bbs),
                ("labels_reused", g.labels_reused, r.labels_reused),
                ("labels_computed", g.labels_computed, r.labels_computed),
                ("incr_synths", g.incr_synths, r.incr_synths),
                ("full_synths", g.full_synths, r.full_synths),
            ]),
        }
        for (field, replay, real) in fields {
            self.check(name, field, replay, real);
        }
    }

    /// Verifies and measures a replayed circuit, as the untraced pass does.
    fn finish(
        &mut self,
        tr: &mut Tracer,
        flow: Flow,
        got: Replayed,
        real: &FlowRun,
    ) -> Result<CircuitReport, CompareError> {
        let (k, o) = (self.kernel, self.opts);
        let result = FlowResult {
            graph: got.graph,
            buffers: got.buffers,
            achieved_levels: got.achieved,
            iterations: Vec::new(),
            converged: got.converged,
            trace: got.trace,
        };
        let mut vsim = SimStats::default();
        let verified = tr.span("verify", |_| verify_outputs_traced(k, &result, &mut vsim));
        add_sim(&mut self.counts.verify_sim, &vsim);
        add_sim(&mut self.counts.sim, &vsim);
        self.counts.max_run_cycles = self.counts.max_run_cycles.max(vsim.cycles);
        verified?;
        let mut msim = SimStats::default();
        let sim_opts = SimOptions {
            engine: o.sim_engine,
        };
        let budget = k.max_cycles * 8;
        let report = tr.span("report", |_| {
            measure_traced(&result.graph, o.k, budget, &self.cache, sim_opts, &mut msim)
        })?;
        add_sim(&mut self.counts.sim, &msim);
        self.counts.max_run_cycles = self.counts.max_run_cycles.max(report.cycles);
        if report != real.report {
            let name = if flow == Flow::Prev { "prev" } else { "iter" };
            self.mismatch(format!("{name} measurement differs"));
        }
        Ok(report)
    }
}

/// Replays one kernel after running it untraced twice: the first run is
/// the reference, the second is timed, so that both the timed untraced run
/// and the replay start from a process that has already run the kernel.
/// Returns the untraced seconds.
///
/// # Errors
///
/// The first flow, verification or measurement failure.
pub fn trace_kernel(
    tr: &mut Tracer,
    kernel: &Kernel,
    workload: Workload,
    counts: &mut Counts,
    mismatches: &mut Vec<String>,
) -> Result<f64, CompareError> {
    let opts = workload.options();
    let reference = run_kernel(kernel, &opts, workload.runs_prev())?;
    let t = Instant::now();
    drop(run_kernel(kernel, &opts, workload.runs_prev())?);
    let untraced = t.elapsed().as_secs_f64();
    tr.kernel(kernel.name, |tr| {
        let mut ctx = Ctx {
            kernel,
            opts: &opts,
            synth_opts: SynthOptions {
                k: opts.k,
                jobs: opts.jobs,
            },
            map_opts: MapOptions {
                k: opts.k,
                area_recovery: true,
                jobs: opts.jobs,
            },
            cache: SynthCache::new(),
            seeds: HashMap::default(),
            counts,
            mismatches,
        };
        if let Some(real) = &reference.prev {
            let (h0, m0) = (ctx.cache.hits(), ctx.cache.misses());
            let mut got = ctx.prev(tr)?;
            got.trace.cache_hits = ctx.cache.hits() - h0;
            got.trace.cache_misses = ctx.cache.misses() - m0;
            ctx.compare(Flow::Prev, &got, &real.result);
            let report = ctx.finish(tr, Flow::Prev, got, real)?;
            ctx.counts.prev_et_ns.push(report.exec_time_ns);
            ctx.counts.prev_luts += report.luts as u64;
        }
        let real = &reference.iter;
        let (h0, m0) = (ctx.cache.hits(), ctx.cache.misses());
        let mut got = ctx.iter(tr, &real.result)?;
        got.trace.cache_hits = ctx.cache.hits() - h0;
        got.trace.cache_misses = ctx.cache.misses() - m0;
        ctx.compare(Flow::Iter, &got, &real.result);
        ctx.counts.iterations += got.trace.iterations as u64;
        ctx.counts.dirty_bbs += got.trace.dirty_bbs;
        ctx.counts.clean_bbs += got.trace.clean_bbs;
        let report = ctx.finish(tr, Flow::Iter, got, real)?;
        ctx.counts.iter_luts += report.luts as u64;
        ctx.counts.iter_ffs += report.ffs as u64;
        let (hits, misses) = (ctx.cache.hits(), ctx.cache.misses());
        ctx.check("kernel", "cache_hits", hits, reference.cache_hits);
        ctx.check("kernel", "cache_misses", misses, reference.cache_misses);
        ctx.counts.synth_hits += hits;
        ctx.counts.synth_misses += misses;
        Ok(untraced)
    })
}

/// What a traced run measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Human-readable report (kernel order, mismatches, layer shares).
    pub report: String,
    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// The recorded spans.
    pub spans_json: String,
    /// The deterministic counts behind the metrics.
    pub counts: Counts,
    /// Replay mismatches, each prefixed with its kernel.
    pub mismatches: Vec<String>,
    /// Whether every kernel's flows, verification and measurement succeeded.
    pub correct: bool,
    /// Kernels attempted.
    pub attempted: u64,
    /// Kernels that failed.
    pub failed: u64,
}

/// Runs the traced replay over `kernels` in `order`.
pub fn trace_kernels(kernels: &[Kernel], order: &[usize], workload: Workload) -> Traced {
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let mut mismatches = Vec::new();
    let mut untraced = 0.0;
    let mut replayed = 0.0;
    let mut failed = 0u64;
    for &i in order {
        let before = tr.replay_seconds();
        match trace_kernel(&mut tr, &kernels[i], workload, &mut counts, &mut mismatches) {
            Ok(u) => {
                untraced += u;
                replayed += tr.replay_seconds() - before;
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: {} failed: {e}", kernels[i].name);
            }
        }
    }
    let metrics = layer_metrics(&tr, &counts, mismatches.len(), replayed, untraced);
    let mut report = String::new();
    let _ = writeln!(report, "kernel order {:?}", tr.kernels());
    let _ = writeln!(
        report,
        "untraced {untraced:.3} s | replay {replayed:.3} s (stage re-runs excluded)"
    );
    let _ = writeln!(
        report,
        "longest profiling, verification or measurement run {} cycles",
        counts.max_run_cycles
    );
    for m in &mismatches {
        let _ = writeln!(report, "mismatch {m}");
    }
    report.push_str(&shares(&tr));
    Traced {
        report,
        metrics,
        spans_json: tr.to_json(),
        counts,
        mismatches,
        correct: failed == 0,
        attempted: order.len() as u64,
        failed,
    }
}

/// Runs the traced replay of a workload, kernels in seed order.
pub fn trace_workload(workload: Workload, seed: u64) -> Traced {
    let kernels = workload.kernels();
    let order = kernel_order(kernels.len(), seed);
    trace_kernels(&kernels, &order, workload)
}

fn layer_metrics(
    tr: &Tracer,
    c: &Counts,
    mismatches: usize,
    replayed: f64,
    untraced: f64,
) -> Vec<Metric> {
    let by_name = tr.seconds_by_name();
    let s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let net = tr.net_durations();
    let flow_s = |name: &str| -> f64 {
        tr.spans()
            .iter()
            .zip(&net)
            .filter(|(sp, _)| sp.name == name)
            .map(|(_, d)| d.as_secs_f64())
            .sum()
    };
    let n = |v: u64| v as f64;
    let values: [f64; PER_LAYER.len()] = [
        s("place.prev"),
        s("place.iter"),
        n(c.place_cut_rounds),
        n(c.milp_prev_nodes),
        n(c.milp_prev_pivots),
        n(c.milp_iter_nodes),
        n(c.milp_iter_pivots),
        n(c.milp_nodes_pruned),
        n(c.milp_refactors),
        ratio(
            n(c.milp_warm_hits),
            n(c.milp_warm_hits + c.milp_warm_misses),
        ),
        s("synth"),
        n(c.synth_hits + c.synth_misses),
        ratio(n(c.synth_hits), n(c.synth_hits + c.synth_misses)),
        s("netlist"),
        n(c.netlist_gates),
        s("lutmap"),
        n(c.labels_computed),
        ratio(n(c.labels_reused), n(c.labels_reused + c.labels_computed)),
        n(c.lutmap_luts),
        s("lutdfg"),
        s("timing"),
        n(c.timing_nodes),
        s("penalty"),
        s("cfdfc"),
        n(c.cfdfc_sim_cycles),
        s("slack"),
        n(c.slack_trials),
        ratio(n(c.slack_pruned), n(c.slack_trials)),
        ratio(n(c.slack_accepted), n(c.slack_trials)),
        n(c.sim.runs),
        n(c.sim.cycles),
        n(c.sim.compiles),
        ratio(n(c.verify_sim.cycles), c.verify_sim.time.as_secs_f64()),
        s("verify"),
        s("report"),
        // The Prev driver's own glue belongs to the baseline module.
        s("baseline") + s("flow.prev"),
        n(c.unit_tasks),
        geomean(&c.prev_et_ns),
        n(c.prev_luts),
        flow_s("flow.iter"),
        flow_s("flow.prev"),
        n(c.iterations),
        ratio(n(c.dirty_bbs), n(c.dirty_bbs + c.clean_bbs)),
        s("flow.iter"),
        if untraced > 0.0 {
            replayed / untraced - 1.0
        } else {
            0.0
        },
        ratio(s("kernel"), tr.replay_seconds()),
        mismatches as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect()
}

/// Share of the replay's wall per layer, largest first.
fn shares(tr: &Tracer) -> String {
    let by_name = tr.seconds_by_name();
    let spans = tr.spans();
    let probe: std::collections::BTreeSet<&str> =
        spans.iter().filter(|s| s.probe).map(|s| s.name).collect();
    let wall = tr.replay_seconds();
    let mut rows: Vec<(&str, f64)> = by_name
        .into_iter()
        .filter(|(name, _)| !probe.contains(name))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = format!("layer self time over a {wall:.3} s replay:\n");
    for (name, secs) in rows {
        let _ = writeln!(
            out,
            "  {name:<12} {secs:>9.3} s {:>6.1}%",
            100.0 * ratio(secs, wall)
        );
    }
    out
}
