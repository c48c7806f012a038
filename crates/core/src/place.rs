//! The buffer-placement MILP (Section III, Eq. 1 and Eq. 3).
//!
//! Objective: `max α·Σ_k freq_k·Φ_k − β·Σ_c R_c·(1 + Penalty(c))` — the
//! paper's Eq. 3; the mapping-agnostic baseline passes zero penalties and
//! recovers Eq. 1.
//!
//! Constraints:
//!
//! * **correctness** — every simple cycle carries ≥ 1 buffer (the
//!   handshake ring must be sequential);
//! * **throughput** — for each CFDFC `k` (marked-graph steady state):
//!   `Φ_k ≤ T_k / (L_k + Σ_{c∈k} R_c)`, linearized exactly with McCormick
//!   products `w = Φ·R` (`Φ ∈ [0,1]`, `R ∈ {0,1}`);
//! * **clock period** — *lazily generated covering cuts*: after each
//!   integer solution the timing graph is longest-path analyzed with the
//!   chosen buffers applied; every path of `L > target` levels yields
//!   `Σ_{c ∈ path} R_c ≥ ⌈L/target⌉ − 1`. This is equivalent at optimality
//!   to the monolithic arrival-time MILP the paper references, but keeps
//!   the model a few hundred rows (see DESIGN.md).
//!
//! Paths with no breakable channel (artificial or intra-unit) are
//! reported, not constrained — the paper's "minor discrepancies from the
//! target".

use crate::cfdfc::Cfdfc;
use crate::timing::TimingGraph;
use dataflow::collections::{HashMap, HashSet};
use dataflow::{enumerate_simple_cycles, ChannelId, Graph};
use milp::{Cmp, Model, Sense, SolveError, VarId};
use std::collections::BTreeSet;
use std::fmt;

/// What the MILP maximizes (the paper: "our iterative refinement strategy
/// is perfectly general — it could be ... adapted to any optimization
/// objective").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Eq. 1 / Eq. 3: maximize `α·Σ freq·Φ − β·Σ cost·R`.
    #[default]
    ThroughputAndArea,
    /// Pure area: minimize `Σ cost·R` subject to the same correctness and
    /// clock-period constraints (no throughput term).
    AreaOnly,
}

/// Inputs to one buffer-placement solve.
#[derive(Debug)]
pub struct PlacementProblem<'a> {
    /// The dataflow graph (buffer annotations are ignored; candidates are
    /// decided fresh).
    pub graph: &'a Graph,
    /// The timing model to regulate (mapping-aware or baseline).
    pub timing: &'a TimingGraph,
    /// Per-channel penalties (empty map ⇒ Eq. 1 behaviour).
    pub penalties: &'a HashMap<ChannelId, f64>,
    /// Profiled cycles for the throughput term.
    pub cfdfcs: &'a [Cfdfc],
    /// The logic-level budget (the paper uses 6).
    pub target_levels: u32,
    /// Buffers that must remain placed (loop seeds + buffers fixed by
    /// earlier iterations).
    pub fixed: &'a [ChannelId],
    /// Throughput weight α.
    pub alpha: f64,
    /// Buffer-cost weight β.
    pub beta: f64,
    /// Cut-generation round limit.
    pub max_cut_rounds: usize,
    /// The objective to optimize.
    pub objective: Objective,
}

/// The outcome of a placement solve.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// All channels that must carry a buffer (fixed ∪ newly placed).
    pub buffers: Vec<ChannelId>,
    /// Predicted throughput per CFDFC (same order as the input).
    pub throughputs: Vec<f64>,
    /// Cut rounds used.
    pub cut_rounds: usize,
    /// Levels of paths the solver could not break (no breakable channel).
    pub unbreakable_levels: Vec<u32>,
    /// Final objective value.
    pub objective: f64,
    /// Simplex pivots across all MILP solves (including cut rounds and the
    /// LP-rounding fallback) — the deterministic work actually spent.
    pub milp_pivots: u64,
    /// Basis refactorizations across all MILP solves (sparse engine).
    pub milp_refactors: u64,
    /// Branch-and-bound nodes across all MILP solves.
    pub milp_nodes: u64,
    /// Constraint rows removed by [`milp::Model::canonicalize`] across all
    /// cut rounds (duplicate, bound-implied, and empty rows).
    pub milp_rows_dropped: u64,
    /// Gomory + cover cutting planes added at root nodes across all MILP
    /// solves.
    pub milp_cuts: u64,
    /// Root cut-separation rounds consumed (distinct from the lazy
    /// clock-period `cut_rounds` above, which rebuild the model).
    pub milp_cut_rounds: u64,
    /// Open branch-and-bound nodes discarded by the incumbent bound at pop
    /// time (never LP-solved).
    pub milp_nodes_pruned: u64,
    /// Variable bounds tightened by MILP presolve across all solves.
    pub milp_bounds_tightened: u64,
    /// MILP solves that adopted a stored warm-start basis.
    pub milp_warm_hits: u64,
    /// Store lookups that did *not* end in an adopted warm start — either
    /// the store had no entry yet, or the remapped entry failed the
    /// solver's revalidation. Zero when no store was supplied.
    pub milp_warm_misses: u64,
    /// MILP solves, one per lazy clock-period round.
    pub milp_solves: u64,
    /// Solves that stopped at the work or node limit with an unproven
    /// incumbent ([`milp::Status::Feasible`]).
    pub milp_truncated: u64,
    /// Solves that found no incumbent within the limits and fell back to
    /// rounding the LP relaxation up.
    pub milp_lp_fallbacks: u64,
}

/// Placement failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum PlaceError {
    /// The MILP solver failed.
    Solve(SolveError),
    /// A handshake ring has no breakable channel at all.
    UnbreakableCycle,
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::Solve(e) => write!(f, "buffer-placement MILP failed: {e}"),
            PlaceError::UnbreakableCycle => {
                f.write_str("a dataflow cycle has no breakable channel")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

impl From<SolveError> for PlaceError {
    fn from(e: SolveError) -> Self {
        PlaceError::Solve(e)
    }
}

/// One covering cut: `Σ R over channels ≥ need`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Cut {
    channels: BTreeSet<ChannelId>,
    need: u32,
}

/// Sliding-window covering cuts from a violating path: every contiguous
/// stretch of more than `target` logic levels must contain at least one
/// buffered channel. Windows with no breakable channel are recorded in
/// `unbreakable` instead (the paper's unavoidable target misses).
fn window_cuts(
    path: &crate::timing::CriticalPath,
    target: u32,
    unbreakable: &mut Vec<u32>,
) -> Vec<Cut> {
    let n = path.trace.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < n {
        // Grow the window from i until its real-node count exceeds target.
        let mut levels = 0u32;
        let mut j = i;
        let mut found = false;
        while j < n {
            if path.trace[j].1 {
                levels += 1;
            }
            if levels > target && j > i {
                found = true;
                break;
            }
            j += 1;
        }
        if !found {
            break;
        }
        let channels: BTreeSet<ChannelId> = path.trace[i + 1..=j]
            .iter()
            .filter_map(|(c, _)| *c)
            .collect();
        if channels.is_empty() {
            unbreakable.push(levels);
        } else {
            out.push(Cut { channels, need: 1 });
        }
        // Restart just past the first breakable position of this window
        // (or past the window when none exists).
        let first_break = (i + 1..=j).find(|&k| path.trace[k].0.is_some());
        i = first_break.unwrap_or(j);
    }
    out
}

/// Seed constraint set: correctness cuts from a bounded cycle sample plus
/// clock-period cuts from the fixed-buffers-only timing state.
fn seed_cuts(p: &PlacementProblem<'_>, fixed: &HashSet<ChannelId>) -> BTreeSet<Cut> {
    // Deeply nested loops have combinatorially many simple cycles, and the
    // lazy timing analysis adds a covering cut for any cycle the sample
    // missed.
    let cycles = enumerate_simple_cycles(p.graph, 96);
    let mut cuts: BTreeSet<Cut> = BTreeSet::new();
    for cy in &cycles {
        cuts.insert(Cut {
            channels: cy.iter().copied().collect(),
            need: 1,
        });
    }
    // Seed the clock-period cuts from the fixed-buffers-only state: this
    // usually leaves only refinement work to the lazy rounds.
    if let Ok(paths) = p
        .timing
        .critical_paths(p.target_levels, |c| fixed.contains(&c), 160)
    {
        let mut scratch = Vec::new();
        for path in &paths {
            cuts.extend(window_cuts(path, p.target_levels, &mut scratch));
        }
    }
    cuts
}

/// A placement MILP instance with the variable maps needed to read it back.
struct BuiltModel {
    model: Model,
    rvar: HashMap<ChannelId, VarId>,
    phis: Vec<VarId>,
    candidates: BTreeSet<ChannelId>,
}

/// Builds the MILP for one cut round.
fn build_model(
    p: &PlacementProblem<'_>,
    fixed: &HashSet<ChannelId>,
    cuts: &BTreeSet<Cut>,
) -> Result<BuiltModel, PlaceError> {
    // Candidate variables: channels referenced by any constraint.
    let mut candidates: BTreeSet<ChannelId> = fixed.iter().copied().collect();
    for cut in cuts {
        candidates.extend(cut.channels.iter().copied());
    }
    for k in p.cfdfcs {
        candidates.extend(k.channels.iter().copied());
    }

    let mut model = Model::new(Sense::Maximize);
    model.set_node_limit(10_000);
    model.set_gap(1e-4);
    // A pivot budget rather than a wall-clock limit: truncated solves
    // must return the same incumbent on every run (see the determinism
    // tests). 30k pivots is roughly a second of release-mode work on
    // the largest kernel models and plenty for the small ones.
    model.set_work_limit(30_000);
    // Node LPs in parallel: branch-and-bound results are bit-identical at
    // any thread count, so this is purely a throughput knob (capped — the
    // bench runner may already be running kernels in parallel).
    model.set_jobs(milp_jobs());
    let mut rvar: HashMap<ChannelId, VarId> = HashMap::default();
    for &c in &candidates {
        // The tiny deterministic epsilon breaks the symmetry of
        // covering constraints (otherwise equal-cost channels explode
        // the branch-and-bound tree); it is far below any real cost
        // difference and never changes which solutions are optimal in
        // the original objective beyond tie-breaking.
        let eps = 1e-5 * ((c.index() % 13) as f64) / 13.0;
        let cost = p.beta * (1.0 + p.penalties.get(&c).copied().unwrap_or(0.0)) + eps;
        let lo = if fixed.contains(&c) { 1.0 } else { 0.0 };
        let v = model.add_var(format!("R_{c}"), lo, 1.0, -cost, true);
        rvar.insert(c, v);
    }
    // Throughput variables with McCormick linearization (omitted
    // entirely in area-only mode).
    let max_freq = p
        .cfdfcs
        .iter()
        .map(|k| k.frequency)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let mut phis = Vec::new();
    let cfdfcs_used: &[Cfdfc] = if p.objective == Objective::AreaOnly {
        &[]
    } else {
        p.cfdfcs
    };
    for (ki, k) in cfdfcs_used.iter().enumerate() {
        let weight = p.alpha * (k.frequency as f64 / max_freq);
        let phi = model.add_var(format!("phi_{ki}"), 0.0, 1.0, weight, false);
        phis.push(phi);
        // L·Φ + Σ w ≤ T.
        let mut terms = vec![(phi, k.latency as f64)];
        for &c in &k.channels {
            let r = rvar[&c];
            let w = model.add_var(format!("w_{ki}_{c}"), 0.0, 1.0, 0.0, false);
            // w ≤ Φ ; w ≤ R ; w ≥ Φ + R − 1.
            model.add_constraint(vec![(w, 1.0), (phi, -1.0)], Cmp::Le, 0.0);
            model.add_constraint(vec![(w, 1.0), (r, -1.0)], Cmp::Le, 0.0);
            model.add_constraint(vec![(w, -1.0), (phi, 1.0), (r, 1.0)], Cmp::Le, 1.0);
            terms.push((w, 1.0));
        }
        model.add_constraint(terms, Cmp::Le, k.tokens as f64);
    }
    // Covering cuts.
    for cut in cuts {
        let terms: Vec<(VarId, f64)> = cut.channels.iter().map(|c| (rvar[c], 1.0)).collect();
        if terms.is_empty() {
            return Err(PlaceError::UnbreakableCycle);
        }
        let need = (cut.need as usize).min(terms.len()) as f64;
        model.add_constraint(terms, Cmp::Ge, need);
    }
    Ok(BuiltModel {
        model,
        rvar,
        phis,
        candidates,
    })
}

/// Worker threads for branch-and-bound node LPs. Capped low: the bench
/// runner parallelizes across kernels already, and determinism means this
/// can never change a result — only how fast it arrives.
fn milp_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Builds the seed placement MILP — the model the first cut round solves
/// (correctness cuts + fixed-state clock-period cuts), *without*
/// canonicalization or the lazy cut loop. Public for the engine-equivalence
/// tests (`tests/milp_equivalence.rs`), which need the real Eq. 3 models
/// rather than synthetic LPs.
///
/// # Errors
///
/// [`PlaceError::UnbreakableCycle`] if a seed cut has no breakable channel.
pub fn build_placement_model(p: &PlacementProblem<'_>) -> Result<Model, PlaceError> {
    let fixed: HashSet<ChannelId> = p.fixed.iter().copied().collect();
    let cuts = seed_cuts(p, &fixed);
    Ok(build_model(p, &fixed, &cuts)?.model)
}

/// Solves the buffer-placement problem.
///
/// # Errors
///
/// [`PlaceError::Solve`] if the MILP is infeasible or unbounded (indicates
/// inconsistent fixed buffers) and [`PlaceError::UnbreakableCycle`] if a
/// ring cannot be made sequential.
pub fn place_buffers(p: &PlacementProblem<'_>) -> Result<PlacementResult, PlaceError> {
    place_buffers_warm(p, None)
}

/// [`place_buffers`] with an optional cross-solve warm-start store.
///
/// When `store` is given, each MILP solve looks up the previous solve of
/// the same *problem* ([`warm_key`] — the iteration-stable identity of the
/// kernel, not the churning model shape), remaps its root basis and
/// incumbent onto the current model by variable name
/// ([`milp::WarmStart::remap_to`]), and starts from them; afterwards it
/// records its own. The Fig.-4 loop passes one store across all
/// iterations, so iteration *i+1*'s placement solve warm-starts from
/// iteration *i*'s (and lazy cut rounds within one call warm-start from
/// each other). Warm starts are revalidated by the solver and never
/// change the returned placement — only the work spent finding it.
///
/// # Errors
///
/// Same as [`place_buffers`].
/// Key for the cross-iteration warm-start store: an FNV-1a fingerprint of
/// the *iteration-stable* identity of the placement problem. The Fig.-4
/// loop re-solves the same kernel with drifting penalties, fixed sets,
/// and cut channels — all of which change the model's variable set — so
/// a key over the model's shape (sense, variable names, integrality)
/// would forfeit nearly every cross-iteration warm start. This key instead hashes what does not
/// drift: the objective kind, the level target, the objective weights,
/// the graph size, and the CFDFC channel structure. A stale entry under
/// this looser key is harmless: the stored basis and incumbent are
/// remapped by variable name and then revalidated by the solver, so the
/// worst case is one wasted refactorization.
fn warm_key(p: &PlacementProblem<'_>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(match p.objective {
        Objective::ThroughputAndArea => 1,
        Objective::AreaOnly => 2,
    });
    eat(p.target_levels as u64);
    eat(p.alpha.to_bits());
    eat(p.beta.to_bits());
    eat(p.graph.num_channels() as u64);
    eat(p.cfdfcs.len() as u64);
    for k in p.cfdfcs {
        eat(k.channels.len() as u64);
        for &c in &k.channels {
            eat(c.index() as u64);
        }
    }
    h
}

pub fn place_buffers_warm(
    p: &PlacementProblem<'_>,
    store: Option<&milp::MilpWarmStore>,
) -> Result<PlacementResult, PlaceError> {
    let fixed: HashSet<ChannelId> = p.fixed.iter().copied().collect();
    let mut cuts = seed_cuts(p, &fixed);

    let mut rounds = 0usize;
    let mut unbreakable: Vec<u32> = Vec::new();
    // Warm state carried across lazy cut rounds: round *i+1* solves the
    // same model plus a few covering rows, so round *i*'s basis and
    // incumbent are a near-perfect start (the solver revalidates both).
    let mut last_warm: Option<milp::WarmStart> = None;
    let mut milp_pivots = 0u64;
    let mut milp_refactors = 0u64;
    let mut milp_nodes = 0u64;
    let mut milp_rows_dropped = 0u64;
    let mut milp_cuts = 0u64;
    let mut milp_cut_rounds = 0u64;
    let mut milp_nodes_pruned = 0u64;
    let mut milp_bounds_tightened = 0u64;
    let mut milp_warm_hits = 0u64;
    let mut milp_warm_misses = 0u64;
    let mut milp_truncated = 0u64;
    let mut milp_lp_fallbacks = 0u64;
    // The key depends only on the iteration-stable problem identity, not
    // the per-round model, so it is computed once.
    let key = store.map(|s| (s, warm_key(p)));
    loop {
        let BuiltModel {
            mut model,
            rvar,
            phis,
            candidates,
        } = build_model(p, &fixed, &cuts)?;
        // Presolve: cut rounds re-derive overlapping covering cuts and
        // fixed channels (lo = 1) satisfy covering rows outright, so the
        // model shrinks measurably before the solver sees it.
        let reduction = model.canonicalize();
        milp_rows_dropped += reduction.dropped() as u64;

        // Exact solve with a bounded tree (warm-started from the store when
        // a previous solve of the same shape exists); on exhaustion fall
        // back to rounding the LP relaxation up (covering constraints are
        // upward-closed, so rounding up preserves feasibility).
        // An entry from a previous call (earlier iteration of the flow)
        // wins over the intra-call round state: it already reflects a
        // full solve of this very problem. Either way the warm start is
        // remapped onto the current model's variable space — candidate
        // churn between iterations (and cut rounds) shifts columns.
        let stored = key.as_ref().and_then(|(s, k)| s.get(*k));
        let from_store = stored.is_some();
        let warm = stored
            .or_else(|| last_warm.take())
            .map(|w| w.remap_to(&model));
        let sol = match model.solve_warm(warm.as_ref()) {
            Ok(s) => {
                milp_truncated += s.truncated as u64;
                s
            }
            Err(SolveError::NodeLimit) => {
                milp_lp_fallbacks += 1;
                model.solve_relaxation()?
            }
            Err(e) => return Err(e.into()),
        };
        let entry = milp::WarmStart {
            basis: sol.root_basis.clone(),
            incumbent: Some(sol.values.clone()),
            var_names: Some(model.var_names()),
        };
        if let Some((s, k)) = &key {
            s.put(*k, entry.clone());
        }
        last_warm = Some(entry);
        milp_pivots += sol.pivots;
        milp_refactors += sol.refactors;
        milp_nodes += sol.nodes;
        milp_cuts += sol.cuts;
        milp_cut_rounds += sol.cut_rounds;
        milp_nodes_pruned += sol.nodes_pruned;
        milp_bounds_tightened += sol.presolve.bounds_tightened as u64;
        // Only cross-call *store* adoptions count as warm hits; the
        // intra-call round-to-round warm state above is unconditional and
        // would drown the signal the counter exists to expose.
        milp_warm_hits += (from_store && sol.warm_used) as u64;
        milp_warm_misses += (key.is_some() && !(from_store && sol.warm_used)) as u64;
        let placed: HashSet<ChannelId> = candidates
            .iter()
            .copied()
            .filter(|c| sol.value(rvar[c]) > 1e-6)
            .collect();

        // Lazy clock-period cuts from the timing model.
        unbreakable.clear();
        let is_broken = |c: ChannelId| placed.contains(&c) || fixed.contains(&c);
        let new_cuts: Vec<Cut> = match p.timing.critical_paths(p.target_levels, is_broken, 48) {
            Ok(paths) => {
                let mut v = Vec::new();
                for path in &paths {
                    for cut in window_cuts(path, p.target_levels, &mut unbreakable) {
                        if !cuts.contains(&cut) {
                            v.push(cut);
                        }
                    }
                }
                v
            }
            Err(cycle_channels) => {
                if cycle_channels.is_empty() {
                    return Err(PlaceError::UnbreakableCycle);
                }
                vec![Cut {
                    channels: cycle_channels.into_iter().collect(),
                    need: 1,
                }]
            }
        };

        if new_cuts.is_empty() || rounds >= p.max_cut_rounds {
            let mut buffers: Vec<ChannelId> = placed.into_iter().collect();
            for &c in &fixed {
                if !buffers.contains(&c) {
                    buffers.push(c);
                }
            }
            buffers.sort();
            let throughputs = phis.iter().map(|&v| sol.value(v)).collect();
            return Ok(PlacementResult {
                buffers,
                throughputs,
                cut_rounds: rounds,
                unbreakable_levels: unbreakable,
                objective: sol.objective,
                milp_pivots,
                milp_refactors,
                milp_nodes,
                milp_rows_dropped,
                milp_cuts,
                milp_cut_rounds,
                milp_nodes_pruned,
                milp_bounds_tightened,
                milp_warm_hits,
                milp_warm_misses,
                milp_solves: rounds as u64 + 1,
                milp_truncated,
                milp_lp_fallbacks,
            });
        }
        cuts.extend(new_cuts);
        rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lutdfg::map_lut_edges;
    use crate::penalty::compute_penalties;
    use crate::synth::synthesize;
    use crate::timing::TimingGraph;
    use dataflow::BufferSpec;
    use hls::kernels;

    fn solve_kernel(name: &str, target: u32) -> (dataflow::Graph, PlacementResult) {
        let k = match name {
            "gsum" => kernels::gsum(16),
            "gsumif" => kernels::gsumif(16),
            other => panic!("unknown kernel {other}"),
        };
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        let timing = TimingGraph::build(&g, &synth, &map);
        let penalties = compute_penalties(&g, &timing);
        let cfdfcs = crate::cfdfc::extract_cfdfcs(k.graph(), k.back_edges(), 8, 100_000);
        let problem = PlacementProblem {
            graph: k.graph(),
            timing: &timing,
            penalties: &penalties,
            cfdfcs: &cfdfcs,
            target_levels: target,
            fixed: k.back_edges(),
            alpha: 1.0,
            beta: 0.01,
            max_cut_rounds: 16,
            objective: Default::default(),
        };
        let r = place_buffers(&problem).unwrap();
        (g, r)
    }

    #[test]
    fn placement_keeps_fixed_buffers() {
        let k = kernels::gsum(16);
        let (_, r) = solve_kernel("gsum", 6);
        for be in k.back_edges() {
            assert!(r.buffers.contains(be), "fixed {be} dropped");
        }
    }

    #[test]
    fn placement_meets_the_level_budget_in_the_model() {
        let k = kernels::gsum(16);
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        let timing = TimingGraph::build(&g, &synth, &map);
        let penalties = compute_penalties(&g, &timing);
        let cfdfcs = crate::cfdfc::extract_cfdfcs(k.graph(), k.back_edges(), 8, 100_000);
        let problem = PlacementProblem {
            graph: k.graph(),
            timing: &timing,
            penalties: &penalties,
            cfdfcs: &cfdfcs,
            target_levels: 6,
            fixed: k.back_edges(),
            alpha: 1.0,
            beta: 0.01,
            max_cut_rounds: 16,
            objective: Default::default(),
        };
        let r = place_buffers(&problem).unwrap();
        let broken = |c: dataflow::ChannelId| r.buffers.contains(&c);
        let depth = timing.depth(broken).unwrap();
        assert!(
            depth <= 6 || !r.unbreakable_levels.is_empty(),
            "model depth {depth} over budget with no unbreakable excuse"
        );
    }

    #[test]
    fn tighter_targets_place_more_buffers() {
        let (_, loose) = solve_kernel("gsumif", 8);
        let (_, tight) = solve_kernel("gsumif", 4);
        assert!(
            tight.buffers.len() >= loose.buffers.len(),
            "target 4 placed {} < target 8 placed {}",
            tight.buffers.len(),
            loose.buffers.len()
        );
    }

    #[test]
    fn area_only_mode_places_no_more_buffers() {
        let k = kernels::gsum(16);
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(k.graph(), &synth);
        let timing = TimingGraph::build(k.graph(), &synth, &map);
        let penalties = compute_penalties(k.graph(), &timing);
        let cfdfcs = crate::cfdfc::extract_cfdfcs(k.graph(), k.back_edges(), 8, 100_000);
        let solve = |objective| {
            let problem = PlacementProblem {
                graph: k.graph(),
                timing: &timing,
                penalties: &penalties,
                cfdfcs: &cfdfcs,
                target_levels: 6,
                fixed: k.back_edges(),
                alpha: 1.0,
                beta: 0.01,
                max_cut_rounds: 16,
                objective,
            };
            place_buffers(&problem).unwrap().buffers.len()
        };
        let both = solve(Objective::ThroughputAndArea);
        let area = solve(Objective::AreaOnly);
        assert!(area <= both, "area-only {area} > combined {both}");
    }

    #[test]
    fn placement_models_shrink_under_canonicalization() {
        // The real Eq. 3 model carries covering rows already satisfied by
        // the fixed back-edge buffers (lo = 1), so canonicalization must
        // remove rows — the presolve is not a no-op on our own models.
        let k = kernels::gsum(16);
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        let timing = TimingGraph::build(&g, &synth, &map);
        let penalties = compute_penalties(&g, &timing);
        let cfdfcs = crate::cfdfc::extract_cfdfcs(k.graph(), k.back_edges(), 8, 100_000);
        let problem = PlacementProblem {
            graph: k.graph(),
            timing: &timing,
            penalties: &penalties,
            cfdfcs: &cfdfcs,
            target_levels: 6,
            fixed: k.back_edges(),
            alpha: 1.0,
            beta: 0.01,
            max_cut_rounds: 16,
            objective: Default::default(),
        };
        let mut model = build_placement_model(&problem).unwrap();
        let before = model.num_constraints();
        let red = model.canonicalize();
        assert_eq!(red.original, before);
        assert!(
            red.dropped() > 0,
            "expected the gsum placement model to shrink, got {red:?}"
        );
        assert!(red.remaining < before);
        // And the reduced model must still solve.
        assert!(model.solve().is_ok());
    }

    #[test]
    fn placement_reports_milp_counters() {
        let (_, r) = solve_kernel("gsum", 6);
        assert!(r.milp_pivots > 0, "no pivots recorded");
        assert!(r.milp_nodes > 0, "no nodes recorded");
    }

    #[test]
    fn throughput_predictions_are_sane() {
        let (_, r) = solve_kernel("gsum", 6);
        for &phi in &r.throughputs {
            assert!((0.0..=1.0 + 1e-6).contains(&phi));
        }
    }

    #[test]
    fn placed_circuit_still_simulates_correctly() {
        let k = kernels::gsum(16);
        let (_, r) = solve_kernel("gsum", 6);
        let mut g = k.graph().clone();
        for &c in &r.buffers {
            g.set_buffer(c, BufferSpec::FULL);
        }
        let mut s = sim::Simulator::new(&g).unwrap();
        let stats = s.run(k.max_cycles).unwrap();
        assert_eq!(stats.exit_value, k.expected_exit);
    }
}
