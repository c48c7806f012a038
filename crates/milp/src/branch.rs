//! Deterministic, optionally parallel best-first branch & bound over the
//! integer variables.
//!
//! The root LP is solved first (optionally warm-started from a previous
//! solve via [`crate::warm::WarmStart`]), then strengthened by a
//! round-limited loop of Gomory mixed-integer cuts ([`crate::cuts`]), each
//! round re-solved from the previous round's basis (the appended cut row
//! extends the system strictly at the end, so the basis carries over with
//! one warm phase-1 step). Branch & bound then runs on the cut-augmented
//! model.
//!
//! # Best-first search
//!
//! Open nodes live in a priority queue ordered by the parent's LP bound
//! (best bound first — the order that minimizes proven-optimality work),
//! with two deterministic tie-breaks: deeper nodes first (dive toward
//! incumbents), then ascending creation sequence number. Entries whose
//! parent bound can no longer beat the incumbent are discarded at pop
//! time without solving their LP (counted in
//! [`Solution::nodes_pruned`](crate::Solution)); a bound inherited from a
//! *truncated* parent LP is marked invalid and never used to prune.
//!
//! # Parallelism without nondeterminism
//!
//! Up to [`PARALLEL_BATCH`] entries are popped per wave, their LPs solved
//! concurrently on a `std::thread::scope` pool
//! ([`Model::set_jobs`](crate::Model::set_jobs)), and the results folded
//! back **sequentially in pop order** — incumbent updates, pruning,
//! budget checks, and child pushes all run on one thread in a fixed
//! order. Wave composition is decided by the queue order alone (never the
//! thread count) and each LP solve is a pure function of
//! `(model, bounds, warm basis)`, so the returned solution and every
//! counter are bit-identical for any `jobs` value.
//!
//! # Truncation honesty
//!
//! A truncated LP objective understates the node's true bound, so it is
//! never used to prune — neither at the node itself nor, via
//! `bound_valid`, for any child popped later. Truncated solves always
//! surface as [`Status::Feasible`] + `truncated = true`, or
//! [`SolveError::NodeLimit`] when no incumbent exists.

use crate::model::{Cmp, Engine, Model, Sense, Solution, SolveError, Status};
use crate::simplex::{
    solve_lp_in, solve_lp_warm, solve_lp_warm_gmi, BoundOverrides, LpSolution, StdForm, WarmBasis,
    MAX_SIMPLEX_ITERS,
};
use crate::warm::WarmStart;
use std::cell::OnceCell;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const INT_TOL: f64 = 1e-6;

/// Entries popped (and LP-solved) per wave. A constant — independent of
/// [`Model::set_jobs`](crate::Model::set_jobs) — so the explored tree
/// never depends on the thread count.
const PARALLEL_BATCH: usize = 8;

/// Feasibility slack when replaying a warm-start incumbent against the
/// model's rows and bounds.
const SEED_TOL: f64 = 1e-6;

/// Remaining-pivot floor below which budgeted LP work counts as exhausted:
/// a solve granted fewer iterations than this cannot finish phase 1 on any
/// nontrivial model and would only churn out truncations.
const MIN_LP_BUDGET: u64 = 64;

/// Pivot-equivalent charge added to the work meter for every LP solve, on
/// top of the pivots the solve actually took: a deterministic budget unit
/// for the per-solve fixed cost the pivot count alone cannot see. When it
/// was set, that cost was a standard-form prepare and a CSC rebuild per
/// solve plus the refactorization that validates an adopted warm basis;
/// node LPs now bind the tree's standard form instead, so the charge
/// overstates today's setup, but it stays 32: every truncated incumbent
/// (Prev's placement MILPs stop at their work limit) depends on it.
/// Without it a dual warm re-solve that finishes in a handful of pivots
/// looks nearly free to the budget and stagnation valves, and a finite
/// work limit quietly buys ~50x more nodes than it did when every node
/// paid the cold phase-1/2 price.
const LP_SOLVE_OVERHEAD: u64 = 32;

/// Per-LP iteration budget: the work limit's unspent remainder (the whole
/// limit at the root), capped by the hard per-phase valve. Without this,
/// a single degenerate node LP could legally burn [`MAX_SIMPLEX_ITERS`]
/// pivots — minutes of wall clock — before the between-nodes budget check
/// ever saw the overrun.
fn lp_budget(limit: Option<u64>, spent: u64) -> u64 {
    match limit {
        Some(l) => l.saturating_sub(spent).min(MAX_SIMPLEX_ITERS),
        None => MAX_SIMPLEX_ITERS,
    }
}

/// A subproblem awaiting its LP solve.
struct Node {
    ov: BoundOverrides,
    /// Final basis of the parent node's LP (sparse engine only).
    warm: Option<WarmBasis>,
}

/// An open node in the best-first queue.
struct Entry {
    /// Parent LP bound in internal maximize space (root: `+∞`).
    bound: f64,
    /// The parent LP was not truncated, so `bound` is a sound dual bound
    /// and may prune this entry; a truncated parent forbids that.
    bound_valid: bool,
    depth: usize,
    /// Creation sequence number: the final, fully deterministic tie-break
    /// (and the preference order between siblings — the child rounding
    /// toward the LP value gets the lower number).
    seq: u64,
    node: Node,
}

impl Entry {
    /// Max-heap priority: higher bound, then deeper, then lower seq.
    fn cmp_key(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then(self.depth.cmp(&other.depth))
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_key(other)
    }
}

/// Solves one node LP: in the tree's standard form `form` on the sparse
/// engine, through the dense oracle when `form` is `None`.
fn solve_node(
    model: &Model,
    form: Option<&StdForm>,
    node: &Node,
    budget: u64,
) -> Result<LpSolution, SolveError> {
    match form {
        Some(form) => solve_lp_in(form, model, &node.ov, budget, node.warm.as_ref()),
        None => crate::dense::solve_lp_dense(model, &node.ov),
    }
}

/// Solves one wave of node LPs, in `wave` order, on up to `jobs` threads
/// that share the tree's `form` read-only. Every node in the wave gets the
/// same `budget` — computed once from the sequential fold state before the
/// wave launches, so the results stay a pure function of the queue order,
/// never of the thread count.
///
/// This is the one worker pool outside `dataflow::par`, whose contract
/// (results in item order) it repeats: `frequenz-milp` depends on no
/// other crate, and a new edge in the crate graph would rewrite the
/// repository benchmark's pinned `perfbench/Cargo.lock`.
fn solve_wave(
    model: &Model,
    form: Option<&StdForm>,
    wave: &[Entry],
    jobs: usize,
    budget: u64,
) -> Vec<Result<LpSolution, SolveError>> {
    let jobs = jobs.clamp(1, wave.len().max(1));
    if jobs <= 1 || wave.len() <= 1 {
        return wave
            .iter()
            .map(|e| solve_node(model, form, &e.node, budget))
            .collect();
    }
    let slots: Vec<Mutex<Option<Result<LpSolution, SolveError>>>> =
        wave.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= wave.len() {
                    break;
                }
                let r = solve_node(model, form, &wave[i].node, budget);
                *slots[i].lock().expect("wave slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("wave slot poisoned")
                .expect("wave slot unfilled")
        })
        .collect()
}

/// Replays a warm-start incumbent against `model`: integer values snapped,
/// bounds and every row checked within [`SEED_TOL`], objective recomputed
/// deterministically. Returns `None` (seed silently dropped) on any
/// violation — a seed can speed the search up but never steer it wrong.
fn validate_seed(model: &Model, seed: &[f64]) -> Option<Solution> {
    if seed.len() != model.vars.len() {
        return None;
    }
    let mut values = seed.to_vec();
    for (v, def) in model.vars.iter().enumerate() {
        let mut x = values[v];
        if def.integer {
            let r = x.round();
            if (x - r).abs() > SEED_TOL {
                return None;
            }
            x = r;
            if x < def.lo - SEED_TOL || x > def.hi + SEED_TOL {
                return None;
            }
        } else {
            if x < def.lo - SEED_TOL || x > def.hi + SEED_TOL {
                return None;
            }
            x = x.clamp(def.lo, def.hi);
        }
        values[v] = x;
    }
    for c in &model.constraints {
        let act: f64 = c.terms.iter().map(|&(v, a)| a * values[v.index()]).sum();
        let ok = match c.op {
            Cmp::Le => act <= c.rhs + SEED_TOL,
            Cmp::Ge => act >= c.rhs - SEED_TOL,
            Cmp::Eq => (act - c.rhs).abs() <= SEED_TOL,
        };
        if !ok {
            return None;
        }
    }
    let objective: f64 = model
        .vars
        .iter()
        .zip(&values)
        .map(|(d, &x)| d.obj * x)
        .sum();
    Some(Solution::new(values, objective, Status::Optimal))
}

/// Deterministic repair of a stale warm-start incumbent: clamp every
/// variable into its (possibly tightened) bounds, then raise integers —
/// in term order — inside violated *covering-style* rows (`≥` over
/// positive integer terms, which are upward-closed: raising a variable
/// never breaks another such row). The result is only a candidate; it goes
/// through full [`validate_seed`] before it may seed anything, so repair
/// can fail but never mislead.
fn repair_seed(model: &Model, seed: &[f64]) -> Option<Vec<f64>> {
    if seed.len() != model.vars.len() {
        return None;
    }
    let mut v = seed.to_vec();
    for (i, def) in model.vars.iter().enumerate() {
        let mut x = v[i];
        if def.integer {
            x = x.round();
        }
        x = x.clamp(def.lo, def.hi);
        if def.integer {
            // Bounds are integral after presolve; re-round guards drift.
            x = x.round();
        }
        v[i] = x;
    }
    for c in &model.constraints {
        if c.op != Cmp::Ge {
            continue;
        }
        let coverish = c.terms.iter().all(|&(vid, a)| {
            let d = &model.vars[vid.index()];
            a > 0.0 && d.integer && d.hi.is_finite()
        });
        if !coverish {
            continue;
        }
        let mut act: f64 = c.terms.iter().map(|&(vid, a)| a * v[vid.index()]).sum();
        if act >= c.rhs - SEED_TOL {
            continue;
        }
        for &(vid, a) in &c.terms {
            let idx = vid.index();
            let hi = model.vars[idx].hi;
            if v[idx] < hi {
                act += a * (hi - v[idx]);
                v[idx] = hi;
                if act >= c.rhs - SEED_TOL {
                    break;
                }
            }
        }
    }
    Some(v)
}

/// The sequential fold state of the search.
struct Search<'m> {
    model: &'m Model,
    maximize: bool,
    gap: f64,
    incumbent: Option<Solution>,
    nodes: u64,
    /// Budget meter: pivots actually taken plus [`LP_SOLVE_OVERHEAD`] per
    /// LP solve. Drives `lp_budget`, the wave cutoff, and the stagnation
    /// valve; the reported pivot count is `pivots`.
    work: u64,
    /// True simplex pivots (primal + dual) across every LP solve.
    pivots: u64,
    dual_pivots: u64,
    refactors: u64,
    nodes_pruned: u64,
    hit_limit: bool,
    /// `work` at the last incumbent improvement — drives the stagnation
    /// stop under a finite work budget.
    last_gain: u64,
    seq: u64,
    heap: BinaryHeap<Entry>,
}

impl<'m> Search<'m> {
    /// `a` beats `b` by more than the optimality gap.
    fn better(&self, a: f64, b: f64) -> bool {
        if self.maximize {
            a > b + self.gap
        } else {
            a < b - self.gap
        }
    }

    /// Objective in internal maximize space.
    fn internal(&self, obj: f64) -> f64 {
        if self.maximize {
            obj
        } else {
            -obj
        }
    }

    /// Bills one LP solve: its pivots plus [`LP_SOLVE_OVERHEAD`] to the
    /// work meter, and its pivots, dual pivots and refactorizations to the
    /// reported counters.
    fn charge(&mut self, lp: &LpSolution) {
        self.work += lp.pivots + LP_SOLVE_OVERHEAD;
        self.pivots += lp.pivots;
        self.dual_pivots += lp.dual_pivots;
        self.refactors += lp.refactors;
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Folds one solved node LP into the search: prune / take incumbent /
    /// branch. Runs strictly sequentially, in pop order.
    fn process(&mut self, node: Node, depth: usize, lp: LpSolution) {
        if lp.truncated {
            // The LP valve fired: `lp.objective` understates the node's
            // true bound, so pruning with it could discard the optimum.
            // Record the truncation and fall through without pruning.
            self.hit_limit = true;
        } else if let Some(inc) = &self.incumbent {
            // Bound pruning (sound only against a proven LP bound).
            if !self.better(lp.objective, inc.objective) {
                return;
            }
        }
        // Find the most fractional integer variable.
        let mut branch_var: Option<(usize, f64)> = None;
        let mut best_frac = INT_TOL;
        for (v, def) in self.model.vars.iter().enumerate() {
            if def.integer {
                let x = lp.values[v];
                let frac = (x - x.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some((v, x));
                }
            }
        }
        match branch_var {
            None => {
                // Integral: candidate incumbent (snap near-integers).
                let mut values = lp.values.clone();
                for (v, def) in self.model.vars.iter().enumerate() {
                    if def.integer {
                        values[v] = values[v].round();
                    }
                }
                let candidate = Solution::new(values, lp.objective, Status::Optimal);
                let replace = self
                    .incumbent
                    .as_ref()
                    .map(|inc| self.better(candidate.objective, inc.objective))
                    .unwrap_or(true);
                if replace {
                    self.incumbent = Some(candidate);
                    self.last_gain = self.work;
                }
            }
            Some((v, x)) => {
                let floor = x.floor();
                let bound = self.internal(lp.objective);
                let bound_valid = !lp.truncated;
                let mut down_ov = node.ov.clone();
                down_ov.entries.push((v, f64::NEG_INFINITY, floor));
                let mut up_ov = node.ov;
                up_ov.entries.push((v, floor + 1.0, f64::INFINITY));
                // Both children re-solve from the parent's final basis:
                // the parent vertex stays dual-feasible when one variable
                // bound tightens, so the sparse engine walks to the child
                // optimum with a short dual simplex run instead of a cold
                // phase 1/2.
                let child_warm = lp.basis;
                let down = Node {
                    ov: down_ov,
                    warm: child_warm.clone(),
                };
                let up = Node {
                    ov: up_ov,
                    warm: child_warm,
                };
                // The child rounding toward the LP value gets the lower
                // sequence number, so on tied bounds it pops first.
                let (first, second) = if x - floor > 0.5 {
                    (up, down)
                } else {
                    (down, up)
                };
                for child in [first, second] {
                    let seq = self.next_seq();
                    self.heap.push(Entry {
                        bound,
                        bound_valid,
                        depth: depth + 1,
                        seq,
                        node: child,
                    });
                }
            }
        }
    }
}

pub(crate) fn branch_and_bound(
    model: &Model,
    warm: Option<&WarmStart>,
) -> Result<Solution, SolveError> {
    let mut search = Search {
        model,
        maximize: model.sense == Sense::Maximize,
        gap: model.gap.max(1e-9),
        incumbent: None,
        nodes: 0,
        work: 0,
        pivots: 0,
        dual_pivots: 0,
        refactors: 0,
        nodes_pruned: 0,
        hit_limit: false,
        last_gain: 0,
        seq: 0,
        heap: BinaryHeap::new(),
    };

    // Seed the incumbent from the warm start if it replays cleanly —
    // as-is, or after the deterministic covering-row repair.
    let mut seeded = false;
    if let Some(seed) = warm.and_then(|w| w.incumbent.as_deref()) {
        search.incumbent = validate_seed(model, seed)
            .or_else(|| repair_seed(model, seed).and_then(|r| validate_seed(model, &r)));
        seeded = search.incumbent.is_some();
    }

    // --- Root LP (optionally warm-started) + cut loop ---------------------
    let root_ov = BoundOverrides::default();
    let warm_basis = warm.and_then(|w| w.basis.as_ref());
    let want_cuts = model.engine == Engine::SparseRevised && model.cut_rounds > 0;

    search.nodes += 1;
    if search.nodes > model.node_limit {
        return match search.incumbent {
            // A seeded incumbent with a zero node budget is still feasible.
            Some(mut sol) => {
                sol.status = Status::Feasible;
                sol.truncated = true;
                Ok(sol)
            }
            None => Err(SolveError::NodeLimit),
        };
    }

    let (mut root_lp, mut pending_gmi) = match model.engine {
        Engine::SparseRevised => {
            let budget = lp_budget(model.work_limit, 0);
            match solve_lp_warm_gmi(model, &root_ov, budget, warm_basis, want_cuts) {
                Ok(r) => r,
                // Root phase 1 ran out of budget, but a seeded incumbent is
                // still a proven feasible point — return it truncated
                // rather than throwing it away.
                Err(SolveError::NodeLimit) if search.incumbent.is_some() => {
                    let mut sol = search.incumbent.expect("checked above");
                    sol.status = Status::Feasible;
                    sol.truncated = true;
                    sol.nodes = search.nodes;
                    sol.warm_used = true;
                    return Ok(sol);
                }
                Err(e) => return Err(e),
            }
        }
        Engine::DenseTableau => (crate::dense::solve_lp_dense(model, &root_ov)?, Vec::new()),
    };
    let warm_used = root_lp.warmed || seeded;
    search.charge(&root_lp);
    // Export the *pre-cut* root basis: it indexes the base model's rows, so
    // the next structurally identical solve (which starts cut-free) can
    // adopt it. A post-cut basis would reference appended rows the next
    // model does not have yet.
    let root_basis = root_lp.basis.clone();

    // Cut rounds: separate at the root optimum, append, re-solve from the
    // previous basis. Each round either adds cuts or ends the loop; a
    // round whose re-solve fails is rolled back (the previous root LP is
    // still valid for the un-extended model), keeping cutting strictly
    // fail-safe.
    let mut work_model = model.clone();
    let mut cuts_added = 0u64;
    let mut cut_rounds = 0u64;
    // Cutting shares the deterministic pivot budget with the search but may
    // spend at most a quarter of it: cut re-solves strengthen the bound,
    // branching closes it, and a cut loop that starves the tree is a net
    // loss. Unlimited budget → unlimited cutting, as before.
    let cut_work_cap = model.work_limit.map(|l| l / 4).unwrap_or(u64::MAX);
    if want_cuts && !root_lp.truncated {
        while (cut_rounds as usize) < model.cut_rounds && search.work <= cut_work_cap {
            let fractional = model.vars.iter().enumerate().any(|(v, d)| {
                d.integer && (root_lp.values[v] - root_lp.values[v].round()).abs() > INT_TOL
            });
            if !fractional {
                break;
            }
            let batch = crate::cuts::dedup_cuts(std::mem::take(&mut pending_gmi), &work_model);
            if batch.is_empty() {
                break;
            }
            // Quality gate: keep only the round budget of deepest,
            // mutually diverse cuts instead of appending everything the
            // separator produced — the next round can re-separate a
            // better variant of a rejected cut from the moved root point
            // if one exists.
            let batch = crate::cuts::select_cuts(batch, &root_lp.values, work_model.vars.len());
            if batch.is_empty() {
                break;
            }
            let len_before = work_model.constraints.len();
            let n_new = batch.len() as u64;
            work_model.constraints.extend(batch);
            let another_round = (cut_rounds as usize) + 1 < model.cut_rounds;
            let budget = if model.work_limit.is_some() {
                cut_work_cap.saturating_sub(search.work).max(1)
            } else {
                MAX_SIMPLEX_ITERS
            };
            match solve_lp_warm_gmi(
                &work_model,
                &root_ov,
                budget,
                root_lp.basis.as_ref(),
                another_round,
            ) {
                Ok((lp, gmi)) if !lp.truncated => {
                    search.charge(&lp);
                    cuts_added += n_new;
                    cut_rounds += 1;
                    root_lp = lp;
                    pending_gmi = gmi;
                }
                other => {
                    // Truncated or failed re-solve: drop this round's cuts
                    // and keep the last good root state.
                    if let Ok((lp, _)) = other {
                        search.charge(&lp);
                        search.hit_limit = true;
                    }
                    work_model.constraints.truncate(len_before);
                    break;
                }
            }
        }
    }
    // Purge slack cuts before branching: a cut row the root optimum does
    // not even touch rarely prunes anything below the root, but it taxes
    // every FTRAN/BTRAN of every node LP in the tree. Keep the binding
    // ones, re-solve once from the pre-cut basis, and on any hiccup keep
    // the full set (fail-safe, like the rounds themselves).
    if cuts_added > 0 {
        let base_rows = model.constraints.len();
        let tol = 1e-7;
        let kept: Vec<_> = work_model.constraints[base_rows..]
            .iter()
            .filter(|c| {
                let act: f64 = c
                    .terms
                    .iter()
                    .map(|&(v, a)| a * root_lp.values[v.index()])
                    .sum();
                match c.op {
                    Cmp::Le => act >= c.rhs - tol,
                    Cmp::Ge => act <= c.rhs + tol,
                    Cmp::Eq => true,
                }
            })
            .cloned()
            .collect();
        let n_kept = kept.len() as u64;
        if n_kept < cuts_added {
            let mut purged = model.clone();
            purged.constraints.extend(kept);
            let budget = lp_budget(model.work_limit, search.work);
            if budget >= MIN_LP_BUDGET {
                if let Ok(lp) = solve_lp_warm(&purged, &root_ov, budget, root_basis.as_ref()) {
                    search.charge(&lp);
                    if !lp.truncated {
                        work_model = purged;
                        root_lp = lp;
                        cuts_added = n_kept;
                    }
                }
            }
        }
    }

    // The tree's standard form, built at its first node or dive LP: most
    // placement trees close at the root and never need one.
    let tree_form = OnceCell::new();
    let form = || {
        (model.engine == Engine::SparseRevised).then(|| {
            tree_form.get_or_init(|| {
                let hi: Vec<f64> = work_model.vars.iter().map(|v| v.hi).collect();
                StdForm::new(&work_model, &hi)
            })
        })
    };

    // Best-first exploration opens nodes by bound, so on models with a
    // weak relaxation it can exhaust a tight work budget before reaching
    // any integer leaf. Guard against that by seeding the incumbent from
    // the (cut-tightened) root optimum itself: round, covering-repair,
    // and revalidate — a feasible start the tree then only improves on.
    if search.incumbent.is_none() {
        search.incumbent =
            repair_seed(model, &root_lp.values).and_then(|r| validate_seed(model, &r));
    }
    // Rounding alone rarely survives rows that couple the integers to
    // continuous variables, so fall back to one diving LP: fix every
    // integer at its rounded-up root value (upward-closed direction) and
    // let the continuous variables re-adjust. A feasible dive is a true
    // incumbent — without one, a tight work budget can expire before
    // best-first search ever reaches an integer leaf.
    if search.incumbent.is_none() && model.engine == Engine::SparseRevised {
        let mut ov = BoundOverrides::default();
        for (v, def) in model.vars.iter().enumerate() {
            if def.integer {
                let x = root_lp.values[v];
                let t = if (x - x.round()).abs() <= INT_TOL {
                    x.round()
                } else {
                    x.ceil()
                };
                let t = t.clamp(def.lo, def.hi);
                ov.entries.push((v, t, t));
            }
        }
        let dive = Node {
            ov,
            warm: root_lp.basis.clone(),
        };
        let budget = lp_budget(model.work_limit, search.work);
        if budget >= MIN_LP_BUDGET {
            if let Ok(lp) = solve_node(&work_model, form(), &dive, budget) {
                search.charge(&lp);
                // Even a truncated phase 2 keeps primal feasibility, and
                // the fixed bounds force integrality — accept it.
                let mut values = lp.values.clone();
                for (v, def) in model.vars.iter().enumerate() {
                    if def.integer {
                        values[v] = values[v].round();
                    }
                }
                search.incumbent = Some(Solution::new(values, lp.objective, Status::Feasible));
                search.last_gain = search.work;
            }
        }
    }

    // --- Best-first search -------------------------------------------------
    let root_node = Node {
        ov: root_ov,
        warm: None,
    };
    search.process(root_node, 0, root_lp);

    'search: while !search.heap.is_empty() {
        if search.hit_limit && search.nodes >= model.node_limit {
            break;
        }
        // Stagnation stop (finite budgets only): when the incumbent has
        // not moved in a third of the work budget, the tree is almost
        // surely proving rather than improving — and a truncated proof is
        // worthless, so spend the remaining budget elsewhere. Honest: the
        // result is reported truncated, exactly like a budget hit.
        if let Some(limit) = model.work_limit {
            if search.incumbent.is_some()
                && search.work.saturating_sub(search.last_gain) > (limit / 3).max(MIN_LP_BUDGET)
            {
                search.hit_limit = true;
                break;
            }
        }
        // Assemble a wave: pop in queue order, discarding entries whose
        // (valid) parent bound cannot beat the incumbent.
        let mut wave: Vec<Entry> = Vec::with_capacity(PARALLEL_BATCH);
        while wave.len() < PARALLEL_BATCH {
            let Some(e) = search.heap.pop() else { break };
            if e.bound_valid {
                if let Some(inc) = &search.incumbent {
                    // Bounds live in internal (maximize) space regardless of
                    // the model's sense, so one comparison covers both.
                    let inc_internal = search.internal(inc.objective);
                    if e.bound <= inc_internal + search.gap {
                        search.nodes_pruned += 1;
                        continue;
                    }
                }
            }
            wave.push(e);
        }
        if wave.is_empty() {
            break;
        }
        // One budget per wave, fixed before it launches: deterministic in
        // the queue order, identical for every thread count.
        let wave_budget = lp_budget(model.work_limit, search.work);
        if wave_budget < MIN_LP_BUDGET {
            search.hit_limit = true;
            break;
        }
        let results = solve_wave(&work_model, form(), &wave, model.jobs, wave_budget);

        // Fold results sequentially, in pop order.
        for (entry, result) in wave.into_iter().zip(results) {
            search.nodes += 1;
            if search.nodes > model.node_limit {
                search.hit_limit = true;
                break 'search;
            }
            // Deterministic truncation: the pivot budget depends only on
            // the model, never on machine speed or load.
            if let Some(limit) = model.work_limit {
                if search.work > limit {
                    search.hit_limit = true;
                    break 'search;
                }
            }
            let lp = match result {
                Ok(s) => s,
                Err(e) if e.is_infeasible() => continue,
                // A child's feasible region is a subset of the root's, so
                // "unbounded" below the root (after the root solved fine)
                // can only be round-off — prune the node rather than
                // aborting a solve the incumbent may already have finished.
                Err(SolveError::Unbounded) if !entry.node.ov.entries.is_empty() => continue,
                // The wave budget fired inside phase 1: the node proved
                // nothing either way. Skipping it makes the overall result
                // a truncated (honest) one, exactly like a node-limit hit.
                Err(SolveError::NodeLimit) => {
                    search.hit_limit = true;
                    continue;
                }
                Err(e) => return Err(e),
            };
            search.charge(&lp);
            search.process(entry.node, entry.depth, lp);
        }
    }

    let Search {
        incumbent,
        nodes,
        pivots,
        dual_pivots,
        refactors,
        nodes_pruned,
        hit_limit,
        ..
    } = search;
    match incumbent {
        Some(mut sol) => {
            if hit_limit {
                sol.status = Status::Feasible;
                sol.truncated = true;
            } else {
                // The tree was exhausted without truncation, so the
                // incumbent is proven (gap-)optimal even when it came
                // from a heuristic seed rather than a node LP.
                sol.status = Status::Optimal;
                sol.truncated = false;
            }
            sol.nodes = nodes;
            sol.pivots = pivots;
            sol.dual_pivots = dual_pivots;
            sol.refactors = refactors;
            sol.nodes_pruned = nodes_pruned;
            sol.cuts = cuts_added;
            sol.cut_rounds = cut_rounds;
            sol.warm_used = warm_used;
            sol.root_basis = root_basis;
            Ok(sol)
        }
        None if hit_limit => Err(SolveError::NodeLimit),
        None => Err(SolveError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{Cmp, Model, Sense, Status};

    #[test]
    fn pure_lp_needs_one_node() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.nodes, 1);
        assert_eq!(sol.status, Status::Optimal);
    }

    #[test]
    fn branches_on_fractional() {
        // max x + y; 2x + 2y <= 3; binary -> optimum 1. Presolve and cuts
        // would both integralize the root, so they are disabled here: this
        // test pins the raw branching machinery.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        m.set_presolve(false);
        m.set_cut_rounds(0);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert!(sol.nodes > 1);
    }

    #[test]
    fn default_strengthening_solves_it_at_the_root() {
        // The same model with presolve + cuts on needs no branching at all
        // (coefficient reduction rewrites the row to x + y <= 1).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
        assert_eq!(sol.nodes, 1, "expected the strengthened root to close");
    }

    #[test]
    fn unbounded_root_is_reported() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", 0.0, f64::INFINITY, 1.0, false);
        assert!(matches!(
            m.solve(),
            Err(crate::model::SolveError::Unbounded)
        ));
    }

    #[test]
    fn node_limit_with_incumbent_is_flagged_truncated() {
        // The root LP is fractional; a child yields an integral incumbent,
        // then the node limit fires before the proof of optimality
        // completes — the incumbent must come back marked. Presolve/cuts
        // are off so the root actually stays fractional.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.5);
        m.set_presolve(false);
        m.set_cut_rounds(0);
        m.set_node_limit(2);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, Status::Feasible);
        assert!(sol.truncated);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn completed_search_is_not_truncated() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(!sol.truncated);
    }

    #[test]
    fn respects_node_limit_without_incumbent() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        m.set_presolve(false);
        m.set_cut_rounds(0);
        m.set_node_limit(0);
        assert!(m.solve().is_err());
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y; x integer <= 2.5 constraint; y continuous <= 0.5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 2.0, true);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.5);
        m.add_constraint(vec![(y, 2.0)], Cmp::Le, 1.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 0.5).abs() < 1e-6);
        assert!((sol.objective - 4.5).abs() < 1e-6);
    }

    #[test]
    fn minimization_milp() {
        // min 3x + 2y st x + y >= 1.5, binaries: x=1,y=1 is the only
        // feasible completion -> cost 5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x", 3.0);
        let y = m.add_binary("y", 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.5);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn job_count_does_not_change_the_result() {
        // A deliberately branchy MILP: every counter of the search must be
        // bit-identical at 1, 2, and 8 worker threads.
        let build = || {
            let mut m = Model::new(Sense::Maximize);
            let vars: Vec<_> = (0..14)
                .map(|i| m.add_binary(format!("b{i}"), 1.0 + (i as f64) * 0.37))
                .collect();
            for w in vars.windows(3) {
                m.add_constraint(vec![(w[0], 2.0), (w[1], 3.0), (w[2], 2.0)], Cmp::Le, 4.0);
            }
            m.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Le, 6.5);
            m
        };
        let mut reference = build();
        reference.set_jobs(1);
        let base = reference.solve().unwrap();
        for jobs in [2, 8] {
            let mut m = build();
            m.set_jobs(jobs);
            let sol = m.solve().unwrap();
            assert_eq!(sol.nodes, base.nodes, "jobs={jobs}");
            assert_eq!(sol.pivots, base.pivots, "jobs={jobs}");
            assert_eq!(sol.nodes_pruned, base.nodes_pruned, "jobs={jobs}");
            assert_eq!(
                sol.objective.to_bits(),
                base.objective.to_bits(),
                "jobs={jobs}"
            );
            let same_values = sol
                .values
                .iter()
                .zip(&base.values)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_values, "jobs={jobs}");
        }
    }

    #[test]
    fn truncated_work_budget_with_cuts_is_reported_honestly() {
        // A branchy model with a pivot budget small enough to truncate:
        // the result must carry `truncated = true` and Status::Feasible
        // even with cuts and presolve active.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..16)
            .map(|i| m.add_binary(format!("b{i}"), 1.0 + (i as f64) * 0.53))
            .collect();
        for w in vars.windows(4) {
            m.add_constraint(
                vec![(w[0], 3.0), (w[1], 5.0), (w[2], 4.0), (w[3], 3.0)],
                Cmp::Le,
                7.0,
            );
        }
        m.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Le, 9.5);
        m.set_work_limit(25);
        match m.solve() {
            Ok(sol) => {
                assert_eq!(sol.status, Status::Feasible);
                assert!(sol.truncated, "budget-cut solve must be flagged");
            }
            Err(e) => assert!(
                matches!(e, crate::model::SolveError::NodeLimit),
                "unexpected error {e:?}"
            ),
        }
        // The same model without a budget proves optimality.
        let mut free = m.clone();
        free.set_work_limit(u64::MAX);
        let sol = free.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(!sol.truncated);
    }
}
