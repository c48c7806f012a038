//! A small mixed-integer linear programming solver.
//!
//! This crate replaces Gurobi in the paper's flow. It provides:
//!
//! * a **sparse revised** two-phase primal simplex plus a **dual simplex**
//!   for warm re-solves (the default [`Engine::SparseRevised`]) and the
//!   legacy dense tableau ([`Engine::DenseTableau`]) it superseded, all
//!   with Dantzig pricing and a Bland anti-cycling fallback,
//! * deterministic, optionally parallel branch & bound over
//!   integer/binary variables with incumbent pruning and warm-started
//!   node bases ([`Model::set_jobs`]),
//! * root strengthening: a presolve pass and Gomory mixed-integer cuts.
//!
//! # The sparse revised simplex
//!
//! The buffer-placement MILPs have a few hundred variables and rows, but
//! each row carries only a handful of nonzeros (a throughput constraint
//! couples one channel to two node retiming values; a covering cut sums a
//! few binaries). The dense tableau paid O(rows × columns) per pivot to
//! rewrite an almost-entirely-zero matrix; the revised engine instead
//! keeps:
//!
//! * the constraint matrix in **CSC** (compressed sparse column) form,
//!   built once per model as a *standard form* (row layout, merged
//!   structural columns, slacks, costs) and bound to each solve's bounds:
//!   right-hand sides, row flips (the stored values copied with the row
//!   signs) and artificial columns. Branch and bound builds one form per
//!   tree, at its first node LP, and binds it at every node;
//! * the basis inverse as a **product-form eta file**: each pivot appends
//!   one sparse eta vector, and `B⁻¹v` / `vᵀB⁻¹` (FTRAN / BTRAN) apply
//!   the file in O(total eta nonzeros);
//! * an **adaptive refactorization** policy: the file is rebuilt from the
//!   current basis columns (greedy partial-pivoting re-inversion) when its
//!   nonzero growth since the last factorization exceeds a threshold
//!   scaled to the factorized basis size — with a fixed pivot-count
//!   backstop — bounding FTRAN/BTRAN cost and floating-point drift on
//!   exactly the solves that need it instead of on a wall-clock-blind
//!   fixed schedule. The trigger reads only deterministic counters, so
//!   the rebuilt points reproduce bit-for-bit. A rebuild orders the basis
//!   by an order of all columns the bind computes once, and skips the
//!   FTRAN of a column that touches no row a fresh eta pivots on.
//!
//! Per iteration the engine BTRANs the basic costs, prices every nonbasic
//! column with one sparse dot product (Dantzig: most positive reduced
//! cost, lowest index on ties; Bland's first-improving rule after 50
//! consecutive degenerate pivots), FTRANs the entering column, and runs
//! the usual ratio test. Simplex *pivots* remain the deterministic work
//! currency behind [`Model::set_work_limit`]: the pivot sequence is a
//! pure function of the model, so truncated solves reproduce bit-for-bit
//! across machines, thread counts, and engine-internal timing.
//!
//! # Root strengthening: presolve and cutting planes
//!
//! Before any simplex work, [`Model::solve`] runs a **presolve** pass
//! (row canonicalization: merged terms, dropped empty, bound-implied and
//! duplicate rows; bound tightening from row activities, singleton-row
//! substitution, Savelsbergh coefficient reduction — see the `presolve`
//! module) that shrinks the model while preserving its mixed-integer
//! optimum; the reductions are reported in [`Solution::presolve`]. At the
//! root LP optimum, a round-limited loop separates **Gomory mixed-integer
//! cuts** from the optimal tableau, re-solving each round from the
//! previous round's basis ([`Model::set_cut_rounds`]). Separated cuts pass
//! a **quality scorer** before admission — ranked by efficacy (violation
//! over coefficient norm), penalized for near-parallelism to
//! already-selected cuts, preferring sparser rows, under a fixed per-round
//! budget. Both layers can be disabled ([`Model::set_presolve`],
//! [`Model::set_cut_rounds`]) to recover the raw model as an oracle; the
//! dense engine never generates cuts and serves the same role.
//!
//! # Deterministic parallel best-first branch & bound
//!
//! [`Model::solve`] explores the tree best-bound-first: open nodes live in
//! a priority queue ordered by the parent LP bound, with deterministic
//! depth and creation-sequence tie-breaks. Fixed-size waves of at most 8
//! nodes are popped (entries dominated by the incumbent are discarded at
//! pop time, counted in [`Solution::nodes_pruned`]), their LP relaxations
//! solved concurrently on up to [`Model::set_jobs`] scoped threads, and
//! the results folded back **sequentially in pop order** — pruning,
//! incumbent updates, budget checks, and child pushes all run on one
//! thread in a fixed order. Because wave composition never depends on the
//! thread count and each LP solve is a pure function of
//! `(model, bounds, warm basis)`, the returned solution, objective, node
//! count, and pivot count are bit-identical for any `jobs` value; threads
//! only decide how fast the same tree is walked. The work meter charges
//! each LP solve a fixed pivot-equivalent overhead on top of its pivots,
//! so budgets and the stagnation valve stay honest even when warm
//! re-solves finish in a handful of pivots.
//!
//! # Dual simplex warm re-solves
//!
//! Branching tightens one variable bound, and appending a cut row extends
//! the system by one slack: in both moves the parent optimum stays **dual
//! feasible** while (usually) turning primal infeasible. Wherever a
//! revalidated warm basis is dual feasible — child nodes re-solving from
//! the parent's final basis, post-cut re-solves with the new row basic on
//! its slack, and [`MilpWarmStore`] hits — the engine therefore runs the
//! **dual simplex** (most-infeasible leaving row, ratio-test entering
//! column, the same Bland-style anti-cycling fallback) instead of a cold
//! phase 1/2, typically reaching the new optimum in a handful of pivots
//! ([`Solution::dual_pivots`]). A dual walk that stalls discards the basis
//! and falls back to the primal phase-1 path, carrying its spent work into
//! the deterministic budget.
//!
//! # Cross-solve warm starts
//!
//! [`Model::solve_warm`] accepts a [`WarmStart`] — a previous solve's root
//! basis ([`Solution::root_basis`]) plus incumbent values, optionally
//! tagged with variable names so [`WarmStart::remap_to`] can follow a
//! drifted model — and uses both as starting points after revalidating
//! them against the new model. The caller-keyed [`MilpWarmStore`] carries
//! these across the paper's Fig.-4 iterations: the buffer placer keys
//! entries by the *problem* being re-solved (graph, CFDFCs, objective
//! weights), so later iterations hit the store even as cut counts and
//! bound tightenings reshape the model, and any numeric drift is caught
//! at adoption time, never trusted.
//!
//! A warm start is not invisible. The equivalence tests check that a
//! warm and a cold solve agree on status and objective
//! (`tests/milp_equivalence.rs`), not on values: a warm start changes the pivot path, so where several
//! vertices are optimal it may return another one, and where the work
//! limit truncates a solve it stops at another incumbent. Passing the
//! buffer placer no warm starts moves five Table I rows (EXPERIMENTS.md,
//! "Which solver paths Table I depends on").
//!
//! # Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`, `x, y ≥ 0`:
//!
//! ```
//! use milp::{Model, Sense, Cmp};
//!
//! # fn main() -> Result<(), milp::SolveError> {
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 3.0, false);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 2.0, false);
//! m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! m.add_constraint(vec![(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
//! let sol = m.solve()?;
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x = 4, y = 0
//! # Ok(())
//! # }
//! ```

mod branch;
mod cuts;
mod dense;
mod model;
mod presolve;
mod simplex;
mod warm;

pub use cuts::{separate_root_cuts, RootCutReport};
pub use model::{Cmp, Constraint, Engine, Model, Sense, Solution, SolveError, Status, VarId};
pub use presolve::PresolveReport;
pub use simplex::WarmBasis;
pub use warm::{MilpWarmStore, WarmStart};
