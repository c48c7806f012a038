//! Sparse revised two-phase simplex (primal and dual).
//!
//! The default LP engine ([`Engine::SparseRevised`](crate::Engine)).
//! Operates on the LP relaxation of a [`Model`](crate::Model) with
//! variables shifted to `x' = x − lo ≥ 0`; finite upper bounds become
//! explicit rows. Phase 1 minimizes the sum of artificial variables to find
//! a basic feasible solution; phase 2 optimizes the real objective.
//!
//! Unlike the legacy dense tableau (kept in [`crate::dense`] as the
//! measured baseline and equivalence oracle), this engine never
//! materializes `B⁻¹A`:
//!
//! * the constraint matrix is stored in **compressed sparse column** (CSC)
//!   form — buffer-placement rows have a handful of nonzeros each. A
//!   [`StdForm`] holds what no bound changes, built once per model (once
//!   per branch-and-bound tree); each solve binds it to its own bounds
//!   ([`StdForm::bind`]) instead of assembling the matrix again;
//! * the basis inverse is a **product-form eta file**: each pivot appends
//!   one eta vector, and `B⁻¹x` (FTRAN) / `yᵀB⁻¹` (BTRAN) are applied
//!   eta-by-eta in `O(eta nonzeros)`;
//! * the eta file is rebuilt from the current basis (**refactorization**)
//!   adaptively, when its nonzeros have grown well past the size of a
//!   fresh factorization (with a [`REFACTOR_PIVOT_CAP`] backstop),
//!   bounding both FTRAN/BTRAN cost and accumulated floating-point drift;
//! * a solve can be **warm-started** from a parent basis (branch & bound
//!   hands each child the basis of the node that spawned it): if the basis
//!   is still primal feasible under the child's bounds, phase 1 is skipped
//!   entirely; if it is primal infeasible but still *dual* feasible — the
//!   typical state after a bound change or an appended cut row — the
//!   **dual simplex** ([`Rsm::dual_optimize`]) walks it back to
//!   feasibility without any phase-1 work.
//!
//! Pricing policy is unchanged from the dense engine: Dantzig's rule (most
//! positive reduced cost, lowest index on ties) with a fall-back to Bland's
//! provably non-cycling rule after [`DEGENERATE_STREAK`] consecutive
//! degenerate pivots. Reduced costs are recomputed exactly every iteration
//! (one BTRAN + one sparse pass over the columns), so the pivot sequence
//! matches the dense engine's wherever floating-point round-off agrees;
//! where it does not, the result is still a deterministic pure function of
//! the model, which is all the pivot work budget
//! ([`Model::set_work_limit`](crate::Model::set_work_limit)) requires.

use crate::model::{Cmp, Model, Sense, SolveError};

pub(crate) const EPS: f64 = 1e-9;

/// Consecutive degenerate (zero-improvement) pivots tolerated under
/// Dantzig pricing before switching to Bland's anti-cycling rule.
const DEGENERATE_STREAK: u32 = 50;

/// Floor for the stall valve: consecutive degenerate pivots tolerated
/// before a phase gives up as truncated. Bland's rule cannot cycle, but
/// on heavily degenerate vertices (cut-augmented placement LPs) its exit
/// walk can run to the full iteration valve; past `max(STALL_FLOOR,
/// 2·(rows + priced columns))` zero-progress pivots the walk is abandoned
/// instead, which keeps one sick LP from draining the caller's entire
/// deterministic work budget. Purely a function of the model, so the
/// pivot sequence stays machine-independent.
const STALL_FLOOR: u32 = 2_048;

/// Hard iteration valve per simplex phase.
pub(crate) const MAX_SIMPLEX_ITERS: u64 = 2_000_000;

/// Pivot-count backstop of the adaptive refactorization trigger: even if
/// the eta file's nonzero growth never crosses the adaptive threshold
/// (pathologically sparse updates), the product form is collapsed after
/// this many pivots to wash out accumulated round-off.
const REFACTOR_PIVOT_CAP: usize = 128;

/// Floor of the adaptive refactorization threshold: the eta file must add
/// at least this many nonzeros past the fresh-factor size before a rebuild
/// can pay for itself on small systems.
const REFACTOR_GROWTH_FLOOR: usize = 256;

/// Result of an LP solve: variable values (in the model's original space),
/// the objective value, and the simplex pivots spent (the deterministic
/// work measure behind [`Model::set_work_limit`](crate::Model::set_work_limit)).
#[derive(Debug, Clone)]
pub(crate) struct LpSolution {
    pub values: Vec<f64>,
    pub objective: f64,
    pub pivots: u64,
    /// Subset of `pivots` performed by the dual simplex
    /// ([`Rsm::dual_optimize`]); dense engine and cold starts report 0.
    pub dual_pivots: u64,
    /// Basis re-inversions performed (sparse engine only; dense is 0).
    pub refactors: u64,
    /// The phase-2 iteration valve fired: `values` is a primal-feasible
    /// basic solution but `objective` may be below the true LP optimum, so
    /// it must not be used as a dual bound.
    pub truncated: bool,
    /// Final basis, for warm-starting child nodes (sparse engine only).
    pub basis: Option<WarmBasis>,
    /// A caller-supplied warm basis was adopted (phase 1 skipped or run
    /// warm over appended rows only).
    pub warmed: bool,
}

/// A basis snapshot handed from one LP solve to a later one: between a
/// branch-and-bound node and its children, across root cut rounds, or
/// across flow iterations via [`crate::warm::MilpWarmStore`].
///
/// Adopted by a later solve only when `rows`/`cols` are no larger than the
/// new system's, every basic column is a real (structural or slack) column
/// of the old system, and the candidate basis — extended with natural
/// basis entries for any appended rows — refactors to a primal-feasible
/// point. All checks are pure functions of the model, so adoption is
/// deterministic; a basis from a mismatched model simply fails them and
/// the solve cold-starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmBasis {
    /// Row count of the system the basis was taken from.
    pub rows: usize,
    /// Column count before artificials (structural + slack).
    pub cols: usize,
    /// Basic column per basis position.
    pub basis: Vec<usize>,
}

/// Extra bound constraints layered on top of a model by branch & bound.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundOverrides {
    /// `(var index, new lo, new hi)` triples; later entries win.
    pub entries: Vec<(usize, f64, f64)>,
}

/// The variable bounds of `model` under `overrides`, as `(lo, hi)`;
/// [`SolveError::Infeasible`] when some variable's pair crosses.
pub(crate) fn bounds(
    model: &Model,
    overrides: &BoundOverrides,
) -> Result<(Vec<f64>, Vec<f64>), SolveError> {
    let mut lo: Vec<f64> = model.vars.iter().map(|v| v.lo).collect();
    let mut hi: Vec<f64> = model.vars.iter().map(|v| v.hi).collect();
    for &(v, l, h) in &overrides.entries {
        lo[v] = lo[v].max(l);
        hi[v] = hi[v].min(h);
    }
    if lo.iter().zip(&hi).any(|(&l, &h)| l > h + EPS) {
        return Err(SolveError::Infeasible);
    }
    Ok((lo, hi))
}

/// One row of the shifted system of the dense engine.
pub(crate) struct PreparedRow {
    pub coeffs: Vec<(usize, f64)>,
    pub op: Cmp,
    pub rhs: f64,
}

/// The LP relaxation in shifted form: `x' = x − lo ≥ 0`, finite upper
/// bounds as explicit `≤` rows, objective sign-normalized to maximize.
pub(crate) struct Prepared {
    pub n: usize,
    pub lo: Vec<f64>,
    pub rows: Vec<PreparedRow>,
    pub obj: Vec<f64>,
    pub obj_shift: f64,
    pub sign: f64,
}

/// Builds the shifted row system the dense engine solves. Its rows are the
/// rows of the sparse engine's [`StdForm`] bound to the same bounds, so
/// both engines solve literally the same system.
pub(crate) fn prepare(model: &Model, overrides: &BoundOverrides) -> Result<Prepared, SolveError> {
    let n = model.vars.len();
    let (lo, hi) = bounds(model, overrides)?;

    // Rows: one row per finite upper bound first, then the model
    // constraints (rhs adjusted by lower-bound shift); see `StdForm`.
    let mut rows: Vec<PreparedRow> = Vec::with_capacity(model.constraints.len() + n);
    for v in 0..n {
        if hi[v].is_finite() {
            rows.push(PreparedRow {
                coeffs: vec![(v, 1.0)],
                op: Cmp::Le,
                rhs: hi[v] - lo[v],
            });
        }
    }
    for c in &model.constraints {
        let mut shift = 0.0;
        for &(v, a) in &c.terms {
            shift += a * lo[v.index()];
        }
        rows.push(PreparedRow {
            coeffs: c.terms.iter().map(|&(v, a)| (v.index(), a)).collect(),
            op: c.op,
            rhs: c.rhs - shift,
        });
    }

    // Objective in shifted space (maximize internally).
    let sign = match model.sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    let obj: Vec<f64> = model.vars.iter().map(|v| sign * v.obj).collect();
    let obj_shift: f64 = model
        .vars
        .iter()
        .enumerate()
        .map(|(i, v)| sign * v.obj * lo[i])
        .sum();

    Ok(Prepared {
        n,
        lo,
        rows,
        obj,
        obj_shift,
        sign,
    })
}

// ---------------------------------------------------------------------------
// Compressed sparse column storage
// ---------------------------------------------------------------------------

/// The augmented constraint matrix `[A | S | I_art]` of one solve in CSC
/// form, bound from a [`StdForm`] by [`StdForm::bind`].
struct Csc {
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    val: Vec<f64>,
    /// Every column, ordered by `(col_len, col)`: the elimination order
    /// of [`Rsm::refactor`].
    order: Vec<usize>,
}

impl Csc {
    fn ncols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        self.row_idx[s..e]
            .iter()
            .copied()
            .zip(self.val[s..e].iter().copied())
    }

    /// Sparse dot of column `j` with a dense vector.
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        let mut acc = 0.0;
        for (ri, v) in self.row_idx[s..e].iter().zip(&self.val[s..e]) {
            acc += v * y[*ri];
        }
        acc
    }

    /// Scatters column `j` into a dense scratch vector (assumed zeroed).
    fn scatter(&self, j: usize, out: &mut [f64]) {
        for (i, v) in self.col(j) {
            out[i] = v;
        }
    }
}

// ---------------------------------------------------------------------------
// The standard form, built once per model and bound per solve
// ---------------------------------------------------------------------------

/// The sparse engine's standard form of a model's LP relaxation: the part
/// of the shifted system `x' = x − lo ≥ 0` that no lower bound and no row
/// flip changes. Rows are one `≤` row per finite upper bound first, in
/// variable order, then the model constraints. Upper-bound rows leading
/// means a constraint appended to the model — a root cutting plane —
/// extends the row system strictly at the end, leaving every existing
/// structural and slack column index intact; that stability is what lets
/// warm-basis adoption extend a pre-cut basis instead of cold-starting
/// every cut round.
///
/// The form holds the structural columns in CSC with repeated terms merged
/// (in term order, as the dense tableau's `+=` accumulates them), one slack
/// column per inequality row, and the phase-2 costs. [`StdForm::bind`]
/// applies one solve's bounds: right-hand sides, row flips and artificial
/// columns. A flipped row's merged entry is exactly the negation of the
/// unflipped one (IEEE rounding is symmetric under negation), so binding
/// copies the values with the row signs and reproduces the per-solve
/// assembly bit for bit. Branch and bound builds one form per tree and
/// binds it at every node; root and cut-round solves build their own.
pub(crate) struct StdForm {
    /// The variable of each upper-bound row, ascending.
    ub_vars: Vec<usize>,
    ops: Vec<Cmp>,
    /// Structural then slack columns, unflipped: `n_real + 1` pointers.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    val: Vec<f64>,
    slack_col_of_row: Vec<Option<usize>>,
    n_real: usize,
    /// Columns `< n_real` by `(col_len, col)`, from a counting pass.
    by_len: Vec<usize>,
    /// Leading entries of `by_len` with at most one nonzero; artificial
    /// columns (one nonzero, indices past `n_real`) order right after.
    short: usize,
    /// Phase-2 costs of the structural columns (maximize internally).
    obj: Vec<f64>,
    sign: f64,
}

/// A [`StdForm`] bound to one solve's variable bounds.
struct Bound {
    a: Csc,
    lo: Vec<f64>,
    /// Shifted right-hand side of each row, before the flip.
    rhs: Vec<f64>,
    /// Right-hand side after the flips (`rhs ≥ 0`).
    b: Vec<f64>,
    /// Initial basis: each row's slack if it has `+1` there, else the
    /// row's artificial.
    basis: Vec<usize>,
    c2: Vec<f64>,
    obj_shift: f64,
}

impl StdForm {
    /// The form of `model` with one upper-bound row for each finite entry
    /// of `hi`.
    pub(crate) fn new(model: &Model, hi: &[f64]) -> StdForm {
        let n = model.vars.len();
        let ub_vars: Vec<usize> = (0..n).filter(|&v| hi[v].is_finite()).collect();
        let n_ub = ub_vars.len();
        let ops: Vec<Cmp> = ub_vars
            .iter()
            .map(|_| Cmp::Le)
            .chain(model.constraints.iter().map(|c| c.op))
            .collect();
        let m = ops.len();
        let mut slack_col_of_row = vec![None; m];
        let mut n_real = n;
        for (i, &op) in ops.iter().enumerate() {
            if op != Cmp::Eq {
                slack_col_of_row[i] = Some(n_real);
                n_real += 1;
            }
        }

        // Structural entries bucketed per column in row order, then term
        // order within a row, so repeated terms of one row sit adjacent
        // and merge in term order.
        let mut start = vec![0usize; n + 1];
        for &v in &ub_vars {
            start[v + 1] += 1;
        }
        for c in &model.constraints {
            for &(v, _) in &c.terms {
                start[v.index() + 1] += 1;
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut raw = vec![(0usize, 0.0f64); start[n]];
        let mut put = |v: usize, i: usize, a: f64| {
            raw[fill[v]] = (i, a);
            fill[v] += 1;
        };
        for (i, &v) in ub_vars.iter().enumerate() {
            put(v, i, 1.0);
        }
        for (k, c) in model.constraints.iter().enumerate() {
            for &(v, a) in &c.terms {
                put(v.index(), n_ub + k, a);
            }
        }
        let mut col_ptr = Vec::with_capacity(n_real + 1);
        let mut row_idx = Vec::with_capacity(raw.len() + n_real - n);
        let mut val = Vec::with_capacity(raw.len() + n_real - n);
        col_ptr.push(0usize);
        for v in 0..n {
            let col = &raw[start[v]..start[v + 1]];
            let mut k = 0usize;
            while k < col.len() {
                let (i, mut acc) = col[k];
                let mut j = k + 1;
                while j < col.len() && col[j].0 == i {
                    acc += col[j].1;
                    j += 1;
                }
                if acc != 0.0 {
                    row_idx.push(i);
                    val.push(acc);
                }
                k = j;
            }
            col_ptr.push(row_idx.len());
        }
        for (i, &op) in ops.iter().enumerate() {
            let coef = match op {
                Cmp::Le => 1.0,
                Cmp::Ge => -1.0,
                Cmp::Eq => continue,
            };
            row_idx.push(i);
            val.push(coef);
            col_ptr.push(row_idx.len());
        }

        // Counting sort by column length; ascending column index within a
        // length, because columns are placed in index order.
        let len = |j: usize| col_ptr[j + 1] - col_ptr[j];
        let max_len = (0..n_real).map(len).max().unwrap_or(0);
        let mut slot = vec![0usize; max_len + 2];
        for j in 0..n_real {
            slot[len(j) + 1] += 1;
        }
        for l in 0..=max_len {
            slot[l + 1] += slot[l];
        }
        let short = (0..n_real).filter(|&j| len(j) <= 1).count();
        let mut by_len = vec![0usize; n_real];
        for j in 0..n_real {
            by_len[slot[len(j)]] = j;
            slot[len(j)] += 1;
        }

        let sign = match model.sense {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        StdForm {
            ub_vars,
            ops,
            col_ptr,
            row_idx,
            val,
            slack_col_of_row,
            n_real,
            by_len,
            short,
            obj: model.vars.iter().map(|v| sign * v.obj).collect(),
            sign,
        }
    }

    /// The upper-bound rows of the form are exactly the finite entries of
    /// `hi`. Branching can give a variable an upper bound it lacked, which
    /// adds a row; such a node needs a form of its own.
    fn fits(&self, hi: &[f64]) -> bool {
        let mut ub = self.ub_vars.iter();
        hi.iter()
            .enumerate()
            .filter(|(_, h)| h.is_finite())
            .all(|(v, _)| ub.next() == Some(&v))
            && ub.next().is_none()
    }

    /// Binds the form of `model` to the bounds `lo`/`hi` (which it must
    /// [fit](Self::fits)): shifted right-hand sides, row flips (`rhs ≥ 0`),
    /// the initial basis with its artificial columns, and the solve's
    /// matrix and costs.
    fn bind(&self, model: &Model, lo: Vec<f64>, hi: &[f64]) -> Bound {
        let n = lo.len();
        let n_real = self.n_real;
        let mut rhs: Vec<f64> = self.ub_vars.iter().map(|&v| hi[v] - lo[v]).collect();
        rhs.extend(model.constraints.iter().map(|c| {
            let mut shift = 0.0;
            for &(v, a) in &c.terms {
                shift += a * lo[v.index()];
            }
            c.rhs - shift
        }));
        let m = rhs.len();
        debug_assert_eq!(m, self.ops.len());
        let b: Vec<f64> = rhs.iter().map(|&r| if r < 0.0 { -r } else { r }).collect();

        let mut basis = Vec::with_capacity(m);
        let mut art_rows = Vec::new();
        for (i, (&op, &r)) in self.ops.iter().zip(&rhs).enumerate() {
            let flip = r < 0.0;
            let plus_slack = match op {
                Cmp::Le => !flip,
                Cmp::Ge => flip,
                Cmp::Eq => false,
            };
            if plus_slack {
                basis.push(self.slack_col_of_row[i].expect("non-Eq row has a slack"));
            } else {
                basis.push(n_real + art_rows.len());
                art_rows.push(i);
            }
        }

        let ncols = n_real + art_rows.len();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.extend_from_slice(&self.col_ptr);
        let nnz = self.row_idx.len();
        col_ptr.extend((1..=art_rows.len()).map(|k| nnz + k));
        let mut row_idx = Vec::with_capacity(nnz + art_rows.len());
        row_idx.extend_from_slice(&self.row_idx);
        row_idx.extend_from_slice(&art_rows);
        let mut val = Vec::with_capacity(nnz + art_rows.len());
        val.extend(
            self.val
                .iter()
                .zip(&self.row_idx)
                .map(|(&a, &i)| if rhs[i] < 0.0 { -a } else { a }),
        );
        val.resize(nnz + art_rows.len(), 1.0);
        let mut order = Vec::with_capacity(ncols);
        order.extend_from_slice(&self.by_len[..self.short]);
        order.extend(n_real..ncols);
        order.extend_from_slice(&self.by_len[self.short..]);

        // Phase-2 costs: artificial columns are simply excluded from
        // pricing (the dense engine equivalently pins them with a −1e18
        // cost); any artificial still basic from a redundant row stays at
        // zero.
        let mut c2 = vec![0.0f64; ncols];
        c2[..n].copy_from_slice(&self.obj);
        let obj_shift: f64 = self.obj.iter().zip(&lo).map(|(&c, &l)| c * l).sum();
        Bound {
            a: Csc {
                col_ptr,
                row_idx,
                val,
                order,
            },
            lo,
            rhs,
            b,
            basis,
            c2,
            obj_shift,
        }
    }
}

// ---------------------------------------------------------------------------
// Product-form eta file
// ---------------------------------------------------------------------------

/// Entries below this magnitude are dropped from eta vectors: cascading
/// FTRANs breed tiny fill that costs time without carrying information.
/// The adaptive refactorization schedule (growth trigger plus the
/// [`REFACTOR_PIVOT_CAP`] backstop) re-derives the representation from
/// `A`, bounding the accumulated truncation.
const ETA_DROP_TOL: f64 = 1e-12;

/// Product-form eta file in flat structure-of-arrays layout.
///
/// Eta `k` is the elementary transformation that is identity except
/// column `r[k]`, holding the FTRAN'd entering column (pivot element
/// `pivot[k]` separated; off-pivot nonzeros `(idx, val)` in the shared
/// pools delimited by `ptr[k]..ptr[k+1]`, stored in ascending row order).
/// One pool for the whole file — instead of a heap `Vec` per eta — keeps
/// FTRAN/BTRAN/refactorization on contiguous memory and spares one
/// allocation per pivot; traversal order is unchanged, so the arithmetic
/// is bit-for-bit that of the boxed-per-eta layout.
struct EtaFile {
    r: Vec<usize>,
    pivot: Vec<f64>,
    /// `ptr[k]..ptr[k+1]` delimits eta `k`'s entries; `ptr[0] == 0`.
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl EtaFile {
    fn new() -> Self {
        EtaFile {
            r: Vec::new(),
            pivot: Vec::new(),
            ptr: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.r.len()
    }

    /// Appends one eta from a dense FTRAN'd column `w` with pivot row `r`
    /// (entries `i ≠ r` above [`ETA_DROP_TOL`], ascending `i`).
    fn push_dense(&mut self, r: usize, w: &[f64]) {
        let start = self.idx.len();
        for (i, &v) in w.iter().enumerate() {
            if i != r && v.abs() > ETA_DROP_TOL {
                self.idx.push(i);
                self.val.push(v);
            }
        }
        self.seal(r, w[r], start);
    }

    /// Appends one eta from an explicit nonzero list (refactorization path;
    /// the caller supplies entries in ascending row order).
    fn push(&mut self, r: usize, pivot: f64, nz: impl Iterator<Item = (usize, f64)>) {
        let start = self.idx.len();
        for (i, v) in nz {
            self.idx.push(i);
            self.val.push(v);
        }
        self.seal(r, pivot, start);
    }

    /// Finishes an eta whose entries were appended starting at pool offset
    /// `start` — unless it is the identity (unit pivot, no off-pivot
    /// entries), which FTRAN/BTRAN apply as a bitwise no-op (`v / 1.0 == v`
    /// for every `v`): storing those — slack columns pivoting on their own
    /// untouched row, the bulk of a refactorization on these models — would
    /// only add traversal cost to every later application of the file.
    fn seal(&mut self, r: usize, pivot: f64, start: usize) {
        if self.idx.len() == start && pivot == 1.0 {
            return;
        }
        self.r.push(r);
        self.pivot.push(pivot);
        self.ptr.push(self.idx.len());
    }

    /// FTRAN: `x ← B⁻¹x`, applying the eta file left to right.
    fn ftran(&self, x: &mut [f64]) {
        for k in 0..self.len() {
            let r = self.r[k];
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr / self.pivot[k];
            x[r] = t;
            let (s, e) = (self.ptr[k], self.ptr[k + 1]);
            for (i, w) in self.idx[s..e].iter().zip(&self.val[s..e]) {
                x[*i] -= w * t;
            }
        }
    }

    /// [`Self::ftran`] recording every scratch entry that turns nonzero in
    /// `touched` (refactorization's fill tracking).
    fn ftran_tracking(&self, x: &mut [f64], touched: &mut Vec<usize>) {
        for k in 0..self.len() {
            let r = self.r[k];
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr / self.pivot[k];
            x[r] = t;
            let (s, e) = (self.ptr[k], self.ptr[k + 1]);
            for (i, w) in self.idx[s..e].iter().zip(&self.val[s..e]) {
                if x[*i] == 0.0 {
                    touched.push(*i);
                }
                x[*i] -= w * t;
            }
        }
    }

    /// BTRAN: `y ← (B⁻¹)ᵀy`, applying the eta file right to left, transposed.
    fn btran(&self, y: &mut [f64]) {
        for k in (0..self.len()).rev() {
            let r = self.r[k];
            let mut v = y[r];
            let (s, e) = (self.ptr[k], self.ptr[k + 1]);
            for (i, w) in self.idx[s..e].iter().zip(&self.val[s..e]) {
                v -= w * y[*i];
            }
            // A zero accumulator stays zero under the pivot scale; skipping
            // the division only normalizes the zero's sign, which no
            // consumer of a BTRAN'd vector can observe (it feeds reduced-
            // cost comparisons and products, where ±0 behave identically).
            if v != 0.0 {
                y[r] = v / self.pivot[k];
            } else if y[r] != 0.0 {
                y[r] = 0.0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The revised simplex core
// ---------------------------------------------------------------------------

struct Rsm<'a> {
    a: &'a Csc,
    /// Right-hand side (after row flips).
    b0: Vec<f64>,
    /// Columns before artificials (structural + slack).
    n_real: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    etas: EtaFile,
    /// Pivots applied since the last successful refactorization
    /// ([`REFACTOR_PIVOT_CAP`] backstop of the adaptive trigger).
    update_pivots: usize,
    /// Eta-file nonzeros right after the last successful refactorization;
    /// the adaptive trigger fires on growth past this baseline.
    factor_nnz: usize,
    /// Current basic values `B⁻¹b`, indexed by basis position.
    xb: Vec<f64>,
    pivots: u64,
    dual_pivots: u64,
    refactors: u64,
}

impl<'a> Rsm<'a> {
    fn new(a: &'a Csc, b0: Vec<f64>, n_real: usize, basis: Vec<usize>) -> Self {
        let mut in_basis = vec![false; a.ncols()];
        for &c in &basis {
            in_basis[c] = true;
        }
        let xb = b0.clone();
        Rsm {
            a,
            b0,
            n_real,
            basis,
            in_basis,
            etas: EtaFile::new(),
            update_pivots: 0,
            factor_nnz: 0,
            xb,
            pivots: 0,
            dual_pivots: 0,
            refactors: 0,
        }
    }

    fn m(&self) -> usize {
        self.b0.len()
    }

    fn objective(&self, c: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&col, &x)| c[col] * x)
            .sum()
    }

    /// Rebuilds the eta file from the current basis columns (greedy
    /// partial-pivoting re-inversion). Basis positions may be relabeled;
    /// `xb` is recomputed from the fresh representation. Returns `false`
    /// (leaving the old file untouched) if the basis is numerically
    /// singular.
    fn refactor(&mut self) -> bool {
        let m = self.m();
        let mut fresh = EtaFile::new();
        fresh.r.reserve(m);
        fresh.pivot.reserve(m);
        fresh.ptr.reserve(m);
        let mut pivoted = vec![false; m];
        // Rows a stored fresh eta pivots on. An eta changes a vector only
        // when the vector is nonzero on its pivot row, so a column that
        // touches none of these rows leaves the fresh file's FTRAN as it
        // went in, and the FTRAN is skipped.
        let mut eta_row = vec![false; m];
        let mut new_basis = vec![usize::MAX; m];
        let mut w = vec![0.0f64; m];
        // Eliminate sparse columns first (slacks and artificials are unit
        // columns and cause zero fill-in); ties break on the column index,
        // keeping the order — and hence the eta file — deterministic. This
        // static Markowitz-style ordering keeps the factor etas near the
        // sparsity of A instead of densifying the whole file. The bind
        // orders every column once (`Csc::order`); the basis is its
        // subsequence.
        let mut placed = 0usize;
        // Track which scratch entries each column touches so the reset,
        // pivot search, and eta construction all cost O(fill), not O(m):
        // with mostly-singleton basis columns the whole rebuild stays near
        // the sparsity of A.
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        for &col in &self.a.order {
            if !self.in_basis[col] {
                continue;
            }
            placed += 1;
            // A column's rows ascend, so `touched` starts sorted.
            let mut hits_eta = false;
            for (i, v) in self.a.col(col) {
                if w[i] == 0.0 {
                    touched.push(i);
                }
                w[i] = v;
                hits_eta |= eta_row[i];
            }
            if hits_eta {
                fresh.ftran_tracking(&mut w, &mut touched);
                touched.sort_unstable();
                touched.dedup();
            }
            // Unpivoted row with the largest magnitude (lowest index tie).
            let mut best: Option<usize> = None;
            let mut best_abs = EPS;
            for &i in &touched {
                if !pivoted[i] && w[i].abs() > best_abs {
                    best_abs = w[i].abs();
                    best = Some(i);
                }
            }
            let Some(r) = best else {
                for &i in &touched {
                    w[i] = 0.0;
                }
                return false;
            };
            pivoted[r] = true;
            new_basis[r] = col;
            let stored = fresh.len();
            fresh.push(
                r,
                w[r],
                touched
                    .iter()
                    .filter(|&&i| i != r && w[i].abs() > ETA_DROP_TOL)
                    .map(|&i| (i, w[i])),
            );
            eta_row[r] = fresh.len() > stored;
            for &i in &touched {
                w[i] = 0.0;
            }
            touched.clear();
        }
        // A basis listing one column twice is singular: the second copy
        // would FTRAN to the first copy's pivot row alone.
        if placed < m {
            return false;
        }
        self.basis = new_basis;
        self.update_pivots = 0;
        self.etas = fresh;
        self.factor_nnz = self.etas.idx.len();
        self.refactors += 1;
        self.xb.copy_from_slice(&self.b0);
        self.etas.ftran(&mut self.xb);
        true
    }

    /// Applies one pivot: entering column `q` (with FTRAN'd column `w`)
    /// replaces the variable basic at position `r`.
    fn pivot(&mut self, r: usize, q: usize, w: &[f64]) {
        let t = self.xb[r] / w[r];
        for (i, (x, &wi)) in self.xb.iter_mut().zip(w).enumerate() {
            if i != r {
                *x -= wi * t;
            }
        }
        self.xb[r] = t;
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.etas.push_dense(r, w);
        self.pivots += 1;
        self.update_pivots += 1;
        // Adaptive refactorization: FTRAN/BTRAN cost scales with the eta
        // file's nonzeros while a rebuild costs roughly one fresh factor,
        // so the file is collapsed once its *growth* since the last
        // factorization exceeds the factor's own size (plus an 8·m row
        // allowance and a small-system floor) — sparse update streams run
        // hundreds of pivots per rebuild, dense ones refactor early. Both
        // triggers are pure functions of the pivot sequence, so the
        // schedule stays bit-identical across machines and thread counts.
        let growth = self.etas.idx.len().saturating_sub(self.factor_nnz);
        let threshold = (self.factor_nnz / 2 + 2 * self.m()).max(REFACTOR_GROWTH_FLOOR);
        if growth > threshold || self.update_pivots >= REFACTOR_PIVOT_CAP {
            // A singular refactorization (numerically degenerate basis)
            // keeps the longer but still-valid eta file and retries on
            // the next pivot (the counter only resets on success).
            self.refactor();
        }
    }

    /// Runs primal simplex (maximization) pricing columns `< price_cols`;
    /// returns the objective and whether the iteration valve fired before
    /// optimality.
    fn optimize(
        &mut self,
        c: &[f64],
        price_cols: usize,
        max_iters: u64,
    ) -> Result<(f64, bool), SolveError> {
        let m = self.m();
        let mut y = vec![0.0f64; m];
        let mut w = vec![0.0f64; m];
        let mut iterations = 0u64;
        // Dantzig pricing cycles on degenerate vertices (Beale's example);
        // after DEGENERATE_STREAK consecutive zero-improvement pivots
        // switch to Bland's rule, which cannot cycle, until the objective
        // strictly moves.
        let mut degenerate_streak = 0u32;
        let stall_limit = STALL_FLOOR.max(2 * (m + price_cols).min(u32::MAX as usize / 2) as u32);
        loop {
            iterations += 1;
            if iterations > max_iters || degenerate_streak >= stall_limit {
                return Ok((self.objective(c), true));
            }
            // BTRAN: y = c_B B⁻¹, then reduced costs via one sparse pass.
            y.iter_mut().for_each(|v| *v = 0.0);
            for (pos, &col) in self.basis.iter().enumerate() {
                if c[col] != 0.0 {
                    y[pos] = c[col];
                }
            }
            self.etas.btran(&mut y);
            let entering = if degenerate_streak >= DEGENERATE_STREAK {
                // Bland: first improving column.
                (0..price_cols).find(|&j| !self.in_basis[j] && c[j] - self.a.col_dot(j, &y) > 1e-7)
            } else {
                // Dantzig: most positive reduced cost, lowest index on ties.
                let mut best_j = None;
                let mut best_r = 1e-7;
                for (j, &cj) in c.iter().enumerate().take(price_cols) {
                    if self.in_basis[j] {
                        continue;
                    }
                    let r = cj - self.a.col_dot(j, &y);
                    if r > best_r {
                        best_r = r;
                        best_j = Some(j);
                    }
                }
                best_j
            };
            let Some(q) = entering else {
                return Ok((self.objective(c), false));
            };
            // FTRAN the entering column, then the ratio test (smallest
            // basis index tie-break, as in Bland's rule).
            w.iter_mut().for_each(|v| *v = 0.0);
            self.a.scatter(q, &mut w);
            self.etas.ftran(&mut w);
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for (i, &wi) in w.iter().enumerate() {
                if wi > EPS {
                    let ratio = self.xb[i] / wi;
                    if ratio < best - EPS
                        || (ratio < best + EPS
                            && leave
                                .map(|l| self.basis[i] < self.basis[l])
                                .unwrap_or(false))
                    {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(r) = leave else {
                return Err(SolveError::Unbounded);
            };
            if best <= EPS {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivot(r, q, &w);
        }
    }

    /// Runs dual simplex (maximization) from a dual-feasible basis: every
    /// nonbasic priced column has a nonpositive reduced cost and keeps it;
    /// primal infeasibilities (negative basic values) are driven out row by
    /// row until the point is feasible — and therefore optimal. Returns the
    /// objective and whether the iteration valve fired (in which case the
    /// basis may still be primal infeasible and must not feed phase 2).
    ///
    /// Leaving-row choice is dual Dantzig — the most negative basic value,
    /// lowest row index on ties — switching to the smallest basic column
    /// label (Bland-style) after [`DEGENERATE_STREAK`] consecutive
    /// zero-improvement steps, mirroring the primal engine's anti-cycling
    /// valve; the same degenerate-streak stall valve bounds the walk.
    /// The entering column minimizes the dual ratio `d_j / α_j` over
    /// nonbasic columns with `α_j = (B⁻¹A_j)_r < 0` (lowest index on
    /// exact ties), which is what keeps every reduced cost nonpositive.
    ///
    /// Bound-flipping note: in this shifted standard form every nonbasic
    /// variable sits at its lower bound 0 and finite upper bounds are
    /// explicit rows (see [`prepare`]), so there are no boxed nonbasics to
    /// flip through and the bound-flipping (long-step) dual ratio test
    /// degenerates to exactly this textbook min-ratio rule.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when a leaving row has no eligible
    /// entering column: the row proves `x_{B(r)} ≤ xb[r] < 0` for every
    /// nonnegative completion, a valid primal-infeasibility certificate
    /// (dual unboundedness).
    fn dual_optimize(
        &mut self,
        c: &[f64],
        price_cols: usize,
        max_iters: u64,
    ) -> Result<(f64, bool), SolveError> {
        let m = self.m();
        let mut y = vec![0.0f64; m];
        let mut rho = vec![0.0f64; m];
        let mut w = vec![0.0f64; m];
        let mut iterations = 0u64;
        let mut degenerate_streak = 0u32;
        let stall_limit = STALL_FLOOR.max(2 * (m + price_cols).min(u32::MAX as usize / 2) as u32);
        loop {
            iterations += 1;
            if iterations > max_iters || degenerate_streak >= stall_limit {
                return Ok((self.objective(c), true));
            }
            let leaving = if degenerate_streak >= DEGENERATE_STREAK {
                // Anti-cycling: smallest basic column label among the
                // infeasible rows.
                let mut pick: Option<usize> = None;
                for (i, &x) in self.xb.iter().enumerate() {
                    if x < -1e-7 && pick.map(|p| self.basis[i] < self.basis[p]).unwrap_or(true) {
                        pick = Some(i);
                    }
                }
                pick
            } else {
                // Dual Dantzig: most negative basic value, lowest index on
                // ties (strict `<` over an ascending scan).
                let mut pick: Option<usize> = None;
                let mut most = -1e-7;
                for (i, &x) in self.xb.iter().enumerate() {
                    if x < most {
                        most = x;
                        pick = Some(i);
                    }
                }
                pick
            };
            let Some(r) = leaving else {
                // Primal feasible — with dual feasibility maintained
                // throughout, this is the optimum.
                return Ok((self.objective(c), false));
            };
            // BTRAN the unit row: ρ = eᵣᵀB⁻¹ gives the pivot row of the
            // tableau as α_j = ρ·A_j; a second BTRAN prices the basic
            // costs for the reduced costs d_j = c_j − y·A_j.
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[r] = 1.0;
            self.etas.btran(&mut rho);
            y.iter_mut().for_each(|v| *v = 0.0);
            for (pos, &col) in self.basis.iter().enumerate() {
                if c[col] != 0.0 {
                    y[pos] = c[col];
                }
            }
            self.etas.btran(&mut y);
            let mut entering: Option<usize> = None;
            let mut best = f64::INFINITY;
            for (j, &cj) in c.iter().enumerate().take(price_cols) {
                if self.in_basis[j] {
                    continue;
                }
                let alpha = self.a.col_dot(j, &rho);
                if alpha < -EPS {
                    let ratio = (cj - self.a.col_dot(j, &y)) / alpha;
                    if ratio < best {
                        best = ratio;
                        entering = Some(j);
                    }
                }
            }
            let Some(q) = entering else {
                return Err(SolveError::Infeasible);
            };
            w.iter_mut().for_each(|v| *v = 0.0);
            self.a.scatter(q, &mut w);
            self.etas.ftran(&mut w);
            if w[r] >= -EPS {
                // FTRAN disagrees with the BTRAN row on the pivot element
                // (numerical drift): abandon the walk as truncated rather
                // than divide by a vanishing pivot. Deterministic — the
                // drift is a pure function of the pivot sequence.
                return Ok((self.objective(c), true));
            }
            // Objective moves by d_q · (xb[r]/α_q) ≤ 0; a (near-)zero
            // step is a degenerate dual pivot.
            let step = (c[q] - self.a.col_dot(q, &y)) * (self.xb[r] / w[r]);
            if step.abs() <= EPS {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivot(r, q, &w);
            self.dual_pivots += 1;
        }
    }

    /// Drives artificial variables out of the basis after phase 1 using the
    /// sparse row structure: for each position still basic in an
    /// artificial, the tableau row `eᵢᵀB⁻¹A` is formed with one BTRAN and
    /// priced against the real columns only; the first nonzero becomes the
    /// pivot. These pivots are counted in the deterministic budget exactly
    /// like ordinary ones (they are bounded by the row count, so no
    /// iteration valve applies). Positions with an all-zero row are
    /// redundant constraints and keep their artificial basic at zero.
    fn purge_artificials(&mut self) {
        let m = self.m();
        let mut v = vec![0.0f64; m];
        let mut w = vec![0.0f64; m];
        for pos in 0..m {
            if self.basis[pos] < self.n_real {
                continue;
            }
            v.iter_mut().for_each(|x| *x = 0.0);
            v[pos] = 1.0;
            self.etas.btran(&mut v);
            let entering =
                (0..self.n_real).find(|&j| !self.in_basis[j] && self.a.col_dot(j, &v).abs() > EPS);
            if let Some(j) = entering {
                w.iter_mut().for_each(|x| *x = 0.0);
                self.a.scatter(j, &mut w);
                self.etas.ftran(&mut w);
                // The artificial sits at (numerically) zero, so this pivot
                // cannot lose feasibility regardless of the pivot sign.
                self.pivot(pos, j, &w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Solves the LP relaxation of `model` with `overrides` applied.
pub(crate) fn solve_lp(
    model: &Model,
    overrides: &BoundOverrides,
) -> Result<LpSolution, SolveError> {
    solve_lp_warm(model, overrides, MAX_SIMPLEX_ITERS, None)
}

/// [`solve_lp`] with an optional warm-start basis from a parent node.
pub(crate) fn solve_lp_warm(
    model: &Model,
    overrides: &BoundOverrides,
    max_iters: u64,
    warm: Option<&WarmBasis>,
) -> Result<LpSolution, SolveError> {
    solve_lp_warm_gmi(model, overrides, max_iters, warm, false).map(|(lp, _)| lp)
}

/// [`solve_lp_warm`] that additionally separates Gomory mixed-integer
/// cuts from the optimal basis when `want_cuts` is set (and the solve was
/// not truncated). Returned cuts are in the model's original variable
/// space, are valid for every integer-feasible point, and are violated by
/// the LP point just returned by more than the separation tolerance.
/// Builds a fresh [`StdForm`] of `model`.
pub(crate) fn solve_lp_warm_gmi(
    model: &Model,
    overrides: &BoundOverrides,
    max_iters: u64,
    warm: Option<&WarmBasis>,
    want_cuts: bool,
) -> Result<(LpSolution, Vec<crate::model::Constraint>), SolveError> {
    let (lo, hi) = bounds(model, overrides)?;
    let form = StdForm::new(model, &hi);
    solve_bound(&form, model, lo, &hi, max_iters, warm, want_cuts)
}

/// [`solve_lp_warm`] in `form`, a form of `model` built by
/// [`StdForm::new`] (one per branch-and-bound tree). A node whose overrides
/// give a variable an upper bound the form has no row for builds a fresh
/// form of its own. Either way the solve is bit-identical to
/// [`solve_lp_warm`].
pub(crate) fn solve_lp_in(
    form: &StdForm,
    model: &Model,
    overrides: &BoundOverrides,
    max_iters: u64,
    warm: Option<&WarmBasis>,
) -> Result<LpSolution, SolveError> {
    let (lo, hi) = bounds(model, overrides)?;
    let fresh;
    let form = if form.fits(&hi) {
        form
    } else {
        fresh = StdForm::new(model, &hi);
        &fresh
    };
    solve_bound(form, model, lo, &hi, max_iters, warm, false).map(|(lp, _)| lp)
}

/// The two-phase (or warm dual) solve of `form` bound to `lo`/`hi`.
fn solve_bound(
    form: &StdForm,
    model: &Model,
    lo: Vec<f64>,
    hi: &[f64],
    max_iters: u64,
    warm: Option<&WarmBasis>,
    want_cuts: bool,
) -> Result<(LpSolution, Vec<crate::model::Constraint>), SolveError> {
    let Bound {
        a,
        lo,
        rhs,
        b,
        basis,
        c2,
        obj_shift,
    } = form.bind(model, lo, hi);
    let n = lo.len();
    let m = b.len();
    let n_real = form.n_real;
    let ncols = a.ncols();
    let n_art = ncols - n_real;

    // Warm start: adopt the supplied basis when it fits inside the new
    // system (`rows`/`cols` no larger, every basic column real in the old
    // system), extended for any appended rows, provided the candidate
    // refactors. Three outcomes, checked in order:
    //
    // 1. **Primal feasible** — the old optimum still stands under the new
    //    bounds/rows: phase 1 is skipped entirely and phase 2 confirms
    //    optimality (usually in zero pivots).
    // 2. **Primal infeasible but dual feasible** (no artificial basic and
    //    every nonbasic reduced cost ≤ 0 against the phase-2 costs) — the
    //    typical state after branching tightened a bound or a cut row was
    //    appended: the **dual simplex** re-solves from here, no phase 1.
    //    Appended rows enter basic on their *slack* column when they have
    //    one precisely to keep this candidate artificial-free — a `≥` cut
    //    row's natural basis entry would be an artificial, forcing the
    //    warm phase 1 below.
    // 3. Otherwise (an artificial landed in the basis — an appended `=`
    //    row, or an old redundant-row artificial was substituted) — a
    //    *warm* phase 1 drives the few artificials out from the
    //    near-feasible starting point.
    //
    // All checks are pure functions of the model, so the decision is
    // deterministic, and a basis from a foreign model can at worst fail
    // the checks and fall back to a cold start.
    let mut adopted: Option<Rsm> = None;
    let mut dual_warm = false;
    if let Some(wb) = warm {
        if wb.cols <= n_real {
            // Positions holding an old *artificial* (col ≥ wb.cols — kept
            // basic at zero by a redundant row) cannot map into the new
            // system; substitute the new system's natural column for that
            // row and let the gates below sort it out. A basis recorded on
            // a system with *more* rows (a remapped entry from a drifted
            // model) contributes its leading rows only — the truncation is
            // a guess, and the refactorization below is what validates it.
            let take = wb.basis.len().min(m);
            let mut cand_basis: Vec<usize> = wb.basis[..take]
                .iter()
                .enumerate()
                .map(|(i, &c)| if c < wb.cols { c } else { basis[i] })
                .collect();
            cand_basis.extend(
                form.slack_col_of_row[take..]
                    .iter()
                    .zip(&basis[take..])
                    .map(|(slack, &natural)| slack.unwrap_or(natural)),
            );
            let mut cand = Rsm::new(&a, b.clone(), n_real, cand_basis);
            if cand.refactor() {
                cand.refactors = 0; // setup, not a mid-solve refactorization
                if cand.xb.iter().all(|&x| x >= -1e-7) {
                    for x in cand.xb.iter_mut() {
                        if *x < 0.0 {
                            *x = 0.0;
                        }
                    }
                    adopted = Some(cand);
                } else if cand.basis.iter().all(|&c| c < n_real) {
                    // One BTRAN prices every nonbasic real column against
                    // the phase-2 costs; nonpositive reduced costs
                    // certify the old optimum is still dual feasible.
                    let mut y = vec![0.0f64; m];
                    for (pos, &col) in cand.basis.iter().enumerate() {
                        if c2[col] != 0.0 {
                            y[pos] = c2[col];
                        }
                    }
                    cand.etas.btran(&mut y);
                    let dual_ok =
                        (0..n_real).all(|j| cand.in_basis[j] || c2[j] - a.col_dot(j, &y) <= 1e-7);
                    if dual_ok {
                        dual_warm = true;
                        adopted = Some(cand);
                    }
                }
            }
        }
    }

    let mut warmed = adopted.is_some();
    // Work spent on a dual walk that stalled before reaching feasibility:
    // carried into the cold restart's counters so the deterministic pivot
    // budget stays honest.
    let mut spent = (0u64, 0u64, 0u64);
    let dual_fallback = 'warm: {
        if let Some(mut r) = adopted {
            if dual_warm {
                match r.dual_optimize(&c2, n_real, max_iters)? {
                    (_, false) => break 'warm Some(r),
                    (_, true) => {
                        // The valve fired mid-walk: the basis may still be
                        // primal infeasible, which phase 2 cannot start
                        // from. Discard it and cold-start below.
                        spent = (r.pivots, r.dual_pivots, r.refactors);
                        warmed = false;
                        break 'warm None;
                    }
                }
            }
            // Appended rows may have installed artificials in the adopted
            // basis; a warm phase 1 drives them out from the near-feasible
            // starting point (far cheaper than cold phase 1 over all rows).
            if n_art > 0 && r.basis.iter().any(|&c| c >= n_real) {
                let mut c1 = vec![0.0f64; ncols];
                c1[n_real..].fill(-1.0);
                let (z, truncated) = r.optimize(&c1, ncols, max_iters)?;
                if truncated {
                    return Err(SolveError::NodeLimit);
                }
                if z < -1e-7 {
                    return Err(SolveError::Infeasible);
                }
                r.purge_artificials();
            }
            Some(r)
        } else {
            None
        }
    };
    let mut rsm = match dual_fallback {
        Some(r) => r,
        None => {
            let mut r = Rsm::new(&a, b, n_real, basis);
            r.pivots += spent.0;
            r.dual_pivots += spent.1;
            r.refactors += spent.2;
            // Phase 1: maximize -(sum of artificials).
            if n_art > 0 {
                let mut c1 = vec![0.0f64; ncols];
                c1[n_real..].fill(-1.0);
                let (z, truncated) = r.optimize(&c1, ncols, max_iters)?;
                if truncated {
                    // An unfinished phase 1 cannot certify feasibility;
                    // there is no usable incumbent to hand back.
                    return Err(SolveError::NodeLimit);
                }
                if z < -1e-7 {
                    return Err(SolveError::Infeasible);
                }
                r.purge_artificials();
            }
            r
        }
    };

    // Phase 2: the real objective. After a completed dual walk this is a
    // single no-op pricing pass confirming optimality.
    let (z, truncated) = rsm.optimize(&c2, n_real, max_iters)?;

    let mut values = vec![0.0f64; n];
    for (pos, &col) in rsm.basis.iter().enumerate() {
        if col < n {
            values[col] = rsm.xb[pos];
        }
    }
    for (v, l) in values.iter_mut().zip(&lo) {
        *v += l;
    }
    let objective = form.sign * (z + obj_shift);

    let cuts = if want_cuts && !truncated {
        gomory_cuts(model, form, &lo, &rhs, &rsm, &values)
    } else {
        Vec::new()
    };

    Ok((
        LpSolution {
            values,
            objective,
            pivots: rsm.pivots,
            dual_pivots: rsm.dual_pivots,
            refactors: rsm.refactors,
            truncated,
            basis: Some(WarmBasis {
                rows: m,
                cols: n_real,
                basis: rsm.basis,
            }),
            warmed,
        },
        cuts,
    ))
}

/// Separation tolerance: a cut must beat the root point by this much to be
/// worth a re-solve (and for the violation to be numerically trustworthy).
const CUT_VIOLATION_TOL: f64 = 1e-6;

/// Coefficient-dynamism cap: a cut whose nonzero coefficients span more
/// than this ratio is numerically fragile and gets discarded.
const CUT_DYNAMISM_CAP: f64 = 1e7;

/// Generates Gomory mixed-integer (GMI) cuts from the optimal basis of the
/// just-solved LP, translated back to the model's original variable space.
///
/// For each basis position holding a *structural integer* variable at a
/// fractional value (source rows are scanned in basis-position order, so
/// the cut list is deterministic), the tableau row `eₚᵀB⁻¹A` is formed
/// with one BTRAN, and the standard GMI coefficients are applied to every
/// nonbasic real column — the fractional-part formula for integer
/// structural columns whose shift preserved integrality, the always-valid
/// continuous formula for everything else. Slack terms are substituted
/// away (`s = rhs − Σa·x'` for `≤` rows, the negation for `≥`), the
/// lower-bound shift is undone, and the result lands as a plain `≥`
/// constraint over the original variables.
///
/// Artificial columns are skipped: they are zero at every feasible point,
/// so dropping their (nonnegative-coefficient) terms keeps the cut valid.
/// Cuts that are non-finite, too wide in magnitude
/// ([`CUT_DYNAMISM_CAP`]), or not violated by the current root point by
/// more than [`CUT_VIOLATION_TOL`] are discarded.
///
/// `lo` and `row_rhs` are the solve's lower bounds and shifted, pre-flip
/// right-hand sides ([`Bound`]).
fn gomory_cuts(
    model: &Model,
    form: &StdForm,
    lo: &[f64],
    row_rhs: &[f64],
    rsm: &Rsm<'_>,
    root_values: &[f64],
) -> Vec<crate::model::Constraint> {
    use crate::model::{Constraint, VarId};

    let n = lo.len();
    let n_real = rsm.n_real;
    let n_ub = form.ub_vars.len();
    let m = rsm.m();
    // Inverse map: slack column -> its row.
    let mut row_of_slack: Vec<usize> = vec![usize::MAX; n_real];
    for (i, s) in form.slack_col_of_row.iter().enumerate() {
        if let Some(c) = s {
            row_of_slack[*c] = i;
        }
    }
    // Does the shift x' = x − lo preserve integrality of variable v?
    let int_shifted = |v: usize| model.vars[v].integer && (lo[v] - lo[v].round()).abs() <= 1e-9;

    let mut cuts = Vec::new();
    let mut y = vec![0.0f64; m];
    let mut coef = vec![0.0f64; n];
    for p in 0..m {
        let col = rsm.basis[p];
        if col >= n || !int_shifted(col) {
            continue;
        }
        let xb = rsm.xb[p];
        let f0 = xb - xb.floor();
        if !(0.01..=0.99).contains(&f0) {
            continue;
        }
        // Tableau row p: y = eₚᵀB⁻¹, then ā_j = y·A_j per nonbasic column.
        y.iter_mut().for_each(|v| *v = 0.0);
        y[p] = 1.0;
        rsm.etas.btran(&mut y);
        coef.iter_mut().for_each(|v| *v = 0.0);
        // Cut over nonbasic variables: Σ γ_j t_j ≥ 1 (all nonbasic sit at
        // zero in this standard-form system, so the classic GMI applies).
        let mut rhs_cut = 1.0f64;
        for j in 0..n_real {
            if rsm.in_basis[j] {
                continue;
            }
            let abar = rsm.a.col_dot(j, &y);
            if abar.abs() <= 1e-11 {
                continue;
            }
            let gamma = if j < n && int_shifted(j) {
                let fj = abar - abar.floor();
                if fj <= f0 {
                    fj / f0
                } else {
                    (1.0 - fj) / (1.0 - f0)
                }
            } else if abar > 0.0 {
                abar / f0
            } else {
                -abar / (1.0 - f0)
            };
            if gamma.abs() <= 1e-11 {
                continue;
            }
            if j < n {
                coef[j] += gamma;
            } else {
                // Slack substitution against the pre-flip row: the flip
                // sign cancels out of the slack's defining equation, so
                // `≤` gives s = rhs − Σa·x' and `≥` gives s = Σa·x' − rhs.
                let i = row_of_slack[j];
                let ub_term;
                let row_terms: &[(VarId, f64)] = if i < n_ub {
                    ub_term = [(VarId(form.ub_vars[i]), 1.0)];
                    &ub_term
                } else {
                    &model.constraints[i - n_ub].terms
                };
                match form.ops[i] {
                    Cmp::Le => {
                        rhs_cut -= gamma * row_rhs[i];
                        for &(v, av) in row_terms {
                            coef[v.index()] -= gamma * av;
                        }
                    }
                    Cmp::Ge => {
                        rhs_cut += gamma * row_rhs[i];
                        for &(v, av) in row_terms {
                            coef[v.index()] += gamma * av;
                        }
                    }
                    Cmp::Eq => unreachable!("Eq rows have no slack"),
                }
            }
        }
        // Undo the lower-bound shift and assemble the constraint.
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut rhs = rhs_cut;
        let mut max_c = 0.0f64;
        let mut min_c = f64::INFINITY;
        let mut ok = rhs_cut.is_finite();
        for (v, &c) in coef.iter().enumerate() {
            if c.abs() <= 1e-12 {
                continue;
            }
            if !c.is_finite() {
                ok = false;
                break;
            }
            rhs += c * lo[v];
            max_c = max_c.max(c.abs());
            min_c = min_c.min(c.abs());
            terms.push((VarId(v), c));
        }
        if !ok || terms.is_empty() || !rhs.is_finite() || max_c > min_c * CUT_DYNAMISM_CAP {
            continue;
        }
        // Keep only cuts the root point actually violates.
        let lhs_now: f64 = terms.iter().map(|&(v, c)| c * root_values[v.index()]).sum();
        if lhs_now >= rhs - CUT_VIOLATION_TOL {
            continue;
        }
        cuts.push(Constraint {
            terms,
            op: Cmp::Ge,
            rhs,
        });
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::solve_lp_dense;
    use crate::model::{Model, Sense};

    #[test]
    fn lp_relaxation_of_fractional_problem() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constraint(vec![(x, 2.0)], Cmp::Le, 3.0);
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!((lp.values[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn bound_overrides_apply() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Le, 8.0);
        let mut ov = BoundOverrides::default();
        ov.entries.push((0, 0.0, 2.0));
        let lp = solve_lp(&m, &ov).unwrap();
        assert!((lp.values[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn conflicting_overrides_are_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", 0.0, 10.0, 1.0, false);
        let mut ov = BoundOverrides::default();
        ov.entries.push((0, 5.0, 10.0));
        ov.entries.push((0, 0.0, 3.0));
        assert_eq!(solve_lp(&m, &ov).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn equality_only_system() {
        // x + y = 4, x - y = 2 -> unique point (3, 1).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 0.0, false);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 2.0);
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!((lp.values[0] - 3.0).abs() < 1e-6);
        assert!((lp.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x <= -2  (i.e. x >= 2) with max -x: optimum at x = 2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, -1.0, false);
        m.add_constraint(vec![(x, -1.0)], Cmp::Le, -2.0);
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!((lp.values[0] - 2.0).abs() < 1e-6);
        assert!((lp.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_constraints_are_harmless() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 5.0, 1.0, false);
        for _ in 0..10 {
            m.add_constraint(vec![(x, 1.0)], Cmp::Le, 3.0);
        }
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!((lp.values[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn free_objective_vars_stay_at_lower_bound() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 1.5, 8.0, 0.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Le, 7.0);
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        // Zero objective: any feasible x; must respect lo shift correctly.
        assert!((1.5..=7.0 + 1e-9).contains(&lp.values[0]));
    }

    #[test]
    fn beale_cycling_example_reaches_optimum() {
        // Beale's classic LP makes Dantzig pricing cycle forever without an
        // anti-cycling guard. The degenerate-streak fallback to Bland must
        // carry it to the true optimum z = 0.05 (a = 1/25, c = 1).
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var("a", 0.0, f64::INFINITY, 0.75, false);
        let b = m.add_var("b", 0.0, f64::INFINITY, -150.0, false);
        let c = m.add_var("c", 0.0, f64::INFINITY, 0.02, false);
        let d = m.add_var("d", 0.0, f64::INFINITY, -6.0, false);
        m.add_constraint(
            vec![(a, 0.25), (b, -60.0), (c, -0.04), (d, 9.0)],
            Cmp::Le,
            0.0,
        );
        m.add_constraint(
            vec![(a, 0.5), (b, -90.0), (c, -0.02), (d, 3.0)],
            Cmp::Le,
            0.0,
        );
        m.add_constraint(vec![(c, 1.0)], Cmp::Le, 1.0);
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!(!lp.truncated);
        assert!(
            (lp.objective - 0.05).abs() < 1e-6,
            "objective {} != 0.05",
            lp.objective
        );
    }

    #[test]
    fn iteration_valve_reports_truncation_honestly() {
        // A tiny valve stops phase 2 mid-flight: the result must be flagged
        // truncated and still be a feasible point, never a silent "optimum".
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0, 1.0, false);
        let y = m.add_var("y", 0.0, 4.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 6.0);
        let lp = solve_lp_warm(&m, &BoundOverrides::default(), 1, None).unwrap();
        assert!(lp.truncated);
        // Still primal feasible w.r.t. the single row and the bounds.
        assert!(lp.values[0] + lp.values[1] <= 6.0 + 1e-9);
        assert!((0.0..=4.0 + 1e-9).contains(&lp.values[0]));
        assert!((0.0..=4.0 + 1e-9).contains(&lp.values[1]));
        // With a generous valve the same model reaches the optimum 6.
        let full = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!(!full.truncated);
        assert!((full.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints meeting at the optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        m.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        m.add_constraint(vec![(y, 1.0)], Cmp::Le, 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 1.0)], Cmp::Le, 2.0);
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!((lp.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_from_own_optimal_basis_skips_phase_one() {
        // Re-solving from the optimal basis must land on the same optimum
        // with zero pivots (the basis is already dual feasible).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        m.add_constraint(vec![(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let cold = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!(cold.pivots > 0);
        let warm = solve_lp_warm(
            &m,
            &BoundOverrides::default(),
            MAX_SIMPLEX_ITERS,
            cold.basis.as_ref(),
        )
        .unwrap();
        assert_eq!(warm.pivots, 0);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_start_with_tightened_bound_stays_correct() {
        // Branch-and-bound's use case: the child tightens one bound; the
        // parent basis must either carry over or be rejected — never give a
        // wrong optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 5.0, 2.0, true);
        let y = m.add_var("y", 0.0, 5.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 7.5);
        let root = solve_lp(&m, &BoundOverrides::default()).unwrap();
        let mut down = BoundOverrides::default();
        down.entries.push((0, f64::NEG_INFINITY, 3.0));
        let warm = solve_lp_warm(&m, &down, MAX_SIMPLEX_ITERS, root.basis.as_ref()).unwrap();
        let cold = solve_lp(&m, &down).unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    #[test]
    fn refactorization_fires_on_long_solves() {
        // Singleton pivots add almost no eta fill, so the adaptive growth
        // trigger rightly stays quiet; a solve needing more than
        // REFACTOR_PIVOT_CAP pivots must still reinvert at least once via
        // the pivot-count backstop and reach the exact optimum.
        let n = 600;
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| {
                m.add_var(
                    format!("x{i}"),
                    0.0,
                    f64::INFINITY,
                    1.0 + (i % 7) as f64,
                    false,
                )
            })
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            m.add_constraint(vec![(v, 1.0)], Cmp::Le, 1.0 + (i % 3) as f64);
        }
        let lp = solve_lp(&m, &BoundOverrides::default()).unwrap();
        assert!(lp.refactors >= 1, "expected a refactorization");
        let dense = solve_lp_dense(&m, &BoundOverrides::default()).unwrap();
        assert!(
            (lp.objective - dense.objective).abs() < 1e-6,
            "sparse {} vs dense {}",
            lp.objective,
            dense.objective
        );
    }

    /// xorshift64: the bind test's deterministic model generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn small(&mut self, lo: i64, hi: i64) -> f64 {
            (lo + self.below((hi - lo + 1) as u64) as i64) as f64
        }
    }

    /// A random model with every shape the bind must handle: `≥` rows,
    /// whose right-hand side turns negative once branching raises a lower
    /// bound (the row flips), repeated terms in one row, `=` rows, and an
    /// integer variable without an upper bound (`x0`). A final row caps the
    /// sum of all variables, so every relaxation is bounded.
    fn random_bind_model(rng: &mut Rng) -> Model {
        let sense = [Sense::Maximize, Sense::Minimize][rng.below(2) as usize];
        let mut m = Model::new(sense);
        let n = 3 + rng.below(5) as usize;
        let vars: Vec<_> = (0..n)
            .map(|i| {
                let lo = rng.small(0, 1);
                let hi = if i == 0 || rng.below(3) == 0 {
                    f64::INFINITY
                } else {
                    lo + rng.small(1, 4)
                };
                let integer = i == 0 || rng.below(3) != 0;
                m.add_var(format!("x{i}"), lo, hi, rng.small(-4, 4), integer)
            })
            .collect();
        for _ in 0..2 + rng.below(5) {
            let mut terms: Vec<_> = (0..1 + rng.below(4))
                .map(|_| (vars[rng.below(n as u64) as usize], rng.small(-3, 3)))
                .collect();
            if rng.below(3) == 0 {
                terms.push((terms[0].0, rng.small(-2, 2)));
            }
            let op = [Cmp::Le, Cmp::Ge, Cmp::Ge, Cmp::Le, Cmp::Eq][rng.below(5) as usize];
            m.add_constraint(terms, op, rng.small(-2, 6));
        }
        m.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Le, 20.0);
        m
    }

    #[test]
    fn tree_form_bind_is_bit_identical_to_a_fresh_form() {
        let same = |a: &LpSolution, b: &LpSolution| {
            a.values.len() == b.values.len()
                && a.values
                    .iter()
                    .zip(&b.values)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
                && a.objective.to_bits() == b.objective.to_bits()
                && (a.pivots, a.dual_pivots, a.refactors) == (b.pivots, b.dual_pivots, b.refactors)
                && (a.truncated, a.warmed) == (b.truncated, b.warmed)
                && a.basis == b.basis
        };
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut solved, mut flipped, mut fresh_forms, mut repeated, mut eq_rows) = (0, 0, 0, 0, 0);
        for case in 0..1000 {
            let model = random_bind_model(&mut rng);
            repeated += model.constraints.iter().any(|c| {
                c.terms
                    .iter()
                    .enumerate()
                    .any(|(k, t)| c.terms[..k].iter().any(|u| u.0 == t.0))
            }) as usize;
            eq_rows += model.constraints.iter().any(|c| c.op == Cmp::Eq) as usize;
            let hi: Vec<f64> = model.vars.iter().map(|v| v.hi).collect();
            let tree = StdForm::new(&model, &hi);
            let mut ov = BoundOverrides::default();
            let mut warm: Option<WarmBasis> = None;
            for depth in 0..6 {
                // Branch on a random integer variable, down or up.
                let v = loop {
                    let v = rng.below(model.vars.len() as u64) as usize;
                    if model.vars[v].integer {
                        break v;
                    }
                };
                let t = rng.small(0, 3);
                ov.entries.push(if rng.below(2) == 0 {
                    (v, f64::NEG_INFINITY, t)
                } else {
                    (v, t + 1.0, f64::INFINITY)
                });
                let ctx = format!("case {case} depth {depth} overrides {:?}", ov.entries);
                if let Ok((lo, hi)) = bounds(&model, &ov) {
                    if tree.fits(&hi) {
                        let b = tree.bind(&model, lo, &hi);
                        flipped += b
                            .rhs
                            .iter()
                            .zip(&tree.ops)
                            .any(|(&r, &op)| r < 0.0 && op == Cmp::Ge)
                            as usize;
                    } else {
                        fresh_forms += 1;
                    }
                }
                let in_tree = solve_lp_in(&tree, &model, &ov, MAX_SIMPLEX_ITERS, warm.as_ref());
                let fresh = solve_lp_warm(&model, &ov, MAX_SIMPLEX_ITERS, warm.as_ref());
                let dense = solve_lp_dense(&model, &ov);
                match (&in_tree, &fresh, &dense) {
                    (Ok(a), Ok(b), Ok(d)) => {
                        assert!(same(a, b), "{ctx}: tree {a:?} fresh {b:?}");
                        assert!(
                            (a.objective - d.objective).abs() <= 1e-6 * (1.0 + d.objective.abs()),
                            "{ctx}: sparse {} dense {}",
                            a.objective,
                            d.objective
                        );
                        solved += 1;
                    }
                    (Err(a), Err(b), Err(d)) => {
                        assert_eq!((a, b), (d, d), "{ctx}");
                    }
                    _ => panic!("{ctx}: tree {in_tree:?} fresh {fresh:?} dense {dense:?}"),
                }
                match in_tree {
                    Ok(lp) => warm = lp.basis,
                    Err(_) => break,
                }
            }
        }
        assert!(
            solved > 400 && flipped > 100 && fresh_forms > 100 && repeated > 100 && eq_rows > 100,
            "coverage: {solved} solved, {flipped} with a flipped ≥ row, {fresh_forms} fresh forms, \
             {repeated} models with repeated terms, {eq_rows} with = rows"
        );
    }

    /// The dual walk's fallback: a warm walk that hits its iteration valve
    /// discards the basis and cold-starts, with the walk's pivots carried.
    /// The valve is set to the walk's own length `d`, measured by an
    /// unrestricted warm solve, so the walk stops one check short of
    /// optimality; the cold restart runs under the same valve.
    #[test]
    fn dual_walk_valve_falls_back_to_a_cold_start_with_its_pivots_carried() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let (mut completed, mut truncated, mut node_limits) = (0, 0, 0);
        for case in 0..10_000 {
            let model = random_bind_model(&mut rng);
            let Ok(root) = solve_lp(&model, &BoundOverrides::default()) else {
                continue;
            };
            // Pin about half of the variables the root optimum raised to
            // their lower bounds: the walk must pivot each one out, while
            // a cold start solves a smaller problem.
            let mut ov = BoundOverrides::default();
            for (j, var) in model.vars.iter().enumerate() {
                if root.values[j] > var.lo + 0.5 && rng.below(2) == 0 {
                    ov.entries.push((j, f64::NEG_INFINITY, var.lo));
                }
            }
            let warm = root.basis.as_ref();
            let Ok(full) = solve_lp_warm(&model, &ov, MAX_SIMPLEX_ITERS, warm) else {
                continue;
            };
            if !full.warmed || full.dual_pivots == 0 {
                continue; // no dual walk, or it already fell back
            }
            let d = full.dual_pivots;
            let ctx = format!("case {case}, overrides {:?}, walk of {d}", ov.entries);
            // The restart is the cold solve under the same valve, plus the
            // walk's work.
            let (lp, cold) = match (
                solve_lp_warm(&model, &ov, d, warm),
                solve_lp_warm(&model, &ov, d, None),
            ) {
                (Ok(lp), Ok(cold)) => (lp, cold),
                // An unfinished cold phase 1 has no point to return.
                (Err(SolveError::NodeLimit), Err(SolveError::NodeLimit)) => {
                    node_limits += 1;
                    continue;
                }
                (lp, cold) => panic!("{ctx}: fallback {lp:?}, cold {cold:?}"),
            };
            let dense = solve_lp_dense(&model, &ov).expect("the warm solve found an optimum");
            assert!(!lp.warmed, "{ctx}: the walk's basis was kept");
            assert_eq!(
                (lp.pivots, lp.dual_pivots),
                (d + cold.pivots, d),
                "{ctx}: the walk's pivots are not carried"
            );
            assert_eq!(lp.truncated, cold.truncated, "{ctx}");
            assert!(
                lp.values
                    .iter()
                    .zip(&cold.values)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{ctx}: fallback {:?} vs cold {:?}",
                lp.values,
                cold.values
            );
            let tol = 1e-6 * (1.0 + dense.objective.abs());
            if lp.truncated {
                // Honest truncation: a feasible point, no better than the
                // optimum.
                let gain = match model.sense {
                    Sense::Maximize => lp.objective - dense.objective,
                    Sense::Minimize => dense.objective - lp.objective,
                };
                assert!(
                    gain <= tol,
                    "{ctx}: truncated {} beats {}",
                    lp.objective,
                    dense.objective
                );
                let (lo, hi) = bounds(&model, &ov).unwrap();
                for (j, &x) in lp.values.iter().enumerate() {
                    assert!(x >= lo[j] - 1e-6 && x <= hi[j] + 1e-6, "{ctx}: x{j} = {x}");
                }
                for c in &model.constraints {
                    let lhs: f64 = c.terms.iter().map(|&(v, a)| a * lp.values[v.index()]).sum();
                    let ok = match c.op {
                        Cmp::Le => lhs <= c.rhs + 1e-6,
                        Cmp::Ge => lhs >= c.rhs - 1e-6,
                        Cmp::Eq => (lhs - c.rhs).abs() <= 1e-6,
                    };
                    assert!(ok, "{ctx}: row {c:?} reads {lhs}");
                }
                truncated += 1;
            } else {
                assert!(
                    (lp.objective - dense.objective).abs() <= tol,
                    "{ctx}: sparse {} dense {}",
                    lp.objective,
                    dense.objective
                );
                completed += 1;
            }
        }
        assert!(
            completed > 0 && truncated > 0,
            "coverage: {completed} completed and {truncated} truncated fallbacks, \
             {node_limits} node limits"
        );
    }

    #[test]
    fn sparse_and_dense_agree_on_the_doc_example() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        m.add_constraint(vec![(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        let s = solve_lp(&m, &BoundOverrides::default()).unwrap();
        let d = solve_lp_dense(&m, &BoundOverrides::default()).unwrap();
        assert!((s.objective - d.objective).abs() < 1e-9);
        assert_eq!(s.truncated, d.truncated);
    }
}
