//! Root-node cutting planes: knapsack cover separation, quality scoring
//! ([`select_cuts`]), deterministic deduplication, and the diagnostic
//! [`separate_root_cuts`] entry point.
//!
//! Two families are generated at the root LP optimum (sparse engine only):
//!
//! * **Gomory mixed-integer cuts** — derived from the optimal simplex
//!   tableau inside [`crate::simplex`] (they need `B⁻¹A` rows) and handed
//!   back through the solve call;
//! * **knapsack cover cuts** — separated here from the model rows and the
//!   root LP point alone: for a `≤` row over binary variables (negative
//!   coefficients complemented away), a greedy cover `C` with
//!   `Σ_C w_j > b` yields `Σ_C y_j ≤ |C| − 1`.
//!
//! Both families only ever *remove fractional LP points*: every
//! integer-feasible assignment of the original model satisfies every cut,
//! which is what the cut-validity proptests pin down. Separation is
//! deterministic — rows in index order, greedy ties broken on the variable
//! index, duplicates collapsed with the same bit-exact keys as
//! [`Model::canonicalize`](crate::Model::canonicalize) — so cut lists are
//! a pure function of the model.

use crate::model::{Cmp, Constraint, Model, SolveError, VarId};
use crate::simplex::{solve_lp_warm_gmi, BoundOverrides, MAX_SIMPLEX_ITERS};
use std::collections::BTreeSet;

/// Minimum violation of the root point for a cover cut to be emitted.
const COVER_VIOLATION_TOL: f64 = 1e-6;

/// Separates knapsack cover cuts from `model`'s rows at the LP point
/// `values`. Only `≤` rows whose every term is a binary variable
/// participate; rows are scanned in index order and each row contributes
/// at most one (greedy) cover.
pub(crate) fn cover_cuts(model: &Model, values: &[f64]) -> Vec<Constraint> {
    let is_binary = |v: usize| {
        let d = &model.vars[v];
        d.integer && d.lo == 0.0 && d.hi == 1.0
    };
    let mut cuts = Vec::new();
    for c in &model.constraints {
        if c.op != Cmp::Le || c.terms.len() < 2 {
            continue;
        }
        if !c
            .terms
            .iter()
            .all(|&(v, a)| a != 0.0 && is_binary(v.index()))
        {
            continue;
        }
        // Complement negative coefficients (y = 1 − x) so every weight is
        // positive: Σ a⁺x + Σ (−a⁻)(1−x) ≤ b − Σ a⁻ = b'.
        let b_c: f64 = c.rhs - c.terms.iter().map(|t| t.1.min(0.0)).sum::<f64>();
        if b_c <= 0.0 {
            continue;
        }
        // Items: (variable, weight, y-value at the root, complemented?).
        let items: Vec<(usize, f64, f64, bool)> = c
            .terms
            .iter()
            .map(|&(v, a)| {
                let x = values[v.index()].clamp(0.0, 1.0);
                if a > 0.0 {
                    (v.index(), a, x, false)
                } else {
                    (v.index(), -a, 1.0 - x, true)
                }
            })
            .collect();
        let total: f64 = items.iter().map(|i| i.1).sum();
        if total <= b_c + 1e-9 {
            continue; // no cover exists
        }
        // Greedy cover: take items in ascending (1 − y)/w — the ones the
        // LP point uses most aggressively first — until the weight budget
        // overflows. Ties break on the variable index.
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&i, &j| {
            let ri = (1.0 - items[i].2) / items[i].1;
            let rj = (1.0 - items[j].2) / items[j].1;
            ri.total_cmp(&rj).then(items[i].0.cmp(&items[j].0))
        });
        let mut cover: Vec<usize> = Vec::new();
        let mut w_sum = 0.0;
        for &i in &order {
            cover.push(i);
            w_sum += items[i].1;
            if w_sum > b_c + 1e-9 {
                break;
            }
        }
        if w_sum <= b_c + 1e-9 {
            continue;
        }
        // Cover inequality Σ_C y ≤ |C| − 1; check violation at the root.
        let y_sum: f64 = cover.iter().map(|&i| items[i].2).sum();
        let cap = cover.len() as f64 - 1.0;
        if y_sum <= cap + COVER_VIOLATION_TOL {
            continue;
        }
        // Translate back: y = x keeps (v, +1); y = 1 − x becomes (v, −1)
        // with the constant folded into the rhs.
        cover.sort_by_key(|&i| items[i].0);
        let mut rhs = cap;
        let terms: Vec<(VarId, f64)> = cover
            .iter()
            .map(|&i| {
                let (v, _, _, comp) = items[i];
                if comp {
                    rhs -= 1.0;
                    (VarId(v), -1.0)
                } else {
                    (VarId(v), 1.0)
                }
            })
            .collect();
        cuts.push(Constraint {
            terms,
            op: Cmp::Le,
            rhs,
        });
    }
    cuts
}

/// Bit-exact identity of a row (same key scheme as
/// [`Model::canonicalize`]): sorted terms with coefficient bits, plus the
/// operator.
fn row_key(c: &Constraint) -> (Vec<(usize, u64)>, u8) {
    let mut terms: Vec<(usize, u64)> = c
        .terms
        .iter()
        .map(|&(v, a)| (v.index(), a.to_bits()))
        .collect();
    terms.sort_unstable();
    (terms, c.op as u8)
}

/// Drops cuts that duplicate an existing model row or an earlier cut in
/// the batch (first occurrence wins; order otherwise preserved).
pub(crate) fn dedup_cuts(cuts: Vec<Constraint>, model: &Model) -> Vec<Constraint> {
    let mut seen: BTreeSet<(Vec<(usize, u64)>, u8)> =
        model.constraints.iter().map(row_key).collect();
    cuts.into_iter()
        .filter(|c| seen.insert(row_key(c)))
        .collect()
}

/// Per-round budget of the cut scorer: at most this many cuts are admitted
/// per separation round, best score first. Every admitted row taxes each
/// FTRAN/BTRAN of every later LP in the tree, so a short list of deep,
/// mutually diverse cuts beats a long list of shallow ones.
const CUT_ROUND_BUDGET: usize = 12;

/// Near-parallel rejection threshold: a candidate whose (≤-oriented, unit)
/// coefficient direction has cosine similarity above this with an already
/// selected cut adds almost no new facet and is dropped.
const CUT_PARALLEL_MAX: f64 = 0.95;

/// Scores a deduplicated separation round and keeps only the best
/// [`CUT_ROUND_BUDGET`] cuts instead of all of them. Returns the selected
/// cuts in their original generation order.
///
/// The score is the classical **efficacy** — the Euclidean distance the
/// cut pushes the root point `values`, `violation / ‖a‖₂` — boosted by up
/// to 1.5× for **sparsity** (a dense row taxes every later FTRAN/BTRAN
/// more). Candidates are taken greedily in descending score (separation
/// index breaks ties), skipping any whose direction is near-**parallel**
/// (cosine > [`CUT_PARALLEL_MAX`]) to a cut already selected this round.
/// Entirely a pure function of `(cuts, values)`, so the kept set — and
/// with it every downstream pivot — is deterministic.
pub(crate) fn select_cuts(cuts: Vec<Constraint>, values: &[f64], n_vars: usize) -> Vec<Constraint> {
    if cuts.len() <= 1 {
        return cuts;
    }
    // (index, score, ≤-oriented unit direction sorted by variable).
    type Scored = (usize, f64, Vec<(usize, f64)>);
    let n_f = n_vars.max(1) as f64;
    let mut scored: Vec<Scored> = cuts
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let act: f64 = c.terms.iter().map(|&(v, a)| a * values[v.index()]).sum();
            let norm = c.terms.iter().map(|t| t.1 * t.1).sum::<f64>().sqrt();
            let violation = match c.op {
                Cmp::Le => act - c.rhs,
                Cmp::Ge => c.rhs - act,
                Cmp::Eq => (act - c.rhs).abs(),
            };
            let efficacy = if norm > 0.0 {
                violation.max(0.0) / norm
            } else {
                0.0
            };
            let sparsity = (1.0 - c.terms.len() as f64 / n_f).max(0.0);
            let score = efficacy * (1.0 + 0.5 * sparsity);
            let sign = if c.op == Cmp::Ge { -1.0 } else { 1.0 };
            let mut dir: Vec<(usize, f64)> = c
                .terms
                .iter()
                .map(|&(v, a)| (v.index(), sign * a / norm.max(f64::MIN_POSITIVE)))
                .collect();
            dir.sort_unstable_by_key(|&(v, _)| v);
            (k, score, dir)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut keep = vec![false; cuts.len()];
    let mut chosen_dirs: Vec<&[(usize, f64)]> = Vec::new();
    for (k, _, dir) in &scored {
        if chosen_dirs.len() >= CUT_ROUND_BUDGET {
            break;
        }
        if chosen_dirs
            .iter()
            .any(|d| dir_dot(d, dir) > CUT_PARALLEL_MAX)
        {
            continue;
        }
        keep[*k] = true;
        chosen_dirs.push(dir);
    }
    cuts.into_iter()
        .zip(keep)
        .filter_map(|(c, k)| k.then_some(c))
        .collect()
}

/// Sparse dot product of two variable-sorted unit directions (the cosine
/// of the angle between the cuts).
fn dir_dot(a: &[(usize, f64)], b: &[(usize, f64)]) -> f64 {
    let (mut i, mut j, mut dot) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

/// What one round of root-cut separation produced (diagnostic surface for
/// the cut-validity test suite).
#[derive(Debug, Clone)]
pub struct RootCutReport {
    /// The deduplicated cuts, in generation order (GMI first, then covers).
    pub cuts: Vec<Constraint>,
    /// The root LP relaxation point the cuts were separated from.
    pub root_values: Vec<f64>,
    /// The root LP objective.
    pub root_objective: f64,
}

/// Solves `model`'s root LP relaxation with the sparse engine and runs one
/// round of Gomory + cover separation against the optimum, without
/// mutating the model or entering branch & bound. Every returned cut is
/// violated by `root_values`; none excludes any integer-feasible point —
/// the two properties the proptest suite checks directly.
///
/// # Errors
///
/// [`SolveError::Infeasible`] / [`SolveError::Unbounded`] from the root
/// LP, or [`SolveError::NodeLimit`] if the LP iteration valve fired (no
/// optimal tableau means nothing sound to separate from).
pub fn separate_root_cuts(model: &Model) -> Result<RootCutReport, SolveError> {
    let ov = BoundOverrides::default();
    let (lp, gmi) = solve_lp_warm_gmi(model, &ov, MAX_SIMPLEX_ITERS, None, true)?;
    if lp.truncated {
        return Err(SolveError::NodeLimit);
    }
    let mut cuts = gmi;
    cuts.extend(cover_cuts(model, &lp.values));
    let cuts = dedup_cuts(cuts, model);
    Ok(RootCutReport {
        cuts,
        root_values: lp.values,
        root_objective: lp.objective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    #[test]
    fn cover_cut_separates_a_fractional_knapsack_point() {
        // max 4x0+5x1+6x2 st 3x0+4x1+5x2 <= 6: the LP optimum is
        // (1, 0.75, 0) — fractional — and a cut must separate it.
        let mut m = Model::new(Sense::Maximize);
        let items: Vec<VarId> = [4.0, 5.0, 6.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| m.add_binary(format!("i{i}"), v))
            .collect();
        let weights = [3.0, 4.0, 5.0];
        m.add_constraint(
            items.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            Cmp::Le,
            6.0,
        );
        let rep = separate_root_cuts(&m).expect("root LP solves");
        assert!(!rep.cuts.is_empty(), "expected at least one cut");
        // Each cut is violated at the root point…
        for c in &rep.cuts {
            let act: f64 = c
                .terms
                .iter()
                .map(|&(v, a)| a * rep.root_values[v.index()])
                .sum();
            match c.op {
                Cmp::Le => assert!(act > c.rhs + 1e-7, "cut not violated"),
                Cmp::Ge => assert!(act < c.rhs - 1e-7, "cut not violated"),
                Cmp::Eq => panic!("unexpected equality cut"),
            }
        }
        // …and none cuts off the integer optimum (item 2 alone).
        let opt = [0.0, 0.0, 1.0];
        for c in &rep.cuts {
            let act: f64 = c.terms.iter().map(|&(v, a)| a * opt[v.index()]).sum();
            let ok = match c.op {
                Cmp::Le => act <= c.rhs + 1e-7,
                Cmp::Ge => act >= c.rhs - 1e-7,
                Cmp::Eq => (act - c.rhs).abs() <= 1e-7,
            };
            assert!(ok, "cut excludes the integer optimum: {c:?}");
        }
    }

    #[test]
    fn dedup_drops_cuts_already_in_the_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        let dup = Constraint {
            terms: vec![(x, 1.0), (y, 1.0)],
            op: Cmp::Le,
            rhs: 1.0,
        };
        let fresh = Constraint {
            terms: vec![(x, 1.0)],
            op: Cmp::Le,
            rhs: 0.0,
        };
        let kept = dedup_cuts(vec![dup.clone(), fresh.clone(), dup], &m);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0], fresh);
    }
}
