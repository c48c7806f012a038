//! Root-node cutting planes: quality scoring ([`select_cuts`]),
//! deterministic deduplication, and the diagnostic [`separate_root_cuts`]
//! entry point.
//!
//! The cuts are **Gomory mixed-integer cuts**, generated at the root LP
//! optimum (sparse engine only). They are derived from the optimal simplex
//! tableau inside [`crate::simplex`] (they need `B⁻¹A` rows) and handed
//! back through the solve call.
//!
//! A cut only ever *removes fractional LP points*: every integer-feasible
//! assignment of the original model satisfies every cut, which is what the
//! cut-validity proptests pin down. Duplicates collapse on the same
//! bit-exact keys as `Model::canonicalize`, so cut lists are a pure
//! function of the model.

use crate::model::{Cmp, Constraint, Model, SolveError};
use crate::simplex::{solve_lp_warm_gmi, BoundOverrides, MAX_SIMPLEX_ITERS};
use std::collections::BTreeSet;

/// Bit-exact identity of a row (same key scheme as
/// `Model::canonicalize`): sorted terms with coefficient bits, plus the
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
    /// The deduplicated cuts, in generation order.
    pub cuts: Vec<Constraint>,
    /// The root LP relaxation point the cuts were separated from.
    pub root_values: Vec<f64>,
    /// The root LP objective.
    pub root_objective: f64,
}

/// Solves `model`'s root LP relaxation with the sparse engine and runs one
/// round of Gomory separation against the optimum, without
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
    let cuts = dedup_cuts(gmi, model);
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
