//! Root presolve: bound tightening, singleton-row substitution, and
//! coefficient reduction, run once before branch & bound.
//!
//! The pass is **MILP-preserving, not LP-preserving**: bound rounding on
//! integer variables and Savelsbergh coefficient improvement keep every
//! *integer-feasible* point (and hence the MILP optimum) but deliberately
//! shave fractional vertices off the LP relaxation — that is the point.
//! [`Model::solve_relaxation`](crate::Model::solve_relaxation) therefore
//! never presolves: it stays the exact LP oracle the placer's rounding
//! fallback and the equivalence tests rely on.
//!
//! Rules, applied to a fixpoint (with a generous round cap):
//!
//! * **canonicalization** — `Model::canonicalize` runs first in every
//!   round, so duplicate rows merge *before* the rules below see them and
//!   rows made redundant by fresh bounds drop immediately (this ordering
//!   is what makes the pass idempotent);
//! * **integer bound rounding** — fractional bounds on integer variables
//!   pull to the nearest contained integer;
//! * **singleton rows** — `a·x (≤|≥|=) b` becomes a bound update and the
//!   row is deleted;
//! * **activity bound tightening** — for `Σ aᵢxᵢ ≤ b`, each variable's
//!   bound is tightened against `b` minus the minimum activity of the
//!   remaining terms (and symmetrically for `≥` / both ways for `=`);
//! * **coefficient reduction** — for a `≤` row with a binary variable
//!   whose coefficient exceeds what the rest of the row can absorb, the
//!   coefficient and rhs shrink to the equivalent-over-integers values
//!   (`a ← a − (b − M)`, `b ← M` with `M` the rest's max activity).
//!
//! Infeasibility discovered here (crossed bounds, a row whose best
//! activity cannot reach its rhs) surfaces as the structured
//! [`SolveError::PresolveInfeasible`] instead of leaking into phase 1.
//!
//! Every rule fires only on a strict improvement beyond a tolerance, so a
//! second pass over an already-presolved model finds nothing to do:
//! `presolve(presolve(m)) == presolve(m)` (unit-tested below).
//!
//! Determinism: rows are visited in index order, variables in row-term
//! order; no hashing, no time, no threads — the presolved model is a pure
//! function of the input model.

use crate::model::{Cmp, Model, SolveError};

/// Improvement below this is noise, not a tightening (absolute, on top of
/// a relative component) — firing on smaller deltas would break
/// idempotence and could loop on round-off.
const TIGHTEN_TOL: f64 = 1e-7;

/// Feasibility slack when comparing activities against right-hand sides.
const FEAS_TOL: f64 = 1e-7;

/// Fixpoint round cap. The rules are monotone (bounds only shrink), so
/// this is a backstop against pathological slow convergence, not a knob.
const MAX_ROUNDS: usize = 32;

/// What one presolve pass did: the pass [`Model::solve`](crate::Model::solve)
/// runs before branch and bound, reported in
/// [`Solution::presolve`](crate::Solution::presolve).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveReport {
    /// Constraint rows before the pass.
    pub rows_before: usize,
    /// Constraint rows after the pass.
    pub rows_after: usize,
    /// Rows removed (canonicalization drops + singleton substitutions).
    pub rows_dropped: usize,
    /// Singleton rows converted into bound updates.
    pub singleton_rows: usize,
    /// Variable bounds strictly tightened (integer rounding, singleton
    /// substitution, and activity-based tightening).
    pub bounds_tightened: usize,
    /// Coefficients reduced by the binary-knapsack improvement rule.
    pub coeffs_reduced: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
}

/// Is `x` a binary variable under the current (possibly tightened) bounds?
fn is_binary(m: &Model, v: usize) -> bool {
    let d = &m.vars[v];
    d.integer && d.lo == 0.0 && d.hi == 1.0
}

/// Tightens `hi` to `raw` (rounding down for integer vars). Returns true
/// if the bound strictly improved.
fn tighten_hi(m: &mut Model, v: usize, raw: f64) -> Result<bool, SolveError> {
    if !raw.is_finite() {
        return Ok(false);
    }
    let d = &mut m.vars[v];
    let new = if d.integer {
        (raw + FEAS_TOL).floor()
    } else {
        raw
    };
    if new < d.hi - TIGHTEN_TOL * (1.0 + d.hi.abs().min(1e12)) {
        d.hi = new;
        if d.lo > d.hi + FEAS_TOL {
            return Err(SolveError::PresolveInfeasible(format!(
                "bounds of {} crossed ({} > {})",
                d.name, d.lo, d.hi
            )));
        }
        return Ok(true);
    }
    Ok(false)
}

/// Tightens `lo` to `raw` (rounding up for integer vars). Returns true if
/// the bound strictly improved.
fn tighten_lo(m: &mut Model, v: usize, raw: f64) -> Result<bool, SolveError> {
    if !raw.is_finite() {
        return Ok(false);
    }
    let d = &mut m.vars[v];
    let new = if d.integer {
        (raw - FEAS_TOL).ceil()
    } else {
        raw
    };
    if new > d.lo + TIGHTEN_TOL * (1.0 + d.lo.abs().min(1e12)) {
        d.lo = new;
        if d.lo > d.hi + FEAS_TOL {
            return Err(SolveError::PresolveInfeasible(format!(
                "bounds of {} crossed ({} > {})",
                d.name, d.lo, d.hi
            )));
        }
        return Ok(true);
    }
    Ok(false)
}

/// Min/max activity contribution of one term under the current bounds.
fn contrib(m: &Model, v: usize, a: f64) -> (f64, f64) {
    let d = &m.vars[v];
    if a > 0.0 {
        (a * d.lo, a * d.hi)
    } else {
        (a * d.hi, a * d.lo)
    }
}

/// Activity summary of a row: finite parts of the min/max activity plus
/// the count of infinite contributions on each side.
struct Activity {
    min_fin: f64,
    max_fin: f64,
    n_min_inf: usize,
    n_max_inf: usize,
}

fn activity(m: &Model, terms: &[(crate::model::VarId, f64)]) -> Activity {
    let mut act = Activity {
        min_fin: 0.0,
        max_fin: 0.0,
        n_min_inf: 0,
        n_max_inf: 0,
    };
    for &(v, a) in terms {
        let (lo, hi) = contrib(m, v.index(), a);
        if lo.is_finite() {
            act.min_fin += lo;
        } else {
            act.n_min_inf += 1;
        }
        if hi.is_finite() {
            act.max_fin += hi;
        } else {
            act.n_max_inf += 1;
        }
    }
    act
}

/// Min activity of the row excluding term `j`, or `None` when unbounded.
fn others_min(act: &Activity, c_min: f64) -> Option<f64> {
    match (act.n_min_inf, c_min.is_finite()) {
        (0, true) => Some(act.min_fin - c_min),
        (1, false) => Some(act.min_fin),
        _ => None,
    }
}

/// Max activity of the row excluding term `j`, or `None` when unbounded.
fn others_max(act: &Activity, c_max: f64) -> Option<f64> {
    match (act.n_max_inf, c_max.is_finite()) {
        (0, true) => Some(act.max_fin - c_max),
        (1, false) => Some(act.max_fin),
        _ => None,
    }
}

/// Runs the presolve pass on `m` in place and reports what it did.
/// [`Model::solve`](crate::Model::solve) calls it on a clone, so the
/// caller's model is never mutated, unless
/// [`Model::set_presolve`](crate::Model::set_presolve) disabled it.
///
/// # Errors
///
/// [`SolveError::PresolveInfeasible`] when a rule proves the model has no
/// integer-feasible point.
pub(crate) fn run(m: &mut Model) -> Result<PresolveReport, SolveError> {
    let mut rep = PresolveReport {
        rows_before: m.constraints.len(),
        ..PresolveReport::default()
    };

    // Integer bound rounding, once up front (the loop below re-rounds any
    // bound it touches).
    for v in 0..m.vars.len() {
        let d = &m.vars[v];
        if !d.integer {
            continue;
        }
        let (lo, hi) = (d.lo, d.hi);
        if lo.is_finite() {
            let r = (lo - FEAS_TOL).ceil();
            if r > lo + TIGHTEN_TOL {
                m.vars[v].lo = r;
                rep.bounds_tightened += 1;
            }
        }
        if hi.is_finite() {
            let r = (hi + FEAS_TOL).floor();
            if r < hi - TIGHTEN_TOL {
                m.vars[v].hi = r;
                rep.bounds_tightened += 1;
            }
        }
        let d = &m.vars[v];
        if d.lo > d.hi + FEAS_TOL {
            return Err(SolveError::PresolveInfeasible(format!(
                "integer bounds of {} contain no integer ({}..{})",
                d.name, d.lo, d.hi
            )));
        }
    }

    for _round in 0..MAX_ROUNDS {
        rep.rounds += 1;
        let mut changed = false;

        // Canonicalize first: merged duplicate terms and freshly
        // bound-implied rows must be gone before the row rules run.
        let red = m.canonicalize();
        rep.rows_dropped += red.dropped();
        if red.dropped() > 0 {
            changed = true;
        }

        // A violated empty row survives canonicalization on purpose (the
        // solver used to discover it in phase 1); presolve reports it now.
        if let Some(c) = m.constraints.iter().find(|c| c.terms.is_empty()) {
            return Err(SolveError::PresolveInfeasible(format!(
                "constant row is violated (0 {} {})",
                match c.op {
                    Cmp::Le => "≤",
                    Cmp::Ge => "≥",
                    Cmp::Eq => "=",
                },
                c.rhs
            )));
        }

        // Singleton rows become bound updates; the row itself is dropped.
        let mut kept = Vec::with_capacity(m.constraints.len());
        for idx in 0..m.constraints.len() {
            let c = m.constraints[idx].clone();
            if c.terms.len() != 1 {
                kept.push(c);
                continue;
            }
            let (v, a) = (c.terms[0].0.index(), c.terms[0].1);
            let bound = c.rhs / a;
            let t = match (c.op, a > 0.0) {
                (Cmp::Le, true) | (Cmp::Ge, false) => tighten_hi(m, v, bound)?,
                (Cmp::Le, false) | (Cmp::Ge, true) => tighten_lo(m, v, bound)?,
                (Cmp::Eq, _) => {
                    let a1 = tighten_hi(m, v, bound)?;
                    let a2 = tighten_lo(m, v, bound)?;
                    // The row pins v to `bound`; if that misses the box
                    // (or, for an integer var, is fractional), the model
                    // has no solution.
                    let d = &m.vars[v];
                    if bound < d.lo - FEAS_TOL
                        || bound > d.hi + FEAS_TOL
                        || (d.integer && (bound - bound.round()).abs() > FEAS_TOL)
                    {
                        return Err(SolveError::PresolveInfeasible(format!(
                            "singleton equality pins {} to {} outside {}..{}",
                            d.name, bound, d.lo, d.hi
                        )));
                    }
                    a1 || a2
                }
            };
            if t {
                rep.bounds_tightened += 1;
            }
            rep.singleton_rows += 1;
            rep.rows_dropped += 1;
            changed = true;
        }
        m.constraints = kept;

        // Activity-based bound tightening and row-infeasibility checks.
        for idx in 0..m.constraints.len() {
            let terms = m.constraints[idx].terms.clone();
            let (op, rhs) = (m.constraints[idx].op, m.constraints[idx].rhs);
            let act = activity(m, &terms);
            match op {
                Cmp::Le | Cmp::Eq => {
                    if act.n_min_inf == 0 && act.min_fin > rhs + FEAS_TOL {
                        return Err(SolveError::PresolveInfeasible(format!(
                            "row {idx}: minimum activity {} exceeds rhs {}",
                            act.min_fin, rhs
                        )));
                    }
                }
                Cmp::Ge => {}
            }
            match op {
                Cmp::Ge | Cmp::Eq => {
                    if act.n_max_inf == 0 && act.max_fin < rhs - FEAS_TOL {
                        return Err(SolveError::PresolveInfeasible(format!(
                            "row {idx}: maximum activity {} cannot reach rhs {}",
                            act.max_fin, rhs
                        )));
                    }
                }
                Cmp::Le => {}
            }
            for &(vid, a) in &terms {
                let v = vid.index();
                let (c_min, c_max) = contrib(m, v, a);
                // ≤ (and =) direction: a·x ≤ rhs − min(rest).
                if op != Cmp::Ge {
                    if let Some(l) = others_min(&act, c_min) {
                        let raw = (rhs - l) / a;
                        let t = if a > 0.0 {
                            tighten_hi(m, v, raw)?
                        } else {
                            tighten_lo(m, v, raw)?
                        };
                        if t {
                            rep.bounds_tightened += 1;
                            changed = true;
                        }
                    }
                }
                // ≥ (and =) direction: a·x ≥ rhs − max(rest).
                if op != Cmp::Le {
                    if let Some(u) = others_max(&act, c_max) {
                        let raw = (rhs - u) / a;
                        let t = if a > 0.0 {
                            tighten_lo(m, v, raw)?
                        } else {
                            tighten_hi(m, v, raw)?
                        };
                        if t {
                            rep.bounds_tightened += 1;
                            changed = true;
                        }
                    }
                }
            }
        }

        // Coefficient reduction on ≤ and ≥ rows with binary variables
        // (a ≥ row is the ≤ row of the negated data).
        for idx in 0..m.constraints.len() {
            let op = m.constraints[idx].op;
            let sign = match op {
                Cmp::Le => 1.0,
                Cmp::Ge => -1.0,
                Cmp::Eq => continue,
            };
            let terms = m.constraints[idx].terms.clone();
            let mut rhs = sign * m.constraints[idx].rhs;
            // Max activity of the sign-normalized (≤) row.
            let mut max_fin = 0.0;
            let mut n_max_inf = 0usize;
            for &(v, a) in &terms {
                let (_, hi) = contrib(m, v.index(), sign * a);
                if hi.is_finite() {
                    max_fin += hi;
                } else {
                    n_max_inf += 1;
                }
            }
            if n_max_inf > 0 {
                continue;
            }
            for (ti, &(vid, _)) in terms.iter().enumerate() {
                let v = vid.index();
                if !is_binary(m, v) {
                    continue;
                }
                let a = sign * m.constraints[idx].terms[ti].1;
                if a > 0.0 {
                    // rest's max = M − a (the binary contributes a·1).
                    let rest = max_fin - a;
                    if rest < rhs - TIGHTEN_TOL && a > rhs - rest + TIGHTEN_TOL {
                        let new_a = a - (rhs - rest);
                        m.constraints[idx].terms[ti].1 = sign * new_a;
                        rhs = rest;
                        m.constraints[idx].rhs = sign * rhs;
                        max_fin = rest + new_a;
                        rep.coeffs_reduced += 1;
                        changed = true;
                    }
                } else if a < 0.0 {
                    // rest's max = M (the binary contributes 0 at max).
                    if max_fin > rhs + TIGHTEN_TOL && max_fin < rhs - a - TIGHTEN_TOL {
                        let new_a = rhs - max_fin; // in (a, 0)
                        m.constraints[idx].terms[ti].1 = sign * new_a;
                        rep.coeffs_reduced += 1;
                        changed = true;
                    }
                }
            }
        }

        if !changed {
            break;
        }
    }

    rep.rows_after = m.constraints.len();
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    type RowBits = (Vec<(usize, u64)>, u8, u64);

    fn snapshot(m: &Model) -> (Vec<(f64, f64)>, Vec<RowBits>) {
        (
            m.vars.iter().map(|v| (v.lo, v.hi)).collect(),
            m.constraints
                .iter()
                .map(|c| {
                    (
                        c.terms
                            .iter()
                            .map(|&(v, a)| (v.index(), a.to_bits()))
                            .collect(),
                        c.op as u8,
                        c.rhs.to_bits(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        m.add_constraint(vec![(x, 2.0)], Cmp::Le, 6.0);
        let rep = run(&mut m).unwrap();
        assert_eq!(rep.singleton_rows, 1);
        assert_eq!(m.constraints.len(), 0);
        assert_eq!(m.vars[0].hi, 3.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn activity_tightening_rounds_integer_bounds() {
        // 2x + y <= 3 with y >= 0 gives x <= 1.5, rounded to 1 (integer).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        let y = m.add_var("y", 0.0, 10.0, 0.0, false);
        m.add_constraint(vec![(x, 2.0), (y, 1.0)], Cmp::Le, 3.0);
        let rep = run(&mut m).unwrap();
        assert!(rep.bounds_tightened >= 1, "{rep:?}");
        assert_eq!(m.vars[0].hi, 1.0);
    }

    #[test]
    fn coefficient_reduction_produces_the_clique_row() {
        // 2x + 2y <= 3 on binaries reduces (twice) to x + y <= 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        let rep = run(&mut m).unwrap();
        assert!(rep.coeffs_reduced >= 2, "{rep:?}");
        assert_eq!(m.constraints.len(), 1);
        let c = &m.constraints[0];
        assert_eq!(c.terms.len(), 2);
        assert!((c.terms[0].1 - 1.0).abs() < 1e-9);
        assert!((c.terms[1].1 - 1.0).abs() < 1e-9);
        assert!((c.rhs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn presolve_is_idempotent() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 3.0);
        let y = m.add_binary("y", 2.0);
        let z = m.add_var("z", 0.0, 7.5, 1.0, true);
        let w = m.add_var("w", 0.0, 100.0, 0.5, false);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        m.add_constraint(vec![(z, 1.0), (w, 1.0)], Cmp::Le, 9.0);
        m.add_constraint(vec![(w, 2.0)], Cmp::Le, 10.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Ge, 1.0);
        let rep1 = run(&mut m).unwrap();
        assert!(rep1.rows_dropped > 0 || rep1.bounds_tightened > 0);
        let snap1 = snapshot(&m);
        let rep2 = run(&mut m).unwrap();
        assert_eq!(snapshot(&m), snap1, "second presolve changed the model");
        assert_eq!(rep2.bounds_tightened, 0);
        assert_eq!(rep2.coeffs_reduced, 0);
        assert_eq!(rep2.singleton_rows, 0);
    }

    #[test]
    fn crossed_singleton_bounds_are_structured_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert!(matches!(
            run(&mut m),
            Err(SolveError::PresolveInfeasible(_))
        ));
    }

    #[test]
    fn unreachable_row_activity_is_structured_infeasible() {
        // x + y >= 5 with x,y <= 1: max activity 2 < 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        assert!(matches!(
            run(&mut m),
            Err(SolveError::PresolveInfeasible(_))
        ));
    }

    #[test]
    fn fractional_integer_pin_is_structured_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constraint(vec![(x, 2.0)], Cmp::Eq, 5.0);
        assert!(matches!(
            run(&mut m),
            Err(SolveError::PresolveInfeasible(_))
        ));
    }

    #[test]
    fn presolved_optimum_matches_unpresolved() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 3.0);
        let y = m.add_binary("y", 2.0);
        let z = m.add_var("z", 0.0, 2.0, 1.0, false);
        m.add_constraint(vec![(x, 2.0), (y, 1.0), (z, 1.0)], Cmp::Le, 3.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let mut plain = m.clone();
        plain.set_presolve(false);
        plain.set_cut_rounds(0);
        let a = plain.solve().unwrap();
        let b = m.solve().unwrap();
        assert!(
            (a.objective - b.objective).abs() < 1e-6,
            "presolved {} vs oracle {}",
            b.objective,
            a.objective
        );
    }
}
