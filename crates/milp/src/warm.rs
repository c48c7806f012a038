//! Cross-solve warm starts: a fingerprint-keyed store that carries one
//! solve's optimal root basis and incumbent into the next structurally
//! identical model.
//!
//! The paper's Fig.-4 loop re-solves a nearly identical placement MILP
//! every iteration: the variable set is fixed by the circuit, only
//! objective weights and a few constraint right-hand sides drift as
//! penalties and cut sets evolve. Iteration *i*'s optimal basis is then a
//! near-perfect starting point for iteration *i+1*, and its incumbent an
//! immediate pruning bound.
//!
//! The store is keyed by whatever `u64` the caller supplies. Models that
//! *drift* between solves (the placement MILP gains and loses candidate
//! variables as cut channels move) are keyed on the stable identity of
//! the underlying problem, not on the model's shape, and record
//! [`WarmStart::var_names`]; at lookup time [`WarmStart::remap_to`]
//! translates the entry onto the new model's variable space by *name*.
//! Loose keying is safe because nothing in an entry is ever trusted
//! blindly:
//!
//! * the **basis** is adopted only if it still refactors to a usable
//!   (primal- or dual-feasible) point of the new model ([`WarmBasis`]
//!   docs) — a stale basis costs one failed refactorization, never a
//!   wrong answer;
//! * the **incumbent** is replayed against the new model's bounds and rows
//!   and silently dropped if anything violates.
//!
//! Entries are only ever replaced by newer solves under the same key, so
//! the store stays bounded by the number of distinct keys a flow produces
//! (one, for a fixed kernel).

use crate::model::Model;
use crate::simplex::WarmBasis;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Warm-start payload for [`Model::solve_warm`](crate::Model::solve_warm).
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WarmStart {
    /// Root basis of a previous solve (adopted only after revalidation).
    pub basis: Option<WarmBasis>,
    /// Incumbent values of a previous solve, in original variable space
    /// (seeded only if still feasible for the new model).
    pub incumbent: Option<Vec<f64>>,
    /// Variable names of the model this entry was recorded on, in column
    /// order. When present, [`WarmStart::remap_to`] can translate the
    /// basis and incumbent onto a model whose variable set has drifted.
    pub var_names: Option<Vec<String>>,
}

impl WarmStart {
    /// Translates this warm start onto `model`'s variable space.
    ///
    /// With no recorded [`var_names`](WarmStart::var_names), or names
    /// identical to `model`'s, the entry is returned unchanged. Otherwise
    /// structural columns are matched *by name*: the incumbent keeps
    /// matched values (variables new to `model` start at their lower
    /// bound), and the basis keeps matched structural columns while slack
    /// columns and vanished variables are rewritten to an out-of-range
    /// sentinel that basis adoption replaces with the row's natural
    /// column. A remapped entry is revalidated by the solver exactly like
    /// a same-shape one (refactorization, then feasibility gates), so the
    /// worst case of a bad match is one wasted refactorization.
    pub fn remap_to(&self, model: &Model) -> WarmStart {
        let Some(names) = &self.var_names else {
            return self.clone();
        };
        if names.len() == model.vars.len()
            && names.iter().zip(&model.vars).all(|(n, v)| *n == v.name)
        {
            return self.clone();
        }
        let old_index: HashMap<&str, usize> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let new_index: HashMap<&str, usize> = model
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.name.as_str(), i))
            .collect();
        let n_new = model.vars.len();
        let incumbent = self.incumbent.as_ref().map(|old| {
            model
                .vars
                .iter()
                .map(|v| match old_index.get(v.name.as_str()) {
                    Some(&i) if i < old.len() => old[i],
                    _ if v.lo.is_finite() => v.lo,
                    _ => 0.0,
                })
                .collect()
        });
        let basis = self.basis.as_ref().map(|wb| {
            let old_n = names.len();
            let mapped = wb
                .basis
                .iter()
                .map(|&c| match names.get(c).filter(|_| c < old_n) {
                    // Same variable, possibly at a new column.
                    Some(name) => *new_index.get(name.as_str()).unwrap_or(&n_new),
                    // Slack or artificial: no cross-model identity.
                    None => n_new,
                })
                .collect();
            WarmBasis {
                rows: wb.rows,
                cols: n_new,
                basis: mapped,
            }
        });
        WarmStart {
            basis,
            incumbent,
            var_names: Some(model.vars.iter().map(|v| v.name.clone()).collect()),
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A shape-keyed warm-start store shared across solves (and threads) of
/// one flow run.
///
/// `get` counts a hit or miss; `put` records the latest solve's basis and
/// incumbent under the model's key, replacing any previous entry of the
/// same shape.
#[derive(Debug, Default)]
pub struct MilpWarmStore {
    entries: Mutex<HashMap<u64, WarmStart>>,
    stats: Stats,
}

impl MilpWarmStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the warm start recorded for `key`, counting a hit or miss.
    pub fn get(&self, key: u64) -> Option<WarmStart> {
        let found = self
            .entries
            .lock()
            .expect("warm store poisoned")
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Records (or replaces) the warm start for `key`.
    pub fn put(&self, key: u64, warm: WarmStart) {
        self.entries
            .lock()
            .expect("warm store poisoned")
            .insert(key, warm);
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }

    /// Number of stored shapes.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("warm store poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (counters keep accumulating).
    pub fn clear(&self) {
        self.entries.lock().expect("warm store poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Sense};

    fn toy(obj: f64) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", obj);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 1.0);
        m
    }

    #[test]
    fn store_counts_hits_and_misses() {
        let store = MilpWarmStore::new();
        let key = 7;
        assert!(store.get(key).is_none());
        assert_eq!(store.misses(), 1);
        store.put(
            key,
            WarmStart {
                basis: None,
                incumbent: Some(vec![1.0, 0.0]),
                var_names: None,
            },
        );
        let got = store.get(key).expect("stored entry");
        assert_eq!(got.incumbent.as_deref(), Some(&[1.0, 0.0][..]));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn warm_solve_with_stored_start_matches_cold() {
        let store = MilpWarmStore::new();
        let m = toy(3.0);
        let key = 11;
        let cold = m.solve().unwrap();
        store.put(
            key,
            WarmStart {
                basis: cold.root_basis.clone(),
                incumbent: Some(cold.values.clone()),
                var_names: None,
            },
        );
        let warm = m
            .solve_warm(store.get(key).as_ref())
            .expect("warm solve succeeds");
        assert!(warm.warm_used, "stored basis of the same model must adopt");
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(
            warm.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cold.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
