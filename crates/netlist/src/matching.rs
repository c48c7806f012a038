//! Structural correspondence between two optimized netlists.
//!
//! The iterative flow elaborates nearly identical graphs over and over:
//! iteration *i+1* differs from iteration *i* by a handful of buffers, so
//! almost every logic cone survives unchanged — only its [`GateId`]s
//! shift, because elaboration numbers gates by creation order and the new
//! buffers interleave. This module recovers the correspondence purely
//! structurally, so downstream consumers (the FlowMap labeler) can reuse
//! per-gate results from the previous run.
//!
//! The matching is built in two phases:
//!
//! 1. **Startpoints** (constants, primary inputs, register outputs) are
//!    paired by `(origin, kind, ordinal)`: the *n*-th live startpoint of a
//!    given kind created for a given dataflow unit or channel matches the
//!    *n*-th such startpoint of the other netlist. Elaboration emits each
//!    unit's gates in a fixed order independent of the buffer
//!    configuration, so the pairing is stable exactly where reuse matters.
//! 2. **Logic gates** are matched in topological order by *recursive cone
//!    equality*: a gate matches when a previous-netlist gate of the same
//!    kind has the matched images of its resolved fanins, **in the same
//!    order**. Fanin order is deliberately not canonicalized — downstream
//!    cut computations walk fanins in order, and only an order-preserving
//!    isomorphism guarantees they reproduce bit-identical results.
//!
//! A matched gate therefore has its *entire* fanin cone matched, and the
//! two cones are order-isomorphic DAGs. Any deterministic pure function of
//! the cone structure (a FlowMap label, a min-cut) computed on one side is
//! valid on the other after id translation. Soundness does not depend on
//! the startpoint pairing being semantically "right": labels and cuts
//! treat startpoints as opaque leaves, so any injective pairing yields
//! correct reuse — pairing quality only affects the hit rate.

use crate::gate::{GateId, GateKind, Origin};
use crate::netgraph::Netlist;
use dataflow::collections::HashMap;

/// A gate-level correspondence `cur → prev` (and its inverse) between the
/// live gates of two netlists, as produced by [`match_netlists`].
#[derive(Debug, Default)]
pub struct NetlistMatching {
    /// Current-netlist gate → previous-netlist gate.
    pub cur_to_prev: HashMap<GateId, GateId>,
    /// Previous-netlist gate → current-netlist gate (the inverse map).
    pub prev_to_cur: HashMap<GateId, GateId>,
    /// Live logic gates of the current netlist that found a match.
    pub matched_logic: usize,
    /// Live logic gates of the current netlist left unmatched.
    pub unmatched_logic: usize,
}

impl NetlistMatching {
    /// Flattens the two hash maps into gate-index-addressed arrays for hot
    /// consumers (the seeded FlowMap labeler translates every cut gate of
    /// every reused label through these): `(cur_of_prev, prev_of_cur)`,
    /// indexed by `GateId::index()` with `u32::MAX` marking an unmatched
    /// gate. Entries beyond the given gate counts are dropped — callers
    /// pass the true gate counts of the two netlists.
    pub fn dense_maps(&self, prev_gates: usize, cur_gates: usize) -> (Vec<u32>, Vec<u32>) {
        let mut cur_of_prev = vec![u32::MAX; prev_gates];
        let mut prev_of_cur = vec![u32::MAX; cur_gates];
        for (&c, &p) in &self.cur_to_prev {
            if let Some(slot) = prev_of_cur.get_mut(c.index()) {
                *slot = p.index() as u32;
            }
        }
        for (&p, &c) in &self.prev_to_cur {
            if let Some(slot) = cur_of_prev.get_mut(p.index()) {
                *slot = c.index() as u32;
            }
        }
        (cur_of_prev, prev_of_cur)
    }
}

/// Resolved, adjacent-deduplicated fanins — the exact view downstream cut
/// computation uses, so matched cones are order-isomorphic under it.
fn resolved_fanins(nl: &Netlist, id: GateId) -> Vec<GateId> {
    let mut f: Vec<GateId> = nl.gate(id).fanin().iter().map(|&x| nl.resolve(x)).collect();
    f.dedup();
    f
}

/// Live startpoints grouped and ordered: `(origin, kind) → [GateId...]` in
/// gate-creation order. `GateKind::Const` carries its value, so constants
/// group by value automatically.
fn startpoint_groups(nl: &Netlist) -> HashMap<(Origin, GateKind), Vec<GateId>> {
    let live = nl.live_mask();
    let mut groups: HashMap<(Origin, GateKind), Vec<GateId>> = HashMap::default();
    for (id, g) in nl.gates() {
        if live[id.index()] && g.kind().is_startpoint() {
            groups.entry((g.origin(), g.kind())).or_default().push(id);
        }
    }
    groups
}

/// Builds the structural matching from `prev` to `cur`.
///
/// Both netlists must be optimized ([`Netlist::optimize`]): the matcher
/// relies on structural hashing having removed duplicate live logic gates,
/// so the `(kind, ordered fanins)` key identifies at most one live gate
/// per netlist. Duplicate keys (possible among gates optimization left
/// dead, or in unoptimized input) are dropped from the candidate table
/// rather than guessed at.
pub fn match_netlists(prev: &Netlist, cur: &Netlist) -> NetlistMatching {
    let mut m = NetlistMatching::default();

    // Phase 1: startpoints by (origin, kind, ordinal).
    let prev_groups = startpoint_groups(prev);
    for (key, cur_ids) in startpoint_groups(cur) {
        if let Some(prev_ids) = prev_groups.get(&key) {
            for (&c, &p) in cur_ids.iter().zip(prev_ids.iter()) {
                m.cur_to_prev.insert(c, p);
                m.prev_to_cur.insert(p, c);
            }
        }
    }

    // Candidate table: (kind, resolved fanins) → unique live prev gate.
    let prev_live = prev.live_mask();
    let mut table: HashMap<(GateKind, Vec<GateId>), Option<GateId>> = HashMap::default();
    for (id, g) in prev.gates() {
        if !prev_live[id.index()] || !g.kind().is_logic() {
            continue;
        }
        table
            .entry((g.kind(), resolved_fanins(prev, id)))
            .and_modify(|slot| *slot = None) // duplicate key: refuse to match
            .or_insert(Some(id));
    }

    // Phase 2: logic gates in topological order, so a gate's fanins are
    // decided before the gate itself.
    let Ok(order) = cur.topo_logic() else {
        // A combinational cycle means mapping will fail anyway; return the
        // startpoint-only matching.
        return m;
    };
    let mut key_buf: Vec<GateId> = Vec::new();
    for id in order {
        let g = cur.gate(id);
        if !g.kind().is_logic() {
            continue; // skip aliases
        }
        key_buf.clear();
        let mut all_matched = true;
        for f in resolved_fanins(cur, id) {
            match m.cur_to_prev.get(&f) {
                Some(&p) => key_buf.push(p),
                None => {
                    all_matched = false;
                    break;
                }
            }
        }
        let hit = if all_matched {
            table
                .get(&(g.kind(), key_buf.clone()))
                .copied()
                .flatten()
                // A prev gate may only be claimed once (injectivity).
                .filter(|p| !m.prev_to_cur.contains_key(p))
        } else {
            None
        };
        match hit {
            Some(p) => {
                m.cur_to_prev.insert(id, p);
                m.prev_to_cur.insert(p, id);
                m.matched_logic += 1;
            }
            None => m.unmatched_logic += 1,
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: Origin = Origin::External;

    #[test]
    fn identical_structure_matches_fully() {
        let build = |shift: bool| {
            let mut nl = Netlist::new();
            if shift {
                // Dead padding: shifts all subsequent gate ids.
                let _pad = nl.input(Origin::Channel(dataflow::ChannelId::from_raw(9)));
            }
            let a = nl.input(O);
            let b = nl.input(O);
            let g1 = nl.and(a, b, O);
            let g2 = nl.xor(g1, a, O);
            let r = nl.reg(g2, O);
            let g3 = nl.or(r, b, O);
            nl.add_keep(g3, "out");
            nl.optimize();
            (nl, g3)
        };
        let (prev, prev_root) = build(false);
        let (cur, cur_root) = build(true);
        let m = match_netlists(&prev, &cur);
        assert_eq!(m.unmatched_logic, 0, "all logic must match");
        assert!(m.matched_logic >= 3);
        assert_eq!(m.cur_to_prev[&cur_root], prev_root);
        assert_eq!(m.prev_to_cur[&prev_root], cur_root);
    }

    #[test]
    fn changed_cone_stays_unmatched_but_rest_matches() {
        let build = |flip: bool| {
            let mut nl = Netlist::new();
            let a = nl.input(O);
            let b = nl.input(O);
            let c = nl.input(O);
            let left = nl.and(a, b, O);
            let right = if flip {
                nl.xor(b, c, O)
            } else {
                nl.or(b, c, O)
            };
            let out = nl.mux(left, right, a, O);
            nl.add_keep(out, "out");
            nl.optimize();
            (nl, left, right, out)
        };
        let (prev, _pl, _pr, _po) = build(false);
        let (cur, cl, cr, co) = build(true);
        let m = match_netlists(&prev, &cur);
        assert!(
            m.cur_to_prev.contains_key(&cl),
            "untouched AND cone must match"
        );
        assert!(
            !m.cur_to_prev.contains_key(&cr),
            "flipped gate must not match"
        );
        assert!(
            !m.cur_to_prev.contains_key(&co),
            "consumer of a changed cone must not match"
        );
    }

    #[test]
    fn fanin_order_is_significant() {
        // mux(s, a, b) vs mux(s, b, a): same sorted fanins, different
        // function and different cone walk — must not match.
        let build = |swap: bool| {
            let mut nl = Netlist::new();
            let s = nl.input(O);
            let a = nl.input(O);
            let b = nl.input(O);
            let x = nl.and(a, s, O);
            let y = nl.or(b, s, O);
            let out = if swap {
                nl.mux(s, y, x, O)
            } else {
                nl.mux(s, x, y, O)
            };
            nl.add_keep(out, "out");
            nl.optimize();
            (nl, out)
        };
        let (prev, _) = build(false);
        let (cur, cur_out) = build(true);
        let m = match_netlists(&prev, &cur);
        assert!(
            !m.cur_to_prev.contains_key(&cur_out),
            "swapped mux operands must not match"
        );
    }

    #[test]
    fn matching_is_injective() {
        let mut prev = Netlist::new();
        let a = prev.input(O);
        let b = prev.input(O);
        let g = prev.and(a, b, O);
        prev.add_keep(g, "out");
        prev.optimize();
        let mut cur = Netlist::new();
        let a2 = cur.input(O);
        let b2 = cur.input(O);
        let g2 = cur.and(a2, b2, O);
        cur.add_keep(g2, "out");
        cur.optimize();
        let m = match_netlists(&prev, &cur);
        assert_eq!(m.cur_to_prev.len(), m.prev_to_cur.len());
        for (c, p) in &m.cur_to_prev {
            assert_eq!(m.prev_to_cur[p], *c);
        }
    }

    #[test]
    fn startpoints_pair_by_origin_and_ordinal() {
        let u7 = Origin::Unit(dataflow::UnitId::from_raw(7));
        let mk = |extra_channel_gate: bool| {
            let mut nl = Netlist::new();
            if extra_channel_gate {
                let d = nl.input(Origin::Channel(dataflow::ChannelId::from_raw(3)));
                let r = nl.reg(d, Origin::Channel(dataflow::ChannelId::from_raw(3)));
                nl.add_keep(r, "buf");
            }
            let i0 = nl.input(u7);
            let i1 = nl.input(u7);
            let g = nl.and(i0, i1, u7);
            nl.add_keep(g, "out");
            nl.optimize();
            (nl, i0, i1)
        };
        let (prev, p0, p1) = mk(false);
        let (cur, c0, c1) = mk(true);
        let m = match_netlists(&prev, &cur);
        assert_eq!(m.cur_to_prev[&c0], p0);
        assert_eq!(m.cur_to_prev[&c1], p1);
    }
}
