//! Structural logic optimization.
//!
//! Implements the rewrites a BLIF netlist would undergo in ABC before
//! technology mapping: alias elimination, constant propagation, Boolean
//! identities (idempotence, complementation, double negation, mux
//! degeneration) and structural hashing (common-subexpression merging).
//! The rewrites are applied to fixpoint.
//!
//! Crucially, the rewrites ignore unit boundaries: a join's AND of two
//! valids may merge with identical logic inside a neighbouring fork — the
//! cross-unit simplification phenomenon at the heart of the paper.

use crate::gate::{GateId, GateKind};
use crate::netgraph::{strash_key, Netlist, StrashMap};

/// Statistics reported by [`Netlist::optimize`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Number of full rewrite passes executed.
    pub passes: u32,
    /// Number of gate-level rewrites applied (replacements + fanin updates).
    pub rewrites: u64,
    /// Live gate count before optimization.
    pub live_before: usize,
    /// Live gate count after optimization.
    pub live_after: usize,
    /// Convenience: `live_before - live_after`.
    pub removed_gates: usize,
}

/// Union-find style replacement table with path compression.
struct Repl {
    to: Vec<GateId>,
}

impl Repl {
    fn new(n: usize) -> Self {
        Repl {
            to: (0..n as u32).map(GateId::from_raw).collect(),
        }
    }

    /// Extends the table with identity entries for newly allocated gates.
    fn ensure(&mut self, n: usize) {
        while self.to.len() < n {
            self.to.push(GateId::from_raw(self.to.len() as u32));
        }
    }

    fn find(&mut self, g: GateId) -> GateId {
        let parent = self.to[g.index()];
        if parent == g {
            return g;
        }
        let root = self.find(parent);
        self.to[g.index()] = root;
        root
    }

    fn union_to(&mut self, from: GateId, to: GateId) {
        let to = self.find(to);
        let from = self.find(from);
        if from != to {
            self.to[from.index()] = to;
        }
    }
}

impl Netlist {
    /// Optimizes the netlist in place and returns statistics.
    ///
    /// Runs alias elimination, constant propagation, Boolean identities and
    /// structural hashing to fixpoint, then redirects every fanin and keep
    /// through the replacement table. Dead gates remain allocated but
    /// unreachable (ids stay stable); liveness queries skip them.
    pub fn optimize(&mut self) -> OptStats {
        let live_before = self.num_live_gates();
        let mut repl = Repl::new(self.num_gates());
        let mut rewrites = 0u64;
        let mut passes = 0u32;
        loop {
            passes += 1;
            repl.ensure(self.num_gates());
            let changed = self.optimize_pass(&mut repl, &mut rewrites);
            if !changed || passes >= 64 {
                break;
            }
        }
        // Final rewrite of all fanins and keeps through the table.
        repl.ensure(self.num_gates());
        for i in 0..self.num_gates() {
            let id = GateId::from_raw(i as u32);
            let fanin = self.gate(id).fanin().to_vec();
            let new: Vec<GateId> = fanin.iter().map(|&f| repl.find(f)).collect();
            if new != fanin {
                self.gate_mut(id).fanin = new;
            }
        }
        let keeps: Vec<(GateId, String)> = self
            .keeps()
            .iter()
            .map(|(g, n)| (repl.find(*g), n.clone()))
            .collect();
        self.set_keeps(keeps);
        let live_after = self.num_live_gates();
        OptStats {
            passes,
            rewrites,
            live_before,
            live_after,
            removed_gates: live_before.saturating_sub(live_after),
        }
    }

    fn optimize_pass(&mut self, repl: &mut Repl, rewrites: &mut u64) -> bool {
        let mut changed = false;
        let mut strash: StrashMap = StrashMap::default();
        for i in 0..self.num_gates() {
            let id = GateId::from_raw(i as u32);
            if repl.find(id) != id {
                continue; // already replaced
            }
            // Canonicalize fanins through the replacement table.
            let kind = self.gate(id).kind();
            let fanin: Vec<GateId> = self
                .gate(id)
                .fanin()
                .iter()
                .map(|&f| repl.find(f))
                .collect();
            if fanin != self.gate(id).fanin() {
                self.gate_mut(id).fanin = fanin.clone();
                *rewrites += 1;
                changed = true;
            }
            if let Some(target) = self.simplify(kind, &fanin) {
                repl.ensure(self.num_gates()); // simplify may allocate
                if target != id {
                    repl.union_to(id, target);
                    *rewrites += 1;
                    changed = true;
                    continue;
                }
            }
            // Structural hashing (not for registers: state is not merged).
            if kind.is_logic() {
                let key = strash_key(self.gate(id));
                if let Some(&other) = strash.get(&key) {
                    if other != id {
                        repl.union_to(id, other);
                        *rewrites += 1;
                        changed = true;
                    }
                } else {
                    strash.insert(key, id);
                }
            }
        }
        changed
    }

    /// Value of a gate if it is a constant, after resolution.
    fn const_of(&self, id: GateId) -> Option<bool> {
        match self.gate(id).kind() {
            GateKind::Const(v) => Some(v),
            _ => None,
        }
    }

    /// `true` if `a` is the complement of `b` (one is NOT of the other).
    fn is_complement(&self, a: GateId, b: GateId) -> bool {
        let ga = self.gate(a);
        let gb = self.gate(b);
        (ga.kind() == GateKind::Not && ga.fanin()[0] == b)
            || (gb.kind() == GateKind::Not && gb.fanin()[0] == a)
    }

    /// Applies one local rewrite; returns the replacement gate if any.
    ///
    /// May allocate a new gate (e.g. `XOR(x,1) → NOT(x)`), which later
    /// passes will canonicalize further.
    fn simplify(&mut self, kind: GateKind, fanin: &[GateId]) -> Option<GateId> {
        match kind {
            GateKind::Alias => Some(fanin[0]),
            GateKind::Not => {
                if let Some(v) = self.const_of(fanin[0]) {
                    return Some(self.constant(!v));
                }
                let inner = self.gate(fanin[0]);
                if inner.kind() == GateKind::Not {
                    return Some(inner.fanin()[0]);
                }
                None
            }
            GateKind::And => {
                let (a, b) = (fanin[0], fanin[1]);
                match (self.const_of(a), self.const_of(b)) {
                    (Some(false), _) | (_, Some(false)) => Some(self.constant(false)),
                    (Some(true), _) => Some(b),
                    (_, Some(true)) => Some(a),
                    _ if a == b => Some(a),
                    _ if self.is_complement(a, b) => Some(self.constant(false)),
                    _ => None,
                }
            }
            GateKind::Or => {
                let (a, b) = (fanin[0], fanin[1]);
                match (self.const_of(a), self.const_of(b)) {
                    (Some(true), _) | (_, Some(true)) => Some(self.constant(true)),
                    (Some(false), _) => Some(b),
                    (_, Some(false)) => Some(a),
                    _ if a == b => Some(a),
                    _ if self.is_complement(a, b) => Some(self.constant(true)),
                    _ => None,
                }
            }
            GateKind::Xor => {
                let (a, b) = (fanin[0], fanin[1]);
                match (self.const_of(a), self.const_of(b)) {
                    (Some(va), Some(vb)) => Some(self.constant(va ^ vb)),
                    (Some(false), _) => Some(b),
                    (_, Some(false)) => Some(a),
                    (Some(true), _) => {
                        let origin = self.gate(b).origin();
                        Some(self.not(b, origin))
                    }
                    (_, Some(true)) => {
                        let origin = self.gate(a).origin();
                        Some(self.not(a, origin))
                    }
                    _ if a == b => Some(self.constant(false)),
                    _ if self.is_complement(a, b) => Some(self.constant(true)),
                    _ => None,
                }
            }
            GateKind::Mux => {
                let (s, a, b) = (fanin[0], fanin[1], fanin[2]);
                if let Some(vs) = self.const_of(s) {
                    return Some(if vs { a } else { b });
                }
                if a == b {
                    return Some(a);
                }
                match (self.const_of(a), self.const_of(b)) {
                    // mux(s,1,0) = s ; mux(s,0,1) = !s
                    (Some(true), Some(false)) => Some(s),
                    (Some(false), Some(true)) => {
                        let origin = self.gate(s).origin();
                        Some(self.not(s, origin))
                    }
                    // mux(s,a,0) = s & a ; mux(s,0,b) = !s & b
                    (_, Some(false)) => {
                        let origin = self.gate(s).origin();
                        Some(self.and(s, a, origin))
                    }
                    (Some(false), _) => {
                        let origin = self.gate(s).origin();
                        let ns = self.not(s, origin);
                        Some(self.and(ns, b, origin))
                    }
                    // mux(s,1,b) = s | b ; mux(s,a,1) = !s | a
                    (Some(true), _) => {
                        let origin = self.gate(s).origin();
                        Some(self.or(s, b, origin))
                    }
                    (_, Some(true)) => {
                        let origin = self.gate(s).origin();
                        let ns = self.not(s, origin);
                        Some(self.or(ns, a, origin))
                    }
                    _ if s == a => {
                        // mux(s,s,b) = s | b
                        let origin = self.gate(s).origin();
                        Some(self.or(s, b, origin))
                    }
                    _ if s == b => {
                        // mux(s,a,s) = s & a
                        let origin = self.gate(s).origin();
                        Some(self.and(s, a, origin))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Origin;

    const O: Origin = Origin::External;

    #[test]
    fn removes_aliases() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let al = nl.alias(a, O);
        let n = nl.not(al, O);
        nl.add_keep(n, "out");
        nl.optimize();
        assert_eq!(nl.gate(n).fanin()[0], a);
    }

    #[test]
    fn folds_constants() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let one = nl.constant(true);
        let g = nl.and(a, one, O); // = a
        let r = nl.reg(g, O);
        nl.add_keep(r, "out");
        nl.optimize();
        assert_eq!(nl.gate(r).fanin()[0], a);
    }

    #[test]
    fn double_negation_cancels() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let n1 = nl.not(a, O);
        let n2 = nl.not(n1, O);
        let g = nl.or(n2, a, O); // = a after rewrites
        let r = nl.reg(g, O);
        nl.add_keep(r, "out");
        nl.optimize();
        assert_eq!(nl.gate(r).fanin()[0], a);
    }

    #[test]
    fn strash_merges_duplicates_across_origins() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let b = nl.input(O);
        let u0 = Origin::Unit(dataflow::UnitId::from_raw(0));
        let u1 = Origin::Unit(dataflow::UnitId::from_raw(1));
        let g1 = nl.and(a, b, u0);
        let g2 = nl.and(b, a, u1); // commutative duplicate from another unit
        let r1 = nl.reg(g1, O);
        let r2 = nl.reg(g2, O);
        nl.add_keep(r1, "o1");
        nl.add_keep(r2, "o2");
        let stats = nl.optimize();
        assert_eq!(nl.gate(r1).fanin()[0], nl.gate(r2).fanin()[0]);
        assert!(stats.rewrites > 0);
        assert_eq!(nl.num_live_logic(), 1);
    }

    #[test]
    fn complement_laws() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let na = nl.not(a, O);
        let g_and = nl.and(a, na, O); // 0
        let g_or = nl.or(a, na, O); // 1
        let m = nl.mux(g_or, g_and, a, O); // mux(1, 0, a) = 0
        let r = nl.reg(m, O);
        nl.add_keep(r, "out");
        nl.optimize();
        assert_eq!(
            nl.gate(nl.gate(r).fanin()[0]).kind(),
            GateKind::Const(false)
        );
    }

    #[test]
    fn xor_with_one_becomes_not() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let one = nl.constant(true);
        let g = nl.xor(a, one, O);
        let r = nl.reg(g, O);
        nl.add_keep(r, "out");
        nl.optimize();
        let d = nl.gate(r).fanin()[0];
        assert_eq!(nl.gate(d).kind(), GateKind::Not);
        assert_eq!(nl.gate(d).fanin()[0], a);
    }

    #[test]
    fn mux_degenerations() {
        let mut nl = Netlist::new();
        let s = nl.input(O);
        let a = nl.input(O);
        let zero = nl.constant(false);
        let g = nl.mux(s, a, zero, O); // = s & a
        let r = nl.reg(g, O);
        nl.add_keep(r, "out");
        nl.optimize();
        let d = nl.gate(r).fanin()[0];
        assert_eq!(nl.gate(d).kind(), GateKind::And);
    }

    #[test]
    fn idempotence() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let g = nl.or(a, a, O);
        let r = nl.reg(g, O);
        nl.add_keep(r, "out");
        nl.optimize();
        assert_eq!(nl.gate(r).fanin()[0], a);
    }

    #[test]
    fn stats_report_shrinkage() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let one = nl.constant(true);
        let g1 = nl.and(a, one, O);
        let g2 = nl.and(g1, one, O);
        let r = nl.reg(g2, O);
        nl.add_keep(r, "out");
        let stats = nl.optimize();
        assert!(stats.live_after < stats.live_before);
        assert_eq!(stats.removed_gates, stats.live_before - stats.live_after);
    }

    #[test]
    fn registers_are_never_merged() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let r1 = nl.reg(a, O);
        let r2 = nl.reg(a, O);
        let g = nl.xor(r1, r2, O);
        nl.add_keep(g, "out");
        nl.optimize();
        assert_eq!(nl.num_live_regs(), 2);
    }
}
