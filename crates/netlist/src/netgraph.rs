//! The netlist container: gate storage, helpers, liveness and depth queries.

use crate::gate::{Gate, GateId, GateKind, Origin};
use dataflow::collections::HashMap;

/// A gate-level netlist with provenance.
///
/// Gates are append-only; the optimizer rewrites fanins in place and marks
/// dead gates unreachable rather than reindexing, so [`GateId`]s stay
/// stable across optimization. *Keeps* are the observability roots
/// (side-effecting nets such as store commits and the exit handshake):
/// everything not transitively feeding a keep or a live register is dead.
#[derive(Debug, Clone)]
pub struct Netlist {
    gates: Vec<Gate>,
    keeps: Vec<(GateId, String)>,
    const_cache: [Option<GateId>; 2],
}

impl Default for Netlist {
    fn default() -> Self {
        Self::new()
    }
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist {
            gates: Vec::new(),
            keeps: Vec::new(),
            const_cache: [None, None],
        }
    }

    /// Adds a gate; `fanin.len()` must equal `kind.arity()`.
    ///
    /// # Panics
    ///
    /// Panics if the fanin count does not match the kind's arity or if a
    /// fanin id is out of range.
    pub fn add_gate(&mut self, kind: GateKind, fanin: Vec<GateId>, origin: Origin) -> GateId {
        assert_eq!(
            fanin.len(),
            kind.arity(),
            "gate kind {kind:?} requires {} fanins, got {}",
            kind.arity(),
            fanin.len()
        );
        for f in &fanin {
            assert!(f.index() < self.gates.len(), "fanin {f} out of range");
        }
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            kind,
            fanin,
            origin,
        });
        id
    }

    /// Returns (creating on first use) the shared constant gate.
    pub fn constant(&mut self, value: bool) -> GateId {
        if let Some(id) = self.const_cache[value as usize] {
            return id;
        }
        let id = self.add_gate(GateKind::Const(value), vec![], Origin::External);
        self.const_cache[value as usize] = Some(id);
        id
    }

    /// Adds a primary input (timing startpoint).
    pub fn input(&mut self, origin: Origin) -> GateId {
        self.add_gate(GateKind::Input, vec![], origin)
    }

    /// Adds an inverter.
    pub fn not(&mut self, a: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::Not, vec![a], origin)
    }

    /// Adds a 2-input AND.
    pub fn and(&mut self, a: GateId, b: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::And, vec![a, b], origin)
    }

    /// Adds a 2-input OR.
    pub fn or(&mut self, a: GateId, b: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::Or, vec![a, b], origin)
    }

    /// Adds a 2-input XOR.
    pub fn xor(&mut self, a: GateId, b: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::Xor, vec![a, b], origin)
    }

    /// Adds a 2:1 mux (`sel ? a : b`).
    pub fn mux(&mut self, sel: GateId, a: GateId, b: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::Mux, vec![sel, a, b], origin)
    }

    /// Adds a D flip-flop.
    pub fn reg(&mut self, d: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::Reg, vec![d], origin)
    }

    /// Adds a D flip-flop with clock enable (`[en, d]`).
    pub fn reg_en(&mut self, en: GateId, d: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::RegEn, vec![en, d], origin)
    }

    /// Adds a pass-through alias (removed by optimization).
    pub fn alias(&mut self, a: GateId, origin: Origin) -> GateId {
        self.add_gate(GateKind::Alias, vec![a], origin)
    }

    /// Redirects an existing alias gate to drive from `src`.
    ///
    /// Elaboration creates forward-declared aliases for channel signals and
    /// later binds them to their drivers with this method.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an alias.
    pub fn bind_alias(&mut self, id: GateId, src: GateId) {
        assert_eq!(
            self.gates[id.index()].kind,
            GateKind::Alias,
            "bind_alias target must be an alias"
        );
        self.gates[id.index()].fanin = vec![src];
    }

    /// Adds a forward-declared alias whose driver is bound later.
    ///
    /// Until bound, the alias points at constant 0.
    pub fn forward_alias(&mut self, origin: Origin) -> GateId {
        let zero = self.constant(false);
        self.alias(zero, origin)
    }

    /// Balanced AND over arbitrarily many inputs (empty ⇒ constant 1).
    pub fn and_tree(&mut self, inputs: &[GateId], origin: Origin) -> GateId {
        self.tree(GateKind::And, inputs, true, origin)
    }

    /// Balanced OR over arbitrarily many inputs (empty ⇒ constant 0).
    pub fn or_tree(&mut self, inputs: &[GateId], origin: Origin) -> GateId {
        self.tree(GateKind::Or, inputs, false, origin)
    }

    fn tree(&mut self, kind: GateKind, inputs: &[GateId], neutral: bool, origin: Origin) -> GateId {
        match inputs.len() {
            0 => self.constant(neutral),
            1 => inputs[0],
            _ => {
                let mut level: Vec<GateId> = inputs.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    for pair in level.chunks(2) {
                        if pair.len() == 2 {
                            next.push(self.add_gate(kind, vec![pair[0], pair[1]], origin));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    level = next;
                }
                level[0]
            }
        }
    }

    /// Marks a gate as an observability root.
    pub fn add_keep(&mut self, id: GateId, name: impl Into<String>) {
        self.keeps.push((id, name.into()));
    }

    /// The observability roots.
    pub fn keeps(&self) -> &[(GateId, String)] {
        &self.keeps
    }

    pub(crate) fn set_keeps(&mut self, keeps: Vec<(GateId, String)>) {
        self.keeps = keeps;
    }

    /// Looks up a gate.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Total number of gates ever created (including dead ones).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Iterates over all gates (including dead ones).
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Follows alias chains to the real driver of `id`.
    pub fn resolve(&self, mut id: GateId) -> GateId {
        let mut hops = 0usize;
        while self.gates[id.index()].kind == GateKind::Alias {
            id = self.gates[id.index()].fanin[0];
            hops += 1;
            assert!(hops <= self.gates.len(), "alias cycle at {id}");
        }
        id
    }

    pub(crate) fn gate_mut(&mut self, id: GateId) -> &mut Gate {
        &mut self.gates[id.index()]
    }

    /// Computes the liveness mask: a gate is live if it transitively feeds
    /// a keep (traversal crosses registers, so state machines that feed an
    /// observable stay live in full).
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<GateId> = self.keeps.iter().map(|(g, _)| *g).collect();
        while let Some(g) = stack.pop() {
            if live[g.index()] {
                continue;
            }
            live[g.index()] = true;
            for &f in &self.gates[g.index()].fanin {
                if !live[f.index()] {
                    stack.push(f);
                }
            }
        }
        live
    }

    /// Number of live gates of any kind.
    pub fn num_live_gates(&self) -> usize {
        self.live_mask().iter().filter(|&&l| l).count()
    }

    /// Number of live registers (the FF cost of the circuit).
    pub fn num_live_regs(&self) -> usize {
        let live = self.live_mask();
        self.gates()
            .filter(|(id, g)| live[id.index()] && g.kind.is_reg())
            .count()
    }

    /// Number of live combinational logic gates (pre-mapping area proxy).
    pub fn num_live_logic(&self) -> usize {
        let live = self.live_mask();
        self.gates()
            .filter(|(id, g)| live[id.index()] && g.kind.is_logic())
            .count()
    }

    /// Topological order of the live combinational logic gates.
    ///
    /// Startpoints (constants, inputs, register outputs) are not included;
    /// each logic gate appears after all of its logic fanins.
    ///
    /// # Errors
    ///
    /// Returns the ids of gates participating in a combinational cycle if
    /// one exists (a dataflow cycle with no opaque buffer).
    pub fn topo_logic(&self) -> Result<Vec<GateId>, Vec<GateId>> {
        let live = self.live_mask();
        let mut indeg = vec![0u32; self.gates.len()];
        let mut order = Vec::new();
        let mut fanout: Vec<Vec<GateId>> = vec![Vec::new(); self.gates.len()];
        let mut n_logic = 0usize;
        for (id, g) in self.gates() {
            if !live[id.index()] || !(g.kind.is_logic() || g.kind == GateKind::Alias) {
                continue;
            }
            n_logic += 1;
            for &f in &g.fanin {
                let fk = self.gates[f.index()].kind;
                if fk.is_logic() || fk == GateKind::Alias {
                    indeg[id.index()] += 1;
                    fanout[f.index()].push(id);
                }
            }
        }
        let mut queue: Vec<GateId> = self
            .gates()
            .filter(|(id, g)| {
                live[id.index()]
                    && (g.kind.is_logic() || g.kind == GateKind::Alias)
                    && indeg[id.index()] == 0
            })
            .map(|(id, _)| id)
            .collect();
        while let Some(g) = queue.pop() {
            order.push(g);
            for &s in &fanout[g.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == n_logic {
            Ok(order)
        } else {
            let stuck = self
                .gates()
                .filter(|(id, g)| {
                    live[id.index()]
                        && (g.kind.is_logic() || g.kind == GateKind::Alias)
                        && indeg[id.index()] > 0
                })
                .map(|(id, _)| id)
                .collect();
            Err(stuck)
        }
    }

    /// Gate-level combinational depth of every gate (startpoints at 0,
    /// each logic gate = 1 + max fanin depth). Pre-mapping diagnostic.
    ///
    /// # Errors
    ///
    /// Propagates combinational cycles from [`Netlist::topo_logic`].
    pub fn gate_depths(&self) -> Result<Vec<u32>, Vec<GateId>> {
        let order = self.topo_logic()?;
        let mut depth = vec![0u32; self.gates.len()];
        for g in order {
            let gate = self.gate(g);
            let d = gate
                .fanin
                .iter()
                .map(|f| depth[f.index()])
                .max()
                .unwrap_or(0);
            depth[g.index()] = if gate.kind.is_logic() { d + 1 } else { d };
        }
        Ok(depth)
    }

    /// Maximum gate-level depth over all live gates.
    ///
    /// # Errors
    ///
    /// Propagates combinational cycles from [`Netlist::topo_logic`].
    pub fn max_gate_depth(&self) -> Result<u32, Vec<GateId>> {
        Ok(self.gate_depths()?.into_iter().max().unwrap_or(0))
    }
}

/// Key for structural hashing: kind + canonicalized fanins.
pub(crate) fn strash_key(g: &Gate) -> (GateKind, Vec<GateId>) {
    let mut fanin = g.fanin.clone();
    if g.kind.is_commutative() {
        fanin.sort_unstable();
    }
    (g.kind, fanin)
}

pub(crate) type StrashMap = HashMap<(GateKind, Vec<GateId>), GateId>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_expected_structure() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        let a = nl.input(o);
        let b = nl.input(o);
        let g = nl.and(a, b, o);
        let n = nl.not(g, o);
        let r = nl.reg(n, o);
        nl.add_keep(r, "state");
        assert_eq!(nl.gate(g).kind(), GateKind::And);
        assert_eq!(nl.gate(g).fanin(), &[a, b]);
        assert_eq!(nl.num_live_gates(), 5);
        assert_eq!(nl.num_live_regs(), 1);
        assert_eq!(nl.num_live_logic(), 2);
    }

    #[test]
    fn constants_are_shared() {
        let mut nl = Netlist::new();
        assert_eq!(nl.constant(true), nl.constant(true));
        assert_ne!(nl.constant(true), nl.constant(false));
    }

    #[test]
    fn and_tree_is_balanced() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        let ins: Vec<GateId> = (0..8).map(|_| nl.input(o)).collect();
        let root = nl.and_tree(&ins, o);
        nl.add_keep(root, "t");
        // 8 inputs -> 7 AND gates, depth 3.
        assert_eq!(nl.num_live_logic(), 7);
        assert_eq!(nl.max_gate_depth().unwrap(), 3);
    }

    #[test]
    fn empty_trees_are_constants() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        let t = nl.and_tree(&[], o);
        let f = nl.or_tree(&[], o);
        assert_eq!(nl.gate(t).kind(), GateKind::Const(true));
        assert_eq!(nl.gate(f).kind(), GateKind::Const(false));
    }

    #[test]
    fn dead_logic_is_not_counted() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        let a = nl.input(o);
        let b = nl.input(o);
        let _dead = nl.and(a, b, o);
        let live = nl.or(a, b, o);
        nl.add_keep(live, "out");
        assert_eq!(nl.num_live_logic(), 1);
    }

    #[test]
    fn liveness_crosses_registers() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        // Self-feeding toggler observable at out: r -> not -> r, keep not.
        let r = {
            let zero = nl.constant(false);
            nl.reg(zero, o)
        };
        let n = nl.not(r, o);
        nl.gate_mut(r).fanin = vec![n];
        nl.add_keep(n, "out");
        assert_eq!(nl.num_live_regs(), 1);
        assert_eq!(nl.num_live_logic(), 1);
    }

    #[test]
    fn topo_detects_combinational_cycle() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        let a = nl.input(o);
        let g1 = nl.and(a, a, o); // placeholder fanin, patched below
        let g2 = nl.or(g1, a, o);
        nl.gate_mut(g1).fanin = vec![g2, a]; // g1 <-> g2 cycle
        nl.add_keep(g2, "out");
        assert!(nl.topo_logic().is_err());
    }

    #[test]
    fn alias_resolution() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        let a = nl.input(o);
        let al1 = nl.forward_alias(o);
        let al2 = nl.alias(al1, o);
        nl.bind_alias(al1, a);
        assert_eq!(nl.resolve(al2), a);
    }

    #[test]
    #[should_panic(expected = "requires")]
    fn wrong_arity_panics() {
        let mut nl = Netlist::new();
        nl.add_gate(GateKind::And, vec![], Origin::External);
    }

    #[test]
    fn depth_of_reg_breaks_path() {
        let mut nl = Netlist::new();
        let o = Origin::External;
        let a = nl.input(o);
        let g1 = nl.not(a, o);
        let r = nl.reg(g1, o);
        let g2 = nl.not(r, o);
        nl.add_keep(g2, "out");
        let depths = nl.gate_depths().unwrap();
        assert_eq!(depths[g1.index()], 1);
        assert_eq!(depths[r.index()], 0); // startpoint resets depth
        assert_eq!(depths[g2.index()], 1);
    }
}
