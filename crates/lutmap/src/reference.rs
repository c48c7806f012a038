//! The pre-dense FlowMap labeler, retained verbatim in spirit: `HashMap`
//! label/cut storage, per-gate flow-network allocation, strictly serial
//! topological labeling.
//!
//! It is the *bit-identity oracle*: the dense labeler in
//! [`crate::flowmap`], which searches its augmenting paths from the sink
//! over an implicit flow network, must reproduce this implementation's
//! labels and chosen cuts exactly, in both cut modes (the repo keeps the
//! same discipline for the simulator's `FullSweep` engine and the MILP's
//! dense tableau). `tests/synth_equivalence.rs` holds the mapper to it on
//! random netlists and on the nine kernels' full-size netlists.

use crate::flowmap::{CombView, Labeling};
use crate::mapper::{lut_cover, MapError, MapOptions};
use crate::network::LutNetwork;
use dataflow::collections::HashMap;
use netlist::{GateId, Netlist};
use std::collections::VecDeque;

/// Maps a netlist onto K-input LUTs with the original serial
/// `HashMap`-backed labeler, then shares the LUT-generation phase with
/// [`crate::map_netlist`]. Depth-optimal for the same K; bit-identical to
/// the dense labeler at any job count.
pub fn map_netlist_reference(nl: &Netlist, opts: &MapOptions) -> Result<LutNetwork, MapError> {
    if opts.k < 3 {
        return Err(MapError::KTooSmall(opts.k));
    }
    let view = CombView::build(nl).map_err(MapError::CombinationalCycle)?;
    let (label, cut) = compute_labels_hashmap(&view, opts.k, opts.area_recovery);
    let labeling = Labeling::from_maps(&view, &label, &cut);
    lut_cover(nl, &view, &labeling, opts.k, 1)
}

/// Serial FlowMap labeling with per-gate map/flow allocations — the
/// original hot loop.
#[allow(clippy::type_complexity)]
fn compute_labels_hashmap(
    view: &CombView,
    k: usize,
    sink_side: bool,
) -> (HashMap<GateId, u32>, HashMap<GateId, Vec<GateId>>) {
    let mut label: HashMap<GateId, u32> = HashMap::default();
    let mut cut: HashMap<GateId, Vec<GateId>> = HashMap::default();
    let mut cone_buf = ConeBuffers::default();

    for (d, &t) in view.topo.iter().enumerate() {
        let fanins = view.fanins_of(d as u32);
        let p = fanins
            .iter()
            .map(|f| label.get(f).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        if p == 0 {
            label.insert(t, 1);
            cut.insert(t, fanins.to_vec());
            continue;
        }
        match min_cut_with_collapsed(view, &label, t, p, k, sink_side, &mut cone_buf) {
            Some(c) => {
                label.insert(t, p);
                cut.insert(t, c);
            }
            None => {
                label.insert(t, p + 1);
                cut.insert(t, fanins.to_vec());
            }
        }
    }
    (label, cut)
}

#[derive(Default)]
struct ConeBuffers {
    cone: Vec<GateId>,
    mark: HashMap<GateId, bool>,
}

/// The original max-flow K-feasibility test: fresh `HashMap` local
/// indexing and a fresh flow network per gate.
fn min_cut_with_collapsed(
    view: &CombView,
    label: &HashMap<GateId, u32>,
    t: GateId,
    p: u32,
    k: usize,
    sink_side: bool,
    buf: &mut ConeBuffers,
) -> Option<Vec<GateId>> {
    buf.cone.clear();
    buf.mark.clear();
    let mut stack = vec![t];
    buf.mark.insert(t, true);
    while let Some(u) = stack.pop() {
        buf.cone.push(u);
        if let Some(du) = view.dense_of(u) {
            for &f in view.fanins_of(du) {
                if buf.mark.insert(f, true).is_none() {
                    stack.push(f);
                }
            }
        }
    }

    let mut local: HashMap<GateId, usize> = HashMap::default();
    let mut collapsed: HashMap<GateId, bool> = HashMap::default();
    let mut locals: Vec<GateId> = Vec::new();
    for &u in &buf.cone {
        let is_col = (u == t || label.get(&u).copied().unwrap_or(0) == p) && view.is_logic(u);
        collapsed.insert(u, is_col);
        if !is_col {
            local.insert(u, locals.len());
            locals.push(u);
        }
    }

    let mut net = FlowNet::new(2 + 2 * locals.len());
    const INF: i32 = i32::MAX / 2;
    for (i, &u) in locals.iter().enumerate() {
        let (uin, uout) = (2 + 2 * i, 2 + 2 * i + 1);
        net.add_edge(uin, uout, 1);
        if !view.is_logic(u) {
            net.add_edge(0, uin, INF);
        }
    }
    for &u in &buf.cone {
        if let Some(du) = view.dense_of(u) {
            let udst = if collapsed[&u] { 1 } else { 2 + 2 * local[&u] };
            for &f in view.fanins_of(du) {
                if collapsed.get(&f).copied().unwrap_or(false) {
                    continue;
                }
                let fout = 2 + 2 * local[&f] + 1;
                net.add_edge(fout, udst, INF);
            }
        }
    }

    let mut total = 0usize;
    while total <= k {
        if net.augment(0, 1) {
            total += 1;
        } else {
            break;
        }
    }
    if total > k {
        return None;
    }

    let mut out = Vec::new();
    if sink_side {
        let reach = net.residual_reaching(1);
        for (i, &u) in locals.iter().enumerate() {
            let (uin, uout) = (2 + 2 * i, 2 + 2 * i + 1);
            if reach[uout] && !reach[uin] {
                out.push(u);
            }
        }
    } else {
        let reach = net.residual_reachable(0);
        for (i, &u) in locals.iter().enumerate() {
            let (uin, uout) = (2 + 2 * i, 2 + 2 * i + 1);
            if reach[uin] && !reach[uout] {
                out.push(u);
            }
        }
    }
    debug_assert!(out.len() <= k);
    debug_assert!(!out.is_empty());
    Some(out)
}

/// Adjacency-list max-flow network with per-call BFS allocations.
struct FlowNet {
    adj: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<i32>,
}

impl FlowNet {
    fn new(n: usize) -> Self {
        FlowNet {
            adj: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i32) {
        self.adj[from].push(self.to.len());
        self.to.push(to);
        self.cap.push(cap);
        self.adj[to].push(self.to.len());
        self.to.push(from);
        self.cap.push(0);
    }

    fn augment(&mut self, s: usize, t: usize) -> bool {
        let n = self.adj.len();
        let mut prev_edge = vec![usize::MAX; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        visited[s] = true;
        queue.push_back(s);
        'bfs: while let Some(u) = queue.pop_front() {
            for &e in &self.adj[u] {
                let v = self.to[e];
                if self.cap[e] > 0 && !visited[v] {
                    visited[v] = true;
                    prev_edge[v] = e;
                    if v == t {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !visited[t] {
            return false;
        }
        let mut v = t;
        while v != s {
            let e = prev_edge[v];
            self.cap[e] -= 1;
            self.cap[e ^ 1] += 1;
            v = self.to[e ^ 1];
        }
        true
    }

    fn residual_reaching(&self, t: usize) -> Vec<bool> {
        let n = self.adj.len();
        let mut reach = vec![false; n];
        reach[t] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for e in 0..self.to.len() {
                if self.cap[e] > 0 {
                    let u = self.to[e ^ 1];
                    let v = self.to[e];
                    if reach[v] && !reach[u] {
                        reach[u] = true;
                        changed = true;
                    }
                }
            }
        }
        reach
    }

    fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let n = self.adj.len();
        let mut reach = vec![false; n];
        let mut stack = vec![s];
        reach[s] = true;
        while let Some(u) = stack.pop() {
            for &e in &self.adj[u] {
                let v = self.to[e];
                if self.cap[e] > 0 && !reach[v] {
                    reach[v] = true;
                    stack.push(v);
                }
            }
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{map_netlist, MapOptions};
    use netlist::Origin;

    const O: Origin = Origin::External;

    /// The dense mapper must reproduce the reference mapper's LUT network
    /// exactly on a reconvergent mixed netlist.
    #[test]
    fn dense_mapper_matches_reference() {
        let mut nl = Netlist::new();
        let ins: Vec<GateId> = (0..12).map(|_| nl.input(O)).collect();
        let mut layer = Vec::new();
        for w in ins.windows(2) {
            layer.push(nl.xor(w[0], w[1], O));
        }
        let mut acc = layer[0];
        for &g in &layer[1..] {
            let a = nl.and(acc, g, O);
            let o = nl.or(acc, g, O);
            acc = nl.mux(a, o, acc, O);
        }
        nl.add_keep(acc, "out");
        for jobs in [1usize, 2, 8] {
            for k in [3usize, 4, 6] {
                for area in [false, true] {
                    let opts = MapOptions {
                        k,
                        area_recovery: area,
                        jobs,
                    };
                    let reference = map_netlist_reference(&nl, &opts).unwrap();
                    let dense = map_netlist(&nl, &opts).unwrap();
                    assert!(
                        dense.bit_identical(&reference),
                        "dense mapper diverged at k={k} area={area} jobs={jobs}"
                    );
                }
            }
        }
    }
}
