//! Mapping-aware timing model generation (Section IV-B).
//!
//! For every LUT we place a *real* delay node (one logic level) inside the
//! dataflow unit the LUT maps to; for every mapped LUT edge we traverse
//! its DFG path and place *fake* (zero-delay) nodes in each intermediate
//! unit. Edges that cross a channel carry that channel's id and can be
//! broken by a buffer; intra-unit and artificial edges cannot. The result
//! is exactly the timing graph of Figure 2.d: compatible with any dataflow
//! buffer-placement strategy, but with delays that reflect the circuit's
//! *post-synthesis* LUT implementation.

use crate::lutdfg::{EdgeTarget, LutDfgMap};
use crate::synth::Synthesis;
use dataflow::collections::HashMap;
use dataflow::{ChannelId, Graph, UnitId};
use lutmap::LutId;

/// Index of a node in a [`TimingGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimingNodeId(pub(crate) usize);

impl TimingNodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A delay node: real (one LUT ⇒ one logic level) or fake (zero delay).
#[derive(Debug, Clone)]
pub struct TimingNode {
    /// The unit the node sits in (`None` for glue with no provenance).
    pub unit: Option<UnitId>,
    /// The LUT a real node represents.
    pub lut: Option<LutId>,
    /// `true` for zero-delay path-marker nodes.
    pub fake: bool,
}

/// A directed timing edge.
#[derive(Debug, Clone)]
pub struct TimingEdge {
    /// Source node.
    pub from: TimingNodeId,
    /// Destination node.
    pub to: TimingNodeId,
    /// The channel a buffer would have to occupy to break this edge
    /// (`None` ⇒ unbreakable: intra-unit, artificial, or buffer logic).
    pub channel: Option<ChannelId>,
}

/// A combinational path that violates (or defines) the level budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Logic levels (number of real nodes) on the path.
    pub levels: u32,
    /// The breakable channels along the path, deduplicated, in order.
    pub channels: Vec<ChannelId>,
    /// The full path as `(incoming channel, node is real)` steps, in
    /// order — lets the placer derive sliding-window covering cuts.
    pub trace: Vec<(Option<ChannelId>, bool)>,
}

/// The mapping-aware timing model.
#[derive(Debug, Clone, Default)]
pub struct TimingGraph {
    nodes: Vec<TimingNode>,
    edges: Vec<TimingEdge>,
    /// Outgoing edge indices per node.
    succ: Vec<Vec<usize>>,
}

impl TimingGraph {
    /// Builds the timing model from a synthesis run and its LUT→DFG map.
    pub fn build(g: &Graph, synth: &Synthesis, map: &LutDfgMap) -> TimingGraph {
        let mut tg = TimingGraph::default();
        let mut node_of_lut: HashMap<LutId, TimingNodeId> = HashMap::default();
        for (lid, lut) in synth.luts.luts() {
            let unit = match lut.origin() {
                netlist::Origin::Unit(u) => Some(u),
                _ => None,
            };
            let n = tg.add_node(TimingNode {
                unit,
                lut: Some(lid),
                fake: false,
            });
            node_of_lut.insert(lid, n);
        }
        for e in &map.edges {
            let from = node_of_lut[&e.src];
            let to = node_of_lut[&e.dst];
            match &e.target {
                EdgeTarget::Path { channels, .. } if !channels.is_empty() => {
                    tg.add_chain(g, from, to, channels);
                }
                EdgeTarget::DomainMeet { channels, .. } if !channels.is_empty() => {
                    tg.add_chain(g, from, to, channels);
                }
                _ => {
                    tg.add_edge(from, to, None);
                }
            }
        }
        tg
    }

    pub(crate) fn add_node(&mut self, n: TimingNode) -> TimingNodeId {
        let id = TimingNodeId(self.nodes.len());
        self.nodes.push(n);
        self.succ.push(Vec::new());
        id
    }

    pub(crate) fn add_edge(
        &mut self,
        from: TimingNodeId,
        to: TimingNodeId,
        channel: Option<ChannelId>,
    ) {
        let e = self.edges.len();
        self.edges.push(TimingEdge { from, to, channel });
        self.succ[from.0].push(e);
    }

    /// Chains `from` to `to` through the channels of a mapped path,
    /// placing a fake node in every intermediate unit.
    fn add_chain(
        &mut self,
        g: &Graph,
        from: TimingNodeId,
        to: TimingNodeId,
        channels: &[ChannelId],
    ) {
        let mut cur = from;
        for (i, &ch) in channels.iter().enumerate() {
            let next = if i + 1 == channels.len() {
                to
            } else {
                // Fake node in the unit the channel flows into.
                let unit = g.channel(ch).dst().unit;
                self.add_node(TimingNode {
                    unit: Some(unit),
                    lut: None,
                    fake: true,
                })
            };
            self.add_edge(cur, next, Some(ch));
            cur = next;
        }
    }

    /// Iterates nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (TimingNodeId, &TimingNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (TimingNodeId(i), n))
    }

    /// Iterates edges.
    pub fn edges(&self) -> impl Iterator<Item = &TimingEdge> {
        self.edges.iter()
    }

    /// Number of nodes (real + fake).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Longest path (in logic levels) over the graph with every edge whose
    /// channel satisfies `broken` removed; returns the worst offending
    /// paths longer than `target` (empty if the budget holds), capped at
    /// `max_paths` after channel-set deduplication.
    ///
    /// # Errors
    ///
    /// If the remaining graph is cyclic (a ring whose breakable channels
    /// are all unbroken), returns the breakable channels of one such cycle
    /// so the caller can add a covering cut.
    pub fn critical_paths<F>(
        &self,
        target: u32,
        broken: F,
        max_paths: usize,
    ) -> Result<Vec<CriticalPath>, Vec<ChannelId>>
    where
        F: Fn(ChannelId) -> bool,
    {
        let n = self.nodes.len();
        let active = |e: &TimingEdge| e.channel.map(|c| !broken(c)).unwrap_or(true);
        // Kahn topo sort over active edges.
        let mut indeg = vec![0u32; n];
        for e in &self.edges {
            if active(e) {
                indeg[e.to.0] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &ei in &self.succ[u] {
                let e = &self.edges[ei];
                if active(e) {
                    indeg[e.to.0] -= 1;
                    if indeg[e.to.0] == 0 {
                        queue.push(e.to.0);
                    }
                }
            }
        }
        if order.len() != n {
            // Cycle: walk it to collect its breakable channels.
            return Err(self.cycle_channels(&indeg, &active));
        }
        // DP: levels ending at node; predecessor edge for reconstruction.
        let mut level = vec![0u32; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        for &u in &order {
            let self_cost = if self.nodes[u].fake { 0 } else { 1 };
            if level[u] == 0 {
                level[u] = self_cost;
            }
            for &ei in &self.succ[u] {
                let e = &self.edges[ei];
                if !active(e) {
                    continue;
                }
                let v = e.to.0;
                let v_cost = if self.nodes[v].fake { 0 } else { 1 };
                if level[u] + v_cost > level[v] {
                    level[v] = level[u] + v_cost;
                    pred[v] = Some(ei);
                }
            }
        }
        // Collect offenders, worst first.
        let mut ends: Vec<usize> = (0..n).filter(|&i| level[i] > target).collect();
        ends.sort_by_key(|&i| std::cmp::Reverse(level[i]));
        let mut seen_sets: Vec<Vec<ChannelId>> = Vec::new();
        let mut out = Vec::new();
        for end in ends {
            if out.len() >= max_paths {
                break;
            }
            let mut channels = Vec::new();
            let mut trace: Vec<(Option<ChannelId>, bool)> = vec![(None, !self.nodes[end].fake)];
            let mut cur = end;
            while let Some(ei) = pred[cur] {
                let e = &self.edges[ei];
                if let Some(c) = e.channel {
                    if !channels.contains(&c) {
                        channels.push(c);
                    }
                }
                trace.last_mut().expect("nonempty").0 = e.channel;
                cur = e.from.0;
                trace.push((None, !self.nodes[cur].fake));
            }
            channels.reverse();
            trace.reverse();
            if seen_sets
                .iter()
                .any(|s| s.len() == channels.len() && s.iter().all(|c| channels.contains(c)))
            {
                continue;
            }
            seen_sets.push(channels.clone());
            out.push(CriticalPath {
                levels: level[end],
                channels,
                trace,
            });
        }
        Ok(out)
    }

    /// Maximum logic levels with the given break predicate.
    ///
    /// # Errors
    ///
    /// Same cycle condition as [`TimingGraph::critical_paths`].
    pub fn depth<F>(&self, broken: F) -> Result<u32, Vec<ChannelId>>
    where
        F: Fn(ChannelId) -> bool,
    {
        // target 0: every nonempty path is an offender; the worst one is
        // first.
        let paths = self.critical_paths(0, broken, 1)?;
        Ok(paths.first().map(|p| p.levels).unwrap_or(0))
    }

    fn cycle_channels<F>(&self, indeg: &[u32], active: &F) -> Vec<ChannelId>
    where
        F: Fn(&TimingEdge) -> bool,
    {
        // Nodes with indeg > 0 after Kahn form the cyclic core; DFS to find
        // one cycle and gather its breakable channels.
        let n = self.nodes.len();
        let in_core: Vec<bool> = (0..n).map(|i| indeg[i] > 0).collect();
        let start = (0..n).find(|&i| in_core[i]).expect("cyclic core nonempty");
        let mut stack = vec![start];
        let mut visited = vec![false; n];
        let mut via: Vec<Option<usize>> = vec![None; n];
        visited[start] = true;
        while let Some(u) = stack.pop() {
            for &ei in &self.succ[u] {
                let e = &self.edges[ei];
                if !active(e) || !in_core[e.to.0] {
                    continue;
                }
                if e.to.0 == start {
                    // Reconstruct the cycle.
                    let mut channels = Vec::new();
                    if let Some(c) = e.channel {
                        channels.push(c);
                    }
                    let mut cur = u;
                    while let Some(pei) = via[cur] {
                        let pe = &self.edges[pei];
                        if let Some(c) = pe.channel {
                            if !channels.contains(&c) {
                                channels.push(c);
                            }
                        }
                        cur = pe.from.0;
                    }
                    return channels;
                }
                if !visited[e.to.0] {
                    visited[e.to.0] = true;
                    via[e.to.0] = Some(ei);
                    stack.push(e.to.0);
                }
            }
        }
        // Fallback: all breakable channels in the core.
        self.edges
            .iter()
            .filter(|e| active(e) && in_core[e.from.0] && in_core[e.to.0])
            .filter_map(|e| e.channel)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built: A --c0--> B(fake) --c1--> C, plus a 3-level intra chain.
    fn tiny() -> TimingGraph {
        let mut tg = TimingGraph::default();
        let a = tg.add_node(TimingNode {
            unit: Some(UnitId::from_raw(0)),
            lut: None,
            fake: false,
        });
        let b = tg.add_node(TimingNode {
            unit: Some(UnitId::from_raw(1)),
            lut: None,
            fake: true,
        });
        let c = tg.add_node(TimingNode {
            unit: Some(UnitId::from_raw(2)),
            lut: None,
            fake: false,
        });
        tg.add_edge(a, b, Some(ChannelId::from_raw(0)));
        tg.add_edge(b, c, Some(ChannelId::from_raw(1)));
        tg
    }

    #[test]
    fn fake_nodes_cost_zero_levels() {
        let tg = tiny();
        assert_eq!(tg.depth(|_| false).unwrap(), 2); // two real nodes
    }

    #[test]
    fn breaking_any_channel_splits_the_path() {
        let tg = tiny();
        let d0 = tg.depth(|c| c == ChannelId::from_raw(0)).unwrap();
        let d1 = tg.depth(|c| c == ChannelId::from_raw(1)).unwrap();
        assert_eq!(d0, 1);
        assert_eq!(d1, 1);
    }

    #[test]
    fn critical_paths_report_breakable_channels() {
        let tg = tiny();
        let paths = tg.critical_paths(1, |_| false, 4).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].levels, 2);
        assert_eq!(
            paths[0].channels,
            vec![ChannelId::from_raw(0), ChannelId::from_raw(1)]
        );
    }

    #[test]
    fn detects_unbroken_cycles() {
        let mut tg = tiny();
        // Close a ring: C --c2--> A.
        let a = TimingNodeId(0);
        let c = TimingNodeId(2);
        tg.add_edge(c, a, Some(ChannelId::from_raw(2)));
        let err = tg.depth(|_| false).unwrap_err();
        assert!(!err.is_empty());
        // Breaking the ring restores a depth.
        let d = tg.depth(|ch| ch == ChannelId::from_raw(2)).unwrap();
        assert_eq!(d, 2);
    }
}
