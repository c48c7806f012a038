//! LUT-edge → DFG-path mapping (Section IV-A of the paper).
//!
//! After technology mapping, every LUT is labeled with the dataflow unit
//! that contributes most to it. This module classifies every LUT-to-LUT
//! edge:
//!
//! * **one LUT edge → one DFG path** — the labeled units are connected by
//!   a unique shortest path of channels;
//! * **one LUT edge → many DFG paths** — ambiguity is resolved by picking
//!   the path "with fewer dataflow units" (BFS shortest path), which later
//!   iterations can correct;
//! * **one LUT edge → no DFG path** — the edge is first re-tried in the
//!   *ready* direction (the handshake travels against the data flow) and
//!   through a *domain interaction* meet point (Section IV-D, Figure 3);
//!   if all fail, an **artificial edge** is recorded: it contributes delay
//!   but can never be broken by a buffer.

use crate::synth::Synthesis;
use dataflow::{ChannelId, Graph, UnitId};
use lutmap::LutId;
use netlist::Origin;

/// Where a LUT edge lands in the DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeTarget {
    /// Both endpoints belong to the same unit: an intra-unit path that
    /// buffers can never break.
    IntraUnit(UnitId),
    /// The edge follows a DFG path; the listed channels are the breakable
    /// positions along it, in order.
    Path {
        /// Channels crossed by the path.
        channels: Vec<ChannelId>,
        /// `true` if the path was matched against the data/valid (forward)
        /// direction, `false` for the ready (backward) direction.
        forward: bool,
    },
    /// Two forward segments meeting at a domain-interaction unit
    /// (Section IV-D): both segments' channels are breakable.
    DomainMeet {
        /// The unit where the two timing domains interact.
        meet: UnitId,
        /// Channels of the source-side segment followed by the
        /// destination-side segment.
        channels: Vec<ChannelId>,
    },
    /// No DFG path exists: an artificial, unbreakable delay edge.
    Artificial {
        /// Source unit.
        src: UnitId,
        /// Destination unit.
        dst: UnitId,
    },
    /// One endpoint is buffer logic owned by a channel; the edge is pinned
    /// to that (already buffered) channel and is unbreakable.
    BufferLogic(ChannelId),
    /// At least one endpoint has no DFG provenance (external glue).
    External,
}

/// A classified LUT edge.
#[derive(Debug, Clone)]
pub struct MappedEdge {
    /// Producer LUT.
    pub src: LutId,
    /// Consumer LUT.
    pub dst: LutId,
    /// The DFG classification.
    pub target: EdgeTarget,
}

/// The complete LUT→DFG mapping for one synthesis run.
#[derive(Debug, Clone, Default)]
pub struct LutDfgMap {
    /// One entry per LUT-to-LUT edge.
    pub edges: Vec<MappedEdge>,
}

/// Finds the forward shortest path `from → to` and returns its channels.
fn forward_channels(g: &Graph, from: UnitId, to: UnitId) -> Option<Vec<ChannelId>> {
    g.shortest_path(from, to)
}

/// Finds a domain-interaction meet point: a unit where timing domains
/// interact (Section IV-D), reachable (forward) from *both* endpoints with
/// minimal combined distance; falls back to any common unit when no
/// interaction unit connects them. Returns the union of both segments'
/// channels.
fn domain_meet(g: &Graph, a: UnitId, b: UnitId) -> Option<(UnitId, Vec<ChannelId>)> {
    // BFS distances from a and from b over forward edges.
    let dist = |start: UnitId| -> Vec<Option<u32>> {
        let mut d = vec![None; g.num_units()];
        let mut q = std::collections::VecDeque::new();
        d[start.index()] = Some(0);
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            let du = d[u.index()].expect("visited");
            for ch in g.output_channels(u) {
                let v = g.channel(ch).dst().unit;
                if d[v.index()].is_none() {
                    d[v.index()] = Some(du + 1);
                    q.push_back(v);
                }
            }
        }
        d
    };
    let da = dist(a);
    let db = dist(b);
    let mut best: Option<(UnitId, u32)> = None;
    let mut best_interaction: Option<(UnitId, u32)> = None;
    for u in 0..g.num_units() {
        if let (Some(x), Some(y)) = (da[u], db[u]) {
            let uid = UnitId::from_raw(u as u32);
            if uid == a || uid == b {
                continue;
            }
            let total = x + y;
            if best.map(|(_, t)| total < t).unwrap_or(true) {
                best = Some((uid, total));
            }
            if crate::domains::is_interaction_unit(g.unit(uid).kind())
                && best_interaction.map(|(_, t)| total < t).unwrap_or(true)
            {
                best_interaction = Some((uid, total));
            }
        }
    }
    let (meet, _) = best_interaction.or(best)?;
    let mut channels = forward_channels(g, a, meet)?;
    channels.extend(forward_channels(g, b, meet)?);
    Some((meet, channels))
}

/// A memo of [`EdgeTarget`] classifications keyed by the LUT endpoints'
/// provenance.
///
/// [`classify`] is a pure function of the *base* graph topology and the two
/// origins — buffer annotations change neither the unit set nor the
/// channel set — so a cache built against one buffer configuration is
/// valid for every other configuration of the same base graph. The
/// iterative flow classifies the same origin pairs on every iteration;
/// with the memo, each pair's BFS runs once per flow instead of once per
/// iteration.
pub type ClassifyCache = dataflow::collections::HashMap<(Origin, Origin), EdgeTarget>;

/// Classifies every LUT edge of `synth` against the DFG `g`.
pub fn map_lut_edges(g: &Graph, synth: &Synthesis) -> LutDfgMap {
    let mut cache = ClassifyCache::default();
    map_lut_edges_cached(g, synth, &mut cache)
}

/// [`map_lut_edges`] with a classification memo shared across calls.
///
/// All calls sharing one `cache` must pass graphs with the same base
/// topology (same units and channels; buffer annotations may differ).
pub fn map_lut_edges_cached(g: &Graph, synth: &Synthesis, cache: &mut ClassifyCache) -> LutDfgMap {
    let mut edges = Vec::new();
    for (src, dst) in synth.luts.lut_edges() {
        let so = synth.luts.lut(src).origin();
        let do_ = synth.luts.lut(dst).origin();
        let target = cache
            .entry((so, do_))
            .or_insert_with(|| classify(g, so, do_))
            .clone();
        edges.push(MappedEdge { src, dst, target });
    }
    LutDfgMap { edges }
}

fn classify(g: &Graph, src: Origin, dst: Origin) -> EdgeTarget {
    match (src, dst) {
        (Origin::Unit(a), Origin::Unit(b)) if a == b => EdgeTarget::IntraUnit(a),
        (Origin::Unit(a), Origin::Unit(b)) => {
            if let Some(channels) = forward_channels(g, a, b) {
                EdgeTarget::Path {
                    channels,
                    forward: true,
                }
            } else if let Some(channels) = forward_channels(g, b, a) {
                // The edge follows the ready domain (handshake travels
                // against the dataflow direction).
                EdgeTarget::Path {
                    channels,
                    forward: false,
                }
            } else if let Some((meet, channels)) = domain_meet(g, a, b) {
                EdgeTarget::DomainMeet { meet, channels }
            } else {
                EdgeTarget::Artificial { src: a, dst: b }
            }
        }
        (Origin::Channel(c), _) | (_, Origin::Channel(c)) => EdgeTarget::BufferLogic(c),
        _ => EdgeTarget::External,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize;
    use dataflow::{OpKind, PortRef, UnitKind};

    /// A Figure-2 style DFG with a real upstream datapath so cross-unit
    /// LUT edges exist: add0 -> fork -> (shl, direct) -> add2 -> branch.
    fn figure2() -> (Graph, UnitId, UnitId, UnitId, UnitId) {
        let mut g = Graph::new("fig2");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 16)
            .unwrap();
        let b = g
            .add_unit(UnitKind::Argument { index: 2 }, "b", bb, 16)
            .unwrap();
        let c = g
            .add_unit(UnitKind::Argument { index: 1 }, "cond", bb, 1)
            .unwrap();
        let add0 = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add0", bb, 16)
            .unwrap();
        let f = g.add_unit(UnitKind::fork(2), "fork", bb, 16).unwrap();
        let s = g
            .add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "shl", bb, 16)
            .unwrap();
        let add = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add", bb, 16)
            .unwrap();
        let br = g.add_unit(UnitKind::Branch, "branch", bb, 16).unwrap();
        let x1 = g.add_unit(UnitKind::Exit, "x1", bb, 16).unwrap();
        let sk = g.add_unit(UnitKind::Sink, "sk", bb, 16).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(add0, 0))
            .unwrap();
        g.connect(PortRef::new(b, 0), PortRef::new(add0, 1))
            .unwrap();
        g.connect(PortRef::new(add0, 0), PortRef::new(f, 0))
            .unwrap();
        g.connect(PortRef::new(f, 0), PortRef::new(s, 0)).unwrap();
        g.connect(PortRef::new(s, 0), PortRef::new(add, 0)).unwrap();
        g.connect(PortRef::new(f, 1), PortRef::new(add, 1)).unwrap();
        g.connect(PortRef::new(add, 0), PortRef::new(br, 0))
            .unwrap();
        g.connect(PortRef::new(c, 0), PortRef::new(br, 1)).unwrap();
        g.connect(PortRef::new(br, 0), PortRef::new(x1, 0)).unwrap();
        g.connect(PortRef::new(br, 1), PortRef::new(sk, 0)).unwrap();
        g.validate().unwrap();
        (g, f, s, add, br)
    }

    #[test]
    fn classifies_paths_and_intra_unit() {
        let (g, ..) = figure2();
        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        assert!(!map.edges.is_empty());
        let mut saw_path = false;
        for e in &map.edges {
            match &e.target {
                EdgeTarget::Path { channels, .. } => {
                    assert!(!channels.is_empty());
                    saw_path = true;
                }
                EdgeTarget::IntraUnit(_)
                | EdgeTarget::External
                | EdgeTarget::BufferLogic(_)
                | EdgeTarget::DomainMeet { .. }
                | EdgeTarget::Artificial { .. } => {}
            }
        }
        assert!(saw_path, "expected at least one cross-unit LUT edge");
    }

    #[test]
    fn ambiguous_edge_takes_fewest_units() {
        // fork -> branch has two paths (via shl+add, or... here only one
        // via add); fork -> add has two: direct and through shl. The
        // classifier must return the 1-channel direct path.
        let (g, f, _, add, _) = figure2();
        let direct = forward_channels(&g, f, add).unwrap();
        assert_eq!(direct.len(), 1, "BFS must prefer the direct channel");
    }

    #[test]
    fn ready_direction_resolves_reverse_edges() {
        let (g, f, _, add, _) = figure2();
        // add -> fork has no forward path; classify must fall back to the
        // reverse (ready) direction.
        let t = classify(&g, Origin::Unit(add), Origin::Unit(f));
        match t {
            EdgeTarget::Path { forward, .. } => assert!(!forward),
            other => panic!("expected ready-direction path, got {other:?}"),
        }
    }

    #[test]
    fn domain_meet_connects_disjoint_cones() {
        // a and cond both reach the branch; they are not connected to each
        // other in either direction.
        let (g, ..) = figure2();
        let a = g.unit_by_name("a").unwrap();
        let c = g.unit_by_name("cond").unwrap();
        let t = classify(&g, Origin::Unit(a), Origin::Unit(c));
        match t {
            EdgeTarget::DomainMeet { channels, .. } => {
                assert!(!channels.is_empty());
            }
            other => panic!("expected domain meet, got {other:?}"),
        }
    }

    #[test]
    fn classify_cache_is_transparent() {
        let (g, ..) = figure2();
        let synth = synthesize(&g, 6).unwrap();
        let plain = map_lut_edges(&g, &synth);
        let mut cache = ClassifyCache::default();
        let first = map_lut_edges_cached(&g, &synth, &mut cache);
        assert!(!cache.is_empty());
        let second = map_lut_edges_cached(&g, &synth, &mut cache);
        for reference in [&first, &second] {
            assert_eq!(plain.edges.len(), reference.edges.len());
            for (a, b) in plain.edges.iter().zip(reference.edges.iter()) {
                assert_eq!(a.src, b.src);
                assert_eq!(a.dst, b.dst);
                assert_eq!(a.target, b.target);
            }
        }
    }

    #[test]
    fn artificial_when_fully_disconnected() {
        let mut g = Graph::new("two_islands");
        let bb = g.add_basic_block("bb0");
        let a1 = g.add_unit(UnitKind::Entry, "a1", bb, 0).unwrap();
        let x1 = g.add_unit(UnitKind::Exit, "x1", bb, 0).unwrap();
        let a2 = g.add_unit(UnitKind::Entry, "a2", bb, 0).unwrap();
        let x2 = g.add_unit(UnitKind::Exit, "x2", bb, 0).unwrap();
        g.connect(PortRef::new(a1, 0), PortRef::new(x1, 0)).unwrap();
        g.connect(PortRef::new(a2, 0), PortRef::new(x2, 0)).unwrap();
        let t = classify(&g, Origin::Unit(a1), Origin::Unit(a2));
        assert!(matches!(t, EdgeTarget::Artificial { .. }));
    }
}
