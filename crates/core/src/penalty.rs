//! The logic-sharing penalty of Section IV-C (Eq. 2).
//!
//! `Penalty(c) = |X_fake(c)| / |X(c)|` where `X(c)` is the set of delay
//! nodes in the *source unit* of channel `c` and `X_fake(c)` the fake
//! delay nodes of that unit incident to `c`. A penalty of 1 means the
//! source unit shares *all* of its logic with its successor — placing a
//! buffer there would forbid the sharing and inflate area, so the
//! optimizer weights such buffers `(1 + penalty)` in the objective
//! (Eq. 3).

use crate::timing::TimingGraph;
use dataflow::collections::HashMap;
use dataflow::{ChannelId, Graph, UnitId};

/// Computes the per-channel penalties from a timing model in
/// O(nodes + edges + units + channels): one pass over the timing nodes
/// counts `|X(u)|` per unit, one pass over the timing edges collects
/// `X_fake(c)` per channel.
///
/// Channels whose source unit has no delay nodes at all (fully optimized
/// away) get penalty 0 — there is no logic left to disrupt. Units and
/// channels the timing model names but `g` does not are skipped.
pub fn compute_penalties(g: &Graph, timing: &TimingGraph) -> HashMap<ChannelId, f64> {
    let mut unit_nodes = vec![0usize; g.num_units()];
    let fake_unit: Vec<Option<UnitId>> = timing
        .nodes()
        .map(|(_, n)| {
            if let Some(count) = n.unit.and_then(|u| unit_nodes.get_mut(u.index())) {
                *count += 1;
            }
            n.unit.filter(|_| n.fake)
        })
        .collect();
    let mut x_fake: Vec<Vec<usize>> = vec![Vec::new(); g.num_channels()];
    for e in timing.edges() {
        let Some(c) = e.channel.filter(|c| c.index() < g.num_channels()) else {
            continue;
        };
        let src = Some(g.channel(c).src().unit);
        for n in [e.from.index(), e.to.index()] {
            if fake_unit.get(n) == Some(&src) {
                x_fake[c.index()].push(n);
            }
        }
    }
    // A node can touch `c` on several edges (a self-loop, or `c` both in
    // and out) but belongs to X_fake(c) once. Buckets are read channel by
    // channel, so a per-node stamp of the last channel counted suffices.
    let mut counted_for = vec![usize::MAX; fake_unit.len()];
    g.channels()
        .map(|(c, ch)| {
            let mut fakes = 0usize;
            for &n in &x_fake[c.index()] {
                if std::mem::replace(&mut counted_for[n], c.index()) != c.index() {
                    fakes += 1;
                }
            }
            let total = unit_nodes[ch.src().unit.index()];
            let p = if total == 0 {
                0.0
            } else {
                fakes as f64 / total as f64
            };
            (c, p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lutdfg::map_lut_edges;
    use crate::synth::synthesize;
    use crate::timing::TimingNode;
    use dataflow::{OpKind, PortRef, UnitKind};

    /// The dataflow chain `u0 --c0--> u1 --c1--> u2`.
    fn tiny_dfg() -> Graph {
        let mut g = Graph::new("tiny");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 8)
            .unwrap();
        let s = g
            .add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "s", bb, 8)
            .unwrap();
        let x = g.add_unit(UnitKind::Exit, "x", bb, 8).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(s, 0)).unwrap();
        g.connect(PortRef::new(s, 0), PortRef::new(x, 0)).unwrap();
        g
    }

    /// A hand-built timing model over [`tiny_dfg`] (`c0` leaves `u0`, `c1`
    /// leaves `u1`): `nodes` as `(unit, fake)`, `edges` as
    /// `(from, to, channel)`.
    fn timing(nodes: &[(Option<u32>, bool)], edges: &[(usize, usize, u32)]) -> TimingGraph {
        let mut tg = TimingGraph::default();
        let ids: Vec<_> = nodes
            .iter()
            .map(|&(unit, fake)| {
                tg.add_node(TimingNode {
                    unit: unit.map(UnitId::from_raw),
                    lut: None,
                    fake,
                })
            })
            .collect();
        for &(from, to, c) in edges {
            tg.add_edge(ids[from], ids[to], Some(ChannelId::from_raw(c)));
        }
        tg
    }

    fn penalty(tg: &TimingGraph, c: u32) -> f64 {
        compute_penalties(&tiny_dfg(), tg)[&ChannelId::from_raw(c)]
    }

    #[test]
    fn unit_node_accounting() {
        // A --c0--> B(fake) --c1--> C: u0 holds one real node and no fake
        // one; u1's only node is the fake node on c1.
        let tg = timing(
            &[(Some(0), false), (Some(1), true), (Some(2), false)],
            &[(0, 1, 0), (1, 2, 1)],
        );
        let penalties = compute_penalties(&tiny_dfg(), &tg);
        assert_eq!(penalties.len(), 2);
        assert_eq!(penalties[&ChannelId::from_raw(0)], 0.0);
        assert_eq!(penalties[&ChannelId::from_raw(1)], 1.0);
    }

    #[test]
    fn fake_node_with_the_channel_in_and_out_counts_once() {
        let tg = timing(
            &[(Some(1), false), (Some(1), true), (Some(2), false)],
            &[(0, 1, 1), (1, 2, 1)],
        );
        assert_eq!(penalty(&tg, 1), 0.5);
    }

    #[test]
    fn self_loop_edge_counts_once() {
        let tg = timing(&[(Some(1), false), (Some(1), true)], &[(1, 1, 1)]);
        assert_eq!(penalty(&tg, 1), 0.5);
    }

    #[test]
    fn fake_node_without_a_unit_is_not_counted() {
        let tg = timing(&[(Some(1), false), (None, true)], &[(0, 1, 1), (1, 0, 1)]);
        assert_eq!(penalty(&tg, 1), 0.0);
    }

    #[test]
    fn source_unit_without_nodes_has_zero_penalty() {
        // c0 leaves u0, which holds no node at all.
        let tg = timing(&[(Some(1), true)], &[(0, 0, 0)]);
        assert_eq!(penalty(&tg, 0), 0.0);
    }

    #[test]
    fn ids_outside_the_graph_are_skipped() {
        let tg = timing(
            &[(Some(7), true), (Some(1), false)],
            &[(0, 1, 1), (1, 0, 9)],
        );
        let penalties = compute_penalties(&tiny_dfg(), &tg);
        assert_eq!(penalties.len(), 2);
        assert_eq!(penalties[&ChannelId::from_raw(1)], 0.0);
    }

    /// The scenario of Figure 2.d on the unambiguous chain
    /// `add0 → shl → add2`: the shifter is pure wiring, so it synthesizes
    /// into the downstream adder's LUTs; its outgoing channel (the paper's
    /// channel *b*) must get penalty 1 while the neighbours (channels *a*
    /// and *c*) stay at 0.
    #[test]
    fn figure2_penalties() {
        let mut g = dataflow::Graph::new("fig2chain");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 16)
            .unwrap();
        let b = g
            .add_unit(UnitKind::Argument { index: 1 }, "b", bb, 16)
            .unwrap();
        let c = g
            .add_unit(UnitKind::Argument { index: 2 }, "c", bb, 16)
            .unwrap();
        let add0 = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add0", bb, 16)
            .unwrap();
        let s = g
            .add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "shl", bb, 16)
            .unwrap();
        let add2 = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add2", bb, 16)
            .unwrap();
        let x = g.add_unit(UnitKind::Exit, "exit", bb, 16).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(add0, 0))
            .unwrap();
        g.connect(PortRef::new(b, 0), PortRef::new(add0, 1))
            .unwrap();
        let ch_a = g
            .connect(PortRef::new(add0, 0), PortRef::new(s, 0))
            .unwrap();
        let ch_b = g
            .connect(PortRef::new(s, 0), PortRef::new(add2, 0))
            .unwrap();
        g.connect(PortRef::new(c, 0), PortRef::new(add2, 1))
            .unwrap();
        let ch_c = g
            .connect(PortRef::new(add2, 0), PortRef::new(x, 0))
            .unwrap();
        g.validate().unwrap();

        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        let timing = TimingGraph::build(&g, &synth, &map);
        let penalties = compute_penalties(&g, &timing);

        // The shifter is pure wiring: all of its "logic" is shared with
        // the adder, so the shl→add2 channel carries the maximal penalty.
        assert!(
            penalties[&ch_b] > 0.99,
            "shl→add2 penalty {} should be 1",
            penalties[&ch_b]
        );
        // The upstream adder keeps real LUTs of its own.
        assert!(
            penalties[&ch_a] < 0.5,
            "add0→shl penalty {} should be low",
            penalties[&ch_a]
        );
        assert!(
            penalties[&ch_c] < 0.5,
            "add2→exit penalty {} should be low",
            penalties[&ch_c]
        );
    }

    #[test]
    fn penalties_are_normalized() {
        let k = hls::kernels::gsum(8);
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        let timing = TimingGraph::build(&g, &synth, &map);
        let penalties = compute_penalties(&g, &timing);
        assert_eq!(penalties.len(), g.num_channels());
        for (&c, &p) in &penalties {
            assert!((0.0..=1.0).contains(&p), "penalty {p} for {c}");
        }
    }
}
