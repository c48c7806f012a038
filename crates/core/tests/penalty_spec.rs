//! Eq. 2 against its definition: `compute_penalties` must equal, bit for
//! bit, the direct reading of Section IV-C that scans every timing edge
//! once per fake node, on every kernel's real timing model.

use dataflow::collections::HashMap;
use dataflow::{BufferSpec, ChannelId, Graph, UnitId};
use frequenz_core::{compute_penalties, map_lut_edges, synthesize, TimingGraph};

/// `Penalty(c) = |X_fake(c)| / |X(c)|` computed from the definition:
/// `X(u)` are the nodes attributed to unit `u`, and `X_fake(c)` the fake
/// nodes of `c`'s source unit with at least one incident edge labelled
/// `c`. O(fake nodes × edges).
fn spec(g: &Graph, timing: &TimingGraph) -> HashMap<ChannelId, f64> {
    let mut unit_nodes: HashMap<UnitId, usize> = HashMap::default();
    let mut fake_touching: HashMap<(UnitId, ChannelId), usize> = HashMap::default();
    for (id, node) in timing.nodes() {
        let Some(u) = node.unit else { continue };
        *unit_nodes.entry(u).or_default() += 1;
        if !node.fake {
            continue;
        }
        let mut touched: Vec<ChannelId> = Vec::new();
        for e in timing.edges() {
            if e.from == id || e.to == id {
                if let Some(c) = e.channel {
                    if !touched.contains(&c) {
                        touched.push(c);
                    }
                }
            }
        }
        for c in touched {
            *fake_touching.entry((u, c)).or_default() += 1;
        }
    }
    g.channels()
        .map(|(c, ch)| {
            let u = ch.src().unit;
            let total = unit_nodes.get(&u).copied().unwrap_or(0);
            let fakes = fake_touching.get(&(u, c)).copied().unwrap_or(0);
            let p = if total == 0 {
                0.0
            } else {
                fakes as f64 / total as f64
            };
            (c, p)
        })
        .collect()
}

fn assert_matches_spec(name: &str, g: &Graph, k: usize) {
    let synth = synthesize(g, k).unwrap();
    let timing = TimingGraph::build(g, &synth, &map_lut_edges(g, &synth));
    let fast = compute_penalties(g, &timing);
    let slow = spec(g, &timing);
    assert_eq!(fast.len(), g.num_channels(), "{name} K{k}");
    for (c, p) in &slow {
        assert_eq!(
            fast[c].to_bits(),
            p.to_bits(),
            "{name} K{k} channel {c}: {} vs spec {p}",
            fast[c]
        );
    }
    assert!(
        slow.values().any(|&p| p > 0.0),
        "{name} K{k}: no channel carries a penalty, so nothing was compared"
    );
}

#[test]
fn linear_penalties_equal_the_definition_on_every_kernel() {
    for kernel in hls::kernels::all_kernels_small() {
        let name = kernel.name;
        let seeded = kernel.seeded_graph();
        assert_matches_spec(name, &seeded, 6);
        assert_matches_spec(name, &seeded, 4);
        // Extra buffers change the netlist, hence the LUT cones and the
        // fake nodes along them.
        let mut buffered = seeded.clone();
        for c in (0..buffered.num_channels()).step_by(3) {
            buffered.set_buffer(ChannelId::from_raw(c as u32), BufferSpec::FULL);
        }
        assert_matches_spec(name, &buffered, 6);
    }
}
