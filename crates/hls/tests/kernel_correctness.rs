//! Every kernel circuit, with buffers seeded on its loop back edges, must
//! reproduce its software reference bit-exactly.

use hls::kernels;
use hls::Kernel;
use sim::Simulator;

fn check(kernel: &Kernel) {
    let g = kernel.seeded_graph();
    g.validate().expect("kernel validates");
    let mut s = Simulator::new(&g).unwrap();
    let stats = s
        .run(kernel.max_cycles)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
    kernel
        .check_outputs(stats.exit_value, |m| s.memory(m))
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(
        stats.cycles > 1,
        "{} must take multiple cycles",
        kernel.name
    );
}

#[test]
fn gsum_matches_reference() {
    check(&kernels::gsum(16));
}

#[test]
fn gsumif_matches_reference() {
    check(&kernels::gsumif(16));
}

#[test]
fn gaussian_matches_reference() {
    check(&kernels::gaussian(5));
}

#[test]
fn insertion_sort_matches_reference() {
    check(&kernels::insertion_sort(8));
}

#[test]
fn stencil_2d_matches_reference() {
    check(&kernels::stencil_2d(5));
}

#[test]
fn covariance_matches_reference() {
    check(&kernels::covariance(4));
}

#[test]
fn matrix_matches_reference() {
    check(&kernels::matrix(4));
}

#[test]
fn mvt_matches_reference() {
    check(&kernels::mvt(4));
}

#[test]
fn gemver_matches_reference() {
    check(&kernels::gemver(4));
}

#[test]
fn all_small_kernels_build_and_validate() {
    for k in kernels::all_kernels_small() {
        k.graph().validate().unwrap();
        assert!(!k.back_edges().is_empty() || k.name == "straightline");
        // Back edges really are cycles: removing their buffers must leave
        // at least one simple cycle through each.
        let cycles = dataflow::enumerate_simple_cycles(k.graph(), 10_000);
        for &be in k.back_edges() {
            assert!(
                cycles.iter().any(|c| c.contains(&be)),
                "{}: back edge {be} not on any cycle",
                k.name
            );
        }
    }
}

/// The `.dfg` export of every reduced kernel: between `dfg <name>` and
/// `end`, one `bb` line per basic block, one `mem` line per memory, one
/// `unit` line per unit and one `chan` line per channel, each in id order
/// and naming its unit or ports, and nothing else.
#[test]
fn kernels_export_every_entity_as_dfg_text() {
    for k in kernels::all_kernels_small() {
        let g = k.graph();
        let text = g.to_dfg_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.first(), Some(&format!("dfg {}", k.name).as_str()));
        assert_eq!(lines.last(), Some(&"end"), "{}", k.name);
        let tagged = |tag: &str| -> Vec<&str> {
            lines
                .iter()
                .filter_map(|l| l.strip_prefix(tag)?.strip_prefix(' '))
                .collect()
        };
        let (bbs, mems) = (tagged("bb"), tagged("mem"));
        let (units, chans) = (tagged("unit"), tagged("chan"));
        assert_eq!(bbs.len(), g.basic_blocks().count(), "{}", k.name);
        assert_eq!(mems.len(), g.memories().count(), "{}", k.name);
        assert_eq!(units.len(), g.num_units(), "{}", k.name);
        assert_eq!(chans.len(), g.num_channels(), "{}", k.name);
        let entities = bbs.len() + mems.len() + units.len() + chans.len();
        assert_eq!(lines.len(), entities + 2, "{}: stray lines", k.name);
        for ((_, m), line) in g.memories().zip(&mems) {
            assert!(line.starts_with(&format!("{} ", m.name())), "{line}");
        }
        for ((_, u), line) in g.units().zip(&units) {
            assert!(line.starts_with(&format!("{} ", u.name())), "{line}");
        }
        for ((_, c), line) in g.channels().zip(&chans) {
            let ports = format!("{} -> {}", c.src(), c.dst());
            assert!(line.starts_with(&ports), "{}: {line}", k.name);
        }
    }
}
