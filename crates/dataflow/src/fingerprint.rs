//! Structural fingerprints of dataflow graphs.
//!
//! The iterative flow re-synthesizes the *same* buffered circuit many
//! times — the top of iteration *i+1* sees the graph the bottom of
//! iteration *i* just synthesized, slack matching probes repeat candidate
//! sets, and the final measurement synthesizes the flow's own result once
//! more. A structural fingerprint of (graph ⊕ buffer configuration) gives
//! those repeats a cache key: two graphs with equal fingerprints elaborate
//! to identical netlists, so a synthesis cache keyed on
//! `(Fingerprint, K)` can serve them from memory.
//!
//! The fingerprint covers everything elaboration reads: unit kinds,
//! names, widths and basic blocks; channel endpoints, widths and *buffer
//! specs*; memory shapes and initial contents. Two lanes of independent
//! 64-bit mixing make accidental collisions (2⁻¹²⁸-ish) irrelevant in
//! practice.

use crate::graph::Graph;
use crate::ids::BasicBlockId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A 128-bit structural hash of a graph plus its buffer annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    /// High 64 bits (FNV-1a lane).
    pub hi: u64,
    /// Low 64 bits (xorshift-multiply lane).
    pub lo: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Two-lane streaming hasher. Lane one is FNV-1a; lane two folds each
/// byte through a xorshift-multiply mix with a different prime, so the
/// lanes disagree on any single-lane collision.
struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Hasher for Lanes {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a ^= byte as u64;
            self.a = self.a.wrapping_mul(0x0000_0100_0000_01b3);
            self.b = (self.b ^ byte as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            self.b ^= self.b >> 27;
        }
    }

    fn finish(&self) -> u64 {
        self.a
    }
}

/// Computes the structural fingerprint of `g`.
///
/// Buffer annotations are part of the structure: the same base graph with
/// different [`BufferSpec`](crate::BufferSpec) sets fingerprints
/// differently, which is exactly what a synthesis cache needs.
pub fn fingerprint_graph(g: &Graph) -> Fingerprint {
    let mut h = Lanes::new();
    g.name().hash(&mut h);
    g.num_units().hash(&mut h);
    for (id, unit) in g.units() {
        id.index().hash(&mut h);
        unit.kind().hash(&mut h);
        unit.name().hash(&mut h);
        unit.bb().index().hash(&mut h);
        unit.width().hash(&mut h);
    }
    g.num_channels().hash(&mut h);
    for (id, ch) in g.channels() {
        id.index().hash(&mut h);
        ch.src().unit.index().hash(&mut h);
        ch.src().port.hash(&mut h);
        ch.dst().unit.index().hash(&mut h);
        ch.dst().port.hash(&mut h);
        ch.width().hash(&mut h);
        ch.buffer().opaque.hash(&mut h);
        ch.buffer().transparent.hash(&mut h);
    }
    for (id, bb) in g.basic_blocks() {
        id.index().hash(&mut h);
        bb.name().hash(&mut h);
    }
    for (id, mem) in g.memories() {
        id.index().hash(&mut h);
        mem.name().hash(&mut h);
        mem.size().hash(&mut h);
        mem.width().hash(&mut h);
        mem.init().hash(&mut h);
    }
    Fingerprint { hi: h.a, lo: h.b }
}

/// Computes one structural fingerprint per basic block.
///
/// A block's print covers its units (kind, name, width, id) and every
/// channel *incident* to the block — including the channel's buffer spec,
/// hashed from both the source and the destination side. Changing a
/// buffer therefore changes the print of both blocks the channel touches,
/// which is exactly the dirty set an incremental re-synthesis has to
/// re-examine: buffer logic splices into the producer's and the
/// consumer's handshake cones.
///
/// The result is ordered by block id, one entry per block of `g`.
pub fn fingerprint_bbs(g: &Graph) -> Vec<(BasicBlockId, Fingerprint)> {
    let mut lanes: Vec<(BasicBlockId, Lanes)> = g
        .basic_blocks()
        .map(|(id, bb)| {
            let mut h = Lanes::new();
            id.index().hash(&mut h);
            bb.name().hash(&mut h);
            (id, h)
        })
        .collect();
    for (id, unit) in g.units() {
        let h = &mut lanes[unit.bb().index()].1;
        id.index().hash(h);
        unit.kind().hash(h);
        unit.name().hash(h);
        unit.width().hash(h);
    }
    for (id, ch) in g.channels() {
        let src_bb = g.unit(ch.src().unit).bb();
        let dst_bb = g.unit(ch.dst().unit).bb();
        for bb in [src_bb, dst_bb] {
            let h = &mut lanes[bb.index()].1;
            id.index().hash(h);
            ch.src().unit.index().hash(h);
            ch.src().port.hash(h);
            ch.dst().unit.index().hash(h);
            ch.dst().port.hash(h);
            ch.width().hash(h);
            ch.buffer().opaque.hash(h);
            ch.buffer().transparent.hash(h);
            if src_bb == dst_bb {
                break; // intra-block channels hash once
            }
        }
    }
    lanes
        .into_iter()
        .map(|(id, h)| (id, Fingerprint { hi: h.a, lo: h.b }))
        .collect()
}

/// Counts the blocks whose fingerprints differ between `prev` and `cur`
/// (blocks present on only one side count as dirty).
///
/// Both slices should come from [`fingerprint_bbs`] runs over the same
/// base graph with different buffer annotations; the count is the dirty-BB
/// set size the incremental flow reports per iteration.
pub fn count_dirty_bbs(
    prev: &[(BasicBlockId, Fingerprint)],
    cur: &[(BasicBlockId, Fingerprint)],
) -> usize {
    let max = prev.len().max(cur.len());
    let mut dirty = max - prev.len().min(cur.len());
    for (p, c) in prev.iter().zip(cur.iter()) {
        if p != c {
            dirty += 1;
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::BufferSpec;
    use crate::unit::UnitKind;
    use crate::PortRef;

    fn tiny() -> (Graph, crate::ChannelId) {
        let mut g = Graph::new("fp");
        let bb = g.add_basic_block("bb0");
        let e = g.add_unit(UnitKind::Entry, "e", bb, 0).unwrap();
        let x = g.add_unit(UnitKind::Exit, "x", bb, 0).unwrap();
        let c = g.connect(PortRef::new(e, 0), PortRef::new(x, 0)).unwrap();
        (g, c)
    }

    #[test]
    fn identical_graphs_fingerprint_identically() {
        let (g1, _) = tiny();
        let (g2, _) = tiny();
        assert_eq!(fingerprint_graph(&g1), fingerprint_graph(&g2));
        assert_eq!(fingerprint_graph(&g1), fingerprint_graph(&g1.clone()));
    }

    #[test]
    fn buffers_change_the_fingerprint() {
        let (mut g, c) = tiny();
        let before = fingerprint_graph(&g);
        g.set_buffer(c, BufferSpec::FULL);
        let full = fingerprint_graph(&g);
        assert_ne!(before, full);
        g.set_buffer(c, BufferSpec::TRANSPARENT);
        assert_ne!(full, fingerprint_graph(&g));
    }

    #[test]
    fn names_and_widths_matter() {
        let (g, _) = tiny();
        let mut other = Graph::new("fp");
        let bb = other.add_basic_block("bb0");
        let e = other.add_unit(UnitKind::Entry, "e2", bb, 0).unwrap();
        let x = other.add_unit(UnitKind::Exit, "x", bb, 0).unwrap();
        other
            .connect(PortRef::new(e, 0), PortRef::new(x, 0))
            .unwrap();
        assert_ne!(fingerprint_graph(&g), fingerprint_graph(&other));
    }

    #[test]
    fn bb_fingerprints_localize_buffer_changes() {
        let mut g = Graph::new("bbs");
        let bb0 = g.add_basic_block("bb0");
        let bb1 = g.add_basic_block("bb1");
        let e = g.add_unit(UnitKind::Entry, "e", bb0, 0).unwrap();
        let m = g.add_unit(UnitKind::Exit, "m", bb0, 0).unwrap();
        let e1 = g.add_unit(UnitKind::Entry, "e1", bb1, 0).unwrap();
        let x = g.add_unit(UnitKind::Exit, "x", bb1, 0).unwrap();
        let c0 = g.connect(PortRef::new(e, 0), PortRef::new(m, 0)).unwrap();
        let _c1 = g.connect(PortRef::new(e1, 0), PortRef::new(x, 0)).unwrap();
        let before = fingerprint_bbs(&g);
        assert_eq!(before.len(), 2);
        // Buffering the bb0-internal channel dirties bb0 only.
        g.set_buffer(c0, BufferSpec::FULL);
        let after = fingerprint_bbs(&g);
        assert_ne!(before[0].1, after[0].1);
        assert_eq!(before[1].1, after[1].1);
        assert_eq!(count_dirty_bbs(&before, &after), 1);
        assert_eq!(count_dirty_bbs(&after, &after), 0);
    }

    #[test]
    fn cross_bb_channel_dirties_both_blocks() {
        let mut g = Graph::new("xbb");
        let bb0 = g.add_basic_block("bb0");
        let bb1 = g.add_basic_block("bb1");
        let e = g.add_unit(UnitKind::Entry, "e", bb0, 0).unwrap();
        let x = g.add_unit(UnitKind::Exit, "x", bb1, 0).unwrap();
        let c = g.connect(PortRef::new(e, 0), PortRef::new(x, 0)).unwrap();
        let before = fingerprint_bbs(&g);
        g.set_buffer(c, BufferSpec::FULL);
        let after = fingerprint_bbs(&g);
        assert_ne!(before[0].1, after[0].1);
        assert_ne!(before[1].1, after[1].1);
        assert_eq!(count_dirty_bbs(&before, &after), 2);
    }

    #[test]
    fn display_is_32_hex_chars() {
        let (g, _) = tiny();
        let s = fingerprint_graph(&g).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.bytes().all(|b| b.is_ascii_hexdigit()));
    }
}
