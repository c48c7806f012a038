//! Precomputed adjacency index of one dataflow graph.
//!
//! The full-sweep interpreter propagates combinational changes *unit →
//! touched channels → endpoint units*. Those hops are hot, so the graph's
//! connectivity (and the per-unit kind/width and per-channel buffer spec
//! the evaluators consult on every call) is flattened once, at
//! construction, into plain arrays.
//!
//! Flattening is where an unvalidated graph surfaces: a dangling port has
//! no channel, so [`AdjIndex::try_build`] reports it as a structured
//! [`SimError::UnconnectedPort`] instead of letting the per-cycle lookups
//! panic mid-simulation.

use crate::types::SimError;
use dataflow::{BufferSpec, ChannelId, Graph, UnitId, UnitKind};

#[derive(Debug)]
pub(crate) struct AdjIndex {
    /// Per-unit kind, flat by unit index.
    pub kind: Vec<UnitKind>,
    /// Per-unit data width, flat by unit index.
    pub width: Vec<u16>,
    /// Per-channel `(src unit, dst unit)`, flat by channel index.
    pub ends: Vec<(UnitId, UnitId)>,
    /// Per-channel buffer spec, flat by channel index.
    pub spec: Vec<BufferSpec>,
    /// Flattened input ports: port `p` of unit `u` is
    /// `in_chs[in_off[u] + p]`. Every entry is a real channel —
    /// [`AdjIndex::try_build`] fails on dangling ports.
    in_off: Vec<u32>,
    in_chs: Vec<ChannelId>,
    /// Flattened output ports, same layout.
    out_off: Vec<u32>,
    out_chs: Vec<ChannelId>,
}

impl AdjIndex {
    /// Placeholder index for simulators that never consult it (the
    /// compiled engine resolves connectivity in its own program instead).
    pub fn empty() -> Self {
        AdjIndex {
            kind: Vec::new(),
            width: Vec::new(),
            ends: Vec::new(),
            spec: Vec::new(),
            in_off: vec![0],
            in_chs: Vec::new(),
            out_off: vec![0],
            out_chs: Vec::new(),
        }
    }

    /// Flattens `g`'s connectivity, failing with
    /// [`SimError::UnconnectedPort`] on any dangling port.
    pub fn try_build(g: &Graph) -> Result<Self, SimError> {
        let mut kind = Vec::with_capacity(g.num_units());
        let mut width = Vec::with_capacity(g.num_units());
        let mut in_off = Vec::with_capacity(g.num_units() + 1);
        let mut in_chs = Vec::new();
        let mut out_off = Vec::with_capacity(g.num_units() + 1);
        let mut out_chs = Vec::new();
        for (uid, u) in g.units() {
            let k = *u.kind();
            kind.push(k);
            width.push(u.width());
            in_off.push(in_chs.len() as u32);
            for p in 0..k.num_inputs() {
                let c = g.input_channel(uid, p).ok_or(SimError::UnconnectedPort {
                    unit: uid,
                    port: p,
                    output: false,
                })?;
                in_chs.push(c);
            }
            out_off.push(out_chs.len() as u32);
            for p in 0..k.num_outputs() {
                let c = g.output_channel(uid, p).ok_or(SimError::UnconnectedPort {
                    unit: uid,
                    port: p,
                    output: true,
                })?;
                out_chs.push(c);
            }
        }
        in_off.push(in_chs.len() as u32);
        out_off.push(out_chs.len() as u32);

        let mut ends = Vec::with_capacity(g.num_channels());
        let mut spec = Vec::with_capacity(g.num_channels());
        for (_, ch) in g.channels() {
            ends.push((ch.src().unit, ch.dst().unit));
            spec.push(ch.buffer());
        }
        Ok(AdjIndex {
            kind,
            width,
            ends,
            spec,
            in_off,
            in_chs,
            out_off,
            out_chs,
        })
    }

    /// Channel feeding input port `p` of `uid`.
    #[inline]
    pub fn input(&self, uid: UnitId, p: usize) -> ChannelId {
        self.in_chs[self.in_off[uid.index()] as usize + p]
    }

    /// Channel driven by output port `p` of `uid`.
    #[inline]
    pub fn output(&self, uid: UnitId, p: usize) -> ChannelId {
        self.out_chs[self.out_off[uid.index()] as usize + p]
    }
}
