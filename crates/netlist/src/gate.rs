//! Gate primitives and provenance.

use dataflow::{ChannelId, UnitId};
use std::fmt;

/// Identifier of a gate within a [`Netlist`](crate::Netlist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Creates a gate id from a raw index.
    pub fn from_raw(index: u32) -> Self {
        GateId(index)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Primitive gate kinds.
///
/// The elaborator only emits these; richer operators (adders, muxe trees,
/// comparators) are decomposed into them so the optimizer and the LUT
/// mapper see a homogeneous network, like a BLIF read into ABC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Constant 0/1.
    Const(bool),
    /// Primary input: a value produced outside the LUT fabric (kernel
    /// argument bit, DSP-block product bit, BRAM read-data bit). A timing
    /// startpoint, like a register output.
    Input,
    /// Single-fanin pass-through used during elaboration to stitch units
    /// together; eliminated by [`Netlist::optimize`](crate::Netlist::optimize).
    Alias,
    /// Inverter (1 fanin).
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR.
    Xor,
    /// 2:1 multiplexer: fanins are `[sel, a, b]`, output `sel ? a : b`.
    Mux,
    /// D flip-flop: fanin `[d]`; output is the registered value. A timing
    /// startpoint *and* endpoint.
    Reg,
    /// D flip-flop with clock enable: fanins `[en, d]`; holds its value
    /// while `en` is low. The enable uses the FF's CE pin — no LUT cost,
    /// exactly like FPGA fabric (this is why buffers cost no datapath
    /// logic).
    RegEn,
}

impl GateKind {
    /// Number of fanins this kind requires.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Const(_) | GateKind::Input => 0,
            GateKind::Alias | GateKind::Not | GateKind::Reg => 1,
            GateKind::And | GateKind::Or | GateKind::Xor | GateKind::RegEn => 2,
            GateKind::Mux => 3,
        }
    }

    /// `true` for combinational logic gates that occupy LUT fabric
    /// (everything except constants, inputs, aliases and registers).
    pub fn is_logic(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::And | GateKind::Or | GateKind::Xor | GateKind::Mux
        )
    }

    /// `true` if the gate output is a combinational-timing startpoint.
    pub fn is_startpoint(self) -> bool {
        matches!(
            self,
            GateKind::Const(_) | GateKind::Input | GateKind::Reg | GateKind::RegEn
        )
    }

    /// `true` for sequential elements (one flip-flop each).
    pub fn is_reg(self) -> bool {
        matches!(self, GateKind::Reg | GateKind::RegEn)
    }

    /// `true` for commutative 2-input gates (fanins may be canonically
    /// sorted for structural hashing).
    pub fn is_commutative(self) -> bool {
        matches!(self, GateKind::And | GateKind::Or | GateKind::Xor)
    }
}

/// Where a gate came from: the provenance the LUT mapper propagates so the
/// paper's LUT→DFG mapping can recover unit boundaries after synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Logic belonging to a dataflow unit.
    Unit(UnitId),
    /// Logic belonging to a buffer placed on a channel.
    Channel(ChannelId),
    /// Glue with no meaningful provenance (constants, stitched wires).
    External,
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Unit(u) => write!(f, "{u}"),
            Origin::Channel(c) => write!(f, "{c}"),
            Origin::External => f.write_str("ext"),
        }
    }
}

/// One gate of a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) fanin: Vec<GateId>,
    pub(crate) origin: Origin,
}

impl Gate {
    /// The gate's kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gate's fanin gate ids (length = `kind.arity()`).
    pub fn fanin(&self) -> &[GateId] {
        &self.fanin
    }

    /// The gate's provenance.
    pub fn origin(&self) -> Origin {
        self.origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_kind() {
        assert_eq!(GateKind::Const(true).arity(), 0);
        assert_eq!(GateKind::Not.arity(), 1);
        assert_eq!(GateKind::And.arity(), 2);
        assert_eq!(GateKind::Mux.arity(), 3);
        assert_eq!(GateKind::Reg.arity(), 1);
    }

    #[test]
    fn classification() {
        assert!(GateKind::And.is_logic());
        assert!(!GateKind::Reg.is_logic());
        assert!(GateKind::Reg.is_startpoint());
        assert!(GateKind::Input.is_startpoint());
        assert!(!GateKind::And.is_startpoint());
        assert!(GateKind::Xor.is_commutative());
        assert!(!GateKind::Mux.is_commutative());
    }

    #[test]
    fn origin_display() {
        assert_eq!(Origin::Unit(UnitId::from_raw(2)).to_string(), "u2");
        assert_eq!(Origin::External.to_string(), "ext");
    }
}
