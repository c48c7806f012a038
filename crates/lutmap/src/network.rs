//! The mapped LUT network.

use netlist::{GateId, Origin};
use std::fmt;

/// Identifier of a LUT within a [`LutNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LutId(pub(crate) u32);

impl LutId {
    /// Creates a LUT id from a raw index.
    pub fn from_raw(index: u32) -> Self {
        LutId(index)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LutId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One input of a LUT: either another LUT's output or a sequential /
/// external startpoint (register output, primary input, constant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LutInput {
    /// Output of another LUT.
    Lut(LutId),
    /// A timing startpoint in the underlying netlist.
    Start(GateId),
}

/// A mapped K-input LUT.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Lut {
    pub(crate) root: GateId,
    pub(crate) inputs: Vec<LutInput>,
    pub(crate) gates: Vec<GateId>,
    pub(crate) origin: Origin,
    pub(crate) level: u32,
}

impl Lut {
    /// The netlist gate whose value this LUT computes.
    pub fn root(&self) -> GateId {
        self.root
    }

    /// The LUT's inputs (≤ K).
    pub fn inputs(&self) -> &[LutInput] {
        &self.inputs
    }

    /// The netlist gates covered by (folded into) this LUT, root included.
    pub fn gates(&self) -> &[GateId] {
        &self.gates
    }

    /// The provenance label: the dataflow unit (or channel buffer) that
    /// contributes the most covered gates — the rule the paper's mapper IR
    /// uses for LUT labeling (Section IV-A).
    pub fn origin(&self) -> Origin {
        self.origin
    }

    /// Logic level: 1 + max level of LUT inputs (startpoints are level 0).
    pub fn level(&self) -> u32 {
        self.level
    }
}

/// The result of technology mapping: a network of K-LUTs covering the
/// combinational logic between startpoints and endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LutNetwork {
    pub(crate) luts: Vec<Lut>,
    pub(crate) k: usize,
}

impl LutNetwork {
    /// Iterates over `(LutId, &Lut)`.
    pub fn luts(&self) -> impl Iterator<Item = (LutId, &Lut)> {
        self.luts
            .iter()
            .enumerate()
            .map(|(i, l)| (LutId(i as u32), l))
    }

    /// Looks up a LUT.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn lut(&self, id: LutId) -> &Lut {
        &self.luts[id.index()]
    }

    /// Number of LUTs (the paper's *LUTs* area column).
    pub fn num_luts(&self) -> usize {
        self.luts.len()
    }

    /// Maximum logic level over all LUTs (the paper's *Logic Levels*
    /// column). Zero for an empty network.
    pub fn depth(&self) -> u32 {
        self.luts.iter().map(|l| l.level).max().unwrap_or(0)
    }

    /// The K used for mapping.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `true` iff the two networks are equal field for field — every LUT's
    /// root, input order, covered-gate order, origin, and level, plus K.
    /// This is the equivalence the mapper at every job count, the seeded
    /// mapper, and the reference mapper are all held to.
    pub fn bit_identical(&self, other: &LutNetwork) -> bool {
        self == other
    }

    /// All LUT-to-LUT edges as `(src, dst)` pairs — the *LUT edges* the
    /// paper's LUT-to-DFG mapping (Section IV-A) classifies.
    pub fn lut_edges(&self) -> Vec<(LutId, LutId)> {
        let mut edges = Vec::new();
        for (dst, lut) in self.luts() {
            for input in &lut.inputs {
                if let LutInput::Lut(src) = input {
                    edges.push((*src, dst));
                }
            }
        }
        edges
    }
}
