//! Basic blocks: the control-flow provenance of dataflow units.
//!
//! Dynamatic-style HLS lowers each basic block of the source CFG into a
//! cluster of dataflow units. The iterative buffer-subset selection of the
//! paper (Section V) distributes retained buffers *evenly across basic
//! blocks*, so the IR records which block each unit came from.

/// A basic block of the source program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    pub(crate) name: String,
}

impl BasicBlock {
    /// The block's name (e.g. `"for.body"`).
    pub fn name(&self) -> &str {
        &self.name
    }
}
