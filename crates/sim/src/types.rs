//! Error and result types shared by both engines, their shared settle
//! budget, and the small bit-twiddling helpers of the datapath model.

use crate::engine::SimEngine;
use dataflow::{Graph, UnitId};
use std::fmt;

/// Errors produced while constructing a simulator or simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The handshake network did not reach a combinational fixpoint — a
    /// dataflow cycle is missing an opaque buffer.
    NoFixpoint,
    /// No token moved and no state changed: the circuit is deadlocked.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// The cycle budget ran out before the exit token arrived.
    Timeout {
        /// The exhausted budget.
        max_cycles: u64,
    },
    /// A load/store addressed a word outside its memory.
    AddrOutOfBounds {
        /// The accessing unit.
        unit: UnitId,
        /// The faulting address.
        addr: u64,
        /// The memory size in words.
        size: usize,
    },
    /// A unit port with no channel attached was found while flattening the
    /// graph — the graph skipped [`dataflow::Graph::validate`].
    UnconnectedPort {
        /// The unit owning the dangling port.
        unit: UnitId,
        /// The port index on that unit.
        port: usize,
        /// `true` for an output port, `false` for an input port.
        output: bool,
    },
    /// A unit's sequential state table is inconsistent with its kind (for
    /// example an `Operator` with `latency() == 0` carrying a `Pipe`
    /// state). Rejected at construction so the per-cycle evaluators never
    /// have to panic.
    BadUnit {
        /// The offending unit.
        unit: UnitId,
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoFixpoint => {
                f.write_str("combinational handshake cycle (missing opaque buffer)")
            }
            SimError::Deadlock { cycle } => write!(f, "deadlock at cycle {cycle}"),
            SimError::Timeout { max_cycles } => {
                write!(f, "no completion within {max_cycles} cycles")
            }
            SimError::AddrOutOfBounds { unit, addr, size } => {
                write!(
                    f,
                    "unit {unit} accessed address {addr} of a {size}-word memory"
                )
            }
            SimError::UnconnectedPort { unit, port, output } => {
                let dir = if *output { "output" } else { "input" };
                write!(
                    f,
                    "unit {unit} has no channel on {dir} port {port} (graph not validated)"
                )
            }
            SimError::BadUnit { unit, reason } => {
                write!(f, "unit {unit} rejected at construction: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Options shared by every simulator-driven pass (measurement, CFDFC
/// extraction, slack-matching trials).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOptions {
    /// Scheduling engine to simulate with.
    pub engine: SimEngine,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Clock cycles until the exit token was consumed.
    pub cycles: u64,
    /// Payload of the exit token (`None` for width-0 control exits).
    pub exit_value: Option<u64>,
}

/// Per-settle evaluation budget of `g` in every engine: a settle that
/// needs more evaluations is cycling ([`SimError::NoFixpoint`]). One
/// budget keeps `NoFixpoint` engine-invariant.
pub(crate) fn fixpoint_limit(g: &Graph) -> usize {
    64 * (g.num_units() + g.num_channels()) + 64
}

pub(crate) fn mask(width: u16) -> u64 {
    if width == 0 {
        0
    } else if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

pub(crate) fn to_signed(v: u64, width: u16) -> i64 {
    if width == 0 || width >= 64 {
        v as i64
    } else if v & (1 << (width - 1)) != 0 {
        (v | !mask(width)) as i64
    } else {
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_widths() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn signed_reinterpretation() {
        assert_eq!(to_signed(0xFF, 8), -1);
        assert_eq!(to_signed(0x7F, 8), 127);
        assert_eq!(to_signed(0x80, 8), -128);
        assert_eq!(to_signed(5, 16), 5);
    }
}
