//! Compiled simulation backend: a one-time lowering of a dataflow graph
//! into flat bytecode, executed by a tight decode loop.
//!
//! The full-sweep interpreter ([`crate::engine::SimEngine::FullSweep`])
//! re-dispatches on [`dataflow::UnitKind`] and chases port lookups every
//! cycle. This module pays those costs exactly once:
//!
//! * [`Program::compile`] lowers each unit to one fixed-size instruction —
//!   a dense opcode, a pre-masked immediate, and offsets into shared pools
//!   of preresolved channel indices and sequential-state slots (struct-of-
//!   arrays, no per-unit allocation).
//! * [`CompiledSim`] executes the program with SoA signal vectors and
//!   dense `u64` dirty bitmasks in place of the interpreter's
//!   worklist. A program is immutable and `Arc`-shared: slack matching
//!   compiles one program per placement and overlays every buffer set it
//!   simulates on it without re-flattening the graph.
//! * [`CompiledLanes`] runs up to [`MAX_LANES`] buffer overlays of one
//!   program in lock step: valid/ready as `u64` lane masks, payloads and
//!   state per lane, one dispatch per unit for every lane that needs it.
//!   Slack matching runs each round's trials as its lanes; every lane is
//!   pinned against [`CompiledSim`], its lane-by-lane oracle.
//!
//! Semantics are *defined* by the interpreter: every evaluation and
//! commit function here mirrors the interpreter's `eval`/`commit` modules
//! statement for statement, and `tests/sim_equivalence.rs` pins the
//! bit-identity (same `RunStats`, per-channel counters, per-cycle
//! handshake view, memory images, error variants, and error precedence)
//! on proptest DFGs and all evaluation kernels.

mod lanes;
mod program;
mod vm;

pub use lanes::{CompiledLanes, LaneRun, MAX_LANES};
pub use program::Program;
pub use vm::CompiledSim;
