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
//!   worklist. A program is immutable and `Arc`-shared:
//!   slack matching compiles one program per placement and runs hundreds
//!   of buffer-overlay trials against it from multiple threads without
//!   re-flattening the graph.
//!
//! Semantics are *defined* by the interpreter: every evaluation and
//! commit function here mirrors [`crate::eval`]/[`crate::commit`]
//! statement for statement, and `tests/sim_equivalence.rs` pins the
//! bit-identity (same `RunStats`, per-channel counters, per-cycle
//! handshake view, memory images, error variants, and error precedence)
//! on proptest DFGs and all evaluation kernels.

mod program;
mod vm;

pub use program::Program;
pub use vm::CompiledSim;
