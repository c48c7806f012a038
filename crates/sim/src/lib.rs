//! Cycle-accurate simulation of elastic dataflow circuits.
//!
//! This crate replaces ModelSim in the paper's flow: it executes a
//! [`dataflow::Graph`] with bit-true token semantics and reports the clock
//! cycle count — the *Clock Cycles* column of Table I. Buffer placements
//! annotated on channels change the timing behaviour (opaque buffers add a
//! cycle of latency; both kinds add capacity), so the throughput effects of
//! the paper's optimizer are directly observable here.
//!
//! The simulator uses the same two-phase discipline as hardware: each cycle
//! it (1) iterates the combinational handshake network (data/valid forward,
//! ready backward) to a fixpoint, then (2) commits all sequential state
//! (buffer slots, fork done flags, operator pipelines, memory ports).
//!
//! Two engines share those semantics (see [`SimEngine`]). The default,
//! [`SimEngine::Compiled`] (see [`compile`]), lowers the graph once and
//! executes a tight decode loop; every pass runs on it.
//! [`SimEngine::FullSweep`], the original interpreter that re-evaluates
//! every unit each cycle, is kept as its bit-identical oracle. Slack
//! matching compiles one [`Program`] per placement and runs each round's
//! trials as the lanes of one [`CompiledLanes`] run: every lane is
//! bit-identical to a single [`CompiledSim`] run, its lane-by-lane oracle.
//!
//! # Example
//!
//! ```
//! use dataflow::{Graph, UnitKind, OpKind, PortRef};
//! use sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("double");
//! let bb = g.add_basic_block("bb0");
//! let a = g.add_unit(UnitKind::Argument { index: 0 }, "a", bb, 16)?;
//! let s = g.add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "shl", bb, 16)?;
//! let x = g.add_unit(UnitKind::Exit, "x", bb, 16)?;
//! g.connect(PortRef::new(a, 0), PortRef::new(s, 0))?;
//! g.connect(PortRef::new(s, 0), PortRef::new(x, 0))?;
//! g.validate()?;
//! let mut sim = Simulator::new(&g)?;
//! sim.set_arg(0, 21);
//! let stats = sim.run(1000)?;
//! assert_eq!(stats.exit_value, Some(42));
//! # Ok(())
//! # }
//! ```

mod commit;
pub mod compile;
mod engine;
mod eval;
mod index;
mod state;
mod types;
mod vcd;

pub use compile::{CompiledLanes, CompiledSim, LaneRun, Program, MAX_LANES};
pub use engine::{SimEngine, Simulator};
pub use types::{RunStats, SimError, SimOptions};
pub use vcd::VcdTracer;
