//! Elastic dataflow-circuit intermediate representation.
//!
//! This crate models the *dataflow graphs* (DFGs) produced by dynamically
//! scheduled HLS compilers such as Dynamatic: a network of handshake
//! *units* (forks, joins, branches, merges, muxes, operators, …) connected
//! by *channels* that carry a data payload together with a `valid`/`ready`
//! handshake pair. Buffers (pipeline registers) may be placed on any channel
//! without changing functionality — the property that the mapping-aware
//! buffer-placement algorithm of the paper exploits.
//!
//! # Example
//!
//! Build the fork–shift–add–branch graph of Figure 2 of the paper:
//!
//! ```
//! use dataflow::{Graph, UnitKind, OpKind, PortRef};
//!
//! # fn main() -> Result<(), dataflow::GraphError> {
//! let mut g = Graph::new("figure2");
//! let bb = g.add_basic_block("bb0");
//! let entry = g.add_unit(UnitKind::Argument { index: 0 }, "entry", bb, 8)?;
//! let fork = g.add_unit(UnitKind::fork(2), "fork", bb, 8)?;
//! let shl = g.add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "shl", bb, 8)?;
//! let add = g.add_unit(UnitKind::Operator(OpKind::Add), "add", bb, 8)?;
//! let exit = g.add_unit(UnitKind::Exit, "exit", bb, 8)?;
//! g.connect(PortRef::new(entry, 0), PortRef::new(fork, 0))?;
//! g.connect(PortRef::new(fork, 0), PortRef::new(shl, 0))?;
//! g.connect(PortRef::new(shl, 0), PortRef::new(add, 0))?;
//! g.connect(PortRef::new(fork, 1), PortRef::new(add, 1))?;
//! g.connect(PortRef::new(add, 0), PortRef::new(exit, 0))?;
//! g.validate()?;
//! assert_eq!(g.units().count(), 5);
//! # Ok(())
//! # }
//! ```

mod bb;
mod channel;
pub mod collections;
mod cycles;
mod dot;
mod error;
pub mod fingerprint;
mod graph;
mod ids;
mod memory;
pub mod par;
pub mod rng;
mod text;
mod unit;

pub use bb::BasicBlock;
pub use channel::{BufferSpec, Channel, PortRef};
pub use cycles::enumerate_simple_cycles;
pub use error::GraphError;
pub use fingerprint::{count_dirty_bbs, fingerprint_bbs, fingerprint_graph, Fingerprint};
pub use graph::Graph;
pub use ids::{BasicBlockId, ChannelId, MemoryId, UnitId};
pub use memory::Memory;
pub use rng::XorShift64;
pub use unit::{OpKind, PortDir, PortSpec, Unit, UnitKind};

/// Delay, in nanoseconds, attributed to one logic level (one LUT), matching
/// the paper's evaluation setup (Section VI-A).
pub const LOGIC_LEVEL_DELAY_NS: f64 = 0.7;
