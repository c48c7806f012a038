//! Gate-level netlists for dataflow circuits.
//!
//! This crate is the logic-synthesis substrate of the reproduction: it plays
//! the role ODIN-II + Yosys play in the paper's flow. It elaborates every
//! dataflow unit (handshake control *and* datapath) into a network of simple
//! gates with *provenance* — each gate remembers which dataflow unit or
//! channel it came from — and then optimizes the network with the classic
//! structural rewrites (constant propagation, identities, double negation,
//! structural hashing, dead-gate sweep).
//!
//! Cross-unit optimization is the phenomenon the paper is built around
//! (Figure 1: a join's AND gate merging into the neighbouring forks'
//! logic); it emerges here naturally because the optimizer hashes and
//! rewrites gates without regard to unit boundaries, and the downstream
//! LUT mapper packs the surviving gates into LUTs that may span units.
//!
//! # Example
//!
//! ```
//! use dataflow::{Graph, UnitKind, PortRef};
//! use netlist::elaborate;
//!
//! # fn main() -> Result<(), dataflow::GraphError> {
//! let mut g = Graph::new("tiny");
//! let bb = g.add_basic_block("bb0");
//! let e = g.add_unit(UnitKind::Entry, "e", bb, 0)?;
//! let x = g.add_unit(UnitKind::Exit, "x", bb, 0)?;
//! g.connect(PortRef::new(e, 0), PortRef::new(x, 0))?;
//! g.validate()?;
//! let mut nl = elaborate(&g).unwrap().netlist;
//! nl.optimize();
//! assert!(nl.num_live_gates() > 0);
//! # Ok(())
//! # }
//! ```

mod blif;
pub mod datapath;
mod elaborate;
mod gate;
mod isolate;
mod matching;
mod netgraph;
mod opt;
mod simulate;

pub use blif::write_blif;
pub use elaborate::{elaborate, ElaborateError, Elaboration};
pub use gate::{Gate, GateId, GateKind, Origin};
pub use isolate::elaborate_isolated;
pub use matching::{match_netlists, NetlistMatching};
pub use netgraph::Netlist;
pub use opt::OptStats;
pub use simulate::NetlistSim;
