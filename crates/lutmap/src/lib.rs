//! Depth-optimal K-LUT technology mapping (FlowMap).
//!
//! This crate plays the role of ABC's `if -K 6` command in the paper's
//! flow: it covers the combinational gates of an optimized
//! [`Netlist`](netlist::Netlist) with K-input look-up tables such that the
//! number of LUT levels on every register-to-register path is minimal
//! (FlowMap is provably depth-optimal), and it labels every LUT with the
//! dataflow unit that contributes the most gates to it — the provenance the
//! paper's LUT-to-DFG mapper consumes.
//!
//! # Example
//!
//! ```
//! use netlist::{Netlist, Origin};
//! use lutmap::{map_netlist, MapOptions};
//!
//! # fn main() -> Result<(), lutmap::MapError> {
//! let mut nl = Netlist::new();
//! let o = Origin::External;
//! let inputs: Vec<_> = (0..8).map(|_| nl.input(o)).collect();
//! let root = nl.and_tree(&inputs, o);
//! nl.add_keep(root, "out");
//! let mapped = map_netlist(&nl, &MapOptions::default())?;
//! // An 8-input AND cannot fit one 6-LUT, so the depth-optimal cover
//! // has exactly two levels.
//! assert_eq!(mapped.depth(), 2);
//! # Ok(())
//! # }
//! ```

mod eval;
mod flowmap;
mod mapper;
mod network;
mod reference;

pub use eval::check_equivalence;
pub use flowmap::{MapSeed, MapStats};
pub use mapper::{map_netlist, map_netlist_with_seed, MapError, MapOptions};
pub use network::{Lut, LutId, LutInput, LutNetwork};
pub use reference::map_netlist_reference;
